//! In-memory span recorder, used only by the traced run.
//!
//! A span is a named interval around one call into a layer, with the
//! span that caused it and the request it belongs to. Spans stay in
//! memory until the run ends; [`Tracer::write_jsonl`] writes them out and
//! [`Tracer::self_times`] reports each layer's self time: its spans'
//! durations minus the part of each interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Off, every method is a no-op that costs one branch, so the untraced
/// run times the same code without recording anything.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; [`Tracer::end`] closes it.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'static str,
    start: Instant,
}

impl Open {
    pub fn id(&self) -> Option<u64> {
        (self.id != 0).then_some(self.id)
    }
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Opens a span; a disabled tracer returns a span with id 0 that
    /// `end` ignores.
    pub fn begin(&self, name: &'static str, request: u64, parent: Option<u64>) -> Open {
        Open {
            id: if self.on {
                self.next_id.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            request,
            name,
            start: Instant::now(),
        }
    }

    pub fn end(&self, open: Open) {
        if open.id == 0 {
            return;
        }
        self.push(Span {
            id: open.id,
            parent: open.parent,
            request: open.request,
            name: open.name,
            start_ns: self.ns(open.start),
            end_ns: self.ns(Instant::now()),
        });
    }

    /// Records a span whose interval was measured elsewhere, e.g. a
    /// served request timed from its due time.
    pub fn record(&self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if self.on {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            self.push(Span {
                id,
                parent: None,
                request,
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &self,
        name: &'static str,
        request: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, request, parent);
        let out = f();
        self.end(open);
        out
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
            .clone()
    }

    /// Per layer name: (spans, total ms, self ms).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for span in &spans {
            if let Some(parent) = span.parent {
                children
                    .entry(parent)
                    .or_default()
                    .push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for span in &spans {
            let covered = children
                .get(&span.id)
                .map(|kids| covered_ns(kids, span.start_ns, span.end_ns))
                .unwrap_or(0);
            let total = span.end_ns - span.start_ns;
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += total as f64 / 1e6;
            entry.2 += total.saturating_sub(covered) as f64 / 1e6;
        }
        out
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::covered_ns;

    #[test]
    fn overlapping_children_count_once() {
        assert_eq!(covered_ns(&[(10, 20), (15, 30), (40, 50)], 0, 45), 25);
        assert_eq!(covered_ns(&[], 0, 10), 0);
    }
}
