//! `restart`: the warm-start path. Every session restores the pristine
//! chain the set-up checkpointed (untimed), then times a fresh engine on
//! that cache dir: open → first persisted answer (ALU64) → a few more
//! persisted answers → one spec the chain does not hold →
//! `checkpoint()`, which must append a delta.

use crate::oracle::{self, Oracle};
use crate::specs::{self, Rng};
use crate::stats::{mean, median, percentile, Sheet};
use crate::trace::Tracer;
use crate::Setup;
use cells::lsi::lsi_logic_subset;
use dtas::{CheckpointOutcome, Dtas};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Persisted answers asked after the first one.
const NEXT_ANSWERS: usize = 3;
/// Seeded session plans the leg cycles through.
const PLANS: usize = 12;
/// Whole passes over the plans the leg makes at least.
const MIN_PASSES: usize = 2;

/// One session's asks after the first answer: persisted specs, then the
/// spec the chain lacks.
struct Plan {
    next: Vec<&'static str>,
    miss: &'static str,
}
/// Per-session layer timings, in the order a session runs them.
const LAYERS: [&str; 5] = [
    "store.open_ms",
    "store.first_hit_ms",
    "store.next_hit_ms",
    "engine.miss_solve_ms",
    "store.checkpoint_ms",
];

pub fn restore(pristine: &Path, dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    for entry in std::fs::read_dir(pristine)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dir.join(entry.file_name()))?;
    }
    Ok(())
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

pub struct Leg<'a> {
    setup: &'a Setup,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    sheet: Sheet,
    plans: Vec<Plan>,
    dir: PathBuf,
    session: u64,
    /// Per plan, one value per pass.
    first: Vec<Vec<f64>>,
    whole: Vec<Vec<f64>>,
    layers: [Vec<f64>; 5],
    delta_bytes: Vec<f64>,
    lazy: Vec<f64>,
    rejects: u64,
}

impl<'a> Leg<'a> {
    pub fn new(setup: &'a Setup, seed: u64, oracle: &'a Oracle, tracer: &'a Tracer) -> Self {
        let mut rng = Rng::new(seed).fork(0x5E55);
        let plans = (0..PLANS)
            .map(|_| Plan {
                next: (0..NEXT_ANSWERS)
                    .map(|_| *rng.pick(specs::RESTART_NEXT))
                    .collect(),
                miss: specs::MISS[rng.below(specs::MISS.len())],
            })
            .collect();
        Leg {
            setup,
            oracle,
            tracer,
            sheet: Sheet::default(),
            plans,
            dir: setup.work.join("restart"),
            session: 0,
            first: (0..PLANS).map(|_| Vec::new()).collect(),
            whole: (0..PLANS).map(|_| Vec::new()).collect(),
            layers: Default::default(),
            delta_bytes: Vec::new(),
            lazy: Vec::new(),
            rejects: 0,
        }
    }
}

impl crate::Leg for Leg<'_> {
    fn step(&mut self) {
        self.session += 1;
        let (session, tracer) = (self.session, self.tracer);
        self.sheet.attempted += 1;
        if let Err(e) = restore(&self.setup.pristine, &self.dir) {
            self.sheet.fail(format!(
                "session {session}: restoring the pristine chain: {e}"
            ));
            return;
        }
        let index = (session - 1) as usize % PLANS;
        let (next, miss) = (&self.plans[index].next, self.plans[index].miss);
        let mut answers = Vec::new();

        let t0 = Instant::now();
        let root = tracer.begin("restart.session", session, None);
        let parent = root.id();
        let engine = tracer.time("store.open", session, parent, || {
            Dtas::warm_start(lsi_logic_subset(), &self.dir)
        });
        let open_ms = ms_since(t0);
        let t = Instant::now();
        answers.push((
            "alu:64",
            tracer.time("store.first_hit", session, parent, || {
                engine.run(specs::spec("alu:64"))
            }),
        ));
        let first_hit_ms = ms_since(t);
        let t = Instant::now();
        for &key in next {
            answers.push((
                key,
                tracer.time("store.next_hit", session, parent, || {
                    engine.run(specs::spec(key))
                }),
            ));
        }
        let next_ms = ms_since(t) / NEXT_ANSWERS as f64;
        let t = Instant::now();
        answers.push((
            miss,
            tracer.time("engine.miss_solve", session, parent, || {
                engine.run(specs::spec(miss))
            }),
        ));
        let miss_ms = ms_since(t);
        let t = Instant::now();
        let outcome = tracer.time("store.checkpoint", session, parent, || engine.checkpoint());
        let checkpoint_ms = ms_since(t);
        tracer.end(root);
        let session_ms = ms_since(t0);

        let stats = engine.cache_stats();
        drop(engine);
        self.first[index].push(open_ms + first_hit_ms);
        self.whole[index].push(session_ms);
        for (v, x) in
            self.layers
                .iter_mut()
                .zip([open_ms, first_hit_ms, next_ms, miss_ms, checkpoint_ms])
        {
            v.push(x);
        }
        self.lazy.push(stats.lazy_materialized as f64);
        self.rejects += stats.snapshot_rejects;

        let mut bad = Vec::new();
        match outcome {
            Ok(Some(CheckpointOutcome::Delta(report))) => {
                self.delta_bytes.push(report.bytes as f64)
            }
            other => bad.push(format!("checkpoint was not a delta: {other:?}")),
        }
        if stats.snapshot_rejects > 0 {
            bad.push("the pristine chain was rejected".to_string());
        }
        if stats.misses != 1 {
            bad.push(format!(
                "{} solves where only {miss} should solve (a persisted spec missed)",
                stats.misses
            ));
        }
        for (key, answer) in answers {
            let checked = answer.map_err(|e| format!("{key}: {e}")).and_then(|set| {
                self.oracle
                    .check(key, oracle::digest(&set, &specs::spec(key)))
            });
            if let Err(e) = checked {
                bad.push(e);
            }
        }
        for e in bad {
            self.sheet.fail(format!("session {session}: {e}"));
        }
    }

    fn finish(mut self: Box<Self>) -> Sheet {
        while !(self.session as usize).is_multiple_of(PLANS)
            || (self.session as usize) < MIN_PASSES * PLANS
        {
            self.step();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        // Each plan's fastest pass: CPU contention on a shared host only
        // ever adds time.
        let best = |per_plan: &[Vec<f64>]| -> Vec<f64> {
            per_plan
                .iter()
                .map(|v| v.iter().copied().fold(f64::INFINITY, f64::min))
                .collect()
        };
        let (first, whole) = (best(&self.first), best(&self.whole));
        let mut sheet = self.sheet;
        let n = self.session as usize;
        sheet.put("first_answer_ms_p50", median(&first), "ms", n);
        sheet.put("first_answer_ms_p90", percentile(&first, 90.0), "ms", n);
        sheet.put("session_ms_p50", median(&whole), "ms", n);
        if self.tracer.on() {
            for (name, values) in LAYERS.iter().zip(&self.layers) {
                sheet.put(name, median(values), "ms", values.len());
            }
            let deltas = &self.delta_bytes;
            sheet.put("store.delta_bytes", median(deltas), "bytes", deltas.len());
            sheet.put("store.base_bytes", self.setup.base_bytes as f64, "bytes", 1);
            sheet.put("store.lazy_materialized", mean(&self.lazy), "count", n);
            sheet.put("store.snapshot_rejects", self.rejects as f64, "count", n);
        }
        sheet
    }
}
