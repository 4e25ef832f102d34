//! `hot_hits`: the memo → `Arc` hit path and the canonical lookup every
//! query pays. Two threads, closed loop, call `Dtas::run` in-process on a
//! seeded Zipf stream over the warm pool, a share of it decorated.

use crate::oracle::{self, Oracle};
use crate::specs::{self, Rng, Zipf};
use crate::stats::{median, percentile, Sheet};
use crate::trace::Tracer;
use dtas::{DesignSet, Dtas};
use genus::spec::ComponentSpec;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STREAM: usize = 4096;
const BATCH: usize = 512;
const THREADS: usize = 2;
/// Share of the stream sent as a decorated variant of its pool spec.
const DECORATED_SHARE: f64 = 0.25;

/// A cheap identity check of one answer, fast enough to run on every
/// hit: alternative count and the first and last alternatives' costs.
fn quick(set: &DesignSet) -> (usize, u64, u64) {
    let first = set.alternatives.first().map_or(0, |a| a.area.to_bits());
    let last = set.alternatives.last().map_or(0, |a| a.delay.to_bits());
    (set.alternatives.len(), first, last)
}

struct Query {
    key: &'static str,
    spec: ComponentSpec,
    expect: (usize, u64, u64),
}

fn stream(engine: &Dtas, rng: &mut Rng, decorated_share: f64) -> Vec<Query> {
    let zipf = Zipf::new(specs::POOL.len());
    (0..STREAM)
        .map(|i| {
            let key = specs::POOL[zipf.sample(rng)];
            let plain = specs::spec(key);
            let expect = engine.run(&plain).map(|s| quick(&s)).unwrap_or_default();
            let spec = if rng.unit() < decorated_share {
                specs::decorated(key, i)
            } else {
                plain
            };
            Query { key, spec, expect }
        })
        .collect()
}

/// Runs the stream on `THREADS` threads until `budget` is spent; returns
/// the mean ns per `run` of every batch and the calls made.
fn drive(engine: &Dtas, queries: &[Query], budget: Duration, sheet: &mut Sheet) -> (Vec<f64>, u64) {
    let deadline = Instant::now() + budget;
    let per_thread: Vec<(Vec<f64>, u64, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                scope.spawn(move || {
                    let (mut batches, mut calls, mut bad) = (Vec::new(), 0u64, Vec::new());
                    let mut offset = t * STREAM / THREADS;
                    while batches.is_empty() || Instant::now() < deadline {
                        let t0 = Instant::now();
                        let mut wrong = 0usize;
                        for j in 0..BATCH {
                            let q = &queries[(offset + j) % queries.len()];
                            match engine.run(black_box(&q.spec)) {
                                Ok(set) => wrong += usize::from(quick(&set) != q.expect),
                                Err(_) => wrong += 1,
                            }
                        }
                        batches.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
                        calls += BATCH as u64;
                        if wrong > 0 {
                            bad.push(format!("{wrong} wrong or failed hits in one batch"));
                        }
                        offset = (offset + BATCH) % queries.len();
                    }
                    (batches, calls, bad)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("hit thread panicked"))
            .collect()
    });
    let mut batches = Vec::new();
    let mut calls = 0;
    for (b, c, bad) in per_thread {
        batches.extend(b);
        calls += c;
        for e in bad {
            sheet.fail(e);
        }
    }
    sheet.attempted += calls;
    (batches, calls)
}

/// Full digests of a seeded sample of the stream, outside the timed loop.
fn verify(engine: &Dtas, queries: &[Query], rng: &mut Rng, oracle: &Oracle, sheet: &mut Sheet) {
    for _ in 0..64 {
        let q = &queries[rng.below(queries.len())];
        let checked = engine
            .run(&q.spec)
            .map_err(|e| format!("{}: {e}", q.key))
            .and_then(|set| oracle.check(q.key, oracle::digest(&set, &specs::spec(q.key))));
        if let Err(e) = checked {
            sheet.fail(format!("hot hit {e}"));
        }
    }
}

/// Wall of one scheduling unit of hits.
const UNIT: Duration = Duration::from_millis(50);

pub struct Leg<'a> {
    engine: &'a Dtas,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    sheet: Sheet,
    rng: Rng,
    queries: Vec<Query>,
    /// Per unit: the median batch's ns per `run`, and calls per second.
    unit_ns: Vec<f64>,
    unit_rate: Vec<f64>,
    calls: u64,
    wall: Duration,
    contention0: u64,
}

impl<'a> Leg<'a> {
    pub fn new(engine: &'a Arc<Dtas>, seed: u64, oracle: &'a Oracle, tracer: &'a Tracer) -> Self {
        let mut rng = Rng::new(seed).fork(0x407);
        let queries = stream(engine, &mut rng, DECORATED_SHARE);
        Leg {
            engine,
            oracle,
            tracer,
            sheet: Sheet::default(),
            rng,
            queries,
            unit_ns: Vec::new(),
            unit_rate: Vec::new(),
            calls: 0,
            wall: Duration::ZERO,
            contention0: engine.cache_stats().shard_contention,
        }
    }
}

impl crate::Leg for Leg<'_> {
    fn step(&mut self) {
        let t0 = Instant::now();
        let (batches, calls) = drive(self.engine, &self.queries, UNIT, &mut self.sheet);
        let wall = t0.elapsed();
        self.wall += wall;
        self.unit_ns.push(median(&batches));
        self.unit_rate.push(calls as f64 / wall.as_secs_f64());
        self.calls += calls;
    }

    fn finish(self: Box<Self>) -> Sheet {
        let Leg {
            engine,
            oracle,
            tracer,
            mut sheet,
            mut rng,
            queries,
            unit_ns,
            unit_rate,
            calls,
            wall,
            contention0,
        } = *self;
        // The best quartile of the units: CPU contention on a shared host
        // only ever slows a unit down.
        sheet.put("hit_ns", percentile(&unit_ns, 25.0), "ns", calls as usize);
        sheet.put(
            "hits_per_s",
            percentile(&unit_rate, 75.0),
            "1/s",
            calls as usize,
        );
        verify(engine, &queries, &mut rng, oracle, &mut sheet);
        if tracer.on() {
            sheet.put(
                "engine.shard_contention",
                (engine.cache_stats().shard_contention - contention0) as f64,
                "count",
                calls as usize,
            );
            // The same loop on an all-plain and an all-decorated stream:
            // the gap between the two is the canonical lookup of a
            // decorated spec.
            for (name, share) in [
                ("engine.plain_hit_ns", 0.0),
                ("canon.decorated_hit_ns", 1.0),
            ] {
                let queries = stream(engine, &mut rng, share);
                let span = tracer.begin(name, 0, None);
                let (batches, _) = drive(engine, &queries, wall / 4, &mut sheet);
                tracer.end(span);
                sheet.put(name, median(&batches), "ns", batches.len());
            }
        }
        sheet
    }
}
