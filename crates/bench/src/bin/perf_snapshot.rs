//! Machine-readable solver performance snapshot.
//!
//! Runs the per-width synthesis workloads (cold and repeat) plus a
//! simulator throughput probe, and
//! writes `BENCH_solver.json` so CI tracks the perf trajectory from one
//! measured environment. Run with:
//!
//! ```text
//! cargo run --release -p bench --bin perf_snapshot
//! ```

use bench::{adder_spec, alu_spec, GCD_SOURCE};
use cells::lsi::lsi_logic_subset;
use controlc::close_design;
use dtas::lola::with_derived_rules;
use dtas::service::percentile;
use dtas::{
    Admission, CheckpointOutcome, Dtas, DtasService, Priority, RuleSet, ServeConfig, ServiceConfig,
    SynthRequest, WireClient, WireServer,
};
use genus::behavior::Env;
use genus::spec::ComponentSpec;
use hls::compile::{compile, Constraints};
use hls::lang::parse_entity;
use rtl_base::bits::Bits;
use rtlsim::{FlatDesign, Simulator};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn ms(f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e3
}

struct QueryRow {
    name: String,
    first_ms: f64,
    repeat_ns: f64,
    alternatives: usize,
    spec_nodes: usize,
}

/// Hits per timed batch, and batches per spec: a repeat is the median
/// batch's per-call time over 101 x 100 = 10,100 hits.
const HIT_BATCH: u32 = 100;
const HIT_BATCHES: usize = 101;

/// Median per-call nanoseconds of a memo hit on `spec`.
fn repeat_ns(engine: &Dtas, spec: &ComponentSpec) -> f64 {
    let per_call = (0..HIT_BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..HIT_BATCH {
                std::hint::black_box(engine.run(spec).expect("a hit"));
            }
            t0.elapsed().as_nanos() as f64 / f64::from(HIT_BATCH)
        })
        .collect();
    quartiles(per_call)[1]
}

fn run_queries(engine: &Dtas, specs: &[(String, ComponentSpec)]) -> Vec<QueryRow> {
    specs
        .iter()
        .map(|(name, spec)| {
            let t0 = Instant::now();
            let set = engine.run(spec).expect("synthesizes");
            let first_ms = t0.elapsed().as_secs_f64() * 1e3;
            let again = engine.run(spec).expect("synthesizes");
            assert_eq!(set.alternatives.len(), again.alternatives.len());
            QueryRow {
                name: name.clone(),
                first_ms,
                repeat_ns: repeat_ns(engine, spec),
                alternatives: set.alternatives.len(),
                spec_nodes: set.stats.spec_nodes,
            }
        })
        .collect()
}

/// Hit-path throughput with `clients` threads hammering one warmed
/// engine: total queries per second and the per-client share. With the
/// sharded read-mostly memo, per-client throughput should stay within ~2x
/// of a solo client's on a multi-core host (clients only share read
/// locks); on a single core it degrades with the core split instead.
struct ConcurrentRow {
    clients: usize,
    queries_per_client: usize,
    total_qps: f64,
    per_client_qps: f64,
}

fn concurrent_hit_throughput(engine: &Dtas, spec: &ComponentSpec) -> Vec<ConcurrentRow> {
    engine.run(spec).expect("warms");
    let queries_per_client = 2_000usize;
    [1usize, 2, 4]
        .into_iter()
        .map(|clients| {
            let t0 = Instant::now();
            std::thread::scope(|scope| {
                for _ in 0..clients {
                    scope.spawn(|| {
                        for _ in 0..queries_per_client {
                            let set = engine.run(spec).expect("hits");
                            assert!(!set.alternatives.is_empty());
                        }
                    });
                }
            });
            let elapsed = t0.elapsed().as_secs_f64();
            let total = (clients * queries_per_client) as f64;
            ConcurrentRow {
                clients,
                queries_per_client,
                total_qps: total / elapsed,
                per_client_qps: total / elapsed / clients as f64,
            }
        })
        .collect()
}

/// Cold batch (one shared-space, bottom-up pass) vs the per-spec
/// loop on fresh engines.
fn batch_vs_loop_ms(specs: &[(String, ComponentSpec)]) -> (f64, f64) {
    let flat: Vec<ComponentSpec> = specs.iter().map(|(_, s)| s.clone()).collect();
    let batch_engine = Dtas::new(lsi_logic_subset());
    let batch_ms = ms(|| {
        for result in batch_engine.run_batch(&flat) {
            result.expect("synthesizes");
        }
    });
    let loop_engine = Dtas::new(lsi_logic_subset());
    let loop_ms = ms(|| {
        for spec in &flat {
            loop_engine.run(spec).expect("synthesizes");
        }
    });
    (batch_ms, loop_ms)
}

/// ALU64 first answers behind `warm_start.cold_first_ms` (cold solves)
/// and `warm_start.warm_first_ms` (engines restarted over the persisted
/// chain), each on a fresh engine: their median, so one answer in a slow
/// spell on a shared host does not become the reported figure.
const FIRST_ANSWERS: usize = 5;

/// Warm-start + tiered-store metrics: cold first query vs a second
/// engine loading the persisted chain (the restart / cross-process
/// scenario), lazy vs full-decode load cost, and full vs delta
/// checkpoint cost.
struct WarmStart {
    cold_first_ms: f64,
    snapshot_save_ms: f64,
    snapshot_load_ms: f64,
    warm_first_ms: f64,
    snapshot_bytes: u64,
    persisted_results: u64,
    load_full_decode_ms: f64,
    checkpoint_delta_ms: f64,
    delta_bytes: u64,
}

fn warm_start_metrics(spec: &ComponentSpec) -> WarmStart {
    let dir = std::env::temp_dir().join(format!("dtas-perf-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let cold = Dtas::warm_start(lsi_logic_subset(), &dir);
    let mut cold_ms = vec![ms(|| {
        cold.run(spec).expect("cold solves");
    })];
    // The other cold solves run on engines that persist nothing.
    for _ in 1..FIRST_ANSWERS {
        let fresh = Dtas::new(lsi_logic_subset());
        cold_ms.push(ms(|| {
            fresh.run(spec).expect("cold solves");
        }));
    }
    let cold_first_ms = quartiles(cold_ms)[1];
    // Widen the persisted set so the lazy-vs-full load comparison decodes
    // more than one result.
    for extra in [adder_spec(8), adder_spec(16), adder_spec(32)] {
        cold.run(&extra).expect("solves");
    }
    let t0 = Instant::now();
    let outcome = cold
        .checkpoint()
        .expect("snapshot writes")
        .expect("store bound");
    let snapshot_save_ms = t0.elapsed().as_secs_f64() * 1e3;
    let report = match outcome {
        CheckpointOutcome::Full(report) => report,
        other => panic!("first checkpoint must write a base, got {other:?}"),
    };

    // One more small solve, then checkpoint again: the O(dirty) delta
    // append, an order of magnitude smaller and cheaper than the base.
    cold.run(adder_spec(4)).expect("solves");
    let t0 = Instant::now();
    let outcome = cold
        .checkpoint()
        .expect("delta writes")
        .expect("store bound");
    let checkpoint_delta_ms = t0.elapsed().as_secs_f64() * 1e3;
    let delta = match outcome {
        CheckpointOutcome::Delta(report) => report,
        other => panic!("dirty checkpoint on a chain must append a delta, got {other:?}"),
    };
    // CI bar (acceptance): a one-result delta must stay under 10% of the
    // full snapshot's bytes. The perf gate re-asserts the same floor from
    // the emitted `base_over_delta_bytes` field.
    assert!(
        delta.bytes * 10 < report.bytes,
        "delta checkpoint ({} bytes) must be <10% of the base snapshot ({} bytes)",
        delta.bytes,
        report.bytes
    );

    // A second engine (the restarted process): construction maps the
    // chain and validates the index but decodes nothing — the lazy load.
    let t0 = Instant::now();
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    let snapshot_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let stats = warm.cache_stats();
    assert_eq!(stats.snapshot_loads, 1, "snapshot must load");
    let mut warm_ms = vec![ms(|| {
        warm.run(spec).expect("warm hit");
    })];
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "first query must hit");
    // The other first answers run on engines restarted over the same
    // chain; each decodes the ALU64 section afresh.
    for _ in 1..FIRST_ANSWERS {
        let restarted = Dtas::warm_start(lsi_logic_subset(), &dir);
        warm_ms.push(ms(|| {
            restarted.run(spec).expect("warm hit");
        }));
    }
    let warm_first_ms = quartiles(warm_ms)[1];
    // CI smoke bar: the warm first query must be far under the cold one
    // (in practice it is >1000x faster; 25% leaves room for noise).
    assert!(
        warm_first_ms < 0.25 * cold_first_ms,
        "warm-start first query ({warm_first_ms:.3} ms) must be <25% of cold ({cold_first_ms:.3} ms)"
    );

    // A third engine decoding every persisted answer up front, and the
    // denominator of the lazy-load acceptance bar. Each answer decodes
    // from its own section.
    let t0 = Instant::now();
    let full = Dtas::warm_start(lsi_logic_subset(), &dir);
    let decoded = full.prefault();
    let load_full_decode_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        decoded,
        report.results + delta.results,
        "prefault must decode the whole chain"
    );
    // CI bar (acceptance): the lazy load must cost <=25% of a
    // full-decode load. The perf gate re-asserts the same floor from the
    // emitted `full_over_lazy_load` field.
    assert!(
        snapshot_load_ms <= 0.25 * load_full_decode_ms,
        "lazy load ({snapshot_load_ms:.3} ms) must be <=25% of a full decode \
         ({load_full_decode_ms:.3} ms)"
    );

    // Drop every engine BEFORE deleting the directory: a drop-flush
    // after the delete would resurrect it.
    drop(cold);
    drop(warm);
    drop(full);
    let _ = std::fs::remove_dir_all(&dir);
    WarmStart {
        cold_first_ms,
        snapshot_save_ms,
        snapshot_load_ms,
        warm_first_ms,
        snapshot_bytes: report.bytes,
        persisted_results: report.results as u64,
        load_full_decode_ms,
        checkpoint_delta_ms,
        delta_bytes: delta.bytes,
    }
}

/// Incremental-engine metrics: how much decorated near-identical
/// traffic collapses onto canonical memo entries, and how much warm
/// state a one-rule update keeps.
struct Incremental {
    decorated_queries: u64,
    canonical_hits: u64,
    collapse_hit_ratio: f64,
    specs_collapsed: u64,
    fronts_retained: usize,
    fronts_dropped: usize,
    retained_after_update: f64,
    update_ms: f64,
}

fn incremental_metrics(alu64: &ComponentSpec) -> Incremental {
    // Canonical collapse: warm the plain spec, then replay a mix of
    // style/width2-decorated variants the library provably ignores.
    // Every collapsed variant answers from the single warm entry.
    let engine = Dtas::new(lsi_logic_subset());
    engine.run(alu64).expect("solves");
    let mut decorated: Vec<ComponentSpec> = Vec::new();
    for style in ["FASTEST", "LOWPOWER", "SMALL"] {
        decorated.push(alu64.clone().with_style(style));
    }
    for w2 in [1usize, 2, 3] {
        decorated.push(alu64.clone().with_width2(w2));
    }
    for spec in &decorated {
        engine.run(spec).expect("solves");
    }
    let stats = engine.cache_stats();
    let collapse_hit_ratio = stats.canonical_hits as f64 / decorated.len() as f64;
    // CI bar (acceptance): the decorated mix must actually collapse —
    // at least half the variants answer through a canonical hit.
    assert!(
        collapse_hit_ratio >= 0.5,
        "decorated ALU64 mix must collapse onto the warm canonical entry \
         ({}/{} canonical hits)",
        stats.canonical_hits,
        decorated.len()
    );

    // Delta invalidation: warm under the standard rules, then add the
    // LSI-derived rules in place. Leaf/adder structure the new rules
    // cannot reach stays warm; the report counts both sides.
    let mut updated = Dtas::builder(lsi_logic_subset())
        .rules(RuleSet::standard())
        .build();
    updated.run(alu64).expect("solves");
    let t0 = Instant::now();
    let report = updated.update_rules(with_derived_rules(RuleSet::standard(), &lsi_logic_subset()));
    let update_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (retained, dropped) = (report.retained.fronts, report.dropped.fronts);
    let retained_after_update = retained as f64 / ((retained + dropped).max(1)) as f64;
    Incremental {
        decorated_queries: decorated.len() as u64,
        canonical_hits: stats.canonical_hits,
        collapse_hit_ratio,
        specs_collapsed: stats.specs_collapsed,
        fronts_retained: retained,
        fronts_dropped: dropped,
        retained_after_update,
        update_ms,
    }
}

/// One saturation measurement: N clients driving the service as hard as
/// they can (pipelined batch submission) over an already-warm spec.
struct ServiceLoad {
    clients: usize,
    completed: u64,
    qps: f64,
}

/// The `service` block: saturation throughput at 1/2/4 clients vs the
/// *direct* engine path at the same client count and spec, queue-wait
/// percentiles at saturation, and a deliberately-overloaded run showing
/// admission control shedding.
struct ServiceMetrics {
    workers: usize,
    queue_depth: usize,
    loads: Vec<ServiceLoad>,
    direct_qps_equal_clients: f64,
    wait_p50_us: u64,
    wait_p99_us: u64,
    overload_queue_depth: usize,
    overload_submitted: u64,
    overload_completed: u64,
    overload_shed: u64,
    /// Medians over the interleaved deadline pairs.
    deadline_plain_qps: f64,
    deadline_stamped_qps: f64,
    /// Quartiles `[q1, median, q3]` of the per-pair stamped/plain ratios.
    deadline_vs_plain: [f64; 3],
}

/// Interleaved plain/stamped pairs behind `deadline_vs_plain`: enough
/// that its median stays clear of the gate's 0.95 floor on a busy host.
/// Over 24 runs on a 2-vCPU Xeon it read 0.956–0.997 with 81 pairs,
/// against 0.938–1.024 (two runs under the floor) with 21.
const DEADLINE_PAIRS: usize = 81;

/// `[q1, median, q3]` of `values`, linearly interpolated.
fn quartiles(mut values: Vec<f64>) -> [f64; 3] {
    values.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = (values.len() - 1) as f64 * q;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
    };
    [at(0.25), at(0.5), at(0.75)]
}

/// Direct-path reference at `clients` threads: the same spec hammered via
/// `Dtas::run` (every hit hands out the memoized `Arc`).
fn direct_concurrent_qps(
    engine: &Dtas,
    spec: &ComponentSpec,
    clients: usize,
    per_client: usize,
) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            scope.spawn(|| {
                for _ in 0..per_client {
                    engine.run(spec).expect("hits");
                }
            });
        }
    });
    (clients * per_client) as f64 / t0.elapsed().as_secs_f64()
}

/// One saturation run: `clients` threads pipelining `per_client` memo
/// hits each (chunked batch submission), optionally stamping every
/// request with a deadline. Returns QPS.
fn saturation_run(
    engine: &Arc<Dtas>,
    spec: &ComponentSpec,
    clients: usize,
    per_client: usize,
    queue_depth: usize,
    deadline: Option<Duration>,
) -> f64 {
    let service = DtasService::start(
        Arc::clone(engine),
        ServiceConfig {
            queue_depth,
            admission: Admission::Block {
                timeout: Duration::from_secs(60),
            },
            ..ServiceConfig::default()
        },
    );
    let chunk = 64usize;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..clients {
            let service = &service;
            scope.spawn(move || {
                let mut submitted = 0usize;
                while submitted < per_client {
                    let n = chunk.min(per_client - submitted);
                    submitted += n;
                    let tickets = service.submit_batch((0..n).map(|_| {
                        let request = SynthRequest::new(spec.clone());
                        match deadline {
                            Some(d) => request.with_deadline(d),
                            None => request,
                        }
                    }));
                    for ticket in tickets {
                        ticket.expect("admitted").recv().expect("solves");
                    }
                }
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = service.shutdown();
    assert_eq!(
        stats.deadline_expired, 0,
        "far-future deadlines never fire: {stats}"
    );
    (clients * per_client) as f64 / elapsed
}

fn service_metrics(engine: &Arc<Dtas>, spec: &ComponentSpec) -> ServiceMetrics {
    engine.run(spec).expect("warms");
    let queue_depth = 4096;
    let per_client = 2_000usize;
    let chunk = 64usize;
    let client_counts = [1usize, 2, 4];
    let mut loads = Vec::new();
    let mut waits_us: Vec<u64> = Vec::new();
    let mut workers = 0;
    for clients in client_counts {
        let service = DtasService::start(
            Arc::clone(engine),
            ServiceConfig {
                queue_depth,
                admission: Admission::Block {
                    timeout: Duration::from_secs(60),
                },
                ..ServiceConfig::default()
            },
        );
        workers = service.config().worker_count();
        let t0 = Instant::now();
        let per_client_waits: Vec<Vec<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let service = &service;
                    scope.spawn(move || {
                        let mut waits = Vec::with_capacity(per_client);
                        let mut submitted = 0usize;
                        while submitted < per_client {
                            let n = chunk.min(per_client - submitted);
                            submitted += n;
                            let tickets = service
                                .submit_batch((0..n).map(|_| SynthRequest::new(spec.clone())));
                            for ticket in tickets {
                                let outcome = ticket.expect("admitted").recv().expect("solves");
                                waits.push(outcome.queued_for.as_micros() as u64);
                            }
                        }
                        waits
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let stats = service.shutdown();
        let completed = (clients * per_client) as u64;
        assert_eq!(
            stats.completed, completed,
            "every admitted request must complete"
        );
        assert_eq!((stats.rejected, stats.shed), (0, 0), "no overload expected");
        loads.push(ServiceLoad {
            clients,
            completed,
            qps: completed as f64 / elapsed,
        });
        if clients == *client_counts.last().expect("nonempty") {
            waits_us = per_client_waits.concat();
        }
    }
    waits_us.sort_unstable();

    let max_clients = *client_counts.last().expect("nonempty");
    let direct_qps_equal_clients = direct_concurrent_qps(engine, spec, max_clients, per_client);
    // Since `Dtas::run` delivers `Arc`s on the direct path too, the
    // service no longer out-runs it — a queue hand-off costs more than
    // an Arc clone, and the service's value is admission control,
    // deadlines, and checkpointing, not raw hit throughput. The emitted
    // `service_vs_direct` field reports the ratio for trend-watching;
    // regressions are caught by the perf gate's baseline comparison of
    // `service.saturation_qps`.

    // Deliberate overload: an undersized queue with ShedOldest must shed
    // (admission control visibly working) while everything still resolves.
    let overload_queue_depth = 4;
    let service = DtasService::start(
        Arc::clone(engine),
        ServiceConfig {
            workers: Some(1),
            queue_depth: overload_queue_depth,
            admission: Admission::ShedOldest,
            ..ServiceConfig::default()
        },
    );
    let overload_per_client = 2_000usize;
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let service = &service;
            scope.spawn(move || {
                let tickets: Vec<_> = (0..overload_per_client)
                    .map(|_| {
                        service
                            .submit(SynthRequest::new(spec.clone()))
                            .expect("ShedOldest always admits")
                    })
                    .collect();
                for ticket in tickets {
                    // Every ticket resolves: served or shed.
                    let _ = ticket.recv();
                }
            });
        }
    });
    let overload = service.shutdown();
    assert!(
        overload.shed > 0,
        "an undersized queue under 2 fast clients must shed: {overload}"
    );
    assert_eq!(
        overload.admitted,
        overload.completed + overload.shed,
        "admitted requests either complete or shed: {overload}"
    );

    // Deadline bookkeeping overhead: the same saturation workload with
    // every request stamped with a far-future deadline, so the stamping,
    // sweeper scheduling and at-pop expiry checks are all active while
    // nothing actually expires. Both sides run back to back in each of
    // DEADLINE_PAIRS pairs, alternating which goes first, and each pair
    // yields one stamped/plain ratio: a slow spell on a shared host then
    // lands inside one pair, on either side equally often, and the
    // median ratio (reported with its quartiles) shrugs it off.
    let saturation =
        |deadline| saturation_run(engine, spec, max_clients, per_client, queue_depth, deadline);
    let far = Some(Duration::from_secs(3600));
    let mut plain_qps = Vec::with_capacity(DEADLINE_PAIRS);
    let mut stamped_qps = Vec::with_capacity(DEADLINE_PAIRS);
    for pair in 0..DEADLINE_PAIRS {
        let (plain, stamped) = if pair % 2 == 0 {
            let plain = saturation(None);
            (plain, saturation(far))
        } else {
            let stamped = saturation(far);
            (saturation(None), stamped)
        };
        plain_qps.push(plain);
        stamped_qps.push(stamped);
    }
    let ratios = plain_qps
        .iter()
        .zip(&stamped_qps)
        .map(|(plain, stamped)| stamped / plain.max(1e-9))
        .collect();
    let deadline_vs_plain = quartiles(ratios);
    // Deadline bookkeeping must cost <5% of saturation QPS. The snapshot
    // only reports the ratio: the perf gate floors the emitted
    // `deadline_vs_plain` field at 0.95, and an in-process abort here
    // would lose every other number of the run.
    if deadline_vs_plain[1] < 0.95 {
        eprintln!(
            "note: deadline_vs_plain below 0.95 (median {:.3}, quartiles {:.3}-{:.3}); \
             perf_gate judges it",
            deadline_vs_plain[1], deadline_vs_plain[0], deadline_vs_plain[2]
        );
    }

    ServiceMetrics {
        workers,
        queue_depth,
        loads,
        direct_qps_equal_clients,
        wait_p50_us: percentile(&waits_us, 50.0),
        wait_p99_us: percentile(&waits_us, 99.0),
        overload_queue_depth,
        overload_submitted: overload.admitted,
        overload_completed: overload.completed,
        overload_shed: overload.shed,
        deadline_plain_qps: quartiles(plain_qps)[1],
        deadline_stamped_qps: quartiles(stamped_qps)[1],
        deadline_vs_plain,
    }
}

/// One loopback load point: N pipelined wire clients against a
/// [`WireServer`] on an ephemeral 127.0.0.1 port.
struct ServeLoad {
    clients: usize,
    completed: u64,
    qps: f64,
}

/// The `serve` block: loopback wire-protocol throughput at 1/2/4
/// clients plus client-observed round-trip percentiles at the highest
/// client count. Every request crosses the full network stack — frame
/// encode, TCP loopback, checksum verify, service queue, frame back —
/// so this is the end-to-end number `dtas bench-load --connect` sees.
struct ServeMetrics {
    loads: Vec<ServeLoad>,
    rtt_p50_us: u64,
    rtt_p99_us: u64,
}

/// Fresh loopback runs at the highest client count behind the `serve`
/// RTT percentiles: each is the median of the per-run values, so the
/// tail of one run in a slow spell on a shared host does not become the
/// reported figure.
const RTT_RUNS: usize = 5;

fn serve_metrics(engine: &Arc<Dtas>, spec: &ComponentSpec) -> ServeMetrics {
    engine.run(spec).expect("warms");
    let mut loads: Vec<ServeLoad> = [1usize, 2]
        .into_iter()
        .map(|clients| loopback_run(engine, spec, clients).0)
        .collect();
    let (mut p50s, mut p99s) = (Vec::new(), Vec::new());
    for run in 0..RTT_RUNS {
        let (load, mut rtts_us) = loopback_run(engine, spec, 4);
        if run == 0 {
            loads.push(load);
        }
        rtts_us.sort_unstable();
        p50s.push(percentile(&rtts_us, 50.0) as f64);
        p99s.push(percentile(&rtts_us, 99.0) as f64);
    }
    ServeMetrics {
        loads,
        rtt_p50_us: quartiles(p50s)[1].round() as u64,
        rtt_p99_us: quartiles(p99s)[1].round() as u64,
    }
}

/// One load point on a fresh [`WireServer`]: `clients` pipelined wire
/// clients, and every request's client-observed round trip in µs.
fn loopback_run(engine: &Arc<Dtas>, spec: &ComponentSpec, clients: usize) -> (ServeLoad, Vec<u64>) {
    let per_client = 2_000usize;
    // Same pipeline depth as `dtas bench-load --connect`: deep enough to
    // keep the socket busy, shallow enough that RTTs stay queue-bounded.
    let window = 32usize;
    let server = WireServer::start(
        Arc::clone(engine),
        ServeConfig {
            service: ServiceConfig {
                queue_depth: 4096,
                admission: Admission::Block {
                    timeout: Duration::from_secs(60),
                },
                ..ServiceConfig::default()
            },
            ..ServeConfig::default()
        },
        ("127.0.0.1", 0),
    )
    .expect("binds an ephemeral loopback port");
    let addr = server.local_addr();
    let t0 = Instant::now();
    let per_client_rtts: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                scope.spawn(move || {
                    let lane = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Bulk
                    };
                    let mut client =
                        WireClient::connect(addr, lane).expect("loopback client connects");
                    let request = SynthRequest::new(spec.clone());
                    let mut sent_at: VecDeque<Instant> = VecDeque::with_capacity(window);
                    let mut rtts = Vec::with_capacity(per_client);
                    let mut drain = |client: &mut WireClient, sent: Instant| {
                        let result = client.recv_result().expect("result frame");
                        result.result.expect("loopback hit serves");
                        rtts.push(sent.elapsed().as_micros() as u64);
                    };
                    for _ in 0..per_client {
                        if sent_at.len() == window {
                            let sent = sent_at.pop_front().expect("window nonempty");
                            drain(&mut client, sent);
                        }
                        client.submit(&request).expect("submits");
                        sent_at.push_back(Instant::now());
                    }
                    while let Some(sent) = sent_at.pop_front() {
                        drain(&mut client, sent);
                    }
                    rtts
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = server.shutdown();
    let completed = (clients * per_client) as u64;
    assert_eq!(
        stats.completed, stats.admitted,
        "graceful shutdown drains every admitted request: {stats}"
    );
    assert!(
        stats.completed >= completed,
        "every client request completed: {stats}"
    );
    let load = ServeLoad {
        clients,
        completed,
        qps: completed as f64 / elapsed,
    };
    (load, per_client_rtts.concat())
}

fn gcd_cycles_per_sec() -> f64 {
    let entity = parse_entity(GCD_SOURCE).expect("parses");
    let design = compile(&entity, &Constraints::default()).expect("compiles");
    let closed = close_design(&design).expect("links");
    let flat = FlatDesign::from_netlist(&closed).expect("flattens");
    let inputs = Env::from([
        ("clk".to_string(), Bits::zero(1)),
        ("a_in".to_string(), Bits::from_u64(8, 48)),
        ("b_in".to_string(), Bits::from_u64(8, 36)),
    ]);
    let mut sim = Simulator::new(&flat).expect("levelizes");
    let cycles = 500u32;
    let t0 = Instant::now();
    for _ in 0..cycles {
        sim.step(&inputs).expect("steps");
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// The machine a snapshot was recorded on: vCPU count and CPU model, so
/// a committed baseline names its host.
fn host_label(threads: usize) -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().replace(['"', '\\'], ""))
        })
        .unwrap_or_else(|| "unknown CPU".into());
    format!("{threads} vCPU, {model}")
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let specs: Vec<(String, ComponentSpec)> = vec![
        ("ADD8".into(), adder_spec(8)),
        ("ADD16".into(), adder_spec(16)),
        ("ADD32".into(), adder_spec(32)),
        ("ALU16".into(), alu_spec(16)),
        ("ALU32".into(), alu_spec(32)),
        ("ALU64".into(), alu_spec(64)),
    ];

    // Default engine: one shared space. Arc'd so the service saturation
    // runs can share it with their worker pools.
    let engine = Arc::new(Dtas::new(lsi_logic_subset()));
    let rows = run_queries(&engine, &specs);
    let stats = engine.cache_stats();

    let alu64 = alu_spec(64);

    let sim_cps = gcd_cycles_per_sec();
    let warm = warm_start_metrics(&alu64);
    let incremental = incremental_metrics(&alu64);

    // Concurrent hit-path clients against the (already warm) default
    // engine — the serialization-fix metric.
    let concurrent = concurrent_hit_throughput(&engine, &adder_spec(16));
    let contention_stats = engine.cache_stats();
    let (batch_ms, loop_ms) = batch_vs_loop_ms(&specs);

    // The admission-controlled service over the same warmed engine:
    // saturation throughput, queue waits, and overload shedding.
    let service = service_metrics(&engine, &alu64);

    // The wire protocol end to end: loopback TCP throughput and
    // client-observed round trips, the `dtas serve` hot path. ADD16
    // rather than ALU64: an ALU64 result frame serializes hundreds of
    // kilobytes, so it measures loopback bandwidth; the small ADD16
    // frame measures the protocol itself.
    let serve = serve_metrics(&engine, &adder_spec(16));

    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"dtas-perf-snapshot/1\",");
    let _ = writeln!(json, "  \"threads_available\": {threads},");
    let _ = writeln!(json, "  \"host\": \"{}\",", host_label(threads));
    let _ = writeln!(
        json,
        "  \"prechange_reference_ms\": {{ \"ALU64_first\": 504.0, \"ADD16_first\": 84.0, \"note\": \"pre-optimization walls from the original single-core dev container; a foreign-machine reference only — compare queries[].first_ms against a baseline measured on THIS machine\" }},"
    );
    let _ = writeln!(json, "  \"queries\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"first_ms\": {:.3}, \"repeat_ns\": {:.0}, \"repeat_speedup\": {:.1}, \"alternatives\": {}, \"spec_nodes\": {} }}{comma}",
            r.name,
            r.first_ms,
            r.repeat_ns,
            r.first_ms * 1e6 / r.repeat_ns.max(1.0),
            r.alternatives,
            r.spec_nodes,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"cache\": {{ \"hits\": {}, \"misses\": {}, \"cached_results\": {}, \"cached_fronts\": {}, \"spec_nodes\": {} }},",
        stats.hits, stats.misses, stats.cached_results, stats.cached_fronts, stats.spec_nodes
    );
    let _ = writeln!(json, "  \"concurrent_hit_clients\": [");
    let solo_qps = concurrent
        .first()
        .map(|r| r.per_client_qps)
        .unwrap_or(1.0)
        .max(1e-9);
    for (i, r) in concurrent.iter().enumerate() {
        let comma = if i + 1 == concurrent.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "    {{ \"clients\": {}, \"queries_per_client\": {}, \"total_qps\": {:.0}, \"per_client_qps\": {:.0}, \"per_client_vs_solo\": {:.3} }}{comma}",
            r.clients,
            r.queries_per_client,
            r.total_qps,
            r.per_client_qps,
            r.per_client_qps / solo_qps,
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(
        json,
        "  \"concurrent_note\": \"per_client_vs_solo >= 0.5 at 2+ clients demonstrates the unserialized hit path; on a single-core host the core split alone caps it near 1/clients\","
    );
    let _ = writeln!(
        json,
        "  \"contention\": {{ \"result_shards\": {}, \"shard_contention\": {}, \"state_exclusive\": {}, \"poison_recoveries\": {} }},",
        contention_stats.result_shards,
        contention_stats.shard_contention,
        contention_stats.state_exclusive,
        contention_stats.poison_recoveries,
    );
    let _ = writeln!(
        json,
        "  \"batch_vs_loop_cold_ms\": {{ \"batch\": {batch_ms:.3}, \"per_spec_loop\": {loop_ms:.3} }},"
    );
    let _ = writeln!(json, "  \"service\": {{");
    let _ = writeln!(json, "    \"spec\": \"ALU64\",");
    let _ = writeln!(
        json,
        "    \"workers\": {}, \"queue_depth\": {},",
        service.workers, service.queue_depth
    );
    let _ = writeln!(json, "    \"saturation\": [");
    for (i, load) in service.loads.iter().enumerate() {
        let comma = if i + 1 == service.loads.len() {
            ""
        } else {
            ","
        };
        let _ = writeln!(
            json,
            "      {{ \"clients\": {}, \"completed\": {}, \"qps\": {:.0} }}{comma}",
            load.clients, load.completed, load.qps
        );
    }
    let _ = writeln!(json, "    ],");
    let saturation_qps = service.loads.last().map(|l| l.qps).unwrap_or(0.0);
    let _ = writeln!(
        json,
        "    \"saturation_qps\": {:.0}, \"direct_qps_equal_clients\": {:.0}, \"service_vs_direct\": {:.3},",
        saturation_qps,
        service.direct_qps_equal_clients,
        saturation_qps / service.direct_qps_equal_clients.max(1e-9)
    );
    let _ = writeln!(
        json,
        "    \"queue_wait_p50_us\": {}, \"queue_wait_p99_us\": {},",
        service.wait_p50_us, service.wait_p99_us
    );
    let _ = writeln!(
        json,
        "    \"overload\": {{ \"queue_depth\": {}, \"workers\": 1, \"submitted\": {}, \"completed\": {}, \"shed\": {}, \"shed_rate\": {:.3} }},",
        service.overload_queue_depth,
        service.overload_submitted,
        service.overload_completed,
        service.overload_shed,
        service.overload_shed as f64 / service.overload_submitted.max(1) as f64
    );
    let _ = writeln!(
        json,
        "    \"deadline_pairs\": {DEADLINE_PAIRS}, \"deadline_plain_qps\": {:.0}, \"deadline_stamped_qps\": {:.0}, \"deadline_vs_plain\": {:.3}, \"deadline_vs_plain_q1\": {:.3}, \"deadline_vs_plain_q3\": {:.3},",
        service.deadline_plain_qps,
        service.deadline_stamped_qps,
        service.deadline_vs_plain[1],
        service.deadline_vs_plain[0],
        service.deadline_vs_plain[2],
    );
    let _ = writeln!(
        json,
        "    \"note\": \"saturation: clients pipeline batches of ALU64 memo hits through DtasService (Arc delivery); service_vs_direct is reported for trend-watching only — since Dtas::run also delivers Arcs on the direct path, the queue hand-off makes the ratio < 1 by design. overload: an undersized ShedOldest queue must shed (shed > 0 asserted) while every ticket still resolves. deadline: the same saturation with every request stamped with a far-future deadline, run as deadline_pairs back-to-back plain/stamped pairs alternating which side goes first; deadline_vs_plain is the median of the per-pair stamped/plain ratios (q1/q3 their quartiles, plain/stamped qps the per-side medians) and >= 0.95 is gated from the stored field\""
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"serve\": {{");
    let _ = writeln!(json, "    \"spec\": \"ADD16\",");
    let _ = writeln!(json, "    \"loopback\": [");
    for (i, load) in serve.loads.iter().enumerate() {
        let comma = if i + 1 == serve.loads.len() { "" } else { "," };
        let _ = writeln!(
            json,
            "      {{ \"clients\": {}, \"completed\": {}, \"qps\": {:.0} }}{comma}",
            load.clients, load.completed, load.qps
        );
    }
    let _ = writeln!(json, "    ],");
    let serve_saturation_qps = serve.loads.last().map(|l| l.qps).unwrap_or(0.0);
    let _ = writeln!(
        json,
        "    \"saturation_qps\": {serve_saturation_qps:.0}, \"rtt_p50_us\": {}, \"rtt_p99_us\": {},",
        serve.rtt_p50_us, serve.rtt_p99_us
    );
    let _ = writeln!(
        json,
        "    \"note\": \"ADD16 memo hits over the real wire: 32-deep pipelined WireClients against a WireServer on 127.0.0.1 (frame encode + TCP + checksum + service queue per request); rtt percentiles are client-observed at the highest client count and include pipeline queueing; each is the median of the per-run percentile over {RTT_RUNS} fresh 4-client runs, the first of which gives the 4-client qps\""
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(
        json,
        "  \"warm_start\": {{ \"spec\": \"ALU64\", \"cold_first_ms\": {:.3}, \"warm_first_ms\": {:.3}, \"warm_speedup\": {:.0}, \"snapshot_save_ms\": {:.3}, \"snapshot_load_ms\": {:.3}, \"snapshot_bytes\": {}, \"persisted_results\": {}, \"note\": \"engines over a persisted --cache-dir snapshot: first-query latency after a process restart; warm_first_ms is the median of {FIRST_ANSWERS} first queries, each on an engine restarted over the chain, and cold_first_ms the median of {FIRST_ANSWERS} cold solves, each on a fresh engine; warm_speedup is reported, not gated\" }},",
        warm.cold_first_ms,
        warm.warm_first_ms,
        warm.cold_first_ms / warm.warm_first_ms.max(1e-6),
        warm.snapshot_save_ms,
        warm.snapshot_load_ms,
        warm.snapshot_bytes,
        warm.persisted_results,
    );
    let _ = writeln!(
        json,
        "  \"store\": {{ \"spec\": \"ALU64+ADD8/16/32 base, ADD4 delta\", \"load_ms\": {:.3}, \"load_full_decode_ms\": {:.3}, \"full_over_lazy_load\": {:.1}, \"checkpoint_full_ms\": {:.3}, \"checkpoint_delta_ms\": {:.3}, \"snapshot_bytes\": {}, \"delta_bytes\": {}, \"base_over_delta_bytes\": {:.1}, \"note\": \"tiered store: load_ms is a lazy (mmap + index-validate, O(index)) load, load_full_decode_ms additionally prefaults every persisted answer (each decodes its own implementation-DAG section; a segment holds answers only); checkpoint_delta_ms appends the one-dirty-result delta vs checkpoint_full_ms rewriting the base. full_over_lazy_load >= 4 and base_over_delta_bytes >= 10 are asserted here and re-gated from the stored fields\" }},",
        warm.snapshot_load_ms,
        warm.load_full_decode_ms,
        warm.load_full_decode_ms / warm.snapshot_load_ms.max(1e-6),
        warm.snapshot_save_ms,
        warm.checkpoint_delta_ms,
        warm.snapshot_bytes,
        warm.delta_bytes,
        warm.snapshot_bytes as f64 / (warm.delta_bytes as f64).max(1e-6),
    );
    let _ = writeln!(
        json,
        "  \"incremental\": {{ \"spec\": \"ALU64\", \"decorated_queries\": {}, \"canonical_hits\": {}, \"collapse_hit_ratio\": {:.3}, \"specs_collapsed\": {}, \"fronts_retained\": {}, \"fronts_dropped\": {}, \"retained_after_update\": {:.3}, \"update_ms\": {:.3}, \"note\": \"collapse: style/width2-decorated ALU64 variants replayed against one warm plain entry; collapse_hit_ratio >= 0.5 is asserted here. retained_after_update: fronts kept warm by update_rules(standard -> standard+lsi) over a warm ALU64 space, from the InvalidationReport; >= 0.5 is gated from the stored field\" }},",
        incremental.decorated_queries,
        incremental.canonical_hits,
        incremental.collapse_hit_ratio,
        incremental.specs_collapsed,
        incremental.fronts_retained,
        incremental.fronts_dropped,
        incremental.retained_after_update,
        incremental.update_ms,
    );
    let _ = writeln!(
        json,
        "  \"sim_gcd_prechange_reference\": {{ \"cycles_per_sec\": 30000, \"note\": \"median of pre-change runs (27k-33k) on the original single-core dev container, before genus::compiled port interning; a foreign-machine reference only - compare sim_gcd_cycles_per_sec against a baseline measured on THIS machine\" }},"
    );
    let _ = writeln!(json, "  \"sim_gcd_cycles_per_sec\": {sim_cps:.0}");
    let _ = writeln!(json, "}}");

    std::fs::write("BENCH_solver.json", &json).expect("writes BENCH_solver.json");
    print!("{json}");
    eprintln!("wrote BENCH_solver.json");
}
