//! Service-shaped stress coverage for the concurrent `Dtas` engine: many
//! threads hammering one shared engine with mixed hot/cold/batch queries
//! must (a) never diverge from serial fresh-engine answers, (b) never
//! serialize the hit path through an exclusive lock, and (c) survive a
//! client panicking mid-solve by rebuilding the poisoned state.

mod common;

use cells::lsi::lsi_logic_subset;
use common::{fingerprint, Fingerprint};
use dtas::{CacheStats, Dtas, RuleSet, SynthError};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

fn adder(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, width)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

fn alu(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Alu, width)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true)
}

fn mux(width: usize, ways: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Mux, width).with_inputs(ways)
}

/// N threads of mixed hot/cold/batch traffic against one engine: every
/// answer equals the serial fresh-engine answer for that spec.
#[test]
fn mixed_traffic_stays_bit_identical_to_fresh_engines() {
    let specs: Vec<ComponentSpec> = vec![
        adder(8),
        adder(16),
        adder(32),
        mux(4, 4),
        mux(8, 2),
        alu(16),
    ];
    // Serial reference: one fresh engine per spec.
    let reference: BTreeMap<String, _> = specs
        .iter()
        .map(|spec| {
            let set = Dtas::new(lsi_logic_subset()).run(spec).unwrap();
            (spec.to_string(), fingerprint(&set))
        })
        .collect();

    let shared = Dtas::new(lsi_logic_subset());
    let workers = 8;
    let rounds = 4;
    std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let specs = &specs;
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..rounds {
                    // Each worker walks the spec list at its own offset, so
                    // hot hits, in-flight waits and cold solves interleave.
                    for k in 0..specs.len() {
                        let spec = &specs[(k + w + r) % specs.len()];
                        let set = shared.run(spec).expect("synthesizes");
                        assert_eq!(
                            &fingerprint(&set),
                            &reference[&spec.to_string()],
                            "worker {w} round {r} diverged for {spec}"
                        );
                    }
                    // Every other round, issue the whole list as one batch.
                    if r % 2 == 0 {
                        let results = shared.run_batch(specs);
                        for (spec, result) in specs.iter().zip(results) {
                            let set = result.expect("batch synthesizes");
                            assert_eq!(
                                &fingerprint(&set),
                                &reference[&spec.to_string()],
                                "worker {w} batch diverged for {spec}"
                            );
                        }
                    }
                }
            });
        }
    });

    let stats = shared.cache_stats();
    // Counter sanity on any host: every call either hit or missed, each
    // distinct spec solved at most a bounded number of times (racing
    // first-callers may solve redundantly in a batch, but never after the
    // memo is warm), and nothing panicked.
    assert!(stats.result_shards > 1);
    assert_eq!(stats.poison_recoveries, 0);
    assert_eq!(stats.cached_results, specs.len());
    let per_worker_calls = rounds * specs.len() + rounds.div_ceil(2) * specs.len();
    assert_eq!(
        stats.hits + stats.misses,
        (workers * per_worker_calls) as u64
    );
    assert!(stats.misses >= specs.len() as u64);
    assert!(stats.hits > 0);
}

/// Once a spec is memoized, hammering it from many threads takes zero
/// exclusive locks on the shared design space — the counter-based proof
/// that hit-path clients do not serialize, valid on any host.
#[test]
fn hot_path_takes_no_exclusive_locks() {
    let engine = Dtas::new(lsi_logic_subset());
    let warm = engine.run(adder(16)).unwrap();
    let baseline = engine.cache_stats();
    let served = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let engine = &engine;
            let warm = &warm;
            let served = &served;
            scope.spawn(move || {
                for _ in 0..50 {
                    let set = engine.run(adder(16)).expect("hit");
                    assert_eq!(set.alternatives.len(), warm.alternatives.len());
                    served.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
    });
    assert_eq!(served.load(Ordering::Relaxed), 200);
    let stats = engine.cache_stats();
    assert_eq!(
        stats.state_exclusive, baseline.state_exclusive,
        "hit-path queries must not take the shared-space write lock"
    );
    assert_eq!(stats.hits, baseline.hits + 200);
    assert_eq!(stats.misses, baseline.misses);
}

/// Distinct cold specs overlap: the exclusive lock is held for expansion
/// only, so the count of exclusive acquisitions stays proportional to the
/// number of cold solves (2 per solve: expand + front write-back), not to
/// wall-clock interleavings.
#[test]
fn cold_queries_bound_their_exclusive_lock_use() {
    let engine = Dtas::new(lsi_logic_subset());
    let cold_specs = [adder(8), mux(4, 4), mux(8, 8), adder(16)];
    std::thread::scope(|scope| {
        for spec in &cold_specs {
            let engine = &engine;
            scope.spawn(move || {
                engine.run(spec).expect("synthesizes");
            });
        }
    });
    let stats = engine.cache_stats();
    assert_eq!(stats.misses, cold_specs.len() as u64);
    // expand + absorb per cold solve; nothing else takes the write lock.
    assert!(
        stats.state_exclusive <= 2 * cold_specs.len() as u64,
        "{stats:?}"
    );
}

/// `clear_cache` racing in-flight cold solves must never corrupt the
/// front store: a reset recycles node ids, so fronts solved against the
/// pre-reset space are dropped (generation guard) instead of absorbed
/// onto unrelated nodes. Whatever the interleaving, every later answer
/// still equals a fresh engine's.
#[test]
fn clear_cache_racing_cold_solves_stays_correct() {
    let specs = [adder(8), adder(16), mux(4, 4), mux(8, 2)];
    let reference: Vec<Fingerprint> = specs
        .iter()
        .map(|s| fingerprint(&Dtas::new(lsi_logic_subset()).run(s).unwrap()))
        .collect();
    let engine = Dtas::new(lsi_logic_subset());
    for round in 0..6 {
        std::thread::scope(|scope| {
            for (spec, expect) in specs.iter().zip(&reference) {
                let engine = &engine;
                scope.spawn(move || {
                    let set = engine.run(spec).expect("synthesizes");
                    assert_eq!(&fingerprint(&set), expect, "{spec}");
                });
            }
            // Reset mid-flight: in-flight solvers must drop (not absorb)
            // fronts keyed by the pre-reset space's node ids.
            let engine = &engine;
            scope.spawn(move || engine.clear_cache());
        });
        // After the dust settles, the (possibly reset, possibly warm)
        // engine answers every spec exactly like a fresh one.
        for (spec, expect) in specs.iter().zip(&reference) {
            let set = engine.run(spec).expect("synthesizes");
            assert_eq!(&fingerprint(&set), expect, "round {round}: {spec}");
        }
    }
    assert_eq!(engine.cache_stats().poison_recoveries, 0);
}

mod poison {
    use super::*;
    use dtas::template::NetlistTemplate;
    use dtas::Rule;

    /// A rule that panics when it sees the marked spec — simulating a
    /// client thread dying while holding the engine's write lock.
    struct PanicOnMarker;

    impl Rule for PanicOnMarker {
        fn name(&self) -> &str {
            "panic-on-marker"
        }
        fn doc(&self) -> &str {
            "test-only: panic mid-expansion for the marker spec"
        }
        fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
            if spec.style.as_deref() == Some("PANIC_MARKER") {
                panic!("injected rule panic");
            }
            vec![]
        }
    }

    /// A panicking client poisons the state lock; the next caller clears
    /// the poison, rebuilds, and answers correctly (documented recovery
    /// semantics) — no panic propagation, no stale state.
    #[test]
    fn engine_recovers_from_a_poisoned_state_lock() {
        let mut rules = RuleSet::standard().with_lsi_extensions();
        rules.append_library_rules(vec![Box::new(PanicOnMarker)]);
        // Expansion is serial, so the panic unwinds through the write
        // guard on this thread.
        let engine = Dtas::builder(lsi_logic_subset()).rules(rules).build();
        let before = engine.run(adder(16)).unwrap();
        let marker = ComponentSpec::new(ComponentKind::AddSub, 4)
            .with_ops(OpSet::only(Op::Add))
            .with_style("PANIC_MARKER");
        // A front override skips canonicalization (no probe expands the
        // marker early), so the panic unwinds inside the state write
        // lock — the poison scenario this test pins.
        let request = dtas::SynthRequest::new(marker).with_front_cap(8);
        let panicked =
            std::thread::scope(|scope| scope.spawn(|| engine.run(&request)).join().is_err());
        assert!(panicked, "the injected rule panic must surface");
        // A *cold* query touches the poisoned state lock: the engine
        // clears the poison, drops the half-mutated space, and re-solves —
        // bit-identically to a fresh engine.
        let cold = engine.run(mux(4, 4)).expect("recovers");
        let fresh = Dtas::new(lsi_logic_subset()).run(mux(4, 4)).unwrap();
        assert_eq!(fingerprint(&cold), fingerprint(&fresh));
        let stats: CacheStats = engine.cache_stats();
        assert!(
            stats.poison_recoveries >= 1,
            "recovery must be observable: {stats:?}"
        );
        // Memoized results (separate shard locks, not poisoned) survive.
        let after = engine.run(adder(16)).unwrap();
        assert_eq!(fingerprint(&before), fingerprint(&after));
        assert!(matches!(
            engine.run(adder(16)),
            Ok(_) | Err(SynthError::NoImplementation(_))
        ));
    }
}
