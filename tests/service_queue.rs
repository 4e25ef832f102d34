//! Service-layer coverage for `DtasService`: admission policies (reject /
//! block / shed-oldest / rate), priority lanes, drain-on-shutdown,
//! background checkpointing, worker-panic containment, the
//! cancel/deadline race matrix, late-delivery accounting, and a proptest
//! pinning service-path results bit-identical to direct
//! `Dtas::synthesize`.

mod common;

use cells::lsi::lsi_logic_subset;
use common::{fingerprint, slow_engine, slow_spec};
use dtas::template::NetlistTemplate;
use dtas::{
    Admission, Dtas, DtasService, Priority, Rule, RuleSet, ServiceConfig, ServiceError, SynthError,
    SynthRequest,
};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use hls_rtl_bridge::BridgeError;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn adder(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, width)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

fn mux(width: usize, ways: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Mux, width).with_inputs(ways)
}

fn unmappable() -> ComponentSpec {
    ComponentSpec::new(ComponentKind::StackFifo, 8)
        .with_width2(4)
        .with_ops([Op::Push, Op::Pop].into_iter().collect())
        .with_style("STACK")
}

/// Polls `cond` for up to `timeout`; panics with `what` on expiry.
fn wait_until(what: &str, timeout: Duration, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Blocks until one request is being executed and the lanes are empty —
/// the state every admission test builds on.
fn wait_for_busy_worker(service: &DtasService) {
    wait_until("worker pickup", Duration::from_secs(10), || {
        let stats = service.stats();
        stats.running_now == 1 && stats.queued_now == 0
    });
}

#[test]
fn reject_policy_refuses_when_full_and_maps_to_bridge_overloaded() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(300)),
        ServiceConfig {
            workers: Some(1),
            queue_depth: 1,
            admission: Admission::Reject,
            ..ServiceConfig::default()
        },
    );
    let running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let queued = service
        .submit(SynthRequest::new(slow_spec(5)))
        .expect("fills the queue");
    // Queue full (depth 1): both submit and try_submit refuse instantly.
    let err = service
        .submit(SynthRequest::new(adder(8)))
        .expect_err("queue is full");
    assert_eq!(err, ServiceError::Overloaded { queue_depth: 1 });
    assert!(matches!(
        service.try_submit(SynthRequest::new(adder(8))),
        Err(ServiceError::Overloaded { queue_depth: 1 })
    ));
    // The satellite contract: a rejected submission surfaces to Flow
    // callers as `BridgeError::Overloaded`.
    assert!(matches!(BridgeError::from(err), BridgeError::Overloaded(_)));

    let stats = service.shutdown();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.admitted, 2);
    // Admitted work drained: both tickets resolved (the styled specs may
    // legitimately solve or report NoImplementation — they must answer).
    assert!(running.try_recv().is_some());
    assert!(queued.try_recv().is_some());
}

#[test]
fn block_admission_honors_its_timeout() {
    // Case 1: capacity never frees within the timeout — Overloaded after
    // (roughly) the configured wait.
    let service = DtasService::start(
        slow_engine(Duration::from_millis(700)),
        ServiceConfig {
            workers: Some(1),
            queue_depth: 1,
            admission: Admission::Block {
                timeout: Duration::from_millis(100),
            },
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let _queued = service
        .submit(SynthRequest::new(slow_spec(5)))
        .expect("fills");
    let t0 = Instant::now();
    let err = service
        .submit(SynthRequest::new(adder(8)))
        .expect_err("no room within the timeout");
    let waited = t0.elapsed();
    assert_eq!(err, ServiceError::Overloaded { queue_depth: 1 });
    assert!(
        waited >= Duration::from_millis(90),
        "Block must wait out its timeout before refusing (waited {waited:?})"
    );
    service.shutdown();

    // Case 2: capacity frees in time — the same full-queue submission
    // blocks briefly, then lands.
    let service = DtasService::start(
        slow_engine(Duration::from_millis(150)),
        ServiceConfig {
            workers: Some(1),
            queue_depth: 1,
            admission: Admission::Block {
                timeout: Duration::from_secs(30),
            },
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let _queued = service
        .submit(SynthRequest::new(slow_spec(5)))
        .expect("fills");
    let t0 = Instant::now();
    let ticket = service
        .submit(SynthRequest::new(adder(8)))
        .expect("room frees within the timeout");
    assert!(t0.elapsed() < Duration::from_secs(25));
    assert!(ticket.recv().is_ok());
    let stats = service.shutdown();
    assert_eq!((stats.rejected, stats.shed), (0, 0));
}

#[test]
fn shed_oldest_sheds_the_oldest_bulk_ticket_first() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(300)),
        ServiceConfig {
            workers: Some(1),
            queue_depth: 2,
            admission: Admission::ShedOldest,
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    // Two bulk requests fill the queue…
    let bulk = service.submit_batch([SynthRequest::new(adder(8)), SynthRequest::new(adder(12))]);
    let mut bulk = bulk.into_iter();
    let oldest = bulk.next().expect("two tickets").expect("admitted");
    let newer = bulk.next().expect("two tickets").expect("admitted");
    // …and an interactive submission over the full queue evicts exactly
    // the oldest bulk one.
    let interactive = service
        .submit(SynthRequest::new(adder(16)))
        .expect("ShedOldest always admits");
    assert_eq!(
        oldest.recv().expect_err("the oldest bulk ticket is shed"),
        ServiceError::Shed
    );
    let stats = service.shutdown();
    assert_eq!(stats.shed, 1);
    // The survivors complete — and the interactive one, though submitted
    // last, is dispatched before the remaining bulk request.
    let newer = newer.recv().expect("bulk survivor completes");
    let interactive = interactive.recv().expect("interactive completes");
    assert_eq!(newer.priority, Priority::Bulk);
    assert_eq!(interactive.priority, Priority::Interactive);
    assert!(
        interactive.dispatch_order < newer.dispatch_order,
        "interactive must overtake bulk: {} vs {}",
        interactive.dispatch_order,
        newer.dispatch_order
    );
}

#[test]
fn shutdown_drains_every_admitted_ticket() {
    let service = DtasService::start(
        Arc::new(Dtas::new(lsi_logic_subset())),
        ServiceConfig {
            workers: Some(2),
            ..ServiceConfig::default()
        },
    );
    let specs: Vec<ComponentSpec> = (0..40)
        .map(|i| match i % 4 {
            0 => adder(4 + (i % 8)),
            1 => mux(4, 2 + (i % 3)),
            2 => adder(16),
            _ => unmappable(),
        })
        .collect();
    let tickets: Vec<_> = specs
        .iter()
        .map(|s| {
            service
                .submit(SynthRequest::new(s.clone()))
                .expect("admits")
        })
        .collect();
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 40);
    assert_eq!(stats.completed, 40, "shutdown must drain, not abandon");
    assert_eq!(stats.shed, 0);
    for (spec, ticket) in specs.iter().zip(&tickets) {
        match ticket.try_recv().expect("resolved by the drain") {
            Ok(outcome) => assert!(!outcome.design.alternatives.is_empty(), "{spec}"),
            Err(ServiceError::Synth(SynthError::NoImplementation(_))) => {
                assert_eq!(spec, &unmappable(), "only the stack spec may fail");
            }
            Err(other) => panic!("{spec}: unexpected {other:?}"),
        }
    }
}

#[test]
fn background_checkpoint_lands_on_disk_mid_run() {
    let dir = std::env::temp_dir().join(format!("dtas_service_ckpt_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Arc::new(Dtas::warm_start(lsi_logic_subset(), &dir));
    let service = DtasService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: Some(1),
            checkpoint_interval: Some(Duration::from_millis(25)),
            ..ServiceConfig::default()
        },
    );
    let outcome = service
        .submit(SynthRequest::new(adder(16)))
        .expect("admits")
        .recv()
        .expect("solves");
    assert!(!outcome.design.alternatives.is_empty());
    // The background thread must flush without any shutdown involved.
    // Wait for a checkpoint that *starts after* the solve settled — an
    // earlier tick may legitimately have flushed a pre-solve (empty)
    // snapshot.
    let ticks_before_solve_settled = service.stats().checkpoints;
    wait_until("a background checkpoint", Duration::from_secs(20), || {
        service.stats().checkpoints > ticks_before_solve_settled + 1
    });
    // Two ticks past the settle point: the first flushed the dirty solve,
    // so at least one later tick found nothing new and skipped the write.
    assert!(
        engine.cache_stats().checkpoints_skipped > 0,
        "clean ticks must skip instead of rewriting the snapshot"
    );
    let snapshot_files: Vec<_> = std::fs::read_dir(&dir)
        .expect("cache dir exists")
        .filter_map(Result::ok)
        .filter(|e| e.metadata().map(|m| m.len() > 0).unwrap_or(false))
        .collect();
    assert!(
        !snapshot_files.is_empty(),
        "the mid-run checkpoint must land on disk"
    );
    // A second engine warm-starts from the mid-run snapshot while the
    // service is still up — the cross-process scenario.
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    let warm_set = warm.run(adder(16)).expect("warm hit");
    assert_eq!(fingerprint(&warm_set), fingerprint(&outcome.design));
    assert_eq!(warm.cache_stats().hits, 1);
    drop(warm);

    let stats = service.shutdown();
    assert!(stats.checkpoints >= 2, "shutdown adds a final checkpoint");
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn worker_panic_resolves_the_ticket_and_the_service_survives() {
    struct PanicRule;
    impl Rule for PanicRule {
        fn name(&self) -> &str {
            "panic-marker"
        }
        fn doc(&self) -> &str {
            "test-only: panic while expanding PANIC-styled specs"
        }
        fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
            if spec.style.as_deref() == Some("PANIC") {
                panic!("injected service panic");
            }
            vec![]
        }
    }
    let mut rules = RuleSet::standard().with_lsi_extensions();
    rules.append_library_rules(vec![Box::new(PanicRule)]);
    let engine = Arc::new(Dtas::builder(lsi_logic_subset()).rules(rules).build());
    let service = DtasService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    // The front override routes past canonicalization (whose probes
    // would hit the panicking rule outside the state lock), so the
    // panic unwinds through the state write guard and poisons it.
    let poisoned = service
        .submit(SynthRequest::new(adder(4).with_style("PANIC")).with_front_cap(8))
        .expect("admits");
    assert!(
        matches!(poisoned.recv(), Err(ServiceError::Internal(_))),
        "a worker panic must resolve the ticket, not hang it"
    );
    // The worker thread survived and the engine recovered (poison
    // recovery drops the half-mutated state): later requests answer
    // exactly like a fresh engine.
    let after = service
        .submit(SynthRequest::new(adder(16)))
        .expect("still admitting")
        .recv()
        .expect("still solving");
    let fresh = Dtas::new(lsi_logic_subset()).run(adder(16)).unwrap();
    assert_eq!(fingerprint(&after.design), fingerprint(&fresh));
    assert!(engine.cache_stats().poison_recoveries >= 1);
    let stats = service.shutdown();
    assert_eq!(stats.completed, 2);
}

// ---------------------------------------------------------------------
// The cancel/deadline race matrix: every cell of (cancel, deadline) ×
// (still queued, dispatched, resolved, shutting down) must resolve the
// ticket exactly once — no hangs, no double counting.
// ---------------------------------------------------------------------

#[test]
fn cancel_before_dispatch_skips_execution() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(300)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let queued = service
        .submit(SynthRequest::new(slow_spec(5)))
        .expect("admits behind the busy worker");
    assert!(queued.cancel(), "cancel of a queued ticket wins");
    assert!(!queued.cancel(), "second cancel is an idempotent no-op");
    assert_eq!(
        queued.recv().expect_err("resolved by the cancel"),
        ServiceError::Cancelled
    );
    let stats = service.shutdown();
    assert_eq!(stats.cancelled, 1);
    // The cancelled entry was skipped, not executed: only the running
    // request completed, and nothing was counted late.
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.late_deliveries, 0);
}

#[test]
fn cancel_racing_dispatch_resolves_exactly_once() {
    // The cancel lands while the worker is executing: either side may
    // win, but the ticket resolves exactly once and the loser is
    // accounted, never dropped.
    let service = DtasService::start(
        slow_engine(Duration::from_millis(150)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let ticket = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let cancel_won = ticket.cancel();
    let resolved = ticket.recv();
    if cancel_won {
        assert_eq!(resolved.expect_err("cancel won"), ServiceError::Cancelled);
    } else {
        assert!(resolved.is_ok(), "worker won: the result stands");
    }
    let stats = service.shutdown();
    if cancel_won {
        assert_eq!(stats.cancelled, 1);
        assert_eq!(
            stats.late_deliveries, 1,
            "the worker's discarded result is a late delivery"
        );
    } else {
        assert_eq!((stats.cancelled, stats.completed), (0, 1));
    }
}

#[test]
fn cancel_after_resolve_is_a_noop() {
    let service = DtasService::start(
        Arc::new(Dtas::new(lsi_logic_subset())),
        ServiceConfig::default(),
    );
    let ticket = service
        .submit(SynthRequest::new(adder(16)))
        .expect("admits");
    let outcome = ticket.recv().expect("solves");
    assert!(!ticket.cancel(), "cancel after resolve reports false");
    // The resolved value is untouched by the late cancel.
    assert!(ticket.try_recv().expect("still resolved").is_ok());
    assert!(!outcome.design.alternatives.is_empty());
    let stats = service.shutdown();
    assert_eq!((stats.cancelled, stats.completed), (0, 1));
}

#[test]
fn queue_deadline_fires_within_tolerance() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(500)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let deadline = Duration::from_millis(50);
    let t0 = Instant::now();
    let doomed = service
        .submit(SynthRequest::new(slow_spec(5)).with_deadline(deadline))
        .expect("admits; expiry comes later");
    assert_eq!(
        doomed.recv().expect_err("expires while queued"),
        ServiceError::DeadlineExceeded
    );
    let waited = t0.elapsed();
    assert!(
        waited >= Duration::from_millis(45),
        "fired early: {waited:?}"
    );
    assert!(
        waited < Duration::from_millis(450),
        "the sweeper must fire the deadline well before the worker would \
         have reached the entry (waited {waited:?})"
    );
    // A deadline on an already-dispatched request does not clip it: the
    // running ticket still resolves normally.
    assert!(running.recv().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1);
    assert_eq!(stats.completed, 1);
}

#[test]
fn zero_deadline_expires_instead_of_executing() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(200)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let instant = service
        .submit(SynthRequest::new(adder(8)).with_deadline(Duration::ZERO))
        .expect("admitted, already expired");
    assert_eq!(
        instant
            .recv()
            .expect_err("a zero deadline can never be met"),
        ServiceError::DeadlineExceeded
    );
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn default_deadline_stamps_unmarked_requests() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(400)),
        ServiceConfig {
            workers: Some(1),
            default_deadline: Some(Duration::from_millis(40)),
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    // No per-request deadline: the config default applies.
    let defaulted = service.submit(SynthRequest::new(adder(8))).expect("admits");
    // An explicit per-request deadline overrides the (shorter or longer)
    // default.
    let generous = service
        .submit(SynthRequest::new(adder(12)).with_deadline(Duration::from_secs(30)))
        .expect("admits");
    assert_eq!(
        defaulted.recv().expect_err("default deadline applies"),
        ServiceError::DeadlineExceeded
    );
    assert!(
        generous.recv().is_ok(),
        "a per-request deadline must override the config default"
    );
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1);
}

#[test]
fn deadlines_resolve_cleanly_through_shutdown_drain() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(250)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    let doomed: Vec<_> = (0..3)
        .map(|i| {
            service
                .submit(SynthRequest::new(adder(8 + i)).with_deadline(Duration::from_millis(20)))
                .expect("admits")
        })
        .collect();
    // Shutdown while the deadlines are pending: the drain must resolve
    // every admitted ticket — expired entries expire, nothing hangs.
    let stats = service.shutdown();
    for ticket in &doomed {
        assert!(matches!(
            ticket.try_recv().expect("drained, not abandoned"),
            Err(ServiceError::DeadlineExceeded)
        ));
    }
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.deadline_expired, 3);
    assert_eq!(stats.completed, 1);
}

#[test]
fn recv_timeout_then_drop_counts_a_late_delivery() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(200)),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    let ticket = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("admits");
    wait_for_busy_worker(&service);
    // The caller gives up waiting and walks away while the worker is
    // still executing…
    assert!(ticket.recv_timeout(Duration::from_millis(10)).is_none());
    drop(ticket);
    // …so when the worker finishes there is no receiver left: the result
    // is delivered late into the void, and counted.
    wait_until("late delivery accounting", Duration::from_secs(10), || {
        service.stats().late_deliveries == 1
    });
    let stats = service.shutdown();
    assert_eq!(stats.late_deliveries, 1);
    assert_eq!(stats.completed, 1, "the work itself still completed");
}

#[test]
fn rate_admission_composes_with_shed_oldest() {
    let service = DtasService::start(
        slow_engine(Duration::from_millis(400)),
        ServiceConfig {
            workers: Some(1),
            queue_depth: 1,
            admission: Admission::Rate {
                per_sec: 1,
                burst: 3,
            },
            ..ServiceConfig::default()
        },
    );
    // Token 1: dispatched. Token 2: queued. Token 3: queue full → the
    // oldest waiter is shed and the newcomer takes its place.
    let _running = service
        .submit(SynthRequest::new(slow_spec(4)))
        .expect("token 1");
    wait_for_busy_worker(&service);
    let oldest = service
        .submit(SynthRequest::new(adder(8)))
        .expect("token 2");
    let newest = service
        .submit(SynthRequest::new(adder(12)))
        .expect("token 3 sheds the oldest waiter");
    assert_eq!(
        oldest.recv().expect_err("evicted"),
        ServiceError::Shed,
        "over depth, rate admission degrades to shed-oldest"
    );
    // Bucket empty (refill is 1/sec; this test runs in well under a
    // second): the next submission is rate-refused outright.
    assert!(matches!(
        service.submit(SynthRequest::new(adder(16))),
        Err(ServiceError::Overloaded { .. })
    ));
    assert!(newest.recv().is_ok());
    let stats = service.shutdown();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.rejected, 1);
    assert_eq!(stats.admitted, 3);
}

/// Soak-oriented stress: 8 clients of mixed interactive/bulk traffic
/// against one service with aggressive background checkpointing; every
/// successful outcome must be bit-identical to a fresh engine's answer,
/// and the final accounting must balance. The CI soak job runs this in
/// release mode with 8 test threads.
#[test]
fn service_stress_mixed_priorities_with_checkpointing() {
    let dir = std::env::temp_dir().join(format!("dtas_service_stress_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let specs: Vec<ComponentSpec> = vec![
        adder(8),
        adder(16),
        adder(32),
        mux(4, 4),
        mux(8, 2),
        unmappable(),
    ];
    let reference: Vec<Result<common::Fingerprint, SynthError>> = specs
        .iter()
        .map(|s| {
            Dtas::new(lsi_logic_subset())
                .run(s)
                .map(|set| fingerprint(&set))
        })
        .collect();
    let engine = Arc::new(Dtas::warm_start(lsi_logic_subset(), &dir));
    let service = DtasService::start(
        Arc::clone(&engine),
        ServiceConfig {
            queue_depth: 256,
            admission: Admission::Block {
                timeout: Duration::from_secs(60),
            },
            checkpoint_interval: Some(Duration::from_millis(10)),
            ..ServiceConfig::default()
        },
    );
    let clients = 8;
    let rounds = 60;
    std::thread::scope(|scope| {
        for w in 0..clients {
            let service = &service;
            let specs = &specs;
            let reference = &reference;
            scope.spawn(move || {
                for r in 0..rounds {
                    let spec = &specs[(w + r) % specs.len()];
                    let expect = &reference[(w + r) % specs.len()];
                    let request = SynthRequest::new(spec.clone());
                    let ticket = if r % 3 == 0 {
                        let mut batch = service.submit_batch([request]);
                        batch.pop().expect("one ticket").expect("admitted")
                    } else {
                        service.submit(request).expect("admitted")
                    };
                    match (ticket.recv(), expect) {
                        (Ok(outcome), Ok(expect)) => {
                            assert_eq!(&fingerprint(&outcome.design), expect, "{spec}");
                        }
                        (Err(ServiceError::Synth(got)), Err(expect)) => {
                            assert_eq!(&got, expect, "{spec}")
                        }
                        (got, _) => panic!("client {w} round {r} {spec}: {got:?}"),
                    }
                }
            });
        }
    });
    let stats = service.shutdown();
    assert_eq!(stats.admitted, (clients * rounds) as u64);
    assert_eq!(stats.completed, stats.admitted);
    assert_eq!((stats.rejected, stats.shed), (0, 0));
    assert_eq!(engine.cache_stats().poison_recoveries, 0);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For arbitrary small workloads (duplicates and unmappable specs
    /// included), the service path returns bit-identical results — and
    /// identical errors — to calling `Dtas::synthesize` directly.
    #[test]
    fn service_results_are_bit_identical_to_direct_synthesize(
        picks in proptest::collection::vec(0usize..7, 1..12),
    ) {
        let pool: Vec<ComponentSpec> = vec![
            adder(4),
            adder(8),
            adder(12),
            mux(4, 4),
            mux(1, 2),
            ComponentSpec::new(ComponentKind::Comparator, 4)
                .with_ops([Op::Eq, Op::Lt, Op::Gt].into_iter().collect()),
            unmappable(),
        ];
        let direct = Dtas::new(lsi_logic_subset());
        let service = DtasService::start(
            Arc::new(Dtas::new(lsi_logic_subset())),
            ServiceConfig::default(),
        );
        let specs: Vec<&ComponentSpec> = picks.iter().map(|&i| &pool[i]).collect();
        let tickets = service.submit_batch(
            specs.iter().map(|s| SynthRequest::new((*s).clone())),
        );
        for (spec, ticket) in specs.iter().zip(tickets) {
            let via_service = ticket.expect("admitted").recv();
            let via_direct = direct.run(*spec);
            match (via_service, via_direct) {
                (Ok(outcome), Ok(set)) => {
                    prop_assert_eq!(fingerprint(&outcome.design), fingerprint(&set), "{}", spec);
                }
                (Err(ServiceError::Synth(a)), Err(b)) => prop_assert_eq!(a, b, "{}", spec),
                (a, b) => prop_assert!(false, "{}: service {:?} vs direct {:?}", spec, a, b),
            }
        }
        service.shutdown();
    }
}
