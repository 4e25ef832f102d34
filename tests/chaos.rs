//! The fault-injection suite: the service and wire layers under
//! deliberately hostile conditions — stalled workers, panicking workers,
//! failing checkpoint writes, and connections killed mid-stream (via the
//! [`common::flaky_proxy`] fixture).
//!
//! The invariants, from strongest to weakest:
//!
//! 1. **No ticket is ever lost.** Every admitted submission resolves —
//!    to an outcome or a typed error — through stalls, panics, cancels
//!    and shutdown drain alike.
//! 2. **Deadlines keep firing** while chaos holds the workers hostage.
//! 3. **Results computed after (or around) chaos are bit-identical** to
//!    a fresh engine's: fault recovery never leaves the engine in a
//!    state that changes answers.
//! 4. **Checkpoint failures are counted and survivable**: the service
//!    keeps serving, a later tick flushes, and the snapshot warm-starts
//!    a new engine bit-identically.
//!
//! Chaos regimes are process-global (`chaos::install` serializes them),
//! which is why this suite is its own test binary: its injection never
//! bleeds into the other integration suites.

mod common;

use cells::lsi::lsi_logic_subset;
use common::fingerprint;
use common::flaky_proxy::FlakyProxy;
use dtas::net::{ReconnectingClient, RetryPolicy, ServeConfig, WireDesignSet, WireServer};
use dtas::service::chaos::{self, ChaosConfig};
use dtas::{Dtas, DtasService, Priority, ServiceConfig, ServiceError, SynthRequest, Ticket};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use proptest::prelude::*;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn adder(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, width).with_ops(OpSet::only(Op::Add))
}

fn plain_engine() -> Arc<Dtas> {
    Arc::new(Dtas::new(lsi_logic_subset()))
}

/// A fresh, empty cache directory unique to this test and process.
fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtas_chaos_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn stalled_workers_never_lose_tickets() {
    let guard = chaos::install(ChaosConfig {
        stall_every: Some((2, Duration::from_millis(25))),
        ..ChaosConfig::default()
    });
    let service = DtasService::start(
        plain_engine(),
        ServiceConfig {
            workers: Some(2),
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (4..12)
        .map(|w| service.submit(SynthRequest::new(adder(w))).expect("admits"))
        .collect();
    for ticket in &tickets {
        let outcome = ticket.recv().expect("stalled dispatches still complete");
        assert!(!outcome.design.alternatives.is_empty());
    }
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 8, "{stats}");
    assert_eq!(stats.completed, 8, "{stats}");
    assert!(
        guard.injected().stalls >= 1,
        "the regime must actually have stalled something"
    );
}

#[test]
fn worker_panics_resolve_tickets_and_post_chaos_results_are_bit_identical() {
    let widths: Vec<usize> = (4..12).collect();
    let engine = plain_engine();
    let service = DtasService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: Some(1), // sequential dispatch: panics hit a known slot
            ..ServiceConfig::default()
        },
    );
    let guard = chaos::install(ChaosConfig {
        panic_every: Some(3),
        ..ChaosConfig::default()
    });
    let tickets: Vec<Ticket> = widths
        .iter()
        .map(|w| {
            service
                .submit(SynthRequest::new(adder(*w)))
                .expect("admits")
        })
        .collect();
    let mut panicked = 0u64;
    for ticket in &tickets {
        match ticket.recv() {
            Ok(outcome) => assert!(!outcome.design.alternatives.is_empty()),
            Err(ServiceError::Internal(_)) => panicked += 1,
            Err(other) => panic!("unexpected resolution under panic chaos: {other}"),
        }
    }
    assert_eq!(
        panicked,
        guard.injected().panics,
        "every injected panic surfaces as exactly one Internal resolution"
    );
    assert!(
        panicked >= 2,
        "8 sequential dispatches at every-3rd ≥ 2 panics"
    );
    drop(guard);
    // Chaos off: the same service re-answers every width — including the
    // ones whose dispatch panicked — bit-identically to a fresh engine.
    // A fault-free regime holds chaos off: another test's regime would
    // otherwise inject into these dispatches.
    let _calm = chaos::install(ChaosConfig::default());
    for w in &widths {
        let after = service
            .submit(SynthRequest::new(adder(*w)))
            .expect("still admitting")
            .recv()
            .expect("post-chaos dispatches complete");
        let fresh = Dtas::new(lsi_logic_subset()).run(adder(*w)).unwrap();
        assert_eq!(
            fingerprint(&after.design),
            fingerprint(&fresh),
            "width {w} diverged after panic chaos"
        );
    }
    let stats = service.shutdown();
    assert_eq!(stats.admitted, 16, "{stats}");
    assert_eq!(stats.completed, 16, "{stats}");
}

#[test]
fn checkpoint_write_failures_are_counted_and_survivable() {
    let dir = cache_dir("ckpt_fail");
    let spec = adder(10);
    {
        let engine = Arc::new(Dtas::warm_start(lsi_logic_subset(), &dir));
        let guard = chaos::install(ChaosConfig {
            checkpoint_fail_every: Some(2),
            ..ChaosConfig::default()
        });
        let service = DtasService::start(
            Arc::clone(&engine),
            ServiceConfig {
                workers: Some(1),
                checkpoint_interval: Some(Duration::from_millis(5)),
                ..ServiceConfig::default()
            },
        );
        service
            .submit(SynthRequest::new(spec.clone()))
            .expect("admits")
            .recv()
            .expect("solves");
        // Let several ticks elapse so both outcomes occur: some fail
        // (injected), some flush.
        let waited = Instant::now();
        while guard.injected().checkpoint_failures < 2 && waited.elapsed() < Duration::from_secs(5)
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let stats = service.shutdown();
        assert!(
            stats.checkpoint_failures >= 2,
            "injected write failures must be counted: {stats}"
        );
        assert!(
            stats.checkpoints >= 1,
            "surviving ticks must still flush: {stats}"
        );
        assert_eq!(stats.completed, 1, "{stats}");
        assert_eq!(
            stats.checkpoint_failures,
            guard.injected().checkpoint_failures,
            "service counters and the injection ledger agree"
        );
    }
    // The snapshot that did land warm-starts a new engine bit-identically
    // to a cold solve.
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(
        warm.cache_stats().snapshot_loads,
        1,
        "the surviving checkpoint must actually warm the new engine"
    );
    let warmed = warm.run(&spec).unwrap();
    let cold = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
    assert_eq!(fingerprint(&warmed), fingerprint(&cold));
    assert!(
        warm.cache_stats().hits >= 1,
        "warm answer came from the memo"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn deadlines_fire_within_tolerance_while_chaos_stalls_the_worker() {
    let guard = chaos::install(ChaosConfig {
        stall_every: Some((1, Duration::from_millis(250))), // every dispatch
        ..ChaosConfig::default()
    });
    let service = DtasService::start(
        plain_engine(),
        ServiceConfig {
            workers: Some(1),
            ..ServiceConfig::default()
        },
    );
    // The occupier dispatches immediately and stalls 250 ms; the doomed
    // request waits behind it with a 40 ms deadline.
    let occupier = service.submit(SynthRequest::new(adder(8))).expect("admits");
    let doomed = service
        .submit(SynthRequest::new(adder(9)).with_deadline(Duration::from_millis(40)))
        .expect("admits");
    let queued_at = Instant::now();
    assert!(
        matches!(doomed.recv(), Err(ServiceError::DeadlineExceeded)),
        "a queued deadline must fire even while chaos stalls the worker"
    );
    let waited = queued_at.elapsed();
    assert!(
        waited >= Duration::from_millis(35),
        "fired {waited:?} early"
    );
    assert!(
        waited < Duration::from_millis(200),
        "fired {waited:?} after the deadline — not within tolerance"
    );
    occupier
        .recv()
        .expect("the stalled occupier still completes");
    drop(guard);
    let stats = service.shutdown();
    assert_eq!(stats.deadline_expired, 1, "{stats}");
    assert_eq!(stats.completed, 1, "{stats}");
}

#[test]
fn cancellation_storm_under_chaos_never_wedges_a_lane() {
    let guard = chaos::install(ChaosConfig {
        stall_every: Some((3, Duration::from_millis(15))),
        panic_every: Some(7),
        ..ChaosConfig::default()
    });
    let service = DtasService::start(
        plain_engine(),
        ServiceConfig {
            workers: Some(2),
            ..ServiceConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..24)
        .map(|i| {
            let lane = if i % 2 == 0 {
                Priority::Interactive
            } else {
                Priority::Bulk
            };
            service
                .submit_with_priority(SynthRequest::new(adder(4 + i % 8)), lane)
                .expect("admits")
        })
        .collect();
    // Cancel every third ticket while workers stall and panic around them.
    for ticket in tickets.iter().step_by(3) {
        ticket.cancel();
    }
    // Drain-on-shutdown must resolve everything — this would hang (and
    // the harness time the test out) if a lane wedged.
    let stats = service.shutdown();
    for (i, ticket) in tickets.iter().enumerate() {
        assert!(
            ticket.try_recv().is_some(),
            "ticket {i} left unresolved after drain"
        );
    }
    assert_eq!(stats.admitted, 24, "{stats}");
    assert!(
        stats.completed + stats.cancelled >= 24,
        "every ticket resolved by a worker or a cancel: {stats}"
    );
    assert!(stats.cancelled >= 1, "{stats}");
    assert!(
        guard.injected().panics >= 1,
        "the storm must include panics"
    );
}

#[test]
fn wire_submissions_survive_connection_kills_under_worker_chaos() {
    let widths: Vec<usize> = (4..14).collect();
    let guard = chaos::install(ChaosConfig {
        stall_every: Some((2, Duration::from_millis(25))),
        ..ChaosConfig::default()
    });
    let server = WireServer::start(plain_engine(), ServeConfig::default(), ("127.0.0.1", 0))
        .expect("binds an ephemeral loopback port");
    let proxy = FlakyProxy::start(server.local_addr());
    let mut client = ReconnectingClient::connect(
        proxy.addr().to_string(),
        Priority::Interactive,
        RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(20),
            ..RetryPolicy::default()
        },
    )
    .expect("connects through the proxy");
    let ids: Vec<u64> = widths
        .iter()
        .map(|w| {
            client
                .submit(&SynthRequest::new(adder(*w)))
                .expect("submits")
        })
        .collect();
    // Kill the connection while the stalled workers are still grinding:
    // undelivered results must be replayed over a fresh connection.
    assert!(proxy.kill_live() >= 1);
    let mut delivered: HashMap<u64, WireDesignSet> = HashMap::new();
    for _ in 0..ids.len() {
        let result = client.recv_result().expect("results after replay");
        let set = result.result.expect("chaos never corrupts a result");
        assert!(delivered.insert(result.id, set).is_none(), "duplicate id");
    }
    assert!(client.reconnects() >= 1, "the kill must force a reconnect");
    drop(guard);
    // Bit-identity: every wire answer — computed around stalls and a
    // connection kill — matches a fresh engine's cold solve.
    let fresh = Dtas::new(lsi_logic_subset());
    for (id, w) in ids.iter().zip(&widths) {
        let expected = WireDesignSet::of(&fresh.run(adder(*w)).unwrap());
        assert_eq!(
            delivered.get(id),
            Some(&expected),
            "width {w} diverged through wire chaos"
        );
    }
    let stats = server.shutdown();
    assert_eq!(
        stats.completed, stats.admitted,
        "every admitted request resolved: {stats}"
    );
}

// ---------------------------------------------------------------------
// Property sweep (sized up by PROPTEST_CASES=256 in the CI soak): under
// an arbitrary chaos regime and an arbitrary cancel pattern, every
// admitted ticket resolves and the books balance.

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn every_admitted_ticket_resolves_under_any_chaos_regime(
        stall_every in 0u32..4,
        panic_every in 0u32..5,
        widths in proptest::collection::vec(1usize..10, 1..7),
        cancel_mask in any::<u8>(),
    ) {
        let guard = chaos::install(ChaosConfig {
            stall_every: (stall_every > 0)
                .then_some((stall_every, Duration::from_millis(5))),
            panic_every: (panic_every > 0).then_some(panic_every),
            checkpoint_fail_every: None,
        });
        let service = DtasService::start(
            plain_engine(),
            ServiceConfig {
                workers: Some(2),
                ..ServiceConfig::default()
            },
        );
        let tickets: Vec<Ticket> = widths
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let lane = if i % 2 == 0 { Priority::Interactive } else { Priority::Bulk };
                service
                    .submit_with_priority(SynthRequest::new(adder(*w)), lane)
                    .expect("admits")
            })
            .collect();
        for (i, ticket) in tickets.iter().enumerate() {
            if cancel_mask & (1 << (i % 8)) != 0 {
                ticket.cancel();
            }
        }
        let stats = service.shutdown();
        for (i, ticket) in tickets.iter().enumerate() {
            prop_assert!(
                ticket.try_recv().is_some(),
                "ticket {} left unresolved", i
            );
        }
        prop_assert_eq!(stats.admitted as usize, widths.len());
        prop_assert!(stats.completed + stats.cancelled >= stats.admitted);
        drop(guard);
    }
}
