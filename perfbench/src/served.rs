//! `served`: the wire path. A `WireServer` on 127.0.0.1 with default
//! `ServeConfig`, over an engine restored from the set-up's warm chain,
//! driven by two `WireClient` connections (one interactive lane, one
//! bulk lane) sending an open-loop, seeded Poisson stream. Each request
//! is timed from its due time, so a stall also counts against the
//! requests queued behind it.
//!
//! The reference rung gives the latency percentiles; a fixed ladder of
//! rates above it gives the highest rate whose p99 meets
//! [`LIMIT_US`] with no backlog and no refused request.

use crate::oracle::{self, Oracle, OVERRIDES, OVERRIDE_SPECS};
use crate::restart::restore;
use crate::specs::{self, Rng, Zipf};
use crate::stats::{median, percentile, Sheet};
use crate::trace::Tracer;
use crate::Setup;
use cells::lsi::lsi_logic_subset;
use dtas::net::{ClientMsg, ServerMsg, WireClient, WireDesignSet, WireStats};
use dtas::{Dtas, Priority, ServeConfig, SynthRequest, WireServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Reference rate, requests/s over both connections.
pub const REFERENCE_RPS: f64 = 2000.0;
/// The fixed ladder of rates `served_max_rps` is read from.
pub const LADDER_RPS: &[f64] = &[
    6000.0, 7000.0, 8000.0, 9000.0, 10000.0, 11000.0, 12000.0, 13000.0, 14000.0, 15000.0, 16000.0,
    17000.0, 18000.0, 19000.0, 20000.0, 21000.0, 22000.0, 23000.0, 24000.0, 25000.0, 26000.0,
    27000.0, 28000.0,
];
/// Every rung runs for one window on a fresh copy of the warm engine,
/// which sends each never-seen spec once.
const WINDOW: Duration = Duration::from_millis(500);
/// Independent searches for `served_max_rps`; the highest rate any of
/// them passed is reported.
const SEARCHES: usize = 1;
/// The p99 latency limit a rung must meet. Above the 5–20 ms stalls a
/// shared two-core host shows at any load, so mostly a growing backlog
/// misses it.
pub const LIMIT_US: f64 = 40_000.0;
/// Requests outstanding on one connection at which a rung stops sending
/// and fails; two connections' worth stays under the default queue
/// depth, so the server never refuses a request.
const MAX_OUTSTANDING: usize = 400;
const DECORATED_SHARE: f64 = 0.15;
const OVERRIDE_SHARE: f64 = 0.01;
const DEADLINE_SHARE: f64 = 0.2;
/// Generous: a deadline only expires when the queue has fallen behind.
const DEADLINE: Duration = Duration::from_secs(2);

struct Planned {
    due: Duration,
    request: SynthRequest,
    /// Oracle key and the plain spec the answer is relabelled to.
    key: String,
    plain: &'static str,
}

/// One connection's seeded open-loop schedule for a rung.
fn plan(
    rng: &mut Rng,
    rate: f64,
    duration: Duration,
    colds: &[(Duration, &'static str)],
) -> Vec<Planned> {
    let zipf = Zipf::new(specs::POOL.len());
    let mut out = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp_gap_s(rate);
        if t >= duration.as_secs_f64() {
            break;
        }
        let key = specs::POOL[zipf.sample(rng)];
        let roll = rng.unit();
        let (request, oracle_key, plain) = if roll < OVERRIDE_SHARE {
            let key = *rng.pick(OVERRIDE_SPECS);
            let over = *rng.pick(OVERRIDES);
            (
                oracle::request(key, Some(over)),
                oracle::oracle_key(key, Some(over)),
                key,
            )
        } else if roll < OVERRIDE_SHARE + DECORATED_SHARE {
            let variant = rng.below(3);
            (
                SynthRequest::new(specs::decorated(key, variant)),
                key.to_string(),
                key,
            )
        } else {
            (SynthRequest::new(specs::spec(key)), key.to_string(), key)
        };
        let request = if rng.unit() < DEADLINE_SHARE {
            request.with_deadline(DEADLINE)
        } else {
            request
        };
        out.push(Planned {
            due: Duration::from_secs_f64(t),
            request,
            key: oracle_key,
            plain,
        });
    }
    for &(due, key) in colds {
        out.push(Planned {
            due,
            request: SynthRequest::new(specs::spec(key)),
            key: key.to_string(),
            plain: key,
        });
    }
    out.sort_by_key(|p| p.due);
    out
}

#[derive(Default)]
struct ConnOut {
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    completed: u64,
    backlogged: bool,
    failures: Vec<String>,
    /// Answers kept for the traced codec replay.
    kept: Vec<WireDesignSet>,
    stats: Option<WireStats>,
}

/// Sleeps, never spins: on two cores a spinning sender would take a core
/// from the server it measures. Oversleeping shows as lateness.
fn wait_until(due: Instant) {
    std::thread::sleep(due.saturating_duration_since(Instant::now()));
}

/// Shrinks this thread's timer slack from Linux's default 50 µs to 1 µs,
/// so a sender that sleeps until a request is due wakes on time instead
/// of adding tens of microseconds of lateness to every request.
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    const PR_SET_TIMERSLACK: i32 = 29;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument (the
    // slack in ns) and only changes the calling thread's timer slack;
    // it reads no memory the caller passes. A failure leaves the default
    // slack, which only costs accuracy.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000u64);
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

/// One connection's loop: send each request when due, read results in
/// between, and check every answer against the oracle.
#[allow(clippy::too_many_arguments)]
fn drive(
    addr: SocketAddr,
    lane: Priority,
    plan: &[Planned],
    start: Instant,
    oracle: &Oracle,
    tracer: &Tracer,
    keep: usize,
    want_stats: bool,
) -> ConnOut {
    tighten_timer_slack();
    let mut out = ConnOut::default();
    let mut client = match WireClient::connect(addr, lane) {
        Ok(c) => c,
        Err(e) => {
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    let mut inflight: HashMap<u64, usize> = HashMap::new();
    let mut next = 0;
    loop {
        if next < plan.len() {
            let due = start + plan[next].due;
            let now = Instant::now();
            if now >= due {
                if inflight.len() >= MAX_OUTSTANDING {
                    out.backlogged = true;
                    next = plan.len();
                    continue;
                }
                match client.submit(&plan[next].request) {
                    Ok(id) => {
                        inflight.insert(id, next);
                    }
                    Err(e) => out.failures.push(format!("submit: {e}")),
                }
                out.lateness_us.push((now - due).as_secs_f64() * 1e6);
                next += 1;
                continue;
            }
            if inflight.is_empty() {
                wait_until(due);
                continue;
            }
        } else if inflight.is_empty() {
            break;
        }
        match client.recv_result() {
            Ok(result) => {
                let done = Instant::now();
                let Some(idx) = inflight.remove(&result.id) else {
                    out.failures
                        .push(format!("result for unknown id {}", result.id));
                    continue;
                };
                let p = &plan[idx];
                let due = start + p.due;
                out.latency_us.push((done - due).as_secs_f64() * 1e6);
                tracer.record("net.request", result.id, due, done);
                out.completed += 1;
                match result.result {
                    Ok(set) => {
                        if out.kept.len() < keep {
                            out.kept.push(set.clone());
                        }
                        let digest = oracle::digest_wire(set, &specs::spec(p.plain));
                        if let Err(e) = oracle.check(&p.key, digest) {
                            out.failures.push(format!("served {e}"));
                        }
                    }
                    Err(e) => out.failures.push(format!("{}: {e}", p.key)),
                }
            }
            Err(e) => {
                out.failures.push(format!(
                    "connection failed with {} requests in flight: {e}",
                    inflight.len()
                ));
                return out;
            }
        }
    }
    if want_stats {
        match client.server_stats() {
            Ok(stats) => out.stats = Some(stats),
            Err(e) => out.failures.push(format!("stats frame: {e}")),
        }
    }
    out
}

struct Rung {
    rate: f64,
    achieved_rps: f64,
    latency_us: Vec<f64>,
    lateness_us: Vec<f64>,
    backlogged: bool,
    failures: Vec<String>,
    /// Requests sent.
    sent: usize,
    /// For the traced codec replay: the reference rung's requests and a
    /// sample of its answers.
    requests: Vec<SynthRequest>,
    kept: Vec<WireDesignSet>,
    stats: Option<WireStats>,
}

impl Rung {
    fn p99(&self) -> f64 {
        percentile(&self.latency_us, 99.0)
    }

    fn passes(&self) -> bool {
        !self.backlogged && self.failures.is_empty() && self.p99() <= LIMIT_US
    }
}

/// One rung on a fresh copy of the warm engine, so every rung starts
/// from the same state and its never-seen specs really are unseen.
fn rung(
    setup: &Setup,
    rng: &mut Rng,
    rate: f64,
    duration: Duration,
    oracle: &Oracle,
    tracer: &Tracer,
    reference: bool,
) -> Rung {
    // The ladder leaves the never-seen share out: each cold solve stalls
    // both cores for ~15 ms, which near saturation turns the pass/fail
    // line into a coin toss. The reference rate carries it.
    let cold_share = if reference { specs::COLD } else { &[] };
    let mut failures = Vec::new();
    let dir = setup.work.join("served");
    if let Err(e) = restore(&setup.pristine, &dir) {
        failures.push(format!("restoring the warm chain: {e}"));
    }
    let engine = Arc::new(Dtas::warm_start(lsi_logic_subset(), &dir));
    engine.prefault();
    let mut cold_keys = cold_share.to_vec();
    rng.shuffle(&mut cold_keys);
    let colds: Vec<Vec<(Duration, &str)>> = (0..2)
        .map(|conn| {
            (0..cold_keys.len())
                .filter(|c| c % 2 == conn)
                .map(|c| {
                    let at = duration.mul_f64((c as f64 + 0.5) / cold_keys.len() as f64);
                    (at, cold_keys[c])
                })
                .collect()
        })
        .collect();
    let plans: Vec<Vec<Planned>> = (0..2)
        .map(|conn| plan(rng, rate / 2.0, duration, &colds[conn]))
        .collect();
    let keep = if tracer.on() && reference { 256 } else { 0 };

    let outs: Vec<ConnOut> = match WireServer::start(
        Arc::clone(&engine),
        ServeConfig::default(),
        ("127.0.0.1", 0),
    ) {
        Ok(server) => {
            let addr = server.local_addr();
            // Both connections handshake before the first request is due.
            let start = Instant::now() + Duration::from_millis(20);
            let outs: Vec<ConnOut> = std::thread::scope(|scope| {
                let handles: Vec<_> = [Priority::Interactive, Priority::Bulk]
                    .into_iter()
                    .zip(&plans)
                    .enumerate()
                    .map(|(i, (lane, plan))| {
                        scope.spawn(move || {
                            drive(
                                addr,
                                lane,
                                plan,
                                start,
                                oracle,
                                tracer,
                                keep,
                                reference && i == 0,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked"))
                    .collect()
            });
            server.shutdown();
            outs
        }
        Err(e) => {
            failures.push(format!("binding the server: {e}"));
            Vec::new()
        }
    };
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);

    let mut r = Rung {
        rate,
        achieved_rps: 0.0,
        latency_us: Vec::new(),
        lateness_us: Vec::new(),
        backlogged: false,
        failures,
        sent: plans.iter().map(Vec::len).sum(),
        requests: if keep > 0 {
            plans.iter().flatten().map(|p| p.request.clone()).collect()
        } else {
            Vec::new()
        },
        kept: Vec::new(),
        stats: None,
    };
    let mut completed = 0;
    for out in outs {
        r.latency_us.extend(out.latency_us);
        r.lateness_us.extend(out.lateness_us);
        r.backlogged |= out.backlogged;
        r.failures.extend(out.failures);
        r.kept.extend(out.kept);
        r.stats = r.stats.or(out.stats);
        completed += out.completed;
    }
    r.achieved_rps = completed as f64 / duration.as_secs_f64();
    r
}

impl Rung {
    /// The windows of one rate as one rung; the stats frame is the last
    /// window's.
    fn pool(windows: Vec<Rung>) -> Rung {
        let mut windows = windows.into_iter();
        let mut pooled = windows.next().expect("at least one window");
        let mut n = 1.0;
        for w in windows {
            pooled.achieved_rps += w.achieved_rps;
            n += 1.0;
            pooled.latency_us.extend(w.latency_us);
            pooled.lateness_us.extend(w.lateness_us);
            pooled.backlogged |= w.backlogged;
            pooled.failures.extend(w.failures);
            pooled.kept.extend(w.kept);
            pooled.sent += w.sent;
            pooled.requests.extend(w.requests);
            pooled.stats = w.stats.or(pooled.stats);
        }
        pooled.achieved_rps /= n;
        pooled
    }
}

pub struct Leg<'a> {
    setup: &'a Setup,
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    rng: Rng,
    reference: Vec<Rung>,
    /// Binary search for the highest passing ladder rate, assuming a
    /// rate that misses the limit is not met by any higher one: indices
    /// below `low` passed, those from `high` on missed.
    low: usize,
    high: usize,
    retrying: bool,
    searches_done: usize,
    /// Ladder index, achieved rate and sample count of the highest
    /// passing probe of any search.
    best: Option<(usize, f64, usize)>,
    probes: Vec<Rung>,
}

impl<'a> Leg<'a> {
    pub fn new(setup: &'a Setup, seed: u64, oracle: &'a Oracle, tracer: &'a Tracer) -> Self {
        Leg {
            setup,
            oracle,
            tracer,
            rng: Rng::new(seed).fork(0x5E4),
            reference: Vec::new(),
            low: 0,
            high: LADDER_RPS.len(),
            retrying: false,
            searches_done: 0,
            best: None,
            probes: Vec::new(),
        }
    }

    fn reference_window(&mut self) {
        let (setup, oracle, tracer) = (self.setup, self.oracle, self.tracer);
        let w = rung(
            setup,
            &mut self.rng,
            REFERENCE_RPS,
            WINDOW,
            oracle,
            tracer,
            true,
        );
        self.reference.push(w);
    }

    fn probe(&mut self) {
        let mid = (self.low + self.high) / 2;
        let (setup, oracle, tracer) = (self.setup, self.oracle, self.tracer);
        let r = rung(
            setup,
            &mut self.rng,
            LADDER_RPS[mid],
            WINDOW,
            oracle,
            tracer,
            false,
        );
        if r.passes() {
            self.low = mid + 1;
            if self.best.is_none_or(|(index, ..)| index < mid) {
                self.best = Some((mid, r.achieved_rps, r.latency_us.len()));
            }
            self.retrying = false;
        } else if !self.retrying {
            // One stall of the host can sink a window near capacity: a
            // rate misses only when two windows in a row miss it.
            self.retrying = true;
        } else {
            self.high = mid;
            self.retrying = false;
        }
        self.probes.push(r);
        if self.low >= self.high {
            self.searches_done += 1;
            (self.low, self.high) = (0, LADDER_RPS.len());
        }
    }

    fn searching(&self) -> bool {
        self.searches_done < SEARCHES
    }
}

impl crate::Leg for Leg<'_> {
    /// Alternates reference windows with search probes until the search
    /// ends, then runs reference windows: both spread over the run.
    fn step(&mut self) {
        if self.searching() && self.probes.len() < self.reference.len() {
            self.probe();
        } else {
            self.reference_window();
        }
    }

    fn finish(mut self: Box<Self>) -> Sheet {
        while self.searching() {
            self.probe();
        }
        while self.reference.len() < 4 {
            self.reference_window();
        }
        let mut sheet = Sheet::default();
        // Each percentile is the 10th percentile of the windows' own: on
        // a shared host, windows that met a spell of CPU contention (their
        // latency jumps tenfold) do not decide it.
        let window_p50: Vec<f64> = self
            .reference
            .iter()
            .map(|w| median(&w.latency_us))
            .collect();
        let window_p99: Vec<f64> = self.reference.iter().map(Rung::p99).collect();
        let reference = Rung::pool(std::mem::take(&mut self.reference));
        for r in self.probes.iter().chain([&reference]) {
            sheet.attempted += r.sent as u64;
            for e in &r.failures {
                sheet.fail(format!("{:.0} rps: {e}", r.rate));
            }
            eprintln!(
                "# served rung {:>6.0} rps: achieved {:>8.1}/s p50 {:>8.1} us p99 {:>9.1} us lateness p99 {:>8.1} us{}",
                r.rate,
                r.achieved_rps,
                median(&r.latency_us),
                r.p99(),
                percentile(&r.lateness_us, 99.0),
                if r.backlogged { " BACKLOG" } else { "" },
            );
        }
        let n = reference.latency_us.len();
        let calm = |v: &[f64]| percentile(v, 10.0);
        sheet.put("served_latency_us_p50", calm(&window_p50), "us", n);
        sheet.put("served_latency_us_p99", calm(&window_p99), "us", n);
        let (_, max_rps, samples) = self.best.unwrap_or((0, 0.0, 0));
        sheet.put("served_max_rps", max_rps, "1/s", samples);
        if self.tracer.on() {
            traced_metrics(&reference, self.tracer, &mut sheet);
        }
        sheet
    }
}

/// Codec costs on the rung's own messages, and the server's view of the
/// reference rung from its stats frame.
fn traced_metrics(reference: &Rung, tracer: &Tracer, sheet: &mut Sheet) {
    let span = tracer.begin("net.codec_replay", 0, None);
    let mut encode = Vec::new();
    for (id, request) in reference.requests.iter().enumerate() {
        let msg = ClientMsg::Request {
            id: id as u64,
            request: request.clone(),
        };
        let t = Instant::now();
        let frame = std::hint::black_box(msg.encode_frame());
        encode.push(t.elapsed().as_secs_f64() * 1e6);
        drop(frame);
    }
    let (mut decode, mut bytes) = (Vec::new(), Vec::new());
    for (id, set) in reference.kept.iter().enumerate() {
        let frame = ServerMsg::Result {
            id: id as u64,
            slot: 0,
            of: 1,
            result: Ok(set.clone()),
        }
        .encode_frame();
        bytes.push(frame.len() as f64);
        let t = Instant::now();
        let decoded = ServerMsg::decode_frame(std::hint::black_box(&frame));
        decode.push(t.elapsed().as_secs_f64() * 1e6);
        if decoded.is_err() {
            sheet.fail("a result frame did not decode".to_string());
        }
    }
    tracer.end(span);
    sheet.put("net.request_encode_us", median(&encode), "us", encode.len());
    sheet.put("net.result_decode_us", median(&decode), "us", decode.len());
    sheet.put(
        "net.result_frame_bytes",
        crate::stats::mean(&bytes),
        "bytes",
        bytes.len(),
    );
    sheet.put(
        "generator.lateness_us_p99",
        percentile(&reference.lateness_us, 99.0),
        "us",
        reference.lateness_us.len(),
    );
    let Some(stats) = &reference.stats else {
        sheet.fail("no stats frame from the reference rung".to_string());
        return;
    };
    let s = &stats.service;
    let [interactive, bulk] = &s.lanes;
    let samples = (interactive.samples + bulk.samples) as usize;
    sheet.put(
        "service.wait_us_p99.interactive",
        interactive.wait_p99_us as f64,
        "us",
        interactive.samples as usize,
    );
    sheet.put(
        "service.wait_us_p99.bulk",
        bulk.wait_p99_us as f64,
        "us",
        bulk.samples as usize,
    );
    sheet.put(
        "service.exec_us_p50",
        interactive.service_p50_us.max(bulk.service_p50_us) as f64,
        "us",
        samples,
    );
    sheet.put(
        "service.exec_us_p99",
        interactive.service_p99_us.max(bulk.service_p99_us) as f64,
        "us",
        samples,
    );
    sheet.put("service.rejected", s.rejected as f64, "count", samples);
    sheet.put("service.shed", s.shed as f64, "count", samples);
    sheet.put(
        "service.deadline_expired",
        s.deadline_expired as f64,
        "count",
        samples,
    );
    let lookups = stats.cache_hits + stats.cache_misses;
    sheet.put(
        "engine.hit_ratio",
        stats.cache_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    sheet.put(
        "canon.canonical_hits",
        stats.canonical_hits as f64,
        "count",
        samples,
    );
}
