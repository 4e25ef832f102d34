//! CI perf-regression gate over `BENCH_solver.json`.
//!
//! Compares a freshly measured snapshot against the committed baseline
//! and fails (exit 1) on *order-of-magnitude* regressions of the
//! hot-path metrics — the point is to catch a refactor silently eating
//! the cached/parallel/service wins, not to flag benchmark noise:
//!
//! * `queries[].repeat_ns` — the memoized hit path (per spec): the
//!   median per-call time over 10,100 hits;
//! * `warm_start.warm_first_ms` — the warm-start path: the first ALU64
//!   answer of an engine restarted over a persisted chain (the median of
//!   five restarts), which decodes its own answer section and never the
//!   design space;
//! * `warm_start.cold_first_ms` — the cold ALU64 first answer (the
//!   median of five, each on a fresh engine). Each path is gated on its
//!   own time: a ratio of the two moves when either side does, so a
//!   faster cold solve would fail it and a slower one hide in it;
//! * `service.saturation_qps` — the admission-controlled service's
//!   saturation throughput;
//! * `service.deadline_vs_plain` — a self-contained floor (≥ 0.95, no
//!   baseline needed): deadline bookkeeping must cost <5% of saturation
//!   QPS, both sides measured interleaved in one perf_snapshot run;
//! * `serve.saturation_qps` and `serve.rtt_p99_us` — the `dtas serve`
//!   wire protocol end to end over loopback TCP: saturation throughput
//!   and the client-observed round-trip tail (the median p99 of five
//!   fresh runs);
//! * `store.load_ms` — the lazy load of a persisted chain (the median of
//!   five restarts), on its own time like the two first answers;
//! * `store.load_materialized` (exactly 0) and
//!   `store.base_over_delta_bytes` (≥ 10) — self-contained checks on the
//!   tiered persistent store: the lazy load decodes no answer, and a
//!   one-result delta checkpoint stays under 10% of the base snapshot's
//!   bytes;
//! * `incremental.retained_after_update` (≥ 0.5) — a self-contained
//!   floor on delta invalidation: a one-rule-set addition
//!   (standard → standard+lsi) over a warm ALU64 space must keep at
//!   least half the solved fronts warm, or `update_rules` has regressed
//!   toward the old clear-everything behavior.
//!
//! Only same-machine comparisons are meaningful for the absolute
//! numbers, so the tolerance is generous (default 3x, `--tolerance N`)
//! and each absolute check carries a noise floor. A metric missing from
//! the *baseline* is reported and skipped (new metrics gate from their
//! next re-baseline); a metric missing from the *current* run fails —
//! losing a metric is exactly the kind of silent regression the gate
//! exists for.
//!
//! ```text
//! cargo run --release -p bench --bin perf_gate -- \
//!     --baseline BENCH_baseline.json --current BENCH_solver.json
//! ```
//!
//! To re-baseline after an intentional perf change: re-run
//! `perf_snapshot` on the reference machine and commit the refreshed
//! `BENCH_solver.json`.

use bench::json::Json;
use std::process::ExitCode;

/// One gate comparison, ready to print.
struct Finding {
    metric: String,
    baseline: f64,
    current: f64,
    /// `current / baseline` for latencies (bigger is worse), inverted
    /// for throughputs so "ratio > tolerance" always means regression.
    regression: f64,
    verdict: Verdict,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Pass,
    Fail,
    /// Below the noise floor or missing from the baseline — reported,
    /// never failing.
    Skip,
}

/// Latency-style check: fail when `current > tolerance * baseline` and
/// the absolute value clears the noise floor.
fn gate_latency(
    metric: String,
    baseline: Option<f64>,
    current: Option<f64>,
    tolerance: f64,
    floor: f64,
    findings: &mut Vec<Finding>,
) {
    gate_value(metric, baseline, current, findings, |b, c| {
        let regression = c / b.max(1e-12);
        let verdict = if regression <= tolerance || c <= floor {
            if regression <= tolerance {
                Verdict::Pass
            } else {
                Verdict::Skip // regressed ratio-wise but under the floor
            }
        } else {
            Verdict::Fail
        };
        (regression, verdict)
    });
}

/// Throughput-style check: fail when `current < baseline / tolerance`
/// *and* the current value is under the health floor (the throughput
/// analogue of the latency noise floors — a cross-machine baseline can
/// legitimately sit several times above a slower CI runner).
fn gate_throughput(
    metric: String,
    baseline: Option<f64>,
    current: Option<f64>,
    tolerance: f64,
    floor: f64,
    findings: &mut Vec<Finding>,
) {
    gate_value(metric, baseline, current, findings, |b, c| {
        let regression = b / c.max(1e-12);
        let verdict = if regression <= tolerance {
            Verdict::Pass
        } else if c >= floor {
            Verdict::Skip // regressed ratio-wise but still healthy
        } else {
            Verdict::Fail
        };
        (regression, verdict)
    });
}

/// Self-contained exact check: fail unless the *current* run's value is
/// `expected` (a count the run must keep at a fixed value). The baseline
/// column reports the expected value.
fn gate_exact(metric: String, expected: f64, current: Option<f64>, findings: &mut Vec<Finding>) {
    match current {
        Some(c) => findings.push(Finding {
            metric,
            baseline: expected,
            current: c,
            regression: if c == expected { 1.0 } else { f64::INFINITY },
            verdict: if c == expected {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
        }),
        None => findings.push(Finding {
            metric: format!("{metric} (missing from current run)"),
            baseline: expected,
            current: f64::NAN,
            regression: f64::INFINITY,
            verdict: Verdict::Fail,
        }),
    }
}

/// Self-contained floor check: fail when the *current* run's value sits
/// below `floor`, independent of the baseline (used for ratios measured
/// within one run, where machine speed already cancels). The baseline
/// column reports the floor itself.
fn gate_floor(metric: String, floor: f64, current: Option<f64>, findings: &mut Vec<Finding>) {
    match current {
        Some(c) => findings.push(Finding {
            metric,
            baseline: floor,
            current: c,
            regression: floor / c.max(1e-12),
            verdict: if c >= floor {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
        }),
        None => findings.push(Finding {
            metric: format!("{metric} (missing from current run)"),
            baseline: floor,
            current: f64::NAN,
            regression: f64::INFINITY,
            verdict: Verdict::Fail,
        }),
    }
}

fn gate_value(
    metric: String,
    baseline: Option<f64>,
    current: Option<f64>,
    findings: &mut Vec<Finding>,
    judge: impl FnOnce(f64, f64) -> (f64, Verdict),
) {
    match (baseline, current) {
        (Some(b), Some(c)) => {
            let (regression, verdict) = judge(b, c);
            findings.push(Finding {
                metric,
                baseline: b,
                current: c,
                regression,
                verdict,
            });
        }
        (None, _) => findings.push(Finding {
            metric: format!("{metric} (not in baseline; gates after re-baseline)"),
            baseline: f64::NAN,
            current: current.unwrap_or(f64::NAN),
            regression: 0.0,
            verdict: Verdict::Skip,
        }),
        (Some(b), None) => findings.push(Finding {
            metric: format!("{metric} (missing from current run)"),
            baseline: b,
            current: f64::NAN,
            regression: f64::INFINITY,
            verdict: Verdict::Fail,
        }),
    }
}

/// Noise floor of the `queries[].repeat_ns` checks, in nanoseconds.
const REPEAT_FLOOR_NS: f64 = 2_500.0;

/// Noise floor of the `store.load_ms` check, in milliseconds: just above
/// the spread of its median over 15 snapshots on the 2-vCPU reference
/// host (0.105-0.271 ms).
const LOAD_FLOOR_MS: f64 = 0.3;

/// Runs every gate check. `tolerance` is the allowed regression factor.
fn run_gate(baseline: &Json, current: &Json, tolerance: f64) -> Vec<Finding> {
    let mut findings = Vec::new();

    // Hot-path repeats, matched by query name. Floor: above the spread
    // of one hit's median across snapshots on the 2-vCPU reference host
    // (0.15-0.35 µs; 4 of 396 per-spec medians read 0.5-1.8 µs), so only
    // a hit several times slower than the baseline's can fail.
    let baseline_queries = baseline.get("queries").and_then(Json::arr).unwrap_or(&[]);
    let current_queries = current.get("queries").and_then(Json::arr).unwrap_or(&[]);
    for bq in baseline_queries {
        let Some(name) = bq.get("name").and_then(Json::str_value) else {
            continue;
        };
        let cq = current_queries
            .iter()
            .find(|q| q.get("name").and_then(Json::str_value) == Some(name));
        gate_latency(
            format!("queries.{name}.repeat_ns"),
            bq.get("repeat_ns").and_then(Json::num),
            cq.and_then(|q| q.get("repeat_ns")).and_then(Json::num),
            tolerance,
            REPEAT_FLOOR_NS,
            &mut findings,
        );
    }

    // The warm first answer on its own time, at the default tolerance.
    // Floor: a warm first answer still under 2 ms is healthy (0.6-0.9 ms
    // on the 2-vCPU reference host); decoding the whole persisted space
    // on the first hit, as store format 3 did, read 7.75 ms.
    gate_latency(
        "warm_start.warm_first_ms".to_string(),
        baseline
            .at(&["warm_start", "warm_first_ms"])
            .and_then(Json::num),
        current
            .at(&["warm_start", "warm_first_ms"])
            .and_then(Json::num),
        tolerance,
        2.0,
        &mut findings,
    );

    // The cold ALU64 first answer, likewise. Floor: a cold ALU64 still
    // under 100 ms is healthy (32-54 ms on the 2-vCPU reference host).
    gate_latency(
        "warm_start.cold_first_ms".to_string(),
        baseline
            .at(&["warm_start", "cold_first_ms"])
            .and_then(Json::num),
        current
            .at(&["warm_start", "cold_first_ms"])
            .and_then(Json::num),
        tolerance,
        100.0,
        &mut findings,
    );

    // Service saturation throughput. Floor: a queue still moving 50k
    // memo hits/s is healthy on any machine; a real serialization bug
    // (an accidental exclusive lock on the hit path, say) lands orders
    // of magnitude below it.
    gate_throughput(
        "service.saturation_qps".to_string(),
        baseline
            .at(&["service", "saturation_qps"])
            .and_then(Json::num),
        current
            .at(&["service", "saturation_qps"])
            .and_then(Json::num),
        tolerance,
        50_000.0,
        &mut findings,
    );

    // Deadline bookkeeping overhead, self-contained in the current run:
    // perf_snapshot measures plain vs deadline-stamped saturation
    // interleaved in one process (machine speed cancels), so the stored
    // ratio gates directly against the acceptance floor — stamping,
    // sweeper scheduling and at-pop expiry checks must keep >= 95% of
    // the plain saturation QPS.
    gate_floor(
        "service.deadline_vs_plain".to_string(),
        0.95,
        current
            .at(&["service", "deadline_vs_plain"])
            .and_then(Json::num),
        &mut findings,
    );

    // Loopback wire throughput (`dtas serve` end to end). Every request
    // pays frame encode + TCP + checksum, so the floor sits well below
    // the in-process service's: 10k memo hits/s over loopback is healthy
    // anywhere, while a per-frame pathology (a dropped pipeline window, a
    // blocking flush per byte) lands far under it.
    gate_throughput(
        "serve.saturation_qps".to_string(),
        baseline
            .at(&["serve", "saturation_qps"])
            .and_then(Json::num),
        current.at(&["serve", "saturation_qps"]).and_then(Json::num),
        tolerance,
        10_000.0,
        &mut findings,
    );

    // Client-observed round-trip tail at saturation. The 32-deep
    // pipeline dominates the RTT (queueing, not wire time), so the
    // noise floor is generous: a p99 still under 20 ms is healthy.
    gate_latency(
        "serve.rtt_p99_us".to_string(),
        baseline.at(&["serve", "rtt_p99_us"]).and_then(Json::num),
        current.at(&["serve", "rtt_p99_us"]).and_then(Json::num),
        tolerance,
        20_000.0,
        &mut findings,
    );

    // The lazy (mmap + index-validate) load on its own time, at the
    // default tolerance. Floor: above the spread of its median across
    // snapshots on the 2-vCPU reference host (LOAD_FLOOR_MS).
    gate_latency(
        "store.load_ms".to_string(),
        baseline.at(&["store", "load_ms"]).and_then(Json::num),
        current.at(&["store", "load_ms"]).and_then(Json::num),
        tolerance,
        LOAD_FLOOR_MS,
        &mut findings,
    );

    // What the lazy load decoded, self-contained in the current run: a
    // load that materializes any answer has moved decode work to the
    // open, whatever its time reads.
    gate_exact(
        "store.load_materialized".to_string(),
        0.0,
        current
            .at(&["store", "load_materialized"])
            .and_then(Json::num),
        &mut findings,
    );

    // Delta-checkpoint cost: a one-dirty-result delta must stay under
    // 10% of the full snapshot's bytes (base-over-delta >= 10), or
    // checkpoints have regressed back toward O(space) rewrites.
    gate_floor(
        "store.base_over_delta_bytes".to_string(),
        10.0,
        current
            .at(&["store", "base_over_delta_bytes"])
            .and_then(Json::num),
        &mut findings,
    );

    // Delta invalidation: a one-rule-set addition over a warm ALU64
    // space must keep at least half the solved fronts warm — measured
    // from the InvalidationReport in the same perf_snapshot run, so no
    // baseline is needed.
    gate_floor(
        "incremental.retained_after_update".to_string(),
        0.5,
        current
            .at(&["incremental", "retained_after_update"])
            .and_then(Json::num),
        &mut findings,
    );

    findings
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut baseline_path = "BENCH_baseline.json".to_string();
    let mut current_path = "BENCH_solver.json".to_string();
    let mut tolerance = 3.0f64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {name} requires a value"))
        };
        match arg.as_str() {
            "--baseline" => baseline_path = value("--baseline")?,
            "--current" => current_path = value("--current")?,
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let baseline = load(&baseline_path)?;
    let current = load(&current_path)?;
    let findings = run_gate(&baseline, &current, tolerance);

    println!("perf gate: {current_path} vs baseline {baseline_path} (tolerance {tolerance}x)");
    let mut failed = false;
    for f in &findings {
        let verdict = match f.verdict {
            Verdict::Pass => "ok",
            Verdict::Skip => "skip",
            Verdict::Fail => {
                failed = true;
                "FAIL"
            }
        };
        println!(
            "  [{verdict:>4}] {:<55} baseline={:<12.6} current={:<12.6} regression={:.2}x",
            f.metric, f.baseline, f.current, f.regression
        );
    }
    if failed {
        println!(
            "perf gate FAILED: a hot-path metric regressed more than {tolerance}x. If the \
             change is intentional, re-run perf_snapshot on the reference machine and \
             commit the refreshed BENCH_solver.json as the new baseline."
        );
    } else {
        println!("perf gate passed ({} checks)", findings.len());
    }
    Ok(!failed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(repeat_ns: f64, warm_ms: f64, cold_ms: f64, qps: f64) -> Json {
        snapshot_with_serve(repeat_ns, warm_ms, cold_ms, qps, qps / 10.0, 2_000.0)
    }

    fn snapshot_with_serve(
        repeat_ns: f64,
        warm_ms: f64,
        cold_ms: f64,
        qps: f64,
        serve_qps: f64,
        rtt_p99_us: f64,
    ) -> Json {
        Json::parse(&format!(
            r#"{{ "queries": [ {{ "name": "ALU64", "repeat_ns": {repeat_ns} }} ],
                 "warm_start": {{ "warm_first_ms": {warm_ms}, "cold_first_ms": {cold_ms} }},
                 "service": {{ "saturation_qps": {qps}, "deadline_vs_plain": 0.99 }},
                 "serve": {{ "saturation_qps": {serve_qps}, "rtt_p99_us": {rtt_p99_us} }},
                 "store": {{ "load_ms": 0.2, "load_materialized": 0, "base_over_delta_bytes": 40.0 }},
                 "incremental": {{ "retained_after_update": 0.69 }} }}"#
        ))
        .expect("test snapshot parses")
    }

    fn verdicts(findings: &[Finding]) -> Vec<bool> {
        findings
            .iter()
            .map(|f| f.verdict == Verdict::Fail)
            .collect()
    }

    #[test]
    fn identical_snapshots_pass() {
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let findings = run_gate(&base, &base, 3.0);
        assert!(verdicts(&findings).iter().all(|f| !f));
    }

    #[test]
    fn noise_under_the_floor_passes() {
        // A 4x repeat regression still under the 2.5 µs floor, a 2x warm
        // first answer, and a 7x RTT regression still under the 20 ms
        // floor: skip, not fail.
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let cur = snapshot_with_serve(800.0, 0.02, 100.0, 400_000.0, 40_000.0, 15_000.0);
        let findings = run_gate(&base, &cur, 3.0);
        assert!(verdicts(&findings).iter().all(|f| !f), "noise must pass");
    }

    #[test]
    fn real_regressions_fail() {
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        // Memo hit became a re-solve (ms scale), warm start broke (warm
        // ~= cold), service throughput collapsed below the health floor,
        // the wire path collapsed with it, and the RTT tail blew past
        // both the tolerance and the noise floor.
        let cur = snapshot_with_serve(50e6, 90.0, 100.0, 5_000.0, 500.0, 500_000.0);
        let findings = run_gate(&base, &cur, 3.0);
        // The cold first answer (3rd finding: cold stayed at 100 ms),
        // the deadline floor (5th) and the store and incremental checks
        // (last four) stay healthy in this scenario.
        assert_eq!(
            verdicts(&findings),
            vec![true, true, false, true, false, true, true, false, false, false, false]
        );
    }

    #[test]
    fn store_checks_gate_the_current_run() {
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        // The lazy load decoded one answer (it must decode none) and
        // deltas grew to a third of the base (floor is a tenth): both fail
        // regardless of the baseline, though the load's time is fine.
        let cur_text = r#"{ "queries": [ { "name": "ALU64", "repeat_ns": 200.0 } ],
             "warm_start": { "warm_first_ms": 0.01, "cold_first_ms": 100.0 },
             "service": { "saturation_qps": 500000.0, "deadline_vs_plain": 0.99 },
             "serve": { "saturation_qps": 50000.0, "rtt_p99_us": 2000.0 },
             "store": { "load_ms": 0.2, "load_materialized": 1, "base_over_delta_bytes": 3.0 },
             "incremental": { "retained_after_update": 0.69 } }"#;
        let findings = run_gate(&base, &Json::parse(cur_text).unwrap(), 3.0);
        let failed: Vec<&str> = findings
            .iter()
            .filter(|f| f.verdict == Verdict::Fail)
            .map(|f| f.metric.as_str())
            .collect();
        assert_eq!(
            failed,
            ["store.load_materialized", "store.base_over_delta_bytes"]
        );
    }

    #[test]
    fn lazy_load_regressions_fail() {
        let failed = |base_ms: f64, load_ms: f64| -> Vec<String> {
            let text = |ms: f64| {
                format!(
                    r#"{{ "queries": [],
                         "warm_start": {{ "warm_first_ms": 0.5, "cold_first_ms": 50.0 }},
                         "service": {{ "saturation_qps": 500000.0, "deadline_vs_plain": 0.99 }},
                         "serve": {{ "saturation_qps": 50000.0, "rtt_p99_us": 2000.0 }},
                         "store": {{ "load_ms": {ms}, "load_materialized": 0, "base_over_delta_bytes": 40.0 }},
                         "incremental": {{ "retained_after_update": 0.69 }} }}"#
                )
            };
            let base = Json::parse(&text(base_ms)).unwrap();
            let current = Json::parse(&text(load_ms)).unwrap();
            run_gate(&base, &current, 3.0)
                .into_iter()
                .filter(|f| f.verdict == Verdict::Fail)
                .map(|f| f.metric)
                .collect()
        };
        // A load that decodes the chain's answers up front (1.5 ms against
        // a 0.2 ms baseline) fails; a faster full decode does not matter.
        assert_eq!(failed(0.2, 1.5), ["store.load_ms"]);
        // 2.5x is inside the default tolerance.
        assert!(failed(0.2, 0.5).is_empty());
        // 4x above the noise floor fails; 5x under it skips.
        assert_eq!(failed(0.2, 0.8), ["store.load_ms"]);
        assert!(failed(0.05, 0.25).is_empty());
    }

    #[test]
    fn warm_first_answer_regressions_fail() {
        let failed = |base_warm_ms: f64, warm_ms: f64, cold_ms: f64| -> Vec<String> {
            let base = snapshot(200.0, base_warm_ms, 50.0, 500_000.0);
            let current = snapshot(200.0, warm_ms, cold_ms, 500_000.0);
            run_gate(&base, &current, 3.0)
                .into_iter()
                .filter(|f| f.verdict == Verdict::Fail)
                .map(|f| f.metric)
                .collect()
        };
        // The whole space decoded on the first hit (7.75 ms against a
        // 0.7 ms baseline) fails.
        assert_eq!(failed(0.7, 7.75, 50.0), ["warm_start.warm_first_ms"]);
        // A cold solve three times faster leaves the warm check alone.
        assert!(failed(0.7, 0.7, 15.0).is_empty());
        // 2.5x is inside the default tolerance.
        assert!(failed(0.7, 1.75, 50.0).is_empty());
        // 4x but still under the 2 ms noise floor skips.
        assert!(failed(0.3, 1.2, 50.0).is_empty());
    }

    #[test]
    fn deadline_overhead_below_the_floor_fails() {
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let mut cur_text = r#"{ "queries": [ { "name": "ALU64", "repeat_ns": 200.0 } ],
             "warm_start": { "warm_first_ms": 0.01, "cold_first_ms": 100.0 },
             "service": { "saturation_qps": 500000.0, "deadline_vs_plain": 0.80 },
             "serve": { "saturation_qps": 50000.0, "rtt_p99_us": 2000.0 },
             "store": { "load_ms": 0.2, "load_materialized": 0, "base_over_delta_bytes": 40.0 },
             "incremental": { "retained_after_update": 0.69 } }"#
            .to_string();
        let cur = Json::parse(&cur_text).unwrap();
        let findings = run_gate(&base, &cur, 3.0);
        let deadline = findings
            .iter()
            .find(|f| f.metric.contains("deadline_vs_plain"))
            .expect("floor check present");
        assert!(deadline.verdict == Verdict::Fail, "0.80 < 0.95 must fail");
        // Healthy ratio passes the same check.
        cur_text = cur_text.replace("0.80", "0.97");
        let findings = run_gate(&base, &Json::parse(&cur_text).unwrap(), 3.0);
        assert!(verdicts(&findings).iter().all(|f| !f));
    }

    #[test]
    fn cold_first_answer_regressions_fail() {
        let failed = |base_cold_ms: f64, cold_ms: f64| -> Vec<String> {
            let base = snapshot(200.0, 0.5, base_cold_ms, 500_000.0);
            let current = snapshot(200.0, 0.5, cold_ms, 500_000.0);
            run_gate(&base, &current, 3.0)
                .into_iter()
                .filter(|f| f.verdict == Verdict::Fail)
                .map(|f| f.metric)
                .collect()
        };
        // A cold ALU64 four times the baseline fails.
        assert_eq!(failed(50.0, 200.0), ["warm_start.cold_first_ms"]);
        // 2.5x is inside the default tolerance.
        assert!(failed(50.0, 125.0).is_empty());
        // 4x but still under the 100 ms noise floor skips.
        assert!(failed(20.0, 80.0).is_empty());
    }

    #[test]
    fn hit_regressions_past_the_floor_fail() {
        let failed = |base_ns: f64, ns: f64| -> Vec<String> {
            let base = snapshot(base_ns, 0.5, 50.0, 500_000.0);
            let current = snapshot(ns, 0.5, 50.0, 500_000.0);
            run_gate(&base, &current, 3.0)
                .into_iter()
                .filter(|f| f.verdict == Verdict::Fail)
                .map(|f| f.metric)
                .collect()
        };
        // A hit that went from 400 ns to 3 µs fails; 2 µs, under the
        // floor, passes.
        assert_eq!(failed(400.0, 3_000.0), ["queries.ALU64.repeat_ns"]);
        assert!(failed(400.0, 2_000.0).is_empty());
    }

    #[test]
    fn slow_machine_throughput_above_the_floor_skips() {
        // A CI runner 5x slower than the baseline machine but still
        // healthy must not fail the gate.
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let cur = snapshot(200.0, 0.01, 100.0, 100_000.0);
        let findings = run_gate(&base, &cur, 3.0);
        assert!(verdicts(&findings).iter().all(|f| !f));
    }

    #[test]
    fn metrics_missing_from_the_baseline_skip() {
        let base = Json::parse(r#"{ "queries": [] }"#).unwrap();
        let cur = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let findings = run_gate(&base, &cur, 3.0);
        assert!(findings.iter().all(|f| f.verdict != Verdict::Fail));
    }

    #[test]
    fn metrics_missing_from_the_current_run_fail() {
        let base = snapshot(200.0, 0.01, 100.0, 500_000.0);
        let cur = Json::parse(r#"{ "queries": [] }"#).unwrap();
        let findings = run_gate(&base, &cur, 3.0);
        assert!(findings.iter().any(|f| f.verdict == Verdict::Fail));
    }
}
