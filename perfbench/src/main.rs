//! The DTAS benchmark: the four end-to-end paths of the mapper (cold
//! solve, warm start, served request, hot hit), each with its per-layer
//! split. See `README.md` next to this package for what each workload
//! measures and why.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_designs --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and the metrics, the
//! end-to-end ones with `--trace 0`, the per-layer ones with
//! `--trace 1`. Any wrong answer exits with code 1.

mod cold;
mod hot;
mod oracle;
mod restart;
mod served;
mod specs;
mod stats;
mod trace;

use cells::lsi::lsi_logic_subset;
use dtas::{CheckpointOutcome, Dtas};
use stats::{median, Sheet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The four legs, one per end-to-end path. Every run runs all four, so
/// every workload reports every metric.
const LEGS: [&str; 4] = ["cold_designs", "restart", "served", "hot_hits"];
/// The workloads: each names the leg that gets [`FOCUS_SHARE`] of the
/// run's seconds; the other legs split the rest.
const WORKLOADS: [&str; 2] = ["cold_designs", "restart"];
const FOCUS_SHARE: f64 = 0.45;
/// How the non-focus time splits between the legs, in `LEGS` order.
const LEG_WEIGHT: [f64; 4] = [2.0, 1.0, 1.0, 0.5];
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Where runs leave their result files and trace spans, under the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--record-oracle") {
        return Ok(None);
    }
    let value = |flag: &str| -> Result<String, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let workload = value("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .ok()
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("{flag} takes a non-negative number"))
    };
    Ok(Some(Args {
        workload,
        seed: number("--seed")? as u64,
        seconds: number("--seconds")?.max(1.0),
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
    }))
}

/// What the legs share: the warm engine, the pristine chain it
/// checkpointed, and a scratch directory for per-iteration copies.
pub struct Setup {
    pub work: PathBuf,
    pub pristine: PathBuf,
    pub engine: Arc<Dtas>,
    pub base_bytes: u64,
}

/// The benchmark's set-up: map the warm pool on a fresh engine bound to
/// a fresh cache dir and checkpoint it as the base of a chain.
fn set_up(work: &Path, k: usize) -> Result<Setup, String> {
    let pristine = work.join(format!("pristine-{k}"));
    let engine = Dtas::warm_start(lsi_logic_subset(), &pristine);
    let pool: Vec<_> = specs::POOL.iter().map(|k| specs::spec(k)).collect();
    for (key, result) in specs::POOL.iter().zip(engine.run_batch(&pool)) {
        result.map_err(|e| format!("set-up: {key}: {e}"))?;
    }
    let base_bytes = match engine.checkpoint() {
        Ok(Some(CheckpointOutcome::Full(report))) => report.bytes,
        other => return Err(format!("set-up checkpoint was not a base: {other:?}")),
    };
    Ok(Setup {
        work: work.to_path_buf(),
        pristine,
        engine: Arc::new(engine),
        base_bytes,
    })
}

fn first_line_of(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok().and_then(|text| {
        text.lines()
            .find(|l| l.starts_with(prefix))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    })
}

/// Returns the allocator's free pages to the OS between units. glibc
/// keeps freed memory in per-thread arenas, so without this the peak RSS
/// grows with how many server threads a run happened to start, not with
/// the memory the program holds.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_allocator() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: malloc_trim only releases free memory of glibc's own
    // arenas; it takes no pointer and is safe to call from any thread.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_allocator() {}

fn peak_rss_mb() -> f64 {
    first_line_of("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Where the numbers come from: the revision (when the checkout is a git
/// repository), a digest of the sources either way, and the machine.
fn provenance(args: &Args) -> Vec<(&'static str, String)> {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string());
    let mut files = Vec::new();
    let mut stack = vec![PathBuf::from("crates"), PathBuf::from("perfbench/src")];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "book") {
                files.push(path);
            }
        }
    }
    files.sort();
    let digest = files.iter().fold(oracle::FNV_SEED, |h, path| {
        let h = oracle::fnv(h, path.to_string_lossy().as_bytes());
        oracle::fnv(h, &std::fs::read(path).unwrap_or_default())
    });
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        (
            "cpu",
            first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(|| "unknown".into()),
        ),
        ("git_revision", git),
        (
            "source_digest",
            format!("{digest:016x} over {} files", files.len()),
        ),
    ]
}

fn json_str(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// One workload's path, run a unit at a time so the legs interleave.
pub trait Leg {
    /// Runs one unit of work: a design, a session, a window, a burst of
    /// hits.
    fn step(&mut self);
    /// Completes what a whole measurement needs (an open design cycle,
    /// the rate search) and reports the leg's metrics.
    fn finish(self: Box<Self>) -> Sheet;
}

/// Runs the four legs interleaved for `seconds`: each unit goes to the
/// leg furthest behind its share, so slow and fast spells of a shared
/// machine spread over every leg instead of landing on one.
fn run_legs(
    args: &Args,
    setup: &Setup,
    oracle: &oracle::Oracle,
    tracer: &Tracer,
    seconds: f64,
) -> Sheet {
    let focus = LEGS
        .iter()
        .position(|w| *w == args.workload)
        .expect("workload validated");
    let rest: f64 = (0..4).filter(|&i| i != focus).map(|i| LEG_WEIGHT[i]).sum();
    let seed = args.seed;
    let legs: Vec<Box<dyn Leg + '_>> = vec![
        Box::new(cold::Leg::new(seed, oracle, tracer)),
        Box::new(restart::Leg::new(setup, seed, oracle, tracer)),
        Box::new(served::Leg::new(setup, seed, oracle, tracer)),
        Box::new(hot::Leg::new(&setup.engine, seed, oracle, tracer)),
    ];
    let mut legs: Vec<(Box<dyn Leg + '_>, Duration, Duration)> = legs
        .into_iter()
        .enumerate()
        .map(|(i, leg)| {
            let share = if i == focus {
                FOCUS_SHARE
            } else {
                (1.0 - FOCUS_SHARE) * LEG_WEIGHT[i] / rest
            };
            (
                leg,
                Duration::from_secs_f64(seconds * share),
                Duration::ZERO,
            )
        })
        .collect();
    loop {
        let behind = legs
            .iter_mut()
            .filter(|(_, budget, used)| used < budget)
            .min_by(|a, b| {
                let ratio = |l: &(Box<dyn Leg + '_>, Duration, Duration)| {
                    l.2.as_secs_f64() / l.1.as_secs_f64()
                };
                ratio(a).total_cmp(&ratio(b))
            });
        let Some((leg, _, used)) = behind else {
            break;
        };
        let t0 = Instant::now();
        leg.step();
        *used += t0.elapsed();
        trim_allocator();
    }
    let mut sheet = Sheet::default();
    for (name, (leg, budget, used)) in LEGS.iter().zip(legs) {
        let t0 = Instant::now();
        let leg = leg.finish();
        eprintln!(
            "# leg {name}: {:.2} s for a {:.2} s budget, {} attempted, {} failed",
            (used + t0.elapsed()).as_secs_f64(),
            budget.as_secs_f64(),
            leg.attempted,
            leg.failed,
        );
        sheet.absorb(leg);
    }
    sheet
}

/// End-to-end timings compared between the untraced and traced passes
/// of a traced run.
const OVERHEAD_METRICS: &[&str] = &[
    "design_ms_p50",
    "first_answer_ms_p50",
    "session_ms_p50",
    "served_latency_us_p50",
    "hit_ns",
];

fn main() {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            let path = Path::new("perfbench/oracle.tsv");
            match oracle::record(path) {
                Ok(()) => eprintln!("wrote {}", path.display()),
                Err(e) => {
                    eprintln!("error: {e}");
                    std::process::exit(1);
                }
            }
            return;
        }
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let out_dir = PathBuf::from(OUT_DIR);
    let work = out_dir.join(format!("work-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("error: {}: {e}", work.display());
        std::process::exit(2);
    }
    let prov = provenance(&args);
    for (k, v) in &prov {
        println!("# {k}: {v}");
    }

    let mut setup_walls = Vec::new();
    let mut setup = None;
    for k in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        let made = set_up(&work, k);
        setup_walls.push(t0.elapsed().as_secs_f64());
        match made {
            Ok(s) => {
                if let Some(old) = setup.replace(s) {
                    let Setup {
                        pristine, engine, ..
                    } = old;
                    drop(engine);
                    let _ = std::fs::remove_dir_all(pristine);
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                let _ = std::fs::remove_dir_all(&work);
                std::process::exit(1);
            }
        }
    }
    let setup = setup.expect("at least one set-up");

    let oracle = oracle::Oracle::load();
    let t0 = Instant::now();
    let mut sheet = Sheet::default();
    for e in oracle::setup_checks(&oracle, args.seed) {
        sheet.attempted += 1;
        sheet.fail(format!("set-up check: {e}"));
    }
    eprintln!("# set-up checks: {:.2} s", t0.elapsed().as_secs_f64());

    let tracer = Tracer::new(args.trace);
    let mut untraced = None;
    if args.trace {
        // Half the time untraced, half traced: the difference between
        // the two passes' end-to-end numbers is the tracing overhead.
        untraced = Some(run_legs(
            &args,
            &setup,
            &oracle,
            &Tracer::new(false),
            args.seconds / 2.0,
        ));
        sheet.absorb(run_legs(
            &args,
            &setup,
            &oracle,
            &tracer,
            args.seconds / 2.0,
        ));
    } else {
        sheet.absorb(run_legs(&args, &setup, &oracle, &tracer, args.seconds));
    }
    sheet.put("setup_s", median(&setup_walls), "s", setup_walls.len());
    sheet.put("peak_rss_mb", peak_rss_mb(), "MB", 1);
    let attempted = sheet.attempted.max(1);
    sheet.put(
        "error_rate",
        sheet.failed as f64 / attempted as f64,
        "ratio",
        attempted as usize,
    );

    if let Some(untraced) = &untraced {
        let mut overheads = Vec::new();
        for name in OVERHEAD_METRICS {
            let (Some(a), Some(b)) = (untraced.metrics.get(*name), sheet.metrics.get(*name)) else {
                continue;
            };
            let pct = (b.value - a.value) / a.value * 100.0;
            println!(
                "# tracing overhead {name}: untraced {:.4} traced {:.4} {} ({pct:+.1}%)",
                a.value, b.value, a.unit
            );
            overheads.push(pct);
        }
        sheet.put(
            "trace.overhead_pct",
            median(&overheads),
            "%",
            overheads.len(),
        );
        let path = out_dir.join(format!("{}-seed{}.trace.jsonl", args.workload, args.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("warning: {}: {e}", path.display());
        }
        for (name, (count, total, own)) in tracer.self_times() {
            println!("# layer {name}: {count} spans, {total:.3} ms total, {own:.3} ms self");
        }
    }

    drop(setup);
    let _ = std::fs::remove_dir_all(&work);

    for (name, m) in &sheet.metrics {
        println!(
            "# metric {name} = {} {} (n={})",
            json_num(m.value),
            m.unit,
            m.samples
        );
    }
    for e in &sheet.failures {
        println!("# FAILED: {e}");
    }
    let wanted: &[&str] = if args.trace { PER_LAYER } else { END_TO_END };
    let metrics: Vec<String> = wanted
        .iter()
        .map(|name| {
            let (value, unit) = sheet
                .metrics
                .get(*name)
                .map_or((f64::NAN, ""), |m| (m.value, m.unit));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )
        })
        .collect();
    let correct = sheet.failed == 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        sheet.attempted.max(1),
        sheet.failed,
        metrics.join(", ")
    );
    let record = format!(
        "{{\"provenance\": {{{}}}, \"result\": {line}}}\n",
        prov.iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record) {
        eprintln!("warning: {}: {e}", path.display());
    }
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

/// The end-to-end metrics, as `BENCHMARK.json` lists them.
const END_TO_END: &[&str] = &[
    "setup_s",
    "peak_rss_mb",
    "design_ms_p50",
    "first_answer_ms_p50",
    "first_answer_ms_p90",
    "session_ms_p50",
    "hit_ns",
    "hits_per_s",
];

/// The per-layer metrics, as `BENCHMARK.json` lists them.
const PER_LAYER: &[&str] = &[
    "error_rate",
    "trace.overhead_pct",
    "hls.compile_ms",
    "controlc.close_ms",
    "design_ms_p90",
    "space.expand_ms",
    "space.solve_ms",
    "space.root_front_ms",
    "extract.ms",
    "space.unconstrained_ms",
    "space.uniform_ms",
    "engine.residual_ms",
    "space.nodes",
    "space.impl_choices",
    "space.fronts_solved",
    "space.truncated_combinations",
    "extract.alternatives",
    "space.uniform_exhausted_ratio",
    "store.open_ms",
    "store.first_hit_ms",
    "store.next_hit_ms",
    "engine.miss_solve_ms",
    "store.checkpoint_ms",
    "store.delta_bytes",
    "store.base_bytes",
    "store.lazy_materialized",
    "store.snapshot_rejects",
    "served_latency_us_p50",
    "served_latency_us_p99",
    "served_max_rps",
    "net.request_encode_us",
    "net.result_decode_us",
    "net.result_frame_bytes",
    "service.wait_us_p99.interactive",
    "service.wait_us_p99.bulk",
    "service.exec_us_p50",
    "service.exec_us_p99",
    "service.rejected",
    "service.shed",
    "service.deadline_expired",
    "engine.hit_ratio",
    "canon.canonical_hits",
    "generator.lateness_us_p99",
    "engine.plain_hit_ns",
    "canon.decorated_hit_ns",
    "engine.shard_contention",
];

#[cfg(test)]
mod tests {
    /// Names of the `"name"` entries of one list of `BENCHMARK.json`.
    fn names_in(list: &str) -> Vec<String> {
        let text = include_str!("../../BENCHMARK.json");
        let start = text
            .find(&format!("\"{list}\""))
            .expect("list in BENCHMARK.json");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("list closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|rest| rest[..rest.find('"').expect("name closes")].to_string())
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(names_in("end_to_end"), super::END_TO_END);
        assert_eq!(names_in("per_layer"), super::PER_LAYER);
        assert_eq!(names_in("workloads"), super::WORKLOADS);
    }
}
