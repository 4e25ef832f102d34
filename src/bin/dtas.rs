//! The `dtas` command-line driver: the paper's pipeline without writing
//! Rust, as a thin wrapper over the [`Flow`] façade and the DTAS engine.
//!
//! ```text
//! dtas map  --spec add:16:cin:cout [--book FILE] [--pareto] [--cap N]
//! dtas flow --hls FILE [--book FILE] [--emit-vhdl OUT]
//! dtas lint [--hls FILE]... [--legend FILE]... [--book FILE]
//! dtas serve [--port P] [--book FILE]
//! dtas cache --cache-dir DIR [--gc [--apply]]
//! dtas help
//! ```
//!
//! `map` synthesizes one component specification against a data book and
//! prints the trade-off table; `flow` runs a behavioral entity through
//! scheduling, control compilation, linking and technology mapping;
//! `lint` runs the `core::analyze` static-analysis passes over input
//! artifacts and exits 0/1/2 for clean/warnings/errors; `serve` puts the
//! engine behind the `core::net` TCP wire protocol; `cache` inventories
//! and garbage-collects the tiered warm-start store in a `--cache-dir`.

use cells::CellLibrary;
use dtas::lola::with_derived_rules;
use dtas::{
    Admission, DesignSet, Dtas, DtasService, FilterPolicy, LintRegistry, LintReport, LintTarget,
    PersistentStore, Priority, RuleSet, ServeConfig, ServiceConfig, ServiceStats, Severity,
    SynthRequest, Ticket, WireClient, WireServer,
};
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use hls_rtl_bridge::{BridgeError, Flow};
use rand::distributions::{Distribution, Exp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

const USAGE: &str = "dtas - map generic RTL components onto data book cells (Dutt & Kipps, DAC'91)

USAGE:
  dtas map  --spec SPEC [--book FILE] [--pareto] [--cap N]
            [--cache-dir DIR] [--queue-depth N] [--deadline-ms MS]
            [--stats] [--format json]
      Synthesize one component specification and print its trade-off table.
      --queue-depth routes the query through the admission-controlled
      DtasService (worker pool + bounded queue) instead of calling the
      engine directly, so service accounting shows up in --stats;
      --deadline-ms bounds how long the request may wait in that queue.
      --format json prints one machine-readable document (schema
      dtas-map/1) and nothing else on stdout.
  dtas flow --hls FILE [--book FILE] [--emit-vhdl OUT] [--cache-dir DIR]
            [--format json]
      Run a behavioral entity through the full Figure-1 pipeline
      (schedule -> compile control -> link -> technology-map).
      --format json prints one dtas-flow/1 document instead of the
      human-readable reports.
  dtas lint [--hls FILE]... [--legend FILE]... [--book FILE] [--format json]
      Static analysis with stable DT### diagnostic codes. Each --hls
      entity is compiled to its linked netlist and checked (dangling or
      multiply-driven nets, width mismatches, combinational loops, ...);
      each --legend document is parsed and its generator descriptions
      checked; --book (or, when no target is named, the embedded data
      book) is checked for cost-model defects together with the rule
      base an engine on that book runs: the generic rules plus the
      rules LOLA derives for the book. --format json prints one machine-readable
      dtas-lint/1 document. Exit code: 0 clean (or info-only findings),
      1 when the worst finding is a warning, 2 when any error is found.
  dtas serve [--port P] [--book FILE] [--cache-dir DIR] [--workers W]
             [--queue-depth D] [--max-inflight I] [--deadline-ms MS]
             [--admission POLICY] [--checkpoint-secs S]
      Serve the engine over TCP on 127.0.0.1 (the DTW1 wire protocol;
      port 0 picks an ephemeral port). Prints `listening on ADDR` once
      bound. --deadline-ms is the default queue deadline stamped on every
      request that does not carry its own. Closing the server's stdin is
      the SIGTERM-equivalent drain signal: the listener stops, every
      admitted ticket resolves, a final checkpoint flushes, and the
      service/cache counters print.
  dtas bench-load [--clients N] [--requests M] [--queue-depth D]
                  [--workers W] [--max-inflight I] [--admission POLICY]
                  [--deadline-ms MS] [--cancel-rate F] [--arrival-rate R]
                  [--connect HOST:PORT] [--spec SPEC] [--book FILE]
                  [--cache-dir DIR] [--stats]
      Drive a DtasService with N concurrent clients submitting M requests
      each (pipelined) and print throughput, queue-wait percentiles,
      log-2 latency histograms and the service counters. The CI perf
      smoke runs this; an undersized --queue-depth with --admission shed
      demonstrates load shedding.
      --deadline-ms stamps a queue deadline on every request;
      --cancel-rate F cancels each submission with probability F (0..=1);
      --arrival-rate R switches to an open-loop Poisson arrival process
      at R requests/sec across all clients (exponential inter-arrival
      gaps, no pipeline-window backpressure) and reports offered vs
      delivered throughput.
      --connect drives a remote `dtas serve` over the wire protocol
      instead (clients alternate interactive/bulk lanes; server-side
      sizing flags are rejected) and prints client RTT percentiles plus
      the server's own measured counters.

  dtas cache --cache-dir DIR [--gc [--apply]] [--max-age-secs S]
             [--format json]
      Inventory the tiered warm-start store in DIR: one line per snapshot
      key (library/rule/config fingerprints) with its format version,
      generation, base and delta sizes, segment count and age. --gc plans
      a garbage collection (orphaned temporaries, superseded generations,
      broken chains, stale formats, and — with --max-age-secs — whole
      keys idle longer than S seconds); the plan is a dry run unless
      --apply is also given. --format json prints one machine-readable
      dtas-cache/1 document. Exit code 0 whether or not anything is
      collectable; flag misuse exits 1.

ADMISSION POLICY (--admission):
  reject                 refuse when the lane is full
  block                  wait up to 5s for space (default)
  shed                   admit, evicting the oldest waiter when full
  rate:PER_SEC[:BURST]   per-lane token bucket (BURST defaults to
                         PER_SEC), composed with shed-oldest on overflow
  dtas help
      Print this message.

PERSISTENCE:
  --cache-dir DIR warm-starts the engine from DIR and flushes its new
  answers back on exit (only answers persist: the design space and its
  fronts stay with the process), so a second `dtas` process answers a
  repeated query by decoding that answer's own section (about a
  millisecond for ALU64) instead of re-paying the cold solve; a spec
  variant that canonicalizes to a stored answer is served from it too.
  Answers to --cap/--pareto overrides are never stored. The store is
  tiered: loads map an immutable base segment (answers decode lazily, on
  first request), checkpoints append O(dirty) delta segments, and a
  compaction pass folds long chains back into one base. Chains are keyed by library, rule-set
  and configuration fingerprints plus the codec version; anything
  incompatible (or corrupt) is rejected and the run simply starts cold.
  `dtas cache` lists and garbage-collects what accumulates in a shared
  DIR. --stats prints the cache and snapshot-store counters after the
  query.

SPEC grammar:  kind:width[:attr...]
  kind   add | alu | mux | comparator | counter | register | shifter | lu
         | decoder | encoder | multiplier | gate_and | gate_or | ...
  attrs  cin  cout  en  sr  pg          pin flags
         n=K                            mux/gate fan-in
         w2=K                           second width (e.g. multiplier)
         style=S                        generator style
         ops=add+sub+...                explicit operation set
  Each kind has a sensible default operation set (add -> ADD, alu -> the
  paper's 16 functions, counter -> LOAD+COUNT_UP+COUNT_DOWN, ...).

EXAMPLES:
  dtas map --spec add:16:cin:cout
  dtas map --spec alu:64 --cache-dir ~/.cache/dtas --queue-depth 8 --stats
  dtas cache --cache-dir ~/.cache/dtas --gc --max-age-secs 604800 --apply
  dtas map --spec alu:64 --pareto --format json
  dtas map --spec mux:8:n=4 --book my_cells.book
  dtas flow --hls gcd.ent --emit-vhdl gcd.vhd
  dtas lint
  dtas lint --hls gcd.ent --book my_cells.book --format json
  dtas serve --port 7171 --queue-depth 256 &
  dtas bench-load --clients 4 --requests 500 --connect 127.0.0.1:7171
  dtas bench-load --clients 4 --requests 500 --queue-depth 64 --stats
  dtas bench-load --clients 4 --queue-depth 2 --admission shed --stats
  dtas bench-load --clients 2 --requests 200 --arrival-rate 400 \\
                  --deadline-ms 50 --cancel-rate 0.05 --queue-depth 64
";

/// Parses the CLI's `kind:width[:attr...]` component-spec mini-language.
fn parse_spec(text: &str) -> Result<ComponentSpec, BridgeError> {
    let bad = |msg: String| BridgeError::Flow(format!("bad --spec {text:?}: {msg}"));
    let mut parts = text.split(':');
    let kind_text = parts.next().unwrap_or_default().to_ascii_lowercase();
    let kind = match kind_text.as_str() {
        "add" | "addsub" => ComponentKind::AddSub,
        "alu" => ComponentKind::Alu,
        "lu" | "logic" => ComponentKind::LogicUnit,
        "mux" => ComponentKind::Mux,
        "selector" => ComponentKind::Selector,
        "decoder" => ComponentKind::Decoder,
        "encoder" => ComponentKind::Encoder,
        "comparator" | "cmp" => ComponentKind::Comparator,
        "shifter" | "shift" => ComponentKind::Shifter,
        "barrel" => ComponentKind::BarrelShifter,
        "multiplier" | "mul" => ComponentKind::Multiplier,
        "register" | "reg" => ComponentKind::Register,
        "counter" => ComponentKind::Counter,
        other => {
            let Some(gate) = other.strip_prefix("gate_") else {
                return Err(bad(format!("unknown component kind {other:?}")));
            };
            ComponentKind::Gate(
                GateOp::parse(&gate.to_ascii_uppercase()).map_err(|e| bad(e.to_string()))?,
            )
        }
    };
    let width: usize = parts
        .next()
        .ok_or_else(|| bad("missing width (kind:width[:attr...])".into()))?
        .parse()
        .map_err(|e| bad(format!("width: {e}")))?;
    let mut spec = ComponentSpec::new(kind, width);
    let mut explicit_ops = false;
    for attr in parts {
        let attr_l = attr.to_ascii_lowercase();
        match attr_l.as_str() {
            "cin" => spec = spec.with_carry_in(true),
            "cout" => spec = spec.with_carry_out(true),
            "en" => spec = spec.with_enable(true),
            "sr" => spec = spec.with_async_set_reset(true),
            "pg" => spec = spec.with_group_pg(true),
            _ => {
                if let Some(v) = attr_l.strip_prefix("n=") {
                    spec = spec.with_inputs(v.parse().map_err(|e| bad(format!("n: {e}")))?);
                } else if let Some(v) = attr_l.strip_prefix("w2=") {
                    spec = spec.with_width2(v.parse().map_err(|e| bad(format!("w2: {e}")))?);
                } else if let Some(v) = attr_l.strip_prefix("style=") {
                    spec = spec.with_style(&v.to_ascii_uppercase());
                } else if let Some(v) = attr_l.strip_prefix("ops=") {
                    let ops: OpSet = v
                        .split('+')
                        .map(|name| Op::parse(&name.to_ascii_uppercase()))
                        .collect::<Result<Vec<_>, _>>()
                        .map_err(|e| bad(e.to_string()))?
                        .into_iter()
                        .collect();
                    spec = spec.with_ops(ops);
                    explicit_ops = true;
                } else {
                    return Err(bad(format!("unknown attribute {attr:?}")));
                }
            }
        }
    }
    if !explicit_ops {
        let default_ops: &[Op] = match kind {
            ComponentKind::AddSub => &[Op::Add],
            ComponentKind::Alu => return Ok(spec.with_ops(Op::paper_alu16())),
            ComponentKind::Comparator => &[Op::Eq, Op::Lt, Op::Gt],
            ComponentKind::Counter => &[Op::Load, Op::CountUp, Op::CountDown],
            ComponentKind::Register => &[Op::Load],
            ComponentKind::Shifter | ComponentKind::BarrelShifter => &[Op::Shl, Op::Shr],
            ComponentKind::LogicUnit => &[Op::And, Op::Or, Op::Xor],
            _ => &[],
        };
        if !default_ops.is_empty() {
            spec = spec.with_ops(default_ops.iter().copied().collect());
        }
    }
    // Muxes need a fan-in; default 2 keeps `mux:8` meaningful.
    if kind == ComponentKind::Mux && spec.inputs == 0 {
        spec = spec.with_inputs(2);
    }
    Ok(spec)
}

/// Loads a data book file, or the embedded LSI-style 30-cell subset.
fn load_book(path: Option<&str>) -> Result<CellLibrary, BridgeError> {
    match path {
        None => Ok(cells::lsi::lsi_logic_subset()),
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| BridgeError::Io(format!("{path}: {e}")))?;
            Ok(cells::databook::parse(&text)?)
        }
    }
}

/// Parses an optional numeric flag with a default.
fn parse_num(args: &Args, name: &str, default: usize) -> Result<usize, BridgeError> {
    match args.value_of(name)? {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|e| BridgeError::Flow(format!("bad --{name}: {e}"))),
    }
}

/// Parses `--admission reject|block|shed|rate:PER_SEC[:BURST]`
/// (default `block`).
fn parse_admission(args: &Args) -> Result<Admission, BridgeError> {
    let text = args.value_of("admission")?.unwrap_or("block");
    match text {
        "reject" => Ok(Admission::Reject),
        "block" => Ok(Admission::Block {
            timeout: Duration::from_secs(5),
        }),
        "shed" => Ok(Admission::ShedOldest),
        other => {
            let bad = |msg: String| {
                BridgeError::Flow(format!(
                    "bad --admission {other:?}: {msg} \
                     (expected reject, block, shed or rate:PER_SEC[:BURST])"
                ))
            };
            let Some(rate) = other.strip_prefix("rate:") else {
                return Err(bad("unknown policy".into()));
            };
            let mut parts = rate.split(':');
            let per_sec: u32 = parts
                .next()
                .filter(|p| !p.is_empty())
                .ok_or_else(|| bad("missing PER_SEC".into()))?
                .parse()
                .map_err(|e| bad(format!("PER_SEC: {e}")))?;
            let burst: u32 = match parts.next() {
                None => per_sec,
                Some(b) => b.parse().map_err(|e| bad(format!("BURST: {e}")))?,
            };
            if parts.next().is_some() {
                return Err(bad("too many fields".into()));
            }
            Ok(Admission::Rate { per_sec, burst })
        }
    }
}

/// Parses `--deadline-ms MS` into a relative queue deadline.
fn parse_deadline(args: &Args) -> Result<Option<Duration>, BridgeError> {
    Ok(args
        .value_of("deadline-ms")?
        .map(str::parse)
        .transpose()
        .map_err(|e: std::num::ParseIntError| BridgeError::Flow(format!("bad --deadline-ms: {e}")))?
        .map(Duration::from_millis))
}

/// Parses `--cancel-rate F` as a probability in `0..=1`.
fn parse_cancel_rate(args: &Args) -> Result<f64, BridgeError> {
    match args.value_of("cancel-rate")? {
        None => Ok(0.0),
        Some(v) => {
            let rate: f64 = v
                .parse()
                .map_err(|e| BridgeError::Flow(format!("bad --cancel-rate: {e}")))?;
            if !(0.0..=1.0).contains(&rate) {
                return Err(BridgeError::Flow(format!(
                    "bad --cancel-rate {rate}: must be within 0..=1"
                )));
            }
            Ok(rate)
        }
    }
}

/// Parses `--arrival-rate R` (requests/sec across all clients) into a
/// per-client exponential inter-arrival sampler.
fn parse_arrival(args: &Args, clients: usize) -> Result<Option<Exp>, BridgeError> {
    match args.value_of("arrival-rate")? {
        None => Ok(None),
        Some(v) => {
            let rate: f64 = v
                .parse()
                .map_err(|e| BridgeError::Flow(format!("bad --arrival-rate: {e}")))?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(BridgeError::Flow(format!(
                    "bad --arrival-rate {rate}: must be a positive rate in requests/sec"
                )));
            }
            Ok(Some(Exp::new(rate / clients as f64)))
        }
    }
}

/// The per-lane log-2 latency histograms, one line per lane and axis
/// (`lower_bound_us:count` pairs; `-` when a lane saw no traffic).
fn print_histograms(stats: &ServiceStats) {
    for (name, lane) in [("interactive", &stats.lanes[0]), ("bulk", &stats.lanes[1])] {
        println!("hist: lane={name} wait_us=[{}]", lane.wait_hist.render());
        println!(
            "hist: lane={name} service_us=[{}]",
            lane.service_hist.render()
        );
    }
}

/// Validates `--format` — today only `json` (absence means human text).
fn wants_json(args: &Args) -> Result<bool, BridgeError> {
    match args.value_of("format")? {
        None => Ok(false),
        Some("json") => Ok(true),
        Some(other) => Err(BridgeError::Flow(format!(
            "bad --format {other:?} (expected json)"
        ))),
    }
}

/// Escapes a string for a JSON literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number literal (`null` for the non-finite, which JSON lacks).
fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// The `dtas-map/1` / `dtas-flow/1` design-set fields (no surrounding
/// braces, so callers can splice them into their own object): `spec`,
/// `alternatives` (area/delay/label/cells — the determinism-fingerprint
/// fields) and `design_space`. The key schema is pinned by the
/// `--format json` contract tests in `tests/cli.rs`; treat every key as
/// load-bearing.
fn design_set_json_fields(set: &DesignSet) -> String {
    let alternatives: Vec<String> = set
        .alternatives
        .iter()
        .map(|a| {
            let cells: Vec<String> = a
                .implementation
                .cell_census()
                .into_iter()
                .map(|(cell, count)| format!("{{\"cell\":{},\"count\":{count}}}", json_str(&cell)))
                .collect();
            format!(
                "{{\"area\":{},\"delay\":{},\"label\":{},\"cells\":[{}]}}",
                json_num(a.area),
                json_num(a.delay),
                json_str(a.implementation.label()),
                cells.join(",")
            )
        })
        .collect();
    let uniform = match set.uniform_size {
        Some(n) => n.to_string(),
        None => "null".to_string(),
    };
    format!(
        "\"spec\":{},\"alternatives\":[{}],\"design_space\":{{\
         \"unconstrained_size\":{},\"unconstrained_log10\":{},\"uniform_size\":{uniform},\
         \"spec_nodes\":{},\"impl_choices\":{},\"truncated_combinations\":{}}}",
        json_str(&set.spec.to_string()),
        alternatives.join(","),
        json_num(set.unconstrained_size),
        json_num(set.unconstrained_log10),
        set.stats.spec_nodes,
        set.stats.impl_choices,
        set.stats.truncated_combinations
    )
}

/// The `"cache"` object shared by both JSON schemas.
fn cache_json(stats: &dtas::CacheStats) -> String {
    format!(
        "{{\"hits\":{},\"misses\":{},\"canonical_hits\":{},\"specs_collapsed\":{}}}",
        stats.hits, stats.misses, stats.canonical_hits, stats.specs_collapsed
    )
}

/// One parsed `--flag value` / bare-flag argument list.
struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, BridgeError> {
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(BridgeError::Flow(format!(
                    "unexpected argument {arg:?} (flags are --name [value])"
                )));
            };
            let value = match it.peek() {
                Some(next) if !next.starts_with("--") => Some(it.next().unwrap().clone()),
                _ => None,
            };
            flags.push((name.to_string(), value));
        }
        Ok(Args { flags })
    }

    /// Rejects flags no command defines (typos must not exit 0).
    fn expect_only(&self, allowed: &[&str]) -> Result<(), BridgeError> {
        for (name, _) in &self.flags {
            if !allowed.contains(&name.as_str()) {
                return Err(BridgeError::Flow(format!(
                    "unknown flag --{name} (expected one of: {})",
                    allowed
                        .iter()
                        .map(|a| format!("--{a}"))
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
        }
        Ok(())
    }

    /// The flag's value when present; an error when the flag was given
    /// without one (a forgotten value must not silently change behavior).
    fn value_of(&self, name: &str) -> Result<Option<&str>, BridgeError> {
        match self.flags.iter().find(|(n, _)| n == name) {
            None => Ok(None),
            Some((_, Some(v))) => Ok(Some(v.as_str())),
            Some((_, None)) => Err(BridgeError::Flow(format!("flag --{name} requires a value"))),
        }
    }

    /// Every value of a repeatable flag, in order; an error when any
    /// occurrence was given without a value.
    fn values_of(&self, name: &str) -> Result<Vec<&str>, BridgeError> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| {
                v.as_deref()
                    .ok_or_else(|| BridgeError::Flow(format!("flag --{name} requires a value")))
            })
            .collect()
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn require(&self, name: &str) -> Result<&str, BridgeError> {
        self.value_of(name)?
            .ok_or_else(|| BridgeError::Flow(format!("missing required flag --{name}")))
    }
}

fn cmd_map(args: &Args) -> Result<(), BridgeError> {
    args.expect_only(&[
        "spec",
        "book",
        "pareto",
        "cap",
        "cache-dir",
        "stats",
        "queue-depth",
        "deadline-ms",
        "format",
    ])?;
    let json = wants_json(args)?;
    let spec = parse_spec(args.require("spec")?)?;
    let library = load_book(args.value_of("book")?)?;
    let library_line = format!(
        "\"library\":{{\"name\":{},\"cells\":{}}}",
        json_str(library.name()),
        library.len()
    );
    if !json {
        println!("library: {} ({} cells)", library.name(), library.len());
        println!("specification: {spec}\n");
    }
    let cache_dir = args.value_of("cache-dir")?;
    let engine = Arc::new(match cache_dir {
        Some(dir) => Dtas::warm_start(library, dir),
        None => Dtas::new(library),
    });
    let mut request = SynthRequest::new(spec);
    if args.has("pareto") {
        request = request.with_root_filter(FilterPolicy::Pareto);
    }
    if let Some(cap) = args.value_of("cap")? {
        let cap: usize = cap
            .parse()
            .map_err(|e| BridgeError::Flow(format!("bad --cap: {e}")))?;
        request = request.with_front_cap(cap);
    }
    if let Some(deadline) = parse_deadline(args)? {
        // Meaningful on the --queue-depth service path (a direct engine
        // call never queues); carried on the request either way.
        request = request.with_deadline(deadline);
    }
    // With --queue-depth the query goes through the admission-controlled
    // service (worker pool + bounded queue) — same answer, but the
    // submit/dispatch path and its accounting are exercised, which is
    // what the CI cross-process smoke greps for.
    let (designs, service_stats) = match args.value_of("queue-depth")? {
        Some(depth) => {
            let queue_depth: usize = depth
                .parse()
                .map_err(|e| BridgeError::Flow(format!("bad --queue-depth: {e}")))?;
            let service = DtasService::start(
                Arc::clone(&engine),
                ServiceConfig {
                    queue_depth,
                    ..ServiceConfig::default()
                },
            );
            let outcome = service.submit(request)?.recv()?;
            (outcome.design.clone(), Some(service.shutdown()))
        }
        None => (engine.run(&request)?, None),
    };
    if json {
        // One document, nothing else on stdout — the contract the
        // `--format json` CLI tests pin.
        println!(
            "{{\"schema\":\"dtas-map/1\",{library_line},{},\"cache\":{}}}",
            design_set_json_fields(&designs),
            cache_json(&engine.cache_stats())
        );
    } else {
        println!("{designs}");
    }
    if cache_dir.is_some() {
        // Flush explicitly so a full disk or unwritable directory fails
        // the run loudly instead of being swallowed by the drop hook.
        engine.checkpoint().map_err(BridgeError::Store)?;
    }
    if args.has("stats") && !json {
        println!("{}", engine.cache_stats());
        if let Some(stats) = service_stats {
            println!("{stats}");
        }
        if let Some(reason) = engine.last_snapshot_rejection() {
            println!("store: last rejection: {reason}");
        }
    }
    Ok(())
}

fn cmd_bench_load(args: &Args) -> Result<(), BridgeError> {
    args.expect_only(&[
        "clients",
        "requests",
        "queue-depth",
        "workers",
        "max-inflight",
        "admission",
        "deadline-ms",
        "cancel-rate",
        "arrival-rate",
        "connect",
        "spec",
        "book",
        "cache-dir",
        "stats",
    ])?;
    let clients = parse_num(args, "clients", 4)?.max(1);
    let requests = parse_num(args, "requests", 1_000)?.max(1);
    let deadline = parse_deadline(args)?;
    let cancel_rate = parse_cancel_rate(args)?;
    let arrival = parse_arrival(args, clients)?;
    if let Some(addr) = args.value_of("connect")? {
        return bench_load_connect(args, addr, clients, requests);
    }
    let queue_depth = parse_num(args, "queue-depth", 1_024)?;
    let max_inflight = parse_num(args, "max-inflight", usize::MAX)?;
    let admission = parse_admission(args)?;
    let spec = parse_spec(args.value_of("spec")?.unwrap_or("add:16:cin:cout"))?;
    let library = load_book(args.value_of("book")?)?;
    let engine = Arc::new(match args.value_of("cache-dir")? {
        Some(dir) => Dtas::warm_start(library, dir),
        None => Dtas::new(library),
    });
    // Warm the spec so the run measures service throughput, not one cold
    // solve amortized over the load.
    engine.run(&spec)?;
    let service = DtasService::start(
        Arc::clone(&engine),
        ServiceConfig {
            workers: args
                .value_of("workers")?
                .map(str::parse)
                .transpose()
                .map_err(|e: std::num::ParseIntError| {
                    BridgeError::Flow(format!("bad --workers: {e}"))
                })?,
            queue_depth,
            max_inflight,
            admission,
            default_deadline: None,
            checkpoint_interval: None,
        },
    );

    /// Per-client tallies, merged after the run.
    #[derive(Default)]
    struct ClientTally {
        ok: u64,
        overloaded: u64,
        shed: u64,
        cancelled: u64,
        deadline: u64,
        failed: u64,
        waits_us: Vec<u64>,
    }
    let t0 = Instant::now();
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let service = &service;
                let spec = &spec;
                let arrival = arrival.as_ref();
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(0xBE7C_0000 + i as u64);
                    let mut tally = ClientTally::default();
                    let mut pending: VecDeque<Ticket> = VecDeque::new();
                    let drain = |t: Ticket, tally: &mut ClientTally| match t.recv() {
                        Ok(outcome) => {
                            tally.ok += 1;
                            tally.waits_us.push(outcome.queued_for.as_micros() as u64);
                        }
                        Err(dtas::ServiceError::Shed) => tally.shed += 1,
                        Err(dtas::ServiceError::Cancelled) => tally.cancelled += 1,
                        Err(dtas::ServiceError::DeadlineExceeded) => tally.deadline += 1,
                        Err(_) => tally.failed += 1,
                    };
                    let mut request = SynthRequest::new(spec.clone());
                    if let Some(d) = deadline {
                        request = request.with_deadline(d);
                    }
                    // Open-loop: the next submission's wall-clock slot is
                    // scheduled in advance, independent of completions.
                    let mut next_at = Instant::now();
                    for _ in 0..requests {
                        if let Some(exp) = arrival {
                            next_at += Duration::from_secs_f64(exp.sample(&mut rng));
                            if let Some(gap) = next_at.checked_duration_since(Instant::now()) {
                                std::thread::sleep(gap);
                            }
                        }
                        match service.submit(request.clone()) {
                            Ok(ticket) => {
                                if cancel_rate > 0.0 && rng.gen_bool(cancel_rate) {
                                    ticket.cancel();
                                }
                                pending.push_back(ticket);
                                // Pipeline window: keep up to 32 tickets
                                // outstanding per client — closed-loop
                                // backpressure that would distort an
                                // open-loop arrival process, so it is
                                // off under --arrival-rate.
                                if arrival.is_none() && pending.len() >= 32 {
                                    let ticket = pending.pop_front().expect("nonempty");
                                    drain(ticket, &mut tally);
                                }
                            }
                            Err(dtas::ServiceError::Overloaded { .. }) => tally.overloaded += 1,
                            Err(_) => tally.failed += 1,
                        }
                    }
                    for ticket in pending {
                        drain(ticket, &mut tally);
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let stats = service.shutdown();

    let mut merged = ClientTally::default();
    for tally in tallies {
        merged.ok += tally.ok;
        merged.overloaded += tally.overloaded;
        merged.shed += tally.shed;
        merged.cancelled += tally.cancelled;
        merged.deadline += tally.deadline;
        merged.failed += tally.failed;
        merged.waits_us.extend(tally.waits_us);
    }
    merged.waits_us.sort_unstable();
    let submitted = (clients * requests) as u64;
    println!(
        "load: clients={clients} requests={requests} submitted={submitted} ok={} overloaded={} shed={} failed={} cancelled={} deadline_expired={}",
        merged.ok, merged.overloaded, merged.shed, merged.failed, merged.cancelled, merged.deadline
    );
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "throughput: completed_qps={:.0} elapsed_ms={:.1}",
        merged.ok as f64 / secs,
        elapsed.as_secs_f64() * 1e3
    );
    if arrival.is_some() {
        // Open-loop honesty: how much load was offered vs how much the
        // service actually delivered inside the run window.
        println!(
            "arrivals: offered_qps={:.0} delivered_qps={:.0} delivered_frac={:.3}",
            submitted as f64 / secs,
            merged.ok as f64 / secs,
            merged.ok as f64 / (submitted as f64).max(1.0)
        );
    }
    println!(
        "wait: p50_us={} p99_us={} max_us={}",
        dtas::service::percentile(&merged.waits_us, 50.0),
        dtas::service::percentile(&merged.waits_us, 99.0),
        merged.waits_us.last().copied().unwrap_or(0)
    );
    println!("{stats}");
    print_histograms(&stats);
    if args.has("stats") {
        println!("{}", engine.cache_stats());
    }
    Ok(())
}

/// `bench-load --connect HOST:PORT`: the same load shape as the
/// in-process run, but driven over the wire protocol against a remote
/// `dtas serve`. Clients alternate interactive/bulk lanes; the printed
/// `load:`/`throughput:` keys match the in-process run, `rtt:` replaces
/// `wait:` (round-trip time is what a wire client can observe), and the
/// server's own measured counters — including the per-lane `lanes:`
/// percentiles — are fetched over a probe connection afterwards.
fn bench_load_connect(
    args: &Args,
    addr: &str,
    clients: usize,
    requests: usize,
) -> Result<(), BridgeError> {
    for server_side in [
        "queue-depth",
        "workers",
        "max-inflight",
        "admission",
        "book",
        "cache-dir",
    ] {
        if args.has(server_side) {
            return Err(BridgeError::Flow(format!(
                "--{server_side} sizes the server; pass it to `dtas serve`, not to --connect"
            )));
        }
    }
    let spec = parse_spec(args.value_of("spec")?.unwrap_or("add:16:cin:cout"))?;
    let deadline = parse_deadline(args)?;
    let cancel_rate = parse_cancel_rate(args)?;
    let arrival = parse_arrival(args, clients)?;

    /// Per-client tallies, merged after the run.
    #[derive(Default)]
    struct ClientTally {
        ok: u64,
        overloaded: u64,
        shed: u64,
        cancelled: u64,
        deadline: u64,
        failed: u64,
        rtts_us: Vec<u64>,
    }
    fn drain(
        client: &mut WireClient,
        sent_at: &mut VecDeque<Instant>,
        tally: &mut ClientTally,
    ) -> Result<(), dtas::WireError> {
        let result = client.recv_result()?;
        let sent = sent_at.pop_front().expect("one submit per result");
        match result.result {
            Ok(_) => {
                tally.ok += 1;
                tally.rtts_us.push(sent.elapsed().as_micros() as u64);
            }
            Err(dtas::WireError::Overloaded { .. }) => tally.overloaded += 1,
            Err(dtas::WireError::Shed) => tally.shed += 1,
            Err(dtas::WireError::Cancelled) => tally.cancelled += 1,
            Err(dtas::WireError::DeadlineExceeded) => tally.deadline += 1,
            Err(_) => tally.failed += 1,
        }
        Ok(())
    }
    let t0 = Instant::now();
    let tallies: Vec<Result<ClientTally, dtas::WireError>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|i| {
                let spec = &spec;
                let arrival = arrival.as_ref();
                scope.spawn(move || {
                    let lane = if i % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Bulk
                    };
                    let mut rng = StdRng::seed_from_u64(0xBE7C_1000 + i as u64);
                    let mut client = WireClient::connect(addr, lane)?;
                    let mut tally = ClientTally::default();
                    let mut sent_at: VecDeque<Instant> = VecDeque::new();
                    let mut request = SynthRequest::new(spec.clone());
                    if let Some(d) = deadline {
                        request = request.with_deadline(d);
                    }
                    let mut next_at = Instant::now();
                    for _ in 0..requests {
                        if let Some(exp) = arrival {
                            next_at += Duration::from_secs_f64(exp.sample(&mut rng));
                            if let Some(gap) = next_at.checked_duration_since(Instant::now()) {
                                std::thread::sleep(gap);
                            }
                        }
                        let id = client.submit(&request)?;
                        if cancel_rate > 0.0 && rng.gen_bool(cancel_rate) {
                            client.cancel(id)?;
                        }
                        sent_at.push_back(Instant::now());
                        // Pipeline window: up to 32 requests in flight
                        // (closed-loop, so off under --arrival-rate).
                        if arrival.is_none() && sent_at.len() >= 32 {
                            drain(&mut client, &mut sent_at, &mut tally)?;
                        }
                    }
                    while !sent_at.is_empty() {
                        drain(&mut client, &mut sent_at, &mut tally)?;
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let elapsed = t0.elapsed();
    let mut merged = ClientTally::default();
    for tally in tallies {
        let tally = tally?;
        merged.ok += tally.ok;
        merged.overloaded += tally.overloaded;
        merged.shed += tally.shed;
        merged.cancelled += tally.cancelled;
        merged.deadline += tally.deadline;
        merged.failed += tally.failed;
        merged.rtts_us.extend(tally.rtts_us);
    }
    merged.rtts_us.sort_unstable();
    let submitted = (clients * requests) as u64;
    println!(
        "load: clients={clients} requests={requests} submitted={submitted} ok={} overloaded={} shed={} failed={} cancelled={} deadline_expired={}",
        merged.ok, merged.overloaded, merged.shed, merged.failed, merged.cancelled, merged.deadline
    );
    let secs = elapsed.as_secs_f64().max(1e-9);
    println!(
        "throughput: completed_qps={:.0} elapsed_ms={:.1}",
        merged.ok as f64 / secs,
        elapsed.as_secs_f64() * 1e3
    );
    if arrival.is_some() {
        println!(
            "arrivals: offered_qps={:.0} delivered_qps={:.0} delivered_frac={:.3}",
            submitted as f64 / secs,
            merged.ok as f64 / secs,
            merged.ok as f64 / (submitted as f64).max(1.0)
        );
    }
    println!(
        "rtt: p50_us={} p99_us={} max_us={}",
        dtas::service::percentile(&merged.rtts_us, 50.0),
        dtas::service::percentile(&merged.rtts_us, 99.0),
        merged.rtts_us.last().copied().unwrap_or(0)
    );
    let mut probe = WireClient::connect(addr, Priority::Interactive)?;
    let stats = probe.server_stats()?;
    println!("{}", stats.service);
    print_histograms(&stats.service);
    if args.has("stats") {
        println!(
            "cache: hits={} misses={}",
            stats.cache_hits, stats.cache_misses
        );
        println!("server: connections={}", stats.connections);
    }
    Ok(())
}

/// `dtas serve`: bind the wire protocol on 127.0.0.1 and run until the
/// drain signal.
fn cmd_serve(args: &Args) -> Result<(), BridgeError> {
    args.expect_only(&[
        "port",
        "book",
        "cache-dir",
        "workers",
        "queue-depth",
        "max-inflight",
        "admission",
        "deadline-ms",
        "checkpoint-secs",
    ])?;
    let port: u16 = match args.value_of("port")? {
        None => 0,
        Some(v) => v
            .parse()
            .map_err(|e| BridgeError::Flow(format!("bad --port: {e}")))?,
    };
    let library = load_book(args.value_of("book")?)?;
    let engine = Arc::new(match args.value_of("cache-dir")? {
        Some(dir) => Dtas::warm_start(library, dir),
        None => Dtas::new(library),
    });
    let service = ServiceConfig {
        workers: args
            .value_of("workers")?
            .map(str::parse)
            .transpose()
            .map_err(|e: std::num::ParseIntError| {
                BridgeError::Flow(format!("bad --workers: {e}"))
            })?,
        queue_depth: parse_num(args, "queue-depth", 1_024)?,
        max_inflight: parse_num(args, "max-inflight", usize::MAX)?,
        admission: parse_admission(args)?,
        default_deadline: parse_deadline(args)?,
        checkpoint_interval: args
            .value_of("checkpoint-secs")?
            .map(str::parse)
            .transpose()
            .map_err(|e: std::num::ParseIntError| {
                BridgeError::Flow(format!("bad --checkpoint-secs: {e}"))
            })?
            .map(Duration::from_secs),
    };
    let server = WireServer::start(
        Arc::clone(&engine),
        ServeConfig {
            service,
            ..ServeConfig::default()
        },
        ("127.0.0.1", port),
    )
    .map_err(|e| BridgeError::Io(format!("bind 127.0.0.1:{port}: {e}")))?;
    println!("listening on {}", server.local_addr());
    // The supervising process scripts against that line; make sure it is
    // visible before we block.
    std::io::Write::flush(&mut std::io::stdout())?;
    // SIGTERM-equivalent that needs no signal handling: the parent holds
    // our stdin open; EOF is the graceful-drain request. The CI loopback
    // smoke holds a fifo open for exactly this.
    std::io::copy(&mut std::io::stdin().lock(), &mut std::io::sink())?;
    let stats = server.shutdown();
    println!("{stats}");
    println!("{}", engine.cache_stats());
    Ok(())
}

fn cmd_flow(args: &Args) -> Result<(), BridgeError> {
    args.expect_only(&["hls", "book", "emit-vhdl", "cache-dir", "format"])?;
    let json = wants_json(args)?;
    let path = args.require("hls")?;
    let source =
        std::fs::read_to_string(path).map_err(|e| BridgeError::Io(format!("{path}: {e}")))?;
    let scheduled = Flow::from_hls(&source)?.schedule()?;
    if !json {
        print!("{}", scheduled.design().report());
    }
    let controlled = scheduled.compile_control()?;
    let stats = controlled.controller().stats.clone();
    if !json {
        println!(
            "controller: {} states, {} state bits, {} cubes, {} literals",
            stats.states, stats.state_bits, stats.cubes, stats.literals
        );
    }
    let linked = controlled.link()?;
    let library = load_book(args.value_of("book")?)?;
    let mapped = match args.value_of("cache-dir")? {
        Some(dir) => linked.map_cached(library, dir)?,
        None => linked.map(&Dtas::new(library))?,
    };
    if json {
        let components: Vec<String> = mapped
            .mapping()
            .iter()
            .map(|(instance, set)| {
                format!(
                    "{{\"instance\":{},{}}}",
                    json_str(instance),
                    design_set_json_fields(set)
                )
            })
            .collect();
        println!(
            "{{\"schema\":\"dtas-flow/1\",\"controller\":{{\"states\":{},\"state_bits\":{},\
             \"cubes\":{},\"literals\":{}}},\"components\":[{}],\"smallest_area\":{}}}",
            stats.states,
            stats.state_bits,
            stats.cubes,
            stats.literals,
            components.join(","),
            json_num(mapped.smallest_area())
        );
    } else {
        println!("\ntechnology mapping:\n{}", mapped.report());
    }
    if let Some(out) = args.value_of("emit-vhdl")? {
        let text = mapped.emit_vhdl();
        std::fs::write(out, &text).map_err(|e| BridgeError::Io(format!("{out}: {e}")))?;
        if !json {
            println!(
                "wrote {} lines of structural VHDL to {out}",
                text.lines().count()
            );
        }
    }
    Ok(())
}

/// Accumulates per-target lint reports for `dtas lint`, printing the
/// human-readable section for each target as it lands.
struct LintRun {
    json: bool,
    report: LintReport,
    targets: Vec<(&'static str, String)>,
}

impl LintRun {
    fn add(&mut self, kind: &'static str, name: &str, report: LintReport) {
        if !self.json {
            if report.is_clean() {
                println!("lint: {kind} {name}: clean");
            } else {
                println!("lint: {kind} {name}:");
                for d in &report.diagnostics {
                    println!("  {d}");
                }
            }
        }
        self.targets.push((kind, name.to_string()));
        self.report.merge(report);
    }
}

/// `dtas lint`: run the `core::analyze` passes over the named artifacts
/// (or self-lint the embedded data book and rule base) and derive the
/// process exit code from the worst finding.
fn cmd_lint(args: &Args) -> Result<i32, BridgeError> {
    args.expect_only(&["hls", "legend", "book", "format"])?;
    let json = wants_json(args)?;
    let registry = LintRegistry::standard();
    let mut run = LintRun {
        json,
        report: LintReport::default(),
        targets: Vec::new(),
    };
    // Netlist targets: each --hls entity is compiled through schedule ->
    // compile control -> link, and the linked datapath netlist is linted.
    for path in args.values_of("hls")? {
        let source =
            std::fs::read_to_string(path).map_err(|e| BridgeError::Io(format!("{path}: {e}")))?;
        let linked = Flow::from_hls(&source)?
            .schedule()?
            .compile_control()?
            .link()?;
        run.add("netlist", path, linked.lint());
    }
    // LEGEND targets: one parsed document each.
    for path in args.values_of("legend")? {
        let text =
            std::fs::read_to_string(path).map_err(|e| BridgeError::Io(format!("{path}: {e}")))?;
        let descs = legend::parse_document(&text)?;
        run.add("legend", path, registry.run(&LintTarget::Legend(&descs)));
    }
    // Databook + rule-base targets: whenever --book is given, or as the
    // self-lint default when no target was named at all.
    let explicit_book = args.value_of("book")?;
    if explicit_book.is_some() || run.targets.is_empty() {
        let library = load_book(explicit_book)?;
        let book_name = library.name().to_string();
        run.add(
            "databook",
            &book_name,
            registry.run(&LintTarget::Databook(&library)),
        );
        // The rule base an engine on this book runs: the generic rules
        // plus those LOLA derives for the book.
        let rules = with_derived_rules(RuleSet::standard(), &library);
        run.add(
            "rules",
            &format!("{} rules vs {book_name}", rules.len()),
            registry.run(&LintTarget::Rules {
                rules: &rules,
                library: &library,
            }),
        );
    }
    let errors = run.report.count(Severity::Error);
    let warnings = run.report.count(Severity::Warn);
    let infos = run.report.count(Severity::Info);
    if json {
        // One dtas-lint/1 document, nothing else on stdout — the contract
        // the `--format json` CLI tests pin.
        let targets: Vec<String> = run
            .targets
            .iter()
            .map(|(kind, name)| {
                format!(
                    "{{\"kind\":{},\"name\":{}}}",
                    json_str(kind),
                    json_str(name)
                )
            })
            .collect();
        let findings: Vec<String> = run
            .report
            .diagnostics
            .iter()
            .map(|d| {
                let suggestion = match &d.suggestion {
                    Some(s) => json_str(s),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"code\":{},\"severity\":{},\"artifact\":{},\"site\":{},\
                     \"message\":{},\"suggestion\":{suggestion}}}",
                    json_str(d.code),
                    json_str(&d.severity.to_string()),
                    json_str(&d.artifact.to_string()),
                    json_str(&d.site),
                    json_str(&d.message),
                )
            })
            .collect();
        let max_severity = match run.report.max_severity() {
            Some(s) => json_str(&s.to_string()),
            None => "null".to_string(),
        };
        println!(
            "{{\"schema\":\"dtas-lint/1\",\"targets\":[{}],\"findings\":[{}],\
             \"counts\":{{\"error\":{errors},\"warn\":{warnings},\"info\":{infos}}},\
             \"max_severity\":{max_severity}}}",
            targets.join(","),
            findings.join(",")
        );
    } else {
        println!(
            "lint: {errors} error(s), {warnings} warning(s), {infos} info across {} target(s)",
            run.targets.len()
        );
    }
    Ok(match run.report.max_severity() {
        Some(Severity::Error) => 2,
        Some(Severity::Warn) => 1,
        _ => 0,
    })
}

/// `dtas cache`: inventory and garbage-collect a shared `--cache-dir`.
fn cmd_cache(args: &Args) -> Result<(), BridgeError> {
    args.expect_only(&["cache-dir", "gc", "apply", "max-age-secs", "format"])?;
    let json = wants_json(args)?;
    let dir = args.require("cache-dir")?;
    let want_gc = args.has("gc");
    if args.has("apply") && !want_gc {
        return Err(BridgeError::Flow(
            "--apply requires --gc (a plain listing deletes nothing)".into(),
        ));
    }
    let max_age = args
        .value_of("max-age-secs")?
        .map(str::parse)
        .transpose()
        .map_err(|e: std::num::ParseIntError| {
            BridgeError::Flow(format!("bad --max-age-secs: {e}"))
        })?
        .map(Duration::from_secs);
    if max_age.is_some() && !want_gc {
        return Err(BridgeError::Flow(
            "--max-age-secs is a --gc retention knob; pass --gc as well".into(),
        ));
    }
    let store = PersistentStore::new(dir);
    let entries = store.inventory().map_err(BridgeError::Store)?;
    let plan = match want_gc {
        true => Some(store.plan_gc(max_age).map_err(BridgeError::Store)?),
        false => None,
    };
    let reclaimed = match &plan {
        Some(plan) if args.has("apply") => Some(store.apply_gc(plan).map_err(BridgeError::Store)?),
        _ => None,
    };
    if json {
        // One dtas-cache/1 document, nothing else on stdout — the
        // contract the `--format json` CLI tests pin. Fingerprints are
        // 16-digit hex strings (u64s do not survive JSON doubles).
        let keys: Vec<String> = entries
            .iter()
            .map(|e| {
                format!(
                    "{{\"library\":{},\"rules\":{},\"config\":{},\"format_version\":{},\
                     \"current_format\":{},\"generation\":{},\"base_bytes\":{},\
                     \"delta_count\":{},\"delta_bytes\":{},\"total_bytes\":{},\"age_secs\":{}}}",
                    json_str(&format!("{:016x}", e.library)),
                    json_str(&format!("{:016x}", e.rules)),
                    json_str(&format!("{:016x}", e.config)),
                    e.format_version,
                    e.current_format,
                    e.generation,
                    e.base_bytes,
                    e.delta_count,
                    e.delta_bytes,
                    e.total_bytes,
                    e.age_secs
                )
            })
            .collect();
        let gc = match &plan {
            None => "null".to_string(),
            Some(plan) => {
                let files: Vec<String> = plan
                    .items
                    .iter()
                    .map(|item| {
                        format!(
                            "{{\"path\":{},\"bytes\":{},\"reason\":{}}}",
                            json_str(&item.path.display().to_string()),
                            item.bytes,
                            json_str(&item.reason.to_string())
                        )
                    })
                    .collect();
                let reclaimed = match reclaimed {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                };
                format!(
                    "{{\"applied\":{},\"reclaimable_bytes\":{},\"reclaimed_bytes\":{reclaimed},\
                     \"kept\":{},\"files\":[{}]}}",
                    reclaimed != "null",
                    plan.bytes(),
                    plan.kept,
                    files.join(",")
                )
            }
        };
        println!(
            "{{\"schema\":\"dtas-cache/1\",\"dir\":{},\"keys\":[{}],\"gc\":{gc}}}",
            json_str(dir),
            keys.join(",")
        );
        return Ok(());
    }
    println!("cache: {} key(s) in {dir}", entries.len());
    for e in &entries {
        let compat = match e.current_format {
            true => "",
            false => " [unreadable by this build]",
        };
        println!(
            "  lib={:016x} rules={:016x} cfg={:016x} v{} gen={} \
             base={}B deltas={} ({}B) total={}B age={}s{compat}",
            e.library,
            e.rules,
            e.config,
            e.format_version,
            e.generation,
            e.base_bytes,
            e.delta_count,
            e.delta_bytes,
            e.total_bytes,
            e.age_secs
        );
    }
    if let Some(plan) = &plan {
        for item in &plan.items {
            println!(
                "gc: {} ({}, {}B)",
                item.path.display(),
                item.reason,
                item.bytes
            );
        }
        match reclaimed {
            Some(bytes) => println!(
                "gc: reclaimed {bytes}B across {} file(s), {} kept",
                plan.items.len(),
                plan.kept
            ),
            None => println!(
                "gc: would reclaim {}B across {} file(s), {} kept \
                 (dry run; add --apply to delete)",
                plan.bytes(),
                plan.items.len(),
                plan.kept
            ),
        }
    }
    Ok(())
}

fn run() -> Result<i32, BridgeError> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("map") => cmd_map(&Args::parse(&raw[1..])?).map(|()| 0),
        Some("flow") => cmd_flow(&Args::parse(&raw[1..])?).map(|()| 0),
        Some("lint") => cmd_lint(&Args::parse(&raw[1..])?),
        Some("serve") => cmd_serve(&Args::parse(&raw[1..])?).map(|()| 0),
        Some("bench-load") => cmd_bench_load(&Args::parse(&raw[1..])?).map(|()| 0),
        Some("cache") => cmd_cache(&Args::parse(&raw[1..])?).map(|()| 0),
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{USAGE}");
            Ok(0)
        }
        Some(other) => Err(BridgeError::Flow(format!(
            "unknown command {other:?} (try `dtas help`)"
        ))),
    }
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            // The single error-to-exit-code site: every failure prints one
            // `dtas: error[DT###]: ...` line and exits with the variant's
            // stable code (2 for lint refusals, 1 otherwise).
            eprintln!("dtas: error[{}]: {e}", e.code());
            std::process::exit(e.exit_code());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_grammar_covers_the_paper_queries() {
        let add = parse_spec("add:16:cin:cout").unwrap();
        assert_eq!(add.kind, ComponentKind::AddSub);
        assert_eq!(add.width, 16);
        assert!(add.carry_in && add.carry_out);
        assert_eq!(add.ops, OpSet::only(Op::Add));

        let alu = parse_spec("alu:64:cin").unwrap();
        assert_eq!(alu.ops, Op::paper_alu16());

        let mux = parse_spec("mux:8:n=4").unwrap();
        assert_eq!((mux.width, mux.inputs), (8, 4));

        let gate = parse_spec("gate_nand:1:n=3").unwrap();
        assert_eq!(gate.kind, ComponentKind::Gate(GateOp::Nand));

        let custom = parse_spec("counter:4:en:ops=load+count_up").unwrap();
        assert!(custom.enable);
        assert_eq!(custom.ops.len(), 2);
    }

    #[test]
    fn bad_specs_are_rejected_with_context() {
        for bad in [
            "",
            "frobnicator:8",
            "add",
            "add:x",
            "add:16:wat",
            "mux:8:n=x",
        ] {
            let err = parse_spec(bad).unwrap_err();
            assert!(matches!(err, BridgeError::Flow(_)), "{bad}");
        }
    }
}
