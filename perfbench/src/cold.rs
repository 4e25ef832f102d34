//! `cold_designs`: the paper's Figure-1 job. A seeded stream of designs,
//! each a multiset of specs mapped by `run_batch` on a fresh engine, with
//! the GCD entity compiled through `hls` → `controlc` → `run_netlist`
//! every [`GCD_EVERY`]th design, starting with the first. One caller, closed loop.
//!
//! The traced pass also replays every spec's cold path through the
//! public layer functions on fresh structures and asserts the replay
//! answers exactly what `Dtas::run` answers.

use crate::oracle::{self, Oracle, FNV_SEED};
use crate::specs::{self, Rng};
use crate::stats::{median, percentile, Sheet};
use crate::trace::Tracer;
use cells::lsi::lsi_logic_subset;
use dtas::extract;
use dtas::{
    Alternative, DesignSet, DesignSpace, Dtas, SolveConfig, Solver, SpecModelCache, SynthStats,
};
use genus::netlist::Netlist;
use genus::spec::ComponentSpec;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const GCD_SOURCE: &str = include_str!("../../examples/gcd.ent");

enum Design {
    Specs(Vec<&'static str>),
    Gcd,
}

/// The seeded design catalogue: the GCD design, then one design per
/// adder/ALU and per heavy coverage spec, in seeded order, each joined by
/// light coverage specs dealt from a seeded shuffle. Every seed maps the
/// same main specs, so the walls do not depend on how a seed grouped
/// them.
fn catalogue(rng: &mut Rng) -> Vec<Design> {
    let mut light: Vec<&str> = specs::COVERAGE
        .iter()
        .copied()
        .filter(|k| !specs::COVERAGE_HEAVY.contains(k))
        .collect();
    rng.shuffle(&mut light);
    let mut mains: Vec<(&str, usize)> = specs::ARITH.iter().map(|&k| (k, 2)).collect();
    mains.extend(specs::COVERAGE_HEAVY.iter().map(|&k| (k, 1)));
    rng.shuffle(&mut mains);
    let mut dealt = light.iter().cycle();
    let mut out = vec![Design::Gcd];
    for (main, lights) in mains {
        let mut keys = vec![main];
        keys.extend(dealt.by_ref().take(lights));
        out.push(Design::Specs(keys));
    }
    out
}

/// HLS front end: parse + schedule the GCD entity, then close it with
/// its controller into one netlist.
fn gcd_netlist(tracer: &Tracer, request: u64, parent: Option<u64>) -> Result<Netlist, String> {
    let design = tracer.time("hls.compile", request, parent, || {
        let entity = hls::lang::parse_entity(GCD_SOURCE).map_err(|e| e.to_string())?;
        hls::compile::compile(&entity, &hls::compile::Constraints::default())
            .map_err(|e| e.to_string())
    })?;
    tracer.time("controlc.close", request, parent, || {
        controlc::close_design(&design).map_err(|e| e.to_string())
    })
}

/// Digest of a mapped netlist: every census entry's key and answer.
fn netlist_digest(mapped: &BTreeMap<String, std::sync::Arc<DesignSet>>) -> u64 {
    mapped.iter().fold(FNV_SEED, |h, (key, set)| {
        let h = oracle::fnv(h, key.as_bytes());
        oracle::fnv(h, &oracle::digest(set, &set.spec).to_le_bytes())
    })
}

pub fn gcd_digest(engine: &Dtas) -> Result<u64, String> {
    let netlist = gcd_netlist(&Tracer::new(false), 0, None)?;
    let mapped = engine.run_netlist(&netlist).map_err(|e| e.to_string())?;
    Ok(netlist_digest(&mapped))
}

/// One spec's cold path replayed through the public layer functions, as
/// `Dtas::run` runs it on a fresh engine.
fn replay(
    engine: &Dtas,
    spec: &ComponentSpec,
    tracer: &Tracer,
    request: u64,
    parent: Option<u64>,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<DesignSet, String> {
    let threads = engine.config().threads.unwrap_or_else(crate::nproc).max(1);
    let config = engine.config();
    let models = SpecModelCache::new();
    let mut space = DesignSpace::new();
    let root = tracer
        .time("space.expand", request, parent, || {
            space.expand_threaded(spec, engine.rules(), engine.library(), &models, threads)
        })
        .map_err(|e| format!("{spec}: replay expand: {e}"))?;
    let mut solver = Solver::new(
        &space,
        SolveConfig {
            node_filter: config.node_filter,
            node_cap: config.node_cap,
            max_combinations: config.max_combinations,
        },
    )
    .with_threads(threads);
    tracer.time("space.solve", request, parent, || {
        solver.solve(root, &models)
    });
    let before = solver.truncated_combinations;
    let front = tracer.time("space.root_front", request, parent, || {
        solver.root_front(root, &models, config.root_filter, config.root_cap)
    });
    let truncated = solver.truncated_under(root) + (solver.truncated_combinations - before);
    let alternatives: Vec<Alternative> = tracer.time("extract", request, parent, || {
        front
            .iter()
            .map(|p| Alternative {
                area: p.area,
                delay: p.delay(),
                timing: p.timing.clone(),
                implementation: extract::extract(&space, root, &p.policy),
            })
            .collect()
    });
    let (unconstrained_size, unconstrained_log10) =
        tracer.time("space.unconstrained", request, parent, || {
            (
                space.unconstrained_size(root),
                space.unconstrained_log10(root),
            )
        });
    let uniform_size = tracer.time("space.uniform", request, parent, || {
        (config.uniform_count_limit > 0)
            .then(|| space.uniform_size_threaded(root, config.uniform_count_limit, threads))
            .flatten()
    });
    let reachable = space.reachable(root);
    let impl_choices: usize = reachable.iter().map(|&n| space.nodes[n].impls.len()).sum();
    *counts.entry("space.nodes").or_default() += reachable.len() as f64;
    *counts.entry("space.impl_choices").or_default() += impl_choices as f64;
    *counts.entry("space.fronts_solved").or_default() +=
        solver.into_front_store().solved_count() as f64;
    *counts.entry("space.truncated_combinations").or_default() += truncated as f64;
    *counts.entry("extract.alternatives").or_default() += alternatives.len() as f64;
    *counts.entry("uniform.counted").or_default() += 1.0;
    if uniform_size.is_none() {
        *counts.entry("uniform.exhausted").or_default() += 1.0;
    }
    Ok(DesignSet {
        spec: spec.clone(),
        alternatives,
        unconstrained_size,
        unconstrained_log10,
        uniform_size,
        stats: SynthStats {
            spec_nodes: reachable.len(),
            impl_choices,
            elapsed: Duration::ZERO,
            truncated_combinations: truncated,
        },
    })
}

/// The traced side of one spec: `Dtas::run` on a fresh engine, then the
/// replay, whose answer must digest identically.
fn traced_spec(
    spec: &ComponentSpec,
    tracer: &Tracer,
    request: u64,
    parent: Option<u64>,
    counts: &mut BTreeMap<&'static str, f64>,
) -> Result<(), String> {
    let engine = Dtas::new(lsi_logic_subset());
    let ran = tracer
        .time("engine.run", request, parent, || engine.run(spec))
        .map_err(|e| format!("{spec}: {e}"))?;
    let replay_span = tracer.begin("replay", request, parent);
    let replayed = replay(
        &Dtas::new(lsi_logic_subset()),
        spec,
        tracer,
        request,
        replay_span.id(),
        counts,
    );
    tracer.end(replay_span);
    let replayed = replayed?;
    let (a, b) = (oracle::digest(&ran, spec), oracle::digest(&replayed, spec));
    if a != b {
        return Err(format!(
            "{spec}: replay digest {b:016x} differs from Dtas::run's {a:016x}"
        ));
    }
    Ok(())
}

/// Maps one design on a fresh engine: its wall and its oracle failures.
fn map_design(
    design: &Design,
    request: u64,
    oracle: &Oracle,
    tracer: &Tracer,
) -> (f64, Vec<String>) {
    let engine = Dtas::new(lsi_logic_subset());
    let t0 = Instant::now();
    let root = tracer.begin("design", request, None);
    match design {
        Design::Specs(keys) => {
            let batch: Vec<ComponentSpec> = keys.iter().map(|k| specs::spec(k)).collect();
            let results = tracer.time("engine.run_batch", request, root.id(), || {
                engine.run_batch(&batch)
            });
            let wall = t0.elapsed();
            tracer.end(root);
            let bad = keys
                .iter()
                .zip(&batch)
                .zip(results)
                .filter_map(|((key, spec), result)| {
                    result
                        .map_err(|e| format!("{key}: {e}"))
                        .and_then(|set| oracle.check(key, oracle::digest(&set, spec)))
                        .err()
                })
                .collect();
            (wall.as_secs_f64() * 1e3, bad)
        }
        Design::Gcd => {
            let mapped = gcd_netlist(tracer, request, root.id()).and_then(|netlist| {
                tracer
                    .time("engine.run_netlist", request, root.id(), || {
                        engine.run_netlist(&netlist)
                    })
                    .map_err(|e| format!("gcd: {e}"))
            });
            let wall = t0.elapsed();
            tracer.end(root);
            let bad = match mapped {
                Ok(mapped) => oracle.check("gcd", netlist_digest(&mapped)).err(),
                Err(e) => Some(e),
            };
            (wall.as_secs_f64() * 1e3, bad.into_iter().collect())
        }
    }
}

/// Whole passes over the catalogue the leg makes at least.
const MIN_PASSES: usize = 2;

/// The leg: the catalogue's designs one at a time, in whole passes.
pub struct Leg<'a> {
    oracle: &'a Oracle,
    tracer: &'a Tracer,
    sheet: Sheet,
    catalogue: Vec<Design>,
    /// Designs mapped so far; the next is `catalogue[done % len]`.
    done: usize,
    /// Walls of each catalogue design, one per pass.
    walls: Vec<Vec<f64>>,
    per_design: BTreeMap<&'static str, Vec<f64>>,
    counts: BTreeMap<&'static str, f64>,
}

impl<'a> Leg<'a> {
    pub fn new(seed: u64, oracle: &'a Oracle, tracer: &'a Tracer) -> Self {
        let catalogue = catalogue(&mut Rng::new(seed).fork(0xC01D));
        Leg {
            oracle,
            tracer,
            sheet: Sheet::default(),
            walls: vec![Vec::new(); catalogue.len()],
            catalogue,
            done: 0,
            per_design: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }
}

impl crate::Leg for Leg<'_> {
    fn step(&mut self) {
        let index = self.done % self.catalogue.len();
        let design = &self.catalogue[index];
        self.done += 1;
        let request = self.done as u64;
        self.sheet.attempted += 1;
        let (wall, bad) = map_design(design, request, self.oracle, self.tracer);
        self.walls[index].push(wall);
        for e in bad {
            self.sheet.fail(format!("design {request}: {e}"));
        }
        // One traced pass gives every design's layer split.
        if self.tracer.on() && self.done <= self.catalogue.len() {
            traced_design(
                design,
                self.tracer,
                request,
                &mut self.per_design,
                &mut self.counts,
                &mut self.sheet,
            );
        }
    }

    fn finish(mut self: Box<Self>) -> Sheet {
        let len = self.catalogue.len();
        while !self.done.is_multiple_of(len) || self.done < MIN_PASSES * len {
            self.step();
        }
        // Each design's fastest pass: CPU contention on a shared host
        // only ever adds time, and a pass that met it would otherwise
        // decide the percentiles.
        let best: Vec<f64> = self
            .walls
            .iter()
            .map(|w| w.iter().copied().fold(f64::INFINITY, f64::min))
            .collect();
        let (per_design, counts) = (&self.per_design, &self.counts);
        let mut sheet = std::mem::take(&mut self.sheet);
        sheet.put("design_ms_p50", median(&best), "ms", self.done);
        sheet.put("design_ms_p90", percentile(&best, 90.0), "ms", self.done);
        if self.tracer.on() {
            for (name, values) in per_design {
                sheet.put(name, median(values), "ms", values.len());
            }
            for name in [
                "space.nodes",
                "space.impl_choices",
                "space.fronts_solved",
                "space.truncated_combinations",
                "extract.alternatives",
            ] {
                let total = counts.get(name).copied().unwrap_or(0.0);
                sheet.put(name, total / len as f64, "count", len);
            }
            let counted = counts.get("uniform.counted").copied().unwrap_or(0.0);
            let exhausted = counts.get("uniform.exhausted").copied().unwrap_or(0.0);
            sheet.put(
                "space.uniform_exhausted_ratio",
                exhausted / counted.max(1.0),
                "ratio",
                counted as usize,
            );
        }
        sheet
    }
}

/// Layer times of one design, from its traced replay: per layer the sum
/// over the design's specs, and the residual `Dtas::run` wall the replay
/// does not account for.
fn traced_design(
    design: &Design,
    tracer: &Tracer,
    request: u64,
    per_design: &mut BTreeMap<&'static str, Vec<f64>>,
    counts: &mut BTreeMap<&'static str, f64>,
    sheet: &mut Sheet,
) {
    let replay_request = request | 1 << 32;
    let root = tracer.begin("design.replay", replay_request, None);
    let specs_of: Result<Vec<ComponentSpec>, String> = match design {
        Design::Specs(keys) => Ok(keys.iter().map(|k| specs::spec(k)).collect()),
        Design::Gcd => gcd_netlist(tracer, replay_request, root.id()).map(|netlist| {
            netlist
                .spec_census()
                .values()
                .map(|(component, _)| component.spec().clone())
                .collect()
        }),
    };
    let result = specs_of.and_then(|list| {
        list.iter()
            .try_for_each(|spec| traced_spec(spec, tracer, replay_request, root.id(), counts))
    });
    tracer.end(root);
    if let Err(e) = result {
        sheet.fail(format!("design {request} replay: {e}"));
    }
    let mut sums: BTreeMap<&'static str, f64> = BTreeMap::new();
    for span in tracer
        .spans()
        .iter()
        .filter(|s| s.request == replay_request)
    {
        *sums.entry(span.name).or_default() += span.ms();
    }
    let get = |name: &str| sums.get(name).copied().unwrap_or(0.0);
    let mut replayed = 0.0;
    for (metric, span) in [
        ("space.expand_ms", "space.expand"),
        ("space.solve_ms", "space.solve"),
        ("space.root_front_ms", "space.root_front"),
        ("extract.ms", "extract"),
        ("space.unconstrained_ms", "space.unconstrained"),
        ("space.uniform_ms", "space.uniform"),
    ] {
        replayed += get(span);
        per_design.entry(metric).or_default().push(get(span));
    }
    per_design
        .entry("engine.residual_ms")
        .or_default()
        .push(get("engine.run") - replayed);
    if matches!(design, Design::Gcd) {
        per_design
            .entry("hls.compile_ms")
            .or_default()
            .push(get("hls.compile"));
        per_design
            .entry("controlc.close_ms")
            .or_default()
            .push(get("controlc.close"));
    }
}
