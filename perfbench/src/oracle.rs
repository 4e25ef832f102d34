//! The answer oracle: one pinned digest per spec, recorded from a fresh
//! serial engine (`--record-oracle`), plus the simulation and paper-band
//! checks run once per process outside every timed region.

use crate::specs::{self, Rng};
use cells::lsi::lsi_logic_subset;
use dtas::net::WireDesignSet;
use dtas::{DesignSet, Dtas, DtasConfig, FilterPolicy, SynthRequest};
use genus::spec::ComponentSpec;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pinned digests, one line per key: `<key>\t<fingerprint as hex>`.
const PINNED: &str = include_str!("../oracle.tsv");

/// The per-request overrides the served mix sends, each pinned per spec.
/// `cap3` recomputes the root front under a cap of 3 (memo bypassed);
/// `area` sorts a private clone by area only.
pub const OVERRIDES: &[&str] = &["cap3", "area"];

/// Specs the served mix sends overrides for: the cheapest to re-solve,
/// since every front-cap override recomputes the root on a worker.
pub const OVERRIDE_SPECS: &[&str] = &["dec:2", "xor:16:2", "nand:16:2"];

pub fn request(key: &str, over: Option<&str>) -> SynthRequest {
    let request = SynthRequest::new(specs::spec(key));
    match over {
        None => request,
        Some("cap3") => request.with_front_cap(3),
        Some("area") => request.with_weights(1.0, 0.0),
        Some(other) => panic!("unknown override {other:?}"),
    }
}

pub fn oracle_key(key: &str, over: Option<&str>) -> String {
    match over {
        None => key.to_string(),
        Some(o) => format!("{key}|{o}"),
    }
}

/// Digest of an answer, relabelled to the plain spec it was asked as:
/// a decorated variant must answer exactly what its plain spec answers.
pub fn digest_wire(mut set: WireDesignSet, plain: &ComponentSpec) -> u64 {
    set.spec = plain.clone();
    set.fingerprint()
}

pub fn digest(set: &DesignSet, plain: &ComponentSpec) -> u64 {
    digest_wire(WireDesignSet::of(set), plain)
}

/// FNV-1a 64, for combining per-spec digests into one design digest.
pub fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

pub const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

pub struct Oracle {
    pinned: BTreeMap<String, u64>,
}

impl Oracle {
    pub fn load() -> Oracle {
        let pinned = PINNED
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
            .map(|line| {
                let (key, hex) = line
                    .split_once('\t')
                    .unwrap_or_else(|| panic!("malformed oracle line {line:?}"));
                let value = u64::from_str_radix(hex.trim(), 16)
                    .unwrap_or_else(|_| panic!("malformed oracle digest {line:?}"));
                (key.to_string(), value)
            })
            .collect();
        Oracle { pinned }
    }

    /// `Err` names the mismatch; a key with no pinned digest is one too.
    pub fn check(&self, key: &str, got: u64) -> Result<(), String> {
        match self.pinned.get(key) {
            Some(&want) if want == got => Ok(()),
            Some(&want) => Err(format!(
                "{key}: answer digest {got:016x}, pinned {want:016x}"
            )),
            None => Err(format!("{key}: no pinned digest")),
        }
    }
}

pub fn serial_engine() -> Dtas {
    Dtas::builder(lsi_logic_subset())
        .config(DtasConfig {
            threads: Some(1),
            ..DtasConfig::default()
        })
        .build()
}

/// The pinned keys with the requests that produce them: every key, or
/// only those the `restart`, `served` and `hot_hits` legs ask.
fn pinned_requests(all: bool) -> Vec<(String, &'static str, Option<&'static str>)> {
    let keys: Vec<&str> = if all {
        specs::universe()
    } else {
        [specs::POOL, specs::MISS, specs::COLD].concat()
    };
    let mut out: Vec<(String, &str, Option<&str>)> = keys
        .into_iter()
        .map(|key| (oracle_key(key, None), key, None))
        .collect();
    for &key in OVERRIDE_SPECS {
        for &over in OVERRIDES {
            out.push((oracle_key(key, Some(over)), key, Some(over)));
        }
    }
    out
}

/// Answers pinned keys on a fresh serial engine (a fresh engine per key,
/// so no answer depends on what an earlier query left behind).
pub fn serial_digests(all: bool) -> Result<BTreeMap<String, u64>, String> {
    let mut out = BTreeMap::new();
    for (name, key, over) in pinned_requests(all) {
        let set = serial_engine()
            .run(request(key, over))
            .map_err(|e| format!("{name}: fresh serial engine failed: {e}"))?;
        out.insert(name, digest(&set, &specs::spec(key)));
    }
    if all {
        out.insert(
            "gcd".to_string(),
            crate::cold::gcd_digest(&serial_engine())?,
        );
    }
    Ok(out)
}

/// Writes `oracle.tsv` from a fresh serial engine.
pub fn record(path: &std::path::Path) -> Result<(), String> {
    let digests = serial_digests(true)?;
    let mut text = String::from(
        "# Answer digests (WireDesignSet fingerprint, relabelled to the plain spec)\n\
         # from a fresh serial engine; regenerate with --record-oracle.\n",
    );
    for (key, value) in &digests {
        text.push_str(&format!("{key}\t{value:016x}\n"));
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Checks outside every timed region: today's fresh serial engine
/// agrees with the pinned digests on every spec the `restart`, `served`
/// and `hot_hits` legs ask, so their answers, checked against the pinned
/// digests, are checked against a fresh serial engine; a seeded sample of alternatives per
/// family simulates equal to its GENUS model; the ADD16 space and the
/// Figure-3 extremes stay in the paper's bands. Returns the failures.
pub fn setup_checks(oracle: &Oracle, seed: u64) -> Vec<String> {
    let mut failures = Vec::new();
    match serial_digests(false) {
        Ok(digests) => {
            for (key, got) in &digests {
                if let Err(e) = oracle.check(key, *got) {
                    failures.push(format!("fresh serial engine: {e}"));
                }
            }
        }
        Err(e) => failures.push(e),
    }

    let mut rng = Rng::new(seed).fork(0x0e9);
    let engine = serial_engine();
    let sims: Vec<&str> = specs::COVERAGE
        .iter()
        .chain(["add:8", "add:16", "alu:8"].iter())
        .copied()
        .collect();
    for key in sims {
        let set = match engine.run(specs::spec(key)) {
            Ok(set) => set,
            Err(e) => {
                failures.push(format!("{key}: {e}"));
                continue;
            }
        };
        let alt = rng.pick(&set.alternatives);
        if let Err(e) = rtlsim::equiv::check_implementation(&alt.implementation, 48, rng.next_u64())
        {
            failures.push(format!(
                "{key} via {}: not equivalent to its model: {e}",
                alt.implementation.label()
            ));
        }
    }

    match engine.run(specs::spec("add:16")) {
        Ok(set) => failures.extend(add16_band(&set)),
        Err(e) => failures.push(format!("add:16: {e}")),
    }
    let pareto = Dtas::builder(lsi_logic_subset())
        .config(DtasConfig {
            root_filter: FilterPolicy::Pareto,
            ..DtasConfig::default()
        })
        .build();
    match pareto.run(specs::spec("alu:64")) {
        Ok(set) => failures.extend(figure3_band(&set)),
        Err(e) => failures.push(format!("alu:64 (Pareto root): {e}")),
    }
    failures
}

/// §5: a combinatorial unconstrained space collapses to a handful of
/// alternatives spanning ripple to lookahead.
fn add16_band(set: &Arc<DesignSet>) -> Vec<String> {
    let mut out = Vec::new();
    let labels: Vec<&str> = set
        .alternatives
        .iter()
        .map(|a| a.implementation.label())
        .collect();
    if set.unconstrained_size <= 1e5 || set.unconstrained_size.is_nan() {
        out.push(format!(
            "ADD16 unconstrained size {}",
            set.unconstrained_size
        ));
    }
    if !set
        .uniform_size
        .is_some_and(|n| (1_000..=10_000_000).contains(&n))
    {
        out.push(format!("ADD16 uniform size {:?}", set.uniform_size));
    }
    if !(3..=16).contains(&set.alternatives.len()) {
        out.push(format!("ADD16 has {} alternatives", set.alternatives.len()));
    }
    if !labels.iter().any(|l| l.contains("ripple")) || !labels.iter().any(|l| l.contains("cla")) {
        out.push(format!(
            "ADD16 alternatives {labels:?} lack ripple or lookahead"
        ));
    }
    out
}

/// Figure 3: the smallest ALU64 ripples through FA1A cells, the fastest
/// uses CLA4, and the fastest pays a modest area premium for a
/// several-fold delay reduction.
fn figure3_band(set: &Arc<DesignSet>) -> Vec<String> {
    let (Some(small), Some(fast)) = (set.smallest(), set.fastest()) else {
        return vec!["ALU64 has no alternatives".to_string()];
    };
    let mut out = Vec::new();
    let premium = (fast.area - small.area) / small.area;
    let reduction = (small.delay - fast.delay) / small.delay;
    if !(0.05..=0.60).contains(&premium) || reduction < 0.70 {
        out.push(format!(
            "ALU64 area premium {premium:.2} / delay reduction {reduction:.2} out of the Figure-3 band"
        ));
    }
    if !(1500.0..=8000.0).contains(&small.area) || !(80.0..=200.0).contains(&small.delay) {
        out.push(format!(
            "ALU64 smallest design {:.0} gates / {:.1} ns out of band",
            small.area, small.delay
        ));
    }
    if !small.implementation.cell_census().contains_key("FA1A")
        || !fast.implementation.cell_census().contains_key("CLA4")
    {
        out.push("ALU64 extremes are not FA1A ripple / CLA4 lookahead".to_string());
    }
    out
}
