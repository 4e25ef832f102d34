//! The specification universe every workload draws from, keyed by short
//! stable strings (`alu:64`, `mux:8:4`, …) so the pinned answer oracle
//! can name each spec, plus the seeded generator the workloads use.

use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;

/// SplitMix64: a tiny, fully specified PRNG, so a seed names the same
/// inputs on every machine and toolchain.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// A child stream, so each leg's draws do not shift when another
    /// leg draws more or fewer values.
    pub fn fork(&self, stream: u64) -> Rng {
        Rng::new(self.0 ^ stream.wrapping_mul(0xD134_2543_DE82_EF95))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }

    /// Exponential inter-arrival gap for a Poisson stream at `rate`/s.
    pub fn exp_gap_s(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s = 1) sampler over ranks `0..n`: rank 0 is the most popular.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

fn ops(list: &[Op]) -> OpSet {
    list.iter().copied().collect()
}

fn num(part: Option<&str>, key: &str) -> usize {
    part.and_then(|p| p.parse().ok())
        .unwrap_or_else(|| panic!("malformed spec key {key:?}"))
}

/// Builds the spec a key names. Keys are written by this benchmark
/// only, so a malformed one is a bug here, not an input error.
pub fn spec(key: &str) -> ComponentSpec {
    let mut parts = key.split(':');
    let family = parts.next().unwrap_or_default();
    let mut n = || num(parts.next(), key);
    match family {
        "add" => ComponentSpec::new(ComponentKind::AddSub, n())
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true),
        "alu" => ComponentSpec::new(ComponentKind::Alu, n())
            .with_ops(Op::paper_alu16())
            .with_carry_in(true),
        "nand" | "nor" | "xor" => {
            let op = match family {
                "nand" => GateOp::Nand,
                "nor" => GateOp::Nor,
                _ => GateOp::Xor,
            };
            let (w, inputs) = (n(), n());
            ComponentSpec::new(ComponentKind::Gate(op), w).with_inputs(inputs)
        }
        "mux" => {
            let (w, inputs) = (n(), n());
            ComponentSpec::new(ComponentKind::Mux, w).with_inputs(inputs)
        }
        "dec" => {
            let k = n();
            ComponentSpec::new(ComponentKind::Decoder, k)
                .with_width2(1 << k)
                .with_style("BINARY")
        }
        "bcd" => ComponentSpec::new(ComponentKind::Decoder, 4)
            .with_width2(10)
            .with_style("BCD"),
        "enc" => {
            let inputs = n();
            ComponentSpec::new(ComponentKind::Encoder, genus::build::select_width(inputs))
                .with_inputs(inputs)
        }
        "cmp" => ComponentSpec::new(ComponentKind::Comparator, n()).with_ops(ops(&[
            Op::Eq,
            Op::Lt,
            Op::Gt,
        ])),
        "shift" => {
            ComponentSpec::new(ComponentKind::Shifter, n()).with_ops(ops(&[Op::Shl, Op::Shr]))
        }
        "barrel" => {
            let (w, w2) = (n(), n());
            ComponentSpec::new(ComponentKind::BarrelShifter, w)
                .with_width2(w2)
                .with_ops(OpSet::only(Op::Shl))
        }
        "mul" => {
            let (w, w2) = (n(), n());
            ComponentSpec::new(ComponentKind::Multiplier, w)
                .with_width2(w2)
                .with_ops(OpSet::only(Op::Mul))
        }
        "ctr" => ComponentSpec::new(ComponentKind::Counter, n())
            .with_ops(ops(&[Op::Load, Op::CountUp, Op::CountDown]))
            .with_enable(true)
            .with_style("SYNCHRONOUS"),
        _ => panic!("unknown spec family in key {key:?}"),
    }
}

/// The §7 coverage families at the widths the workloads draw, cheapest
/// first within each family.
pub const COVERAGE: &[&str] = &[
    "nand:8:4",
    "nand:16:2",
    "nor:8:3",
    "xor:8:4",
    "xor:16:2",
    "mux:8:2",
    "mux:8:4",
    "mux:16:4",
    "mux:4:8",
    "dec:2",
    "dec:3",
    "dec:4",
    "bcd",
    "enc:4",
    "enc:8",
    "enc:16",
    "cmp:4",
    "cmp:8",
    "cmp:16",
    "shift:8",
    "shift:16",
    "shift:32",
    "barrel:8:3",
    "barrel:16:4",
    "mul:4:4",
    "mul:6:4",
    "mul:8:4",
    "ctr:4",
    "ctr:6",
    "ctr:8",
];

/// The coverage specs whose cold solve takes tens of milliseconds or
/// more; `cold_designs` gives each its own design.
pub const COVERAGE_HEAVY: &[&str] = &[
    "mux:16:4", "mux:4:8", "cmp:8", "cmp:16", "mul:6:4", "mul:8:4", "ctr:4", "ctr:6", "ctr:8",
];

/// The paper's adders and ALUs at widths 8–64.
pub const ARITH: &[&str] = &[
    "add:8", "add:12", "add:16", "add:24", "add:32", "add:48", "add:64", "alu:8", "alu:16",
    "alu:32", "alu:64",
];

/// Every plain spec key any workload can run; the oracle pins one
/// fingerprint per key.
pub fn universe() -> Vec<&'static str> {
    COVERAGE.iter().chain(ARITH).copied().collect()
}

/// The warm pool: mapped and checkpointed by the set-up, persisted in
/// the `restart` chain, served warm by `served`, hit by `hot_hits`.
/// Ordered by popularity for the Zipf draws: small components first.
pub const POOL: &[&str] = &[
    "add:16",
    "nand:16:2",
    "xor:16:2",
    "add:8",
    "dec:3",
    "shift:32",
    "add:12",
    "dec:2",
    "alu:16",
    "dec:4",
    "add:32",
    "bcd",
    "alu:64",
];

/// Persisted specs `restart` asks after its first answer.
pub const RESTART_NEXT: &[&str] = &[
    "add:16",
    "add:32",
    "alu:16",
    "add:8",
    "add:12",
    "nand:16:2",
    "xor:16:2",
    "dec:3",
    "shift:32",
];

/// Cheap specs outside the pool: `restart` solves one per session on
/// the hydrated space.
pub const MISS: &[&str] = &["mux:8:2", "enc:8", "shift:8", "cmp:4"];

/// Specs outside the pool: the never-seen share of the `served` mix,
/// each a full solve of 10–20 ms on a worker. Every window sends all of
/// them once, evenly spaced.
pub const COLD: &[&str] = &["mux:8:4", "enc:16", "mul:4:4", "barrel:8:3"];

/// The decorated variants of a pool spec that the canonicalizer
/// collapses onto the plain entry: a style the library ignores, or a
/// second width on a family that has none.
pub fn decorated(key: &str, variant: usize) -> ComponentSpec {
    let plain = spec(key);
    if plain.style.is_some() || plain.width2 != 0 {
        return plain;
    }
    match variant % 3 {
        0 => plain.with_style("FASTEST"),
        1 => plain.with_style("SMALL"),
        _ => plain.with_width2(2),
    }
}
