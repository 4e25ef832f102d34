//! The benchmark's spec keys, for tests: the plain specs
//! `perfbench/oracle.tsv` pins (`add:16`, `mux:8:4`, …) and the spec each
//! key names, built the way the benchmark's spec universe builds it. The
//! answer oracle and this crate's sweeps read both from here, so they
//! check the spec set the benchmark runs.

use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;

/// Answer digests recorded by the benchmark (`--record-oracle`).
const ORACLE: &str = include_str!("../../../perfbench/oracle.tsv");

/// The plain-spec lines of the oracle, `(key, digest)`, in file order.
/// Override lines (`key|override`) and the `gcd` design digest are not
/// spec answers.
///
/// # Panics
///
/// On a line that is not `key<TAB>hex digest`.
pub fn pinned_answers() -> Vec<(&'static str, u64)> {
    ORACLE
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|line| {
            let (key, hex) = line
                .split_once('\t')
                .expect("oracle line is key<TAB>digest");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (!key.contains('|') && key != "gcd").then_some((key, digest))
        })
        .collect()
}

/// The spec a benchmark key names.
///
/// # Panics
///
/// On a key outside the benchmark's families or with a missing width.
pub fn spec(key: &str) -> ComponentSpec {
    let mut parts = key.split(':');
    let family = parts.next().unwrap_or_default();
    let mut n = || -> usize { parts.next().and_then(|p| p.parse().ok()).expect(key) };
    let ops = |list: &[Op]| -> OpSet { list.iter().copied().collect() };
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
            let (width, inputs) = (n(), n());
            ComponentSpec::new(ComponentKind::Gate(op), width).with_inputs(inputs)
        }
        "mux" => {
            let (width, inputs) = (n(), n());
            ComponentSpec::new(ComponentKind::Mux, width).with_inputs(inputs)
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
            let (width, width2) = (n(), n());
            ComponentSpec::new(ComponentKind::BarrelShifter, width)
                .with_width2(width2)
                .with_ops(OpSet::only(Op::Shl))
        }
        "mul" => {
            let (width, width2) = (n(), n());
            ComponentSpec::new(ComponentKind::Multiplier, width)
                .with_width2(width2)
                .with_ops(OpSet::only(Op::Mul))
        }
        "ctr" => ComponentSpec::new(ComponentKind::Counter, n())
            .with_ops(ops(&[Op::Load, Op::CountUp, Op::CountDown]))
            .with_enable(true)
            .with_style("SYNCHRONOUS"),
        _ => panic!("unknown family in {key}"),
    }
}
