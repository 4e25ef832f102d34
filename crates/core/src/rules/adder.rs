//! Adder/subtractor decomposition rules: ripple slicing, carry select,
//! carry lookahead, and pin adaptation.

use super::helpers::*;
use super::{rule, Rule};
use crate::template::{NetlistTemplate, Signal, TemplateBuilder};
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::ops::RangeInclusive;

/// True for a canonical-form adder/subtractor: both carry pins, no P/G,
/// ops within {ADD, SUB}.
fn canonical_addsub(spec: &ComponentSpec) -> bool {
    spec.kind == ComponentKind::AddSub
        && spec.carry_in
        && spec.carry_out
        && !spec.group_pg
        && !spec.ops.is_empty()
        && ([Op::Add, Op::Sub].into_iter().collect::<OpSet>()).is_superset(spec.ops)
}

/// Builds a ripple chain of `w / k` slices of width `k`. Shared with
/// LOLA's ripple rules for the library's other slice widths.
pub(crate) fn ripple(rule_name: &str, spec: &ComponentSpec, k: usize) -> Option<NetlistTemplate> {
    if !canonical_addsub(spec) || spec.width <= k || !spec.width.is_multiple_of(k) {
        return None;
    }
    let n = spec.width / k;
    let slice_spec = addsub(k, spec.ops, true, true);
    let two_op = spec.ops.len() == 2;
    let mut t = TemplateBuilder::new(rule_name);
    let mut parts = Vec::with_capacity(n);
    for i in 0..n {
        let ci = if i == 0 {
            Signal::parent("CI")
        } else {
            Signal::net(&format!("c{i}"))
        };
        let mut inputs = vec![
            ("A", Signal::parent("A").slice(k * i, k)),
            ("B", Signal::parent("B").slice(k * i, k)),
            ("CI", ci),
        ];
        if two_op {
            inputs.push(("S", Signal::parent("S")));
        }
        t.module(
            &format!("slice{i}"),
            slice_spec.clone(),
            inputs,
            vec![
                ("O", &format!("o{i}"), k),
                ("CO", &format!("c{}", i + 1), 1),
            ],
        );
        parts.push(Signal::net(&format!("o{i}")));
    }
    t.output("O", Signal::Cat(parts));
    t.output("CO", Signal::net(&format!("c{n}")));
    Some(t.build())
}

/// Slice widths of the generic ripple rules, one `add-ripple-slice-{k}`
/// each. LOLA derives ripple rules only for a library's other widths.
pub(crate) const RIPPLE_SLICE_WIDTHS: [usize; 4] = [1, 2, 4, 8];

macro_rules! ripple_rule {
    ($ty:ident, $name:literal, $k:expr, $doc:literal) => {
        rule!(pub(super) $ty, $name, $doc, |spec| {
            ripple($name, spec, $k).into_iter().collect()
        });
    };
}

ripple_rule!(
    RippleSlice1,
    "add-ripple-slice-1",
    RIPPLE_SLICE_WIDTHS[0],
    "ripple-carry chain of 1-bit adder slices"
);
ripple_rule!(
    RippleSlice2,
    "add-ripple-slice-2",
    RIPPLE_SLICE_WIDTHS[1],
    "ripple-carry chain of 2-bit adder slices"
);
ripple_rule!(
    RippleSlice4,
    "add-ripple-slice-4",
    RIPPLE_SLICE_WIDTHS[2],
    "ripple-carry chain of 4-bit adder slices"
);
ripple_rule!(
    RippleSlice8,
    "add-ripple-slice-8",
    RIPPLE_SLICE_WIDTHS[3],
    "ripple-carry chain of 8-bit adder slices"
);

rule!(
    pub(super) RippleSplitOdd,
    "add-ripple-split-odd",
    "odd-width adders split into an even low part and a 1-bit top slice",
    |spec| {
        if !canonical_addsub(spec) || spec.width < 3 || spec.width.is_multiple_of(2) {
            return vec![];
        }
        let w = spec.width;
        let lo = addsub(w - 1, spec.ops, true, true);
        let hi = addsub(1, spec.ops, true, true);
        let two_op = spec.ops.len() == 2;
        let sel = |inputs: &mut Vec<(&str, Signal)>| {
            if two_op {
                inputs.push(("S", Signal::parent("S")));
            }
        };
        let mut t = TemplateBuilder::new("add-ripple-split-odd");
        let mut lo_in = vec![
            ("A", Signal::parent("A").slice(0, w - 1)),
            ("B", Signal::parent("B").slice(0, w - 1)),
            ("CI", Signal::parent("CI")),
        ];
        sel(&mut lo_in);
        t.module("lo", lo, lo_in, vec![("O", "o_lo", w - 1), ("CO", "c_mid", 1)]);
        let mut hi_in = vec![
            ("A", Signal::parent("A").slice(w - 1, 1)),
            ("B", Signal::parent("B").slice(w - 1, 1)),
            ("CI", Signal::net("c_mid")),
        ];
        sel(&mut hi_in);
        t.module("hi", hi, hi_in, vec![("O", "o_hi", 1), ("CO", "c_out", 1)]);
        t.output("O", Signal::Cat(vec![Signal::net("o_lo"), Signal::net("o_hi")]));
        t.output("CO", Signal::net("c_out"));
        vec![t.build()]
    }
);

rule!(
    pub(super) CarrySelect,
    "add-carry-select",
    "upper half computed for both carry values, selected by the lower half's carry-out",
    |spec| {
        if !canonical_addsub(spec)
            || spec.ops != OpSet::only(Op::Add)
            || spec.width < 8
            || !spec.width.is_multiple_of(2)
        {
            return vec![];
        }
        let h = spec.width / 2;
        let mut t = TemplateBuilder::new("add-carry-select");
        t.module(
            "lo",
            adder(h),
            vec![
                ("A", Signal::parent("A").slice(0, h)),
                ("B", Signal::parent("B").slice(0, h)),
                ("CI", Signal::parent("CI")),
            ],
            vec![("O", "o_lo", h), ("CO", "c_mid", 1)],
        );
        for (name, cin) in [("hi0", 0u64), ("hi1", 1u64)] {
            t.module(
                name,
                adder(h),
                vec![
                    ("A", Signal::parent("A").slice(h, h)),
                    ("B", Signal::parent("B").slice(h, h)),
                    ("CI", Signal::cuint(1, cin)),
                ],
                vec![
                    ("O", &format!("o_{name}"), h),
                    ("CO", &format!("c_{name}"), 1),
                ],
            );
        }
        t.module(
            "mux_sum",
            mux(h, 2),
            vec![
                ("I0", Signal::net("o_hi0")),
                ("I1", Signal::net("o_hi1")),
                ("S", Signal::net("c_mid")),
            ],
            vec![("O", "o_hi", h)],
        );
        t.module(
            "mux_co",
            mux(1, 2),
            vec![
                ("I0", Signal::net("c_hi0")),
                ("I1", Signal::net("c_hi1")),
                ("S", Signal::net("c_mid")),
            ],
            vec![("O", "c_out", 1)],
        );
        t.output("O", Signal::Cat(vec![Signal::net("o_lo"), Signal::net("o_hi")]));
        t.output("CO", Signal::net("c_out"));
        vec![t.build()]
    }
);

/// `add-cla-groups` builds one lookahead block of P/G adders this wide,
/// under a generator of one of these group counts. LOLA derives only the
/// lookahead blocks this rule does not build.
pub(crate) const CLA_GROUP_SLICE: usize = 4;
pub(crate) const CLA_GROUP_COUNTS: RangeInclusive<usize> = 2..=4;

rule!(
    pub(super) ClaGroups,
    "add-cla-groups",
    "4-bit P/G adder groups under one carry-lookahead generator",
    |spec| {
        let k = CLA_GROUP_SLICE;
        if !canonical_addsub(spec) || spec.ops != OpSet::only(Op::Add) || !spec.width.is_multiple_of(k)
        {
            return vec![];
        }
        let n = spec.width / k;
        if !CLA_GROUP_COUNTS.contains(&n) {
            return vec![];
        }
        let mut t = TemplateBuilder::new("add-cla-groups");
        let mut sums = Vec::new();
        let mut ps = Vec::new();
        let mut gs = Vec::new();
        for i in 0..n {
            let ci = if i == 0 {
                Signal::parent("CI")
            } else {
                Signal::net("cla_c").slice(i - 1, 1)
            };
            t.module(
                &format!("grp{i}"),
                adder_pg(k),
                vec![
                    ("A", Signal::parent("A").slice(k * i, k)),
                    ("B", Signal::parent("B").slice(k * i, k)),
                    ("CI", ci),
                ],
                vec![
                    ("O", &format!("o{i}"), k),
                    ("P", &format!("p{i}"), 1),
                    ("G", &format!("g{i}"), 1),
                ],
            );
            sums.push(Signal::net(&format!("o{i}")));
            ps.push(Signal::net(&format!("p{i}")));
            gs.push(Signal::net(&format!("g{i}")));
        }
        t.module(
            "cla",
            cla(n),
            vec![
                ("P", Signal::Cat(ps)),
                ("G", Signal::Cat(gs)),
                ("CI", Signal::parent("CI")),
            ],
            vec![("C", "cla_c", n)],
        );
        t.output("O", Signal::Cat(sums));
        t.output("CO", Signal::net("cla_c").slice(n - 1, 1));
        vec![t.build()]
    }
);

rule!(
    pub(super) ClaTwoLevel,
    "add-cla-two-level",
    "two-level carry lookahead: 16-bit superblocks of 4-bit P/G groups",
    |spec| {
        if !canonical_addsub(spec) || spec.ops != OpSet::only(Op::Add) || !spec.width.is_multiple_of(16)
        {
            return vec![];
        }
        let nb = spec.width / 16;
        if !(2..=4).contains(&nb) {
            return vec![];
        }
        let mut t = TemplateBuilder::new("add-cla-two-level");
        let mut sums = Vec::new();
        let mut sb_ps = Vec::new();
        let mut sb_gs = Vec::new();
        for b in 0..nb {
            let sb_cin = if b == 0 {
                Signal::parent("CI")
            } else {
                Signal::net("l2_c").slice(b - 1, 1)
            };
            let mut ps = Vec::new();
            let mut gs = Vec::new();
            for j in 0..4 {
                let ci = if j == 0 {
                    sb_cin.clone()
                } else {
                    Signal::net(&format!("l1_c{b}")).slice(j - 1, 1)
                };
                let base = 16 * b + 4 * j;
                t.module(
                    &format!("grp{b}_{j}"),
                    adder_pg(4),
                    vec![
                        ("A", Signal::parent("A").slice(base, 4)),
                        ("B", Signal::parent("B").slice(base, 4)),
                        ("CI", ci),
                    ],
                    vec![
                        ("O", &format!("o{b}_{j}"), 4),
                        ("P", &format!("p{b}_{j}"), 1),
                        ("G", &format!("g{b}_{j}"), 1),
                    ],
                );
                sums.push(Signal::net(&format!("o{b}_{j}")));
                ps.push(Signal::net(&format!("p{b}_{j}")));
                gs.push(Signal::net(&format!("g{b}_{j}")));
            }
            t.module(
                &format!("cla1_{b}"),
                cla(4),
                vec![
                    ("P", Signal::Cat(ps)),
                    ("G", Signal::Cat(gs)),
                    ("CI", sb_cin),
                ],
                vec![
                    ("C", &format!("l1_c{b}"), 4),
                    ("GP", &format!("sbp{b}"), 1),
                    ("GG", &format!("sbg{b}"), 1),
                ],
            );
            sb_ps.push(Signal::net(&format!("sbp{b}")));
            sb_gs.push(Signal::net(&format!("sbg{b}")));
        }
        t.module(
            "cla2",
            cla(nb),
            vec![
                ("P", Signal::Cat(sb_ps)),
                ("G", Signal::Cat(sb_gs)),
                ("CI", Signal::parent("CI")),
            ],
            vec![("C", "l2_c", nb)],
        );
        t.output("O", Signal::Cat(sums));
        t.output("CO", Signal::net("l2_c").slice(nb - 1, 1));
        vec![t.build()]
    }
);

rule!(
    pub(super) AddSubXorConditioner,
    "addsub-xor-conditioner",
    "an adder/subtractor is a pure adder whose second operand is XORed with the mode",
    |spec| {
        let both: OpSet = [Op::Add, Op::Sub].into_iter().collect();
        if spec.kind != ComponentKind::AddSub
            || spec.ops != both
            || !spec.carry_in
            || !spec.carry_out
            || spec.group_pg
        {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("addsub-xor-conditioner");
        t.module(
            "cond",
            gate(GateOp::Xor, w, 2),
            vec![
                ("I0", Signal::parent("B")),
                ("I1", Signal::parent("S").replicate(w)),
            ],
            vec![("O", "bx", w)],
        );
        t.module(
            "core",
            adder(w),
            vec![
                ("A", Signal::parent("A")),
                ("B", Signal::net("bx")),
                ("CI", Signal::parent("CI")),
            ],
            vec![("O", "o", w), ("CO", "co", 1)],
        );
        t.output("O", Signal::net("o"));
        t.output("CO", Signal::net("co"));
        vec![t.build()]
    }
);

rule!(
    pub(super) SubFromAdder,
    "sub-from-adder",
    "a pure subtractor is a pure adder with an inverted second operand",
    |spec| {
        if spec.kind != ComponentKind::AddSub
            || spec.ops != OpSet::only(Op::Sub)
            || !spec.carry_in
            || !spec.carry_out
            || spec.group_pg
        {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("sub-from-adder");
        t.module(
            "binv",
            not_gate(w),
            vec![("I0", Signal::parent("B"))],
            vec![("O", "nb", w)],
        );
        t.module(
            "core",
            adder(w),
            vec![
                ("A", Signal::parent("A")),
                ("B", Signal::net("nb")),
                ("CI", Signal::parent("CI")),
            ],
            vec![("O", "o", w), ("CO", "co", 1)],
        );
        t.output("O", Signal::net("o"));
        t.output("CO", Signal::net("co"));
        vec![t.build()]
    }
);

rule!(
    pub(super) FullAdderFromGates,
    "full-adder-from-gates",
    "a 1-bit full adder from two XORs and a carry majority network",
    |spec| {
        if spec.kind != ComponentKind::AddSub
            || spec.ops != OpSet::only(Op::Add)
            || spec.width != 1
            || !spec.carry_in
            || !spec.carry_out
            || spec.group_pg
        {
            return vec![];
        }
        let mut t = TemplateBuilder::new("full-adder-from-gates");
        t.module(
            "x1",
            gate(GateOp::Xor, 1, 2),
            vec![("I0", Signal::parent("A")), ("I1", Signal::parent("B"))],
            vec![("O", "axb", 1)],
        );
        t.module(
            "x2",
            gate(GateOp::Xor, 1, 2),
            vec![("I0", Signal::net("axb")), ("I1", Signal::parent("CI"))],
            vec![("O", "sum", 1)],
        );
        t.module(
            "a1",
            gate(GateOp::And, 1, 2),
            vec![("I0", Signal::parent("A")), ("I1", Signal::parent("B"))],
            vec![("O", "gterm", 1)],
        );
        t.module(
            "a2",
            gate(GateOp::And, 1, 2),
            vec![("I0", Signal::net("axb")), ("I1", Signal::parent("CI"))],
            vec![("O", "pterm", 1)],
        );
        t.module(
            "o1",
            gate(GateOp::Or, 1, 2),
            vec![("I0", Signal::net("gterm")), ("I1", Signal::net("pterm"))],
            vec![("O", "cout", 1)],
        );
        t.output("O", Signal::net("sum"));
        t.output("CO", Signal::net("cout"));
        vec![t.build()]
    }
);

rule!(
    pub(super) PinAdapter,
    "add-pin-adapter",
    "adapts adders without carry pins onto the canonical carry-in/carry-out form",
    |spec| {
        if spec.kind != ComponentKind::AddSub
            || spec.group_pg
            || spec.ops.is_empty()
            || !([Op::Add, Op::Sub].into_iter().collect::<OpSet>()).is_superset(spec.ops)
            || (spec.carry_in && spec.carry_out)
        {
            return vec![];
        }
        let w = spec.width;
        let inner = addsub(w, spec.ops, true, true);
        let ci = if spec.carry_in {
            Signal::parent("CI")
        } else if spec.ops == OpSet::only(Op::Sub) {
            // SUB with no carry-in borrows nothing: A + !B + 1.
            Signal::cuint(1, 1)
        } else if spec.ops.len() == 2 {
            // ADD wants cin 0, SUB wants cin 1 — exactly the select bit.
            Signal::parent("S")
        } else {
            Signal::cuint(1, 0)
        };
        let mut inputs = vec![
            ("A", Signal::parent("A")),
            ("B", Signal::parent("B")),
            ("CI", ci),
        ];
        if spec.ops.len() == 2 {
            inputs.push(("S", Signal::parent("S")));
        }
        let mut t = TemplateBuilder::new("add-pin-adapter");
        let mut outputs = vec![("O", "o", w)];
        if spec.carry_out {
            outputs.push(("CO", "c", 1));
        }
        t.module("core", inner, inputs, outputs);
        t.output("O", Signal::net("o"));
        if spec.carry_out {
            t.output("CO", Signal::net("c"));
        }
        vec![t.build()]
    }
);

rule!(
    pub(super) PgFromPlain,
    "add-pg-from-plain",
    "derives group propagate/generate from plain adders and gates when no P/G cell exists",
    |spec| {
        if spec.kind != ComponentKind::AddSub
            || !spec.group_pg
            || spec.ops != OpSet::only(Op::Add)
            || !spec.carry_in
            || !spec.carry_out
            || spec.width < 2
        {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("add-pg-from-plain");
        t.module(
            "main",
            adder(w),
            vec![
                ("A", Signal::parent("A")),
                ("B", Signal::parent("B")),
                ("CI", Signal::parent("CI")),
            ],
            vec![("O", "o", w), ("CO", "co", 1)],
        );
        // Generate = carry out with zero carry-in.
        t.module(
            "gen",
            adder(w),
            vec![
                ("A", Signal::parent("A")),
                ("B", Signal::parent("B")),
                ("CI", Signal::cuint(1, 0)),
            ],
            vec![("CO", "g", 1)],
        );
        // Propagate = AND-reduce(A XOR B).
        t.module(
            "xor",
            gate(GateOp::Xor, w, 2),
            vec![("I0", Signal::parent("A")), ("I1", Signal::parent("B"))],
            vec![("O", "x", w)],
        );
        t.module(
            "pand",
            gate(GateOp::And, 1, w),
            gate_inputs(bits_of(&Signal::net("x"), w)),
            vec![("O", "p", 1)],
        );
        t.output("O", Signal::net("o"));
        t.output("CO", Signal::net("co"));
        t.output("P", Signal::net("p"));
        t.output("G", Signal::net("g"));
        vec![t.build()]
    }
);

/// Registers the adder rules.
pub(super) fn register(rules: &mut Vec<Box<dyn Rule>>) {
    rules.push(Box::new(RippleSlice1));
    rules.push(Box::new(RippleSlice2));
    rules.push(Box::new(RippleSlice4));
    rules.push(Box::new(RippleSlice8));
    rules.push(Box::new(RippleSplitOdd));
    rules.push(Box::new(CarrySelect));
    rules.push(Box::new(ClaGroups));
    rules.push(Box::new(ClaTwoLevel));
    rules.push(Box::new(AddSubXorConditioner));
    rules.push(Box::new(SubFromAdder));
    rules.push(Box::new(FullAdderFromGates));
    rules.push(Box::new(PinAdapter));
    rules.push(Box::new(PgFromPlain));
}
