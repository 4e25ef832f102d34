//! LOLA — the Logic Learning Assistant.
//!
//! The paper's §7 closes with its future-work system: "To ease the task
//! of moving DTAS into new cell libraries, we are developing LOLA (Logic
//! Learning Assistant) ... LOLA is invoked when DTAS is presented with a
//! new cell library or as technology upgrades cause changes in a familiar
//! library. LOLA applies abstract design principles to generate
//! library-specific rules."
//!
//! This module implements that idea, and it is the only source of
//! library-specific rules: an engine built without explicit rules runs
//! [`RuleSet::standard`](crate::RuleSet::standard) plus what
//! [`derive_library_rules`] derives for the engine's own library. LOLA
//! scans a [`CellLibrary`] into a [`LibraryProfile`] and instantiates one
//! rule per *design principle* the profile supports, deriving only what
//! the generic base lacks. No principle names a cell or a library:
//!
//! 1. **ripple-slicing** to every stocked adder width the generic ripple
//!    rules lack;
//! 2. **lookahead blocks** sized `groups × slice` for every (P/G adder,
//!    lookahead generator) pair, rippled block to block (a single block
//!    `add-cla-groups` builds is left to it);
//! 3. **carry-select blocks** twice the widest stocked plain adder, given
//!    a 2:1 multiplexer;
//! 4. **register banking** greedily, widest first, onto the stocked
//!    register widths, plain and enabled (a one-part split is the parent
//!    itself and is skipped);
//! 5. **enabled-flip-flop counters**, given an enabled register;
//! 6. **fan-in radix splitting** to the stocked gate fan-ins the generic
//!    splits lack;
//! 7. **NAND/inverter decoders** for the widths the NAND fan-ins cover
//!    without a gap from 2;
//! 8. **XNOR-slice equality** with an AND reduction, given an XNOR.
//!
//! Derived rule names start with the library name up to its first `_`.
//! For the paper's LSI subset (`lsi_lma9k_subset`) the derivation is
//! exactly the nine `lsi-*` rules §7 counts.

use crate::rules::adder::{ripple, CLA_GROUP_COUNTS, CLA_GROUP_SLICE, RIPPLE_SLICE_WIDTHS};
use crate::rules::helpers::{
    adder, adder_pg, cla, gate, gate_inputs, mux, not_gate, register, register_en,
};
use crate::rules::logic::{fanin_split_public, FANIN_RADICES};
use crate::rules::seq::counter_next_state;
use crate::rules::Rule;
use crate::template::{NetlistTemplate, Signal, TemplateBuilder};
use cells::CellLibrary;
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::collections::BTreeSet;

/// A library profile: the structural opportunities LOLA found.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LibraryProfile {
    /// Widths of plain (non-P/G) adder and adder/subtractor cells (CI+CO).
    pub adder_widths: BTreeSet<usize>,
    /// Widths of P/G adder cells.
    pub pg_adder_widths: BTreeSet<usize>,
    /// Group counts of carry-lookahead generator cells.
    pub cla_groups: BTreeSet<usize>,
    /// Widths of plain register cells.
    pub register_widths: BTreeSet<usize>,
    /// Widths of enabled register cells.
    pub register_en_widths: BTreeSet<usize>,
    /// Fan-ins (>2) of 1-bit AND/NAND/OR/NOR gates.
    pub gate_fanins: BTreeSet<usize>,
    /// Fan-ins of 1-bit NAND gates.
    pub nand_fanins: BTreeSet<usize>,
    /// The library stocks a 2:1 multiplexer.
    pub mux2: bool,
    /// The library stocks an XNOR gate.
    pub xnor: bool,
}

impl LibraryProfile {
    /// Scans a library.
    pub fn of(library: &CellLibrary) -> Self {
        let mut p = LibraryProfile::default();
        for cell in library.cells() {
            let s = &cell.spec;
            match s.kind {
                ComponentKind::AddSub if s.ops.contains(Op::Add) && s.carry_in && s.carry_out => {
                    if s.group_pg {
                        p.pg_adder_widths.insert(s.width);
                    } else {
                        p.adder_widths.insert(s.width);
                    }
                }
                ComponentKind::CarryLookahead => {
                    p.cla_groups.insert(s.inputs);
                }
                ComponentKind::Register if s.ops.contains(Op::Load) && !s.async_set_reset => {
                    if s.enable {
                        p.register_en_widths.insert(s.width);
                    } else {
                        p.register_widths.insert(s.width);
                    }
                }
                ComponentKind::Mux if s.inputs == 2 => p.mux2 = true,
                ComponentKind::Gate(GateOp::Xnor) => p.xnor = true,
                ComponentKind::Gate(g) if s.width == 1 => {
                    if g == GateOp::Nand {
                        p.nand_fanins.insert(s.inputs);
                    }
                    if s.inputs > 2
                        && matches!(g, GateOp::And | GateOp::Nand | GateOp::Or | GateOp::Nor)
                    {
                        p.gate_fanins.insert(s.inputs);
                    }
                }
                _ => {}
            }
        }
        p
    }
}

/// The expansion a derived rule carries; it is handed the rule's name.
type ExpandFn = Box<dyn Fn(&str, &ComponentSpec) -> Vec<NetlistTemplate> + Send + Sync>;

/// A LOLA-derived rule: a named closure over the learned parameters.
struct DerivedRule {
    name: String,
    doc: String,
    expand: ExpandFn,
}

impl Rule for DerivedRule {
    fn name(&self) -> &str {
        &self.name
    }
    fn doc(&self) -> &str {
        &self.doc
    }
    fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        (self.expand)(&self.name, spec)
    }
}

fn canonical_adder(spec: &ComponentSpec) -> bool {
    spec.kind == ComponentKind::AddSub
        && spec.ops == OpSet::only(Op::Add)
        && spec.carry_in
        && spec.carry_out
        && !spec.group_pg
}

/// Principle 2: `nb ≥ min_blocks` lookahead blocks of `groups` P/G adders
/// of width `slice` under one generator each, rippled block to block.
fn cla_blocks(
    name: &str,
    spec: &ComponentSpec,
    slice: usize,
    groups: usize,
    min_blocks: usize,
) -> Vec<NetlistTemplate> {
    let block = slice * groups;
    if !canonical_adder(spec)
        || !spec.width.is_multiple_of(block)
        || spec.width / block < min_blocks
    {
        return vec![];
    }
    let nb = spec.width / block;
    let mut t = TemplateBuilder::new(name);
    let mut sums = Vec::new();
    for b in 0..nb {
        let block_cin = if b == 0 {
            Signal::parent("CI")
        } else {
            Signal::net(&format!("cla_c{}", b - 1)).slice(groups - 1, 1)
        };
        let mut ps = Vec::new();
        let mut gs = Vec::new();
        for j in 0..groups {
            let ci = if j == 0 {
                block_cin.clone()
            } else {
                Signal::net(&format!("cla_c{b}")).slice(j - 1, 1)
            };
            let base = block * b + slice * j;
            t.module(
                &format!("grp{b}_{j}"),
                adder_pg(slice),
                vec![
                    ("A", Signal::parent("A").slice(base, slice)),
                    ("B", Signal::parent("B").slice(base, slice)),
                    ("CI", ci),
                ],
                vec![
                    ("O", &format!("o{b}_{j}"), slice),
                    ("P", &format!("p{b}_{j}"), 1),
                    ("G", &format!("g{b}_{j}"), 1),
                ],
            );
            sums.push(Signal::net(&format!("o{b}_{j}")));
            ps.push(Signal::net(&format!("p{b}_{j}")));
            gs.push(Signal::net(&format!("g{b}_{j}")));
        }
        t.module(
            &format!("cla{b}"),
            cla(groups),
            vec![
                ("P", Signal::Cat(ps)),
                ("G", Signal::Cat(gs)),
                ("CI", block_cin),
            ],
            vec![("C", &format!("cla_c{b}"), groups)],
        );
    }
    t.output("O", Signal::Cat(sums));
    t.output(
        "CO",
        Signal::net(&format!("cla_c{}", nb - 1)).slice(groups - 1, 1),
    );
    vec![t.build()]
}

/// Principle 3: a plain `block`-bit adder, then carry-select blocks whose
/// two precomputed sums are picked by the carry rippling in.
fn carry_select(name: &str, spec: &ComponentSpec, block: usize) -> Vec<NetlistTemplate> {
    if !canonical_adder(spec) || !spec.width.is_multiple_of(block) || spec.width < 2 * block {
        return vec![];
    }
    let mut t = TemplateBuilder::new(name);
    let operands = |base: usize| {
        [
            ("A", Signal::parent("A").slice(base, block)),
            ("B", Signal::parent("B").slice(base, block)),
        ]
    };
    let [a, b] = operands(0);
    t.module(
        "blk0",
        adder(block),
        vec![a, b, ("CI", Signal::parent("CI"))],
        vec![("O", "o0", block), ("CO", "c0", 1)],
    );
    let mut sums = vec![Signal::net("o0")];
    let mut carry = Signal::net("c0");
    for blk in 1..spec.width / block {
        for (tag, ci) in [("a", 0u64), ("b", 1u64)] {
            let [a, b] = operands(block * blk);
            t.module(
                &format!("blk{blk}{tag}"),
                adder(block),
                vec![a, b, ("CI", Signal::cuint(1, ci))],
                vec![
                    ("O", &format!("o{blk}{tag}"), block),
                    ("CO", &format!("c{blk}{tag}"), 1),
                ],
            );
        }
        for (tag, port, width) in [("s", "o", block), ("c", "c", 1)] {
            t.module(
                &format!("mux{tag}{blk}"),
                mux(width, 2),
                vec![
                    ("I0", Signal::net(&format!("{port}{blk}a"))),
                    ("I1", Signal::net(&format!("{port}{blk}b"))),
                    ("S", carry.clone()),
                ],
                vec![("O", &format!("{port}{blk}"), width)],
            );
        }
        sums.push(Signal::net(&format!("o{blk}")));
        carry = Signal::net(&format!("c{blk}"));
    }
    t.output("O", Signal::Cat(sums));
    t.output("CO", carry);
    vec![t.build()]
}

/// Principle 4: a register (enabled or not, per `enabled`) banked
/// greedily onto `widths`, widest first. A split into one part would be
/// the parent itself — a cycle expansion could only drop — so none is
/// emitted.
fn bank(name: &str, spec: &ComponentSpec, widths: &[usize], enabled: bool) -> Vec<NetlistTemplate> {
    if spec.kind != ComponentKind::Register || spec.enable != enabled || spec.async_set_reset {
        return vec![];
    }
    let w = spec.width;
    let mut parts = Vec::new();
    let mut at = 0usize;
    while at < w {
        let Some(&k) = widths.iter().find(|&&k| k <= w - at) else {
            return vec![]; // no narrow enough register: cannot finish
        };
        parts.push((at, k));
        at += k;
    }
    if parts.len() < 2 {
        return vec![];
    }
    let (prefix, part_spec): (&str, fn(usize) -> ComponentSpec) = if enabled {
        ("ff", register_en)
    } else {
        ("bank", register)
    };
    let mut t = TemplateBuilder::new(name);
    let mut qs = Vec::new();
    for (i, &(at, k)) in parts.iter().enumerate() {
        let mut inputs = vec![
            ("D", Signal::parent("D").slice(at, k)),
            ("CLK", Signal::parent("CLK")),
        ];
        if enabled {
            inputs.push(("EN", Signal::parent("EN")));
        }
        t.module(
            &format!("{prefix}{i}"),
            part_spec(k),
            inputs,
            vec![("Q", &format!("q{i}"), k)],
        );
        qs.push(Signal::net(&format!("q{i}")));
    }
    t.output("Q", Signal::Cat(qs));
    vec![t.build()]
}

/// Principle 5: a counter with an enable holds its state in an enabled
/// register instead of recirculating through a hold mux.
fn counter_enable_ff(name: &str, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
    let allowed: OpSet = [Op::Load, Op::CountUp, Op::CountDown].into_iter().collect();
    if spec.kind != ComponentKind::Counter
        || !spec.enable
        || spec.async_set_reset
        || spec.ops.is_empty()
        || !allowed.is_superset(spec.ops)
    {
        return vec![];
    }
    let w = spec.width;
    let mut t = TemplateBuilder::new(name);
    let nxt = counter_next_state(&mut t, spec, Signal::net("q"));
    t.module(
        "state",
        register_en(w),
        vec![
            ("D", nxt),
            ("EN", Signal::parent("CEN")),
            ("CLK", Signal::parent("CLK")),
        ],
        vec![("Q", "q", w)],
    );
    t.output("O0", Signal::net("q"));
    vec![t.build()]
}

/// Principle 6: a wide AND/NAND/OR/NOR split into `radix` equal subtrees.
fn gate_radix(name: &str, spec: &ComponentSpec, radix: usize) -> Vec<NetlistTemplate> {
    match spec.kind {
        ComponentKind::Gate(g @ (GateOp::And | GateOp::Nand | GateOp::Or | GateOp::Nor))
            if spec.width == 1 && spec.inputs > radix && spec.inputs.is_multiple_of(radix) =>
        {
            vec![fanin_split_public(name, g, spec.inputs, radix)]
        }
        _ => vec![],
    }
}

/// Principle 7: a binary decoder as an inverter plane, one NAND per line
/// and an output inverter, for `2..=max_width` select bits.
fn decoder_nand(name: &str, spec: &ComponentSpec, max_width: usize) -> Vec<NetlistTemplate> {
    let k = spec.width;
    if spec.kind != ComponentKind::Decoder
        || spec.enable
        || !(2..=max_width).contains(&k)
        || spec.width2 != (1 << k)
    {
        return vec![];
    }
    let mut t = TemplateBuilder::new(name);
    for j in 0..k {
        t.module(
            &format!("inv{j}"),
            not_gate(1),
            vec![("I0", Signal::parent("A").slice(j, 1))],
            vec![("O", &format!("n{j}"), 1)],
        );
    }
    let mut lines = Vec::new();
    for i in 0..(1usize << k) {
        let literals: Vec<Signal> = (0..k)
            .map(|j| {
                if (i >> j) & 1 == 1 {
                    Signal::parent("A").slice(j, 1)
                } else {
                    Signal::net(&format!("n{j}"))
                }
            })
            .collect();
        t.module(
            &format!("nand{i}"),
            gate(GateOp::Nand, 1, k),
            gate_inputs(literals),
            vec![("O", &format!("x{i}"), 1)],
        );
        t.module(
            &format!("linv{i}"),
            not_gate(1),
            vec![("I0", Signal::net(&format!("x{i}")))],
            vec![("O", &format!("l{i}"), 1)],
        );
        lines.push(Signal::net(&format!("l{i}")));
    }
    t.output("O", Signal::Cat(lines));
    vec![t.build()]
}

/// Principle 8: equality as one XNOR per bit and an AND reduction.
fn eq_xnor_reduce(name: &str, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
    if spec.kind != ComponentKind::Comparator || spec.ops != OpSet::only(Op::Eq) || spec.width < 2 {
        return vec![];
    }
    let w = spec.width;
    let mut t = TemplateBuilder::new(name);
    let mut bits = Vec::new();
    for i in 0..w {
        t.module(
            &format!("xn{i}"),
            gate(GateOp::Xnor, 1, 2),
            vec![
                ("I0", Signal::parent("A").slice(i, 1)),
                ("I1", Signal::parent("B").slice(i, 1)),
            ],
            vec![("O", &format!("e{i}"), 1)],
        );
        bits.push(Signal::net(&format!("e{i}")));
    }
    t.module(
        "reduce",
        gate(GateOp::And, 1, w),
        gate_inputs(bits),
        vec![("O", "eq", 1)],
    );
    t.output("EQ", Signal::net("eq"));
    vec![t.build()]
}

/// Derives library-specific rules for a cell library by applying LOLA's
/// design principles to the library's [`LibraryProfile`]. Rule names start
/// with the library name up to its first `_`.
pub fn derive_library_rules(library: &CellLibrary) -> Vec<Box<dyn Rule>> {
    let p = LibraryProfile::of(library);
    let prefix = match library.name().split('_').next() {
        Some(head) if !head.is_empty() => head,
        _ => "lola",
    };
    let mut out: Vec<Box<dyn Rule>> = Vec::new();
    let mut derive = |name: String, doc: String, expand: ExpandFn| {
        out.push(Box::new(DerivedRule {
            name: format!("{prefix}-{name}"),
            doc,
            expand,
        }));
    };
    for &k in p
        .adder_widths
        .difference(&BTreeSet::from(RIPPLE_SLICE_WIDTHS))
    {
        derive(
            format!("ripple-slice-{k}"),
            format!("ripple-carry chain of the library's {k}-bit adder slices"),
            Box::new(move |name, spec| ripple(name, spec, k).into_iter().collect()),
        );
    }
    // A single block `add-cla-groups` builds is left to it; past that,
    // blocks chain.
    let blocks: Vec<(usize, usize)> = p
        .pg_adder_widths
        .iter()
        .flat_map(|&slice| p.cla_groups.iter().map(move |&groups| (slice, groups)))
        .collect();
    for &(slice, groups) in &blocks {
        let block = slice * groups;
        let shared = blocks.iter().any(|&(s, g)| s != slice && s * g == block);
        let min_blocks = if slice == CLA_GROUP_SLICE && CLA_GROUP_COUNTS.contains(&groups) {
            2
        } else {
            1
        };
        derive(
            if shared {
                format!("cla{block}-{slice}x{groups}-block-ripple")
            } else {
                format!("cla{block}-block-ripple")
            },
            format!(
                "{block}-bit lookahead blocks ({groups} x {slice}-bit P/G adders + a \
                 {groups}-group generator) rippled block to block"
            ),
            Box::new(move |name, spec| cla_blocks(name, spec, slice, groups, min_blocks)),
        );
    }
    if let (true, Some(&widest)) = (p.mux2, p.adder_widths.last()) {
        let block = 2 * widest;
        derive(
            format!("carry-select-{block}"),
            format!("chained {block}-bit carry-select blocks sized for the library's {widest}-bit adders"),
            Box::new(move |name, spec| carry_select(name, spec, block)),
        );
    }
    // The generic rules slice plain registers uniformly; a bank mixes
    // widths.
    let plain: Vec<usize> = p.register_widths.iter().rev().copied().collect();
    if plain.len() > 1 {
        derive(
            "register-bank".to_string(),
            format!("registers bank greedily onto the library's register widths {plain:?}"),
            Box::new(move |name, spec| bank(name, spec, &plain, false)),
        );
    }
    let enabled: Vec<usize> = p.register_en_widths.iter().rev().copied().collect();
    if !enabled.is_empty() {
        derive(
            "register-en-bank".to_string(),
            format!("enabled registers bank greedily onto the library's enabled register widths {enabled:?}"),
            Box::new(move |name, spec| bank(name, spec, &enabled, true)),
        );
        derive(
            "counter-enable-ff".to_string(),
            "counters with enables use enabled flip-flops instead of a hold mux".to_string(),
            Box::new(counter_enable_ff),
        );
    }
    for &radix in p.gate_fanins.difference(&BTreeSet::from(FANIN_RADICES)) {
        derive(
            format!("gate-radix{radix}"),
            format!("fan-in splitting in {radix}s, matching the library's {radix}-input gates"),
            Box::new(move |name, spec| gate_radix(name, spec, radix)),
        );
    }
    let max_width = (2..).take_while(|n| p.nand_fanins.contains(n)).last();
    if let Some(max_width) = max_width {
        derive(
            "decoder-nand".to_string(),
            format!("decoders of 2 to {max_width} bits as inverter/NAND/inverter planes, matching the library's NAND fan-ins"),
            Box::new(move |name, spec| decoder_nand(name, spec, max_width)),
        );
    }
    if p.xnor {
        derive(
            "eq-xnor-reduce".to_string(),
            "equality via XNOR bit slices and an AND reduction".to_string(),
            Box::new(eq_xnor_reduce),
        );
    }
    out
}

/// Extends a rule set with LOLA-derived rules for `library`.
pub fn with_derived_rules(mut rules: crate::RuleSet, library: &CellLibrary) -> crate::RuleSet {
    rules.append_library_rules(derive_library_rules(library));
    rules
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::databook;
    use cells::lsi::lsi_logic_subset;

    /// A synthetic "next generation" databook with different widths than
    /// the LSI subset: 3-bit adders, 2-bit P/G adders, a 3-group CLA,
    /// 6-bit registers, 5-input NANDs.
    const NEXT_GEN: &str = "\
LIBRARY next_gen
CELL INV   GATE_NOT  W 1 N 1 AREA 0.7 DELAY 0.4
CELL ND2   GATE_NAND W 1 N 2 AREA 1.0 DELAY 0.6
CELL ND5   GATE_NAND W 1 N 5 AREA 2.6 DELAY 1.2
CELL NR2   GATE_NOR  W 1 N 2 AREA 1.0 DELAY 0.7
CELL AN2   GATE_AND  W 1 N 2 AREA 1.2 DELAY 0.8
CELL OR2   GATE_OR   W 1 N 2 AREA 1.2 DELAY 0.9
CELL EO2   GATE_XOR  W 1 N 2 AREA 2.2 DELAY 1.1
CELL EN2   GATE_XNOR W 1 N 2 AREA 2.2 DELAY 1.2
CELL MX2   MUX W 1 N 2 AREA 2.8 DELAY 1.2
CELL ADD3  ADDSUB W 3 OPS ADD CI CO AREA 19.0 DELAY 4.2 CARRY 2.6
CELL APG2  ADDSUB W 2 OPS ADD CI CO PG AREA 15.0 DELAY 3.4 CARRY 1.6 PGD 2.2
CELL CLA3  CLA_GEN N 3 CI AREA 10.0 DELAY 1.7 CARRY 1.0 PGD 1.4
CELL FD1   REGISTER W 1 OPS LOAD AREA 6.0 DELAY 1.9
CELL RG6   REGISTER W 6 OPS LOAD AREA 33.0 DELAY 2.1
CELL FDE1  REGISTER W 1 OPS LOAD EN AREA 8.0 DELAY 2.1
";

    fn next_gen() -> CellLibrary {
        databook::parse(NEXT_GEN).expect("synthetic library parses")
    }

    fn names(library: &CellLibrary) -> Vec<String> {
        derive_library_rules(library)
            .iter()
            .map(|r| r.name().to_string())
            .collect()
    }

    #[test]
    fn profile_of_lsi() {
        let p = LibraryProfile::of(&lsi_logic_subset());
        assert_eq!(
            p.adder_widths,
            [1usize, 2, 4].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(p.pg_adder_widths, [4usize].into_iter().collect());
        assert_eq!(p.cla_groups, [4usize].into_iter().collect());
        assert_eq!(
            p.register_widths,
            [1usize, 4, 8].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(p.register_en_widths, [1usize].into_iter().collect());
        assert_eq!(
            p.gate_fanins,
            [3usize, 4, 8].into_iter().collect::<BTreeSet<_>>()
        );
        assert_eq!(
            p.nand_fanins,
            [2usize, 3, 4, 8].into_iter().collect::<BTreeSet<_>>()
        );
        assert!(p.mux2 && p.xnor);
    }

    #[test]
    fn next_gen_derivation() {
        assert_eq!(
            names(&next_gen()),
            [
                "next-ripple-slice-3",
                "next-cla6-block-ripple",
                "next-carry-select-6",
                "next-register-bank",
                "next-register-en-bank",
                "next-counter-enable-ff",
                "next-gate-radix5",
                "next-decoder-nand",
                "next-eq-xnor-reduce",
            ]
        );
    }

    /// A slow and a fast cell of one width, and two (P/G width, group
    /// count) pairs with one block width, still give one rule per name.
    #[test]
    fn derived_names_are_unique() {
        let book = "\
LIBRARY twins
CELL AS3  ADDSUB W 3 OPS ADD SUB CI CO AREA 20.0 DELAY 4.4 CARRY 2.9
CELL AS3H ADDSUB W 3 OPS ADD SUB CI CO AREA 24.0 DELAY 3.6 CARRY 2.2
CELL APG2 ADDSUB W 2 OPS ADD CI CO PG AREA 15.0 DELAY 3.4 CARRY 1.6 PGD 2.2
CELL APG4 ADDSUB W 4 OPS ADD CI CO PG AREA 30.0 DELAY 5.0 CARRY 2.4 PGD 2.2
CELL CLA2 CLA_GEN N 2 CI AREA 8.0 DELAY 1.4 PGD 1.5
CELL CLA4 CLA_GEN N 4 CI AREA 14.0 DELAY 1.6 PGD 1.7
";
        let lib = databook::parse(book).expect("parses");
        let mut all = names(&lib);
        assert_eq!(all[0], "twins-ripple-slice-3");
        let total = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), total, "duplicate derived names");
    }

    #[test]
    fn register_bank_handles_awkward_widths() {
        let rules = derive_library_rules(&next_gen());
        let bank = rules
            .iter()
            .find(|r| r.name() == "next-register-bank")
            .expect("bank rule derived");
        // 13 = 6 + 6 + 1 with the next-gen library's {6, 1} registers.
        let templates = bank.expand(&register(13));
        assert_eq!(templates.len(), 1);
        assert_eq!(templates[0].module_count(), 3);
        // A stocked width splits into one part: the parent itself.
        assert!(bank.expand(&register(6)).is_empty());
    }
}
