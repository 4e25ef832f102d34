//! LOLA (paper §7, future work): derived library-specific rules adapt
//! DTAS to a brand-new cell library, and the adapted designs remain
//! bit-exact.

use cells::databook;
use cells::CellLibrary;
use dtas::lola::{derive_library_rules, with_derived_rules, LibraryProfile};
use dtas::{DesignSpace, Dtas, RuleSet, SpecModelCache};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use rtlsim::equiv::check_implementation;

/// A synthetic "next generation" databook: 3-bit adders, 2-bit P/G adders
/// with a 3-group lookahead generator, 6-bit registers, 5-input NANDs —
/// widths the LSI subset does not stock.
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

fn register(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Register, w).with_ops(OpSet::only(Op::Load))
}

fn adder(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, w)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

#[test]
fn derived_implementations_are_equivalent() {
    let lib = next_gen();
    let engine = Dtas::builder(lib.clone())
        .rules(with_derived_rules(RuleSet::standard(), &lib))
        .build();
    let specs = vec![
        adder(6),
        // Carry-select blocks of 6, twice the widest stocked adder: two
        // at 12 bits (the generic carry-select's split), three at 18.
        adder(12),
        adder(18),
        register(13),
        ComponentSpec::new(ComponentKind::Counter, 4)
            .with_ops([Op::Load, Op::CountUp, Op::CountDown].into_iter().collect())
            .with_enable(true),
        ComponentSpec::new(ComponentKind::Decoder, 2).with_width2(4),
        ComponentSpec::new(ComponentKind::Comparator, 8).with_ops(OpSet::only(Op::Eq)),
    ];
    let mut labels = Vec::new();
    for spec in specs {
        let set = engine.run(&spec).expect("synthesizes");
        for alt in &set.alternatives {
            check_implementation(&alt.implementation, 120, 9)
                .unwrap_or_else(|e| panic!("{spec} via {} fails: {e}", alt.implementation.label()));
            labels.push(alt.implementation.label().to_string());
        }
    }
    for rule in [
        "next-carry-select-6",
        "next-counter-enable-ff",
        "next-decoder-nand",
        "next-eq-xnor-reduce",
    ] {
        assert!(
            labels.iter().any(|l| l == rule),
            "no {rule} answer in {labels:?}"
        );
    }
}

/// A bank onto a stocked width would be the register itself: expansion
/// would drop it as a cycle and taint every root reaching it.
#[test]
fn stocked_register_width_expands_untainted() {
    let lib = next_gen();
    let rules = with_derived_rules(RuleSet::standard(), &lib);
    let mut space = DesignSpace::new();
    let root = space
        .expand(&register(6), &rules, &lib, &SpecModelCache::new())
        .expect("expands");
    assert!(!space.tainted_under(root));
}

#[test]
fn lola_improves_the_design_space() {
    let lib = next_gen();
    let spec = adder(12);
    let baseline = Dtas::builder(lib.clone())
        .rules(RuleSet::standard())
        .build()
        .run(&spec);
    let adapted = Dtas::builder(lib.clone())
        .rules(with_derived_rules(RuleSet::standard(), &lib))
        .build()
        .run(&spec)
        .expect("adapted engine synthesizes");
    // LOLA must find the lookahead structure the generic rules cannot
    // (6-bit blocks from 2-bit P/G adders + CLA3).
    let labels: Vec<&str> = adapted
        .alternatives
        .iter()
        .map(|a| a.implementation.label())
        .collect();
    assert!(
        labels.iter().any(|l| l.starts_with("next-")),
        "no LOLA design in {labels:?}"
    );
    if let Ok(base) = baseline {
        assert!(
            adapted.alternatives.len() >= base.alternatives.len(),
            "LOLA lost designs: {} vs {}",
            adapted.alternatives.len(),
            base.alternatives.len()
        );
        let fast_base = base.fastest().expect("nonempty").delay;
        let fast_adapted = adapted.fastest().expect("nonempty").delay;
        assert!(
            fast_adapted < fast_base,
            "LOLA should unlock faster designs: {fast_adapted} vs {fast_base}"
        );
    }
}

#[test]
fn lola_profile_matches_the_papers_lsi_pairing() {
    let profile = LibraryProfile::of(&cells::lsi::lsi_logic_subset());
    // The paper's pairing: 4-bit P/G adders with the 4-group CLA.
    assert!(profile.pg_adder_widths.contains(&4));
    assert!(profile.cla_groups.contains(&4));
    // The paper's count: "DTAS requires nine library-specific design
    // rules to fully utilize the subset of cells from LSI Logic".
    let rules = derive_library_rules(&cells::lsi::lsi_logic_subset());
    let names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
    assert_eq!(
        names,
        [
            "lsi-cla16-block-ripple",
            "lsi-carry-select-8",
            "lsi-register-bank",
            "lsi-register-en-bank",
            "lsi-counter-enable-ff",
            "lsi-gate-radix3",
            "lsi-gate-radix8",
            "lsi-decoder-nand",
            "lsi-eq-xnor-reduce",
        ]
    );
}
