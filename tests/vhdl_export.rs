//! VHDL export coverage: behavioral models for every standard generator
//! family and hierarchical structural output for synthesized designs.

use cells::lsi::lsi_logic_subset;
use dtas::{DesignSet, Dtas};
use genus::op::{Op, OpSet};
use genus::stdlib::GenusLibrary;
use rtl_base::hash::fnv1a_64;
use vhdl::{emit_behavioral, emit_implementation, emit_netlist, parse_structural};

#[test]
fn behavioral_models_for_every_family() {
    let lib = GenusLibrary::standard();
    let components = vec![
        lib.adder(8).unwrap(),
        lib.addsub(4).unwrap(),
        lib.alu(8, Op::paper_alu16()).unwrap(),
        lib.mux(8, 4).unwrap(),
        lib.comparator(8).unwrap(),
        lib.decoder(3).unwrap(),
        lib.bcd_decoder().unwrap(),
        lib.encoder(8).unwrap(),
        lib.multiplier(4, 4).unwrap(),
        lib.divider(4).unwrap(),
        lib.cla_generator(4).unwrap(),
        lib.register(8).unwrap(),
        lib.register_en(8).unwrap(),
        lib.counter(4).unwrap(),
        lib.register_file(4, 4).unwrap(),
        lib.memory(4, 8).unwrap(),
        lib.stack(4, 4).unwrap(),
        lib.buffer(8).unwrap(),
        lib.tristate(8).unwrap(),
        lib.logic_unit(8, [Op::And, Op::Or, Op::Xor].into_iter().collect())
            .unwrap(),
        lib.shifter(8, OpSet::only(Op::Shl)).unwrap(),
        lib.barrel_shifter(8, OpSet::only(Op::Shr)).unwrap(),
    ];
    for c in components {
        let text =
            emit_behavioral(&c).unwrap_or_else(|e| panic!("{} failed to emit: {e}", c.name()));
        assert!(
            text.contains(&format!("entity {} is", c.name())),
            "{}",
            c.name()
        );
        assert!(text.contains("architecture behavior"));
        if c.is_sequential() {
            assert!(text.contains("rising_edge"), "{}", c.name());
        }
    }
}

#[test]
fn figure3_extremes_export_hierarchically() {
    let spec = genus::spec::ComponentSpec::new(genus::kind::ComponentKind::Alu, 16)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true);
    let set = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
    for alt in [set.smallest().unwrap(), set.fastest().unwrap()] {
        let text = emit_implementation(&alt.implementation).unwrap();
        // One entity per distinct spec; the root entity must be present.
        assert!(
            text.contains(&format!("entity {} is", spec.identifier())),
            "missing root entity"
        );
        // Every leaf cell is named in a comment.
        for cell in alt.implementation.cell_census().keys() {
            assert!(
                text.contains(&format!("maps to data book cell {cell}")),
                "missing {cell}"
            );
        }
    }
}

#[test]
fn hls_netlist_roundtrips_through_vhdl() {
    let entity =
        hls::lang::parse_entity("entity acc(x: in 8, y: out 8) { var t: 8; t = t + x; y = t; }")
            .unwrap();
    let design = hls::compile::compile(&entity, &hls::compile::Constraints::default()).unwrap();
    let text = emit_netlist(&design.netlist);
    let parsed = parse_structural(&text).unwrap();
    assert_eq!(parsed.name, "acc");
    assert_eq!(parsed.instances.len(), design.netlist.instances().len());
    // Width fidelity on a known port.
    let x = parsed.ports.iter().find(|p| p.name == "x").unwrap();
    assert_eq!(x.width, 8);
}

/// FNV-1a digests of the structural VHDL `emit_implementation` writes for
/// every alternative of ADD16 and of ALU64, in answer order, recorded
/// before netlist templates became index-addressed.
const VHDL_DIGESTS: [(&str, &[u64]); 2] = [
    (
        "add:16",
        &[
            0x423b1d902ae2f0e5,
            0x51c1e53a9a023653,
            0x26b80cc29d20bc36,
            0x8426c518a8d20dcc,
            0x903f6115ad3f4d8d,
        ],
    ),
    (
        "alu:64",
        &[
            0xad339c86b0cff291,
            0x7516e5adf5178b0a,
            0xb80fa608884dcd96,
            0xc944e2026a33991e,
            0xd7ea946d71c757fa,
            0x8e93d595a9343a81,
            0x4f3ad967239ff924,
            0x0d7ed7d0f65295b4,
            0x6d737a742506b40c,
            0xb5ed6d3ce0e5da16,
            0xd60ebdbd4fc4697a,
            0x480652dd190bbba4,
            0xbdb3b5975803f11c,
            0xa527a3cc9f0bea2c,
            0x9f04ae88c4b9309c,
            0xa892dd9cb45f0e24,
        ],
    ),
];

fn vhdl_digests(set: &DesignSet) -> Vec<u64> {
    set.alternatives
        .iter()
        .map(|alt| {
            let text = emit_implementation(&alt.implementation).expect("emits");
            fnv1a_64(text.as_bytes())
        })
        .collect()
}

fn assert_pinned_vhdl(key: &str, pinned: &[u64], set: &DesignSet, side: &str) {
    let digests = vhdl_digests(set);
    let hex: Vec<String> = digests.iter().map(|d| format!("0x{d:016x}")).collect();
    assert_eq!(
        digests,
        pinned,
        "{side} {key}: emitted VHDL digests are [{}]",
        hex.join(", ")
    );
}

#[test]
fn emitted_vhdl_is_pinned_cold_and_warm() {
    let dir = std::env::temp_dir().join(format!("dtas_vhdl_digests_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = Dtas::warm_start(lsi_logic_subset(), &dir);
    for (key, pinned) in VHDL_DIGESTS {
        let set = cold.run(dtas::bench_specs::spec(key)).expect("solves");
        assert_pinned_vhdl(key, pinned, &set, "cold");
        // The text repeats: emitting the same answer twice agrees.
        assert_eq!(vhdl_digests(&set), vhdl_digests(&set), "{key}");
    }
    cold.checkpoint().expect("writes").expect("store bound");
    drop(cold);
    // An engine restarted over the chain answers from decoded sections.
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    for (key, pinned) in VHDL_DIGESTS {
        let set = warm.run(dtas::bench_specs::spec(key)).expect("warm hit");
        assert_pinned_vhdl(key, pinned, &set, "warm");
    }
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 0), "{stats}");
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}
