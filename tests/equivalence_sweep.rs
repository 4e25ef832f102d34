//! The verification backbone: every alternative DTAS produces, for every
//! supported component family (§7's list), simulates bit-exactly against
//! its GENUS behavioral model.

use cells::lsi::lsi_logic_subset;
use dtas::Dtas;
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use rtlsim::equiv::{check_exhaustive, check_implementation};

fn check_all(spec: ComponentSpec, vectors: usize) {
    let set = Dtas::new(lsi_logic_subset())
        .run(&spec)
        .unwrap_or_else(|e| panic!("{spec} failed to synthesize: {e}"));
    assert!(!set.alternatives.is_empty());
    for alt in &set.alternatives {
        check_implementation(&alt.implementation, vectors, 0x5eed).unwrap_or_else(|e| {
            panic!(
                "{spec} via {} not equivalent:\n{e}\n{}",
                alt.implementation.label(),
                alt.implementation
            )
        });
    }
}

#[test]
fn adders_all_widths() {
    for w in [1usize, 2, 3, 5, 8, 12, 16] {
        check_all(
            ComponentSpec::new(ComponentKind::AddSub, w)
                .with_ops(OpSet::only(Op::Add))
                .with_carry_in(true)
                .with_carry_out(true),
            80,
        );
    }
}

#[test]
fn adders_without_carry_pins() {
    for (ci, co) in [(false, true), (true, false), (false, false)] {
        check_all(
            ComponentSpec::new(ComponentKind::AddSub, 8)
                .with_ops(OpSet::only(Op::Add))
                .with_carry_in(ci)
                .with_carry_out(co),
            80,
        );
    }
}

#[test]
fn subtractors_and_addsubs() {
    check_all(
        ComponentSpec::new(ComponentKind::AddSub, 6)
            .with_ops(OpSet::only(Op::Sub))
            .with_carry_in(true)
            .with_carry_out(true),
        80,
    );
    check_all(
        ComponentSpec::new(ComponentKind::AddSub, 6)
            .with_ops([Op::Add, Op::Sub].into_iter().collect())
            .with_carry_in(true)
            .with_carry_out(true),
        120,
    );
}

#[test]
fn adder_with_group_pg() {
    check_all(
        ComponentSpec::new(ComponentKind::AddSub, 6)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
            .with_group_pg(true),
        120,
    );
}

#[test]
fn muxes_and_selectors() {
    for (w, n) in [(1usize, 2usize), (8, 2), (4, 3), (2, 5), (8, 8), (1, 16)] {
        check_all(
            ComponentSpec::new(ComponentKind::Mux, w).with_inputs(n),
            100,
        );
    }
    check_all(
        ComponentSpec::new(ComponentKind::Selector, 4).with_inputs(3),
        100,
    );
}

#[test]
fn gates_wide_and_deep() {
    for (g, w, n) in [
        (GateOp::And, 1usize, 5usize),
        (GateOp::Nand, 8, 2),
        (GateOp::Nor, 1, 12),
        (GateOp::Xor, 4, 3),
        (GateOp::Xnor, 1, 2),
        (GateOp::Or, 2, 9),
        (GateOp::Buf, 4, 1),
        (GateOp::Not, 16, 1),
    ] {
        check_all(
            ComponentSpec::new(ComponentKind::Gate(g), w).with_inputs(n),
            60,
        );
    }
}

#[test]
fn logic_units() {
    let all_logic: OpSet = [
        Op::And,
        Op::Or,
        Op::Nand,
        Op::Nor,
        Op::Xor,
        Op::Xnor,
        Op::Lnot,
        Op::Limpl,
    ]
    .into_iter()
    .collect();
    check_all(
        ComponentSpec::new(ComponentKind::LogicUnit, 8).with_ops(all_logic),
        150,
    );
    check_all(
        ComponentSpec::new(ComponentKind::LogicUnit, 4)
            .with_ops([Op::And, Op::Xor].into_iter().collect()),
        80,
    );
}

#[test]
fn decoders_and_encoders() {
    for k in [1usize, 2, 3, 4, 5] {
        check_all(
            ComponentSpec::new(ComponentKind::Decoder, k)
                .with_width2(1 << k)
                .with_style("BINARY"),
            60,
        );
    }
    check_all(
        ComponentSpec::new(ComponentKind::Decoder, 4)
            .with_width2(10)
            .with_style("BCD"),
        60,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Decoder, 3)
            .with_width2(8)
            .with_style("BINARY")
            .with_enable(true),
        60,
    );
    for n in [2usize, 4, 7, 8] {
        check_all(
            ComponentSpec::new(ComponentKind::Encoder, genus::build::select_width(n))
                .with_inputs(n),
            60,
        );
    }
}

#[test]
fn comparators() {
    check_all(
        ComponentSpec::new(ComponentKind::Comparator, 8)
            .with_ops([Op::Eq, Op::Lt, Op::Gt].into_iter().collect()),
        100,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Comparator, 8).with_ops(OpSet::only(Op::Eq)),
        100,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Comparator, 4)
            .with_ops([Op::Eq, Op::Lt].into_iter().collect()),
        100,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Comparator, 5)
            .with_ops([Op::Neq, Op::Ge, Op::Le].into_iter().collect()),
        100,
    );
}

#[test]
fn shifters_and_barrels() {
    for op in [Op::Shl, Op::Shr, Op::Asr, Op::Rotl, Op::Rotr] {
        check_all(
            ComponentSpec::new(ComponentKind::Shifter, 8).with_ops(OpSet::only(op)),
            60,
        );
    }
    check_all(
        ComponentSpec::new(ComponentKind::Shifter, 8)
            .with_ops([Op::Shl, Op::Shr, Op::Asr].into_iter().collect()),
        120,
    );
    for op in [Op::Shl, Op::Shr, Op::Asr, Op::Rotl, Op::Rotr] {
        check_all(
            ComponentSpec::new(ComponentKind::BarrelShifter, 8)
                .with_width2(3)
                .with_ops(OpSet::only(op)),
            120,
        );
    }
    check_all(
        ComponentSpec::new(ComponentKind::BarrelShifter, 4)
            .with_width2(2)
            .with_ops([Op::Shl, Op::Rotr].into_iter().collect()),
        120,
    );
}

#[test]
fn multipliers_and_dividers() {
    for (n, m) in [(2usize, 2usize), (4, 4), (6, 3), (3, 5)] {
        check_all(
            ComponentSpec::new(ComponentKind::Multiplier, n)
                .with_width2(m)
                .with_ops(OpSet::only(Op::Mul)),
            100,
        );
    }
    for w in [2usize, 4, 6] {
        check_all(
            ComponentSpec::new(ComponentKind::Divider, w).with_ops(OpSet::only(Op::Div)),
            150,
        );
    }
}

#[test]
fn alus_by_function_class() {
    let arith: OpSet = [Op::Add, Op::Sub, Op::Inc, Op::Dec].into_iter().collect();
    let cmp: OpSet = [Op::Eq, Op::Lt, Op::Gt, Op::Zerop].into_iter().collect();
    let logic: OpSet = [Op::And, Op::Or, Op::Xor, Op::Lnot].into_iter().collect();
    check_all(
        ComponentSpec::new(ComponentKind::Alu, 6)
            .with_ops(arith)
            .with_carry_in(true),
        150,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Alu, 6)
            .with_ops(cmp)
            .with_carry_in(true),
        150,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Alu, 6)
            .with_ops(logic)
            .with_carry_in(true),
        150,
    );
}

#[test]
fn full_16_function_alu() {
    check_all(
        ComponentSpec::new(ComponentKind::Alu, 4)
            .with_ops(Op::paper_alu16())
            .with_carry_in(true),
        250,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Alu, 8)
            .with_ops(Op::paper_alu16())
            .with_carry_in(false),
        250,
    );
}

#[test]
fn sequential_components() {
    check_all(
        ComponentSpec::new(ComponentKind::Register, 8).with_ops(OpSet::only(Op::Load)),
        100,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Register, 13).with_ops(OpSet::only(Op::Load)),
        100,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Register, 5)
            .with_ops(OpSet::only(Op::Load))
            .with_enable(true),
        150,
    );
    for ops in [
        OpSet::only(Op::CountUp),
        [Op::Load, Op::CountUp].into_iter().collect::<OpSet>(),
        [Op::Load, Op::CountUp, Op::CountDown].into_iter().collect(),
    ] {
        check_all(
            ComponentSpec::new(ComponentKind::Counter, 4)
                .with_ops(ops)
                .with_enable(true)
                .with_style("SYNCHRONOUS"),
            200,
        );
    }
    check_all(
        ComponentSpec::new(ComponentKind::RegisterFile, 4)
            .with_width2(4)
            .with_ops([Op::Read, Op::Write].into_iter().collect()),
        200,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Memory, 4)
            .with_width2(4)
            .with_ops([Op::Read, Op::Write].into_iter().collect()),
        200,
    );
}

#[test]
fn wiring_and_interface_components() {
    check_all(ComponentSpec::new(ComponentKind::BufferComp, 8), 40);
    check_all(ComponentSpec::new(ComponentKind::Tristate, 8), 60);
    check_all(
        ComponentSpec::new(ComponentKind::WiredOr, 4).with_inputs(3),
        60,
    );
    check_all(ComponentSpec::new(ComponentKind::Bus, 4).with_inputs(3), 60);
    check_all(ComponentSpec::new(ComponentKind::Delay, 8), 40);
    check_all(
        ComponentSpec::new(ComponentKind::Concat, 4).with_inputs(3),
        40,
    );
    check_all(
        ComponentSpec::new(ComponentKind::Extract, 8)
            .with_width2(3)
            .with_inputs(2),
        40,
    );
}

#[test]
fn small_adders_exhaustively() {
    for w in [1usize, 2, 3, 4] {
        let spec = ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let set = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
        for alt in &set.alternatives {
            check_exhaustive(&alt.implementation)
                .unwrap_or_else(|e| panic!("{spec} via {} fails: {e}", alt.implementation.label()));
        }
    }
}

/// The Figure-3 ALU64 front simulated twice: every alternative as solved
/// cold, and as decoded by an engine restarted over a checkpointed chain,
/// each against the GENUS model on the same seeded vectors.
#[test]
fn alu64_front_simulates_cold_and_warm() {
    let spec = dtas::bench_specs::spec("alu:64");
    let dir = std::env::temp_dir().join(format!("dtas_alu64_sim_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold_engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let cold = cold_engine.run(&spec).expect("solves");
    cold_engine
        .checkpoint()
        .expect("writes")
        .expect("store bound");
    drop(cold_engine);
    let warm_engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let warm = warm_engine.run(&spec).expect("warm hit");
    let stats = warm_engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats}");
    drop(warm_engine);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cold.alternatives.len(), warm.alternatives.len());
    for (side, set) in [("cold", &cold), ("warm", &warm)] {
        for alt in &set.alternatives {
            check_implementation(&alt.implementation, 16, 0x5eed).unwrap_or_else(|e| {
                panic!(
                    "{side} ALU64 via {} not equivalent:\n{e}",
                    alt.implementation.label()
                )
            });
        }
    }
}
