//! Sequential-component decomposition rules: registers, counters,
//! register files and memories.

use super::helpers::*;
use super::{rule, Rule};
use crate::template::{NetlistTemplate, Signal, TemplateBuilder};
use genus::build::select_width;
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;

/// A plain register spec (no enable, no async pins).
fn plain_register(spec: &ComponentSpec) -> bool {
    spec.kind == ComponentKind::Register && !spec.enable && !spec.async_set_reset
}

fn register_slice(rule_name: &str, spec: &ComponentSpec, k: usize) -> Option<NetlistTemplate> {
    if !plain_register(spec) || spec.width <= k || !spec.width.is_multiple_of(k) {
        return None;
    }
    let n = spec.width / k;
    let child = register(k);
    let mut t = TemplateBuilder::new(rule_name);
    let mut parts = Vec::new();
    for i in 0..n {
        t.module(
            &format!("r{i}"),
            child.clone(),
            vec![
                ("D", Signal::parent("D").slice(k * i, k)),
                ("CLK", Signal::parent("CLK")),
            ],
            vec![("Q", &format!("q{i}"), k)],
        );
        parts.push(Signal::net(&format!("q{i}")));
    }
    t.output("Q", Signal::Cat(parts));
    Some(t.build())
}

rule!(
    pub(super) RegisterSlice1,
    "register-slice-1",
    "registers bank into D flip-flops",
    |spec| { register_slice("register-slice-1", spec, 1).into_iter().collect() }
);

rule!(
    pub(super) RegisterSlice4,
    "register-slice-4",
    "registers bank into 4-bit registers",
    |spec| { register_slice("register-slice-4", spec, 4).into_iter().collect() }
);

rule!(
    pub(super) RegisterSlice8,
    "register-slice-8",
    "registers bank into 8-bit registers",
    |spec| { register_slice("register-slice-8", spec, 8).into_iter().collect() }
);

rule!(
    pub(super) RegisterEnableMux,
    "register-enable-mux",
    "an enabled register is a plain register with a recirculating mux",
    |spec| {
        if spec.kind != ComponentKind::Register || !spec.enable || spec.async_set_reset {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("register-enable-mux");
        t.module(
            "sel",
            mux(w, 2),
            vec![
                ("I0", Signal::net("q")),
                ("I1", Signal::parent("D")),
                ("S", Signal::parent("EN")),
            ],
            vec![("O", "d", w)],
        );
        t.module(
            "reg",
            register(w),
            vec![("D", Signal::net("d")), ("CLK", Signal::parent("CLK"))],
            vec![("Q", "q", w)],
        );
        t.output("Q", Signal::net("q"));
        vec![t.build()]
    }
);

/// Emits the next-state network shared by the counter rules: the counting
/// datapath plus the load mux. Returns the next-state signal (before any
/// enable handling).
pub(crate) fn counter_next_state(
    t: &mut TemplateBuilder,
    spec: &ComponentSpec,
    q: Signal,
) -> Signal {
    let w = spec.width;
    let up = spec.ops.contains(Op::CountUp);
    let down = spec.ops.contains(Op::CountDown);
    let count_val: Signal = match (up, down) {
        (true, true) => {
            // One adder/subtractor: CUP adds 1 (B=0, CI=1); CDOWN
            // subtracts 1 (B=0, SUB, CI=0); neither leaves Q unchanged.
            t.module(
                "ncup",
                not_gate(1),
                vec![("I0", Signal::parent("CUP"))],
                vec![("O", "ncup", 1)],
            );
            t.module(
                "subsel",
                gate(GateOp::And, 1, 2),
                vec![("I0", Signal::net("ncup")), ("I1", Signal::parent("CDOWN"))],
                vec![("O", "ssub", 1)],
            );
            t.module(
                "count",
                addsub(w, [Op::Add, Op::Sub].into_iter().collect(), true, true),
                vec![
                    ("A", q.clone()),
                    ("B", Signal::cuint(w, 0)),
                    ("CI", Signal::parent("CUP")),
                    ("S", Signal::net("ssub")),
                ],
                vec![("O", "cnt", w)],
            );
            Signal::net("cnt")
        }
        (true, false) => {
            t.module(
                "count",
                adder(w),
                vec![
                    ("A", q.clone()),
                    ("B", Signal::cuint(w, 0)),
                    ("CI", Signal::parent("CUP")),
                ],
                vec![("O", "cnt", w)],
            );
            Signal::net("cnt")
        }
        (false, true) => {
            // Q + all-ones + CI: CI=1 holds, CI=0 decrements.
            t.module(
                "ncdown",
                not_gate(1),
                vec![("I0", Signal::parent("CDOWN"))],
                vec![("O", "ncd", 1)],
            );
            t.module(
                "count",
                adder(w),
                vec![
                    ("A", q.clone()),
                    ("B", Signal::Const(rtl_base::bits::Bits::ones(w))),
                    ("CI", Signal::net("ncd")),
                ],
                vec![("O", "cnt", w)],
            );
            Signal::net("cnt")
        }
        (false, false) => q.clone(),
    };
    if spec.ops.contains(Op::Load) {
        t.module(
            "loadmux",
            mux(w, 2),
            vec![
                ("I0", count_val),
                ("I1", Signal::parent("I0")),
                ("S", Signal::parent("CLOAD")),
            ],
            vec![("O", "nxt0", w)],
        );
        Signal::net("nxt0")
    } else {
        count_val
    }
}

fn valid_counter(spec: &ComponentSpec) -> bool {
    let allowed: OpSet = [Op::Load, Op::CountUp, Op::CountDown].into_iter().collect();
    spec.kind == ComponentKind::Counter
        && !spec.ops.is_empty()
        && allowed.is_superset(spec.ops)
        && !spec.async_set_reset
}

rule!(
    pub(super) CounterSynchronous,
    "counter-synchronous",
    "a counter is a register plus a count/load next-state network",
    |spec| {
        if !valid_counter(spec) {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("counter-synchronous");
        let nxt0 = counter_next_state(&mut t, spec, Signal::net("q"));
        let d = if spec.enable {
            t.module(
                "enmux",
                mux(w, 2),
                vec![
                    ("I0", Signal::net("q")),
                    ("I1", nxt0),
                    ("S", Signal::parent("CEN")),
                ],
                vec![("O", "nxt", w)],
            );
            Signal::net("nxt")
        } else {
            nxt0
        };
        t.module(
            "state",
            register(w),
            vec![("D", d), ("CLK", Signal::parent("CLK"))],
            vec![("Q", "q", w)],
        );
        t.output("O0", Signal::net("q"));
        vec![t.build()]
    }
);

rule!(
    pub(super) CounterToggleChain,
    "counter-toggle-chain",
    "an up-counter is a chain of toggle flip-flops with a carry AND chain",
    |spec| {
        if !valid_counter(spec) || spec.ops != OpSet::only(Op::CountUp) {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("counter-toggle-chain");
        let en0: Signal = if spec.enable {
            t.module(
                "gen",
                gate(GateOp::And, 1, 2),
                vec![("I0", Signal::parent("CUP")), ("I1", Signal::parent("CEN"))],
                vec![("O", "en0", 1)],
            );
            Signal::net("en0")
        } else {
            Signal::parent("CUP")
        };
        let mut en = en0;
        let mut qbits = Vec::new();
        for i in 0..w {
            t.module(
                &format!("tgl{i}"),
                gate(GateOp::Xor, 1, 2),
                vec![("I0", Signal::net(&format!("q{i}"))), ("I1", en.clone())],
                vec![("O", &format!("d{i}"), 1)],
            );
            t.module(
                &format!("ff{i}"),
                register(1),
                vec![
                    ("D", Signal::net(&format!("d{i}"))),
                    ("CLK", Signal::parent("CLK")),
                ],
                vec![("Q", &format!("q{i}"), 1)],
            );
            qbits.push(Signal::net(&format!("q{i}")));
            if i + 1 < w {
                t.module(
                    &format!("carry{i}"),
                    gate(GateOp::And, 1, 2),
                    vec![("I0", en), ("I1", Signal::net(&format!("q{i}")))],
                    vec![("O", &format!("en{}", i + 1), 1)],
                );
                en = Signal::net(&format!("en{}", i + 1));
            } else {
                en = Signal::cuint(1, 0); // unused
            }
        }
        t.output("O0", Signal::Cat(qbits));
        vec![t.build()]
    }
);

rule!(
    pub(super) RegisterFileFromRegisters,
    "regfile-from-registers",
    "a register file is a write decoder, enabled word registers and a read mux",
    |spec| {
        if spec.kind != ComponentKind::RegisterFile || spec.width2 < 2 {
            return vec![];
        }
        let w = spec.width;
        let d = spec.width2;
        let aw = select_width(d);
        let lines = 1usize << aw;
        let dec = ComponentSpec::new(ComponentKind::Decoder, aw)
            .with_width2(lines)
            .with_style("BINARY");
        let mut t = TemplateBuilder::new("regfile-from-registers");
        t.module(
            "wdec",
            dec,
            vec![("A", Signal::parent("WA"))],
            vec![("O", "wlines", lines)],
        );
        let mut words = Vec::new();
        let mut mux_inputs: Vec<(String, Signal)> = Vec::new();
        for i in 0..d {
            t.module(
                &format!("wen{i}"),
                gate(GateOp::And, 1, 2),
                vec![
                    ("I0", Signal::net("wlines").slice(i, 1)),
                    ("I1", Signal::parent("WEN")),
                ],
                vec![("O", &format!("we{i}"), 1)],
            );
            t.module(
                &format!("word{i}"),
                register_en(w),
                vec![
                    ("D", Signal::parent("WD")),
                    ("EN", Signal::net(&format!("we{i}"))),
                    ("CLK", Signal::parent("CLK")),
                ],
                vec![("Q", &format!("q{i}"), w)],
            );
            words.push(Signal::net(&format!("q{i}")));
            mux_inputs.push((format!("I{i}"), Signal::net(&format!("q{i}"))));
        }
        mux_inputs.push(("S".to_string(), Signal::parent("RA")));
        let iv: Vec<(&str, Signal)> = mux_inputs
            .iter()
            .map(|(p, s)| (p.as_str(), s.clone()))
            .collect();
        t.module("rmux", mux(w, d), iv, vec![("O", "rd", w)]);
        t.output("RD", Signal::net("rd"));
        t.output("MEM", Signal::Cat(words));
        vec![t.build()]
    }
);

rule!(
    pub(super) MemoryFromRegisters,
    "memory-from-registers",
    "a RAM is a write decoder, enabled word registers and a read mux",
    |spec| {
        if spec.kind != ComponentKind::Memory
            || spec.width2 < 2
            || !spec.ops.contains(Op::Write)
        {
            return vec![];
        }
        let w = spec.width;
        let d = spec.width2;
        let aw = select_width(d);
        let lines = 1usize << aw;
        let dec = ComponentSpec::new(ComponentKind::Decoder, aw)
            .with_width2(lines)
            .with_style("BINARY");
        let mut t = TemplateBuilder::new("memory-from-registers");
        t.module(
            "wdec",
            dec,
            vec![("A", Signal::parent("ADDR"))],
            vec![("O", "wlines", lines)],
        );
        let mut words = Vec::new();
        let mut mux_inputs: Vec<(String, Signal)> = Vec::new();
        for i in 0..d {
            t.module(
                &format!("wen{i}"),
                gate(GateOp::And, 1, 2),
                vec![
                    ("I0", Signal::net("wlines").slice(i, 1)),
                    ("I1", Signal::parent("WEN")),
                ],
                vec![("O", &format!("we{i}"), 1)],
            );
            t.module(
                &format!("word{i}"),
                register_en(w),
                vec![
                    ("D", Signal::parent("DIN")),
                    ("EN", Signal::net(&format!("we{i}"))),
                    ("CLK", Signal::parent("CLK")),
                ],
                vec![("Q", &format!("q{i}"), w)],
            );
            words.push(Signal::net(&format!("q{i}")));
            mux_inputs.push((format!("I{i}"), Signal::net(&format!("q{i}"))));
        }
        mux_inputs.push(("S".to_string(), Signal::parent("ADDR")));
        let iv: Vec<(&str, Signal)> = mux_inputs
            .iter()
            .map(|(p, s)| (p.as_str(), s.clone()))
            .collect();
        t.module("rmux", mux(w, d), iv, vec![("O", "dout", w)]);
        t.output("DOUT", Signal::net("dout"));
        t.output("MEM", Signal::Cat(words));
        vec![t.build()]
    }
);

/// Registers the sequential rules.
pub(super) fn register_rules(rules: &mut Vec<Box<dyn Rule>>) {
    rules.push(Box::new(RegisterSlice1));
    rules.push(Box::new(RegisterSlice4));
    rules.push(Box::new(RegisterSlice8));
    rules.push(Box::new(RegisterEnableMux));
    rules.push(Box::new(CounterSynchronous));
    rules.push(Box::new(CounterToggleChain));
    rules.push(Box::new(RegisterFileFromRegisters));
    rules.push(Box::new(MemoryFromRegisters));
}
