//! Logic-unit and primitive-gate decomposition rules.

use super::helpers::*;
use super::{rule, Rule};
use crate::template::{NetlistTemplate, Signal, TemplateBuilder};
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpClass};
use genus::spec::ComponentSpec;

fn lu_spec(spec: &ComponentSpec) -> bool {
    spec.kind == ComponentKind::LogicUnit && !spec.ops.is_empty()
}

fn lu_slice(rule_name: &str, spec: &ComponentSpec, k: usize) -> Option<NetlistTemplate> {
    if !lu_spec(spec) || spec.width <= k || !spec.width.is_multiple_of(k) {
        return None;
    }
    let n = spec.width / k;
    let child = lu(k, spec.ops);
    let multi = spec.ops.len() > 1;
    let mut t = TemplateBuilder::new(rule_name);
    let mut parts = Vec::new();
    for i in 0..n {
        let mut inputs = vec![
            ("A", Signal::parent("A").slice(k * i, k)),
            ("B", Signal::parent("B").slice(k * i, k)),
        ];
        if multi {
            inputs.push(("S", Signal::parent("S")));
        }
        t.module(
            &format!("s{i}"),
            child.clone(),
            inputs,
            vec![("O", &format!("o{i}"), k)],
        );
        parts.push(Signal::net(&format!("o{i}")));
    }
    t.output("O", Signal::Cat(parts));
    Some(t.build())
}

rule!(
    pub(super) LuBitSlice,
    "lu-bit-slice",
    "logic units slice bitwise into 1-bit logic units",
    |spec| { lu_slice("lu-bit-slice", spec, 1).into_iter().collect() }
);

rule!(
    pub(super) LuNibbleSlice,
    "lu-nibble-slice",
    "logic units slice into 4-bit logic units",
    |spec| { lu_slice("lu-nibble-slice", spec, 4).into_iter().collect() }
);

/// Emits the modules computing one logic op, returning the net holding the
/// result.
fn logic_op_net(t: &mut TemplateBuilder, op: Op, w: usize, tag: usize) -> String {
    let out = format!("f{tag}");
    match op {
        Op::Lnot => {
            t.module(
                &format!("g{tag}"),
                not_gate(w),
                vec![("I0", Signal::parent("A"))],
                vec![("O", &out, w)],
            );
        }
        Op::Limpl => {
            t.module(
                &format!("gn{tag}"),
                not_gate(w),
                vec![("I0", Signal::parent("A"))],
                vec![("O", &format!("na{tag}"), w)],
            );
            t.module(
                &format!("g{tag}"),
                gate(GateOp::Or, w, 2),
                vec![
                    ("I0", Signal::net(&format!("na{tag}"))),
                    ("I1", Signal::parent("B")),
                ],
                vec![("O", &out, w)],
            );
        }
        _ => {
            let g = match op {
                Op::And => GateOp::And,
                Op::Or => GateOp::Or,
                Op::Nand => GateOp::Nand,
                Op::Nor => GateOp::Nor,
                Op::Xor => GateOp::Xor,
                Op::Xnor => GateOp::Xnor,
                _ => unreachable!("logic-class op"),
            };
            t.module(
                &format!("g{tag}"),
                gate(g, w, 2),
                vec![("I0", Signal::parent("A")), ("I1", Signal::parent("B"))],
                vec![("O", &out, w)],
            );
        }
    }
    out
}

rule!(
    pub(super) LuGatesMux,
    "lu-gates-mux",
    "one gate per function, selected by an output multiplexer",
    |spec| {
        if !lu_spec(spec) || spec.ops.len() < 2 {
            return vec![];
        }
        let w = spec.width;
        let n = spec.ops.len();
        let mut t = TemplateBuilder::new("lu-gates-mux");
        let mut mux_inputs = Vec::new();
        for (i, op) in spec.ops.iter().enumerate() {
            let net = logic_op_net(&mut t, op, w, i);
            mux_inputs.push((format!("I{i}"), Signal::net(&net)));
        }
        let mut inputs: Vec<(&str, Signal)> = mux_inputs
            .iter()
            .map(|(p, s)| (p.as_str(), s.clone()))
            .collect();
        inputs.push(("S", Signal::parent("S")));
        t.module("omux", mux(w, n), inputs, vec![("O", "o", w)]);
        t.output("O", Signal::net("o"));
        vec![t.build()]
    }
);

rule!(
    pub(super) LuSingleGate,
    "lu-single-gate",
    "a single-function logic unit is a gate",
    |spec| {
        if !lu_spec(spec) || spec.ops.len() != 1 {
            return vec![];
        }
        let op = spec.ops.iter().next().expect("len checked");
        if op.class() != OpClass::Logic {
            return vec![];
        }
        let mut t = TemplateBuilder::new("lu-single-gate");
        let net = logic_op_net(&mut t, op, spec.width, 0);
        t.output("O", Signal::net(&net));
        vec![t.build()]
    }
);

fn is_gate(spec: &ComponentSpec) -> Option<GateOp> {
    match spec.kind {
        ComponentKind::Gate(g) => Some(g),
        _ => None,
    }
}

/// Non-inverting base function of a gate (AND for NAND, OR for NOR, XOR
/// for XNOR).
fn base_of(g: GateOp) -> GateOp {
    match g {
        GateOp::Nand => GateOp::And,
        GateOp::Nor => GateOp::Or,
        GateOp::Xnor => GateOp::Xor,
        other => other,
    }
}

rule!(
    pub(super) GateWidthSlice,
    "gate-width-slice",
    "multi-bit gates slice bitwise into 1-bit gates",
    |spec| {
        let Some(g) = is_gate(spec) else {
            return vec![];
        };
        if spec.width < 2 {
            return vec![];
        }
        let w = spec.width;
        let n = spec.inputs;
        let mut t = TemplateBuilder::new("gate-width-slice");
        let mut parts = Vec::new();
        for i in 0..w {
            let inputs = gate_inputs(
                (0..n)
                    .map(|j| Signal::parent(&format!("I{j}")).slice(i, 1))
                    .collect(),
            );
            t.module(
                &format!("b{i}"),
                gate(g, 1, n),
                inputs,
                vec![("O", &format!("o{i}"), 1)],
            );
            parts.push(Signal::net(&format!("o{i}")));
        }
        t.output("O", Signal::Cat(parts));
        vec![t.build()]
    }
);

/// Splits a 1-bit gate of fan-in `n` into `groups` subtrees plus a
/// combiner of the (possibly inverting) parent function. Shared with
/// LOLA's radix rules for the library's gate fan-ins.
pub(crate) fn fanin_split_public(
    rule_name: &str,
    g: GateOp,
    n: usize,
    groups: usize,
) -> NetlistTemplate {
    let base = base_of(g);
    let mut t = TemplateBuilder::new(rule_name);
    let mut combiner_inputs = Vec::new();
    let per = n / groups;
    let extra = n % groups;
    let mut at = 0usize;
    for gi in 0..groups {
        let size = per + usize::from(gi < extra);
        let sigs: Vec<Signal> = (at..at + size)
            .map(|j| Signal::parent(&format!("I{j}")))
            .collect();
        at += size;
        if size == 1 {
            combiner_inputs.push(sigs.into_iter().next().expect("size 1"));
        } else {
            t.module(
                &format!("sub{gi}"),
                gate(base, 1, size),
                gate_inputs(sigs),
                vec![("O", &format!("s{gi}"), 1)],
            );
            combiner_inputs.push(Signal::net(&format!("s{gi}")));
        }
    }
    t.module(
        "top",
        gate(g, 1, groups),
        gate_inputs(combiner_inputs),
        vec![("O", "o", 1)],
    );
    t.output("O", Signal::net("o"));
    t.build()
}

/// Fan-in radices of the generic gate splits: `gate-fanin-tree` splits
/// in 2, `gate-fanin-radix4` in 4. LOLA derives only the library's other
/// radices.
pub(crate) const FANIN_RADICES: [usize; 2] = [2, 4];

rule!(
    pub(super) GateFaninTree,
    "gate-fanin-tree",
    "wide gates split into two subtrees plus a 2-input combiner",
    |spec| {
        let Some(g) = is_gate(spec) else {
            return vec![];
        };
        let radix = FANIN_RADICES[0];
        if spec.width != 1
            || spec.inputs <= radix
            || matches!(g, GateOp::Not | GateOp::Buf)
        {
            return vec![];
        }
        vec![fanin_split_public("gate-fanin-tree", g, spec.inputs, radix)]
    }
);

rule!(
    pub(super) GateFaninRadix4,
    "gate-fanin-radix4",
    "wide gates split into four subtrees plus a 4-input combiner",
    |spec| {
        let Some(g) = is_gate(spec) else {
            return vec![];
        };
        let radix = FANIN_RADICES[1];
        if spec.width != 1
            || spec.inputs <= radix
            || !spec.inputs.is_multiple_of(radix)
            || matches!(g, GateOp::Not | GateOp::Buf | GateOp::Xor | GateOp::Xnor)
        {
            return vec![];
        }
        vec![fanin_split_public("gate-fanin-radix4", g, spec.inputs, radix)]
    }
);

/// One gate rewritten as another gate plus an output inverter.
fn with_output_inverter(rule_name: &str, inner: GateOp, spec: &ComponentSpec) -> NetlistTemplate {
    let w = spec.width;
    let n = spec.inputs;
    let mut t = TemplateBuilder::new(rule_name);
    t.module(
        "core",
        gate(inner, w, n),
        gate_inputs((0..n).map(|j| Signal::parent(&format!("I{j}"))).collect()),
        vec![("O", "x", w)],
    );
    t.module(
        "inv",
        not_gate(w),
        vec![("I0", Signal::net("x"))],
        vec![("O", "o", w)],
    );
    t.output("O", Signal::net("o"));
    t.build()
}

macro_rules! demorgan_rule {
    ($ty:ident, $name:literal, $outer:path, $inner:path, $doc:literal) => {
        rule!(pub(super) $ty, $name, $doc, |spec| {
            match spec.kind {
                ComponentKind::Gate(g) if g == $outer && spec.inputs >= 2 => {
                    vec![with_output_inverter($name, $inner, spec)]
                }
                _ => vec![],
            }
        });
    };
}

demorgan_rule!(
    AndFromNand,
    "gate-and-from-nand",
    GateOp::And,
    GateOp::Nand,
    "AND is NAND plus an inverter"
);
demorgan_rule!(
    OrFromNor,
    "gate-or-from-nor",
    GateOp::Or,
    GateOp::Nor,
    "OR is NOR plus an inverter"
);
demorgan_rule!(
    NandFromAnd,
    "gate-nand-from-and",
    GateOp::Nand,
    GateOp::And,
    "NAND is AND plus an inverter"
);
demorgan_rule!(
    NorFromOr,
    "gate-nor-from-or",
    GateOp::Nor,
    GateOp::Or,
    "NOR is OR plus an inverter"
);
demorgan_rule!(
    XnorFromXor,
    "gate-xnor-from-xor",
    GateOp::Xnor,
    GateOp::Xor,
    "XNOR is XOR plus an inverter"
);
demorgan_rule!(
    XorFromXnor,
    "gate-xor-from-xnor",
    GateOp::Xor,
    GateOp::Xnor,
    "XOR is XNOR plus an inverter"
);

/// De Morgan with inverted inputs: AND = NOR of inverted inputs, OR =
/// NAND of inverted inputs.
fn with_input_inverters(rule_name: &str, inner: GateOp, spec: &ComponentSpec) -> NetlistTemplate {
    let w = spec.width;
    let n = spec.inputs;
    let mut t = TemplateBuilder::new(rule_name);
    let mut sigs = Vec::new();
    for j in 0..n {
        t.module(
            &format!("inv{j}"),
            not_gate(w),
            vec![("I0", Signal::parent(&format!("I{j}")))],
            vec![("O", &format!("n{j}"), w)],
        );
        sigs.push(Signal::net(&format!("n{j}")));
    }
    t.module(
        "core",
        gate(inner, w, n),
        gate_inputs(sigs),
        vec![("O", "o", w)],
    );
    t.output("O", Signal::net("o"));
    t.build()
}

rule!(
    pub(super) AndFromNor,
    "gate-and-from-nor",
    "AND is NOR of inverted inputs",
    |spec| {
        match spec.kind {
            ComponentKind::Gate(GateOp::And) if spec.inputs >= 2 => {
                vec![with_input_inverters("gate-and-from-nor", GateOp::Nor, spec)]
            }
            _ => vec![],
        }
    }
);

rule!(
    pub(super) OrFromNand,
    "gate-or-from-nand",
    "OR is NAND of inverted inputs",
    |spec| {
        match spec.kind {
            ComponentKind::Gate(GateOp::Or) if spec.inputs >= 2 => {
                vec![with_input_inverters("gate-or-from-nand", GateOp::Nand, spec)]
            }
            _ => vec![],
        }
    }
);

rule!(
    pub(super) XorFromNands,
    "gate-xor-from-nands",
    "the classic four-NAND exclusive-or",
    |spec| {
        if spec.kind != ComponentKind::Gate(GateOp::Xor)
            || spec.width != 1
            || spec.inputs != 2
        {
            return vec![];
        }
        let nd = gate(GateOp::Nand, 1, 2);
        let a = Signal::parent("I0");
        let b = Signal::parent("I1");
        let mut t = TemplateBuilder::new("gate-xor-from-nands");
        t.module(
            "n1",
            nd.clone(),
            vec![("I0", a.clone()), ("I1", b.clone())],
            vec![("O", "m", 1)],
        );
        t.module(
            "n2",
            nd.clone(),
            vec![("I0", a), ("I1", Signal::net("m"))],
            vec![("O", "x", 1)],
        );
        t.module(
            "n3",
            nd.clone(),
            vec![("I0", b), ("I1", Signal::net("m"))],
            vec![("O", "y", 1)],
        );
        t.module(
            "n4",
            nd,
            vec![("I0", Signal::net("x")), ("I1", Signal::net("y"))],
            vec![("O", "o", 1)],
        );
        t.output("O", Signal::net("o"));
        vec![t.build()]
    }
);

rule!(
    pub(super) BufFromInverters,
    "gate-buf-double-inverter",
    "a buffer is two inverters in series",
    |spec| {
        if spec.kind != ComponentKind::Gate(GateOp::Buf) {
            return vec![];
        }
        let w = spec.width;
        let mut t = TemplateBuilder::new("gate-buf-double-inverter");
        t.module(
            "i1",
            not_gate(w),
            vec![("I0", Signal::parent("I0"))],
            vec![("O", "x", w)],
        );
        t.module(
            "i2",
            not_gate(w),
            vec![("I0", Signal::net("x"))],
            vec![("O", "o", w)],
        );
        t.output("O", Signal::net("o"));
        vec![t.build()]
    }
);

/// Registers the logic rules.
pub(super) fn register(rules: &mut Vec<Box<dyn Rule>>) {
    rules.push(Box::new(LuBitSlice));
    rules.push(Box::new(LuNibbleSlice));
    rules.push(Box::new(LuGatesMux));
    rules.push(Box::new(LuSingleGate));
    rules.push(Box::new(GateWidthSlice));
    rules.push(Box::new(GateFaninTree));
    rules.push(Box::new(GateFaninRadix4));
    rules.push(Box::new(AndFromNand));
    rules.push(Box::new(OrFromNor));
    rules.push(Box::new(NandFromAnd));
    rules.push(Box::new(NorFromOr));
    rules.push(Box::new(XnorFromXor));
    rules.push(Box::new(XorFromXnor));
    rules.push(Box::new(AndFromNor));
    rules.push(Box::new(OrFromNand));
    rules.push(Box::new(XorFromNands));
    rules.push(Box::new(BufFromInverters));
}
