//! The hand-rolled binary codec for engine snapshot *sections*.
//!
//! The build environment is offline-vendored, so there is no serde here:
//! every type is written field by field in **little-endian** order through
//! [`Writer`] and read back through the bounds-checked [`Reader`].
//!
//! Since format version 2 the codec no longer owns a whole-file layout —
//! segment framing (magic, header, offset index, checksums, delta
//! chaining) lives in the sibling `segment` module. What this module
//! encodes are the self-contained answer sections a segment's header
//! points at.
//!
//! Decoding is hardened against hostile or damaged bytes: every length is
//! capped by the remaining buffer, every node/implementation index is
//! bounds-checked, and recursive structures carry a depth limit — a bad
//! section can only ever produce an [`Err`]`(reason)`, never a panic or a
//! wrong design.
//!
//! An answer is persisted as what the paper calls an implementation: a
//! hierarchical netlist whose leaves are library cells (§5). Each answer
//! section holds the de-duplicated DAG of its alternatives — one node per
//! distinct (spec, cell or template + children) — and only the templates
//! that DAG uses, so it decodes straight into [`Implementation`] trees.
//! Answers are all a segment persists: the design space and its solved
//! fronts live only in the engine that explored them.

use super::{AnswerDefect, Rejection};
use crate::cost::Timing;
use crate::extract::{ImplKind, Implementation};
use crate::report::{Alternative, DesignSet, SynthStats};
use crate::template::{Module, NetlistTemplate, Signal};
use crate::SynthError;
use genus::component::PortClass;
use genus::kind::{ComponentKind, GateOp};
use genus::op::Op;
use genus::spec::ComponentSpec;
use rtl_base::bits::Bits;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// One memoized whole-query result, as held in a snapshot.
pub(crate) type ResultEntry = (ComponentSpec, Result<Arc<DesignSet>, SynthError>);

/// Version of the on-disk layout. Any change to the byte layout, to the
/// meaning of a persisted field, or to solver semantics that persisted
/// answers bake in must bump this — old snapshots are then rejected and
/// engines fall back to a clean cold solve.
///
/// History: v1 was the monolithic snapshot (one read-all, decode-all
/// file); v2 is the tiered segment format (mmap'd lazy base + delta
/// chain, see the `segment` module); v3 adds the canonicalization-scheme
/// fingerprint to the segment header and key — memo entries are keyed by
/// canonical specs, so chains written under one scheme must never warm an
/// engine running another; v4 stores each answer as its implementation
/// DAG instead of per-alternative policies over the space; v5 drops the
/// space, fronts, space-extension and front-update sections and the
/// header's node counts: a segment is its header plus one section per
/// memoized answer.
pub const FORMAT_VERSION: u32 = 5;

/// Recursion guard for [`Signal`] trees (real wiring nests a handful of
/// levels; anything deeper is a damaged file).
const MAX_SIGNAL_DEPTH: usize = 64;

// ---------------------------------------------------------------------
// Primitives.

/// Little-endian byte sink.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub(crate) fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }

    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn usize32(&mut self, v: usize) {
        self.u32(u32::try_from(v).expect("snapshot collection exceeds u32"));
    }

    pub(crate) fn str(&mut self, s: &str) {
        self.usize32(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian byte source. Every accessor returns
/// `Err(reason)` instead of panicking when the buffer runs short.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated while reading {what} ({} bytes left, {n} needed)",
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(format!("bad boolean {v} in {what}")),
        }
    }

    pub(crate) fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub(crate) fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// A collection length, capped by the remaining bytes (every element
    /// takes at least one byte), so corrupt counts cannot drive huge
    /// allocations.
    pub(crate) fn len(&mut self, what: &str) -> Result<usize, String> {
        let n = self.u32(what)? as usize;
        if n > self.remaining() {
            return Err(format!(
                "implausible {what} count {n} ({} bytes left)",
                self.remaining()
            ));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self, what: &str) -> Result<String, String> {
        let n = self.len(what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("non-UTF-8 {what}"))
    }
}

// ---------------------------------------------------------------------
// Leaf types.

fn put_kind(w: &mut Writer, kind: ComponentKind) {
    use ComponentKind::*;
    let tag: u8 = match kind {
        Gate(_) => 0,
        LogicUnit => 1,
        Mux => 2,
        Selector => 3,
        Decoder => 4,
        Encoder => 5,
        AddSub => 6,
        Comparator => 7,
        Alu => 8,
        Shifter => 9,
        BarrelShifter => 10,
        Multiplier => 11,
        Divider => 12,
        CarryLookahead => 13,
        Register => 14,
        RegisterFile => 15,
        Counter => 16,
        StackFifo => 17,
        Memory => 18,
        PortComp => 19,
        BufferComp => 20,
        ClockDriver => 21,
        SchmittTrigger => 22,
        Tristate => 23,
        WiredOr => 24,
        Bus => 25,
        Delay => 26,
        Concat => 27,
        Extract => 28,
        ClockGenerator => 29,
    };
    w.u8(tag);
    if let Gate(op) = kind {
        w.str(op.name());
    }
}

fn get_kind(r: &mut Reader) -> Result<ComponentKind, String> {
    use ComponentKind::*;
    Ok(match r.u8("component kind")? {
        0 => {
            let name = r.str("gate op")?;
            Gate(GateOp::parse(&name)?)
        }
        1 => LogicUnit,
        2 => Mux,
        3 => Selector,
        4 => Decoder,
        5 => Encoder,
        6 => AddSub,
        7 => Comparator,
        8 => Alu,
        9 => Shifter,
        10 => BarrelShifter,
        11 => Multiplier,
        12 => Divider,
        13 => CarryLookahead,
        14 => Register,
        15 => RegisterFile,
        16 => Counter,
        17 => StackFifo,
        18 => Memory,
        19 => PortComp,
        20 => BufferComp,
        21 => ClockDriver,
        22 => SchmittTrigger,
        23 => Tristate,
        24 => WiredOr,
        25 => Bus,
        26 => Delay,
        27 => Concat,
        28 => Extract,
        29 => ClockGenerator,
        other => return Err(format!("unknown component-kind tag {other}")),
    })
}

pub(crate) fn put_spec(w: &mut Writer, spec: &ComponentSpec) {
    put_kind(w, spec.kind);
    w.u64(spec.width as u64);
    w.u64(spec.width2 as u64);
    w.u64(spec.inputs as u64);
    // Operations by name (the enum has no public discriminant mapping;
    // names round-trip through `Op::parse` and are stable spec syntax).
    w.usize32(spec.ops.len());
    for op in spec.ops.iter() {
        w.str(op.name());
    }
    w.bool(spec.carry_in);
    w.bool(spec.carry_out);
    w.bool(spec.enable);
    w.bool(spec.async_set_reset);
    w.bool(spec.group_pg);
    match &spec.style {
        None => w.bool(false),
        Some(style) => {
            w.bool(true);
            w.str(style);
        }
    }
}

pub(crate) fn get_spec(r: &mut Reader) -> Result<ComponentSpec, String> {
    let kind = get_kind(r)?;
    let width = r.u64("spec width")? as usize;
    let mut spec = ComponentSpec::new(kind, width);
    spec.width2 = r.u64("spec width2")? as usize;
    spec.inputs = r.u64("spec inputs")? as usize;
    let ops = r.len("op")?;
    for _ in 0..ops {
        let name = r.str("op name")?;
        spec.ops.insert(Op::parse(&name)?);
    }
    spec.carry_in = r.bool("carry_in")?;
    spec.carry_out = r.bool("carry_out")?;
    spec.enable = r.bool("enable")?;
    spec.async_set_reset = r.bool("async_set_reset")?;
    spec.group_pg = r.bool("group_pg")?;
    if r.bool("style presence")? {
        spec.style = Some(r.str("style")?);
    }
    Ok(spec)
}

fn put_port_class(w: &mut Writer, class: PortClass) {
    use PortClass::*;
    w.u8(match class {
        Data => 0,
        Select => 1,
        Control => 2,
        Clock => 3,
        Enable => 4,
        AsyncSetReset => 5,
        CarryIn => 6,
        CarryOut => 7,
        Status => 8,
    });
}

fn get_port_class(r: &mut Reader) -> Result<PortClass, String> {
    use PortClass::*;
    Ok(match r.u8("port class")? {
        0 => Data,
        1 => Select,
        2 => Control,
        3 => Clock,
        4 => Enable,
        5 => AsyncSetReset,
        6 => CarryIn,
        7 => CarryOut,
        8 => Status,
        other => return Err(format!("unknown port-class tag {other}")),
    })
}

pub(crate) fn put_timing(w: &mut Writer, timing: &Timing) {
    w.usize32(timing.arcs.len());
    for (&(from, to), &delay) in &timing.arcs {
        put_port_class(w, from);
        put_port_class(w, to);
        w.f64(delay);
    }
    w.f64(timing.worst);
}

pub(crate) fn get_timing(r: &mut Reader) -> Result<Timing, String> {
    let arcs = r.len("timing arc")?;
    let mut timing = Timing::default();
    for _ in 0..arcs {
        let from = get_port_class(r)?;
        let to = get_port_class(r)?;
        let delay = r.f64("arc delay")?;
        timing.arcs.insert((from, to), delay);
    }
    timing.worst = r.f64("worst delay")?;
    Ok(timing)
}

fn put_bits(w: &mut Writer, bits: &Bits) {
    w.u64(bits.width() as u64);
    let mut byte = 0u8;
    for i in 0..bits.width() {
        if bits.bit(i) {
            byte |= 1 << (i % 8);
        }
        if i % 8 == 7 {
            w.u8(byte);
            byte = 0;
        }
    }
    if !bits.width().is_multiple_of(8) {
        w.u8(byte);
    }
}

fn get_bits(r: &mut Reader) -> Result<Bits, String> {
    let width = r.u64("bits width")? as usize;
    let bytes = width.div_ceil(8);
    let raw = r.take(bytes, "bits payload")?;
    Ok(Bits::from_fn(width, |i| raw[i / 8] & (1 << (i % 8)) != 0))
}

fn put_signal(w: &mut Writer, signal: &Signal) {
    match signal {
        Signal::Net(n) => {
            w.u8(0);
            w.str(n);
        }
        Signal::Parent(p) => {
            w.u8(1);
            w.str(p);
        }
        Signal::Const(b) => {
            w.u8(2);
            put_bits(w, b);
        }
        Signal::Slice(inner, lo, len) => {
            w.u8(3);
            put_signal(w, inner);
            w.u64(*lo as u64);
            w.u64(*len as u64);
        }
        Signal::Cat(parts) => {
            w.u8(4);
            w.usize32(parts.len());
            for p in parts {
                put_signal(w, p);
            }
        }
        Signal::Replicate(inner, n) => {
            w.u8(5);
            put_signal(w, inner);
            w.u64(*n as u64);
        }
    }
}

fn get_signal(r: &mut Reader, depth: usize) -> Result<Signal, String> {
    if depth > MAX_SIGNAL_DEPTH {
        return Err("signal nesting exceeds the codec depth limit".into());
    }
    Ok(match r.u8("signal tag")? {
        0 => Signal::Net(r.str("net name")?),
        1 => Signal::Parent(r.str("parent port")?),
        2 => Signal::Const(get_bits(r)?),
        3 => {
            let inner = get_signal(r, depth + 1)?;
            let lo = r.u64("slice lo")? as usize;
            let len = r.u64("slice len")? as usize;
            Signal::Slice(Box::new(inner), lo, len)
        }
        4 => {
            let parts = r.len("cat part")?;
            let mut out = Vec::with_capacity(parts);
            for _ in 0..parts {
                out.push(get_signal(r, depth + 1)?);
            }
            Signal::Cat(out)
        }
        5 => {
            let inner = get_signal(r, depth + 1)?;
            let n = r.u64("replicate count")? as usize;
            Signal::Replicate(Box::new(inner), n)
        }
        other => Err(format!("unknown signal tag {other}"))?,
    })
}

fn put_template(w: &mut Writer, template: &NetlistTemplate) {
    w.str(&template.rule);
    w.usize32(template.nets.len());
    for (net, width) in &template.nets {
        w.str(net);
        w.u64(*width as u64);
    }
    w.usize32(template.modules.len());
    for module in &template.modules {
        w.str(&module.name);
        put_spec(w, &module.spec);
        w.usize32(module.inputs.len());
        for (port, signal) in &module.inputs {
            w.str(port);
            put_signal(w, signal);
        }
        w.usize32(module.outputs.len());
        for (port, net) in &module.outputs {
            w.str(port);
            w.str(net);
        }
    }
    w.usize32(template.outputs.len());
    for (port, signal) in &template.outputs {
        w.str(port);
        put_signal(w, signal);
    }
}

fn get_template(r: &mut Reader) -> Result<NetlistTemplate, String> {
    let rule = r.str("rule name")?;
    let nets_len = r.len("net")?;
    let mut nets = BTreeMap::new();
    for _ in 0..nets_len {
        let net = r.str("net name")?;
        let width = r.u64("net width")? as usize;
        nets.insert(net, width);
    }
    let modules_len = r.len("module")?;
    let mut modules = Vec::with_capacity(modules_len);
    for _ in 0..modules_len {
        let name = r.str("module name")?;
        let spec = get_spec(r)?;
        let inputs_len = r.len("module input")?;
        let mut inputs = BTreeMap::new();
        for _ in 0..inputs_len {
            let port = r.str("input port")?;
            let signal = get_signal(r, 0)?;
            inputs.insert(port, signal);
        }
        let outputs_len = r.len("module output")?;
        let mut outputs = BTreeMap::new();
        for _ in 0..outputs_len {
            let port = r.str("output port")?;
            let net = r.str("output net")?;
            outputs.insert(port, net);
        }
        modules.push(Module {
            name,
            spec,
            inputs,
            outputs,
        });
    }
    let outputs_len = r.len("template output")?;
    let mut outputs = BTreeMap::new();
    for _ in 0..outputs_len {
        let port = r.str("parent output")?;
        let signal = get_signal(r, 0)?;
        outputs.insert(port, signal);
    }
    Ok(NetlistTemplate {
        rule,
        nets,
        modules,
        outputs,
    })
}

pub(crate) fn put_synth_error(w: &mut Writer, error: &SynthError) {
    match error {
        SynthError::Expand(m) => {
            w.u8(0);
            w.str(m);
        }
        SynthError::NoImplementation(m) => {
            w.u8(1);
            w.str(m);
        }
    }
}

pub(crate) fn get_synth_error(r: &mut Reader) -> Result<SynthError, String> {
    Ok(match r.u8("error tag")? {
        0 => SynthError::Expand(r.str("error message")?),
        1 => SynthError::NoImplementation(r.str("error message")?),
        other => return Err(format!("unknown error tag {other}")),
    })
}

// ---------------------------------------------------------------------
// Sections: the self-contained byte blobs a segment header points at.
// Each decoder consumes its entire slice ("trailing bytes" otherwise), so
// a header pointing at the wrong range cannot silently half-parse.

/// Encodes every memoized answer as its own section, so a segment's
/// header can index them for lazy per-spec decode. Sections are
/// self-contained: an `Ok` answer carries its implementation DAG and the
/// templates it uses.
pub(crate) fn encode_result_sections(results: &[ResultEntry]) -> Vec<(ComponentSpec, Vec<u8>)> {
    results
        .iter()
        .map(|(spec, result)| {
            let mut w = Writer::new();
            match result {
                Err(error) => {
                    w.u8(0);
                    put_synth_error(&mut w, error);
                }
                Ok(set) => {
                    w.u8(1);
                    put_answer(&mut w, set);
                }
            }
            (spec.clone(), w.into_bytes())
        })
        .collect()
}

/// Hash-conses the alternatives' implementation trees into one DAG whose
/// nodes are `(spec, choice)` pairs. Nodes are pushed bottom-up, so every
/// child index is below its parent's. Specs, cell names and templates
/// are interned into tables of their own, so the node table is plain
/// integers.
#[derive(Default)]
struct DagWriter<'a> {
    specs: Vec<&'a ComponentSpec>,
    spec_index: HashMap<&'a ComponentSpec, u32>,
    names: Vec<&'a str>,
    name_index: HashMap<&'a str, u32>,
    templates: Vec<&'a NetlistTemplate>,
    template_index: HashMap<*const NetlistTemplate, u32>,
    nodes: Vec<DagNode>,
    node_index: HashMap<DagNode, u32>,
    /// Shared subtrees are walked once (extraction `Arc`-shares every
    /// occurrence of a spec within one alternative).
    by_ptr: HashMap<*const Implementation, u32>,
}

/// One node of an answer's implementation DAG: table indices plus the
/// child node refs (empty for a cell).
#[derive(Clone, PartialEq, Eq, Hash)]
struct DagNode {
    spec: u32,
    netlist: bool,
    /// Cell-name index for a cell, template index for a netlist.
    index: u32,
    children: Vec<u32>,
}

/// Interns `key` into `table`, returning its index.
fn intern<K: std::hash::Hash + Eq, V>(
    table: &mut Vec<V>,
    index: &mut HashMap<K, u32>,
    key: K,
    value: V,
) -> u32 {
    *index.entry(key).or_insert_with(|| {
        table.push(value);
        (table.len() - 1) as u32
    })
}

impl<'a> DagWriter<'a> {
    fn node(&mut self, implementation: &'a Implementation) -> u32 {
        let spec = &implementation.spec;
        let spec = intern(&mut self.specs, &mut self.spec_index, spec, spec);
        let node = match &implementation.kind {
            ImplKind::Cell { name } => DagNode {
                spec,
                netlist: false,
                index: intern(&mut self.names, &mut self.name_index, name, name),
                children: Vec::new(),
            },
            ImplKind::Netlist { template, children } => DagNode {
                spec,
                netlist: true,
                index: intern(
                    &mut self.templates,
                    &mut self.template_index,
                    Arc::as_ptr(template),
                    template,
                ),
                children: children.iter().map(|child| self.shared(child)).collect(),
            },
        };
        intern(&mut self.nodes, &mut self.node_index, node.clone(), node)
    }

    fn shared(&mut self, implementation: &'a Arc<Implementation>) -> u32 {
        let ptr = Arc::as_ptr(implementation);
        if let Some(&id) = self.by_ptr.get(&ptr) {
            return id;
        }
        let id = self.node(implementation);
        self.by_ptr.insert(ptr, id);
        id
    }
}

/// Writes an `Ok` answer. The node table comes first and is fixed-width
/// but for its child lists: per node, spec index, kind (0 cell, 1
/// netlist), cell-name or template index, child count, child refs. Then
/// the spec, cell-name and template tables, the alternatives (each
/// pointing at its root node) and the accounting.
fn put_answer(w: &mut Writer, set: &DesignSet) {
    let mut dag = DagWriter::default();
    let roots: Vec<u32> = set
        .alternatives
        .iter()
        .map(|alt| dag.node(&alt.implementation))
        .collect();
    w.usize32(dag.specs.len());
    w.usize32(dag.nodes.len());
    for node in &dag.nodes {
        w.u32(node.spec);
        w.bool(node.netlist);
        w.u32(node.index);
        w.usize32(node.children.len());
        for &child in &node.children {
            w.u32(child);
        }
    }
    for spec in &dag.specs {
        put_spec(w, spec);
    }
    w.usize32(dag.names.len());
    for name in &dag.names {
        w.str(name);
    }
    w.usize32(dag.templates.len());
    for template in &dag.templates {
        put_template(w, template);
    }
    w.usize32(set.alternatives.len());
    for (alt, root) in set.alternatives.iter().zip(roots) {
        w.f64(alt.area);
        w.f64(alt.delay);
        put_timing(w, &alt.timing);
        w.u32(root);
    }
    w.f64(set.unconstrained_size);
    w.f64(set.unconstrained_log10);
    match set.uniform_size {
        None => w.bool(false),
        Some(n) => {
            w.bool(true);
            w.u64(n);
        }
    }
    w.u64(set.stats.spec_nodes as u64);
    w.u64(set.stats.impl_choices as u64);
    w.u64(set.stats.truncated_combinations);
}

/// Decodes an implementation DAG and checks it node by node: every child
/// below its parent, every template index in range, one child per module
/// (none for a cell), and each child implementing exactly its module's
/// spec.
fn get_dag(r: &mut Reader) -> Result<Vec<Arc<Implementation>>, Rejection> {
    let spec_count = r.len("answer spec")?;
    let node_count = r.len("implementation node")?;
    let mut table = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let spec = r.u32("node spec")?;
        let netlist = r.bool("node kind")?;
        let index = r.u32("node cell or template")?;
        let children = (0..r.len("child ref")?)
            .map(|_| r.u32("child ref"))
            .collect::<Result<Vec<u32>, String>>()?;
        table.push(DagNode {
            spec,
            netlist,
            index,
            children,
        });
    }
    let specs = (0..spec_count)
        .map(|_| get_spec(r))
        .collect::<Result<Vec<_>, String>>()?;
    let names = (0..r.len("cell name")?)
        .map(|_| r.str("cell name"))
        .collect::<Result<Vec<_>, String>>()?;
    let templates = (0..r.len("template")?)
        .map(|_| get_template(r).map(Arc::new))
        .collect::<Result<Vec<_>, String>>()?;
    let mut nodes: Vec<Arc<Implementation>> = Vec::with_capacity(node_count);
    for (node, entry) in table.into_iter().enumerate() {
        let spec = specs
            .get(entry.spec as usize)
            .ok_or_else(|| format!("node {node} names spec {} of {spec_count}", entry.spec))?;
        let index = entry.index as usize;
        let kind = if entry.netlist {
            let template = templates
                .get(index)
                .ok_or(AnswerDefect::TemplateOutOfRange {
                    node,
                    index,
                    templates: templates.len(),
                })?;
            if entry.children.len() != template.modules.len() {
                return Err(Rejection::Answer(AnswerDefect::ChildCount {
                    node,
                    children: entry.children.len(),
                    modules: template.modules.len(),
                }));
            }
            let mut children = Vec::with_capacity(entry.children.len());
            for (module, (&child, instance)) in
                entry.children.iter().zip(&template.modules).enumerate()
            {
                let child = child as usize;
                // Only the nodes below this one are built yet.
                let built = nodes
                    .get(child)
                    .ok_or(AnswerDefect::ChildNotBelowParent { node, child })?;
                if built.spec != instance.spec {
                    return Err(Rejection::Answer(AnswerDefect::ChildSpec { node, module }));
                }
                children.push(Arc::clone(built));
            }
            ImplKind::Netlist {
                template: Arc::clone(template),
                children,
            }
        } else {
            if !entry.children.is_empty() {
                return Err(Rejection::Answer(AnswerDefect::ChildCount {
                    node,
                    children: entry.children.len(),
                    modules: 0,
                }));
            }
            let name = names
                .get(index)
                .ok_or_else(|| format!("node {node} names cell {index} of {}", names.len()))?;
            ImplKind::Cell { name: name.clone() }
        };
        nodes.push(Arc::new(Implementation {
            spec: spec.clone(),
            kind,
        }));
    }
    Ok(nodes)
}

fn get_answer(r: &mut Reader, spec: &ComponentSpec) -> Result<DesignSet, Rejection> {
    let nodes = get_dag(r)?;
    let alt_count = r.len("alternative")?;
    let mut alternatives = Vec::with_capacity(alt_count);
    for alternative in 0..alt_count {
        let area = r.f64("alternative area")?;
        let delay = r.f64("alternative delay")?;
        let timing = get_timing(r)?;
        let root = r.u32("alternative root")? as usize;
        let implementation = nodes
            .get(root)
            .filter(|node| node.spec == *spec)
            .ok_or(AnswerDefect::Root { alternative })?;
        alternatives.push(Alternative {
            area,
            delay,
            timing,
            implementation: Implementation::clone(implementation),
        });
    }
    let unconstrained_size = r.f64("unconstrained size")?;
    let unconstrained_log10 = r.f64("unconstrained log10")?;
    let uniform_size = if r.bool("uniform presence")? {
        Some(r.u64("uniform size")?)
    } else {
        None
    };
    let stats = SynthStats {
        spec_nodes: r.u64("stat spec_nodes")? as usize,
        impl_choices: r.u64("stat impl_choices")? as usize,
        // Restamped per call on delivery.
        elapsed: Duration::ZERO,
        truncated_combinations: r.u64("stat truncation")?,
    };
    Ok(DesignSet {
        spec: spec.clone(),
        alternatives,
        unconstrained_size,
        unconstrained_log10,
        uniform_size,
        stats,
    })
}

/// Decodes one answer section for `spec`. This is the lazy read path: it
/// runs when a spec is first requested, not at load, and needs nothing
/// but the section's own bytes.
pub(crate) fn decode_result_body(
    bytes: &[u8],
    spec: &ComponentSpec,
) -> Result<Result<Arc<DesignSet>, SynthError>, Rejection> {
    let mut r = Reader::new(bytes);
    let result = match r.u8("result tag")? {
        0 => Err(get_synth_error(&mut r)?),
        1 => Ok(Arc::new(get_answer(&mut r, spec)?)),
        other => return Err(format!("unknown result tag {other}").into()),
    };
    if r.remaining() != 0 {
        return Err(format!("{} trailing bytes after result", r.remaining()).into());
    }
    Ok(result)
}
