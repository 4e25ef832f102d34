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
//! A section's specs and names are tabled once each: nodes and templates
//! refer to them by index, so a decode parses each spec and validates each
//! name once however many modules repeat it. Answers are all a segment
//! persists: the design space and its solved fronts live only in the
//! engine that explored them.

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
use rtl_base::hash::StableHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
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
/// memoized answer; v6 gives each answer section one spec table and one
/// string table that its nodes and templates index into, and checksums
/// headers and sections with [`word_sum`](rtl_base::hash::word_sum)
/// instead of FNV-1a.
pub const FORMAT_VERSION: u32 = 6;

/// Recursion guard for [`Signal`] trees (real wiring nests a handful of
/// levels; anything deeper is a damaged file).
const MAX_SIGNAL_DEPTH: usize = 64;

// ---------------------------------------------------------------------
// Primitives.

/// Little-endian byte sink.
#[derive(Default)]
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
        self.str_ref(what).map(str::to_owned)
    }

    /// A string borrowed from the buffer, validated but not copied.
    fn str_ref(&mut self, what: &str) -> Result<&'a str, String> {
        let n = self.len(what)?;
        let bytes = self.take(n, what)?;
        std::str::from_utf8(bytes).map_err(|_| format!("non-UTF-8 {what}"))
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

/// An encoder interning table. It hashes with FNV-1a, which on names
/// this short costs less than the default keyed hash and keeps a full
/// checkpoint as fast as format 5's; its keys are the specs and names of
/// the engine's own answers.
type Table<K> = HashMap<K, u32, BuildHasherDefault<StableHasher>>;

/// Hash-conses the alternatives' implementation trees into one DAG whose
/// nodes are `(spec, choice)` pairs, and tables what the section stores
/// once. Nodes are pushed bottom-up, so every child index is below its
/// parent's. The spec table holds every node and module spec, the string
/// table every cell, rule, module, port and net name, each in first-seen
/// order. Templates are encoded as they are first seen, into a buffer of
/// their own, because the tables they add to precede them in the section.
#[derive(Default)]
struct SectionWriter<'a> {
    specs: Vec<&'a ComponentSpec>,
    spec_index: Table<&'a ComponentSpec>,
    strings: Vec<&'a str>,
    string_index: Table<&'a str>,
    templates: Writer,
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
    /// String index of a cell's name, template index of a netlist.
    index: u32,
    children: Vec<u32>,
}

/// Interns `key` into `table`, returning its index.
fn intern<K: Hash + Eq, V, S: BuildHasher>(
    table: &mut Vec<V>,
    index: &mut HashMap<K, u32, S>,
    key: K,
    value: V,
) -> u32 {
    *index.entry(key).or_insert_with(|| {
        table.push(value);
        (table.len() - 1) as u32
    })
}

impl<'a> SectionWriter<'a> {
    fn spec(&mut self, spec: &'a ComponentSpec) -> u32 {
        intern(&mut self.specs, &mut self.spec_index, spec, spec)
    }

    fn string(&mut self, s: &'a str) -> u32 {
        intern(&mut self.strings, &mut self.string_index, s, s)
    }

    fn node(&mut self, implementation: &'a Implementation) -> u32 {
        let spec = self.spec(&implementation.spec);
        let node = match &implementation.kind {
            ImplKind::Cell { name } => DagNode {
                spec,
                netlist: false,
                index: self.string(name),
                children: Vec::new(),
            },
            ImplKind::Netlist { template, children } => DagNode {
                spec,
                netlist: true,
                index: self.template(template),
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

    /// A template's index, encoding it on first sight: its rule, nets,
    /// modules and outputs with every name and module spec as a table
    /// index.
    fn template(&mut self, template: &'a Arc<NetlistTemplate>) -> u32 {
        let ptr = Arc::as_ptr(template);
        if let Some(&id) = self.template_index.get(&ptr) {
            return id;
        }
        let mut w = std::mem::take(&mut self.templates);
        w.u32(self.string(&template.rule));
        w.usize32(template.nets.len());
        for (net, width) in &template.nets {
            w.u32(self.string(net));
            w.u64(*width as u64);
        }
        w.usize32(template.modules.len());
        for module in &template.modules {
            w.u32(self.string(&module.name));
            w.u32(self.spec(&module.spec));
            w.usize32(module.inputs.len());
            for (port, signal) in &module.inputs {
                w.u32(self.string(port));
                self.signal(&mut w, signal);
            }
            w.usize32(module.outputs.len());
            for (port, net) in &module.outputs {
                w.u32(self.string(port));
                w.u32(self.string(net));
            }
        }
        w.usize32(template.outputs.len());
        for (port, signal) in &template.outputs {
            w.u32(self.string(port));
            self.signal(&mut w, signal);
        }
        self.templates = w;
        let id = self.template_index.len() as u32;
        self.template_index.insert(ptr, id);
        id
    }

    fn signal(&mut self, w: &mut Writer, signal: &'a Signal) {
        match signal {
            Signal::Net(n) => {
                w.u8(0);
                w.u32(self.string(n));
            }
            Signal::Parent(p) => {
                w.u8(1);
                w.u32(self.string(p));
            }
            Signal::Const(b) => {
                w.u8(2);
                put_bits(w, b);
            }
            Signal::Slice(inner, lo, len) => {
                w.u8(3);
                self.signal(w, inner);
                w.u64(*lo as u64);
                w.u64(*len as u64);
            }
            Signal::Cat(parts) => {
                w.u8(4);
                w.usize32(parts.len());
                for p in parts {
                    self.signal(w, p);
                }
            }
            Signal::Replicate(inner, n) => {
                w.u8(5);
                self.signal(w, inner);
                w.u64(*n as u64);
            }
        }
    }
}

/// Writes an `Ok` answer. The node table comes first and is fixed-width
/// but for its child lists: per node, spec index, kind (0 cell, 1
/// netlist), cell-name string index or template index, child count,
/// child refs. Then the spec table, the string table, the templates
/// (wiring by string index, module specs by spec index), the
/// alternatives (each pointing at its root node) and the accounting.
fn put_answer(w: &mut Writer, set: &DesignSet) {
    let mut section = SectionWriter::default();
    let roots: Vec<u32> = set
        .alternatives
        .iter()
        .map(|alt| section.node(&alt.implementation))
        .collect();
    w.usize32(section.specs.len());
    w.usize32(section.nodes.len());
    for node in &section.nodes {
        w.u32(node.spec);
        w.bool(node.netlist);
        w.u32(node.index);
        w.usize32(node.children.len());
        for &child in &node.children {
            w.u32(child);
        }
    }
    for spec in &section.specs {
        put_spec(w, spec);
    }
    w.usize32(section.strings.len());
    for s in &section.strings {
        w.str(s);
    }
    w.usize32(section.template_index.len());
    w.bytes(section.templates.as_slice());
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

/// A section's decoded spec table and its string table, borrowed from
/// the section bytes. Every index into either is checked here.
struct Tables<'a> {
    specs: Vec<ComponentSpec>,
    strings: Vec<&'a str>,
}

impl Tables<'_> {
    fn spec(&self, index: u32) -> Result<&ComponentSpec, AnswerDefect> {
        self.specs
            .get(index as usize)
            .ok_or(AnswerDefect::SpecOutOfRange {
                index: index as usize,
                specs: self.specs.len(),
            })
    }

    fn string(&self, index: u32) -> Result<String, AnswerDefect> {
        self.strings
            .get(index as usize)
            .map(|s| s.to_string())
            .ok_or(AnswerDefect::StringOutOfRange {
                index: index as usize,
                strings: self.strings.len(),
            })
    }

    /// Reads a string index and returns its string.
    fn get_string(&self, r: &mut Reader, what: &str) -> Result<String, Rejection> {
        Ok(self.string(r.u32(what)?)?)
    }

    fn get_signal(&self, r: &mut Reader, depth: usize) -> Result<Signal, Rejection> {
        if depth > MAX_SIGNAL_DEPTH {
            let reason = "signal nesting exceeds the codec depth limit";
            return Err(Rejection::Damaged(reason.into()));
        }
        Ok(match r.u8("signal tag")? {
            0 => Signal::Net(self.get_string(r, "net name")?),
            1 => Signal::Parent(self.get_string(r, "parent port")?),
            2 => Signal::Const(get_bits(r)?),
            3 => {
                let inner = self.get_signal(r, depth + 1)?;
                let lo = r.u64("slice lo")? as usize;
                let len = r.u64("slice len")? as usize;
                Signal::Slice(Box::new(inner), lo, len)
            }
            4 => {
                let parts = r.len("cat part")?;
                let mut out = Vec::with_capacity(parts);
                for _ in 0..parts {
                    out.push(self.get_signal(r, depth + 1)?);
                }
                Signal::Cat(out)
            }
            5 => {
                let inner = self.get_signal(r, depth + 1)?;
                let n = r.u64("replicate count")? as usize;
                Signal::Replicate(Box::new(inner), n)
            }
            other => return Err(format!("unknown signal tag {other}").into()),
        })
    }

    fn get_template(&self, r: &mut Reader) -> Result<NetlistTemplate, Rejection> {
        let rule = self.get_string(r, "rule name")?;
        let mut nets = BTreeMap::new();
        for _ in 0..r.len("net")? {
            let net = self.get_string(r, "net name")?;
            nets.insert(net, r.u64("net width")? as usize);
        }
        let modules_len = r.len("module")?;
        let mut modules = Vec::with_capacity(modules_len);
        for _ in 0..modules_len {
            let name = self.get_string(r, "module name")?;
            let spec = self.spec(r.u32("module spec")?)?.clone();
            let mut inputs = BTreeMap::new();
            for _ in 0..r.len("module input")? {
                let port = self.get_string(r, "input port")?;
                inputs.insert(port, self.get_signal(r, 0)?);
            }
            let mut outputs = BTreeMap::new();
            for _ in 0..r.len("module output")? {
                let port = self.get_string(r, "output port")?;
                outputs.insert(port, self.get_string(r, "output net")?);
            }
            modules.push(Module {
                name,
                spec,
                inputs,
                outputs,
            });
        }
        let mut outputs = BTreeMap::new();
        for _ in 0..r.len("template output")? {
            let port = self.get_string(r, "parent output")?;
            outputs.insert(port, self.get_signal(r, 0)?);
        }
        Ok(NetlistTemplate {
            rule,
            nets,
            modules,
            outputs,
        })
    }
}

/// Decodes an implementation DAG and checks it node by node: every spec,
/// string and template index in range, every child below its parent, one
/// child per module (none for a cell), and each child implementing
/// exactly its module's spec.
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
    let strings = (0..r.len("string")?)
        .map(|_| r.str_ref("string"))
        .collect::<Result<Vec<_>, String>>()?;
    let tables = Tables { specs, strings };
    let templates = (0..r.len("template")?)
        .map(|_| tables.get_template(r).map(Arc::new))
        .collect::<Result<Vec<_>, Rejection>>()?;
    let mut nodes: Vec<Arc<Implementation>> = Vec::with_capacity(node_count);
    for (node, entry) in table.into_iter().enumerate() {
        let spec = tables.spec(entry.spec)?;
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
            ImplKind::Cell {
                name: tables.string(entry.index)?,
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use genus::op::ALL_OPS;
    use proptest::prelude::*;

    fn encode(set: &DesignSet) -> Vec<u8> {
        let entry: ResultEntry = (set.spec.clone(), Ok(Arc::new(set.clone())));
        let mut sections = encode_result_sections(std::slice::from_ref(&entry));
        sections.pop().expect("one section").1
    }

    fn decode(bytes: &[u8], spec: &ComponentSpec) -> Result<Arc<DesignSet>, Rejection> {
        Ok(decode_result_body(bytes, spec)?.expect("an Ok answer"))
    }

    /// Asserts two answers equal in every persisted field, down to each
    /// template's wiring.
    fn assert_same(a: &DesignSet, b: &DesignSet) {
        fn tree(a: &Implementation, b: &Implementation) {
            assert_eq!(a.spec, b.spec);
            match (&a.kind, &b.kind) {
                (ImplKind::Cell { name: x }, ImplKind::Cell { name: y }) => assert_eq!(x, y),
                (
                    ImplKind::Netlist {
                        template: tx,
                        children: cx,
                    },
                    ImplKind::Netlist {
                        template: ty,
                        children: cy,
                    },
                ) => {
                    assert_eq!(tx, ty);
                    assert_eq!(cx.len(), cy.len());
                    cx.iter().zip(cy).for_each(|(x, y)| tree(x, y));
                }
                _ => panic!("{} against {}", a.label(), b.label()),
            }
        }
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.alternatives.len(), b.alternatives.len());
        for (x, y) in a.alternatives.iter().zip(&b.alternatives) {
            assert_eq!(x.area.to_bits(), y.area.to_bits());
            assert_eq!(x.delay.to_bits(), y.delay.to_bits());
            assert_eq!(x.timing, y.timing);
            tree(&x.implementation, &y.implementation);
        }
        assert_eq!(
            a.unconstrained_size.to_bits(),
            b.unconstrained_size.to_bits()
        );
        assert_eq!(
            a.unconstrained_log10.to_bits(),
            b.unconstrained_log10.to_bits()
        );
        assert_eq!(a.uniform_size, b.uniform_size);
        assert_eq!(a.stats.spec_nodes, b.stats.spec_nodes);
        assert_eq!(a.stats.impl_choices, b.stats.impl_choices);
        assert_eq!(
            a.stats.truncated_combinations,
            b.stats.truncated_combinations
        );
    }

    fn cell(spec: &ComponentSpec, name: &str) -> Arc<Implementation> {
        Arc::new(Implementation {
            spec: spec.clone(),
            kind: ImplKind::Cell { name: name.into() },
        })
    }

    fn netlist(
        spec: &ComponentSpec,
        template: NetlistTemplate,
        children: Vec<Arc<Implementation>>,
    ) -> Arc<Implementation> {
        Arc::new(Implementation {
            spec: spec.clone(),
            kind: ImplKind::Netlist {
                template: Arc::new(template),
                children,
            },
        })
    }

    fn module(name: &str, spec: &ComponentSpec, inputs: Vec<(&str, Signal)>) -> Module {
        Module {
            name: name.into(),
            spec: spec.clone(),
            inputs: inputs.into_iter().map(|(p, s)| (p.into(), s)).collect(),
            outputs: [("y".to_string(), format!("{name}_y"))].into(),
        }
    }

    fn answer(spec: ComponentSpec, roots: Vec<Implementation>) -> DesignSet {
        DesignSet {
            spec,
            alternatives: roots
                .into_iter()
                .enumerate()
                .map(|(k, implementation)| Alternative {
                    area: 10.5 * (k + 1) as f64,
                    delay: 3.25 / (k + 1) as f64,
                    timing: Timing {
                        arcs: [((PortClass::Data, PortClass::Data), 1.5 + k as f64)].into(),
                        worst: 2.5,
                    },
                    implementation,
                })
                .collect(),
            unconstrained_size: 1e30,
            unconstrained_log10: 30.0,
            uniform_size: Some(12),
            stats: SynthStats {
                spec_nodes: 7,
                impl_choices: 11,
                elapsed: Duration::ZERO,
                truncated_combinations: 3,
            },
        }
    }

    #[test]
    fn a_hand_built_answer_round_trips_equal() {
        let adder = ComponentSpec::new(ComponentKind::AddSub, 4)
            .with_ops(genus::op::OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_style("RIPPLE");
        let nand = ComponentSpec::new(ComponentKind::Gate(GateOp::Nand), 1).with_inputs(2);
        let top = ComponentSpec::new(ComponentKind::AddSub, 8)
            .with_ops(genus::op::OpSet::only(Op::Add))
            .with_carry_out(true);
        // Every signal variant, nested three deep.
        let nested = Signal::Cat(vec![
            Signal::Slice(
                Box::new(Signal::Replicate(Box::new(Signal::parent("a")), 2)),
                1,
                3,
            ),
            Signal::Const(Bits::from_u64(3, 0b101)),
            Signal::net("lo_y"),
        ]);
        // "a", "b" and "y" name ports of both templates, and the styled
        // adder spec is used by two modules.
        let inner = NetlistTemplate {
            rule: "nand-pair".into(),
            nets: [("g_y".to_string(), 1)].into(),
            modules: vec![module("g", &nand, vec![("a", Signal::parent("b"))])],
            outputs: [("y".to_string(), Signal::net("g_y"))].into(),
        };
        let shared = netlist(&adder, inner, vec![cell(&nand, "ND2")]);
        let outer = NetlistTemplate {
            rule: "split-ripple".into(),
            nets: [("lo_y".to_string(), 4), ("hi_y".to_string(), 4)].into(),
            modules: vec![
                module("lo", &adder, vec![("a", Signal::parent("a").slice(0, 4))]),
                module(
                    "hi",
                    &adder,
                    vec![("a", nested), ("b", Signal::cuint(4, 9))],
                ),
                module("fix", &nand, vec![]),
            ],
            outputs: [(
                "y".to_string(),
                Signal::Cat(vec![Signal::net("lo_y"), Signal::net("hi_y")]),
            )]
            .into(),
        };
        let root = netlist(
            &top,
            outer,
            vec![Arc::clone(&shared), shared, cell(&nand, "ND2")],
        );
        let set = answer(top.clone(), vec![Implementation::clone(&root)]);
        let bytes = encode(&set);
        assert_same(&set, &decode(&bytes, &top).expect("decodes"));
        // A net, two wires and a module output name "lo_y"; the section
        // spells it once.
        let spelled = bytes.windows(4).filter(|w| w == b"lo_y").count();
        assert_eq!(spelled, 1);
    }

    #[test]
    fn damaged_bytes_of_a_real_answer_decode_to_errors_never_panics() {
        let spec = crate::bench_specs::spec("add:8");
        let set = crate::Dtas::new(lsi_logic_subset())
            .run(&spec)
            .expect("ADD8 solves");
        let bytes = encode(&set);
        assert_same(&set, &decode(&bytes, &spec).expect("decodes"));
        for len in 0..bytes.len() {
            assert!(
                decode_result_body(&bytes[..len], &spec).is_err(),
                "a {len}-byte prefix decoded"
            );
        }
        let mut damaged = bytes.clone();
        for at in 0..bytes.len() {
            for mask in [0x01, 0x80] {
                damaged[at] ^= mask;
                let _ = decode_result_body(&damaged, &spec);
                damaged[at] ^= mask;
            }
        }
    }

    /// A splitmix64 stream: the proptest draws one seed per case and
    /// builds the whole answer from it.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn flip(&mut self) -> bool {
            self.next() & 1 == 1
        }

        /// One to three characters from a small pool of one- to four-byte
        /// UTF-8 characters, so names repeat within and across templates.
        fn name(&mut self) -> String {
            const CHARS: [char; 8] = ['a', 'b', 'y', '_', 'é', 'Ω', '漢', '🦀'];
            (0..1 + self.below(3))
                .map(|_| CHARS[self.below(CHARS.len())])
                .collect()
        }

        fn spec(&mut self) -> ComponentSpec {
            let kind = match self.below(4) {
                0 => ComponentKind::Gate([GateOp::And, GateOp::Nor, GateOp::Xnor][self.below(3)]),
                1 => ComponentKind::AddSub,
                2 => ComponentKind::Mux,
                _ => ComponentKind::Register,
            };
            let mut spec = ComponentSpec::new(kind, 1 + self.below(64))
                .with_width2(self.below(3))
                .with_inputs(self.below(5))
                .with_carry_in(self.flip())
                .with_carry_out(self.flip())
                .with_enable(self.flip())
                .with_async_set_reset(self.flip())
                .with_group_pg(self.flip());
            for _ in 0..self.below(3) {
                spec.ops.insert(ALL_OPS[self.below(ALL_OPS.len())]);
            }
            if self.flip() {
                spec.style = Some(self.name());
            }
            spec
        }

        /// A signal of any variant; at `depth` 4 only a leaf.
        fn signal(&mut self, depth: usize) -> Signal {
            match self.below(if depth == 4 { 3 } else { 6 }) {
                0 => Signal::Net(self.name()),
                1 => Signal::Parent(self.name()),
                2 => {
                    let width = self.below(80);
                    let bits = self.next();
                    Signal::Const(Bits::from_fn(width, |i| bits >> (i % 64) & 1 == 1))
                }
                3 => Signal::Slice(
                    Box::new(self.signal(depth + 1)),
                    self.below(64),
                    self.below(64),
                ),
                4 => Signal::Cat((0..self.below(4)).map(|_| self.signal(depth + 1)).collect()),
                _ => Signal::Replicate(Box::new(self.signal(depth + 1)), self.below(5)),
            }
        }

        fn ports(&mut self) -> BTreeMap<String, Signal> {
            (0..self.below(4))
                .map(|_| (self.name(), self.signal(0)))
                .collect()
        }

        /// A template whose module specs come from `specs`, so specs
        /// repeat across modules.
        fn template(&mut self, specs: &[ComponentSpec]) -> NetlistTemplate {
            NetlistTemplate {
                rule: self.name(),
                nets: (0..self.below(5))
                    .map(|_| (self.name(), self.below(128)))
                    .collect(),
                modules: (0..1 + self.below(3))
                    .map(|_| Module {
                        name: self.name(),
                        spec: specs[self.below(specs.len())].clone(),
                        inputs: self.ports(),
                        outputs: (0..self.below(3))
                            .map(|_| (self.name(), self.name()))
                            .collect(),
                    })
                    .collect(),
                outputs: self.ports(),
            }
        }

        /// An implementation of `spec`: a cell, or below `depth` 2 a
        /// netlist of a random template over `specs`.
        fn implementation(
            &mut self,
            spec: &ComponentSpec,
            depth: usize,
            specs: &[ComponentSpec],
        ) -> Arc<Implementation> {
            if depth == 2 || self.below(3) == 0 {
                return cell(spec, &self.name());
            }
            let template = self.template(specs);
            let children = template
                .modules
                .iter()
                .map(|m| self.implementation(&m.spec, depth + 1, specs))
                .collect();
            netlist(spec, template, children)
        }
    }

    proptest! {
        #[test]
        fn random_answers_round_trip_equal(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let specs: Vec<ComponentSpec> = (0..1 + g.below(4)).map(|_| g.spec()).collect();
            let spec = g.spec();
            let roots = (0..1 + g.below(3))
                .map(|_| Implementation::clone(&g.implementation(&spec, 0, &specs)))
                .collect();
            let set = answer(spec.clone(), roots);
            assert_same(&set, &decode(&encode(&set), &spec).expect("decodes"));
        }
    }
}
