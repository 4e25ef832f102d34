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
use crate::template::{Drive, Module, Names, Net, NetlistTemplate, Node, Pin};
use crate::SynthError;
use genus::component::PortClass;
use genus::kind::{ComponentKind, GateOp};
use genus::op::Op;
use genus::spec::ComponentSpec;
use rtl_base::bits::Bits;
use rtl_base::hash::StableHasher;
use std::collections::HashMap;
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
/// instead of FNV-1a; v7 stores templates index-addressed, as they are
/// held: the name table is sorted and cut by end offsets, and each
/// template's nets, wiring arena (nodes referring to nets by index and to
/// earlier nodes by index), module pins and drives and parent outputs
/// are arrays read straight into place, and a decode rejects wiring that
/// is not a forest of trees at most 64 deep.
pub const FORMAT_VERSION: u32 = 7;

/// How deep a decoded template's wiring may nest. Rules' wiring nests a
/// handful of levels; anything deeper is a damaged file.
pub(crate) const MAX_WIRING_DEPTH: u8 = 64;

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
/// parent's. The spec table holds every node and module spec in
/// first-seen order; the name table every cell name and every name of
/// every template's own table, sorted when the section is written, so
/// each template's symbols map onto it in order.
#[derive(Default)]
struct SectionWriter<'a> {
    specs: Vec<&'a ComponentSpec>,
    spec_index: Table<&'a ComponentSpec>,
    /// Names in first-seen order: a provisional symbol is a position here.
    strings: Vec<&'a str>,
    string_index: Table<&'a str>,
    templates: Vec<&'a NetlistTemplate>,
    template_index: HashMap<*const NetlistTemplate, u32>,
    /// Each distinct template name table's provisional symbols.
    tables: HashMap<*const Names, Vec<u32>>,
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
    /// Name symbol of a cell, template index of a netlist.
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

    /// A template's index, tabling its module specs and its name table's
    /// names on first sight.
    fn template(&mut self, template: &'a Arc<NetlistTemplate>) -> u32 {
        let ptr = Arc::as_ptr(template);
        if let Some(&id) = self.template_index.get(&ptr) {
            return id;
        }
        let names: &'a Names = &template.names;
        if !self.tables.contains_key(&(names as *const Names)) {
            let symbols = (0..names.len() as u32)
                .map(|sym| self.string(names.get(sym)))
                .collect();
            self.tables.insert(names as *const Names, symbols);
        }
        for module in &template.modules {
            self.spec(&module.spec);
        }
        let id = self.templates.len() as u32;
        self.templates.push(template);
        self.template_index.insert(ptr, id);
        id
    }
}

/// Writes one template, every name as a section symbol (`symbols` maps
/// its own table's symbols there, in order) and every module spec as a
/// spec index: the rule, the nets, the wiring arena (constants inline),
/// the modules with their pins and drives, and the parent outputs.
fn put_template(
    w: &mut Writer,
    t: &NetlistTemplate,
    symbols: &[u32],
    spec_index: &Table<&ComponentSpec>,
) {
    let sym = |s: u32| symbols[s as usize];
    w.u32(sym(t.rule));
    w.usize32(t.nets.len());
    for net in &t.nets {
        w.u32(sym(net.name));
        match net.width {
            Some(width) => {
                w.bool(true);
                w.u32(width);
            }
            None => w.bool(false),
        }
    }
    w.usize32(t.nodes.len());
    w.usize32(t.parts.len());
    for &part in &t.parts {
        w.u32(part);
    }
    for node in &t.nodes {
        match *node {
            Node::Net(net) => {
                w.u8(0);
                w.u32(net);
            }
            Node::Parent(port) => {
                w.u8(1);
                w.u32(sym(port));
            }
            Node::Const(c) => {
                w.u8(2);
                put_bits(w, &t.consts[c as usize]);
            }
            Node::Slice { of, lo, len } => {
                w.u8(3);
                w.u32(of);
                w.u32(lo);
                w.u32(len);
            }
            Node::Cat { start, end } => {
                w.u8(4);
                w.u32(start);
                w.u32(end);
            }
            Node::Replicate { of, n } => {
                w.u8(5);
                w.u32(of);
                w.u32(n);
            }
        }
    }
    w.usize32(t.modules.len());
    for module in &t.modules {
        w.u32(sym(module.name));
        w.u32(spec_index[&module.spec]);
        let (start, end) = module.pins;
        w.usize32((end - start) as usize);
        for pin in &t.pins[start as usize..end as usize] {
            w.u32(sym(pin.port));
            w.u32(pin.node);
        }
        let (start, end) = module.drives;
        w.usize32((end - start) as usize);
        for drive in &t.drives[start as usize..end as usize] {
            w.u32(sym(drive.port));
            w.u32(drive.net);
        }
    }
    w.usize32(t.outputs.len());
    for pin in &t.outputs {
        w.u32(sym(pin.port));
        w.u32(pin.node);
    }
}

/// Writes an `Ok` answer. The node table comes first and is fixed-width
/// but for its child lists: per node, spec index, kind (0 cell, 1
/// netlist), cell-name symbol or template index, child count, child refs.
/// Then the spec table, the name table (count, each name's end offset,
/// the names back to back, sorted), the templates, the alternatives (each
/// pointing at its root node) and the accounting.
fn put_answer(w: &mut Writer, set: &DesignSet) {
    let mut section = SectionWriter::default();
    let roots: Vec<u32> = set
        .alternatives
        .iter()
        .map(|alt| section.node(&alt.implementation))
        .collect();
    // Sort the names; `rank` takes a provisional symbol to its place.
    let mut order: Vec<u32> = (0..section.strings.len() as u32).collect();
    order.sort_unstable_by_key(|&s| section.strings[s as usize]);
    let mut rank = vec![0u32; order.len()];
    for (place, &s) in order.iter().enumerate() {
        rank[s as usize] = place as u32;
    }
    w.usize32(section.specs.len());
    w.usize32(section.nodes.len());
    for node in &section.nodes {
        w.u32(node.spec);
        w.bool(node.netlist);
        w.u32(if node.netlist {
            node.index
        } else {
            rank[node.index as usize]
        });
        w.usize32(node.children.len());
        for &child in &node.children {
            w.u32(child);
        }
    }
    for spec in &section.specs {
        put_spec(w, spec);
    }
    w.usize32(order.len());
    let mut end = 0;
    for &s in &order {
        end += section.strings[s as usize].len();
        w.usize32(end);
    }
    for &s in &order {
        w.bytes(section.strings[s as usize].as_bytes());
    }
    w.usize32(section.templates.len());
    for template in &section.templates {
        let symbols: Vec<u32> = section.tables[&Arc::as_ptr(&template.names)]
            .iter()
            .map(|&s| rank[s as usize])
            .collect();
        put_template(w, template, &symbols, &section.spec_index);
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

/// Reads a section's name table: the names' end offsets, then the names
/// back to back. Every end must fall on a character boundary and the
/// names must strictly increase, so a symbol's order is its name's.
fn get_names(r: &mut Reader) -> Result<Names, String> {
    let count = r.len("name")?;
    let mut ends = Vec::with_capacity(count);
    for _ in 0..count {
        let end = r.u32("name end")?;
        if ends.last().is_some_and(|&prev| end < prev) {
            return Err("name ends out of order".into());
        }
        ends.push(end);
    }
    let len = ends.last().map_or(0, |&end| end as usize);
    let text = std::str::from_utf8(r.take(len, "names")?).map_err(|_| "non-UTF-8 names")?;
    if !ends.iter().all(|&end| text.is_char_boundary(end as usize)) {
        return Err("a name ends inside a character".into());
    }
    let names = Names::new(text.to_owned(), ends);
    for sym in 1..names.len() as u32 {
        if names.get(sym - 1) >= names.get(sym) {
            return Err("names out of order".into());
        }
    }
    Ok(names)
}

/// A section's decoded spec table and its name table. Every index into
/// either is checked here.
struct Tables {
    specs: Vec<ComponentSpec>,
    names: Arc<Names>,
}

impl Tables {
    fn spec(&self, index: u32) -> Result<&ComponentSpec, AnswerDefect> {
        self.specs
            .get(index as usize)
            .ok_or(AnswerDefect::SpecOutOfRange {
                index: index as usize,
                specs: self.specs.len(),
            })
    }

    fn sym(&self, index: u32) -> Result<u32, AnswerDefect> {
        if (index as usize) < self.names.len() {
            Ok(index)
        } else {
            Err(AnswerDefect::SymbolOutOfRange {
                index: index as usize,
                symbols: self.names.len(),
            })
        }
    }

    /// Reads a symbol and checks it against the name table.
    fn get_sym(&self, r: &mut Reader, what: &str) -> Result<u32, Rejection> {
        Ok(self.sym(r.u32(what)?)?)
    }

    /// Reads a port-to-node binding list, sorted by port name, each pin
    /// taking the one reference to a node of the arena `referenced` marks.
    fn get_pins(
        &self,
        r: &mut Reader,
        template: usize,
        referenced: &mut [bool],
        pins: &mut Vec<Pin>,
    ) -> Result<(u32, u32), Rejection> {
        let start = pins.len();
        for _ in 0..r.len("pin")? {
            let port = self.get_sym(r, "pin port")?;
            let node = r.u32("pin node")?;
            let Some(taken) = referenced.get_mut(node as usize) else {
                return Err(Rejection::Answer(AnswerDefect::NodeOutOfRange {
                    template,
                    index: node as usize,
                    nodes: referenced.len(),
                }));
            };
            if std::mem::replace(taken, true) {
                return Err(Rejection::Answer(AnswerDefect::WiringShared {
                    template,
                    node: node as usize,
                }));
            }
            if pins.len() > start && pins[pins.len() - 1].port >= port {
                return Err("pins out of name order".to_string().into());
            }
            pins.push(Pin { port, node });
        }
        Ok((start as u32, pins.len() as u32))
    }

    /// Reads the `template`-th template straight into its arrays,
    /// range-checking every symbol, spec, net, node and part index and
    /// checking that every array is sorted by name and that the wiring is
    /// a forest of shallow trees: every node refers only to nodes below
    /// it, nests at most [`MAX_WIRING_DEPTH`] deep, and is referred to at
    /// most once, by one node, pin or output, as a builder writes it. The
    /// walkers of a template recurse, so a decoded one must be no deeper
    /// and no larger unfolded than a built one.
    fn get_template(&self, r: &mut Reader, template: usize) -> Result<NetlistTemplate, Rejection> {
        let rule = self.get_sym(r, "rule name")?;
        let net_count = r.len("net")?;
        let mut nets: Vec<Net> = Vec::with_capacity(net_count);
        for _ in 0..net_count {
            let name = self.get_sym(r, "net name")?;
            let width = match r.bool("net declared")? {
                true => Some(r.u32("net width")?),
                false => None,
            };
            if nets.last().is_some_and(|prev| prev.name >= name) {
                return Err("nets out of name order".to_string().into());
            }
            nets.push(Net { name, width });
        }
        let node_count = r.len("wiring node")?;
        let part_count = r.len("cat part")?;
        let mut parts = Vec::with_capacity(part_count);
        for _ in 0..part_count {
            let part = r.u32("cat part")?;
            if part as usize >= node_count {
                return Err(Rejection::Answer(AnswerDefect::NodeOutOfRange {
                    template,
                    index: part as usize,
                    nodes: node_count,
                }));
            }
            parts.push(part);
        }
        let mut nodes = Vec::with_capacity(node_count);
        let mut consts = Vec::new();
        // Each node's depth (a leaf is 1), and whether anything refers to
        // it yet.
        let mut depths: Vec<u8> = Vec::with_capacity(node_count);
        let mut referenced = vec![false; node_count];
        for node in 0..node_count {
            // Takes the one reference to `child` and gives its depth.
            let mut refer = |child: u32| {
                let child = child as usize;
                if child >= node {
                    Err(Rejection::Answer(AnswerDefect::WiringNotBelow {
                        template,
                        node,
                        child,
                    }))
                } else if std::mem::replace(&mut referenced[child], true) {
                    Err(Rejection::Answer(AnswerDefect::WiringShared {
                        template,
                        node: child,
                    }))
                } else {
                    Ok(depths[child])
                }
            };
            let (wiring, below) = match r.u8("wiring tag")? {
                0 => {
                    let net = r.u32("net index")?;
                    if net as usize >= nets.len() {
                        return Err(Rejection::Answer(AnswerDefect::NetOutOfRange {
                            template,
                            index: net as usize,
                            nets: nets.len(),
                        }));
                    }
                    (Node::Net(net), 0)
                }
                1 => (Node::Parent(self.get_sym(r, "parent port")?), 0),
                2 => {
                    consts.push(get_bits(r)?);
                    (Node::Const(consts.len() as u32 - 1), 0)
                }
                3 => {
                    let of = r.u32("slice of")?;
                    let below = refer(of)?;
                    let lo = r.u32("slice lo")?;
                    let len = r.u32("slice len")?;
                    (Node::Slice { of, lo, len }, below)
                }
                4 => {
                    let start = r.u32("cat start")?;
                    let end = r.u32("cat end")?;
                    if start > end || end as usize > parts.len() {
                        return Err(Rejection::Answer(AnswerDefect::PartOutOfRange {
                            template,
                            node,
                            end: end as usize,
                            parts: parts.len(),
                        }));
                    }
                    let mut below = 0;
                    for &part in &parts[start as usize..end as usize] {
                        below = below.max(refer(part)?);
                    }
                    (Node::Cat { start, end }, below)
                }
                5 => {
                    let of = r.u32("replicate of")?;
                    let below = refer(of)?;
                    let n = r.u32("replicate count")?;
                    (Node::Replicate { of, n }, below)
                }
                other => return Err(format!("unknown wiring tag {other}").into()),
            };
            if below >= MAX_WIRING_DEPTH {
                return Err(Rejection::Answer(AnswerDefect::WiringTooDeep {
                    template,
                    node,
                    depth: below as usize + 1,
                }));
            }
            nodes.push(wiring);
            depths.push(below + 1);
        }
        let module_count = r.len("module")?;
        let mut modules = Vec::with_capacity(module_count);
        let (mut pins, mut drives): (Vec<Pin>, Vec<Drive>) = (Vec::new(), Vec::new());
        for _ in 0..module_count {
            let name = self.get_sym(r, "module name")?;
            let spec = self.spec(r.u32("module spec")?)?.clone();
            let module_pins = self.get_pins(r, template, &mut referenced, &mut pins)?;
            let start = drives.len();
            for _ in 0..r.len("module output")? {
                let port = self.get_sym(r, "output port")?;
                let net = r.u32("output net")?;
                if net as usize >= nets.len() {
                    return Err(Rejection::Answer(AnswerDefect::NetOutOfRange {
                        template,
                        index: net as usize,
                        nets: nets.len(),
                    }));
                }
                if drives.len() > start && drives[drives.len() - 1].port >= port {
                    return Err("module outputs out of name order".to_string().into());
                }
                drives.push(Drive { port, net });
            }
            modules.push(Module {
                name,
                spec,
                pins: module_pins,
                drives: (start as u32, drives.len() as u32),
            });
        }
        let mut outputs = Vec::new();
        self.get_pins(r, template, &mut referenced, &mut outputs)?;
        Ok(NetlistTemplate {
            names: Arc::clone(&self.names),
            rule,
            nets,
            modules,
            pins,
            drives,
            outputs,
            nodes,
            parts,
            consts,
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
    let tables = Tables {
        specs,
        names: Arc::new(get_names(r)?),
    };
    let templates = (0..r.len("template")?)
        .map(|t| tables.get_template(r, t).map(Arc::new))
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
                name: tables.names.get(tables.sym(entry.index)?).to_string(),
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
    use crate::template::{Signal, TemplateBuilder};
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

    /// A module whose one output `y` drives the net `{name}_y`.
    fn module(
        t: &mut TemplateBuilder,
        name: &str,
        spec: &ComponentSpec,
        inputs: Vec<(&str, Signal)>,
    ) {
        let net = format!("{name}_y");
        t.module(name, spec.clone(), inputs, vec![("y", net.as_str(), 1)]);
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
        let mut inner = TemplateBuilder::new("nand-pair");
        module(&mut inner, "g", &nand, vec![("a", Signal::parent("b"))]);
        inner.output("y", Signal::net("g_y"));
        let shared = netlist(&adder, inner.build(), vec![cell(&nand, "ND2")]);
        let mut outer = TemplateBuilder::new("split-ripple");
        outer.net("hi_y", 4);
        module(
            &mut outer,
            "lo",
            &adder,
            vec![("a", Signal::parent("a").slice(0, 4))],
        );
        module(
            &mut outer,
            "hi",
            &adder,
            vec![("a", nested), ("b", Signal::cuint(4, 9))],
        );
        module(&mut outer, "fix", &nand, vec![]);
        outer.output(
            "y",
            Signal::Cat(vec![Signal::net("lo_y"), Signal::net("hi_y")]),
        );
        let outer = outer.build();
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

    /// Whether any template of `set` holds a wiring node `is` accepts.
    fn uses_wiring(set: &DesignSet, is: fn(&Node) -> bool) -> bool {
        fn walk(i: &Implementation, is: fn(&Node) -> bool) -> bool {
            match &i.kind {
                ImplKind::Cell { .. } => false,
                ImplKind::Netlist { template, children } => {
                    template.nodes.iter().any(is) || children.iter().any(|c| walk(c, is))
                }
            }
        }
        set.alternatives
            .iter()
            .any(|alt| walk(&alt.implementation, is))
    }

    /// Every truncation of a real answer's section decodes to `Err`, and
    /// every byte XOR 0x01 and XOR 0x80 decodes without a panic.
    fn sweep_damage(key: &str) -> Vec<u8> {
        let spec = crate::bench_specs::spec(key);
        let set = crate::Dtas::new(lsi_logic_subset())
            .run(&spec)
            .expect("solves");
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
        bytes
    }

    #[test]
    fn damaged_bytes_of_a_real_answer_decode_to_errors_never_panics() {
        sweep_damage("add:8");
    }

    #[test]
    fn damaged_wiring_of_a_real_answer_decodes_to_errors_never_panics() {
        let spec = crate::bench_specs::spec("cmp:4");
        let set = crate::Dtas::new(lsi_logic_subset())
            .run(&spec)
            .expect("CMP4 solves");
        assert!(uses_wiring(&set, |n| matches!(n, Node::Cat { .. })));
        assert!(uses_wiring(&set, |n| matches!(n, Node::Const(_))));
        sweep_damage("cmp:4");
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

        fn ports(&mut self) -> Vec<(String, Signal)> {
            (0..self.below(4))
                .map(|_| (self.name(), self.signal(0)))
                .collect()
        }

        /// A template whose module specs come from `specs`, so specs
        /// repeat across modules. Ports may repeat, and wiring may read
        /// nets nothing declares.
        fn template(&mut self, specs: &[ComponentSpec]) -> NetlistTemplate {
            let mut t = TemplateBuilder::new(&self.name());
            let mut nets: Vec<String> = Vec::new();
            for _ in 0..self.below(5) {
                let net = self.name();
                if !nets.contains(&net) {
                    t.net(&net, self.below(128));
                    nets.push(net);
                }
            }
            let mut modules: Vec<String> = Vec::new();
            for _ in 0..1 + self.below(3) {
                let name = self.name();
                if modules.contains(&name) {
                    continue;
                }
                let spec = specs[self.below(specs.len())].clone();
                let inputs = self.ports();
                let outputs: Vec<(String, String, usize)> = (0..self.below(3))
                    .map(|_| (self.name(), self.name(), self.below(128)))
                    .collect();
                t.module(
                    &name,
                    spec,
                    inputs,
                    outputs
                        .iter()
                        .map(|(p, n, w)| (p.as_str(), n.as_str(), *w))
                        .collect(),
                );
                modules.push(name);
            }
            for (port, signal) in self.ports() {
                t.output(&port, signal);
            }
            t.build()
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
                .modules()
                .map(|m| self.implementation(m.spec(), depth + 1, specs))
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
