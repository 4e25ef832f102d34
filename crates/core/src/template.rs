//! Decomposition templates: one level of component decomposition.
//!
//! "A netlist represents one level of component decomposition; its modules
//! represent connected subcomponents. Each module is described by a
//! component specification and will be mapped to one implementation of
//! that specification." (paper §5)
//!
//! A [`NetlistTemplate`] is exactly that netlist: modules carrying
//! [`ComponentSpec`]s, wired by expressions over internal nets, parent
//! ports and constants. Wiring supports slicing, concatenation and
//! replication so templates can express the bit-level wiring of real
//! decompositions (carry chains, partial-product alignment, select
//! fan-out) without fake "wiring components".
//!
//! Rules write wiring as [`Signal`] trees and hand them to a
//! [`TemplateBuilder`]. A built template is index-addressed, in the way
//! a graph addresses edges by node and port index: every name is a `u32`
//! symbol into one sorted name table behind an `Arc`; the nets, each
//! module's input pins and output drives, and the parent outputs sit in
//! arrays sorted by name; and every wiring expression is a node of one
//! arena that refers to nets by index and to earlier nodes by index. The
//! timing-graph compile, the store codec and the exporters read those
//! arrays directly; [`Wire`] and [`ModuleRef`] read them by name.

use genus::behavior::Env;
use genus::build::component_for_spec;
use genus::component::Component;
use genus::spec::ComponentSpec;
use rtl_base::bits::Bits;
use rtl_base::hash::StableHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Arc, RwLock};

/// A wiring expression as a rule writes it, for a module input or a
/// parent output; a built template holds it as [`Wire`] nodes.
#[derive(Clone, Debug, PartialEq)]
pub enum Signal {
    /// An internal net, driven by exactly one module output.
    Net(String),
    /// A parent (template-boundary) input port.
    Parent(String),
    /// A constant.
    Const(Bits),
    /// A bit field of another signal: `(signal, lo, len)`.
    Slice(Box<Signal>, usize, usize),
    /// LSB-first concatenation.
    Cat(Vec<Signal>),
    /// `n` copies of a signal, LSB-first.
    Replicate(Box<Signal>, usize),
}

impl Signal {
    /// References an internal net.
    pub fn net(name: &str) -> Signal {
        Signal::Net(name.to_string())
    }

    /// References a parent input port.
    pub fn parent(name: &str) -> Signal {
        Signal::Parent(name.to_string())
    }

    /// A constant of the given width and value.
    pub fn cuint(width: usize, v: u64) -> Signal {
        Signal::Const(Bits::from_u64(width, v))
    }

    /// Slices `len` bits starting at `lo`.
    pub fn slice(self, lo: usize, len: usize) -> Signal {
        Signal::Slice(Box::new(self), lo, len)
    }

    /// Replicates the signal `n` times.
    pub fn replicate(self, n: usize) -> Signal {
        Signal::Replicate(Box::new(self), n)
    }

    /// The nets and parent ports this signal reads, with the bit ranges
    /// used (conservatively the whole leaf).
    pub fn leaves(&self) -> Vec<&Signal> {
        match self {
            Signal::Net(_) | Signal::Parent(_) => vec![self],
            Signal::Const(_) => Vec::new(),
            Signal::Slice(inner, _, _) | Signal::Replicate(inner, _) => inner.leaves(),
            Signal::Cat(parts) => parts.iter().flat_map(Signal::leaves).collect(),
        }
    }

    /// Evaluates the signal against net/parent values.
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing net or the out-of-range slice.
    pub fn eval(&self, nets: &Env, parents: &Env) -> Result<Bits, String> {
        match self {
            Signal::Net(n) => nets
                .get(n)
                .cloned()
                .ok_or_else(|| format!("net {n} has no value")),
            Signal::Parent(p) => parents
                .get(p)
                .cloned()
                .ok_or_else(|| format!("parent port {p} has no value")),
            Signal::Const(b) => Ok(b.clone()),
            Signal::Slice(inner, lo, len) => {
                let v = inner.eval(nets, parents)?;
                if lo + len > v.width() {
                    return Err(format!(
                        "slice [{lo},{lo}+{len}) out of width {}",
                        v.width()
                    ));
                }
                Ok(v.slice(*lo, *len))
            }
            Signal::Cat(parts) => {
                let mut acc = Bits::zero(0);
                for p in parts {
                    acc = acc.concat(&p.eval(nets, parents)?);
                }
                Ok(acc)
            }
            Signal::Replicate(inner, n) => {
                let v = inner.eval(nets, parents)?;
                let mut acc = Bits::zero(0);
                for _ in 0..*n {
                    acc = acc.concat(&v);
                }
                Ok(acc)
            }
        }
    }

    /// Computes the signal width given net and parent widths.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown references or out-of-range slices.
    pub fn width(
        &self,
        net_width: &dyn Fn(&str) -> Option<usize>,
        parent_width: &dyn Fn(&str) -> Option<usize>,
    ) -> Result<usize, String> {
        match self {
            Signal::Net(n) => net_width(n).ok_or_else(|| format!("unknown net {n}")),
            Signal::Parent(p) => parent_width(p).ok_or_else(|| format!("unknown parent port {p}")),
            Signal::Const(b) => Ok(b.width()),
            Signal::Slice(inner, lo, len) => {
                let w = inner.width(net_width, parent_width)?;
                if lo + len > w {
                    return Err(format!("slice [{lo},{lo}+{len}) out of width {w}"));
                }
                Ok(*len)
            }
            Signal::Cat(parts) => {
                let mut acc = 0;
                for p in parts {
                    acc += p.width(net_width, parent_width)?;
                }
                Ok(acc)
            }
            Signal::Replicate(inner, n) => Ok(inner.width(net_width, parent_width)? * n),
        }
    }
}

/// A name's index in its template's [`Names`] table.
pub(crate) type Sym = u32;

/// An immutable name table: every name once, sorted by its bytes, so one
/// symbol orders before another exactly when its name does. A built
/// template owns one; the templates decoded from one answer section share
/// the section's.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Names {
    /// The names, back to back.
    text: String,
    /// Where each name ends in `text`.
    ends: Vec<u32>,
}

impl Names {
    /// A table over `text` cut at `ends`. The caller has checked that
    /// `ends` rises to `text.len()` on character boundaries and that the
    /// names it cuts strictly increase.
    pub(crate) fn new(text: String, ends: Vec<u32>) -> Names {
        Names { text, ends }
    }

    /// Number of names.
    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }

    /// The name of `sym`.
    pub(crate) fn get(&self, sym: Sym) -> &str {
        let end = self.ends[sym as usize] as usize;
        let start = match sym {
            0 => 0,
            _ => self.ends[sym as usize - 1] as usize,
        };
        &self.text[start..end]
    }
}

/// An internal net: its name and, when the template declares it, its
/// width. A net that wiring reads or a module drives but the template
/// never declares is kept without a width, so validation can name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Net {
    pub(crate) name: Sym,
    pub(crate) width: Option<u32>,
}

/// One node of a template's wiring arena. A node refers to nets by
/// index, to names by symbol, and to other nodes only below itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Node {
    /// An internal net, by index.
    Net(u32),
    /// A parent input port, by symbol.
    Parent(Sym),
    /// A constant, by index into the template's constants.
    Const(u32),
    /// `len` bits of node `of` from bit `lo`.
    Slice { of: u32, lo: u32, len: u32 },
    /// The nodes `parts[start..end]`, LSB-first.
    Cat { start: u32, end: u32 },
    /// `n` copies of node `of`, LSB-first.
    Replicate { of: u32, n: u32 },
}

/// A port bound to a wiring node: a module input pin or a parent output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Pin {
    pub(crate) port: Sym,
    pub(crate) node: u32,
}

/// A module output port driving a net, by index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Drive {
    pub(crate) port: Sym,
    pub(crate) net: u32,
}

/// A subcomponent of a template: a specification plus connectivity. Its
/// input pins and output drives are ranges of the template's arrays.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Module {
    pub(crate) name: Sym,
    pub(crate) spec: ComponentSpec,
    /// `pins[start..end]`, sorted by port name.
    pub(crate) pins: (u32, u32),
    /// `drives[start..end]`, sorted by port name.
    pub(crate) drives: (u32, u32),
}

/// One level of decomposition of a parent specification, index-addressed:
/// every name is a symbol into one shared, sorted name table; the nets,
/// each module's input pins and output drives, and the parent outputs sit
/// in arrays sorted by name; and the wiring expressions share one arena of
/// nodes. Build one with a [`TemplateBuilder`]; read it through the
/// accessors, which answer in name order.
#[derive(Clone)]
pub struct NetlistTemplate {
    pub(crate) names: Arc<Names>,
    pub(crate) rule: Sym,
    /// Sorted by name.
    pub(crate) nets: Vec<Net>,
    pub(crate) modules: Vec<Module>,
    pub(crate) pins: Vec<Pin>,
    pub(crate) drives: Vec<Drive>,
    /// Parent outputs, sorted by port name.
    pub(crate) outputs: Vec<Pin>,
    pub(crate) nodes: Vec<Node>,
    /// The nodes each `Cat` concatenates.
    pub(crate) parts: Vec<u32>,
    pub(crate) consts: Vec<Bits>,
}

/// Binary search of `pins` (sorted by port name) for `port`.
pub(crate) fn find_pin(names: &Names, pins: &[Pin], port: &str) -> Option<u32> {
    pins.binary_search_by(|pin| names.get(pin.port).cmp(port))
        .ok()
        .map(|i| pins[i].node)
}

impl NetlistTemplate {
    /// The rule that produced this template.
    pub fn rule(&self) -> &str {
        self.names.get(self.rule)
    }

    /// The declared internal nets, `(name, width)`, in name order.
    pub fn nets(&self) -> impl Iterator<Item = (&str, usize)> + '_ {
        self.nets.iter().filter_map(move |net| {
            net.width
                .map(|width| (self.names.get(net.name), width as usize))
        })
    }

    /// The width of a declared net.
    pub fn net_width(&self, name: &str) -> Option<usize> {
        let i = self
            .nets
            .binary_search_by(|net| self.names.get(net.name).cmp(name))
            .ok()?;
        self.nets[i].width.map(|w| w as usize)
    }

    /// The subcomponents, in instantiation order.
    pub fn modules(&self) -> impl ExactSizeIterator<Item = ModuleRef<'_>> + '_ {
        self.modules.iter().map(move |module| ModuleRef {
            template: self,
            module,
        })
    }

    /// The `index`-th module.
    ///
    /// # Panics
    ///
    /// When `index` is past the module count.
    pub fn module(&self, index: usize) -> ModuleRef<'_> {
        ModuleRef {
            template: self,
            module: &self.modules[index],
        }
    }

    /// Number of modules.
    pub fn module_count(&self) -> usize {
        self.modules.len()
    }

    /// The parent outputs and the wiring producing each, in name order.
    pub fn outputs(&self) -> impl ExactSizeIterator<Item = (&str, Wire<'_>)> + '_ {
        self.outputs
            .iter()
            .map(move |pin| (self.names.get(pin.port), self.wire(pin.node)))
    }

    /// The wiring producing a parent output.
    pub fn output(&self, port: &str) -> Option<Wire<'_>> {
        find_pin(&self.names, &self.outputs, port).map(|node| self.wire(node))
    }

    fn wire(&self, node: u32) -> Wire<'_> {
        Wire {
            template: self,
            node,
        }
    }

    /// Calls `f` on every net and parent-port node under `node`, in
    /// order.
    pub(crate) fn for_each_leaf(&self, node: u32, f: &mut dyn FnMut(u32)) {
        match self.nodes[node as usize] {
            Node::Net(_) | Node::Parent(_) => f(node),
            Node::Const(_) => {}
            Node::Slice { of, .. } | Node::Replicate { of, .. } => self.for_each_leaf(of, f),
            Node::Cat { start, end } => {
                for &part in &self.parts[start as usize..end as usize] {
                    self.for_each_leaf(part, f);
                }
            }
        }
    }

    /// Structural validation against the parent component's port list:
    /// every module input wired with the right width, every module output
    /// driving a net of the right width, single driver per net, every
    /// parent output produced with the right width, and no dangling parent
    /// input references. The design space runs the same checks in the
    /// walk that compiles the template's timing graph
    /// ([`TimingGraph`](crate::cost::TimingGraph)); this drops the graph.
    ///
    /// # Errors
    ///
    /// [`TemplateError`] naming the offending module/port.
    pub fn validate(
        &self,
        parent: &ComponentSpec,
        cache: &SpecModelCache,
    ) -> Result<(), TemplateError> {
        crate::cost::TimingGraph::compile(self, parent, cache).map(drop)
    }

    /// Equal in everything but the rule name: the same nets, modules
    /// (names, specs and wiring) and parent outputs.
    pub fn same_wiring(&self, other: &NetlistTemplate) -> bool {
        self.nets().eq(other.nets())
            && self.modules.len() == other.modules.len()
            && self.modules().zip(other.modules()).all(|(a, b)| {
                a.name() == b.name()
                    && a.spec() == b.spec()
                    && a.inputs().eq(b.inputs())
                    && a.outputs().eq(b.outputs())
            })
            && self.outputs().eq(other.outputs())
    }
}

/// Templates are equal when their rule names, nets, modules and outputs
/// are, name by name and wire by wire, whichever tables they index.
impl PartialEq for NetlistTemplate {
    fn eq(&self, other: &NetlistTemplate) -> bool {
        self.rule() == other.rule() && self.same_wiring(other)
    }
}

impl fmt::Debug for NetlistTemplate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NetlistTemplate")
            .field("rule", &self.rule())
            .field("nets", &self.nets().collect::<Vec<_>>())
            .field("modules", &self.modules().collect::<Vec<_>>())
            .field("outputs", &self.outputs().collect::<Vec<_>>())
            .finish()
    }
}

/// A module of a [`NetlistTemplate`], read through its template.
#[derive(Clone, Copy)]
pub struct ModuleRef<'a> {
    template: &'a NetlistTemplate,
    module: &'a Module,
}

impl<'a> ModuleRef<'a> {
    /// Instance name, unique within the template.
    pub fn name(self) -> &'a str {
        self.template.names.get(self.module.name)
    }

    /// The required functionality of this module.
    pub fn spec(self) -> &'a ComponentSpec {
        &self.module.spec
    }

    fn pins(self) -> &'a [Pin] {
        let (start, end) = self.module.pins;
        &self.template.pins[start as usize..end as usize]
    }

    /// Input port → wiring, in port-name order.
    pub fn inputs(self) -> impl ExactSizeIterator<Item = (&'a str, Wire<'a>)> {
        let t = self.template;
        self.pins()
            .iter()
            .map(move |pin| (t.names.get(pin.port), t.wire(pin.node)))
    }

    /// Output port → the internal net it drives, in port-name order.
    /// Unlisted outputs dangle.
    pub fn outputs(self) -> impl ExactSizeIterator<Item = (&'a str, &'a str)> {
        let t = self.template;
        let (start, end) = self.module.drives;
        t.drives[start as usize..end as usize]
            .iter()
            .map(move |drive| {
                let net = t.nets[drive.net as usize].name;
                (t.names.get(drive.port), t.names.get(net))
            })
    }
}

impl fmt::Debug for ModuleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Module")
            .field("name", &self.name())
            .field("spec", self.spec())
            .field("inputs", &self.inputs().collect::<Vec<_>>())
            .field("outputs", &self.outputs().collect::<Vec<_>>())
            .finish()
    }
}

/// A wiring expression of a [`NetlistTemplate`]: one node of its arena.
#[derive(Clone, Copy)]
pub struct Wire<'a> {
    template: &'a NetlistTemplate,
    node: u32,
}

/// What a [`Wire`] is, one level deep.
pub enum WireKind<'a> {
    /// An internal net, by name.
    Net(&'a str),
    /// A parent input port, by name.
    Parent(&'a str),
    /// A constant.
    Const(&'a Bits),
    /// `(wire, lo, len)`: a bit field of another wire.
    Slice(Wire<'a>, usize, usize),
    /// LSB-first concatenation.
    Cat(Parts<'a>),
    /// `n` copies of a wire, LSB-first.
    Replicate(Wire<'a>, usize),
}

/// The parts of a concatenation, LSB-first.
#[derive(Clone)]
pub struct Parts<'a> {
    template: &'a NetlistTemplate,
    parts: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for Parts<'a> {
    type Item = Wire<'a>;

    fn next(&mut self) -> Option<Wire<'a>> {
        self.parts.next().map(|&node| self.template.wire(node))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.parts.size_hint()
    }
}

impl DoubleEndedIterator for Parts<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.parts.next_back().map(|&node| self.template.wire(node))
    }
}

impl ExactSizeIterator for Parts<'_> {}

impl<'a> Wire<'a> {
    /// This wire, one level deep.
    pub fn kind(self) -> WireKind<'a> {
        let t = self.template;
        match t.nodes[self.node as usize] {
            Node::Net(net) => WireKind::Net(t.names.get(t.nets[net as usize].name)),
            Node::Parent(port) => WireKind::Parent(t.names.get(port)),
            Node::Const(c) => WireKind::Const(&t.consts[c as usize]),
            Node::Slice { of, lo, len } => WireKind::Slice(t.wire(of), lo as usize, len as usize),
            Node::Cat { start, end } => WireKind::Cat(Parts {
                template: t,
                parts: t.parts[start as usize..end as usize].iter(),
            }),
            Node::Replicate { of, n } => WireKind::Replicate(t.wire(of), n as usize),
        }
    }

    /// The same expression as an owned [`Signal`] tree.
    pub fn to_signal(self) -> Signal {
        match self.kind() {
            WireKind::Net(n) => Signal::net(n),
            WireKind::Parent(p) => Signal::parent(p),
            WireKind::Const(b) => Signal::Const(b.clone()),
            WireKind::Slice(of, lo, len) => of.to_signal().slice(lo, len),
            WireKind::Cat(parts) => Signal::Cat(parts.map(Wire::to_signal).collect()),
            WireKind::Replicate(of, n) => of.to_signal().replicate(n),
        }
    }

    /// The width of this wire, nets taking their template's widths: what
    /// [`Signal::width`] computes for the same expression.
    ///
    /// # Errors
    ///
    /// A message for unknown references or out-of-range slices.
    pub fn width(self, parent_width: &dyn Fn(&str) -> Option<usize>) -> Result<usize, String> {
        let t = self.template;
        self.to_signal()
            .width(&|n: &str| t.net_width(n), parent_width)
    }
}

/// Wires are equal when they are the same expression over the same names.
impl PartialEq for Wire<'_> {
    fn eq(&self, other: &Wire<'_>) -> bool {
        match (self.kind(), other.kind()) {
            (WireKind::Net(a), WireKind::Net(b)) | (WireKind::Parent(a), WireKind::Parent(b)) => {
                a == b
            }
            (WireKind::Const(a), WireKind::Const(b)) => a == b,
            (WireKind::Slice(a, lo, len), WireKind::Slice(b, lo2, len2)) => {
                lo == lo2 && len == len2 && a == b
            }
            (WireKind::Cat(a), WireKind::Cat(b)) => a.eq(b),
            (WireKind::Replicate(a, n), WireKind::Replicate(b, m)) => n == m && a == b,
            _ => false,
        }
    }
}

impl fmt::Debug for Wire<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_signal(), f)
    }
}

/// Shared cache of spec → generic component models (ports + behavior).
///
/// Decomposition, validation, costing and simulation all need the port
/// list (and sometimes the behavioral model) of a [`ComponentSpec`];
/// building one is cheap but not free, and the same specs recur constantly.
///
/// The cache is internally synchronized ([`RwLock`]), so one instance can
/// be shared by reference across the solver's worker threads — model
/// lookups take `&self`.
#[derive(Default)]
pub struct SpecModelCache {
    map: RwLock<HashMap<ComponentSpec, Arc<Component>>>,
}

impl SpecModelCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SpecModelCache::default()
    }

    /// The generic component model for a spec.
    ///
    /// # Errors
    ///
    /// Propagates the build error for unbuildable specs.
    pub fn model(&self, spec: &ComponentSpec) -> Result<Arc<Component>, String> {
        if let Some(c) = self.map.read().expect("model cache poisoned").get(spec) {
            return Ok(Arc::clone(c));
        }
        let c = Arc::new(component_for_spec(spec).map_err(|e| e.to_string())?);
        let mut map = self.map.write().expect("model cache poisoned");
        // A racing builder may have inserted first; keep its copy so every
        // caller sees one canonical Arc per spec.
        let entry = map.entry(spec.clone()).or_insert_with(|| Arc::clone(&c));
        Ok(Arc::clone(entry))
    }

    /// Number of cached models.
    pub fn len(&self) -> usize {
        self.map.read().expect("model cache poisoned").len()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Error found by [`NetlistTemplate::validate`].
#[derive(Clone, Debug, PartialEq)]
pub struct TemplateError {
    /// Rule that produced the template.
    pub rule: String,
    /// What is wrong.
    pub message: String,
}

impl fmt::Display for TemplateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "template from rule {}: {}", self.rule, self.message)
    }
}

impl std::error::Error for TemplateError {}

/// A name-interning table keyed by FNV-1a, which on names this short
/// costs less than the default keyed hash.
type Interner = HashMap<Box<str>, Sym, BuildHasherDefault<StableHasher>>;

/// Fluent construction of templates inside decomposition rules. Names are
/// interned as they arrive and wiring goes into the arena at once; `build`
/// sorts the name table and every array by name.
#[derive(Clone, Debug)]
pub struct TemplateBuilder {
    /// Name → provisional symbol, in first-seen order.
    interner: Interner,
    rule: Sym,
    /// Each provisional symbol's declared net width.
    declared: Vec<Option<u32>>,
    modules: Vec<Module>,
    pins: Vec<Pin>,
    /// Output port → the provisional symbol of the net it drives.
    drives: Vec<(Sym, Sym)>,
    outputs: Vec<(Sym, Signal)>,
    /// `Node::Net` holds a provisional net symbol until `build`.
    nodes: Vec<Node>,
    parts: Vec<u32>,
    consts: Vec<Bits>,
}

/// A width or slice bound as stored in a template.
fn stored(value: usize) -> u32 {
    u32::try_from(value).expect("template width or bit index exceeds u32")
}

impl TemplateBuilder {
    /// Starts a template for the named rule.
    pub fn new(rule: &str) -> Self {
        let mut builder = TemplateBuilder {
            interner: Interner::default(),
            rule: 0,
            declared: Vec::new(),
            modules: Vec::new(),
            pins: Vec::new(),
            drives: Vec::new(),
            outputs: Vec::new(),
            nodes: Vec::new(),
            parts: Vec::new(),
            consts: Vec::new(),
        };
        builder.rule = builder.intern(rule);
        builder
    }

    fn intern(&mut self, name: &str) -> Sym {
        self.intern_new(name).0
    }

    /// `name`'s provisional symbol, and whether it is new.
    fn intern_new(&mut self, name: &str) -> (Sym, bool) {
        if let Some(&sym) = self.interner.get(name) {
            return (sym, false);
        }
        let sym = self.interner.len() as Sym;
        self.interner.insert(name.into(), sym);
        self.declared.push(None);
        (sym, true)
    }

    /// Declares an internal net.
    ///
    /// # Panics
    ///
    /// Panics on duplicate net names (a rule-authoring bug).
    pub fn net(&mut self, name: &str, width: usize) -> &mut Self {
        let sym = self.intern(name);
        let prev = self.declared[sym as usize].replace(stored(width));
        assert!(prev.is_none(), "duplicate net {name}");
        self
    }

    /// Adds a module with its connections. `inputs` wires input ports to
    /// signals; `outputs` binds output ports to internal nets (declared
    /// on the fly with the given widths). A port listed twice keeps its
    /// last binding.
    ///
    /// # Panics
    ///
    /// Panics on duplicate module names (a rule-authoring bug).
    pub fn module<S: AsRef<str>>(
        &mut self,
        name: &str,
        spec: ComponentSpec,
        inputs: Vec<(S, Signal)>,
        outputs: Vec<(&str, &str, usize)>,
    ) -> &mut Self {
        let (name_sym, new) = self.intern_new(name);
        assert!(
            new || !self.modules.iter().any(|m| m.name == name_sym),
            "duplicate module {name}"
        );
        let pin_start = self.pins.len() as u32;
        for (i, (port, signal)) in inputs.iter().enumerate() {
            let port = port.as_ref();
            if inputs[i + 1..]
                .iter()
                .all(|(later, _)| later.as_ref() != port)
            {
                let port = self.intern(port);
                let node = self.wire(signal);
                self.pins.push(Pin { port, node });
            }
        }
        let drive_start = self.drives.len() as u32;
        for (i, &(port, net, width)) in outputs.iter().enumerate() {
            let net_sym = self.intern(net);
            if self.declared[net_sym as usize].is_none() {
                self.net(net, width);
            }
            if outputs[i + 1..].iter().all(|later| later.0 != port) {
                let port = self.intern(port);
                self.drives.push((port, net_sym));
            }
        }
        self.modules.push(Module {
            name: name_sym,
            spec,
            pins: (pin_start, self.pins.len() as u32),
            drives: (drive_start, self.drives.len() as u32),
        });
        self
    }

    /// Produces a parent output from a signal. A port produced twice keeps
    /// its last signal.
    pub fn output(&mut self, port: &str, signal: Signal) -> &mut Self {
        let port = self.intern(port);
        match self.outputs.iter_mut().find(|(p, _)| *p == port) {
            Some(slot) => slot.1 = signal,
            None => self.outputs.push((port, signal)),
        }
        self
    }

    /// Puts `signal` into the arena, children first, and returns its node.
    fn wire(&mut self, signal: &Signal) -> u32 {
        let node = match signal {
            Signal::Net(n) => Node::Net(self.intern(n)),
            Signal::Parent(p) => Node::Parent(self.intern(p)),
            Signal::Const(b) => {
                self.consts.push(b.clone());
                Node::Const(self.consts.len() as u32 - 1)
            }
            Signal::Slice(inner, lo, len) => Node::Slice {
                of: self.wire(inner),
                lo: stored(*lo),
                len: stored(*len),
            },
            Signal::Cat(parts) => {
                let parts: Vec<u32> = parts.iter().map(|p| self.wire(p)).collect();
                let start = self.parts.len() as u32;
                self.parts.extend(parts);
                Node::Cat {
                    start,
                    end: self.parts.len() as u32,
                }
            }
            Signal::Replicate(inner, n) => Node::Replicate {
                of: self.wire(inner),
                n: stored(*n),
            },
        };
        self.nodes.push(node);
        self.nodes.len() as u32 - 1
    }

    /// Finishes the template: sorts the name table, renumbers every symbol
    /// by it, and sorts the nets, each module's pins and drives, and the
    /// parent outputs by name.
    pub fn build(mut self) -> NetlistTemplate {
        let outputs = std::mem::take(&mut self.outputs);
        let outputs: Vec<(Sym, u32)> = outputs
            .iter()
            .map(|(port, signal)| (*port, self.wire(signal)))
            .collect();

        let mut sorted: Vec<(Box<str>, Sym)> =
            std::mem::take(&mut self.interner).into_iter().collect();
        sorted.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut remap = vec![0 as Sym; sorted.len()];
        let mut text = String::with_capacity(sorted.iter().map(|(name, _)| name.len()).sum());
        let mut ends = Vec::with_capacity(sorted.len());
        for (sym, (name, provisional)) in sorted.iter().enumerate() {
            remap[*provisional as usize] = sym as Sym;
            text.push_str(name);
            ends.push(text.len() as u32);
        }

        // A net is every declared name, and every name wiring reads as a
        // net without declaring it; walking the names in sorted order
        // lists them sorted.
        let mut is_net: Vec<bool> = self.declared.iter().map(Option::is_some).collect();
        for node in &self.nodes {
            if let Node::Net(net) = *node {
                is_net[net as usize] = true;
            }
        }
        let mut nets = Vec::new();
        let mut net_index = vec![u32::MAX; remap.len()];
        for (sym, (_, provisional)) in sorted.iter().enumerate() {
            let p = *provisional as usize;
            if is_net[p] {
                net_index[p] = nets.len() as u32;
                nets.push(Net {
                    name: sym as Sym,
                    width: self.declared[p],
                });
            }
        }
        for node in &mut self.nodes {
            match node {
                Node::Net(net) => *net = net_index[*net as usize],
                Node::Parent(port) => *port = remap[*port as usize],
                _ => {}
            }
        }
        for module in &mut self.modules {
            module.name = remap[module.name as usize];
            let (start, end) = module.pins;
            let pins = &mut self.pins[start as usize..end as usize];
            for pin in pins.iter_mut() {
                pin.port = remap[pin.port as usize];
            }
            pins.sort_unstable_by_key(|pin| pin.port);
        }
        let mut drives: Vec<Drive> = self
            .drives
            .iter()
            .map(|&(port, net)| Drive {
                port: remap[port as usize],
                net: net_index[net as usize],
            })
            .collect();
        for module in &self.modules {
            let (start, end) = module.drives;
            drives[start as usize..end as usize].sort_unstable_by_key(|drive| drive.port);
        }
        let mut outputs: Vec<Pin> = outputs
            .into_iter()
            .map(|(port, node)| Pin {
                port: remap[port as usize],
                node,
            })
            .collect();
        outputs.sort_unstable_by_key(|pin| pin.port);
        NetlistTemplate {
            names: Arc::new(Names::new(text, ends)),
            rule: remap[self.rule as usize],
            nets,
            modules: self.modules,
            pins: self.pins,
            drives,
            outputs,
            nodes: self.nodes,
            parts: self.parts,
            consts: self.consts,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus::component::PortDir;
    use genus::kind::{ComponentKind, GateOp};
    use genus::op::{Op, OpSet};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    /// Builder input, kept as plain data so a test can edit it before
    /// replaying it into a [`TemplateBuilder`] or into the map model.
    #[derive(Clone, Debug)]
    struct Plan {
        rule: String,
        nets: Vec<(String, usize)>,
        modules: Vec<PlanModule>,
        outputs: Vec<(String, Signal)>,
    }

    #[derive(Clone, Debug)]
    struct PlanModule {
        name: String,
        spec: ComponentSpec,
        inputs: Vec<(String, Signal)>,
        outputs: Vec<(String, String, usize)>,
    }

    /// The map form templates had before they were index-addressed: the
    /// reference the flat form is checked against.
    #[derive(Clone, Debug, PartialEq)]
    struct MapTemplate {
        rule: String,
        nets: BTreeMap<String, usize>,
        modules: Vec<MapModule>,
        outputs: BTreeMap<String, Signal>,
    }

    #[derive(Clone, Debug, PartialEq)]
    struct MapModule {
        name: String,
        spec: ComponentSpec,
        inputs: BTreeMap<String, Signal>,
        outputs: BTreeMap<String, String>,
    }

    impl Plan {
        fn build(&self) -> NetlistTemplate {
            let mut t = TemplateBuilder::new(&self.rule);
            for (net, width) in &self.nets {
                t.net(net, *width);
            }
            for m in &self.modules {
                t.module(
                    &m.name,
                    m.spec.clone(),
                    m.inputs.clone(),
                    m.outputs
                        .iter()
                        .map(|(p, n, w)| (p.as_str(), n.as_str(), *w))
                        .collect(),
                );
            }
            for (port, signal) in &self.outputs {
                t.output(port, signal.clone());
            }
            t.build()
        }

        /// What the builder made of the same input when it filled maps:
        /// a repeated port keeps its last binding.
        fn model(&self) -> MapTemplate {
            let mut nets: BTreeMap<String, usize> = self.nets.iter().cloned().collect();
            let modules = self
                .modules
                .iter()
                .map(|m| {
                    let mut outputs = BTreeMap::new();
                    for (port, net, width) in &m.outputs {
                        nets.entry(net.clone()).or_insert(*width);
                        outputs.insert(port.clone(), net.clone());
                    }
                    MapModule {
                        name: m.name.clone(),
                        spec: m.spec.clone(),
                        inputs: m.inputs.iter().cloned().collect(),
                        outputs,
                    }
                })
                .collect();
            MapTemplate {
                rule: self.rule.clone(),
                nets,
                modules,
                outputs: self.outputs.iter().cloned().collect(),
            }
        }

        fn module(&mut self, name: &str) -> &mut PlanModule {
            self.modules
                .iter_mut()
                .find(|m| m.name == name)
                .expect(name)
        }
    }

    fn pairs<T: Clone>(list: &[(&str, T)]) -> Vec<(String, T)> {
        list.iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    /// An 8-bit adder as two rippled 4-bit adders.
    fn ripple8_plan() -> Plan {
        let module =
            |name: &str, inputs: Vec<(&str, Signal)>, outputs: [(&str, &str, usize); 2]| {
                PlanModule {
                    name: name.into(),
                    spec: add_spec(4),
                    inputs: pairs(&inputs),
                    outputs: outputs
                        .iter()
                        .map(|(p, n, w)| (p.to_string(), n.to_string(), *w))
                        .collect(),
                }
            };
        Plan {
            rule: "test-ripple".into(),
            nets: Vec::new(),
            modules: vec![
                module(
                    "lo",
                    vec![
                        ("A", Signal::parent("A").slice(0, 4)),
                        ("B", Signal::parent("B").slice(0, 4)),
                        ("CI", Signal::parent("CI")),
                    ],
                    [("O", "o_lo", 4), ("CO", "c_mid", 1)],
                ),
                module(
                    "hi",
                    vec![
                        ("A", Signal::parent("A").slice(4, 4)),
                        ("B", Signal::parent("B").slice(4, 4)),
                        ("CI", Signal::net("c_mid")),
                    ],
                    [("O", "o_hi", 4), ("CO", "c_out", 1)],
                ),
            ],
            outputs: pairs(&[
                (
                    "O",
                    Signal::Cat(vec![Signal::net("o_lo"), Signal::net("o_hi")]),
                ),
                ("CO", Signal::net("c_out")),
            ]),
        }
    }

    fn validate(plan: &Plan) -> Result<(), String> {
        let cache = SpecModelCache::new();
        plan.build()
            .validate(&add_spec(8), &cache)
            .map_err(|e| e.message)
    }

    #[test]
    fn valid_ripple_template_passes() {
        assert_eq!(validate(&ripple8_plan()), Ok(()));
    }

    #[test]
    fn missing_parent_output_rejected() {
        let mut plan = ripple8_plan();
        plan.outputs.retain(|(port, _)| port != "CO");
        assert!(validate(&plan).unwrap_err().contains("CO"));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut plan = ripple8_plan();
        // Wire the high adder's A with a 3-bit slice.
        plan.module("hi")
            .inputs
            .push(("A".into(), Signal::parent("A").slice(4, 3)));
        assert!(validate(&plan).is_err());
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut plan = ripple8_plan();
        plan.module("lo").inputs.retain(|(port, _)| port != "CI");
        assert!(validate(&plan).unwrap_err().contains("unconnected"));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut plan = ripple8_plan();
        plan.module("hi")
            .outputs
            .push(("CO".into(), "c_mid".into(), 1));
        assert!(validate(&plan).unwrap_err().contains("drivers"));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut plan = ripple8_plan();
        plan.nets.push(("floating".into(), 4));
        assert!(validate(&plan).unwrap_err().contains("no driver"));
    }

    #[test]
    fn each_wiring_defect_is_named() {
        type Defect = fn(&mut Plan);
        let defects: [(&str, Defect); 5] = [
            ("module lo wires non-input port O", |plan| {
                plan.module("lo")
                    .inputs
                    .push(("O".into(), Signal::parent("A").slice(0, 4)));
            }),
            ("module lo has no output ZZ", |plan| {
                plan.module("lo")
                    .outputs
                    .push(("ZZ".into(), "o_lo".into(), 4));
            }),
            ("module lo output O drives unknown net nowhere", |plan| {
                // Undeclared below, after the build declares it.
                plan.module("lo")
                    .outputs
                    .push(("O".into(), "nowhere".into(), 4));
            }),
            ("module hi output CO is 1 bits, net o_hi is 4", |plan| {
                plan.module("hi")
                    .outputs
                    .push(("CO".into(), "o_hi".into(), 1));
            }),
            ("template produces unknown parent output ZZ", |plan| {
                plan.outputs.push(("ZZ".into(), Signal::net("o_lo")));
            }),
        ];
        let cache = SpecModelCache::new();
        for (message, defect) in defects {
            let mut plan = ripple8_plan();
            defect(&mut plan);
            let mut t = plan.build();
            // A builder declares every net a module drives; a net that is
            // driven but undeclared can only come from elsewhere.
            if let Some(net) = t.nets.iter_mut().find(|n| t.names.get(n.name) == "nowhere") {
                net.width = None;
            }
            let err = t.validate(&add_spec(8), &cache).unwrap_err();
            assert_eq!(err.message, message);
        }
    }

    #[test]
    fn builder_sorts_and_shares_names() {
        let t = ripple8_plan().build();
        assert_eq!(t.rule(), "test-ripple");
        let nets: Vec<(&str, usize)> = t.nets().collect();
        assert_eq!(nets, [("c_mid", 1), ("c_out", 1), ("o_hi", 4), ("o_lo", 4)]);
        let names: Vec<&str> = (0..t.names.len()).map(|s| t.names.get(s as Sym)).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        // "A" names a port of both modules and a parent input: one symbol.
        assert_eq!(names.iter().filter(|n| **n == "A").count(), 1);
        let hi = t.module(1);
        assert_eq!(hi.name(), "hi");
        let ports: Vec<&str> = hi.inputs().map(|(p, _)| p).collect();
        assert_eq!(ports, ["A", "B", "CI"]);
        let (_, a) = hi.inputs().find(|(p, _)| *p == "A").unwrap();
        assert_eq!(a.to_signal(), Signal::parent("A").slice(4, 4));
        assert_eq!(
            t.output("O").unwrap().to_signal(),
            Signal::Cat(vec![Signal::net("o_lo"), Signal::net("o_hi")])
        );
    }

    #[test]
    fn signal_eval_slice_cat_replicate() {
        let mut nets = Env::new();
        nets.insert("x".to_string(), Bits::from_u64(4, 0b1010));
        let parents = Env::new();
        let s = Signal::Cat(vec![
            Signal::net("x").slice(1, 2),
            Signal::cuint(1, 1),
            Signal::net("x").slice(3, 1).replicate(2),
        ]);
        // x[2:1] = 01, then 1, then x[3] twice = 1,1 → bits LSB-first:
        // 0b11101 = 29.
        assert_eq!(s.eval(&nets, &parents).unwrap().to_u64(), Some(0b11101));
    }

    #[test]
    fn signal_width_errors() {
        let nw = |n: &str| if n == "x" { Some(4) } else { None };
        let pw = |_: &str| None;
        assert!(Signal::net("y").width(&nw, &pw).is_err());
        assert!(Signal::net("x").slice(2, 3).width(&nw, &pw).is_err());
        assert_eq!(Signal::net("x").replicate(3).width(&nw, &pw).unwrap(), 12);
    }

    /// The checks `validate` made over the map form, by name, in the same
    /// order and with the same messages.
    fn reference_validate(
        t: &MapTemplate,
        parent: &ComponentSpec,
        cache: &SpecModelCache,
    ) -> Result<(), String> {
        let parent_model = cache.model(parent)?;
        let net_width = |n: &str| t.nets.get(n).copied();
        let parent_in_width = |p: &str| {
            parent_model
                .port(p)
                .filter(|port| port.dir == PortDir::In)
                .map(|port| port.width)
        };
        let mut drivers: BTreeMap<&str, usize> = t.nets.keys().map(|n| (n.as_str(), 0)).collect();
        for module in &t.modules {
            let name = &module.name;
            let model = cache
                .model(&module.spec)
                .map_err(|e| format!("module {name}: {e}"))?;
            for port in model.inputs() {
                let sig = module
                    .inputs
                    .get(&port.name)
                    .ok_or_else(|| format!("module {name} input {} unconnected", port.name))?;
                let w = sig
                    .width(&net_width, &parent_in_width)
                    .map_err(|e| format!("module {name} input {}: {e}", port.name))?;
                if w != port.width {
                    return Err(format!(
                        "module {name} input {} is {} bits, wired {w}",
                        port.name, port.width
                    ));
                }
            }
            for pname in module.inputs.keys() {
                if model.port(pname).filter(|p| p.dir == PortDir::In).is_none() {
                    return Err(format!("module {name} wires non-input port {pname}"));
                }
            }
            for (pname, net) in &module.outputs {
                let port = model
                    .port(pname)
                    .filter(|p| p.dir == PortDir::Out)
                    .ok_or_else(|| format!("module {name} has no output {pname}"))?;
                let nw = net_width(net).ok_or_else(|| {
                    format!("module {name} output {pname} drives unknown net {net}")
                })?;
                if nw != port.width {
                    return Err(format!(
                        "module {name} output {pname} is {} bits, net {net} is {nw}",
                        port.width
                    ));
                }
                *drivers.get_mut(net.as_str()).expect("declared") += 1;
            }
        }
        if let Some((net, count)) = drivers.iter().find(|(_, &c)| c > 1) {
            return Err(format!("net {net} has {count} drivers"));
        }
        if let Some((net, _)) = drivers.iter().find(|(_, &c)| c == 0) {
            return Err(format!("net {net} has no driver"));
        }
        for port in parent_model.outputs() {
            let sig = t
                .outputs
                .get(&port.name)
                .ok_or_else(|| format!("parent output {} not produced", port.name))?;
            let w = sig
                .width(&net_width, &parent_in_width)
                .map_err(|e| format!("parent output {}: {e}", port.name))?;
            if w != port.width {
                return Err(format!(
                    "parent output {} is {} bits, produced {w}",
                    port.name, port.width
                ));
            }
        }
        for name in t.outputs.keys() {
            if parent_model
                .port(name)
                .filter(|p| p.dir == PortDir::Out)
                .is_none()
            {
                return Err(format!("template produces unknown parent output {name}"));
            }
        }
        Ok(())
    }

    /// A splitmix64 stream: each proptest case draws one seed.
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

        /// A name the ripple template uses, or one to three characters
        /// from one- to four-byte UTF-8 characters.
        fn name(&mut self) -> String {
            const USED: [&str; 12] = [
                "A", "B", "CI", "CO", "O", "lo", "hi", "o_lo", "o_hi", "c_mid", "c_out", "I0",
            ];
            const CHARS: [char; 6] = ['a', 'Z', 'é', 'Ω', '漢', '🦀'];
            if self.below(2) == 0 {
                return USED[self.below(USED.len())].to_string();
            }
            (0..1 + self.below(3))
                .map(|_| CHARS[self.below(CHARS.len())])
                .collect()
        }

        fn signal(&mut self, depth: usize) -> Signal {
            match self.below(if depth == 3 { 3 } else { 6 }) {
                0 => Signal::Net(self.name()),
                1 => Signal::Parent(self.name()),
                2 => Signal::cuint(1 + self.below(8), self.next()),
                3 => self.signal(depth + 1).slice(self.below(6), self.below(6)),
                4 => Signal::Cat((0..self.below(4)).map(|_| self.signal(depth + 1)).collect()),
                _ => self.signal(depth + 1).replicate(self.below(4)),
            }
        }

        fn spec(&mut self) -> ComponentSpec {
            match self.below(3) {
                0 => add_spec(4),
                1 => ComponentSpec::new(ComponentKind::Gate(GateOp::And), 4).with_inputs(2),
                _ => add_spec(8),
            }
        }

        /// One random edit of the kind a rule bug makes: a repeated or
        /// stray port, a rewired input, an unknown or undriven net, a
        /// wrong width, a new module or output.
        fn mutate(&mut self, plan: &mut Plan) {
            let m = self.below(plan.modules.len());
            match self.below(8) {
                0 => {
                    let port = self.name();
                    let signal = self.signal(0);
                    plan.modules[m].inputs.push((port, signal));
                }
                1 => {
                    let inputs = &mut plan.modules[m].inputs;
                    if !inputs.is_empty() {
                        let i = self.below(inputs.len());
                        inputs.remove(i);
                    }
                }
                2 => {
                    let (port, net) = (self.name(), self.name());
                    let width = 1 + self.below(8);
                    plan.modules[m].outputs.push((port, net, width));
                }
                3 => {
                    let net = self.name();
                    let width = 1 + self.below(8);
                    if !plan.nets.iter().any(|(n, _)| *n == net)
                        && !plan
                            .modules
                            .iter()
                            .any(|m| m.outputs.iter().any(|(_, n, _)| *n == net))
                    {
                        plan.nets.push((net, width));
                    }
                }
                4 => {
                    let port = self.name();
                    let signal = self.signal(0);
                    plan.outputs.push((port, signal));
                }
                5 => {
                    if !plan.outputs.is_empty() {
                        let i = self.below(plan.outputs.len());
                        plan.outputs.remove(i);
                    }
                }
                6 => {
                    let name = self.name();
                    if !plan.modules.iter().any(|m| m.name == name) {
                        let (port, net) = (self.name(), self.name());
                        let spec = self.spec();
                        let input = (self.name(), self.signal(0));
                        let width = 1 + self.below(8);
                        if !plan.nets.iter().any(|(n, _)| *n == net) {
                            plan.modules.push(PlanModule {
                                name,
                                spec,
                                inputs: vec![input],
                                outputs: vec![(port, net, width)],
                            });
                        }
                    }
                }
                _ => {
                    plan.rule = self.name();
                }
            }
        }

        fn plan(&mut self) -> Plan {
            let mut plan = ripple8_plan();
            for _ in 0..self.below(4) {
                self.mutate(&mut plan);
            }
            plan
        }
    }

    /// A plan whose explicit nets a module declares first would make the
    /// builder panic on a duplicate net; such plans are not rule output.
    fn buildable(plan: &Plan) -> bool {
        let mut seen: Vec<&str> = Vec::new();
        for (net, _) in &plan.nets {
            if seen.contains(&net.as_str()) {
                return false;
            }
            seen.push(net);
        }
        let mut names: Vec<&str> = plan.modules.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.windows(2).all(|w| w[0] != w[1])
    }

    fn assert_agrees(t: &NetlistTemplate, model: &MapTemplate) {
        assert_eq!(t.rule(), model.rule);
        let nets: Vec<(String, usize)> = t.nets().map(|(n, w)| (n.to_string(), w)).collect();
        let model_nets: Vec<(String, usize)> = model.nets.clone().into_iter().collect();
        assert_eq!(nets, model_nets);
        for (net, width) in &model.nets {
            assert_eq!(t.net_width(net), Some(*width));
        }
        assert_eq!(t.module_count(), model.modules.len());
        for (m, mm) in t.modules().zip(&model.modules) {
            assert_eq!(m.name(), mm.name);
            assert_eq!(*m.spec(), mm.spec);
            let inputs: Vec<(String, Signal)> = m
                .inputs()
                .map(|(p, w)| (p.to_string(), w.to_signal()))
                .collect();
            let model_inputs: Vec<(String, Signal)> = mm.inputs.clone().into_iter().collect();
            assert_eq!(inputs, model_inputs);
            let outputs: Vec<(String, String)> = m
                .outputs()
                .map(|(p, n)| (p.to_string(), n.to_string()))
                .collect();
            let model_outputs: Vec<(String, String)> = mm.outputs.clone().into_iter().collect();
            assert_eq!(outputs, model_outputs);
        }
        let outputs: Vec<(String, Signal)> = t
            .outputs()
            .map(|(p, w)| (p.to_string(), w.to_signal()))
            .collect();
        let model_outputs: Vec<(String, Signal)> = model.outputs.clone().into_iter().collect();
        assert_eq!(outputs, model_outputs);
        for (port, signal) in &model.outputs {
            assert_eq!(t.output(port).map(Wire::to_signal).as_ref(), Some(signal));
        }
    }

    proptest! {
        #[test]
        fn flat_templates_agree_with_the_map_model(seed in any::<u64>()) {
            let mut g = Gen(seed);
            let (p, q) = (g.plan(), g.plan());
            if buildable(&p) && buildable(&q) {
                let cache = SpecModelCache::new();
                let (tp, tq) = (p.build(), q.build());
                let (mp, mq) = (p.model(), q.model());
                assert_agrees(&tp, &mp);
                assert_agrees(&tq, &mq);
                assert_eq!(tp == tq, mp == mq, "{mp:?}\n{mq:?}");
                assert!(tp == tp.clone());
                let blank = |m: &MapTemplate| MapTemplate { rule: String::new(), ..m.clone() };
                assert_eq!(tp.same_wiring(&tq), blank(&mp) == blank(&mq));
                for (t, m) in [(&tp, &mp), (&tq, &mq)] {
                    assert_eq!(
                        t.validate(&add_spec(8), &cache).map_err(|e| e.message),
                        reference_validate(m, &add_spec(8), &cache),
                        "{m:?}"
                    );
                }
            }
        }
    }
}
