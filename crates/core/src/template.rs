//! Decomposition templates: one level of component decomposition.
//!
//! "A netlist represents one level of component decomposition; its modules
//! represent connected subcomponents. Each module is described by a
//! component specification and will be mapped to one implementation of
//! that specification." (paper §5)
//!
//! A [`NetlistTemplate`] is exactly that netlist: modules carrying
//! [`ComponentSpec`]s, wired by [`Signal`] expressions over internal nets,
//! parent ports and constants. Signals support slicing, concatenation and
//! replication so templates can express the bit-level wiring of real
//! decompositions (carry chains, partial-product alignment, select
//! fan-out) without fake "wiring components".

use genus::behavior::Env;
use genus::build::component_for_spec;
use genus::component::Component;
use genus::spec::ComponentSpec;
use rtl_base::bits::Bits;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::{Arc, RwLock};

/// A wiring expression appearing on a module input or a parent output.
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
        let mut leaves = Vec::new();
        self.for_each_leaf(&mut |leaf| leaves.push(leaf));
        leaves
    }

    /// Calls `f` on each of [`leaves`](Self::leaves), in order, without
    /// collecting them.
    pub(crate) fn for_each_leaf<'a>(&'a self, f: &mut dyn FnMut(&'a Signal)) {
        match self {
            Signal::Net(_) | Signal::Parent(_) => f(self),
            Signal::Const(_) => {}
            Signal::Slice(inner, _, _) | Signal::Replicate(inner, _) => inner.for_each_leaf(f),
            Signal::Cat(parts) => parts.iter().for_each(|p| p.for_each_leaf(f)),
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

/// A subcomponent of a template: a specification plus connectivity.
#[derive(Clone, Debug, PartialEq)]
pub struct Module {
    /// Instance name, unique within the template.
    pub name: String,
    /// The required functionality of this module.
    pub spec: ComponentSpec,
    /// Input port → wiring expression.
    pub inputs: BTreeMap<String, Signal>,
    /// Output port → internal net it drives. Unlisted outputs dangle.
    pub outputs: BTreeMap<String, String>,
}

/// One level of decomposition of a parent specification.
#[derive(Clone, Debug, PartialEq)]
pub struct NetlistTemplate {
    /// The rule that produced this template.
    pub rule: String,
    /// Internal nets: name → width.
    pub nets: BTreeMap<String, usize>,
    /// Subcomponents.
    pub modules: Vec<Module>,
    /// Parent output port → wiring expression producing its value.
    pub outputs: BTreeMap<String, Signal>,
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

impl NetlistTemplate {
    /// The distinct module specifications, in first-use order, with
    /// multiplicities.
    pub fn spec_census(&self) -> Vec<(ComponentSpec, usize)> {
        let mut census: Vec<(ComponentSpec, usize)> = Vec::new();
        for m in &self.modules {
            if let Some(entry) = census.iter_mut().find(|(s, _)| *s == m.spec) {
                entry.1 += 1;
            } else {
                census.push((m.spec.clone(), 1));
            }
        }
        census
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
}

/// Fluent construction of templates inside decomposition rules.
#[derive(Clone, Debug)]
pub struct TemplateBuilder {
    template: NetlistTemplate,
}

impl TemplateBuilder {
    /// Starts a template for the named rule.
    pub fn new(rule: &str) -> Self {
        TemplateBuilder {
            template: NetlistTemplate {
                rule: rule.to_string(),
                nets: BTreeMap::new(),
                modules: Vec::new(),
                outputs: BTreeMap::new(),
            },
        }
    }

    /// Declares an internal net.
    ///
    /// # Panics
    ///
    /// Panics on duplicate net names (a rule-authoring bug).
    pub fn net(&mut self, name: &str, width: usize) -> &mut Self {
        let prev = self.template.nets.insert(name.to_string(), width);
        assert!(prev.is_none(), "duplicate net {name}");
        self
    }

    /// Adds a module with its connections. `inputs` wires input ports to
    /// signals; `outputs` binds output ports to internal nets (declared
    /// on the fly with the given widths).
    ///
    /// # Panics
    ///
    /// Panics on duplicate module names (a rule-authoring bug).
    pub fn module<S: Into<String>>(
        &mut self,
        name: &str,
        spec: ComponentSpec,
        inputs: Vec<(S, Signal)>,
        outputs: Vec<(&str, &str, usize)>,
    ) -> &mut Self {
        assert!(
            !self.template.modules.iter().any(|m| m.name == name),
            "duplicate module {name}"
        );
        let mut out_map = BTreeMap::new();
        for (port, net, width) in outputs {
            if !self.template.nets.contains_key(net) {
                self.net(net, width);
            }
            out_map.insert(port.to_string(), net.to_string());
        }
        self.template.modules.push(Module {
            name: name.to_string(),
            spec,
            inputs: inputs.into_iter().map(|(p, s)| (p.into(), s)).collect(),
            outputs: out_map,
        });
        self
    }

    /// Produces a parent output from a signal.
    pub fn output(&mut self, port: &str, signal: Signal) -> &mut Self {
        self.template.outputs.insert(port.to_string(), signal);
        self
    }

    /// Finishes the template.
    pub fn build(self) -> NetlistTemplate {
        self.template
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    /// An 8-bit adder as two rippled 4-bit adders.
    fn ripple8() -> NetlistTemplate {
        let mut t = TemplateBuilder::new("test-ripple");
        t.module(
            "lo",
            add_spec(4),
            vec![
                ("A", Signal::parent("A").slice(0, 4)),
                ("B", Signal::parent("B").slice(0, 4)),
                ("CI", Signal::parent("CI")),
            ],
            vec![("O", "o_lo", 4), ("CO", "c_mid", 1)],
        );
        t.module(
            "hi",
            add_spec(4),
            vec![
                ("A", Signal::parent("A").slice(4, 4)),
                ("B", Signal::parent("B").slice(4, 4)),
                ("CI", Signal::net("c_mid")),
            ],
            vec![("O", "o_hi", 4), ("CO", "c_out", 1)],
        );
        t.output(
            "O",
            Signal::Cat(vec![Signal::net("o_lo"), Signal::net("o_hi")]),
        );
        t.output("CO", Signal::net("c_out"));
        t.build()
    }

    #[test]
    fn valid_ripple_template_passes() {
        let cache = SpecModelCache::new();
        ripple8().validate(&add_spec(8), &cache).unwrap();
    }

    #[test]
    fn census_counts_multiplicity() {
        let census = ripple8().spec_census();
        assert_eq!(census.len(), 1);
        assert_eq!(census[0].1, 2);
        assert_eq!(census[0].0, add_spec(4));
    }

    #[test]
    fn missing_parent_output_rejected() {
        let mut t = ripple8();
        t.outputs.remove("CO");
        let cache = SpecModelCache::new();
        let err = t.validate(&add_spec(8), &cache).unwrap_err();
        assert!(err.message.contains("CO"));
    }

    #[test]
    fn width_mismatch_rejected() {
        let mut t = ripple8();
        // Wire the high adder's A with a 3-bit slice.
        if let Some(m) = t.modules.iter_mut().find(|m| m.name == "hi") {
            m.inputs
                .insert("A".to_string(), Signal::parent("A").slice(4, 3));
        }
        let cache = SpecModelCache::new();
        assert!(t.validate(&add_spec(8), &cache).is_err());
    }

    #[test]
    fn unconnected_input_rejected() {
        let mut t = ripple8();
        if let Some(m) = t.modules.iter_mut().find(|m| m.name == "lo") {
            m.inputs.remove("CI");
        }
        let cache = SpecModelCache::new();
        let err = t.validate(&add_spec(8), &cache).unwrap_err();
        assert!(err.message.contains("unconnected"));
    }

    #[test]
    fn multiple_drivers_rejected() {
        let mut t = ripple8();
        if let Some(m) = t.modules.iter_mut().find(|m| m.name == "hi") {
            m.outputs.insert("CO".to_string(), "c_mid".to_string());
        }
        let cache = SpecModelCache::new();
        let err = t.validate(&add_spec(8), &cache).unwrap_err();
        assert!(err.message.contains("drivers"));
    }

    #[test]
    fn undriven_net_rejected() {
        let mut t = ripple8();
        t.nets.insert("floating".to_string(), 4);
        let cache = SpecModelCache::new();
        let err = t.validate(&add_spec(8), &cache).unwrap_err();
        assert!(err.message.contains("no driver"));
    }

    #[test]
    fn each_wiring_defect_is_named() {
        type Defect = fn(&mut NetlistTemplate);
        let defects: [(&str, Defect); 5] = [
            ("module lo wires non-input port O", |t| {
                t.modules[0]
                    .inputs
                    .insert("O".into(), Signal::parent("A").slice(0, 4));
            }),
            ("module lo has no output ZZ", |t| {
                t.modules[0].outputs.insert("ZZ".into(), "o_lo".into());
            }),
            ("module lo output O drives unknown net nowhere", |t| {
                t.modules[0].outputs.insert("O".into(), "nowhere".into());
            }),
            ("module hi output CO is 1 bits, net o_hi is 4", |t| {
                t.modules[1].outputs.insert("CO".into(), "o_hi".into());
            }),
            ("template produces unknown parent output ZZ", |t| {
                t.outputs.insert("ZZ".into(), Signal::net("o_lo"));
            }),
        ];
        let cache = SpecModelCache::new();
        for (message, defect) in defects {
            let mut t = ripple8();
            defect(&mut t);
            let err = t.validate(&add_spec(8), &cache).unwrap_err();
            assert_eq!(err.message, message);
        }
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
}
