//! Area/delay estimation for cells and decomposition templates.
//!
//! Area is additive (equivalent NAND gates). Delay uses a *timing-arc*
//! model: every implementation carries a table of pin-class-to-pin-class
//! delays ([`Timing`]), so a ripple carry chain is costed along its fast
//! CI→CO arcs rather than the worst-case data path — exactly the
//! distinction that makes lookahead structures win in the paper's
//! Figure 3.
//!
//! The solver costs every consistent combination of child
//! implementations against its template, so the template side is
//! compiled once: expansion turns each netlist template into a
//! [`TimingGraph`] (integer nodes, every potential edge keyed by its
//! module's spec and arc classes, one topological order) in the walk
//! that validates the template's wiring, and a
//! combination is costed by looking up its children's arcs and relaxing
//! flat arrays. [`template_cost`] computes the same `(area, timing)`
//! straight from the template; it is the reference the compiled graph is
//! tested against, bit for bit.

use crate::space::DesignPoint;
use crate::template::{NetlistTemplate, Signal, SpecModelCache, TemplateError};
use cells::Cell;
use genus::component::{Component, PortClass, PortDir};
use genus::spec::ComponentSpec;
use rtl_base::graph::Digraph;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Pin-class-to-pin-class delay table plus the worst internal path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Timing {
    /// Combinational arcs: (input port class → output port class) → ns.
    /// Absent pairs have no combinational path.
    pub arcs: BTreeMap<(PortClass, PortClass), f64>,
    /// Worst path anywhere in the implementation, including paths that
    /// start or end at internal registers, ns.
    pub worst: f64,
}

impl Timing {
    /// Zero-delay timing (pure wiring).
    pub fn wire() -> Timing {
        Timing::default()
    }

    /// Timing of a library cell: one arc per (input class, output class)
    /// pair along which the cell's *behavioral model* actually has a
    /// dependency; sequential cells (registers) have no combinational
    /// arcs and `worst` = clock-to-Q.
    pub fn for_cell(cell: &Cell, model: &Component) -> Timing {
        let mut t = Timing {
            arcs: BTreeMap::new(),
            worst: cell.delay,
        };
        if model.is_sequential() {
            return t;
        }
        let deps = model.output_dependencies();
        for pout in model.outputs() {
            let Some(ins) = deps.get(&pout.name) else {
                continue;
            };
            for in_name in ins {
                let Some(pin) = model.port(in_name) else {
                    continue;
                };
                if pin.class == PortClass::Clock {
                    continue;
                }
                let d = cell.arc_delay(pin.class, pout.class);
                let key = (pin.class, pout.class);
                let cur = t.arcs.get(&key).copied().unwrap_or(f64::NEG_INFINITY);
                if d > cur {
                    t.arcs.insert(key, d);
                }
            }
        }
        t.worst = t.arcs.values().fold(0.0f64, |a, &b| a.max(b)).max(0.0);
        t
    }

    /// Arc delay for a class pair, if a combinational path exists.
    pub fn arc(&self, from: PortClass, to: PortClass) -> Option<f64> {
        self.arcs.get(&(from, to)).copied()
    }
}

/// Per-child data the composer needs: subtree area and timing.
#[derive(Clone, Debug, PartialEq)]
pub struct ChildCost {
    /// Subtree area in gates.
    pub area: f64,
    /// Subtree timing.
    pub timing: Timing,
}

/// Computes the (area, timing) of a template given costs for each module
/// specification, building the template's net-level timing graph afresh.
///
/// The solver does not call this: it costs combinations on the
/// template's compiled [`TimingGraph`]. This is the reference that graph
/// is tested against — the same area, `worst` and arcs, bit for bit, and
/// an error exactly where the graph reports a cycle.
///
/// # Errors
///
/// Returns a message when a module spec has no cost, a model cannot be
/// built, or the template wiring is combinationally cyclic.
pub fn template_cost(
    template: &NetlistTemplate,
    parent: &ComponentSpec,
    child_cost: &dyn Fn(&ComponentSpec) -> Option<ChildCost>,
    cache: &SpecModelCache,
) -> Result<(f64, Timing), String> {
    let parent_model = cache.model(parent)?;

    // Gather per-module data.
    struct ModInfo {
        model: Arc<Component>,
        cost: ChildCost,
    }
    let mut infos = Vec::with_capacity(template.modules.len());
    let mut area = 0.0;
    for m in &template.modules {
        let model = cache.model(&m.spec)?;
        let cost = child_cost(&m.spec)
            .ok_or_else(|| format!("module {} [{}] has no cost", m.name, m.spec))?;
        area += cost.area;
        infos.push(ModInfo { model, cost });
    }

    // Build the net-level timing graph. Nodes: parent inputs, internal
    // nets, plus a virtual super-source (last node).
    let mut node_of: BTreeMap<String, usize> = BTreeMap::new();
    let mut next = 0usize;
    let mut parent_inputs = Vec::new();
    for p in parent_model.inputs() {
        node_of.insert(format!("P:{}", p.name), next);
        parent_inputs.push((p.class, next));
        next += 1;
    }
    for net in template.nets.keys() {
        node_of.insert(format!("N:{net}"), next);
        next += 1;
    }
    let super_source = next;
    let mut g = Digraph::new(next + 1);

    let leaf_nodes = |sig: &Signal| -> Vec<usize> {
        sig.leaves()
            .into_iter()
            .filter_map(|leaf| match leaf {
                Signal::Net(n) => node_of.get(&format!("N:{n}")).copied(),
                Signal::Parent(p) => node_of.get(&format!("P:{p}")).copied(),
                _ => None,
            })
            .collect()
    };

    let mut seq_sources: Vec<(usize, f64)> = Vec::new();
    for (m, info) in template.modules.iter().zip(&infos) {
        let sequential = info.model.is_sequential();
        if sequential {
            // Outputs launch from the internal clock boundary.
            for net in m.outputs.values() {
                if let Some(&n) = node_of.get(&format!("N:{net}")) {
                    seq_sources.push((n, info.cost.timing.worst));
                }
            }
            continue;
        }
        for (in_port, sig) in &m.inputs {
            let Some(pin) = info.model.port(in_port) else {
                continue;
            };
            if pin.class == PortClass::Clock {
                continue;
            }
            for (out_port, net) in &m.outputs {
                let Some(pout) = info.model.port(out_port) else {
                    continue;
                };
                let Some(arc) = info.cost.timing.arc(pin.class, pout.class) else {
                    continue;
                };
                let Some(&to) = node_of.get(&format!("N:{net}")) else {
                    continue;
                };
                for from in leaf_nodes(sig) {
                    g.add_edge(from, to, arc);
                }
            }
        }
    }

    // Per-parent-input passes build the arc table.
    let mut timing = Timing::default();
    let outputs: Vec<(&String, &Signal)> = template.outputs.iter().collect();
    for (pclass, pnode) in &parent_inputs {
        let dist = g
            .longest_paths(&[*pnode], &|_| 0.0)
            .map_err(|_| format!("template {} has a combinational cycle", template.rule))?;
        for (oname, sig) in &outputs {
            let oclass = parent_model
                .port(oname)
                .map(|p| p.class)
                .unwrap_or(PortClass::Data);
            let arrival = leaf_nodes(sig)
                .into_iter()
                .map(|n| dist[n])
                .fold(f64::NEG_INFINITY, f64::max);
            if arrival.is_finite() {
                let key = (*pclass, oclass);
                let cur = timing.arcs.get(&key).copied().unwrap_or(f64::NEG_INFINITY);
                if arrival > cur {
                    timing.arcs.insert(key, arrival);
                }
            }
        }
    }

    // Global pass for the worst path: all parent inputs at 0, sequential
    // outputs at their launch delay, via a super-source.
    for (_, pnode) in &parent_inputs {
        g.add_edge(super_source, *pnode, 0.0);
    }
    for (n, launch) in &seq_sources {
        g.add_edge(super_source, *n, *launch);
    }
    let dist = g
        .longest_paths(&[super_source], &|_| 0.0)
        .map_err(|_| format!("template {} has a combinational cycle", template.rule))?;
    let mut worst = dist
        .iter()
        .take(next) // exclude the super-source itself
        .copied()
        .filter(|d| d.is_finite())
        .fold(0.0f64, f64::max);
    // Parent outputs may combine leaves; account for them too (their
    // leaves are nodes, so this is already covered, but keep the arcs'
    // maxima for safety) and include child-internal worst paths.
    for t in infos.iter().map(|i| &i.cost.timing) {
        worst = worst.max(t.worst);
    }
    for &a in timing.arcs.values() {
        worst = worst.max(a);
    }
    timing.worst = worst;
    Ok((area, timing))
}

/// A netlist template's timing graph, compiled once when the design space
/// expands the template.
///
/// The nodes are [`template_cost`]'s: the parent inputs in the parent
/// model's port order, then the internal nets in name order. Every
/// *potential* combinational edge is kept, keyed by its module's spec and
/// (input class, output class); the child timings of a combination decide
/// which of those arcs exist and what they weigh. Sequential modules'
/// outputs are launch points, and one topological order covers every
/// potential edge. The graph holds no design-space ids, so every clone of
/// a [`DesignSpace`](crate::DesignSpace) shares it.
#[derive(Debug)]
pub struct TimingGraph {
    /// Node count: parent inputs first, then nets.
    nodes: usize,
    /// The class of each parent input node.
    inputs: Vec<PortClass>,
    /// For each module, the index of its spec among the template's
    /// distinct module specs (first-use order): the pick it reads.
    picks: Vec<u32>,
    /// The first module of each distinct module spec.
    firsts: Vec<u32>,
    /// The arcs edges weigh by: (distinct spec, input class, output class).
    arcs: Vec<(u32, PortClass, PortClass)>,
    /// Node `u`'s out-edges are `edges[heads[u]..heads[u + 1]]`, each a
    /// (target node, arc) pair.
    heads: Vec<u32>,
    edges: Vec<(u32, u32)>,
    /// Nets driven by a sequential module, with the distinct spec whose
    /// `worst` launches them.
    launches: Vec<(u32, u32)>,
    /// Each parent output's class and the end of its leaf nodes in
    /// `leaves`.
    outputs: Vec<(PortClass, u32)>,
    leaves: Vec<u32>,
    /// A topological order over every potential edge, or `None` when they
    /// close a cycle; then each combination orders only the edges it has.
    order: Option<Vec<u32>>,
}

/// Buffers [`TimingGraph::cost`] reuses across combinations.
#[derive(Default)]
pub(crate) struct CostScratch {
    weights: Vec<Option<f64>>,
    dist: Vec<f64>,
    indegree: Vec<u32>,
    order: Vec<u32>,
}

impl TimingGraph {
    /// Validates `template` against `parent` and compiles it, in one walk.
    /// The checks are [`NetlistTemplate::validate`]'s, which calls this
    /// and drops the graph: every module input wired at its port's width,
    /// every wired port a module input, every module output driving a
    /// known net of its width, one driver per net, and every parent output
    /// produced, at its width, and by that name.
    ///
    /// # Errors
    ///
    /// [`TemplateError`] naming the first offending module, port or net.
    pub(crate) fn compile(
        template: &NetlistTemplate,
        parent: &ComponentSpec,
        cache: &SpecModelCache,
    ) -> Result<TimingGraph, TemplateError> {
        let fail = |message: String| TemplateError {
            rule: template.rule.clone(),
            message,
        };
        let parent_model = cache.model(parent).map_err(&fail)?;
        let inputs: Vec<(&str, PortClass)> = parent_model
            .inputs()
            .map(|p| (p.name.as_str(), p.class))
            .collect();
        let nets: Vec<(&str, usize)> = template
            .nets
            .iter()
            .map(|(net, &width)| (net.as_str(), width))
            .collect();
        let net_index = |net: &str| nets.binary_search_by(|&(n, _)| n.cmp(net)).ok();
        let net_node = |net: &str| net_index(net).map(|i| (inputs.len() + i) as u32);
        let net_width = |net: &str| net_index(net).map(|i| nets[i].1);
        let parent_in_width = |p: &str| {
            parent_model
                .port(p)
                .filter(|port| port.dir == PortDir::In)
                .map(|port| port.width)
        };
        let leaf_nodes = |sig: &Signal, out: &mut Vec<u32>| {
            sig.for_each_leaf(&mut |leaf| {
                out.extend(match leaf {
                    Signal::Net(n) => net_node(n),
                    Signal::Parent(p) => inputs
                        .iter()
                        .position(|(name, _)| name == p)
                        .map(|i| i as u32),
                    _ => None,
                })
            });
        };

        let mut specs: Vec<(&ComponentSpec, Arc<Component>)> = Vec::new();
        let mut picks = Vec::with_capacity(template.modules.len());
        let mut firsts = Vec::new();
        let mut arcs: Vec<(u32, PortClass, PortClass)> = Vec::new();
        let mut edges: Vec<(u32, u32, u32)> = Vec::new();
        let mut launches = Vec::new();
        let mut drivers = vec![0u32; nets.len()];
        let (mut pins, mut outs, mut from) = (Vec::new(), Vec::new(), Vec::new());
        for (m, module) in template.modules.iter().enumerate() {
            let name = &module.name;
            let pick = match specs.iter().position(|(spec, _)| **spec == module.spec) {
                Some(pick) => pick,
                None => {
                    let model = cache
                        .model(&module.spec)
                        .map_err(|e| fail(format!("module {name}: {e}")))?;
                    specs.push((&module.spec, model));
                    firsts.push(m as u32);
                    specs.len() - 1
                }
            } as u32;
            picks.push(pick);
            let model = &specs[pick as usize].1;
            for port in model.inputs() {
                let sig = module.inputs.get(&port.name).ok_or_else(|| {
                    fail(format!("module {name} input {} unconnected", port.name))
                })?;
                let w = sig
                    .width(&net_width, &parent_in_width)
                    .map_err(|e| fail(format!("module {name} input {}: {e}", port.name)))?;
                if w != port.width {
                    return Err(fail(format!(
                        "module {name} input {} is {} bits, wired {w}",
                        port.name, port.width
                    )));
                }
            }
            pins.clear();
            for (pname, sig) in &module.inputs {
                let pin = model
                    .port(pname)
                    .filter(|p| p.dir == PortDir::In)
                    .ok_or_else(|| fail(format!("module {name} wires non-input port {pname}")))?;
                pins.push((pin.class, sig));
            }
            outs.clear();
            for (pname, net) in &module.outputs {
                let port = model
                    .port(pname)
                    .filter(|p| p.dir == PortDir::Out)
                    .ok_or_else(|| fail(format!("module {name} has no output {pname}")))?;
                let i = net_index(net).ok_or_else(|| {
                    fail(format!(
                        "module {name} output {pname} drives unknown net {net}"
                    ))
                })?;
                let nw = nets[i].1;
                if nw != port.width {
                    return Err(fail(format!(
                        "module {name} output {pname} is {} bits, net {net} is {nw}",
                        port.width
                    )));
                }
                drivers[i] += 1;
                outs.push((port.class, (inputs.len() + i) as u32));
            }

            if model.is_sequential() {
                launches.extend(outs.iter().map(|&(_, net)| (net, pick)));
                continue;
            }
            for &(in_class, sig) in &pins {
                if in_class == PortClass::Clock {
                    continue;
                }
                // A leaf read twice adds no path.
                from.clear();
                leaf_nodes(sig, &mut from);
                from.sort_unstable();
                from.dedup();
                for &(out_class, to) in &outs {
                    let key = (pick, in_class, out_class);
                    let arc = match arcs.iter().position(|a| *a == key) {
                        Some(arc) => arc,
                        None => {
                            arcs.push(key);
                            arcs.len() - 1
                        }
                    } as u32;
                    edges.extend(from.iter().map(|&f| (f, to, arc)));
                }
            }
        }
        for (&(net, _), &count) in nets.iter().zip(&drivers) {
            if count > 1 {
                return Err(fail(format!("net {net} has {count} drivers")));
            }
        }
        for (&(net, _), &count) in nets.iter().zip(&drivers) {
            if count == 0 {
                return Err(fail(format!("net {net} has no driver")));
            }
        }
        for port in parent_model.outputs() {
            let sig = template
                .outputs
                .get(&port.name)
                .ok_or_else(|| fail(format!("parent output {} not produced", port.name)))?;
            let w = sig
                .width(&net_width, &parent_in_width)
                .map_err(|e| fail(format!("parent output {}: {e}", port.name)))?;
            if w != port.width {
                return Err(fail(format!(
                    "parent output {} is {} bits, produced {w}",
                    port.name, port.width
                )));
            }
        }
        let mut outputs = Vec::with_capacity(template.outputs.len());
        let mut leaves = Vec::new();
        for (name, sig) in &template.outputs {
            let port = parent_model
                .port(name)
                .filter(|p| p.dir == PortDir::Out)
                .ok_or_else(|| fail(format!("template produces unknown parent output {name}")))?;
            leaf_nodes(sig, &mut leaves);
            outputs.push((port.class, leaves.len() as u32));
        }

        // Bucket the edges by source: count, take prefix sums, place each
        // edge at its source's cursor, then shift the cursors back into
        // bucket starts.
        let nodes = inputs.len() + nets.len();
        let mut heads = vec![0u32; nodes + 1];
        for &(f, _, _) in &edges {
            heads[f as usize + 1] += 1;
        }
        for u in 0..nodes {
            heads[u + 1] += heads[u];
        }
        let mut out_edges = vec![(0, 0); edges.len()];
        for &(f, to, arc) in &edges {
            out_edges[heads[f as usize] as usize] = (to, arc);
            heads[f as usize] += 1;
        }
        heads.copy_within(..nodes, 1);
        heads[0] = 0;
        let mut graph = TimingGraph {
            nodes,
            inputs: inputs.iter().map(|&(_, class)| class).collect(),
            picks,
            firsts,
            arcs,
            heads,
            edges: out_edges,
            launches,
            outputs,
            leaves,
            order: None,
        };
        let (mut indegree, mut order) = (Vec::new(), Vec::new());
        if graph.topological_order(&|_| true, &mut indegree, &mut order) {
            graph.order = Some(order);
        }
        Ok(graph)
    }

    /// The first module of each distinct module spec, in first-use order:
    /// [`cost`](Self::cost)'s picks are indexed the same way.
    pub(crate) fn distinct_modules(&self) -> impl Iterator<Item = usize> + '_ {
        self.firsts.iter().map(|&m| m as usize)
    }

    /// Costs one combination, `picks[i]` implementing the template's
    /// `i`-th distinct module spec: the `(area, timing)` [`template_cost`]
    /// computes for the same children, or `None` where it reports a
    /// combinational cycle.
    pub(crate) fn cost(
        &self,
        picks: &[&DesignPoint],
        scratch: &mut CostScratch,
    ) -> Option<(f64, Timing)> {
        // Area in module order, as the reference sums it.
        let mut area = 0.0;
        for &pick in &self.picks {
            area += picks[pick as usize].area;
        }
        let CostScratch {
            weights,
            dist,
            indegree,
            order,
        } = scratch;
        weights.clear();
        weights.extend(
            self.arcs
                .iter()
                .map(|&(pick, from, to)| picks[pick as usize].timing.arc(from, to)),
        );
        let order = match &self.order {
            Some(order) => order,
            None => {
                if !self.topological_order(&|arc| weights[arc].is_some(), indegree, order) {
                    return None;
                }
                order
            }
        };

        // One pass per parent input builds the arc table.
        dist.clear();
        dist.resize(self.nodes, f64::NEG_INFINITY);
        let mut timing = Timing::default();
        for (input, &class) in self.inputs.iter().enumerate() {
            dist.fill(f64::NEG_INFINITY);
            dist[input] = 0.0;
            self.relax(order, weights, dist);
            let mut start = 0;
            for &(out_class, end) in &self.outputs {
                let arrival = self.leaves[start..end as usize]
                    .iter()
                    .map(|&n| dist[n as usize])
                    .fold(f64::NEG_INFINITY, f64::max);
                start = end as usize;
                if arrival.is_finite() {
                    let key = (class, out_class);
                    let cur = timing.arcs.get(&key).copied().unwrap_or(f64::NEG_INFINITY);
                    if arrival > cur {
                        timing.arcs.insert(key, arrival);
                    }
                }
            }
        }

        // The worst path: every parent input at 0, every sequential output
        // at its launch delay (`0.0 +` as the reference's super-source
        // edge adds it).
        dist.fill(f64::NEG_INFINITY);
        dist[..self.inputs.len()].fill(0.0);
        for &(net, pick) in &self.launches {
            let launch = 0.0 + picks[pick as usize].timing.worst;
            if launch > dist[net as usize] {
                dist[net as usize] = launch;
            }
        }
        self.relax(order, weights, dist);
        let mut worst = dist
            .iter()
            .copied()
            .filter(|d| d.is_finite())
            .fold(0.0f64, f64::max);
        for &pick in &self.picks {
            worst = worst.max(picks[pick as usize].timing.worst);
        }
        for &a in timing.arcs.values() {
            worst = worst.max(a);
        }
        timing.worst = worst;
        Some((area, timing))
    }

    /// Node `u`'s out-edges.
    fn out_edges(&self, u: u32) -> &[(u32, u32)] {
        &self.edges[self.heads[u as usize] as usize..self.heads[u as usize + 1] as usize]
    }

    /// Longest paths from the finite entries of `dist`, over the edges
    /// whose arc is present, visiting nodes in `order`.
    fn relax(&self, order: &[u32], weights: &[Option<f64>], dist: &mut [f64]) {
        for &u in order {
            let at = dist[u as usize];
            if at == f64::NEG_INFINITY {
                continue;
            }
            for &(v, arc) in self.out_edges(u) {
                if let Some(w) = weights[arc as usize] {
                    let cand = at + w;
                    if cand > dist[v as usize] {
                        dist[v as usize] = cand;
                    }
                }
            }
        }
    }

    /// Kahn's order of the nodes over the edges whose arc `has`; false
    /// when those edges close a cycle.
    fn topological_order(
        &self,
        has: &dyn Fn(usize) -> bool,
        indegree: &mut Vec<u32>,
        order: &mut Vec<u32>,
    ) -> bool {
        indegree.clear();
        indegree.resize(self.nodes, 0);
        for &(v, arc) in &self.edges {
            if has(arc as usize) {
                indegree[v as usize] += 1;
            }
        }
        order.clear();
        order.extend((0..self.nodes as u32).filter(|&u| indegree[u as usize] == 0));
        let mut next = 0;
        while let Some(&u) = order.get(next) {
            next += 1;
            for &(v, arc) in self.out_edges(u) {
                if has(arc as usize) {
                    indegree[v as usize] -= 1;
                    if indegree[v as usize] == 0 {
                        order.push(v);
                    }
                }
            }
        }
        order.len() == self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateBuilder;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    fn add4_cost() -> ChildCost {
        // Mimics the ADD4 cell: data 5.0, carry 3.0.
        let mut arcs = BTreeMap::new();
        for from in [PortClass::Data, PortClass::CarryIn] {
            for to in [PortClass::Data, PortClass::CarryOut] {
                let d = if from == PortClass::CarryIn { 3.0 } else { 5.0 };
                arcs.insert((from, to), d);
            }
        }
        ChildCost {
            area: 26.0,
            timing: Timing { arcs, worst: 5.0 },
        }
    }

    fn ripple(w: usize, k: usize) -> NetlistTemplate {
        let n = w / k;
        let mut t = TemplateBuilder::new("ripple-test");
        let mut parts = Vec::new();
        for i in 0..n {
            let ci = if i == 0 {
                Signal::parent("CI")
            } else {
                Signal::net(&format!("c{i}"))
            };
            t.module(
                &format!("u{i}"),
                add_spec(k),
                vec![
                    ("A", Signal::parent("A").slice(k * i, k)),
                    ("B", Signal::parent("B").slice(k * i, k)),
                    ("CI", ci),
                ],
                vec![
                    ("O", &format!("o{i}"), k),
                    ("CO", &format!("c{}", i + 1), 1),
                ],
            );
            parts.push(Signal::net(&format!("o{i}")));
        }
        t.output("O", Signal::Cat(parts));
        t.output("CO", Signal::net(&format!("c{n}")));
        t.build()
    }

    #[test]
    fn ripple_cost_uses_carry_arcs() {
        let t = ripple(16, 4);
        let cache = SpecModelCache::new();
        t.validate(&add_spec(16), &cache).unwrap();
        let (area, timing) = template_cost(
            &t,
            &add_spec(16),
            &|s| (s == &add_spec(4)).then(add4_cost),
            &cache,
        )
        .unwrap();
        assert_eq!(area, 4.0 * 26.0);
        // Critical path: data into slice 0 (5.0) then 3 carry hops (3.0
        // each) = 14.0 — NOT 4 × 5.0 = 20.
        assert!(
            (timing.worst - 14.0).abs() < 1e-9,
            "worst = {}",
            timing.worst
        );
        // CI → CO arc is all-carry: 4 × 3.0.
        let ci_co = timing.arc(PortClass::CarryIn, PortClass::CarryOut).unwrap();
        assert!((ci_co - 12.0).abs() < 1e-9);
    }

    #[test]
    fn wire_template_costs_nothing() {
        // DELAY.w implemented as a wire: O = I.
        let spec = ComponentSpec::new(ComponentKind::Delay, 8);
        let mut t = TemplateBuilder::new("wire");
        t.output("O", Signal::parent("I"));
        let t = t.build();
        let cache = SpecModelCache::new();
        t.validate(&spec, &cache).unwrap();
        let (area, timing) = template_cost(&t, &spec, &|_| None, &cache).unwrap();
        assert_eq!(area, 0.0);
        assert_eq!(timing.worst, 0.0);
        assert_eq!(timing.arc(PortClass::Data, PortClass::Data), Some(0.0));
    }

    #[test]
    fn missing_child_cost_is_an_error() {
        let t = ripple(8, 4);
        let cache = SpecModelCache::new();
        let err = template_cost(&t, &add_spec(8), &|_| None, &cache).unwrap_err();
        assert!(err.contains("no cost"));
    }

    #[test]
    fn sequential_child_cuts_combinational_path() {
        // Register followed by... nothing: enable-register template.
        let reg_spec =
            ComponentSpec::new(ComponentKind::Register, 4).with_ops(OpSet::only(Op::Load));
        let parent = ComponentSpec::new(ComponentKind::Register, 4)
            .with_ops(OpSet::only(Op::Load))
            .with_enable(true);
        let mux_spec = ComponentSpec::new(ComponentKind::Mux, 4).with_inputs(2);

        let mut t = TemplateBuilder::new("reg-en");
        t.module(
            "mux",
            mux_spec.clone(),
            vec![
                ("I0", Signal::net("q")),
                ("I1", Signal::parent("D")),
                ("S", Signal::parent("EN")),
            ],
            vec![("O", "d_int", 4)],
        );
        t.module(
            "reg",
            reg_spec.clone(),
            vec![("D", Signal::net("d_int")), ("CLK", Signal::cuint(1, 0))],
            vec![("Q", "q", 4)],
        );
        t.output("Q", Signal::net("q"));
        let t = t.build();

        let cache = SpecModelCache::new();
        t.validate(&parent, &cache).unwrap();
        let child = |s: &ComponentSpec| -> Option<ChildCost> {
            if *s == reg_spec {
                Some(ChildCost {
                    area: 22.0,
                    timing: Timing {
                        arcs: BTreeMap::new(),
                        worst: 2.2,
                    },
                })
            } else if *s == mux_spec {
                let mut arcs = BTreeMap::new();
                arcs.insert((PortClass::Data, PortClass::Data), 1.6);
                arcs.insert((PortClass::Select, PortClass::Data), 1.6);
                Some(ChildCost {
                    area: 11.0,
                    timing: Timing { arcs, worst: 1.6 },
                })
            } else {
                None
            }
        };
        let (area, timing) = template_cost(&t, &parent, &child, &cache).unwrap();
        assert_eq!(area, 33.0);
        // No combinational D → Q arc (the register cuts it)...
        assert_eq!(timing.arc(PortClass::Data, PortClass::Data), None);
        // ...but the worst path is Q-launch + mux = 2.2 + 1.6.
        assert!(
            (timing.worst - 3.8).abs() < 1e-9,
            "worst = {}",
            timing.worst
        );
    }
}
