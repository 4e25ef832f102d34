//! Flattening hierarchical implementations into leaf-cell netlists.
//!
//! A DTAS [`Implementation`] is a tree of decomposition templates whose
//! leaves are library cells. Simulation (and gate-level export) wants a
//! flat view: every leaf cell with its wiring expressed over flat nets.
//! Flattening substitutes parent-port references with the signals wired to
//! them at each level, so arbitrary slicing/concatenation wiring composes.

use dtas::template::{Signal, Wire, WireKind};
use dtas::{ImplKind, Implementation};
use genus::build::component_for_spec;
use genus::component::{Component, PortDir};
use genus::netlist::Netlist;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One leaf cell of a flattened design.
#[derive(Clone, Debug)]
pub struct FlatCell {
    /// Hierarchical path (e.g. `grp2/slice0`).
    pub path: String,
    /// Behavioral model of the *specification* this cell implements.
    pub model: Arc<Component>,
    /// Input port → signal over flat nets / primary inputs / constants.
    pub inputs: BTreeMap<String, Signal>,
    /// Output port → flat net driven.
    pub outputs: BTreeMap<String, String>,
}

/// A flattened design: leaf cells, net aliases, and primary ports.
#[derive(Clone, Debug, Default)]
pub struct FlatDesign {
    /// Leaf cells.
    pub cells: Vec<FlatCell>,
    /// Nets defined as expressions over other nets (template outputs).
    pub aliases: BTreeMap<String, Signal>,
    /// Primary outputs: port name → signal.
    pub outputs: BTreeMap<String, Signal>,
    /// Primary inputs with widths.
    pub inputs: Vec<(String, usize)>,
}

/// Error produced while flattening.
#[derive(Clone, Debug, PartialEq)]
pub struct FlattenError(pub String);

impl fmt::Display for FlattenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flatten: {}", self.0)
    }
}

impl std::error::Error for FlattenError {}

/// Rewrites a template wire into flat-net space: internal nets get the
/// `path` prefix; parent ports substitute to the signals bound at the
/// instantiation site.
fn substitute(
    wire: Wire,
    path: &str,
    bindings: &BTreeMap<String, Signal>,
) -> Result<Signal, FlattenError> {
    Ok(match wire.kind() {
        WireKind::Net(n) => Signal::Net(format!("{path}{n}")),
        WireKind::Parent(p) => bindings
            .get(p)
            .cloned()
            .ok_or_else(|| FlattenError(format!("unbound parent port {p} at {path}")))?,
        WireKind::Const(b) => Signal::Const(b.clone()),
        WireKind::Slice(inner, lo, len) => substitute(inner, path, bindings)?.slice(lo, len),
        WireKind::Cat(parts) => Signal::Cat(
            parts
                .map(|p| substitute(p, path, bindings))
                .collect::<Result<_, _>>()?,
        ),
        WireKind::Replicate(inner, n) => substitute(inner, path, bindings)?.replicate(n),
    })
}

fn flatten_into(
    implementation: &Implementation,
    path: &str,
    bindings: &BTreeMap<String, Signal>,
    out_bindings: &BTreeMap<String, String>,
    design: &mut FlatDesign,
) -> Result<(), FlattenError> {
    match &implementation.kind {
        ImplKind::Cell { .. } => {
            let model = Arc::new(
                component_for_spec(&implementation.spec)
                    .map_err(|e| FlattenError(e.to_string()))?,
            );
            let mut inputs = BTreeMap::new();
            for port in model.inputs() {
                let sig = bindings.get(&port.name).cloned().ok_or_else(|| {
                    FlattenError(format!("cell {path}: input {} unbound", port.name))
                })?;
                inputs.insert(port.name.clone(), sig);
            }
            design.cells.push(FlatCell {
                path: path.trim_end_matches('/').to_string(),
                model,
                inputs,
                outputs: out_bindings.clone(),
            });
        }
        ImplKind::Netlist { template, children } => {
            // Template-internal nets keep their (prefixed) names; module
            // outputs drive them.
            for (module, child) in template.modules().zip(children) {
                let mut child_bindings = BTreeMap::new();
                for (port, wire) in module.inputs() {
                    child_bindings.insert(port.to_string(), substitute(wire, path, bindings)?);
                }
                let child_outs: BTreeMap<String, String> = module
                    .outputs()
                    .map(|(port, net)| (port.to_string(), format!("{path}{net}")))
                    .collect();
                flatten_into(
                    child,
                    &format!("{path}{}/", module.name()),
                    &child_bindings,
                    &child_outs,
                    design,
                )?;
            }
            // The template's parent outputs alias onto the nets (or
            // primary outputs) the instantiation site expects.
            for (port, net) in out_bindings {
                let wire = template
                    .output(port)
                    .ok_or_else(|| FlattenError(format!("{path}: template lacks output {port}")))?;
                design
                    .aliases
                    .insert(net.clone(), substitute(wire, path, bindings)?);
            }
        }
    }
    Ok(())
}

impl FlatDesign {
    /// Flattens a DTAS implementation. Primary ports take the names and
    /// widths of the implemented specification's component model.
    ///
    /// # Errors
    ///
    /// Returns [`FlattenError`] for malformed implementations (never
    /// produced by DTAS itself).
    pub fn from_implementation(
        implementation: &Implementation,
    ) -> Result<FlatDesign, FlattenError> {
        let model =
            component_for_spec(&implementation.spec).map_err(|e| FlattenError(e.to_string()))?;
        let mut design = FlatDesign::default();
        let mut bindings = BTreeMap::new();
        for port in model.inputs() {
            bindings.insert(port.name.clone(), Signal::parent(&port.name));
            design.inputs.push((port.name.clone(), port.width));
        }
        let out_bindings: BTreeMap<String, String> = model
            .outputs()
            .map(|p| (p.name.clone(), format!("__out_{}", p.name)))
            .collect();
        flatten_into(implementation, "", &bindings, &out_bindings, &mut design)?;
        for port in model.outputs() {
            design.outputs.insert(
                port.name.clone(),
                Signal::net(&format!("__out_{}", port.name)),
            );
        }
        Ok(design)
    }

    /// Converts a (flat) GENUS netlist into the simulator's form: each
    /// instance becomes one "cell" evaluated by its component model.
    ///
    /// # Errors
    ///
    /// Returns [`FlattenError`] when instance connections are incomplete
    /// (run [`Netlist::validate`] first for better diagnostics).
    pub fn from_netlist(netlist: &Netlist) -> Result<FlatDesign, FlattenError> {
        let mut design = FlatDesign::default();
        for net in netlist.nets() {
            if let Some(value) = &net.constant {
                design
                    .aliases
                    .insert(net.name.clone(), Signal::Const(value.clone()));
            }
        }
        for port in netlist.ports() {
            match port.dir {
                PortDir::In => {
                    let width = netlist
                        .net(&port.net)
                        .map(|n| n.width)
                        .ok_or_else(|| FlattenError(format!("port {} net missing", port.name)))?;
                    design.inputs.push((port.name.clone(), width));
                    design
                        .aliases
                        .insert(port.net.clone(), Signal::parent(&port.name));
                }
                PortDir::Out => {
                    design
                        .outputs
                        .insert(port.name.clone(), Signal::net(&port.net));
                }
            }
        }
        for inst in netlist.instances() {
            let mut inputs = BTreeMap::new();
            let mut outputs = BTreeMap::new();
            for (port_name, net) in &inst.connections {
                match inst.component.port(port_name).map(|p| p.dir) {
                    Some(PortDir::In) => {
                        inputs.insert(port_name.clone(), Signal::net(net));
                    }
                    Some(PortDir::Out) => {
                        outputs.insert(port_name.clone(), net.clone());
                    }
                    None => {
                        return Err(FlattenError(format!(
                            "{} has no port {port_name}",
                            inst.name
                        )))
                    }
                }
            }
            design.cells.push(FlatCell {
                path: inst.name.clone(),
                model: Arc::clone(&inst.component),
                inputs,
                outputs,
            });
        }
        Ok(design)
    }

    /// Number of leaf cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use dtas::Dtas;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};
    use genus::spec::ComponentSpec;

    #[test]
    fn flatten_add8_counts_cells() {
        let spec = ComponentSpec::new(ComponentKind::AddSub, 8)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let set = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
        for alt in &set.alternatives {
            let flat = FlatDesign::from_implementation(&alt.implementation).unwrap();
            assert_eq!(flat.cell_count(), alt.implementation.cell_count());
            assert!(flat.outputs.contains_key("O"));
            assert!(flat.outputs.contains_key("CO"));
            assert_eq!(flat.inputs.len(), 3); // A, B, CI
        }
    }

    #[test]
    fn paths_are_hierarchical() {
        let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let set = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
        let deep = set
            .alternatives
            .iter()
            .max_by_key(|a| a.implementation.depth())
            .unwrap();
        let flat = FlatDesign::from_implementation(&deep.implementation).unwrap();
        assert!(flat.cells.iter().any(|c| c.path.contains('/')));
    }
}
