//! Structural VHDL emission.

use dtas::template::{Wire, WireKind};
use dtas::{ImplKind, Implementation};
use genus::build::component_for_spec;
use genus::component::PortDir;
use genus::netlist::Netlist;
use genus::spec::ComponentSpec;
use rtl_base::bits::Bits;
use std::collections::BTreeSet;
use std::fmt::Write as _;

fn vhdl_type(width: usize) -> String {
    if width == 1 {
        "std_logic".to_string()
    } else {
        format!("std_logic_vector({} downto 0)", width - 1)
    }
}

fn vhdl_const(bits: &Bits) -> String {
    if bits.width() == 1 {
        format!("'{}'", if bits.bit(0) { '1' } else { '0' })
    } else {
        format!("\"{bits}\"")
    }
}

/// Renders a template wire as a VHDL expression. Multi-part wires
/// concatenate MSB-first with `&` (VHDL's concatenation order).
fn vhdl_signal(wire: Wire, width_of: &dyn Fn(Wire) -> usize) -> String {
    match wire.kind() {
        WireKind::Net(n) => n.to_string(),
        WireKind::Parent(p) => p.to_string(),
        WireKind::Const(b) => vhdl_const(b),
        WireKind::Slice(inner, lo, len) => {
            let base = vhdl_signal(inner, width_of);
            if len == 1 && width_of(inner) == 1 {
                base
            } else if len == 1 {
                format!("{base}({lo})")
            } else {
                format!("{base}({} downto {lo})", lo + len - 1)
            }
        }
        WireKind::Cat(parts) => parts
            .rev()
            .map(|p| vhdl_signal(p, width_of))
            .collect::<Vec<_>>()
            .join(" & "),
        WireKind::Replicate(inner, n) => {
            let one = vhdl_signal(inner, width_of);
            vec![one; n].join(" & ")
        }
    }
}

fn header(out: &mut String) {
    out.push_str("library ieee;\nuse ieee.std_logic_1164.all;\n\n");
}

/// Emits a flat GENUS netlist as one structural VHDL entity.
pub fn emit_netlist(netlist: &Netlist) -> String {
    let mut out = String::new();
    header(&mut out);
    let _ = writeln!(out, "entity {} is", netlist.name());
    out.push_str("  port (\n");
    let ports: Vec<String> = netlist
        .ports()
        .iter()
        .map(|p| {
            let dir = match p.dir {
                PortDir::In => "in",
                PortDir::Out => "out",
            };
            let width = netlist.net(&p.net).map(|n| n.width).unwrap_or(1);
            format!("    {} : {} {}", p.name, dir, vhdl_type(width))
        })
        .collect();
    out.push_str(&ports.join(";\n"));
    out.push_str("\n  );\n");
    let _ = writeln!(out, "end entity {};\n", netlist.name());
    let _ = writeln!(out, "architecture structure of {} is", netlist.name());

    // Component declarations, one per distinct component.
    let mut declared: BTreeSet<String> = BTreeSet::new();
    for inst in netlist.instances() {
        let comp = &inst.component;
        if !declared.insert(comp.name().to_string()) {
            continue;
        }
        let _ = writeln!(out, "  component {}", comp.name());
        out.push_str("    port (\n");
        let ps: Vec<String> = comp
            .ports()
            .iter()
            .map(|p| {
                let dir = match p.dir {
                    PortDir::In => "in",
                    PortDir::Out => "out",
                };
                format!("      {} : {} {}", p.name, dir, vhdl_type(p.width))
            })
            .collect();
        out.push_str(&ps.join(";\n"));
        out.push_str("\n    );\n  end component;\n");
    }

    // Internal signals: every net not bound to an external port name.
    let port_nets: BTreeSet<&str> = netlist.ports().iter().map(|p| p.net.as_str()).collect();
    for net in netlist.nets() {
        if port_nets.contains(net.name.as_str()) {
            continue;
        }
        let _ = writeln!(out, "  signal {} : {};", net.name, vhdl_type(net.width));
    }
    out.push_str("begin\n");
    // Port aliases.
    for p in netlist.ports() {
        if port_nets.contains(p.net.as_str()) {
            match p.dir {
                PortDir::In => {}
                PortDir::Out => {}
            }
        }
    }
    // Constant drivers.
    for net in netlist.nets() {
        if let Some(v) = &net.constant {
            let _ = writeln!(out, "  {} <= {};", net.name, vhdl_const(v));
        }
    }
    // Instances.
    for inst in netlist.instances() {
        let _ = writeln!(out, "  {}: {}", sanitize(&inst.name), inst.component.name());
        out.push_str("    port map (\n");
        let maps: Vec<String> = inst
            .connections
            .iter()
            .map(|(port, net)| {
                let target = netlist
                    .ports()
                    .iter()
                    .find(|p| &p.net == net)
                    .map(|p| p.name.clone())
                    .unwrap_or_else(|| net.clone());
                format!("      {port} => {target}")
            })
            .collect();
        out.push_str(&maps.join(",\n"));
        out.push_str("\n    );\n");
    }
    out.push_str("end architecture structure;\n");
    out
}

fn sanitize(name: &str) -> String {
    name.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
}

/// Emits a DTAS implementation as hierarchical structural VHDL: one
/// entity per distinct specification, with leaf cells instantiated by
/// their data book names.
///
/// # Errors
///
/// Returns a message when a spec's model cannot be built.
pub fn emit_implementation(implementation: &Implementation) -> Result<String, String> {
    let mut out = String::new();
    header(&mut out);
    let mut emitted: BTreeSet<String> = BTreeSet::new();
    emit_impl_entities(implementation, &mut out, &mut emitted)?;
    Ok(out)
}

fn entity_decl(spec: &ComponentSpec, out: &mut String) -> Result<(), String> {
    let model = component_for_spec(spec).map_err(|e| e.to_string())?;
    let name = spec.identifier();
    let _ = writeln!(out, "entity {name} is");
    out.push_str("  port (\n");
    let ps: Vec<String> = model
        .ports()
        .iter()
        .map(|p| {
            let dir = match p.dir {
                PortDir::In => "in",
                PortDir::Out => "out",
            };
            format!("    {} : {} {}", p.name, dir, vhdl_type(p.width))
        })
        .collect();
    out.push_str(&ps.join(";\n"));
    out.push_str("\n  );\n");
    let _ = writeln!(out, "end entity {name};\n");
    Ok(())
}

fn emit_impl_entities(
    implementation: &Implementation,
    out: &mut String,
    emitted: &mut BTreeSet<String>,
) -> Result<(), String> {
    let name = implementation.spec.identifier();
    if !emitted.insert(name.clone()) {
        return Ok(());
    }
    match &implementation.kind {
        ImplKind::Cell { name: cell } => {
            entity_decl(&implementation.spec, out)?;
            let _ = writeln!(
                out,
                "architecture cell of {name} is\nbegin\n  -- maps to data book cell {cell}\nend architecture cell;\n"
            );
        }
        ImplKind::Netlist { template, children } => {
            // Children first so entities appear bottom-up.
            for child in children {
                emit_impl_entities(child, out, emitted)?;
            }
            entity_decl(&implementation.spec, out)?;
            let model = component_for_spec(&implementation.spec).map_err(|e| e.to_string())?;
            let _ = model;
            let _ = writeln!(
                out,
                "architecture {} of {name} is",
                sanitize(template.rule())
            );
            for (net, width) in template.nets() {
                let _ = writeln!(out, "  signal {net} : {};", vhdl_type(width));
            }
            out.push_str("begin\n");
            let width_of = |wire: Wire| -> usize {
                let pw = |p: &str| {
                    component_for_spec(&implementation.spec)
                        .ok()
                        .and_then(|m| m.port(p).map(|port| port.width))
                };
                wire.width(&pw).unwrap_or(1)
            };
            for (module, child) in template.modules().zip(children) {
                let centity = child.spec.identifier();
                let _ = writeln!(out, "  {}: entity work.{centity}", sanitize(module.name()));
                out.push_str("    port map (\n");
                let mut maps: Vec<String> = module
                    .inputs()
                    .map(|(port, wire)| format!("      {port} => {}", vhdl_signal(wire, &width_of)))
                    .collect();
                maps.extend(
                    module
                        .outputs()
                        .map(|(port, net)| format!("      {port} => {net}")),
                );
                out.push_str(&maps.join(",\n"));
                out.push_str("\n    );\n");
            }
            for (port, wire) in template.outputs() {
                let _ = writeln!(out, "  {port} <= {};", vhdl_signal(wire, &width_of));
            }
            let _ = writeln!(out, "end architecture {};\n", sanitize(template.rule()));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use dtas::Dtas;
    use genus::component::Instance;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};
    use genus::stdlib::GenusLibrary;
    use std::sync::Arc;

    fn adder_netlist() -> Netlist {
        let lib = GenusLibrary::standard();
        let adder = Arc::new(lib.adder(8).unwrap());
        let mut nl = Netlist::new("datapath");
        for (n, w) in [("a", 8), ("b", 8), ("s", 8), ("ci", 1), ("co", 1)] {
            nl.add_net(n, w).unwrap();
        }
        nl.add_instance(
            Instance::new("u0", adder)
                .with_connection("A", "a")
                .with_connection("B", "b")
                .with_connection("CI", "ci")
                .with_connection("O", "s")
                .with_connection("CO", "co"),
        )
        .unwrap();
        nl.expose_input("a", "a").unwrap();
        nl.expose_input("b", "b").unwrap();
        nl.expose_input("ci", "ci").unwrap();
        nl.expose_output("s", "s").unwrap();
        nl.expose_output("co", "co").unwrap();
        nl
    }

    #[test]
    fn netlist_vhdl_mentions_everything() {
        let text = emit_netlist(&adder_netlist());
        for needle in [
            "entity datapath is",
            "component ADDSUB_8",
            "u0: ADDSUB_8",
            "A => a",
            "std_logic_vector(7 downto 0)",
        ] {
            assert!(text.contains(needle), "missing {needle:?}:\n{text}");
        }
    }

    #[test]
    fn implementation_vhdl_is_hierarchical() {
        let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let set = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
        let alt = set.fastest().unwrap();
        let text = emit_implementation(&alt.implementation).unwrap();
        assert!(text.contains("entity addsub_16_ci_co_add is"), "{text}");
        // Leaves name their data book cells.
        assert!(text.contains("maps to data book cell"), "{text}");
        // Slicing wiring appears as VHDL ranges.
        assert!(text.contains("downto"), "{text}");
    }

    #[test]
    fn constants_are_driven() {
        let mut nl = adder_netlist();
        nl.add_const_net("zero", Bits::zero(1)).unwrap();
        let text = emit_netlist(&nl);
        assert!(text.contains("zero <= '0';"));
    }
}
