//! Seeded defect corpus for the `core::analyze` static-analysis passes,
//! exercised through the same public surface `dtas lint` uses: for every
//! shipped diagnostic code there is at least one fixture that triggers it
//! and one near-miss that must stay silent. A property test at the end
//! checks the lint's contract with the engine — a lint-clean random
//! netlist maps without panicking — and the `examples/` artifacts are
//! kept lint-clean and in sync with their in-tree sources.

use cells::lsi::lsi_logic_subset;
use cells::{Cell, CellLibrary};
use dtas::template::{NetlistTemplate, Signal, SpecModelCache, TemplateBuilder};
use dtas::{Dtas, LintRegistry, LintReport, LintTarget, Rule, RuleSet};
use genus::component::Instance;
use genus::kind::{ComponentKind, GateOp};
use genus::netlist::Netlist;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use genus::stdlib::GenusLibrary;
use hls_rtl_bridge::Flow;
use legend::ast::{LegendDescription, LegendExpr, OperationDecl, OpsClause, PortDecl, WidthSpec};
use proptest::prelude::*;
use std::sync::Arc;

fn codes(report: &LintReport) -> Vec<&'static str> {
    report.diagnostics.iter().map(|d| d.code).collect()
}

// ---------------------------------------------------------------- netlists

fn netlist_codes(nl: &Netlist) -> Vec<&'static str> {
    codes(&LintRegistry::standard().run(&LintTarget::Netlist(nl)))
}

/// A correctly wired 8-bit adder: the clean baseline every netlist
/// fixture perturbs.
fn clean_adder() -> Netlist {
    let lib = GenusLibrary::standard();
    let adder = Arc::new(lib.adder(8).unwrap());
    let mut nl = Netlist::new("t");
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
fn dt101_dangling_net_and_clean_near_miss() {
    assert!(netlist_codes(&clean_adder()).is_empty());
    let mut nl = clean_adder();
    nl.add_net("orphan", 4).unwrap();
    assert_eq!(netlist_codes(&nl), vec!["DT101"]);
}

#[test]
fn dt102_undriven_net_and_exposed_input_near_miss() {
    let lib = GenusLibrary::standard();
    let build = |expose_mid: bool| {
        let mut nl = Netlist::new("t");
        nl.add_net("mid", 4).unwrap();
        nl.add_net("out", 4).unwrap();
        nl.add_instance(
            Instance::new("u0", Arc::new(lib.buffer(4).unwrap()))
                .with_connection("I", "mid")
                .with_connection("O", "out"),
        )
        .unwrap();
        if expose_mid {
            nl.expose_input("mid", "mid").unwrap();
        }
        nl.expose_output("out", "out").unwrap();
        nl
    };
    assert_eq!(netlist_codes(&build(false)), vec!["DT102"]);
    assert!(netlist_codes(&build(true)).is_empty());
}

#[test]
fn dt103_multiple_drivers_and_single_driver_near_miss() {
    let lib = GenusLibrary::standard();
    let build = |second_driver: bool| {
        let mut nl = Netlist::new("t");
        nl.add_net("x", 4).unwrap();
        nl.add_net("y", 4).unwrap();
        nl.expose_input("x", "x").unwrap();
        nl.expose_output("y", "y").unwrap();
        nl.add_instance(
            Instance::new("u0", Arc::new(lib.buffer(4).unwrap()))
                .with_connection("I", "x")
                .with_connection("O", "y"),
        )
        .unwrap();
        if second_driver {
            nl.add_instance(
                Instance::new("u1", Arc::new(lib.buffer(4).unwrap()))
                    .with_connection("I", "x")
                    .with_connection("O", "y"),
            )
            .unwrap();
        }
        nl
    };
    assert_eq!(netlist_codes(&build(true)), vec!["DT103"]);
    assert!(netlist_codes(&build(false)).is_empty());
}

#[test]
fn dt104_width_mismatch_and_matching_near_miss() {
    let lib = GenusLibrary::standard();
    let build = |in_width: usize| {
        let mut nl = Netlist::new("t");
        nl.add_net("a", in_width).unwrap();
        nl.add_net("s", 8).unwrap();
        nl.expose_input("a", "a").unwrap();
        nl.expose_output("s", "s").unwrap();
        nl.add_instance(
            Instance::new("u0", Arc::new(lib.buffer(8).unwrap()))
                .with_connection("I", "a")
                .with_connection("O", "s"),
        )
        .unwrap();
        nl
    };
    assert_eq!(netlist_codes(&build(4)), vec!["DT104"]);
    assert!(netlist_codes(&build(8)).is_empty());
}

#[test]
fn dt105_combinational_loop_and_registered_near_miss() {
    let lib = GenusLibrary::standard();
    let buf = Arc::new(lib.buffer(4).unwrap());
    let mut nl = Netlist::new("loop");
    nl.add_net("x", 4).unwrap();
    nl.add_net("y", 4).unwrap();
    nl.add_instance(
        Instance::new("u0", Arc::clone(&buf))
            .with_connection("I", "x")
            .with_connection("O", "y"),
    )
    .unwrap();
    nl.add_instance(
        Instance::new("u1", Arc::clone(&buf))
            .with_connection("I", "y")
            .with_connection("O", "x"),
    )
    .unwrap();
    nl.expose_output("y", "y").unwrap();
    assert!(netlist_codes(&nl).contains(&"DT105"));

    // The same topology with a register in the path is a legitimate
    // sequential feedback structure.
    let mut nl2 = Netlist::new("reg_loop");
    nl2.add_net("x", 4).unwrap();
    nl2.add_net("y", 4).unwrap();
    nl2.add_net("clk", 1).unwrap();
    nl2.expose_input("clk", "clk").unwrap();
    nl2.add_instance(
        Instance::new("u0", buf)
            .with_connection("I", "x")
            .with_connection("O", "y"),
    )
    .unwrap();
    nl2.add_instance(
        Instance::new("r0", Arc::new(lib.register(4).unwrap()))
            .with_connection("D", "y")
            .with_connection("CLK", "clk")
            .with_connection("Q", "x"),
    )
    .unwrap();
    nl2.expose_output("y", "y").unwrap();
    assert!(!netlist_codes(&nl2).contains(&"DT105"));
}

#[test]
fn dt106_unreachable_component_and_connected_near_miss() {
    let lib = GenusLibrary::standard();
    let build = |expose_tail: bool| {
        let mut nl = Netlist::new("t");
        for (n, w) in [("x", 4), ("y", 4), ("z", 4), ("clk", 1)] {
            nl.add_net(n, w).unwrap();
        }
        nl.expose_input("x", "x").unwrap();
        nl.expose_input("clk", "clk").unwrap();
        nl.expose_output("y", "y").unwrap();
        nl.add_instance(
            Instance::new("u0", Arc::new(lib.buffer(4).unwrap()))
                .with_connection("I", "x")
                .with_connection("O", "y"),
        )
        .unwrap();
        // A side branch: x -> r0 -> z; its Q output either feeds the
        // design output (near miss) or a register whose output is left
        // unconnected (unreachable).
        nl.add_instance(
            Instance::new("r0", Arc::new(lib.register(4).unwrap()))
                .with_connection("D", "x")
                .with_connection("CLK", "clk")
                .with_connection("Q", "z"),
        )
        .unwrap();
        let mut sink = Instance::new("r1", Arc::new(lib.register(4).unwrap()))
            .with_connection("D", "z")
            .with_connection("CLK", "clk");
        if expose_tail {
            nl.add_net("q", 4).unwrap();
            sink = sink.with_connection("Q", "q");
        }
        nl.add_instance(sink).unwrap();
        if expose_tail {
            nl.expose_output("q", "q").unwrap();
        }
        nl
    };
    let found = netlist_codes(&build(false));
    assert!(found.contains(&"DT106"), "{found:?}");
    assert!(!found.contains(&"DT101"), "{found:?}");
    assert!(netlist_codes(&build(true)).is_empty());
}

#[test]
fn dt107_unknown_reference_and_known_near_miss() {
    let lib = GenusLibrary::standard();
    let build = |net: &str| {
        let mut nl = Netlist::new("t");
        nl.add_net("x", 4).unwrap();
        nl.add_net("s", 4).unwrap();
        nl.expose_input("x", "x").unwrap();
        nl.expose_output("s", "s").unwrap();
        nl.add_instance(
            Instance::new("u0", Arc::new(lib.buffer(4).unwrap()))
                .with_connection("I", net)
                .with_connection("O", "s"),
        )
        .unwrap();
        nl
    };
    assert!(netlist_codes(&build("ghost")).contains(&"DT107"));
    assert!(netlist_codes(&build("x")).is_empty());
}

// --------------------------------------------------------------- rule base

/// A rule with a fixed name and expansion function, appended to the
/// shipped base as a library rule.
struct TestRule {
    name: &'static str,
    expand: fn(&ComponentSpec) -> Vec<NetlistTemplate>,
}

impl Rule for TestRule {
    fn name(&self) -> &str {
        self.name
    }
    fn doc(&self) -> &str {
        "lint corpus rule"
    }
    fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        (self.expand)(spec)
    }
}

fn base_with(extra: Vec<Box<dyn Rule>>) -> RuleSet {
    let mut rules = dtas::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    rules.append_library_rules(extra);
    rules
}

fn rule_codes(rules: &RuleSet) -> Vec<&'static str> {
    let library = lsi_logic_subset();
    codes(&LintRegistry::standard().run(&LintTarget::Rules {
        rules,
        library: &library,
    }))
}

/// DELAY.4 -> a chain of NOT gates: structurally valid, and the chain
/// length makes two such rules structurally distinct.
fn not_chain(len: usize) -> fn(&ComponentSpec) -> Vec<NetlistTemplate> {
    match len {
        2 => |spec| not_chain_template(spec, 2),
        _ => |spec| not_chain_template(spec, 4),
    }
}

fn not_chain_template(spec: &ComponentSpec, len: usize) -> Vec<NetlistTemplate> {
    if spec.kind != ComponentKind::Delay || spec.width != 4 {
        return Vec::new();
    }
    let not4 = ComponentSpec::new(ComponentKind::Gate(GateOp::Not), 4).with_inputs(1);
    let mut t = TemplateBuilder::new("not-chain");
    for i in 0..len {
        let prev = format!("w{}", i.wrapping_sub(1));
        let input = if i == 0 {
            Signal::parent("I")
        } else {
            Signal::net(&prev)
        };
        let name = format!("m{i}");
        let out = format!("w{i}");
        t.module(
            &name,
            not4.clone(),
            vec![("I0", input)],
            vec![("O", out.as_str(), 4)],
        );
    }
    let last = format!("w{}", len - 1);
    t.output("O", Signal::net(&last));
    vec![t.build()]
}

#[test]
fn shipped_rule_base_is_clean() {
    let rules = dtas::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    let library = lsi_logic_subset();
    let report = LintRegistry::standard().run(&LintTarget::Rules {
        rules: &rules,
        library: &library,
    });
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dt201_shadowed_rule_and_distinct_near_miss() {
    // Two appended rules producing identical templates: the later one is
    // shadowed by the earlier.
    let rules = base_with(vec![
        Box::new(TestRule {
            name: "first",
            expand: not_chain(2),
        }),
        Box::new(TestRule {
            name: "second",
            expand: not_chain(2),
        }),
    ]);
    let report = LintRegistry::standard().run(&LintTarget::Rules {
        rules: &rules,
        library: &lsi_logic_subset(),
    });
    assert_eq!(codes(&report), vec!["DT201"]);
    assert!(report.diagnostics[0].site.contains("second"), "{report}");

    // Different internal structure (chain length): no shadowing. The
    // rules carry fresh names because the closure analysis is memoized
    // on the rule-set fingerprint, which hashes names.
    let rules = base_with(vec![
        Box::new(TestRule {
            name: "first-short",
            expand: not_chain(2),
        }),
        Box::new(TestRule {
            name: "second-long",
            expand: not_chain(4),
        }),
    ]);
    assert!(rule_codes(&rules).is_empty());
}

#[test]
fn dt202_inapplicable_rule_and_firing_near_miss() {
    let rules = base_with(vec![Box::new(TestRule {
        name: "never-fires",
        expand: |_| Vec::new(),
    })]);
    assert_eq!(rule_codes(&rules), vec!["DT202"]);

    let rules = base_with(vec![Box::new(TestRule {
        name: "fires",
        expand: not_chain(2),
    })]);
    assert!(rule_codes(&rules).is_empty());
}

#[test]
fn dt203_self_recursive_rule_detected() {
    fn self_wrap(spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        if spec.kind != ComponentKind::Delay || spec.width != 4 {
            return Vec::new();
        }
        let mut t = TemplateBuilder::new("delay-self");
        t.module(
            "m0",
            spec.clone(),
            vec![("I", Signal::parent("I"))],
            vec![("O", "w", spec.width)],
        );
        t.output("O", Signal::net("w"));
        vec![t.build()]
    }
    let rules = base_with(vec![Box::new(TestRule {
        name: "delay-self",
        expand: self_wrap,
    })]);
    let found = rule_codes(&rules);
    assert!(found.contains(&"DT203"), "{found:?}");
    // The not-pair rule rewrites DELAY without reproducing it: no DT203.
    let rules = base_with(vec![Box::new(TestRule {
        name: "delay-progress",
        expand: not_chain(2),
    })]);
    assert!(!rule_codes(&rules).contains(&"DT203"));
}

/// A library rule decomposing DELAY.1 into `victim`, wiring every input
/// of the victim's model to the parent's 1-bit input.
fn dead_end_template(spec: &ComponentSpec, victim: ComponentSpec) -> Vec<NetlistTemplate> {
    if spec.kind != ComponentKind::Delay || spec.width != 1 {
        return Vec::new();
    }
    let cache = SpecModelCache::new();
    let Ok(model) = cache.model(&victim) else {
        return Vec::new();
    };
    let inputs: Vec<(String, Signal)> = model
        .inputs()
        .map(|p| (p.name.clone(), Signal::parent("I")))
        .collect();
    let out_port = model
        .outputs()
        .next()
        .expect("victim has an output")
        .name
        .clone();
    let mut t = TemplateBuilder::new("dead-end");
    t.module("m0", victim, inputs, vec![(out_port.as_str(), "w", 1)]);
    t.output("O", Signal::net("w"));
    vec![t.build()]
}

#[test]
fn dt204_unmatchable_leaf_and_implementable_near_miss() {
    // No databook cell is a counter and no rule fires on an
    // async-set/reset counter: a dead-end leaf.
    fn dead_counter(spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        let victim = ComponentSpec::new(ComponentKind::Counter, 1)
            .with_ops([Op::Load, Op::CountUp, Op::CountDown].into_iter().collect())
            .with_async_set_reset(true);
        dead_end_template(spec, victim)
    }
    let rules = base_with(vec![Box::new(TestRule {
        name: "dead-end",
        expand: dead_counter,
    })]);
    let found = rule_codes(&rules);
    assert!(found.contains(&"DT204"), "{found:?}");

    // A 1-bit LOAD register leaf is matchable (D flip-flop cells).
    fn live_register(spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        let victim = ComponentSpec::new(ComponentKind::Register, 1).with_ops(OpSet::only(Op::Load));
        dead_end_template(spec, victim)
    }
    let rules = base_with(vec![Box::new(TestRule {
        name: "live-end",
        expand: live_register,
    })]);
    assert!(!rule_codes(&rules).contains(&"DT204"));
}

#[test]
fn dt205_invalid_template_and_valid_near_miss() {
    fn bad_parent_port(spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        if spec.kind != ComponentKind::Delay || spec.width != 4 {
            return Vec::new();
        }
        let not4 = ComponentSpec::new(ComponentKind::Gate(GateOp::Not), 4).with_inputs(1);
        let mut t = TemplateBuilder::new("bad-port");
        t.module(
            "m0",
            not4,
            vec![("I0", Signal::parent("NOPE"))],
            vec![("O", "w", 4)],
        );
        t.output("O", Signal::net("w"));
        vec![t.build()]
    }
    let rules = base_with(vec![Box::new(TestRule {
        name: "bad-port",
        expand: bad_parent_port,
    })]);
    let found = rule_codes(&rules);
    assert!(found.contains(&"DT205"), "{found:?}");
    // Same shape wired to the real parent port: valid.
    let rules = base_with(vec![Box::new(TestRule {
        name: "good-port",
        expand: not_chain(2),
    })]);
    assert!(!rule_codes(&rules).contains(&"DT205"));
}

#[test]
fn dt206_duplicate_rule_name_and_distinct_near_miss() {
    let rules = base_with(vec![
        Box::new(TestRule {
            name: "twin",
            expand: |_| Vec::new(),
        }),
        Box::new(TestRule {
            name: "twin",
            expand: |_| Vec::new(),
        }),
    ]);
    assert!(rule_codes(&rules).contains(&"DT206"));
    let rules = base_with(vec![
        Box::new(TestRule {
            name: "one",
            expand: |_| Vec::new(),
        }),
        Box::new(TestRule {
            name: "two",
            expand: |_| Vec::new(),
        }),
    ]);
    assert!(!rule_codes(&rules).contains(&"DT206"));
}

// ---------------------------------------------------------------- databook

fn book_codes(lib: &CellLibrary) -> Vec<&'static str> {
    codes(&LintRegistry::standard().run(&LintTarget::Databook(lib)))
}

fn gate2(name: &str, area: f64, delay: f64) -> Cell {
    let spec = ComponentSpec::new(ComponentKind::Gate(GateOp::Nand), 1)
        .with_inputs(2)
        .with_ops(OpSet::only(Op::Nand));
    Cell::new(name, spec, area, delay)
}

#[test]
fn shipped_book_is_clean() {
    let report = LintRegistry::standard().run(&LintTarget::Databook(&lsi_logic_subset()));
    assert!(report.is_clean(), "{report}");
}

#[test]
fn dt301_bad_cost_and_zero_cost_near_miss() {
    let mut lib = CellLibrary::new("t");
    lib.insert(gate2("BAD", f64::NAN, 1.0));
    assert_eq!(book_codes(&lib), vec!["DT301"]);
    // Zero cost is unusual but legal (the ND2 unit definition).
    let mut lib2 = CellLibrary::new("t2");
    lib2.insert(gate2("FREE", 0.0, 0.0));
    assert!(book_codes(&lib2).is_empty());
}

#[test]
fn dt302_dominated_cell_and_tradeoff_near_miss() {
    let mut lib = CellLibrary::new("t");
    lib.insert(gate2("GOOD", 1.0, 1.0));
    lib.insert(gate2("WORSE", 2.0, 1.5));
    assert_eq!(book_codes(&lib), vec!["DT302"]);
    // A genuine area/delay trade-off pair stays.
    let mut lib2 = CellLibrary::new("t2");
    lib2.insert(gate2("SMALL", 1.0, 2.0));
    lib2.insert(gate2("FAST", 2.0, 1.0));
    assert!(book_codes(&lib2).is_empty());
}

#[test]
fn dt303_missing_carry_arc_and_declared_near_miss() {
    let spec = ComponentSpec::new(ComponentKind::AddSub, 2)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true);
    let mut lib = CellLibrary::new("t");
    lib.insert(Cell::new("ADD2X", spec.clone(), 4.0, 3.0));
    assert_eq!(book_codes(&lib), vec!["DT303"]);
    let mut lib2 = CellLibrary::new("t2");
    lib2.insert(Cell::new("ADD2Y", spec, 4.0, 3.0).with_carry_delay(1.0));
    assert!(book_codes(&lib2).is_empty());
}

#[test]
fn dt304_non_monotone_family_and_monotone_near_miss() {
    let spec =
        |w: usize| ComponentSpec::new(ComponentKind::Register, w).with_ops(OpSet::only(Op::Load));
    let mut lib = CellLibrary::new("t");
    lib.insert(Cell::new("R4", spec(4), 10.0, 1.0));
    lib.insert(Cell::new("R8", spec(8), 5.0, 1.0)); // wider yet smaller
    assert_eq!(book_codes(&lib), vec!["DT304"]);
    let mut lib2 = CellLibrary::new("t2");
    lib2.insert(Cell::new("R4", spec(4), 10.0, 1.0));
    lib2.insert(Cell::new("R8", spec(8), 18.0, 1.2));
    assert!(book_codes(&lib2).is_empty());
}

// ------------------------------------------------------------------ legend

fn legend_codes(descs: &[LegendDescription]) -> Vec<&'static str> {
    codes(&LintRegistry::standard().run(&LintTarget::Legend(descs)))
}

fn port(name: &str, w: usize) -> PortDecl {
    PortDecl {
        name: name.to_string(),
        width: WidthSpec(w),
    }
}

fn register_desc() -> LegendDescription {
    LegendDescription {
        name: "REGISTER".to_string(),
        inputs: vec![port("IN", 8)],
        outputs: vec![port("OUT", 8)],
        clock: Some("CLK".to_string()),
        control: vec!["CLOAD".to_string()],
        operations: vec![OperationDecl {
            name: "LOAD".to_string(),
            inputs: vec!["IN".to_string()],
            outputs: vec!["OUT".to_string()],
            control: Some("CLOAD".to_string()),
            ops: vec![OpsClause {
                op_name: "LOAD".to_string(),
                target: "OUT".to_string(),
                expr: LegendExpr::Port("IN".to_string()),
            }],
        }],
        ..LegendDescription::default()
    }
}

#[test]
fn dt401_duplicate_generator_from_parsed_text_and_single_near_miss() {
    // Two copies of the Figure-2 counter in one document.
    let doubled = format!("{}\n{}", legend::figure2::FIGURE2, legend::figure2::FIGURE2);
    let descs = legend::parse_document(&doubled).unwrap();
    assert!(legend_codes(&descs).contains(&"DT401"));

    let single = legend::parse_document(legend::figure2::FIGURE2).unwrap();
    assert!(legend_codes(&single).is_empty());
}

#[test]
fn dt402_unused_port_and_read_port_near_miss() {
    let mut d = register_desc();
    d.inputs.push(port("SPARE", 8));
    assert_eq!(legend_codes(&[d]), vec!["DT402"]);
    assert!(legend_codes(&[register_desc()]).is_empty());
}

#[test]
fn dt403_dt404_shadowed_assignment_and_unknown_ref() {
    let mut d = register_desc();
    d.operations[0].ops.push(OpsClause {
        op_name: "LOAD".to_string(),
        target: "OUT".to_string(),
        expr: LegendExpr::Port("GHOST".to_string()),
    });
    let found = legend_codes(&[d]);
    assert!(found.contains(&"DT403"), "{found:?}");
    assert!(found.contains(&"DT404"), "{found:?}");
    // A second clause assigning a *different* output referencing a real
    // port is neither shadowed nor unknown.
    let mut d2 = register_desc();
    d2.outputs.push(port("OUT2", 8));
    d2.operations[0].outputs.push("OUT2".to_string());
    d2.operations[0].ops.push(OpsClause {
        op_name: "LOAD".to_string(),
        target: "OUT2".to_string(),
        expr: LegendExpr::Port("IN".to_string()),
    });
    let found2 = legend_codes(&[d2]);
    assert!(!found2.contains(&"DT403"), "{found2:?}");
    assert!(!found2.contains(&"DT404"), "{found2:?}");
}

#[test]
fn dt405_unfireable_operation_and_control_near_miss() {
    let mut d = register_desc();
    // Gate on the clock instead of a declared control pin.
    d.operations[0].control = Some("CLK".to_string());
    assert_eq!(legend_codes(&[d]), vec!["DT405"]);
    assert!(legend_codes(&[register_desc()]).is_empty());
}

// ------------------------------------------------- shipped example artifacts

#[test]
fn example_artifacts_are_lint_clean_and_in_sync() {
    // gcd.ent is the source the gcd_hls_flow example embeds; its linked
    // netlist must lint clean (the CI `dtas lint` step checks the same).
    let gcd = include_str!("../examples/gcd.ent");
    let linked = Flow::from_hls(gcd)
        .unwrap()
        .schedule()
        .unwrap()
        .compile_control()
        .unwrap()
        .link()
        .unwrap();
    let report = linked.lint();
    assert!(report.is_clean(), "{report}");

    // counter.legend is a verbatim copy of the paper's Figure 2.
    let text = include_str!("../examples/counter.legend");
    assert_eq!(
        text,
        legend::figure2::FIGURE2,
        "examples/counter.legend drifted"
    );
    let descs = legend::parse_document(text).unwrap();
    let report = LintRegistry::standard().run(&LintTarget::Legend(&descs));
    assert!(report.is_clean(), "{report}");
}

// ---------------------------------------------- lint-clean netlists map

/// A linear chain of stdlib components: valid and lint-clean by
/// construction.
fn chain_netlist(width: usize, stages: &[u8]) -> Netlist {
    let lib = GenusLibrary::standard();
    let mut nl = Netlist::new("chain");
    if stages.iter().any(|k| k % 4 == 2) {
        nl.add_net("clk", 1).unwrap();
        nl.expose_input("clk", "clk").unwrap();
    }
    if stages.iter().any(|k| k % 4 == 3) {
        nl.add_net("zero", 1).unwrap();
        nl.expose_input("zero", "zero").unwrap();
    }
    nl.add_net("n0", width).unwrap();
    nl.expose_input("n0", "n0").unwrap();
    for (i, kind) in stages.iter().enumerate() {
        let src = format!("n{i}");
        let dst = format!("n{}", i + 1);
        nl.add_net(&dst, width).unwrap();
        let name = format!("u{i}");
        let inst = match kind % 4 {
            0 => Instance::new(&name, Arc::new(lib.buffer(width).unwrap()))
                .with_connection("I", &src)
                .with_connection("O", &dst),
            1 => Instance::new(&name, Arc::new(lib.gate(GateOp::Not, width, 1).unwrap()))
                .with_connection("I0", &src)
                .with_connection("O", &dst),
            2 => Instance::new(&name, Arc::new(lib.register(width).unwrap()))
                .with_connection("D", &src)
                .with_connection("CLK", "clk")
                .with_connection("Q", &dst),
            _ => Instance::new(&name, Arc::new(lib.adder(width).unwrap()))
                .with_connection("A", &src)
                .with_connection("B", &src)
                .with_connection("CI", "zero")
                .with_connection("O", &dst),
        };
        nl.add_instance(inst).unwrap();
    }
    nl.expose_output("out", &format!("n{}", stages.len()))
        .unwrap();
    nl
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        max_shrink_iters: 0,
    })]

    #[test]
    fn lint_clean_netlists_map_without_panicking(
        width in 1usize..8,
        stages in proptest::collection::vec(any::<u8>(), 1..6),
    ) {
        let nl = chain_netlist(width, &stages);
        let report = LintRegistry::standard().run(&LintTarget::Netlist(&nl));
        prop_assert!(report.is_clean(), "{report}");
        // The lint's promise: a clean netlist goes through the engine
        // without panicking (and for stdlib chains, successfully).
        let linked = Flow::from_netlist(nl).expect("validates");
        let mapped = linked.map(&Dtas::new(lsi_logic_subset()));
        prop_assert!(mapped.is_ok(), "{:?}", mapped.err().map(|e| e.to_string()));
    }
}
