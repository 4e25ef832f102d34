use cells::lsi::lsi_logic_subset;
use dtas::{rules::RuleSet, space::*, template::SpecModelCache};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;

#[test]
fn add16_front_diagnostics() {
    let mut space = DesignSpace::new();
    let rules = dtas::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    let lib = lsi_logic_subset();
    let cache = SpecModelCache::new();
    let spec = ComponentSpec::new(ComponentKind::AddSub, 16)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true);
    let id = space.expand(&spec, &rules, &lib, &cache).unwrap();
    println!("== impls at root:");
    for (i, im) in space.nodes[id].impls.iter().enumerate() {
        println!("  {i}: {}", im.label());
    }
    for node in &space.nodes {
        if node.spec.kind == ComponentKind::CarryLookahead || node.spec.group_pg {
            println!(
                "node {} has {} impls: {:?}",
                node.spec,
                node.impls.len(),
                node.impls.iter().map(|i| i.label()).collect::<Vec<_>>()
            );
        }
    }
    let mut solver = Solver::new(&space, SolveConfig::default());
    let front = solver.front(id, &cache);
    println!("== front:");
    for p in &front {
        let im = dtas::extract::extract(&space, id, &p.policy);
        println!(
            "  area {:7.1} delay {:5.1}  root-rule {}",
            p.area,
            p.delay(),
            im.label()
        );
    }
}

#[test]
#[ignore]
fn alu64_design_space_report() {
    let lib = lsi_logic_subset();
    let engine = dtas::Dtas::new(lib);
    let spec = ComponentSpec::new(ComponentKind::Alu, 64)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true);
    let start = std::time::Instant::now();
    let set = engine.run(&spec).unwrap();
    println!("elapsed: {:?}", start.elapsed());
    println!("{set}");
}
