//! Helpers shared by the integration suites (included per-crate via
//! `mod common;` — the `common/` directory is not itself a test target).
#![allow(dead_code)] // each suite uses the subset it needs

pub mod flaky_proxy;

use cells::lsi::lsi_logic_subset;
use dtas::template::NetlistTemplate;
use dtas::{DesignSet, Dtas, ImplKind, Implementation, Rule, RuleSet};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

/// Full bit-identity over everything a client can observe, except the
/// per-call wall time: the accounting, and per alternative its area,
/// delay and timing bits and its implementation down to the wiring (see
/// [`assert_trees_identical`]).
pub fn assert_sets_identical(a: &DesignSet, b: &DesignSet) {
    assert_eq!(a.spec, b.spec);
    assert_eq!(a.alternatives.len(), b.alternatives.len(), "{}", a.spec);
    for (x, y) in a.alternatives.iter().zip(&b.alternatives) {
        assert_eq!(x.area.to_bits(), y.area.to_bits());
        assert_eq!(x.delay.to_bits(), y.delay.to_bits());
        assert_eq!(x.timing, y.timing);
        assert_trees_identical(&x.implementation, &y.implementation);
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

/// Walks two implementation trees in step: the same spec at every node,
/// the same cell at every leaf, and at every netlist node an equal
/// [`NetlistTemplate`] (rule, nets, modules with their specs and wiring,
/// outputs). A pair of shared subtrees is compared once.
fn assert_trees_identical(a: &Implementation, b: &Implementation) {
    fn walk<'a>(
        a: &'a Implementation,
        b: &'a Implementation,
        seen: &mut HashSet<(*const Implementation, *const Implementation)>,
    ) {
        if !seen.insert((a, b)) {
            return;
        }
        assert_eq!(a.spec, b.spec);
        match (&a.kind, &b.kind) {
            (ImplKind::Cell { name: x }, ImplKind::Cell { name: y }) => {
                assert_eq!(x, y, "{}", a.spec)
            }
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
                assert!(tx == ty, "{}: rule {} wired differently", a.spec, tx.rule());
                assert_eq!(cx.len(), cy.len(), "{}", a.spec);
                for (x, y) in cx.iter().zip(cy) {
                    walk(x, y, seen);
                }
            }
            _ => panic!("{}: {} against {}", a.spec, a.label(), b.label()),
        }
    }
    walk(a, b, &mut HashSet::new());
}

/// Everything observable about one design set, bit-exact: per
/// alternative `(area bits, delay bits, implementation label, cell
/// census)`. The oracle every determinism/batch/concurrency suite
/// compares against — extend it here, not in per-suite copies.
pub type Fingerprint = Vec<(u64, u64, String, Vec<(String, usize)>)>;

/// Fingerprints a [`dtas::DesignSet`].
pub fn fingerprint(set: &dtas::DesignSet) -> Fingerprint {
    set.alternatives
        .iter()
        .map(|a| {
            (
                a.area.to_bits(),
                a.delay.to_bits(),
                a.implementation.label().to_string(),
                a.implementation.cell_census().into_iter().collect(),
            )
        })
        .collect()
}

/// A spec the [`SlowRule`] stalls on — each distinct width is a distinct
/// cold solve, so every submission occupies a worker afresh.
pub fn slow_spec(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, width)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
        .with_style("SLOW")
}

/// Test-only rule: sleeps when expanding a `SLOW`-styled spec, turning a
/// request into a deterministic worker-occupier.
pub struct SlowRule(pub Duration);

impl Rule for SlowRule {
    fn name(&self) -> &str {
        "slow-marker"
    }
    fn doc(&self) -> &str {
        "test-only: stall expansion of SLOW-styled specs"
    }
    fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
        if spec.style.as_deref() == Some("SLOW") {
            std::thread::sleep(self.0);
        }
        vec![]
    }
}

/// An engine whose `SLOW`-styled specs take `delay` to expand. The cold
/// solve is serial, so the stall stays on the calling worker thread.
pub fn slow_engine(delay: Duration) -> Arc<Dtas> {
    let mut rules = dtas::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    rules.append_library_rules(vec![Box::new(SlowRule(delay))]);
    Arc::new(Dtas::builder(lsi_logic_subset()).rules(rules).build())
}
