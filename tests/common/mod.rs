//! Helpers shared by the integration suites (included per-crate via
//! `mod common;` — the `common/` directory is not itself a test target).
#![allow(dead_code)] // each suite uses the subset it needs

pub mod flaky_proxy;

use cells::lsi::lsi_logic_subset;
use dtas::template::NetlistTemplate;
use dtas::{Dtas, Rule, RuleSet};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use std::sync::Arc;
use std::time::Duration;

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
