//! Materializing design points into hierarchical implementations.
//!
//! "Each implementation is represented as a hierarchical netlist that
//! traces the top-down design of the input netlist into subcomponents.
//! Leaves of each hierarchical netlist map the alternative design to cells
//! drawn from the given RTL library." (paper §5)

use crate::space::{DesignSpace, ImplChoice, Policy, SpecId};
use crate::template::NetlistTemplate;
use genus::spec::ComponentSpec;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::Arc;

/// How one specification is implemented.
///
/// Templates and child subtrees are [`Arc`]-shared: under the paper's
/// uniform-implementation rule one policy maps each specification to one
/// implementation, so identical subtrees (the 64 full adders of a ripple
/// chain, say) are one shared node, and cloning an implementation — or a
/// whole cached [`DesignSet`](crate::DesignSet) — is pointer bumps rather
/// than a deep copy.
#[derive(Clone, Debug)]
pub enum ImplKind {
    /// A library cell leaf.
    Cell {
        /// Data book cell name.
        name: String,
    },
    /// One level of decomposition.
    Netlist {
        /// The decomposition template (carries the rule name and wiring).
        template: Arc<NetlistTemplate>,
        /// Child implementations, aligned with `template.modules`.
        children: Vec<Arc<Implementation>>,
    },
}

/// A hierarchical, library-specific implementation of one specification.
#[derive(Clone, Debug)]
pub struct Implementation {
    /// The specification being implemented.
    pub spec: ComponentSpec,
    /// The chosen implementation.
    pub kind: ImplKind,
}

impl Implementation {
    /// The rule name (for netlists) or cell name (for leaves).
    pub fn label(&self) -> &str {
        match &self.kind {
            ImplKind::Cell { name } => name,
            ImplKind::Netlist { template, .. } => &template.rule,
        }
    }

    /// Counts leaf cells by data book name.
    pub fn cell_census(&self) -> BTreeMap<String, usize> {
        let mut census = BTreeMap::new();
        self.walk_cells(&mut census);
        census
    }

    fn walk_cells(&self, census: &mut BTreeMap<String, usize>) {
        match &self.kind {
            ImplKind::Cell { name } => {
                *census.entry(name.clone()).or_insert(0) += 1;
            }
            ImplKind::Netlist { children, .. } => {
                for c in children {
                    c.walk_cells(census);
                }
            }
        }
    }

    /// Total number of leaf cells.
    pub fn cell_count(&self) -> usize {
        self.cell_census().values().sum()
    }

    /// Depth of the decomposition hierarchy (a cell leaf has depth 1).
    pub fn depth(&self) -> usize {
        match &self.kind {
            ImplKind::Cell { .. } => 1,
            ImplKind::Netlist { children, .. } => {
                1 + children.iter().map(|c| c.depth()).max().unwrap_or(0)
            }
        }
    }

    fn fmt_tree(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        match &self.kind {
            ImplKind::Cell { name } => {
                writeln!(f, "{pad}{} -> cell {name}", self.spec)
            }
            ImplKind::Netlist { template, children } => {
                writeln!(f, "{pad}{} -> rule {}", self.spec, template.rule)?;
                // Print each distinct child once with its multiplicity.
                let mut seen: Vec<(&Implementation, usize)> = Vec::new();
                for c in children {
                    if let Some(entry) = seen.iter_mut().find(|(s, _)| s.spec == c.spec) {
                        entry.1 += 1;
                    } else {
                        seen.push((c.as_ref(), 1));
                    }
                }
                for (child, count) in seen {
                    if count > 1 {
                        writeln!(f, "{pad}  {count} x",)?;
                    }
                    child.fmt_tree(f, indent + 1)?;
                }
                Ok(())
            }
        }
    }
}

impl fmt::Display for Implementation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_tree(f, 0)
    }
}

/// Builds the implementation tree a design point's policy describes.
///
/// Under the uniform-implementation rule a policy maps each spec to
/// exactly one choice, so every occurrence of a spec shares one extracted
/// subtree: the build is linear in the policy's *distinct* specs, not in
/// the (exponentially larger) unfolded module tree.
///
/// # Panics
///
/// Panics if the policy does not cover a reachable spec — policies
/// produced by the [`Solver`](crate::space::Solver) always do.
pub fn extract(space: &DesignSpace, root: SpecId, policy: &Policy) -> Implementation {
    let mut memo: HashMap<SpecId, Arc<Implementation>> = HashMap::new();
    Implementation::clone(&extract_shared(space, root, policy, &mut memo))
}

fn extract_shared(
    space: &DesignSpace,
    id: SpecId,
    policy: &Policy,
    memo: &mut HashMap<SpecId, Arc<Implementation>>,
) -> Arc<Implementation> {
    if let Some(shared) = memo.get(&id) {
        return Arc::clone(shared);
    }
    let node = &space.nodes[id];
    let choice_idx = policy
        .get(id)
        .unwrap_or_else(|| panic!("policy misses spec {}", node.spec));
    let built = match &node.impls[choice_idx] {
        ImplChoice::Cell(c) => Implementation {
            spec: node.spec.clone(),
            kind: ImplKind::Cell {
                name: c.cell.clone(),
            },
        },
        ImplChoice::Netlist { template, .. } => {
            let children = node.children[choice_idx]
                .iter()
                .map(|&cid| extract_shared(space, cid, policy, memo))
                .collect();
            Implementation {
                spec: node.spec.clone(),
                kind: ImplKind::Netlist {
                    template: Arc::clone(template),
                    children,
                },
            }
        }
    };
    let shared = Arc::new(built);
    memo.insert(id, Arc::clone(&shared));
    shared
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::RuleSet;
    use crate::space::{SolveConfig, Solver};
    use crate::template::SpecModelCache;
    use cells::lsi::lsi_logic_subset;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    #[test]
    fn extract_add16_designs() {
        let mut space = DesignSpace::new();
        let rules = crate::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(16), &rules, &lib, &cache).unwrap();
        let mut solver = Solver::new(&space, SolveConfig::default());
        let front = solver.front(id, &cache);
        assert!(!front.is_empty());
        for point in &front {
            let implementation = extract(&space, id, &point.policy);
            assert_eq!(implementation.spec, add_spec(16));
            assert!(implementation.cell_count() >= 4);
            assert!(implementation.depth() >= 2);
            // Every leaf is a real library cell.
            for cell_name in implementation.cell_census().keys() {
                assert!(lib.cell(cell_name).is_some(), "unknown cell {cell_name}");
            }
        }
        // The smallest design should be a ripple of small adders; the
        // fastest should use the lookahead generator.
        let fastest = extract(&space, id, &front.last().unwrap().policy);
        assert!(
            fastest.cell_census().contains_key("CLA4"),
            "fastest ADD16 should use carry lookahead: {fastest}"
        );
    }

    #[test]
    fn display_tree_mentions_rules_and_cells() {
        let mut space = DesignSpace::new();
        let rules = RuleSet::standard();
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(8), &rules, &lib, &cache).unwrap();
        let mut solver = Solver::new(&space, SolveConfig::default());
        let front = solver.front(id, &cache);
        let text = extract(&space, id, &front[0].policy).to_string();
        assert!(text.contains("rule "));
        assert!(text.contains("cell "));
    }
}
