//! Canonical specification keys: collapse functionally-equivalent spec
//! variants onto one memo/store/wire entry.
//!
//! The engine's answer table (and the persistent store behind it) is
//! keyed on *structural* [`ComponentSpec`] identity, so near-duplicate
//! traffic — the same ALU padded with a redundant secondary width, a
//! styled and an unstyled request for the same adder — would solve twice.
//! This module maps a requested spec to a *canonical* form when the spec
//! first reaches the table: a canonical spec gets an entry of its own, and
//! any other spec an alias holding the canonical answer relabelled once
//! for it (the delivered [`DesignSet`](crate::DesignSet) differs from a
//! fresh raw-spec solve only in the root spec label, which the relabel
//! restores). A repeat request reads its entry and never canonicalizes.
//!
//! # How canonicalization stays answer-preserving
//!
//! Equivalence is never assumed from field semantics; every candidate
//! elision is **probe-verified** against the live rule base and library.
//! Two specs are interchangeable for the whole solve when their one-level
//! views agree exactly:
//!
//! 1. their generic component models are [functionally
//!    equal](genus::component::Component::functionally_equal) (same
//!    ports, operations, select/clock wiring, registered outputs);
//! 2. the library offers the identical cell list for both
//!    ([`CellLibrary::implementers`]);
//! 3. every rule expands both to the identical template list, in order.
//!
//! Equal templates name equal child specs, so the equivalence extends
//! inductively over the whole decomposition subtree: expansion, fronts,
//! costs, sizes and extraction are bit-identical, leaving only the root
//! spec label to rewrite. Candidates whose elision *does* change
//! functionality (dropping a carry-in that materializes a port, a style
//! some rule actually matches on) fail probe 1 or 3 and are kept as-is —
//! no per-kind audit is needed, and rule-base changes are picked up
//! because the engine drops every alias on `update_rules`.
//!
//! The elisions attempted, in fixed order (each kept only if the probe
//! passes): strip the style attribute; zero the secondary width; zero the
//! fan-in; clear each of the carry/enable/async/group-P-G flags.
//! Commutative operation sets need no step here: [`OpSet`](genus::op::OpSet)
//! is a bitset, canonically ordered by construction.

use crate::rules::RuleSet;
use crate::template::SpecModelCache;
use cells::CellLibrary;
use genus::spec::ComponentSpec;

/// Version tag of the canonicalization scheme, mixed into every
/// [`StoreKey`](crate::store::StoreKey) and wire handshake: state keyed
/// by one scheme's canonical specs must never be served to an engine
/// running another.
const CANON_SCHEME: &str = "dtas-canon/1";

/// The elision steps of [`CANON_SCHEME`], fingerprinted so reordering or
/// extending the candidate list bumps the canonical fingerprint.
const CANON_STEPS: [&str; 8] = [
    "style",
    "width2",
    "inputs",
    "carry_in",
    "carry_out",
    "enable",
    "async_set_reset",
    "group_pg",
];

/// Fingerprint of the canonicalization scheme this build applies ahead of
/// memo/store/wire keys.
pub fn canon_fingerprint() -> u64 {
    let mut seed = Vec::new();
    seed.extend_from_slice(CANON_SCHEME.as_bytes());
    for step in CANON_STEPS {
        seed.push(b'/');
        seed.extend_from_slice(step.as_bytes());
    }
    rtl_base::hash::fnv1a_64(&seed)
}

/// The engine's canonicalizer: the probe run when a requested spec has no
/// entry in the answer table yet.
///
/// Probes are pure functions of `(spec, rules, library)`; the answer
/// table keeps their outcome (an alias names its canonical spec) until
/// the rule base changes. It owns a private [`SpecModelCache`]: probing
/// must not touch the engine's shared-state lock.
#[derive(Default)]
pub(crate) struct Canonicalizer {
    models: SpecModelCache,
}

impl Canonicalizer {
    /// Greedy elision: try each candidate in fixed order, keeping a step
    /// only when the probe proves the one-level views identical. Each
    /// accepted step is verified against the *previous* accepted form, so
    /// the chain composes by transitivity. Returns `spec` itself (a
    /// clone) when no elision survives the probes.
    pub(crate) fn canonicalize(
        &self,
        spec: &ComponentSpec,
        rules: &RuleSet,
        library: &CellLibrary,
    ) -> ComponentSpec {
        let mut canon = spec.clone();
        let candidates: [fn(&ComponentSpec) -> Option<ComponentSpec>; 8] = [
            |s| {
                s.style.is_some().then(|| {
                    let mut c = s.clone();
                    c.style = None;
                    c
                })
            },
            |s| {
                (s.width2 != 0).then(|| {
                    let mut c = s.clone();
                    c.width2 = 0;
                    c
                })
            },
            |s| {
                (s.inputs != 0).then(|| {
                    let mut c = s.clone();
                    c.inputs = 0;
                    c
                })
            },
            |s| {
                s.carry_in.then(|| {
                    let mut c = s.clone();
                    c.carry_in = false;
                    c
                })
            },
            |s| {
                s.carry_out.then(|| {
                    let mut c = s.clone();
                    c.carry_out = false;
                    c
                })
            },
            |s| {
                s.enable.then(|| {
                    let mut c = s.clone();
                    c.enable = false;
                    c
                })
            },
            |s| {
                s.async_set_reset.then(|| {
                    let mut c = s.clone();
                    c.async_set_reset = false;
                    c
                })
            },
            |s| {
                s.group_pg.then(|| {
                    let mut c = s.clone();
                    c.group_pg = false;
                    c
                })
            },
        ];
        // Iterate to a fixpoint: a later elision can re-enable an earlier
        // one (a rule that matches style only while the fan-in is set,
        // say). Each accepted step clears a field and nothing ever sets
        // one, so the loop terminates after at most 8 acceptances.
        loop {
            let before = canon.clone();
            for candidate in candidates {
                if let Some(cand) = candidate(&canon) {
                    if self.equivalent(&canon, &cand, rules, library) {
                        canon = cand;
                    }
                }
            }
            if canon == before {
                return canon;
            }
        }
    }

    /// The probe: do `a` and `b` present the identical one-level view to
    /// the engine? Any failure (including unbuildable models) rejects the
    /// candidate — keeping the raw spec is always correct.
    fn equivalent(
        &self,
        a: &ComponentSpec,
        b: &ComponentSpec,
        rules: &RuleSet,
        library: &CellLibrary,
    ) -> bool {
        let (Ok(model_a), Ok(model_b)) = (self.models.model(a), self.models.model(b)) else {
            return false;
        };
        model_a.functionally_equal(&model_b)
            && library.implementers(a) == library.implementers(b)
            && rules.iter().all(|rule| rule.expand(a) == rule.expand(b))
    }
}

/// Relabels a canonical spec's answer for a spec that canonicalizes to
/// it, once, when the alias's entry is filled: the design set (and each
/// alternative's root implementation) carries the canonical spec label;
/// everything else — children, costs, sizes, stats — is exactly what a
/// fresh solve of `raw` would produce, because the probe proved the
/// expansions identical below the root.
pub(crate) fn relabel(
    result: Result<std::sync::Arc<crate::DesignSet>, crate::SynthError>,
    raw: &ComponentSpec,
    canon: &ComponentSpec,
) -> Result<std::sync::Arc<crate::DesignSet>, crate::SynthError> {
    use crate::SynthError;
    match result {
        Ok(set) => {
            let mut set = crate::DesignSet::clone(&set);
            set.spec = raw.clone();
            for alt in &mut set.alternatives {
                alt.implementation.spec = raw.clone();
            }
            Ok(std::sync::Arc::new(set))
        }
        // Error messages embed the spec's display form; restore the
        // caller's so diagnostics (and the bit-identity tests) match a
        // fresh raw-spec solve.
        Err(SynthError::NoImplementation(m)) => Err(SynthError::NoImplementation(
            m.replace(&canon.to_string(), &raw.to_string()),
        )),
        Err(SynthError::Expand(m)) => Err(SynthError::Expand(
            m.replace(&canon.to_string(), &raw.to_string()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cells::lsi::lsi_logic_subset;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};

    fn standard() -> RuleSet {
        crate::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset())
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let rules = standard();
        let library = lsi_logic_subset();
        let canon = Canonicalizer::default();
        let specs = [
            ComponentSpec::new(ComponentKind::Alu, 16).with_ops(Op::paper_alu16()),
            ComponentSpec::new(ComponentKind::AddSub, 8)
                .with_ops(OpSet::only(Op::Add))
                .with_carry_in(true)
                .with_carry_out(true)
                .with_style("RIPPLE"),
            ComponentSpec::new(ComponentKind::Mux, 8).with_inputs(4),
        ];
        for spec in specs {
            let once = canon.canonicalize(&spec, &rules, &library);
            let twice = canon.canonicalize(&once, &rules, &library);
            assert_eq!(once, twice, "canonical({spec}) must be a fixpoint");
        }
    }

    #[test]
    fn functional_flags_survive_canonicalization() {
        // A carry-in materializes a port; the model probe must keep it.
        let rules = standard();
        let library = lsi_logic_subset();
        let canon = Canonicalizer::default();
        let spec = ComponentSpec::new(ComponentKind::AddSub, 8)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let c = canon.canonicalize(&spec, &rules, &library);
        assert!(c.carry_in && c.carry_out, "carry pins are functional: {c}");
    }

    #[test]
    fn scheme_fingerprint_is_stable() {
        assert_eq!(canon_fingerprint(), canon_fingerprint());
        assert_ne!(canon_fingerprint(), 0);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_decorated_spec() -> impl Strategy<Value = ComponentSpec> {
            let kind = prop_oneof![
                Just(ComponentKind::AddSub),
                Just(ComponentKind::Alu),
                Just(ComponentKind::Mux),
                Just(ComponentKind::Comparator),
                Just(ComponentKind::Register),
            ];
            (
                kind,
                1usize..17,
                0usize..5,
                any::<bool>(),
                any::<bool>(),
                any::<bool>(),
                prop_oneof![
                    Just(None),
                    Just(Some("FASTEST".to_string())),
                    Just(Some("RIPPLE".to_string())),
                ],
                0usize..9,
            )
                .prop_map(|(kind, w, inputs, ci, co, en, style, w2)| {
                    let mut spec = match kind {
                        ComponentKind::AddSub => ComponentSpec::new(kind, w)
                            .with_ops(OpSet::only(Op::Add))
                            .with_carry_in(ci)
                            .with_carry_out(co),
                        ComponentKind::Alu => ComponentSpec::new(kind, w)
                            .with_ops(Op::paper_alu16())
                            .with_carry_in(ci),
                        ComponentKind::Mux => {
                            ComponentSpec::new(kind, w).with_inputs(inputs.max(2))
                        }
                        ComponentKind::Comparator => ComponentSpec::new(kind, w)
                            .with_ops([Op::Eq, Op::Lt].into_iter().collect()),
                        _ => ComponentSpec::new(kind, w)
                            .with_ops(OpSet::only(Op::Load))
                            .with_enable(en),
                    };
                    if let Some(style) = style {
                        spec = spec.with_style(&style);
                    }
                    if w2 != 0 {
                        spec = spec.with_width2(w2);
                    }
                    spec
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig {
                cases: 48,
                max_shrink_iters: 0,
            })]

            /// `canonical` is a fixpoint operator: applying it to its own
            /// output changes nothing, for arbitrary decorated specs.
            #[test]
            fn canonicalization_is_idempotent_on_random_specs(
                spec in arb_decorated_spec(),
            ) {
                let rules = standard();
                let library = lsi_logic_subset();
                let canon = Canonicalizer::default();
                let once = canon.canonicalize(&spec, &rules, &library);
                let twice = canon.canonicalize(&once, &rules, &library);
                prop_assert_eq!(&once, &twice, "canonical({}) not a fixpoint", spec);
            }

            /// Every accepted elision is probe-verified, so the canonical
            /// spec's one-level view (model, implementers, rule
            /// expansions) is identical to the raw spec's.
            #[test]
            fn canonical_spec_presents_the_same_one_level_view(
                spec in arb_decorated_spec(),
            ) {
                let rules = standard();
                let library = lsi_logic_subset();
                let canon = Canonicalizer::default();
                let c = canon.canonicalize(&spec, &rules, &library);
                prop_assert_eq!(
                    library.implementers(&spec),
                    library.implementers(&c),
                    "implementers differ for {}",
                    spec
                );
                for rule in rules.iter() {
                    prop_assert_eq!(
                        rule.expand(&spec),
                        rule.expand(&c),
                        "rule {} expands {} and {} differently",
                        rule.name(),
                        spec,
                        c
                    );
                }
            }
        }
    }
}
