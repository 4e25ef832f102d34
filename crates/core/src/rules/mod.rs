//! The DTAS rule base: functional decomposition rules.
//!
//! "Functional decomposition is implemented with a rule-based system that
//! expands the space of component decompositions" (paper §5). Each
//! [`Rule`] inspects a [`ComponentSpec`] and contributes zero or more
//! [`NetlistTemplate`]s — one level of decomposition each.
//!
//! The standard rule base ([`RuleSet::standard`]) covers every family the
//! paper's §7 lists for DTAS: bitwise logic gates and multiplexers, binary
//! and BCD decoders and encoders, n-bit adders and comparators, n-bit
//! ALUs, shifters, n-by-m multipliers and up/down counters (the paper
//! reports 86 generic rules; this reproduction has a few more because
//! some of DTAS's composite rules are split into orthogonal ones here).
//! Library-specific rules are not written here: [`crate::lola`] derives
//! them from a cell library and [`RuleSet::append_library_rules`] adds
//! them. For the paper's LSI Logic subset that is the nine rules its §7
//! counts, and an engine built without explicit rules runs the standard
//! base plus the rules derived for its own library.

use crate::template::NetlistTemplate;
use genus::spec::ComponentSpec;

pub(crate) mod adder;
mod alu;
mod compare;
mod decode;
pub(crate) mod logic;
mod multiplier;
mod mux;
pub(crate) mod seq;
mod shift;
mod wiring;

pub(crate) mod helpers;

/// A functional decomposition rule.
pub trait Rule: Send + Sync {
    /// Unique rule name (shows up in design reports).
    fn name(&self) -> &str;
    /// One-line description.
    fn doc(&self) -> &str;
    /// Templates this rule contributes for `spec` (empty when the rule
    /// does not apply).
    fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate>;
}

/// An ordered collection of rules.
pub struct RuleSet {
    rules: Vec<Box<dyn Rule>>,
    generic_count: usize,
    library_count: usize,
}

impl RuleSet {
    /// The generic rule base (library independent).
    pub fn standard() -> Self {
        let mut rules: Vec<Box<dyn Rule>> = Vec::new();
        adder::register(&mut rules);
        alu::register(&mut rules);
        logic::register(&mut rules);
        mux::register(&mut rules);
        decode::register(&mut rules);
        compare::register(&mut rules);
        shift::register(&mut rules);
        multiplier::register(&mut rules);
        seq::register_rules(&mut rules);
        wiring::register(&mut rules);
        let generic_count = rules.len();
        RuleSet {
            rules,
            generic_count,
            library_count: 0,
        }
    }

    /// Appends externally derived library-specific rules (LOLA's output —
    /// see [`crate::lola`]).
    pub fn append_library_rules(&mut self, rules: Vec<Box<dyn Rule>>) {
        self.library_count += rules.len();
        self.rules.extend(rules);
    }

    /// Number of generic rules.
    pub fn generic_count(&self) -> usize {
        self.generic_count
    }

    /// Number of library-specific rules.
    pub fn library_count(&self) -> usize {
        self.library_count
    }

    /// Total number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True when the set has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Iterates rules in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &dyn Rule> {
        self.rules.iter().map(|r| r.as_ref())
    }

    /// A stable content fingerprint over the rule base: rule count and
    /// every rule's name and documentation line, in registration order,
    /// plus the generic/library split. Snapshot stores key persisted
    /// synthesis state on this value so state explored under different
    /// rules is rejected instead of silently reused.
    ///
    /// The fingerprint sees a rule's *identity*, not its expansion body —
    /// a rule whose templates change without a name change must be
    /// accompanied by a snapshot format-version bump (see
    /// [`store::FORMAT_VERSION`](crate::store::FORMAT_VERSION)), which
    /// invalidates all persisted state at once.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hash;
        rtl_base::hash::StableHasher::digest_of(|h| {
            "dtas-rules/1".hash(h);
            (self.rules.len() as u64).hash(h);
            (self.generic_count as u64).hash(h);
            (self.library_count as u64).hash(h);
            for rule in self.iter() {
                rule.name().hash(h);
                rule.doc().hash(h);
            }
        })
    }

    /// Looks up a rule by name.
    pub fn rule(&self, name: &str) -> Option<&dyn Rule> {
        self.rules
            .iter()
            .find(|r| r.name() == name)
            .map(|r| r.as_ref())
    }
}

impl std::fmt::Debug for RuleSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RuleSet")
            .field("generic", &self.generic_count)
            .field("library", &self.library_count)
            .finish()
    }
}

/// Declares a rule struct with boilerplate `name`/`doc` and an `expand`
/// body.
macro_rules! rule {
    ($vis:vis $ty:ident, $name:literal, $doc:literal, |$spec:ident| $body:block) => {
        $vis struct $ty;
        impl crate::rules::Rule for $ty {
            fn name(&self) -> &str {
                $name
            }
            fn doc(&self) -> &str {
                $doc
            }
            fn expand(&self, $spec: &genus::spec::ComponentSpec)
                -> Vec<crate::template::NetlistTemplate> {
                $body
            }
        }
    };
}
pub(crate) use rule;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lola::with_derived_rules;
    use cells::lsi::lsi_logic_subset;

    fn standard_lsi() -> RuleSet {
        with_derived_rules(RuleSet::standard(), &lsi_logic_subset())
    }

    #[test]
    fn standard_rule_base_is_comparable_to_the_papers_86() {
        let rules = RuleSet::standard();
        assert!(
            (80..=110).contains(&rules.generic_count()),
            "generic rule count {} drifted far from the paper's 86",
            rules.generic_count()
        );
    }

    #[test]
    fn lsi_derivation_adds_exactly_nine_rules() {
        assert_eq!(standard_lsi().library_count(), 9);
    }

    #[test]
    fn rule_names_are_unique() {
        let rules = standard_lsi();
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate rule names");
    }

    #[test]
    fn every_rule_has_documentation() {
        for rule in standard_lsi().iter() {
            assert!(!rule.doc().is_empty(), "{} lacks docs", rule.name());
        }
    }

    #[test]
    fn rule_lookup_by_name() {
        let rules = RuleSet::standard();
        assert!(rules.rule("add-ripple-slice-4").is_some());
        assert!(rules.rule("no-such-rule").is_none());
    }

    #[test]
    fn fingerprint_tracks_rule_membership() {
        let standard = RuleSet::standard();
        assert_eq!(standard.fingerprint(), RuleSet::standard().fingerprint());
        let extended = standard_lsi();
        assert_ne!(standard.fingerprint(), extended.fingerprint());
        assert_eq!(extended.fingerprint(), standard_lsi().fingerprint());
    }
}
