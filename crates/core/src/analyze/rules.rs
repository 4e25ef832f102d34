//! Rule-base lints (`DT2xx`): hygiene of the decomposition rules against
//! a loaded technology library.
//!
//! The passes drive the whole rule base over a deterministic *probe
//! corpus* — specifications of every family the paper's §7 lists —
//! and then over every module specification those expansions produce,
//! to a fixed point (the same transitive closure
//! [`DesignSpace::expand`](crate::space::DesignSpace::expand) would
//! explore, minus solving). One shared `ClosureAnalysis` feeds all six
//! codes; it is memoized on the (rule-set, library) fingerprint pair so
//! running the whole registry costs one closure, not six.

use super::{ArtifactKind, Diagnostic, Lint, LintTarget, Severity};
use crate::rules::{helpers, RuleSet};
use crate::template::{NetlistTemplate, SpecModelCache};
use cells::CellLibrary;
use genus::kind::{ComponentKind, GateOp};
use genus::op::{Op, OpClass, OpSet};
use genus::spec::ComponentSpec;
use genus::stdlib::GenusLibrary;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

/// `DT201`: a rule whose every template an earlier rule also produces.
pub const DT201: &str = "DT201";
/// `DT202`: a rule that never fires on any probed or derived spec.
pub const DT202: &str = "DT202";
/// `DT203`: a rule expanding a spec into a template containing that same
/// spec (a rewrite that cannot terminate).
pub const DT203: &str = "DT203";
/// `DT204`: a library rule producing a module spec no cell implements
/// and no rule decomposes.
pub const DT204: &str = "DT204";
/// `DT205`: a rule emitting a structurally invalid template.
pub const DT205: &str = "DT205";
/// `DT206`: two rules sharing a name.
pub const DT206: &str = "DT206";

/// Registers every rule-base pass, in code order.
pub fn register(lints: &mut Vec<Box<dyn Lint>>) {
    lints.push(Box::new(ShadowedRule));
    lints.push(Box::new(InapplicableRule));
    lints.push(Box::new(SelfRecursiveRule));
    lints.push(Box::new(UnmatchableLeaf));
    lints.push(Box::new(InvalidTemplate));
    lints.push(Box::new(DuplicateRuleName));
}

/// Everything the closure sweep learned about a rule base.
struct ClosureAnalysis {
    /// Rule names, in registration order.
    names: Vec<String>,
    /// Whether each rule produced at least one template anywhere.
    fired: Vec<bool>,
    /// Per rule: earlier rules that duplicated every one of its templates
    /// on every spec it fired on (`None` until the rule first fires).
    shadowers: Vec<Option<BTreeSet<usize>>>,
    /// (rule, spec) pairs where a template contained the parent spec.
    self_recursive: BTreeSet<(String, String)>,
    /// (rule, validation message) pairs for invalid templates.
    invalid: BTreeSet<(String, String)>,
    /// Library-rule module specs with no implementing cell and no
    /// expanding rule: spec identifier -> producing rule.
    unmatchable: BTreeMap<String, String>,
    /// Specs explored before hitting the safety cap.
    specs_explored: usize,
    /// The closure hit the spec cap; absence-of-firing codes are
    /// unreliable and suppressed.
    truncated: bool,
}

/// Safety cap on distinct specs explored — the shipped base explores a
/// few thousand; a runaway rule base should degrade to partial findings,
/// not hang the lint.
const SPEC_CAP: usize = 50_000;

fn closure(rules: &RuleSet, library: &CellLibrary) -> ClosureAnalysis {
    let rule_list: Vec<&dyn crate::rules::Rule> = rules.iter().collect();
    let n = rule_list.len();
    let generic = rules.generic_count();
    let cache = SpecModelCache::new();

    let mut analysis = ClosureAnalysis {
        names: rule_list.iter().map(|r| r.name().to_string()).collect(),
        fired: vec![false; n],
        shadowers: vec![None; n],
        self_recursive: BTreeSet::new(),
        invalid: BTreeSet::new(),
        unmatchable: BTreeMap::new(),
        specs_explored: 0,
        truncated: false,
    };

    let mut frontier = probe_corpus();
    let mut visited: BTreeSet<String> = frontier.iter().map(|s| s.identifier()).collect();
    // Module specs first produced by a library rule: identifier ->
    // (spec, producing rule index).
    let mut library_produced: BTreeMap<String, (ComponentSpec, usize)> = BTreeMap::new();
    // Specs at least one rule expanded.
    let mut expandable: BTreeSet<String> = BTreeSet::new();

    while let Some(spec) = frontier.pop() {
        analysis.specs_explored += 1;
        let spec_id = spec.identifier();
        // (rule index, templates) for rules that fired here.
        let mut fired_here: Vec<(usize, Vec<NetlistTemplate>)> = Vec::new();
        for (i, rule) in rule_list.iter().enumerate() {
            let templates = rule.expand(&spec);
            if templates.is_empty() {
                continue;
            }
            analysis.fired[i] = true;
            expandable.insert(spec_id.clone());
            for t in &templates {
                if t.modules().any(|m| *m.spec() == spec) {
                    analysis
                        .self_recursive
                        .insert((rule.name().to_string(), spec.to_string()));
                }
                if let Err(e) = t.validate(&spec, &cache) {
                    analysis
                        .invalid
                        .insert((rule.name().to_string(), e.message));
                }
                for m in t.modules() {
                    let id = m.spec().identifier();
                    if i >= generic {
                        library_produced
                            .entry(id.clone())
                            .or_insert_with(|| (m.spec().clone(), i));
                    }
                    if visited.len() < SPEC_CAP {
                        if visited.insert(id) {
                            frontier.push(m.spec().clone());
                        }
                    } else {
                        analysis.truncated = true;
                    }
                }
            }
            fired_here.push((i, templates));
        }
        // Shadow bookkeeping: a later rule stays "shadowed by j" only if
        // on every spec it fires on, rule j (earlier) produced a superset
        // of its templates.
        for idx in 0..fired_here.len() {
            let (i, ref mine) = fired_here[idx];
            let covering: BTreeSet<usize> = fired_here[..idx]
                .iter()
                .filter(|(j, theirs)| {
                    *j < i && mine.iter().all(|t| theirs.iter().any(|u| u.same_wiring(t)))
                })
                .map(|(j, _)| *j)
                .collect();
            match &mut analysis.shadowers[i] {
                None => analysis.shadowers[i] = Some(covering),
                Some(prev) => {
                    *prev = prev.intersection(&covering).copied().collect();
                }
            }
        }
    }

    if !analysis.truncated {
        for (id, (spec, rule_idx)) in &library_produced {
            if !expandable.contains(id) && library.implementers(spec).is_empty() {
                analysis
                    .unmatchable
                    .insert(spec.to_string(), rule_list[*rule_idx].name().to_string());
            }
        }
    }
    analysis
}

/// Memoized closure keyed by (rule-set fingerprint, library fingerprint).
/// One entry: the registry runs six rule lints back to back on the same
/// pair, and successive CLI/test invocations reuse it too.
fn shared_closure(rules: &RuleSet, library: &CellLibrary) -> Arc<ClosureAnalysis> {
    static LAST: Mutex<Option<(u64, u64, Arc<ClosureAnalysis>)>> = Mutex::new(None);
    let key = (rules.fingerprint(), library.fingerprint());
    let mut slot = LAST.lock().expect("closure cache poisoned");
    if let Some((rf, lf, a)) = slot.as_ref() {
        if (*rf, *lf) == key {
            return Arc::clone(a);
        }
    }
    let analysis = Arc::new(closure(rules, library));
    *slot = Some((key.0, key.1, Arc::clone(&analysis)));
    analysis
}

/// Logic-class subset of the paper's 16-function ALU operation list.
fn logic_ops() -> OpSet {
    Op::paper_alu16().of_class(OpClass::Logic)
}

/// The deterministic probe corpus: specifications of every family the
/// paper's §7 lists for DTAS, over a spread of widths, fan-ins and pin
/// variants. The closure then adds every module spec these decompose
/// into, so decomposition-intermediate rules are exercised too.
fn probe_corpus() -> Vec<ComponentSpec> {
    let lib = GenusLibrary::standard();
    let mut v: Vec<ComponentSpec> = Vec::new();
    {
        let mut push = |c: Result<genus::component::Component, genus::component::GenerateError>| {
            if let Ok(c) = c {
                v.push(c.spec().clone());
            }
        };
        for w in [1usize, 2, 3, 4, 8, 16, 32] {
            push(lib.adder(w));
            push(lib.adder_pg(w));
            push(lib.addsub(w));
            push(lib.alu(w, Op::paper_alu16()));
            push(lib.logic_unit(w, logic_ops()));
            push(lib.comparator(w));
            push(lib.shifter(
                w,
                OpSet::from_iter([Op::Shl, Op::Shr, Op::Asr, Op::Rotl, Op::Rotr]),
            ));
            push(lib.barrel_shifter(w, OpSet::from_iter([Op::Shl, Op::Shr])));
            push(lib.register(w));
            push(lib.register_en(w));
            push(lib.counter(w));
            push(lib.buffer(w));
            push(lib.tristate(w));
            push(lib.divider(w));
            push(lib.multiplier(w, w));
            push(lib.gate(GateOp::Not, w, 1));
            push(lib.gate(GateOp::Buf, w, 1));
            for n in [2usize, 3, 4, 5, 8, 9] {
                push(lib.mux(w, n));
            }
        }
        for w in [1usize, 4, 8] {
            for g in [
                GateOp::And,
                GateOp::Or,
                GateOp::Nand,
                GateOp::Nor,
                GateOp::Xor,
                GateOp::Xnor,
            ] {
                for n in [2usize, 3, 4, 8, 9] {
                    push(lib.gate(g, w, n));
                }
            }
        }
        push(lib.multiplier(8, 4));
        for g in [2usize, 4] {
            push(lib.cla_generator(g));
        }
        for sel in [1usize, 2, 3, 4] {
            push(lib.decoder(sel));
        }
        push(lib.bcd_decoder());
        for lines in [4usize, 8] {
            push(lib.encoder(lines));
        }
        for depth in [4usize, 8] {
            push(lib.memory(8, depth));
            push(lib.register_file(8, depth));
            push(lib.stack(8, depth));
        }
    }
    // Pin/ops variants the generator surface does not produce directly.
    for w in [4usize, 8, 16, 32] {
        v.push(helpers::adder(w));
        v.push(helpers::adder_pg(w));
        v.push(helpers::addsub(
            w,
            OpSet::from_iter([Op::Add, Op::Sub]),
            true,
            true,
        ));
        v.push(helpers::addsub(w, OpSet::only(Op::Sub), false, false));
        v.push(helpers::alu(w, Op::paper_alu16(), true));
        v.push(helpers::lu(w, logic_ops()));
        v.push(helpers::comparator(
            w,
            OpSet::from_iter([Op::Eq, Op::Lt, Op::Gt]),
        ));
    }
    // Families without a stdlib generator: interface and wiring kinds.
    for w in [1usize, 4, 8] {
        v.push(ComponentSpec::new(ComponentKind::Selector, w).with_inputs(4));
        v.push(ComponentSpec::new(ComponentKind::PortComp, w));
        v.push(ComponentSpec::new(ComponentKind::ClockDriver, 1));
        v.push(ComponentSpec::new(ComponentKind::SchmittTrigger, w));
        v.push(ComponentSpec::new(ComponentKind::WiredOr, w).with_inputs(4));
        v.push(ComponentSpec::new(ComponentKind::Bus, w).with_inputs(4));
        v.push(ComponentSpec::new(ComponentKind::Delay, w));
        v.push(ComponentSpec::new(ComponentKind::Concat, w).with_inputs(2));
        // Extract: width = input width, width2 = field width, inputs =
        // field offset (see `genus::build`'s parameter encoding).
        v.push(ComponentSpec::new(ComponentKind::Extract, w).with_width2(1));
        v.push(ComponentSpec::new(ComponentKind::Tristate, w));
    }
    // Single-op and restricted-op variants that trigger the base-case and
    // wiring rules (alu-one-*, lu-single-gate, comparator-*-slice/chain).
    for w in [1usize, 2, 4, 8, 16] {
        v.push(helpers::comparator(w, OpSet::only(Op::Eq)));
        v.push(helpers::comparator(w, OpSet::from_iter([Op::Eq, Op::Lt])));
    }
    for w in [4usize, 8] {
        v.push(helpers::alu(w, OpSet::only(Op::Shl), false));
        v.push(helpers::alu(w, OpSet::only(Op::Rotr), false));
        v.push(helpers::lu(w, OpSet::only(Op::And)));
        v.push(helpers::lu(w, OpSet::only(Op::Xor)));
    }
    // Enabled decoders (width2 = 2^width lines) and single-direction
    // counters for the enable-mask and toggle-chain rules.
    for k in [2usize, 3] {
        v.push(
            ComponentSpec::new(ComponentKind::Decoder, k)
                .with_width2(1 << k)
                .with_enable(true),
        );
    }
    for w in [4usize, 8] {
        v.push(ComponentSpec::new(ComponentKind::Counter, w).with_ops(OpSet::only(Op::CountUp)));
        v.push(
            ComponentSpec::new(ComponentKind::Counter, w)
                .with_ops(OpSet::only(Op::CountUp))
                .with_enable(true),
        );
    }
    // Counter style variants.
    let count_ops = OpSet::from_iter([Op::Load, Op::CountUp, Op::CountDown]);
    for w in [4usize, 8] {
        for style in ["SYNCHRONOUS", "RIPPLE"] {
            v.push(
                ComponentSpec::new(ComponentKind::Counter, w)
                    .with_ops(count_ops)
                    .with_enable(true)
                    .with_style(style),
            );
        }
        v.push(ComponentSpec::new(ComponentKind::Counter, w).with_ops(count_ops));
    }
    v
}

/// `DT201`: a rule fully duplicated by an earlier rule.
pub struct ShadowedRule;

impl Lint for ShadowedRule {
    fn code(&self) -> &'static str {
        DT201
    }
    fn name(&self) -> &'static str {
        "shadowed-rule"
    }
    fn description(&self) -> &'static str {
        "a rule whose every template an earlier rule also produces"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, library } = target else {
            return;
        };
        let a = shared_closure(rules, library);
        for (i, shadowers) in a.shadowers.iter().enumerate() {
            let Some(set) = shadowers else { continue };
            if let Some(&j) = set.iter().next() {
                out.push(
                    Diagnostic::new(
                        DT201,
                        Severity::Warn,
                        ArtifactKind::Rules,
                        format!("rule {}", a.names[i]),
                        format!(
                            "every template it produced was also produced by the \
                             earlier rule {}",
                            a.names[j]
                        ),
                    )
                    .with_suggestion("remove the rule or specialize its trigger"),
                );
            }
        }
    }
}

/// `DT202`: a rule no probed or derived spec ever triggers.
pub struct InapplicableRule;

impl Lint for InapplicableRule {
    fn code(&self) -> &'static str {
        DT202
    }
    fn name(&self) -> &'static str {
        "inapplicable-rule"
    }
    fn description(&self) -> &'static str {
        "a rule that never fires on any probed or derived spec"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, library } = target else {
            return;
        };
        let a = shared_closure(rules, library);
        if a.truncated {
            return;
        }
        for (i, fired) in a.fired.iter().enumerate() {
            if !fired {
                out.push(
                    Diagnostic::new(
                        DT202,
                        Severity::Warn,
                        ArtifactKind::Rules,
                        format!("rule {}", a.names[i]),
                        format!(
                            "never produced a template across {} probed and derived \
                             specifications",
                            a.specs_explored
                        ),
                    )
                    .with_suggestion("its trigger condition may be unsatisfiable"),
                );
            }
        }
    }
}

/// `DT203`: direct self-recursion — a template containing its own parent.
pub struct SelfRecursiveRule;

impl Lint for SelfRecursiveRule {
    fn code(&self) -> &'static str {
        DT203
    }
    fn name(&self) -> &'static str {
        "self-recursive-rule"
    }
    fn description(&self) -> &'static str {
        "a rule expanding a spec into a template containing that same spec"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, library } = target else {
            return;
        };
        let a = shared_closure(rules, library);
        for (rule, spec) in &a.self_recursive {
            out.push(
                Diagnostic::new(
                    DT203,
                    Severity::Error,
                    ArtifactKind::Rules,
                    format!("rule {rule}"),
                    format!("expands {spec} into a template containing {spec} itself"),
                )
                .with_suggestion(
                    "the rewrite cannot terminate; decompose into strictly smaller specs",
                ),
            );
        }
    }
}

/// `DT204`: library-rule leaves nothing can implement.
pub struct UnmatchableLeaf;

impl Lint for UnmatchableLeaf {
    fn code(&self) -> &'static str {
        DT204
    }
    fn name(&self) -> &'static str {
        "unmatchable-leaf"
    }
    fn description(&self) -> &'static str {
        "a library rule producing a module spec no cell implements and no rule decomposes"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, library } = target else {
            return;
        };
        let a = shared_closure(rules, library);
        for (spec, rule) in &a.unmatchable {
            out.push(
                Diagnostic::new(
                    DT204,
                    Severity::Warn,
                    ArtifactKind::Rules,
                    format!("rule {rule}"),
                    format!(
                        "produces module {spec}, which no cell of library {} \
                         implements and no rule decomposes",
                        library.name()
                    ),
                )
                .with_suggestion("the rule targets a cell this library does not have"),
            );
        }
    }
}

/// `DT205`: structurally invalid templates.
pub struct InvalidTemplate;

impl Lint for InvalidTemplate {
    fn code(&self) -> &'static str {
        DT205
    }
    fn name(&self) -> &'static str {
        "invalid-template"
    }
    fn description(&self) -> &'static str {
        "a rule emitting a template that fails structural validation"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, library } = target else {
            return;
        };
        let a = shared_closure(rules, library);
        for (rule, message) in &a.invalid {
            out.push(Diagnostic::new(
                DT205,
                Severity::Error,
                ArtifactKind::Rules,
                format!("rule {rule}"),
                message.clone(),
            ));
        }
    }
}

/// `DT206`: duplicate rule names.
pub struct DuplicateRuleName;

impl Lint for DuplicateRuleName {
    fn code(&self) -> &'static str {
        DT206
    }
    fn name(&self) -> &'static str {
        "duplicate-rule-name"
    }
    fn description(&self) -> &'static str {
        "two rules sharing a name"
    }
    fn applies_to(&self) -> ArtifactKind {
        ArtifactKind::Rules
    }
    fn run(&self, target: &LintTarget<'_>, out: &mut Vec<Diagnostic>) {
        let LintTarget::Rules { rules, .. } = target else {
            return;
        };
        let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
        for rule in rules.iter() {
            *seen.entry(rule.name()).or_insert(0) += 1;
        }
        for (name, count) in seen {
            if count > 1 {
                out.push(Diagnostic::new(
                    DT206,
                    Severity::Error,
                    ArtifactKind::Rules,
                    format!("rule {name}"),
                    format!(
                        "{count} rules share this name; reports and lint sites \
                         cannot distinguish them"
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::LintRegistry;
    use crate::template::TemplateBuilder;
    use cells::lsi::lsi_logic_subset;

    fn run(rules: &RuleSet, library: &CellLibrary) -> Vec<&'static str> {
        LintRegistry::standard()
            .run(&LintTarget::Rules { rules, library })
            .diagnostics
            .iter()
            .map(|d| d.code)
            .collect()
    }

    #[test]
    fn shipped_rule_base_is_clean() {
        let rules = crate::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
        let library = lsi_logic_subset();
        let report = LintRegistry::standard().run(&LintTarget::Rules {
            rules: &rules,
            library: &library,
        });
        assert!(report.is_clean(), "{report}");
    }

    struct NamedRule {
        name: &'static str,
        expand: fn(&ComponentSpec) -> Vec<NetlistTemplate>,
    }

    impl crate::rules::Rule for NamedRule {
        fn name(&self) -> &str {
            self.name
        }
        fn doc(&self) -> &str {
            "test rule"
        }
        fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
            (self.expand)(spec)
        }
    }

    fn base_with(extra: Vec<Box<dyn crate::rules::Rule>>) -> RuleSet {
        let mut rules = crate::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
        rules.append_library_rules(extra);
        rules
    }

    #[test]
    fn never_firing_rule_is_inapplicable() {
        let rules = base_with(vec![Box::new(NamedRule {
            name: "never-fires",
            expand: |_| Vec::new(),
        })]);
        let found = run(&rules, &lsi_logic_subset());
        assert_eq!(found, vec![DT202]);
    }

    #[test]
    fn self_recursive_rule_detected() {
        fn expand(spec: &ComponentSpec) -> Vec<NetlistTemplate> {
            if spec.kind != ComponentKind::Delay {
                return Vec::new();
            }
            // DELAY -> the same DELAY spec wrapped once more.
            let mut t = TemplateBuilder::new("delay-self");
            t.module(
                "m0",
                spec.clone(),
                vec![("I", crate::template::Signal::parent("I"))],
                vec![("O", "w", spec.width)],
            );
            t.output("O", crate::template::Signal::net("w"));
            vec![t.build()]
        }
        let rules = base_with(vec![Box::new(NamedRule {
            name: "delay-self",
            expand,
        })]);
        let found = run(&rules, &lsi_logic_subset());
        assert!(found.contains(&DT203), "{found:?}");
    }

    #[test]
    fn duplicate_rule_name_detected() {
        let rules = base_with(vec![
            Box::new(NamedRule {
                name: "twin",
                expand: |_| Vec::new(),
            }),
            Box::new(NamedRule {
                name: "twin",
                expand: |_| Vec::new(),
            }),
        ]);
        let found = run(&rules, &lsi_logic_subset());
        assert!(found.contains(&DT206), "{found:?}");
    }
}
