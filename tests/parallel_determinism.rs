//! Determinism under caching and sharing: the engine-level cross-query
//! cache, shared sub-spec reuse, canonicalization and in-place updates
//! must all produce bit-identical results to a fresh, cold engine, and
//! the flat policy merge must keep ordered-map semantics — the paper's
//! numbers only mean something if the speedups are free. The cold solve
//! itself is serial; the no-op `threads` setting stays pinned as
//! changing nothing until it is deleted.

mod common;

use cells::lsi::lsi_logic_subset;
use dtas::template::SpecModelCache;
use dtas::{DesignSet, DesignSpace, Dtas, DtasConfig, Policy, RuleSet, SynthRequest};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

fn add16() -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, 16)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

fn alu64() -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Alu, 64)
        .with_ops(Op::paper_alu16())
        .with_carry_in(true)
}

/// A plain request whose canonical form elides its style: `dec:3`.
fn dec3() -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Decoder, 3)
        .with_width2(8)
        .with_style("BINARY")
}

#[test]
#[allow(deprecated)] // pins that the no-op `threads` setting changes nothing
fn threaded_engine_matches_single_thread_engine() {
    let serial = Dtas::builder(lsi_logic_subset())
        .config(DtasConfig {
            threads: Some(1),
            ..DtasConfig::default()
        })
        .build();
    let threaded = Dtas::builder(lsi_logic_subset())
        .config(DtasConfig {
            threads: Some(4),
            ..DtasConfig::default()
        })
        .build();
    for spec in [add16(), alu64()] {
        let a = serial.run(&spec).unwrap();
        let b = threaded.run(&spec).unwrap();
        assert_eq!(common::fingerprint(&a), common::fingerprint(&b), "{spec}");
        assert_eq!(
            a.unconstrained_size.to_bits(),
            b.unconstrained_size.to_bits()
        );
        assert_eq!(a.uniform_size, b.uniform_size);
        assert_eq!(a.stats.spec_nodes, b.stats.spec_nodes);
    }
}

#[test]
fn cached_repeat_is_identical_and_counted() {
    let engine = Dtas::new(lsi_logic_subset());
    let first = engine.run(add16()).unwrap();
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(engine.cache_stats().hits, 0);
    let again = engine.run(add16()).unwrap();
    assert_eq!(common::fingerprint(&first), common::fingerprint(&again));
    assert_eq!(again.uniform_size, first.uniform_size);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
    assert_eq!(stats.cached_results, 1);
    assert!(stats.cached_fronts > 0);
    // Invalidation drops everything; the next call re-solves identically.
    engine.clear_cache();
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.cached_results), (0, 0, 0));
    let cold = engine.run(add16()).unwrap();
    assert_eq!(common::fingerprint(&first), common::fingerprint(&cold));
}

#[test]
fn shared_subspecs_are_reused_across_roots() {
    let engine = Dtas::new(lsi_logic_subset());
    engine.run(add16()).unwrap();
    let nodes_after_add16 = engine.cache_stats().spec_nodes;
    // An ADD32 decomposes through the same small-adder subspace.
    let add32 = ComponentSpec::new(ComponentKind::AddSub, 32)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true);
    let set = engine.run(&add32).unwrap();
    assert!(!set.alternatives.is_empty());
    let stats = engine.cache_stats();
    // The shared space grew instead of being rebuilt, and ADD16's nodes
    // were not re-expanded (the count strictly contains them).
    assert!(stats.spec_nodes > nodes_after_add16);
    assert_eq!(stats.misses, 2);
    // Both roots answer from the answer table now.
    engine.run(add16()).unwrap();
    engine.run(&add32).unwrap();
    assert_eq!(engine.cache_stats().hits, 2);
}

#[test]
fn shared_engine_results_match_fresh_engines() {
    // Whatever the query order, every answer from one long-lived engine
    // must equal a fresh engine's answer for that spec.
    let shared = Dtas::new(lsi_logic_subset());
    let mux8 = ComponentSpec::new(ComponentKind::Mux, 8).with_inputs(8);
    for spec in [alu64(), add16(), mux8, add16(), alu64()] {
        let from_shared = shared.run(&spec).unwrap();
        let from_fresh = Dtas::new(lsi_logic_subset()).run(&spec).unwrap();
        assert_eq!(
            common::fingerprint(&from_shared),
            common::fingerprint(&from_fresh),
            "shared-engine divergence for {spec}"
        );
        assert_eq!(from_shared.uniform_size, from_fresh.uniform_size);
        assert_eq!(from_shared.stats.spec_nodes, from_fresh.stats.spec_nodes);
        assert_eq!(
            from_shared.stats.impl_choices,
            from_fresh.stats.impl_choices
        );
    }
}

#[test]
fn truncation_stats_survive_cross_query_reuse() {
    // With a tight combination cap the solver truncates; a query answered
    // through a long-lived engine must report the same truncation as a
    // fresh engine, even when it reuses fronts truncated by an earlier
    // query.
    let config = DtasConfig {
        max_combinations: 2,
        ..DtasConfig::default()
    };
    let fresh = Dtas::builder(lsi_logic_subset())
        .config(config.clone())
        .build()
        .run(add16())
        .unwrap();
    assert!(
        fresh.stats.truncated_combinations > 0,
        "cap 2 should truncate ADD16"
    );
    let shared = Dtas::builder(lsi_logic_subset()).config(config).build();
    shared
        .run(
            ComponentSpec::new(ComponentKind::AddSub, 8)
                .with_ops(OpSet::only(Op::Add))
                .with_carry_in(true)
                .with_carry_out(true),
        )
        .unwrap();
    let reused = shared.run(add16()).unwrap();
    assert_eq!(
        reused.stats.truncated_combinations,
        fresh.stats.truncated_combinations
    );
}

/// A deliberately *cyclic* ruleset: style-A delays decompose into
/// style-B delays and vice versa. Whichever spec expands first drops the
/// template that closes the cycle, so shared-space memo contents are
/// query-order dependent — the engine must detect this and serve such
/// queries from a fresh private expansion.
mod cyclic {
    use super::*;
    use cells::{Cell, CellLibrary};
    use dtas::template::NetlistTemplate;
    use dtas::{Rule, Signal, TemplateBuilder};

    pub struct StyleSwap {
        pub from: &'static str,
        pub to: &'static str,
    }

    impl Rule for StyleSwap {
        fn name(&self) -> &str {
            "style-swap"
        }
        fn doc(&self) -> &str {
            "test-only: rewrap a delay in the opposite style"
        }
        fn expand(&self, spec: &ComponentSpec) -> Vec<NetlistTemplate> {
            if spec.kind != ComponentKind::Delay
                || spec.width != 4
                || spec.style.as_deref() != Some(self.from)
            {
                return vec![];
            }
            let mut t = TemplateBuilder::new(self.name());
            t.module(
                "u",
                delay(self.to),
                vec![("I", Signal::parent("I"))],
                vec![("O", "o", 4)],
            );
            t.output("O", Signal::net("o"));
            vec![t.build()]
        }
    }

    pub fn delay(style: &str) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::Delay, 4).with_style(style)
    }

    pub fn engine() -> Dtas {
        builder().build()
    }

    pub fn builder() -> dtas::DtasBuilder {
        let mut lib = CellLibrary::new("delay-only");
        lib.insert(Cell::new(
            "DEL4",
            ComponentSpec::new(ComponentKind::Delay, 4),
            5.0,
            1.0,
        ));
        let mut rules = RuleSet::standard();
        rules.append_library_rules(vec![
            Box::new(StyleSwap { from: "A", to: "B" }),
            Box::new(StyleSwap { from: "B", to: "A" }),
        ]);
        Dtas::builder(lib).rules(rules)
    }
}

#[test]
fn cyclic_expansion_is_flagged_as_tainted() {
    // Space-level: expanding style-A drops style-B's swap-back template,
    // so B's subgraph is marked query-order dependent; an acyclic spec
    // (plain ADD16 expanded as its own root in a fresh space) reaches no
    // node whose templates were cut under a *different* root.
    let engine = cyclic::engine();
    let mut space = DesignSpace::new();
    let cache = SpecModelCache::new();
    let root_a = space
        .expand(
            &cyclic::delay("A"),
            engine.rules(),
            engine.library(),
            &cache,
        )
        .unwrap();
    assert!(space.tainted_under(root_a));
    let root_b = space.id_of(&cyclic::delay("B")).unwrap();
    assert!(space.tainted_under(root_b));
}

#[test]
fn cyclic_rules_stay_query_order_independent() {
    let fresh_b = cyclic::engine().run(cyclic::delay("B")).unwrap();
    let shared = cyclic::engine();
    shared.run(cyclic::delay("A")).unwrap();
    // Without the cycle-taint guard this query would answer from a shared
    // space where style-B was expanded under style-A and lost its
    // swap-back template (fewer implementation choices).
    let b_after_a = shared.run(cyclic::delay("B")).unwrap();
    assert_eq!(b_after_a.stats.impl_choices, fresh_b.stats.impl_choices);
    assert_eq!(b_after_a.stats.spec_nodes, fresh_b.stats.spec_nodes);
    assert_eq!(
        common::fingerprint(&b_after_a),
        common::fingerprint(&fresh_b)
    );
    // Tainted queries are never memoized: repeats stay correct too.
    let again = shared.run(cyclic::delay("B")).unwrap();
    assert_eq!(common::fingerprint(&again), common::fingerprint(&fresh_b));
}

/// An answer with the stats a cycle cut changes: the fingerprint alone
/// cannot see a lost swap-back template, which never reaches the front.
fn answer(set: &DesignSet) -> (common::Fingerprint, usize, usize, u64, Option<u64>) {
    (
        common::fingerprint(set),
        set.stats.impl_choices,
        set.stats.spec_nodes,
        set.unconstrained_size.to_bits(),
        set.uniform_size,
    )
}

/// The taint fallback sits in the one cold pipeline, so every entry
/// point that reaches it — a batch, an override request, and the misses
/// of a warm-started engine — answers B like a fresh engine even when A
/// expanded first.
#[test]
fn taint_fallback_covers_every_entry_point() {
    let (a, b) = (cyclic::delay("A"), cyclic::delay("B"));
    let fresh_a = answer(&cyclic::engine().run(&a).unwrap());
    let fresh_b = answer(&cyclic::engine().run(&b).unwrap());

    // One batch: B expands after A, into A's cut subgraph.
    let batch = cyclic::engine().run_batch(&[a.clone(), b.clone()]);
    assert_eq!(answer(batch[0].as_ref().unwrap()), fresh_a);
    assert_eq!(answer(batch[1].as_ref().unwrap()), fresh_b);

    // An override request (the default root filter, so only the memo is
    // bypassed) for B after A.
    let shared = cyclic::engine();
    shared.run(&a).unwrap();
    let request = SynthRequest::new(b.clone()).with_root_filter(DtasConfig::default().root_filter);
    assert_eq!(answer(&shared.run(request).unwrap()), fresh_b);

    // A warm-started engine's misses run the same pipeline on its live
    // space, so they reach the taint check in `expand_batch` too.
    let dir = std::env::temp_dir().join(format!("dtas_taint_warm_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let persisted = || {
        cyclic::builder()
            .config(DtasConfig {
                persist_path: Some(dir.clone()),
                ..DtasConfig::default()
            })
            .build()
    };
    let first = persisted();
    first
        .run(ComponentSpec::new(ComponentKind::Delay, 4))
        .unwrap();
    first.checkpoint().unwrap().expect("a store is bound");
    drop(first);
    let warm_run = persisted();
    assert_eq!(warm_run.cache_stats().snapshot_loads, 1);
    warm_run.run(&a).unwrap();
    assert_eq!(answer(&warm_run.run(&b).unwrap()), fresh_b);
    let warm_batch = persisted();
    let batch = warm_batch.run_batch(&[a, b]);
    assert_eq!(answer(batch[0].as_ref().unwrap()), fresh_a);
    assert_eq!(answer(batch[1].as_ref().unwrap()), fresh_b);
    // Drop the engines before the directory: a drop-flush after the
    // delete would recreate it.
    drop((warm_run, warm_batch));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The old BTreeMap policy-merge semantics, kept as the reference model.
fn reference_merge(
    base: &BTreeMap<usize, usize>,
    extra: &BTreeMap<usize, usize>,
) -> Option<BTreeMap<usize, usize>> {
    let (small, large) = if base.len() < extra.len() {
        (base, extra)
    } else {
        (extra, base)
    };
    let mut merged = large.clone();
    for (k, v) in small {
        match merged.get(k) {
            Some(existing) if existing != v => return None,
            Some(_) => {}
            None => {
                merged.insert(*k, *v);
            }
        }
    }
    Some(merged)
}

fn arb_assignments() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..48, 0usize..8), 0..16)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// Flat `Policy` merge agrees with the old BTreeMap merge on both the
    /// conflict decision and the merged contents.
    #[test]
    fn policy_merge_matches_btreemap_semantics(a in arb_assignments(), b in arb_assignments()) {
        // Duplicate keys resolve last-wins in both models.
        let ma: BTreeMap<usize, usize> = a.iter().copied().collect();
        let mb: BTreeMap<usize, usize> = b.iter().copied().collect();
        let pa: Policy = ma.iter().map(|(&k, &v)| (k, v)).collect();
        let pb: Policy = mb.iter().map(|(&k, &v)| (k, v)).collect();
        let reference = reference_merge(&ma, &mb);
        let flat = pa.merged(&pb);
        prop_assert_eq!(reference.is_some(), flat.is_some());
        if let (Some(reference), Some(flat)) = (reference, flat) {
            let flat_entries: Vec<(usize, usize)> = flat.iter().collect();
            let ref_entries: Vec<(usize, usize)> = reference.into_iter().collect();
            prop_assert_eq!(flat_entries, ref_entries);
            // Merge is symmetric on success.
            prop_assert_eq!(Some(flat), pb.merged(&pa));
        }
        // get() agrees with the map on every key.
        for k in 0..48 {
            prop_assert_eq!(pa.get(k), ma.get(&k).copied());
        }
    }
}

// ---------------------------------------------------------------------
// The incremental engine: canonical keys and in-place updates must be
// invisible in the answers — bit-identical to a fresh engine built
// directly in the final configuration.

/// Reference answer: an override request bypasses the memo, so it is
/// never canonicalized and a fresh engine solves the raw spec exactly as
/// written (under the default root filter, like a plain `run`).
fn raw_reference(spec: &ComponentSpec) -> common::Fingerprint {
    let request =
        SynthRequest::new(spec.clone()).with_root_filter(DtasConfig::default().root_filter);
    common::fingerprint(&Dtas::new(lsi_logic_subset()).run(request).unwrap())
}

fn arb_decoration() -> impl Strategy<Value = (Option<&'static str>, usize)> {
    (
        prop_oneof![Just(None), Just(Some("FASTEST")), Just(Some("LOWPOWER"))],
        0usize..7,
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, max_shrink_iters: 0 })]

    /// Canonicalization is solution-preserving: a decorated spec variant
    /// served through an alias of the canonical entry answers
    /// bit-identically (modulo nothing — the root label is relabelled) to
    /// a raw solve of the very same decorated spec, on its first request,
    /// its second, and through a batch.
    #[test]
    fn canonical_answers_match_raw_solves(
        width in 2usize..17,
        decoration in arb_decoration(),
        warm_plain_first in any::<bool>(),
    ) {
        let (style, w2) = decoration;
        let plain = ComponentSpec::new(ComponentKind::AddSub, width)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true);
        let mut spec = plain.clone();
        if let Some(style) = style {
            spec = spec.with_style(style);
        }
        if w2 != 0 {
            spec = spec.with_width2(w2);
        }
        let shared = Dtas::new(lsi_logic_subset());
        if warm_plain_first {
            // Warm the canonical entry through the undecorated variant,
            // so the decorated query is answered from the collapsed key.
            shared.run(&plain).unwrap();
        }
        let reference = raw_reference(&spec);
        let set = shared.run(&spec).unwrap();
        prop_assert_eq!(&set.spec, &spec, "root label must be the caller's");
        prop_assert_eq!(common::fingerprint(&set), reference.clone());
        // The second request, and one through a batch, read the entry the
        // first one filled.
        let again = shared.run(&spec).unwrap();
        prop_assert_eq!(&again.spec, &spec);
        prop_assert_eq!(common::fingerprint(&again), reference.clone());
        let batch = shared.run_batch(std::slice::from_ref(&spec)).remove(0).unwrap();
        prop_assert_eq!(&batch.spec, &spec);
        prop_assert_eq!(common::fingerprint(&batch), reference);
    }
}

/// An alias holds its canonical answer relabelled once: every later hit
/// on the decorated spec — through `run` or `run_batch` — returns that
/// same `Arc`, with no copy and no canonicalization.
#[test]
fn decorated_hits_return_the_stored_arc() {
    let engine = Dtas::new(lsi_logic_subset());
    for spec in [add16().with_style("FASTEST"), dec3()] {
        let first = engine.run(&spec).unwrap();
        let second = engine.run(&spec).unwrap();
        let batched = engine
            .run_batch(std::slice::from_ref(&spec))
            .remove(0)
            .unwrap();
        assert_eq!(first.spec, spec);
        assert!(
            Arc::ptr_eq(&first, &second),
            "{spec}: a hit is the stored Arc"
        );
        assert!(Arc::ptr_eq(&first, &batched), "{spec}: so is a batch hit");
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (4, 2), "{stats}");
    assert_eq!(stats.canonical_hits, 6, "{stats}");
    assert_eq!(stats.specs_collapsed, 2, "{stats}");
    assert_eq!(stats.cached_results, 2, "an alias is no result of its own");
}

/// Every `update_rules` / `update_config` path answers like a fresh
/// engine built with the final (rules, config) — for specs warmed before
/// the update (retained or dropped), and for a cold spec after it.
#[test]
fn updates_answer_like_a_fresh_engine() {
    // The decorated ADD16 and `dec:3` are aliases of other specs' entries,
    // so every row also checks an alias against a fresh engine.
    let warm_specs = [add16(), alu64(), add16().with_style("FASTEST"), dec3()];
    let cold_spec = ComponentSpec::new(ComponentKind::Mux, 8).with_inputs(4);
    type Update = fn(&mut Dtas);
    type FreshRules = fn() -> RuleSet;
    let standard_lsi: FreshRules =
        || dtas::lola::with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    let standard_only: FreshRules = || RuleSet::standard();
    let updates: [(&str, Update, FreshRules, DtasConfig); 5] = [
        (
            "same rules",
            |e| {
                e.update_rules(dtas::lola::with_derived_rules(
                    RuleSet::standard(),
                    &lsi_logic_subset(),
                ));
            },
            standard_lsi,
            DtasConfig::default(),
        ),
        (
            "rules removed",
            |e| {
                e.update_rules(RuleSet::standard());
            },
            standard_only,
            DtasConfig::default(),
        ),
        (
            "root shaping",
            |e| {
                e.update_config(DtasConfig {
                    root_filter: dtas::FilterPolicy::Pareto,
                    ..DtasConfig::default()
                });
            },
            standard_lsi,
            DtasConfig {
                root_filter: dtas::FilterPolicy::Pareto,
                ..DtasConfig::default()
            },
        ),
        (
            "node shaping",
            |e| {
                e.update_config(DtasConfig {
                    node_cap: 2,
                    ..DtasConfig::default()
                });
            },
            standard_lsi,
            DtasConfig {
                node_cap: 2,
                ..DtasConfig::default()
            },
        ),
        (
            "uniform accounting",
            |e| {
                e.update_config(DtasConfig {
                    uniform_count_limit: 10,
                    ..DtasConfig::default()
                });
            },
            standard_lsi,
            DtasConfig {
                uniform_count_limit: 10,
                ..DtasConfig::default()
            },
        ),
    ];
    for (label, update, final_rules, final_config) in updates {
        let mut engine = Dtas::new(lsi_logic_subset());
        for spec in &warm_specs {
            engine.run(spec).unwrap();
        }
        update(&mut engine);
        let fresh = Dtas::builder(lsi_logic_subset())
            .rules(final_rules())
            .config(final_config)
            .build();
        for spec in warm_specs.iter().chain([&cold_spec]) {
            let updated = engine.run(spec).unwrap();
            let reference = fresh.run(spec).unwrap();
            assert_eq!(
                common::fingerprint(&updated),
                common::fingerprint(&reference),
                "{label}: {spec} diverged from a fresh engine"
            );
            assert_eq!(
                updated.uniform_size, reference.uniform_size,
                "{label}: {spec} uniform accounting diverged"
            );
        }
    }
}
