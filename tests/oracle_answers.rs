//! The answer oracle in tier 1: every plain spec `perfbench/oracle.tsv`
//! pins must get exactly its pinned answer digest from a fresh default
//! engine, and from one shared engine mapping all of them in one batch,
//! plus the pinned uniform design count of each of those specs. The
//! shared batch is also checkpointed, and an engine warm-started on it
//! must answer every spec from the store identically, down to the wiring.

mod common;

use cells::lsi::lsi_logic_subset;
use common::assert_sets_identical;
use dtas::bench_specs::{pinned_answers, spec as benchmark_spec};
use dtas::lola::with_derived_rules;
use dtas::net::WireDesignSet;
use dtas::{DesignSet, DesignSpace, Dtas, DtasConfig, RuleSet, SpecModelCache};
use genus::spec::ComponentSpec;

/// The benchmark's digest of an answer: its wire form's fingerprint.
fn digest(set: &DesignSet) -> u64 {
    WireDesignSet::of(set).fingerprint()
}

#[test]
fn fresh_engines_answer_the_pinned_digests() {
    let pinned = pinned_answers();
    assert_eq!(pinned.len(), 41, "the benchmark pins 41 plain specs");
    let mismatches: Vec<String> = pinned
        .iter()
        .filter_map(|&(key, want)| {
            let set = Dtas::new(lsi_logic_subset())
                .run(benchmark_spec(key))
                .unwrap_or_else(|e| panic!("{key}: {e}"));
            let got = digest(&set);
            (got != want).then(|| format!("{key}: {got:016x}, pinned {want:016x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

#[test]
fn one_shared_batch_answers_the_pinned_digests() {
    let pinned = pinned_answers();
    let specs: Vec<ComponentSpec> = pinned.iter().map(|&(key, _)| benchmark_spec(key)).collect();
    let dir = std::env::temp_dir().join(format!("dtas_oracle_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cold = Dtas::warm_start(lsi_logic_subset(), &dir);
    let answers = cold.run_batch(&specs);
    let mismatches: Vec<String> = pinned
        .iter()
        .zip(&answers)
        .filter_map(|(&(key, want), answer)| {
            let got = digest(answer.as_ref().unwrap_or_else(|e| panic!("{key}: {e}")));
            (got != want).then(|| format!("{key}: {got:016x}, pinned {want:016x}"))
        })
        .collect();
    assert!(mismatches.is_empty(), "{mismatches:#?}");

    cold.checkpoint().expect("the batch persists");
    drop(cold);
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    for (spec, answer) in specs.iter().zip(&answers) {
        let stored = warm.run(spec).expect("a stored answer");
        assert_sets_identical(answer.as_ref().expect("solved"), &stored);
    }
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (41, 0), "{stats}");
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every spec the benchmark maps, with its uniform count under the
/// default rule base; `None` where the count exceeds the default
/// configuration's limit (2,000,000).
fn uniform_table() -> [(&'static str, Option<u64>); 41] {
    [
        ("nand:8:4", Some(88)),
        ("nand:16:2", Some(11)),
        ("nor:8:3", Some(97)),
        ("xor:8:4", Some(24)),
        ("xor:16:2", Some(9)),
        ("mux:8:2", Some(1_341)),
        ("mux:8:4", Some(189_922)),
        ("mux:16:4", Some(189_922)),
        ("mux:4:8", None),
        ("dec:2", Some(11)),
        ("dec:3", Some(136)),
        ("dec:4", Some(141)),
        ("bcd", Some(141)),
        ("enc:4", Some(88)),
        ("enc:8", Some(2_532)),
        ("enc:16", Some(388_727)),
        ("cmp:4", Some(1_584)),
        ("cmp:8", Some(1_311_872)),
        ("cmp:16", None),
        ("shift:8", Some(1_341)),
        ("shift:16", Some(1_341)),
        ("shift:32", Some(1_341)),
        ("barrel:8:3", Some(29_673)),
        ("barrel:16:4", Some(2_148)),
        ("mul:4:4", Some(329_989)),
        ("mul:6:4", None),
        ("mul:8:4", None),
        ("ctr:4", Some(1_842_512)),
        ("ctr:6", None),
        ("ctr:8", None),
        ("add:8", Some(7_498)),
        ("add:12", Some(10_882)),
        ("add:16", Some(837_009)),
        ("add:24", Some(931_392)),
        ("add:32", None),
        ("add:48", None),
        ("add:64", None),
        ("alu:8", None),
        ("alu:16", None),
        ("alu:32", None),
        ("alu:64", None),
    ]
}

#[test]
fn uniform_counts_match_the_pinned_table() {
    let rules = with_derived_rules(RuleSet::standard(), &lsi_logic_subset());
    let lib = lsi_logic_subset();
    let cache = SpecModelCache::new();
    let default_limit = DtasConfig::default().uniform_count_limit;
    let mut keys: Vec<&str> = uniform_table().iter().map(|&(key, _)| key).collect();
    let mut oracle_keys: Vec<&str> = pinned_answers().iter().map(|&(key, _)| key).collect();
    keys.sort_unstable();
    oracle_keys.sort_unstable();
    assert_eq!(keys, oracle_keys, "the table pins the oracle's specs");
    for (key, pinned) in uniform_table() {
        let mut space = DesignSpace::new();
        let id = space
            .expand(&benchmark_spec(key), &rules, &lib, &cache)
            .unwrap();
        let Some(total) = pinned else {
            assert_eq!(space.uniform_size(id, default_limit), None, "{key}");
            continue;
        };
        // The give-up boundary: one short of the count, the count, one past.
        let boundary = [
            (total - 1, None),
            (total, Some(total)),
            (total + 1, Some(total)),
        ];
        for (limit, expect) in boundary {
            assert_eq!(
                space.uniform_size(id, limit),
                expect,
                "{key}: limit {limit}"
            );
        }
    }
}
