//! The tiered on-disk warm-start store: a second engine (stand-in for a
//! second process) answers from a persisted chain bit-identically to a
//! cold solve — decoding lazily, from a memory-mapped base where the
//! platform supports it — and every kind of damaged or incompatible
//! chain (truncated base or delta, bit flips, future format version,
//! wrong fingerprints, random bytes, crash leftovers) falls back to a
//! clean cold solve without ever panicking.

mod common;

use cells::lsi::lsi_logic_subset;
use common::assert_sets_identical;
use dtas::{
    AnswerDefect, CheckpointOutcome, DesignSet, Dtas, DtasConfig, InvalidationCounts,
    InvalidationReason, Rejection, RuleSet, SaveReport, SynthRequest,
};
use genus::kind::ComponentKind;
use genus::op::{Op, OpSet};
use genus::spec::ComponentSpec;
use proptest::prelude::*;
use rtl_base::hash::word_sum;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn add_spec(w: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::AddSub, w)
        .with_ops(OpSet::only(Op::Add))
        .with_carry_in(true)
        .with_carry_out(true)
}

fn mux_spec(w: usize, n: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Mux, w).with_inputs(n)
}

fn enc_spec(inputs: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Encoder, genus::build::select_width(inputs))
        .with_inputs(inputs)
}

fn dec_spec(k: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Decoder, k)
        .with_width2(1 << k)
        .with_style("BINARY")
}

/// Warm-starts from `dir` under the plain standard rule base (no LSI
/// extensions), so the chain key differs from the default engine's.
fn warm_start_standard_rules(dir: &Path) -> Dtas {
    Dtas::builder(lsi_logic_subset())
        .rules(RuleSet::standard())
        .config(DtasConfig {
            persist_path: Some(dir.to_path_buf()),
            ..DtasConfig::default()
        })
        .build()
}

/// A fresh, empty cache directory unique to this test and process.
fn cache_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtas_warm_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Cache files in `dir` carrying the given extension, sorted by name.
fn files_with_ext(dir: &PathBuf, ext: &str) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == ext))
        .collect();
    out.sort();
    out
}

fn base_files(dir: &PathBuf) -> Vec<PathBuf> {
    files_with_ext(dir, "base")
}

fn delta_files(dir: &PathBuf) -> Vec<PathBuf> {
    files_with_ext(dir, "delta")
}

fn full_report(outcome: Option<CheckpointOutcome>) -> SaveReport {
    match outcome {
        Some(CheckpointOutcome::Full(report)) => report,
        other => panic!("expected a full save, got {other:?}"),
    }
}

fn delta_report(outcome: Option<CheckpointOutcome>) -> SaveReport {
    match outcome {
        Some(CheckpointOutcome::Delta(report)) => report,
        other => panic!("expected a delta append, got {other:?}"),
    }
}

#[test]
fn warm_start_round_trips_bit_identically() {
    let dir = cache_dir("roundtrip");
    let specs = [add_spec(8), add_spec(16), mux_spec(8, 4)];

    let cold = Dtas::warm_start(lsi_logic_subset(), &dir);
    let cold_sets: Vec<Arc<DesignSet>> = specs
        .iter()
        .map(|s| cold.run(s).expect("cold solves"))
        .collect();
    let report = full_report(cold.checkpoint().expect("checkpoint writes"));
    assert!(report.bytes > 0);
    assert_eq!(report.results, specs.len());
    let stats = cold.cache_stats();
    assert_eq!(stats.persisted_results, specs.len() as u64);
    assert_eq!(stats.snapshot_bytes, report.bytes);

    // A second engine — the restarted-process case. Loading is lazy:
    // nothing is decoded at construction (no live results), only the
    // chain's index is validated.
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.snapshot_loads, 1);
    assert_eq!(warm_stats.snapshot_rejects, 0);
    assert_eq!(warm_stats.cached_results, 0, "lazy: nothing decoded yet");
    assert_eq!(warm_stats.cached_fronts, 0, "no space is persisted");
    assert_eq!(warm_stats.lazy_results, specs.len());
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(warm.warm_base_mapped(), "base should be memory-mapped");

    // Every first query materializes its persisted result — a hit, with
    // zero misses, bit-identical to the cold answer.
    for (spec, cold_set) in specs.iter().zip(&cold_sets) {
        let warm_set = warm.run(spec).expect("warm solves");
        assert_sets_identical(cold_set, &warm_set);
    }
    let warm_stats = warm.cache_stats();
    assert_eq!(
        (warm_stats.hits, warm_stats.misses),
        (specs.len() as u64, 0)
    );
    assert_eq!(warm_stats.lazy_materialized, specs.len() as u64);
    assert_eq!(warm_stats.lazy_results, 0, "backlog fully drained");
    // Each hit decoded its own answer section; none touched the space.
    assert_eq!(
        (warm_stats.spec_nodes, warm_stats.cached_fronts),
        (0, 0),
        "{warm_stats}"
    );

    // A miss runs the one cold pipeline on the live space, and the answer
    // is still the fresh engine's.
    let fresh = Dtas::new(lsi_logic_subset())
        .run(add_spec(12))
        .expect("reference solves");
    assert_sets_identical(&fresh, &warm.run(add_spec(12)).expect("warm miss solves"));
    let warm_stats = warm.cache_stats();
    assert_eq!(warm_stats.misses, 1);

    // Engines first, directory second — a later drop-flush would
    // resurrect the directory.
    drop(cold);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decorated_requests_answer_from_the_persisted_canonical_answer() {
    let dir = cache_dir("decorated");
    let decorated = add_spec(16).with_style("FASTEST");
    let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
    seed.run(&decorated).expect("solves");
    // The alias stays in memory: only its canonical answer is persisted.
    assert_eq!(full_report(seed.checkpoint().expect("writes")).results, 1);
    drop(seed);

    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().lazy_results, 1);
    let answer = warm.run(&decorated).expect("answers");
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats}");
    assert_eq!(stats.lazy_materialized, 1, "{stats}");
    assert_eq!(stats.canonical_hits, 1, "{stats}");
    let fresh = Dtas::new(lsi_logic_subset())
        .run(&decorated)
        .expect("reference solves");
    assert_sets_identical(&fresh, &answer);
    assert!(Arc::ptr_eq(&answer, &warm.run(&decorated).expect("hit")));
    // Nothing was solved, so there is nothing to write.
    assert_eq!(
        warm.checkpoint().expect("no i/o"),
        Some(CheckpointOutcome::Skipped)
    );
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn override_only_sessions_write_nothing() {
    // An override answer bypasses the answer table, so it is never
    // persisted: an engine that answered only one has nothing to flush.
    let dir = cache_dir("override_only");
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let capped = engine
        .run(SynthRequest::new(add_spec(8)).with_front_cap(2))
        .expect("solves");
    assert!(capped.alternatives.len() <= 2);
    assert_eq!(engine.cache_stats().misses, 1);
    assert_eq!(
        engine.checkpoint().expect("no i/o"),
        Some(CheckpointOutcome::Skipped)
    );
    drop(engine);
    assert!(base_files(&dir).is_empty(), "no base written");
    assert!(delta_files(&dir).is_empty(), "no delta written");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefault_materializes_the_whole_backlog() {
    let dir = cache_dir("prefault");
    let specs = [add_spec(8), mux_spec(4, 3)];
    {
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        for spec in &specs {
            engine.run(spec).expect("solves");
        }
    }
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().lazy_results, specs.len());
    assert_eq!(warm.prefault(), specs.len());
    let stats = warm.cache_stats();
    assert_eq!(stats.lazy_results, 0);
    assert_eq!(stats.cached_results, specs.len());
    // Prefault already decoded everything; queries are plain memo hits.
    for spec in &specs {
        warm.run(spec).expect("hits");
    }
    assert_eq!(warm.cache_stats().misses, 0);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn delta_checkpoint_is_o_dirty_not_o_space() {
    let dir = cache_dir("delta");
    let base_specs = [add_spec(8), add_spec(16), mux_spec(8, 4)];
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let mut reference: Vec<Arc<DesignSet>> = base_specs
        .iter()
        .map(|s| engine.run(s).expect("solves"))
        .collect();
    let base = full_report(engine.checkpoint().expect("writes"));

    // One more (small) solve: the follow-up checkpoint appends a delta
    // carrying just that dirt — no larger than the base a fresh engine
    // writes for that one answer, however large the base it extends.
    reference.push(engine.run(add_spec(4)).expect("solves"));
    let delta = delta_report(engine.checkpoint().expect("writes"));
    let alone_dir = cache_dir("delta_alone");
    let alone = {
        let fresh = Dtas::warm_start(lsi_logic_subset(), &alone_dir);
        fresh.run(add_spec(4)).expect("solves");
        full_report(fresh.checkpoint().expect("writes"))
    };
    let _ = std::fs::remove_dir_all(&alone_dir);
    assert!(
        delta.bytes <= alone.bytes,
        "delta {} bytes vs {} bytes for ADD4 alone (base {} bytes)",
        delta.bytes,
        alone.bytes,
        base.bytes
    );
    assert_eq!(delta.results, 1);
    let stats = engine.cache_stats();
    assert_eq!(stats.delta_checkpoints, 1);
    assert_eq!(stats.snapshot_bytes, delta.bytes);
    assert_eq!(base_files(&dir).len(), 1);
    assert_eq!(delta_files(&dir).len(), 1);
    drop(engine);

    // The chain (base + delta) loads as one unit and replays everything.
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    assert_eq!(warm.cache_stats().lazy_results, 4);
    let all_specs = [add_spec(8), add_spec(16), mux_spec(8, 4), add_spec(4)];
    for (spec, cold_set) in all_specs.iter().zip(&reference) {
        let warm_set = warm.run(spec).expect("warm solves");
        assert_sets_identical(cold_set, &warm_set);
    }
    assert_eq!(warm.cache_stats().misses, 0);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn clean_checkpoints_are_skipped_without_writing() {
    let dir = cache_dir("skip");
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    engine.run(add_spec(8)).expect("solves");
    full_report(engine.checkpoint().expect("writes"));
    let files_before: Vec<PathBuf> = base_files(&dir)
        .into_iter()
        .chain(delta_files(&dir))
        .collect();

    // Nothing changed: both follow-up checkpoints skip, no new files.
    assert_eq!(
        engine.checkpoint().expect("ok"),
        Some(CheckpointOutcome::Skipped)
    );
    assert_eq!(
        engine.checkpoint().expect("ok"),
        Some(CheckpointOutcome::Skipped)
    );
    let stats = engine.cache_stats();
    assert_eq!(stats.checkpoints_skipped, 2);
    let files_after: Vec<PathBuf> = base_files(&dir)
        .into_iter()
        .chain(delta_files(&dir))
        .collect();
    assert_eq!(files_before, files_after);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_folds_the_chain_back_into_one_base() {
    let dir = cache_dir("compact");
    // A delta larger than half the base triggers compaction on the next
    // dirty checkpoint: ADD16's answer outgrows half of ADD8's.
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let specs = [add_spec(8), add_spec(16), mux_spec(8, 4)];
    let mut reference = Vec::new();

    reference.push(engine.run(&specs[0]).expect("solves"));
    full_report(engine.checkpoint().expect("writes"));
    reference.push(engine.run(&specs[1]).expect("solves"));
    delta_report(engine.checkpoint().expect("writes"));
    reference.push(engine.run(&specs[2]).expect("solves"));
    // The deltas now outgrow half the base: this checkpoint compacts.
    full_report(engine.checkpoint().expect("writes"));
    let stats = engine.cache_stats();
    assert_eq!(stats.compactions, 1);
    assert_eq!(base_files(&dir).len(), 1, "old generation pruned");
    assert!(delta_files(&dir).is_empty(), "deltas folded into the base");
    drop(engine);

    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    for (spec, cold_set) in specs.iter().zip(&reference) {
        let warm_set = warm.run(spec).expect("warm solves");
        assert_sets_identical(cold_set, &warm_set);
    }
    assert_eq!(warm.cache_stats().misses, 0);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_flushes_and_persisted_errors_replay() {
    let dir = cache_dir("dropflush");
    let stack = ComponentSpec::new(ComponentKind::StackFifo, 8)
        .with_width2(4)
        .with_ops([Op::Push, Op::Pop].into_iter().collect())
        .with_style("STACK");
    {
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        engine.run(add_spec(16)).expect("solves");
        assert!(engine.run(&stack).is_err());
        // No explicit checkpoint: drop flushes.
    }
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    warm.run(add_spec(16)).expect("warm hit");
    assert!(warm.run(&stack).is_err(), "memoized error replays");
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Writes a single-base chain for the default engine setup and returns
/// the base segment's path.
fn persisted_snapshot(dir: &PathBuf) -> PathBuf {
    let engine = Dtas::warm_start(lsi_logic_subset(), dir);
    engine.run(add_spec(16)).expect("solves");
    engine.checkpoint().expect("writes").expect("bound");
    drop(engine);
    let bases = base_files(dir);
    assert_eq!(bases.len(), 1, "exactly one base segment");
    bases.into_iter().next().expect("base present")
}

/// After `corrupt` has damaged the base segment, a fresh engine must
/// reject the damage — at load for header damage, on first decode for
/// body damage (the lazy read path defers section verification) — and
/// re-solve cold to the bit-identical answer.
fn assert_falls_back_cold(dir: &PathBuf, corrupt: impl FnOnce(&PathBuf)) {
    let path = persisted_snapshot(dir);
    corrupt(&path);
    let engine = Dtas::warm_start(lsi_logic_subset(), dir);
    let cold = Dtas::new(lsi_logic_subset())
        .run(add_spec(16))
        .expect("reference solves");
    let recovered = engine.run(add_spec(16)).expect("cold fallback");
    assert_sets_identical(&cold, &recovered);
    let stats = engine.cache_stats();
    assert!(
        stats.snapshot_rejects >= 1,
        "damage must be counted: {stats}"
    );
    assert_eq!(
        stats.misses, 1,
        "the answer must be re-solved, never served from damaged bytes"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn truncated_snapshot_falls_back_cold() {
    let dir = cache_dir("truncated");
    assert_falls_back_cold(&dir, |path| {
        let bytes = std::fs::read(path).expect("reads");
        std::fs::write(path, &bytes[..bytes.len() / 2]).expect("truncates");
    });
}

#[test]
fn flipped_bytes_fall_back_cold() {
    // Flip one byte at a spread of offsets — version field, header,
    // answer section, file tail. The base is its header plus the one
    // answer section, and the first hit reads both, so every flip is
    // rejected and counted before anything is served; the answer equals
    // a cold solve.
    let cold = Dtas::new(lsi_logic_subset())
        .run(add_spec(16))
        .expect("reference solves");
    for frac in [0usize, 1, 2, 3, 4] {
        let dir = cache_dir(&format!("flip{frac}"));
        let path = persisted_snapshot(&dir);
        let mut bytes = std::fs::read(&path).expect("reads");
        let idx = match frac {
            0 => 9,                   // format version field
            4 => bytes.len() - 3,     // tail of the last section
            f => f * bytes.len() / 4, // spread through the body
        };
        bytes[idx] ^= 0x5a;
        std::fs::write(&path, &bytes).expect("writes");

        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        let answer = engine.run(add_spec(16)).expect("answers");
        assert_sets_identical(&cold, &answer);
        let stats = engine.cache_stats();
        assert!(
            stats.snapshot_rejects >= 1,
            "offset {idx}: damage must be counted: {stats}"
        );
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn every_ok_answer_persists_including_private_solves() {
    // ENC4 reaches nodes another root expanded first with a cycle cut,
    // so the batch solves it on a private space. Its answer persists as
    // its own implementation DAG all the same.
    let dir = cache_dir("every_answer");
    let specs = [add_spec(8), dec_spec(4), enc_spec(4)];
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let reference: Vec<Arc<DesignSet>> = engine
        .run_batch(&specs)
        .into_iter()
        .map(|r| r.expect("batch solves"))
        .collect();
    let report = full_report(engine.checkpoint().expect("writes"));
    assert_eq!(report.results, specs.len(), "every answer persisted");
    drop(engine);

    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    for (spec, cold_set) in specs.iter().zip(&reference) {
        assert_sets_identical(cold_set, &warm.run(spec).expect("warm hit"));
    }
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (specs.len() as u64, 0),
        "{stats}"
    );
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

fn u32_at(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

fn u64_at(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Steps over one encoded spec: kind tag (plus gate-op name), three
/// widths, operation names, five flags, optional style.
fn skip_spec(bytes: &[u8], pos: &mut usize) {
    let skip_str = |pos: &mut usize| *pos += 4 + u32_at(bytes, *pos) as usize;
    let tag = bytes[*pos];
    *pos += 1;
    if tag == 0 {
        skip_str(pos);
    }
    *pos += 24;
    let ops = u32_at(bytes, *pos);
    *pos += 4;
    for _ in 0..ops {
        skip_str(pos);
    }
    *pos += 5;
    let styled = bytes[*pos] == 1;
    *pos += 1;
    if styled {
        skip_str(pos);
    }
}

/// Segment header bytes before the result index: magic, version, kind,
/// four fingerprints, base id, seq and chain link.
const RESULT_INDEX_AT: usize = 8 + 4 + 1 + 4 * 8 + 8 + 4 + 8;

/// Rewrites the one answer section of the base segment at `path` through
/// `edit`. With `restamp`, the section and header checksums are
/// recomputed, so only the decoder's structural checks can catch the
/// damage.
fn edit_answer_section(path: &Path, restamp: bool, edit: impl FnOnce(&mut Vec<u8>)) {
    let mut file = std::fs::read(path).expect("reads");
    assert_eq!(u32_at(&file, RESULT_INDEX_AT), 1, "one answer in the base");
    let mut desc = RESULT_INDEX_AT + 4;
    skip_spec(&file, &mut desc);
    let checksum_at = desc + 24;
    let off = u64_at(&file, desc) as usize;
    let len = u64_at(&file, desc + 8) as usize;
    assert_eq!(off + len, file.len(), "the answer is the last section");
    let mut section = file.split_off(off);
    edit(&mut section);
    file.extend_from_slice(&section);
    if restamp {
        file[desc + 8..desc + 16].copy_from_slice(&(section.len() as u64).to_le_bytes());
        file[desc + 16..desc + 24].copy_from_slice(&word_sum(&section).to_le_bytes());
        let header = word_sum(&file[..checksum_at]);
        file[checksum_at..checksum_at + 8].copy_from_slice(&header.to_le_bytes());
    }
    std::fs::write(path, &file).expect("writes");
}

/// One entry of an answer section's node table.
struct NodeEntry {
    at: usize,
    netlist: bool,
    index: u32,
    children: Vec<u32>,
}

/// Walks the node table at the head of an `Ok` answer section: per node,
/// spec index, kind, cell-name or template index, child refs.
fn node_table(section: &[u8]) -> Vec<NodeEntry> {
    assert_eq!(section[0], 1, "an Ok answer");
    let mut pos = 9;
    (0..u32_at(section, 5))
        .map(|_| {
            let at = pos;
            let count = u32_at(section, at + 9) as usize;
            pos += 13 + 4 * count;
            NodeEntry {
                at,
                netlist: section[at + 4] == 1,
                index: u32_at(section, at + 5),
                children: (0..count)
                    .map(|k| u32_at(section, at + 13 + 4 * k))
                    .collect(),
            }
        })
        .collect()
}

/// The first netlist node (every child of it is a cell) and its position.
fn first_netlist(section: &[u8]) -> (usize, NodeEntry) {
    node_table(section)
        .into_iter()
        .enumerate()
        .find(|(_, node)| node.netlist)
        .expect("a netlist node")
}

fn put_u32(section: &mut [u8], at: usize, value: u32) {
    section[at..at + 4].copy_from_slice(&value.to_le_bytes());
}

/// Where an `Ok` answer section's name table starts: after its node
/// table and spec table.
fn names_at(section: &[u8]) -> usize {
    let last = node_table(section).pop().expect("a node");
    let mut pos = last.at + 13 + 4 * last.children.len();
    for _ in 0..u32_at(section, 1) {
        skip_spec(section, &mut pos);
    }
    pos
}

/// The length of an `Ok` answer section's name table.
fn string_count(section: &[u8]) -> u32 {
    u32_at(section, names_at(section))
}

/// Where the fields of one template of an answer section sit.
struct TemplateLayout {
    rule_at: usize,
    nets: usize,
    /// Position of the node count, which the part count and the parts
    /// follow.
    arena_at: usize,
    /// `(tag, position)` of every wiring node, in arena order.
    nodes: Vec<(u8, usize)>,
    parts: usize,
    /// Position of the module count, just past the arena.
    modules_at: usize,
    /// Position of the first module's first pin, if it has one.
    first_pin_at: Option<usize>,
}

/// Walks the templates after an `Ok` answer section's name table: per
/// template the rule symbol, the nets, the wiring arena (node and part
/// counts, the parts, then tagged nodes), the modules and the outputs.
fn template_layouts(section: &[u8]) -> Vec<TemplateLayout> {
    let mut pos = names_at(section);
    let names = u32_at(section, pos) as usize;
    let text = match names {
        0 => 0,
        n => u32_at(section, pos + 4 * n) as usize,
    };
    pos += 4 + 4 * names + text;
    let count = u32_at(section, pos);
    pos += 4;
    (0..count)
        .map(|_| {
            let rule_at = pos;
            pos += 4;
            let nets = u32_at(section, pos) as usize;
            pos += 4;
            for _ in 0..nets {
                pos += if section[pos + 4] == 1 { 9 } else { 5 };
            }
            let arena_at = pos;
            let node_count = u32_at(section, pos) as usize;
            let parts = u32_at(section, pos + 4) as usize;
            pos += 8 + 4 * parts;
            let nodes = (0..node_count)
                .map(|_| {
                    let (tag, at) = (section[pos], pos);
                    pos += 1 + match tag {
                        0 | 1 => 4,
                        2 => 8 + (u64_at(section, pos + 1) as usize).div_ceil(8),
                        3 => 12,
                        _ => 8,
                    };
                    (tag, at)
                })
                .collect();
            let modules_at = pos;
            let modules = u32_at(section, pos);
            pos += 4;
            let mut first_pin_at = None;
            for m in 0..modules {
                let pins = u32_at(section, pos + 8) as usize;
                if m == 0 && pins > 0 {
                    first_pin_at = Some(pos + 12);
                }
                pos += 12 + 8 * pins;
                pos += 4 + 8 * u32_at(section, pos) as usize;
            }
            pos += 4 + 8 * u32_at(section, pos) as usize;
            TemplateLayout {
                rule_at,
                nets,
                arena_at,
                nodes,
                parts,
                modules_at,
                first_pin_at,
            }
        })
        .collect()
}

/// Appends wiring to the first template's arena: `parts` after its Cat
/// parts, and `count` nodes, encoded in `nodes`, after its nodes.
fn extend_first_arena(section: &mut Vec<u8>, parts: &[u32], nodes: &[u8], count: usize) {
    let layout = template_layouts(section).remove(0);
    section.splice(layout.modules_at..layout.modules_at, nodes.iter().copied());
    let parts_end = layout.arena_at + 8 + 4 * layout.parts;
    section.splice(
        parts_end..parts_end,
        parts.iter().flat_map(|p| p.to_le_bytes()),
    );
    put_u32(
        section,
        layout.arena_at,
        (layout.nodes.len() + count) as u32,
    );
    put_u32(
        section,
        layout.arena_at + 4,
        (layout.parts + parts.len()) as u32,
    );
}

/// Encodes a parent-port wiring node, a leaf, naming symbol `sym`.
fn parent_node(sym: u32) -> Vec<u8> {
    let mut node = vec![1];
    node.extend(sym.to_le_bytes());
    node
}

/// The first template holding a wiring node tagged `tag`, with that
/// node's index and position.
fn first_wiring(section: &[u8], tag: u8) -> (usize, TemplateLayout, usize, usize) {
    template_layouts(section)
        .into_iter()
        .enumerate()
        .find_map(|(t, layout)| {
            let (node, &(_, at)) = layout
                .nodes
                .iter()
                .enumerate()
                .find(|(_, (node_tag, _))| *node_tag == tag)?;
            Some((t, layout, node, at))
        })
        .expect("a template with such a wiring node")
}

#[test]
fn damaged_answer_sections_reject_and_resolve_cold() {
    let cold = Dtas::new(lsi_logic_subset())
        .run(add_spec(16))
        .expect("reference solves");
    type Case = (&'static str, bool, fn(&mut Vec<u8>) -> Rejection);
    let cases: [Case; 15] = [
        ("child_not_below_parent", true, |section| {
            let (node, entry) = first_netlist(section);
            put_u32(section, entry.at + 13, node as u32);
            Rejection::Answer(AnswerDefect::ChildNotBelowParent { node, child: node })
        }),
        ("template_out_of_range", true, |section| {
            let (node, entry) = first_netlist(section);
            put_u32(section, entry.at + 5, 0x7fff_ffff);
            let templates = 1 + node_table(section)
                .iter()
                .filter(|n| n.netlist && n.index != 0x7fff_ffff)
                .map(|n| n.index as usize)
                .max()
                .unwrap_or(0);
            Rejection::Answer(AnswerDefect::TemplateOutOfRange {
                node,
                index: 0x7fff_ffff,
                templates,
            })
        }),
        ("child_count", true, |section| {
            // A childless cell node retyped as an instance of a template
            // that has modules.
            let (_, netlist) = first_netlist(section);
            let (node, cell) = node_table(section)
                .into_iter()
                .enumerate()
                .find(|(_, n)| !n.netlist)
                .expect("a cell node");
            section[cell.at + 4] = 1;
            put_u32(section, cell.at + 5, netlist.index);
            Rejection::Answer(AnswerDefect::ChildCount {
                node,
                children: 0,
                modules: netlist.children.len(),
            })
        }),
        ("child_spec", true, |section| {
            // The first netlist's first child re-pointed at another spec
            // of the (de-duplicated) spec table.
            let (node, entry) = first_netlist(section);
            let child = &node_table(section)[entry.children[0] as usize];
            let specs = u32_at(section, 1);
            let other = (u32_at(section, child.at) + 1) % specs;
            put_u32(section, child.at, other);
            Rejection::Answer(AnswerDefect::ChildSpec { node, module: 0 })
        }),
        ("spec_out_of_range", true, |section| {
            let node = &node_table(section)[0];
            put_u32(section, node.at, 0x7fff_ffff);
            Rejection::Answer(AnswerDefect::SpecOutOfRange {
                index: 0x7fff_ffff,
                specs: u32_at(section, 1) as usize,
            })
        }),
        ("cell_name_out_of_range", true, |section| {
            let cell = node_table(section)
                .into_iter()
                .find(|n| !n.netlist)
                .expect("a cell node");
            put_u32(section, cell.at + 5, 0x7fff_ffff);
            Rejection::Answer(AnswerDefect::SymbolOutOfRange {
                index: 0x7fff_ffff,
                symbols: string_count(section) as usize,
            })
        }),
        ("rule_symbol_out_of_range", true, |section| {
            let layout = template_layouts(section).remove(0);
            put_u32(section, layout.rule_at, 0x7fff_ffff);
            Rejection::Answer(AnswerDefect::SymbolOutOfRange {
                index: 0x7fff_ffff,
                symbols: string_count(section) as usize,
            })
        }),
        ("net_out_of_range", true, |section| {
            let (template, layout, _, at) = first_wiring(section, 0);
            put_u32(section, at + 1, 0x7fff_ffff);
            Rejection::Answer(AnswerDefect::NetOutOfRange {
                template,
                index: 0x7fff_ffff,
                nets: layout.nets,
            })
        }),
        ("node_out_of_range", true, |section| {
            let (template, layout) = template_layouts(section)
                .into_iter()
                .enumerate()
                .find(|(_, layout)| layout.first_pin_at.is_some())
                .expect("a module with a wired input");
            put_u32(section, layout.first_pin_at.unwrap() + 4, 0x7fff_ffff);
            Rejection::Answer(AnswerDefect::NodeOutOfRange {
                template,
                index: 0x7fff_ffff,
                nodes: layout.nodes.len(),
            })
        }),
        ("cat_part_out_of_range", true, |section| {
            let (template, layout, node, at) = first_wiring(section, 4);
            let end = layout.parts + 1;
            put_u32(section, at + 5, end as u32);
            Rejection::Answer(AnswerDefect::PartOutOfRange {
                template,
                node,
                end,
                parts: layout.parts,
            })
        }),
        ("wiring_refers_to_itself", true, |section| {
            let (template, _, node, at) = first_wiring(section, 3);
            put_u32(section, at + 1, node as u32);
            Rejection::Answer(AnswerDefect::WiringNotBelow {
                template,
                node,
                child: node,
            })
        }),
        ("slice_chain_too_deep", true, |section| {
            // A leaf and a chain of 100 slices over it: node k of the
            // chain nests k + 1 deep.
            let layout = template_layouts(section).remove(0);
            let base = layout.nodes.len() as u32;
            let mut nodes = parent_node(u32_at(section, layout.rule_at));
            for k in 0..100 {
                nodes.push(3);
                for field in [base + k, 0, 1] {
                    nodes.extend(field.to_le_bytes());
                }
            }
            extend_first_arena(section, &[], &nodes, 101);
            Rejection::Answer(AnswerDefect::WiringTooDeep {
                template: 0,
                node: base as usize + 64,
                depth: 65,
            })
        }),
        ("cat_chain_shares_nodes", true, |section| {
            // A leaf and 40 concatenations, each of two copies of the one
            // before: unfolded, 2^40 leaves.
            let layout = template_layouts(section).remove(0);
            let (base, first_part) = (layout.nodes.len() as u32, layout.parts as u32);
            let mut nodes = parent_node(u32_at(section, layout.rule_at));
            let mut parts = Vec::new();
            for k in 0..40 {
                parts.extend([base + k, base + k]);
                nodes.push(4);
                for field in [first_part + 2 * k, first_part + 2 * k + 2] {
                    nodes.extend(field.to_le_bytes());
                }
            }
            extend_first_arena(section, &parts, &nodes, 41);
            Rejection::Answer(AnswerDefect::WiringShared {
                template: 0,
                node: base as usize,
            })
        }),
        ("truncated", true, |section| {
            section.truncate(section.len() / 2);
            Rejection::Damaged(String::new())
        }),
        ("bit_flip", false, |section| {
            let mid = section.len() / 2;
            section[mid] ^= 0x5a;
            Rejection::Damaged(String::new())
        }),
    ];
    for (name, restamp, damage) in cases {
        let dir = cache_dir(&format!("answer_{name}"));
        let path = persisted_snapshot(&dir);
        let mut expected = None;
        edit_answer_section(&path, restamp, |section| expected = Some(damage(section)));

        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        assert_eq!(
            engine.cache_stats().snapshot_loads,
            1,
            "{name}: header intact"
        );
        let recovered = engine.run(add_spec(16)).expect("re-solves");
        assert_sets_identical(&cold, &recovered);
        let stats = engine.cache_stats();
        assert_eq!(stats.snapshot_rejects, 1, "{name}: {stats}");
        assert_eq!(stats.misses, 1, "{name}: never served from damage");
        assert_eq!(stats.lazy_results, 0, "{name}: the entry is dropped");
        let reason = engine.last_snapshot_rejection().expect("recorded");
        match expected.expect("damaged") {
            Rejection::Damaged(_) => {
                assert!(matches!(reason, Rejection::Damaged(_)), "{name}: {reason}")
            }
            typed => assert_eq!(reason, typed, "{name}"),
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn compaction_from_an_undecoded_chain_keeps_every_answer() {
    let dir = cache_dir("undecoded_compaction");
    let persisted = [add_spec(8), add_spec(16), mux_spec(8, 4)];
    let mut reference: Vec<Arc<DesignSet>> = {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        persisted
            .iter()
            .map(|s| seed.run(s).expect("solves"))
            .collect()
    };
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    // One answer materialized, two still pending, and two misses: a
    // delta, then a compaction. ADD24's delta outgrows half the base of
    // the three persisted answers.
    assert_sets_identical(&reference[0], &engine.run(&persisted[0]).expect("hit"));
    reference.push(engine.run(add_spec(24)).expect("solves"));
    delta_report(engine.checkpoint().expect("writes"));
    reference.push(engine.run(add_spec(12)).expect("solves"));
    let report = full_report(engine.checkpoint().expect("compacts"));
    let stats = engine.cache_stats();
    assert_eq!(stats.compactions, 1, "{stats}");
    assert_eq!(report.results, 5, "pending and materialized answers kept");
    drop(engine);

    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().lazy_results, 5);
    let all = [
        add_spec(8),
        add_spec(16),
        mux_spec(8, 4),
        add_spec(24),
        add_spec(12),
    ];
    for (spec, cold_set) in all.iter().zip(&reference) {
        assert_sets_identical(cold_set, &warm.run(spec).expect("warm hit"));
    }
    assert_eq!(warm.cache_stats().misses, 0);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A rule whose body can change while its name and doc — all the rule-set
/// fingerprint hashes — stay put: with `swap` it rewraps the plain 4-bit
/// delay as a style-B one, without it it expands nothing.
struct SilentSwap {
    swap: bool,
}

impl dtas::Rule for SilentSwap {
    fn name(&self) -> &str {
        "silent-swap"
    }
    fn doc(&self) -> &str {
        "test-only: a body the rule-set fingerprint cannot see"
    }
    fn expand(&self, spec: &ComponentSpec) -> Vec<dtas::NetlistTemplate> {
        if !self.swap || *spec != delay_spec(4) {
            return Vec::new();
        }
        let mut t = dtas::TemplateBuilder::new(self.name());
        t.module(
            "u",
            delay_spec(4).with_style("B"),
            vec![("I", dtas::Signal::parent("I"))],
            vec![("O", "o", 4)],
        );
        t.output("O", dtas::Signal::net("o"));
        vec![t.build()]
    }
}

fn delay_spec(width: usize) -> ComponentSpec {
    ComponentSpec::new(ComponentKind::Delay, width)
}

fn delay_engine(dir: &Path, swap: bool) -> Dtas {
    let mut library = cells::CellLibrary::new("delay-only");
    library.insert(cells::Cell::new(
        "DEL4",
        ComponentSpec::new(ComponentKind::Delay, 4),
        5.0,
        1.0,
    ));
    let mut rules = RuleSet::standard();
    rules.append_library_rules(vec![Box::new(SilentSwap { swap })]);
    Dtas::builder(library)
        .rules(rules)
        .config(DtasConfig {
            persist_path: Some(dir.to_path_buf()),
            ..DtasConfig::default()
        })
        .build()
}

#[test]
fn silent_rule_changes_supersede_persisted_answers() {
    // An answer decoded from the chain — or never even requested — has no
    // live node until `update_rules` expands its spec under the old rules.
    // A body-only rule change that reaches just such an answer must be
    // seen by the diff and retire the stored chain.
    let dir = cache_dir("silent_rules");
    let stale = {
        let seed = delay_engine(&dir, false);
        assert!(seed.run(mux_spec(4, 2)).is_err(), "a delay-only library");
        seed.run(delay_spec(4)).expect("solves")
    };
    let mut engine = delay_engine(&dir, false);
    assert_eq!(engine.cache_stats().lazy_results, 2);
    let report = engine.update_rules({
        let mut rules = RuleSet::standard();
        rules.append_library_rules(vec![Box::new(SilentSwap { swap: true })]);
        rules
    });
    assert_eq!(
        report.reasons,
        [
            InvalidationReason::RulesChanged { dirty_nodes: 1 },
            InvalidationReason::StoreSuperseded
        ],
        "{report}"
    );
    assert_eq!(report.dropped.results, 1, "{report}");
    assert_eq!(report.retained.results, 1, "{report}");
    assert!(base_files(&dir).is_empty(), "the stale chain is gone");
    drop(engine);

    let fresh_dir = cache_dir("silent_rules_fresh");
    let fresh = delay_engine(&fresh_dir, true);
    let reference = fresh.run(delay_spec(4)).expect("solves");
    assert_ne!(
        reference.unconstrained_size, stale.unconstrained_size,
        "the new body must change the answer"
    );
    let warm = delay_engine(&dir, true);
    assert_sets_identical(&reference, &warm.run(delay_spec(4)).expect("answers"));
    drop(fresh);
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// Every cache file in `dir` with its bytes, sorted by name.
fn chain_files(dir: &PathBuf) -> Vec<(PathBuf, Vec<u8>)> {
    base_files(dir)
        .into_iter()
        .chain(delta_files(dir))
        .map(|path| {
            let bytes = std::fs::read(&path).expect("reads");
            (path, bytes)
        })
        .collect()
}

#[test]
fn same_rules_update_keeps_the_chain() {
    // `update_rules` expands every persisted answer's spec under the old
    // rules before its template diff, so an unchanged rule base proves
    // the whole chain clean: every answer stays, bit-identical, and the
    // chain files are left as they are.
    let dir = cache_dir("same_rules");
    let specs = [add_spec(8), add_spec(16), mux_spec(8, 4)];
    let reference: Vec<Arc<DesignSet>> = {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        let mut sets = vec![seed.run(&specs[0]).expect("solves")];
        sets.push(seed.run(&specs[1]).expect("solves"));
        full_report(seed.checkpoint().expect("writes"));
        sets.push(seed.run(&specs[2]).expect("solves"));
        delta_report(seed.checkpoint().expect("writes"));
        sets
    };
    let before = chain_files(&dir);
    let mut engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    // One answer decoded, two still pending on the chain.
    assert_sets_identical(&reference[0], &engine.run(&specs[0]).expect("hit"));
    let report = engine.update_rules(dtas::lola::with_derived_rules(
        RuleSet::standard(),
        &lsi_logic_subset(),
    ));
    assert_eq!(report.dropped, InvalidationCounts::default(), "{report}");
    assert_eq!(report.retained.results, specs.len(), "{report}");
    assert!(
        !report
            .reasons
            .contains(&InvalidationReason::StoreSuperseded),
        "{report}"
    );
    for (spec, set) in specs.iter().zip(&reference) {
        assert_sets_identical(set, &engine.run(spec).expect("kept"));
    }
    assert_eq!(engine.cache_stats().misses, 0);
    drop(engine);
    assert_eq!(chain_files(&dir), before, "the chain files are untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_misses_share_the_live_space() {
    // Misses on a warm-started engine run the one cold pipeline on its
    // live space, so two misses with shared sub-specs expand them once.
    let dir = cache_dir("warm_misses");
    {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        seed.run(add_spec(8)).expect("solves");
    }
    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    let misses = [add_spec(12), add_spec(24)];
    let answers: Vec<Arc<DesignSet>> = misses
        .iter()
        .map(|spec| warm.run(spec).expect("solves"))
        .collect();
    for (spec, answer) in misses.iter().zip(&answers) {
        let fresh = Dtas::new(lsi_logic_subset())
            .run(spec)
            .expect("reference solves");
        assert_sets_identical(&fresh, answer);
    }
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 2, "{stats}");
    let largest = answers.iter().map(|a| a.stats.spec_nodes).max();
    let summed: usize = answers.iter().map(|a| a.stats.spec_nodes).sum();
    assert!(
        Some(stats.spec_nodes) >= largest && stats.spec_nodes < summed,
        "{} live nodes for answers of {largest:?} (largest) and {summed} (summed) nodes",
        stats.spec_nodes
    );
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_format_chains_reject_with_a_typed_error() {
    // Format 4, and format 6: the last one whose templates were stored
    // with a string per name, before they were index-addressed.
    for found in [4u32, 6] {
        let dir = cache_dir(&format!("old_format_{found}"));
        let path = persisted_snapshot(&dir);
        let mut bytes = std::fs::read(&path).expect("reads");
        bytes[8..12].copy_from_slice(&found.to_le_bytes());
        std::fs::write(&path, &bytes).expect("writes");
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        assert_eq!(
            engine.last_snapshot_rejection(),
            Some(Rejection::FormatVersion {
                found,
                supported: dtas::FORMAT_VERSION
            })
        );
        engine.run(add_spec(16)).expect("solves cold");
        assert_eq!(engine.cache_stats().misses, 1, "v{found}");
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn future_format_version_falls_back_cold() {
    let dir = cache_dir("version");
    assert_falls_back_cold(&dir, |path| {
        let mut bytes = std::fs::read(path).expect("reads");
        // The u32 format version sits right after the 8-byte magic. The
        // version check fires before any checksum, so a bump alone —
        // with everything else intact — must reject.
        let bumped = (dtas::FORMAT_VERSION + 1).to_le_bytes();
        bytes[8..12].copy_from_slice(&bumped);
        std::fs::write(path, &bytes).expect("writes");
    });
}

#[test]
fn random_garbage_falls_back_cold() {
    let dir = cache_dir("garbage");
    assert_falls_back_cold(&dir, |path| {
        // Deterministic pseudo-random bytes, sized like a real snapshot.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let bytes: Vec<u8> = (0..4096)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        std::fs::write(path, &bytes).expect("writes");
    });
}

/// Builds a base + one delta chain in `dir` and returns the reference
/// result sets for `[add8, add16]`.
fn base_plus_delta(dir: &PathBuf) -> Vec<Arc<DesignSet>> {
    let engine = Dtas::warm_start(lsi_logic_subset(), dir);
    let mut reference = vec![engine.run(add_spec(8)).expect("solves")];
    full_report(engine.checkpoint().expect("writes"));
    reference.push(engine.run(add_spec(16)).expect("solves"));
    delta_report(engine.checkpoint().expect("writes"));
    drop(engine);
    assert_eq!(delta_files(dir).len(), 1);
    reference
}

#[test]
fn damaged_delta_rejects_the_chain_and_solves_cold() {
    // A delta is eagerly verified at open (unlike the lazily-verified
    // base): truncation or a bit flip anywhere rejects the whole chain
    // at load, before anything could be served from it.
    for mode in ["truncate", "bitflip"] {
        let dir = cache_dir(&format!("baddelta_{mode}"));
        let reference = base_plus_delta(&dir);
        let delta_path = delta_files(&dir).pop().expect("delta present");
        let mut bytes = std::fs::read(&delta_path).expect("reads");
        match mode {
            "truncate" => bytes.truncate(bytes.len() / 2),
            _ => {
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0x5a;
            }
        }
        std::fs::write(&delta_path, &bytes).expect("writes");

        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        let stats = engine.cache_stats();
        assert_eq!(stats.snapshot_loads, 0, "{mode}: chain must not load");
        assert_eq!(stats.snapshot_rejects, 1, "{mode}");
        for (spec, cold_set) in [add_spec(8), add_spec(16)].iter().zip(&reference) {
            let recovered = engine.run(spec).expect("cold fallback");
            assert_sets_identical(cold_set, &recovered);
        }
        drop(engine);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn missing_delta_suffix_is_a_valid_prefix() {
    // A crash can lose the newest delta entirely; the surviving prefix
    // (here: just the base) is a smaller-but-valid chain, not damage.
    let dir = cache_dir("gap");
    let reference = base_plus_delta(&dir);
    let delta_path = delta_files(&dir).pop().expect("delta present");
    std::fs::remove_file(&delta_path).expect("removes");

    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let stats = engine.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (1, 0));
    assert_eq!(stats.lazy_results, 1, "only the base's result survives");
    let warm = engine.run(add_spec(8)).expect("warm");
    assert_sets_identical(&reference[0], &warm);
    let resolved = engine.run(add_spec(16)).expect("re-solves");
    assert_sets_identical(&reference[1], &resolved);
    assert_eq!(engine.cache_stats().misses, 1);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_leftovers_are_swept_and_ignored() {
    let dir = cache_dir("leftovers");
    let base = persisted_snapshot(&dir);

    // A crash mid-save leaves a temporary: stale ones are swept at store
    // construction, fresh ones (a live writer's) are left alone; neither
    // disturbs the load.
    let stale_tmp = dir.join(".dtas-crashed.base.tmp-999-0");
    std::fs::write(&stale_tmp, b"half a segment").expect("writes");
    let epoch = std::fs::File::options()
        .write(true)
        .open(&stale_tmp)
        .expect("opens");
    epoch
        .set_modified(std::time::SystemTime::UNIX_EPOCH)
        .expect("backdates");
    drop(epoch);
    let fresh_tmp = dir.join(".dtas-inflight.base.tmp-999-1");
    std::fs::write(&fresh_tmp, b"half a segment").expect("writes");

    // A crash between publish and prune leaves a superseded generation
    // behind; loads pick the newest base and ignore it.
    let old_gen = dir.join(
        base.file_name()
            .and_then(|n| n.to_str())
            .expect("name")
            .replace("-g00000001.base", "-g00000000.base"),
    );
    assert_ne!(old_gen, base);
    std::fs::copy(&base, &old_gen).expect("copies");

    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let stats = engine.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (1, 0));
    assert!(!stale_tmp.exists(), "stale tmp swept at construction");
    assert!(fresh_tmp.exists(), "fresh tmp left for its writer");
    engine.run(add_spec(16)).expect("warm");
    assert_eq!(engine.cache_stats().misses, 0);

    // The GC plan picks up exactly the leftovers a load ignores.
    let store = dtas::PersistentStore::new(&dir);
    let plan = store.plan_gc(None).expect("plans");
    let mut reasons: Vec<String> = plan.items.iter().map(|i| i.reason.to_string()).collect();
    reasons.sort();
    assert_eq!(reasons, ["stale-generation"], "{plan:?}");
    store.apply_gc(&plan).expect("applies");
    assert!(!old_gen.exists());

    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mismatched_fingerprints_reject_a_renamed_snapshot() {
    let dir = cache_dir("fingerprints");
    let source = persisted_snapshot(&dir);
    let reconfig = || DtasConfig {
        node_cap: 8,
        persist_path: Some(dir.clone()),
        ..DtasConfig::default()
    };

    // A different result-shaping config looks for different file names:
    // the chain is simply missing (cold start, no rejection).
    let reconfigured = Dtas::builder(lsi_logic_subset()).config(reconfig()).build();
    let stats = reconfigured.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (0, 0));
    reconfigured.run(add_spec(16)).expect("solves");
    reconfigured.checkpoint().expect("writes").expect("bound");
    let target = base_files(&dir)
        .into_iter()
        .find(|p| *p != source)
        .expect("second base");
    drop(reconfigured);

    // Force the mismatch past the file name (as if someone copied
    // snapshots between cache directories): the header fingerprint check
    // must reject the foreign bytes.
    std::fs::copy(&source, &target).expect("copies");
    let reconfigured = Dtas::builder(lsi_logic_subset()).config(reconfig()).build();
    let stats = reconfigured.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (0, 1));
    drop(reconfigured);
    std::fs::remove_file(&target).expect("removes");

    // Same story for a different rule base.
    let regressed = warm_start_standard_rules(&dir);
    regressed.run(add_spec(16)).expect("solves");
    regressed.checkpoint().expect("writes").expect("bound");
    let target = base_files(&dir)
        .into_iter()
        .find(|p| *p != source)
        .expect("second base");
    drop(regressed);
    std::fs::copy(&source, &target).expect("copies");
    let regressed = warm_start_standard_rules(&dir);
    let stats = regressed.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (0, 1));
    drop(regressed);
    std::fs::remove_file(&target).expect("removes");

    // And for a different library.
    let poorer = lsi_logic_subset().subset(&["IVA", "ND2", "FA1A", "ADD2", "ADD4"]);
    let shrunk = Dtas::warm_start(poorer.clone(), &dir);
    shrunk.run(add_spec(4)).expect("solves");
    shrunk.checkpoint().expect("writes").expect("bound");
    let target = base_files(&dir)
        .into_iter()
        .find(|p| *p != source)
        .expect("second base");
    drop(shrunk);
    std::fs::copy(&source, &target).expect("copies");
    let shrunk = Dtas::warm_start(poorer, &dir);
    let stats = shrunk.cache_stats();
    assert_eq!((stats.snapshot_loads, stats.snapshot_rejects), (0, 1));
    drop(shrunk);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_only_flushes_when_dirty_since_last_checkpoint() {
    let dir = cache_dir("dirty");
    {
        // Checkpointed and untouched since: drop must not rewrite.
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        engine.run(add_spec(8)).expect("solves");
        engine.checkpoint().expect("writes").expect("bound");
        let path = base_files(&dir).pop().expect("base present");
        std::fs::remove_file(&path).expect("removes");
        drop(engine);
        assert!(!path.exists(), "clean engine must not flush on drop");
        assert!(delta_files(&dir).is_empty());
    }
    let _ = std::fs::remove_dir_all(&dir);
    {
        // New solves after the checkpoint: drop must flush them — as a
        // delta appended to the chain it already wrote.
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        engine.run(add_spec(8)).expect("solves");
        engine.checkpoint().expect("writes").expect("bound");
        engine.run(add_spec(16)).expect("solves more");
        drop(engine);
        assert_eq!(delta_files(&dir).len(), 1, "dirty engine flushed a delta");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drop_persists_answers_an_update_kept_before_any_solve() {
    // `update_rules` on an engine that has solved nothing since its load
    // keeps some answers under the new rules' key. Dropping the engine
    // without a checkpoint must still write them there.
    let dir = cache_dir("update_then_drop");
    let specs = [add_spec(4), add_spec(16)];
    {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        for spec in &specs {
            seed.run(spec).expect("solves");
        }
    }
    let mut engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    assert_eq!(engine.cache_stats().snapshot_loads, 1);
    let report = engine.update_rules(RuleSet::standard());
    assert_eq!(report.dropped.results, 1, "{report}");
    assert_eq!(report.retained.results, 1, "{report}");
    drop(engine);

    let reloaded = warm_start_standard_rules(&dir);
    let stats = reloaded.cache_stats();
    assert_eq!(
        (stats.snapshot_loads, stats.lazy_results),
        (1, 1),
        "{stats}"
    );
    let cold = Dtas::builder(lsi_logic_subset())
        .rules(RuleSet::standard())
        .build();
    for spec in &specs {
        let reference = cold.run(spec).expect("solves");
        assert_sets_identical(&reference, &reloaded.run(spec).expect("answers"));
    }
    let stats = reloaded.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "{stats}");
    drop(reloaded);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn update_to_a_new_key_that_drops_nothing_persists_the_kept_answers() {
    // An engine checkpoints under the standard rules, then adds the rules
    // LOLA derives: nothing it holds is dirty, but the rule-set key
    // changes. The checkpoint must write the kept answer under the new
    // key, where a default engine finds it.
    let dir = cache_dir("new_key_drops_nothing");
    let mux = mux_spec(4, 2);
    let mut engine = warm_start_standard_rules(&dir);
    engine.run(&mux).expect("solves");
    full_report(engine.checkpoint().expect("writes"));
    let old_key = engine.store_key();
    let report = engine.update_rules(dtas::lola::with_derived_rules(
        RuleSet::standard(),
        &lsi_logic_subset(),
    ));
    assert_eq!(
        report.reasons,
        [InvalidationReason::RulesChanged { dirty_nodes: 0 }],
        "{report}"
    );
    assert_eq!(report.dropped, InvalidationCounts::default(), "{report}");
    assert_eq!(report.retained.results, 1, "{report}");
    assert_ne!(engine.store_key(), old_key, "the rule-set key changes");
    let saved = full_report(engine.checkpoint().expect("writes"));
    assert_eq!(saved.results, 1);
    drop(engine);

    let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
    let stats = warm.cache_stats();
    assert_eq!(
        (stats.snapshot_loads, stats.lazy_results),
        (1, 1),
        "{stats}"
    );
    let cold = Dtas::new(lsi_logic_subset()).run(&mux).expect("solves");
    assert_sets_identical(&cold, &warm.run(&mux).expect("answers"));
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats}");
    drop(warm);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rebinding_persist_path_writes_held_answers_to_the_new_dir() {
    // An engine that flushed ADD8 to one directory is rebound to another:
    // the next checkpoint must write what it holds to the new directory.
    let (old_dir, new_dir) = (cache_dir("rebind_old"), cache_dir("rebind_new"));
    let mut engine = Dtas::warm_start(lsi_logic_subset(), &old_dir);
    engine.run(add_spec(8)).expect("solves");
    full_report(engine.checkpoint().expect("writes"));
    let report = engine.update_config(DtasConfig {
        persist_path: Some(new_dir.clone()),
        ..DtasConfig::default()
    });
    assert_eq!(
        report.reasons,
        [InvalidationReason::StoreRebound],
        "{report}"
    );
    let saved = full_report(engine.checkpoint().expect("writes"));
    assert_eq!(saved.results, 1);
    assert_eq!(base_files(&new_dir).len(), 1, "a base in the new dir");
    drop(engine);

    let warm = Dtas::warm_start(lsi_logic_subset(), &new_dir);
    assert_eq!(warm.cache_stats().snapshot_loads, 1);
    let cold = Dtas::new(lsi_logic_subset())
        .run(add_spec(8))
        .expect("solves");
    assert_sets_identical(&cold, &warm.run(add_spec(8)).expect("answers"));
    let stats = warm.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0), "{stats}");
    drop(warm);
    let _ = std::fs::remove_dir_all(&old_dir);
    let _ = std::fs::remove_dir_all(&new_dir);
}

#[test]
fn rejection_reason_is_reportable() {
    let dir = cache_dir("reason");
    let path = persisted_snapshot(&dir);
    let bytes = std::fs::read(&path).expect("reads");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncates");
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let reason = engine
        .last_snapshot_rejection()
        .expect("rejection recorded");
    let text = reason.to_string();
    assert!(matches!(reason, Rejection::Damaged(_)), "{text}");
    assert!(
        text.contains("checksum") || text.contains("truncated"),
        "{text}"
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_engine_keeps_growing_and_recheckpoints() {
    // Load a chain, solve something new, flush again, and reload: the
    // chain carries both generations of results.
    let dir = cache_dir("growing");
    let cold8 = {
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        engine.run(add_spec(8)).expect("solves")
    };
    assert_eq!(base_files(&dir).len(), 1);
    let cold16 = {
        let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
        assert_eq!(engine.cache_stats().snapshot_loads, 1);
        // Drop flushes the new state as a delta on the loaded chain.
        engine.run(add_spec(16)).expect("solves")
    };
    assert_eq!(base_files(&dir).len(), 1);
    assert_eq!(delta_files(&dir).len(), 1);
    let engine = Dtas::warm_start(lsi_logic_subset(), &dir);
    let stats = engine.cache_stats();
    assert_eq!(stats.lazy_results, 2);
    assert_sets_identical(&cold8, &engine.run(add_spec(8)).expect("hit"));
    assert_sets_identical(&cold16, &engine.run(add_spec(16)).expect("hit"));
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (2, 0));
    assert_eq!(stats.lazy_materialized, 2);
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn reader_survives_writer_compaction_under_its_feet() {
    // The shared-cache-dir contract: a reader holding the (mapped) old
    // generation keeps answering consistently while a writer compacts
    // the chain and unlinks the files the reader is standing on.
    let dir = cache_dir("mapped_compaction");
    let reference = {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        let set = seed.run(add_spec(16)).expect("solves");
        seed.run(add_spec(8)).expect("solves");
        set
    };

    let reader = Dtas::warm_start(lsi_logic_subset(), &dir);
    #[cfg(all(unix, target_pointer_width = "64"))]
    assert!(reader.warm_base_mapped());
    let old_base = base_files(&dir).pop().expect("base present");

    {
        // ADD24's delta outgrows half the base of ADD16 and ADD8, so the
        // next dirty checkpoint compacts.
        let writer = Dtas::warm_start(lsi_logic_subset(), &dir);
        writer.run(add_spec(24)).expect("solves");
        delta_report(writer.checkpoint().expect("writes"));
        writer.run(add_spec(4)).expect("solves");
        full_report(writer.checkpoint().expect("writes"));
    }
    assert!(
        !old_base.exists(),
        "compaction replaced the reader's generation"
    );

    // The reader's chain was unlinked, not truncated: its view is fully
    // intact and still serves bit-identical results.
    let warm = reader.run(add_spec(16)).expect("still answers");
    assert_sets_identical(&reference, &warm);
    let stats = reader.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 0));
    drop(reader);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_checkpoints_and_loads_are_never_torn() {
    // Two engines on one cache directory — a writer churning delta
    // checkpoints and compactions while readers keep (re)loading. A
    // reader may catch the directory mid-change and fall back cold, but
    // it must never panic and never answer anything but the bit-exact
    // result.
    let dir = cache_dir("concurrent");
    {
        let seed = Dtas::warm_start(lsi_logic_subset(), &dir);
        seed.run(add_spec(16)).expect("solves");
    }
    let reference = Dtas::new(lsi_logic_subset())
        .run(add_spec(16))
        .expect("reference solves");

    std::thread::scope(|scope| {
        let dir_w = dir.clone();
        scope.spawn(move || {
            // Each wide answer's delta outgrows half the base, so the
            // checkpoints alternate delta, compaction, delta, compaction.
            let writer = Dtas::warm_start(lsi_logic_subset(), dir_w);
            for width in [24usize, 4, 32, 8] {
                writer.run(add_spec(width)).expect("writer solves");
                writer.checkpoint().expect("writer flushes");
            }
        });
        let dir_r = dir.clone();
        let reference = &reference;
        scope.spawn(move || {
            for _ in 0..6 {
                let reader = Dtas::warm_start(lsi_logic_subset(), &dir_r);
                let set = reader.run(add_spec(16)).expect("reader answers");
                assert_sets_identical(reference, &set);
            }
        });
    });
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For arbitrary small workloads, a warm-started engine's results are
    /// bit-identical to the cold engine's, query by query.
    #[test]
    fn warm_results_pin_cold_results(
        widths in proptest::collection::vec(1usize..10, 1..4),
        muxes in proptest::collection::vec((1usize..6, 2usize..5), 0..3),
        case in 0u32..1_000_000,
    ) {
        let dir = cache_dir(&format!("prop{case}"));
        let mut specs: Vec<ComponentSpec> = widths.iter().map(|&w| add_spec(w)).collect();
        specs.extend(muxes.iter().map(|&(w, n)| mux_spec(w, n)));

        let cold = Dtas::warm_start(lsi_logic_subset(), &dir);
        let cold_sets: Vec<Arc<DesignSet>> = specs
            .iter()
            .map(|s| cold.run(s).expect("cold solves"))
            .collect();
        cold.checkpoint().expect("writes").expect("bound");
        drop(cold);

        let warm = Dtas::warm_start(lsi_logic_subset(), &dir);
        prop_assert_eq!(warm.cache_stats().snapshot_loads, 1);
        for (spec, cold_set) in specs.iter().zip(&cold_sets) {
            let warm_set = warm.run(spec).expect("warm solves");
            assert_sets_identical(cold_set, &warm_set);
        }
        prop_assert_eq!(warm.cache_stats().misses, 0);
        drop(warm);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
