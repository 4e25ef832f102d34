//! The DTAS synthesis engine.

use crate::canon::{self, Canonicalizer};
use crate::config::DtasConfig;
use crate::extract;
use crate::lola::with_derived_rules;
use crate::report::{Alternative, DesignSet, SynthStats};
use crate::request::SynthRequest;
use crate::rules::RuleSet;
use crate::space::{
    DesignPoint, ExpandError, FilterPolicy, FrontStore, SolveConfig, Solver, SpecId,
};
use crate::store::mem::{MemStore, MemoEntry, SharedState, Source, SynthResult};
use crate::store::segment::WarmSource;
use crate::store::{LoadOutcome, PersistentStore, Rejection, SaveReport, StoreError, StoreKey};
use crate::template::NetlistTemplate;
use cells::CellLibrary;
use genus::netlist::Netlist;
use genus::spec::ComponentSpec;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Counters for the engine-level cross-query cache and its warm-start
/// store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Queries (a [`run`](Dtas::run) or one distinct requested spec of a
    /// [`run_batch`](Dtas::run_batch)) answered entirely from the answer
    /// table (including callers that blocked on another client's in-flight
    /// solve of the same spec and were served its result).
    pub hits: u64,
    /// Queries that had to solve (possibly reusing sub-spec fronts from
    /// earlier queries). An override request always solves its own root.
    pub misses: u64,
    /// Specs' own `Ok` answers currently held (aliases of them, and
    /// persisted answers not decoded yet, are not counted).
    pub cached_results: usize,
    /// Specification nodes whose fronts are currently solved and reusable.
    /// Only this engine's own solves count: a warm hit decodes its answer,
    /// never a front.
    pub cached_fronts: usize,
    /// Specification nodes in the engine's live design space. A warm hit
    /// adds none; a warm miss grows the space like any cold solve.
    pub spec_nodes: usize,
    /// Number of result-memo shards (fixed per engine).
    pub result_shards: usize,
    /// Memo lookups that found their shard lock momentarily held
    /// exclusively (an insert in flight) and had to wait for it.
    pub shard_contention: u64,
    /// Exclusive acquisitions of the shared design space: cold-query
    /// expansions, front write-backs and cache clears. Hit-path queries
    /// never take one — tests assert this stays flat while hot clients
    /// hammer the engine.
    pub state_exclusive: u64,
    /// Times a poisoned lock (a client panicked mid-update) was detected;
    /// the affected state was dropped and rebuilt (see [`Dtas`]).
    pub poison_recoveries: u64,
    /// Snapshots successfully loaded from the bound [`PersistentStore`]
    /// (0 or 1 per engine lifetime: warm start happens at construction).
    pub snapshot_loads: u64,
    /// Snapshots found but rejected (truncated, corrupt, different format
    /// version, or mismatched library/rule-set/config fingerprints); each
    /// rejection fell back to a clean cold start.
    pub snapshot_rejects: u64,
    /// Memoized results written by the most recent
    /// [`checkpoint`](Dtas::checkpoint) (explicit or on drop).
    pub persisted_results: u64,
    /// Encoded size in bytes of the most recent segment moved in either
    /// direction (whole chain on load, the written segment on save).
    pub snapshot_bytes: u64,
    /// Checkpoint calls that wrote nothing because the chain already held
    /// every answer (the background checkpoint thread ticks on a timer;
    /// an idle service stops paying encode + write).
    pub checkpoints_skipped: u64,
    /// Checkpoints that appended an O(dirty) delta segment instead of
    /// rewriting the whole chain.
    pub delta_checkpoints: u64,
    /// Full saves that folded the chain's base and deltas into a fresh
    /// base, because the deltas had outgrown half the base. A full save
    /// with no chain under the engine's key (the first flush, or one
    /// after a key change, rebind or supersede) is not counted.
    pub compactions: u64,
    /// Persisted results indexed by the warm-start chain but not yet
    /// decoded — the lazy read path's backlog. Drains toward zero as
    /// queries (or [`Dtas::prefault`]) materialize them.
    pub lazy_results: usize,
    /// Persisted results decoded on first request (each also counts as a
    /// [`hit`](CacheStats::hits)).
    pub lazy_materialized: u64,
    /// Queries whose canonicalized spec differed from the raw request —
    /// each was answered through an alias of the canonical spec's entry
    /// instead of solving its own.
    pub canonical_hits: u64,
    /// Distinct raw specs mapped onto a *different* canonical spec (an
    /// alias each) since the rule base last changed or the cache was
    /// cleared.
    pub specs_collapsed: u64,
    /// Solved fronts retained (not invalidated) by the most recent
    /// [`update_rules`](Dtas::update_rules) /
    /// [`update_config`](Dtas::update_config) delta invalidation.
    pub fronts_retained_on_update: u64,
}

impl fmt::Display for CacheStats {
    /// Three stable `key=value` lines (`cache: …`, `store: …` and
    /// `incremental: …`) shared by `dtas map --stats`, `dtas bench-load`
    /// and the CI warm-start smoke — scripts grep
    /// `hits=`/`misses=`/`snapshot_loads=`/`canonical_hits=`, so the keys
    /// and their order are load-bearing.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: hits={} misses={} results={} fronts={} nodes={} shards={}\n\
             store: snapshot_loads={} snapshot_rejects={} persisted_results={} snapshot_bytes={} \
             checkpoints_skipped={} delta_checkpoints={} compactions={} lazy_results={} \
             lazy_materialized={}\n\
             incremental: canonical_hits={} specs_collapsed={} fronts_retained_on_update={}",
            self.hits,
            self.misses,
            self.cached_results,
            self.cached_fronts,
            self.spec_nodes,
            self.result_shards,
            self.snapshot_loads,
            self.snapshot_rejects,
            self.persisted_results,
            self.snapshot_bytes,
            self.checkpoints_skipped,
            self.delta_checkpoints,
            self.compactions,
            self.lazy_results,
            self.lazy_materialized,
            self.canonical_hits,
            self.specs_collapsed,
            self.fronts_retained_on_update,
        )
    }
}

/// What one [`Dtas::checkpoint`] call did (`Ok(None)` from `checkpoint`
/// still means "no store bound").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// The chain under the engine's key already held every answer; no
    /// bytes were written.
    Skipped,
    /// An O(dirty) delta segment of the missing answers was appended to
    /// the chain.
    Delta(SaveReport),
    /// A full base segment was written: the first flush under the
    /// engine's key (also after a key change, rebind or supersede), or a
    /// compaction.
    Full(SaveReport),
}

impl CheckpointOutcome {
    /// The save report, when bytes were actually written.
    pub fn report(&self) -> Option<SaveReport> {
        match self {
            CheckpointOutcome::Skipped => None,
            CheckpointOutcome::Delta(report) | CheckpointOutcome::Full(report) => Some(*report),
        }
    }
}

/// Errors produced by [`Dtas::run`] and [`Dtas::run_batch`].
#[derive(Clone, Debug, PartialEq)]
pub enum SynthError {
    /// Design-space expansion failed (a rule or spec defect).
    Expand(String),
    /// No combination of rules and cells implements the specification.
    NoImplementation(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Expand(m) => write!(f, "design-space expansion failed: {m}"),
            SynthError::NoImplementation(s) => {
                write!(f, "no implementation exists for {s}")
            }
        }
    }
}

impl std::error::Error for SynthError {}

/// How much cached state one [`Dtas::update_rules`] /
/// [`Dtas::update_config`] call touched, split one way or the other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Design-space spec nodes.
    pub nodes: usize,
    /// Solved per-node fronts.
    pub fronts: usize,
    /// Memoized whole-query results (successes and failures).
    pub results: usize,
}

impl fmt::Display for InvalidationCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "nodes={} fronts={} results={}",
            self.nodes, self.fronts, self.results
        )
    }
}

/// Why an update dropped (or superseded) cached state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalidationReason {
    /// The rule base changed; `dirty_nodes` spec nodes were reachable
    /// from a changed expansion (a node whose one-level template list
    /// differs, or an ancestor of one) and were dropped with their fronts
    /// and results. A memoized answer with no live node — one decoded
    /// from the warm-start chain — is first expanded under the old rules,
    /// so the diff covers it too.
    RulesChanged {
        /// Nodes the change could reach.
        dirty_nodes: usize,
    },
    /// Node-front shaping changed ([`DtasConfig::node_filter`],
    /// [`DtasConfig::node_cap`] or [`DtasConfig::max_combinations`]):
    /// every front and result was dropped, the expanded space retained.
    NodeShapingChanged,
    /// Root-front shaping changed ([`DtasConfig::root_filter`] or
    /// [`DtasConfig::root_cap`]): results were dropped, node fronts
    /// retained.
    RootShapingChanged,
    /// [`DtasConfig::uniform_count_limit`] changed: results carry the
    /// uniform-size accounting, so they were dropped; fronts retained.
    UniformAccountingChanged,
    /// [`DtasConfig::persist_path`] changed; the engine was rebound to
    /// the store on the new directory.
    StoreRebound,
    /// The bound store was asked to drop the chain stored under the
    /// engine's key (a rule change invisible to the name-level rule
    /// fingerprint would otherwise be shadowed by the stale chain).
    StoreSuperseded,
}

impl fmt::Display for InvalidationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidationReason::RulesChanged { dirty_nodes } => {
                write!(f, "rules-changed({dirty_nodes} dirty nodes)")
            }
            InvalidationReason::NodeShapingChanged => f.write_str("node-shaping-changed"),
            InvalidationReason::RootShapingChanged => f.write_str("root-shaping-changed"),
            InvalidationReason::UniformAccountingChanged => {
                f.write_str("uniform-accounting-changed")
            }
            InvalidationReason::StoreRebound => f.write_str("store-rebound"),
            InvalidationReason::StoreSuperseded => f.write_str("store-superseded"),
        }
    }
}

/// What [`Dtas::update_rules`] / [`Dtas::update_config`] did to the
/// cached state: how much was dropped, how much stayed warm, and why.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InvalidationReport {
    /// State invalidated by the change.
    pub dropped: InvalidationCounts,
    /// State that stayed warm across the change.
    pub retained: InvalidationCounts,
    /// Why, one entry per action taken (empty when the change touched
    /// nothing cached — a thread-count tweak, say).
    pub reasons: Vec<InvalidationReason>,
}

impl fmt::Display for InvalidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dropped {} · retained {}", self.dropped, self.retained)?;
        if !self.reasons.is_empty() {
            f.write_str(" · ")?;
            for (i, reason) in self.reasons.iter().enumerate() {
                if i > 0 {
                    f.write_str(", ")?;
                }
                write!(f, "{reason}")?;
            }
        }
        Ok(())
    }
}

/// Answers a batch solved in one pass, consumed by the entries they fill.
type Presolved = HashMap<ComponentSpec, SynthResult>;

/// Per-spec expansion outcome of one cold pass: slots already resolved
/// (expansion errors), roots to solve together, and taint-affected
/// indices that fall back to a private solve.
struct BatchPlan {
    results: Vec<Option<SynthResult>>,
    roots: Vec<(usize, usize)>,
    tainted: Vec<usize>,
}

/// Warm-start bookkeeping, reported through [`CacheStats`].
#[derive(Default)]
struct StoreMetrics {
    loads: AtomicU64,
    rejects: AtomicU64,
    persisted: AtomicU64,
    bytes: AtomicU64,
    skipped: AtomicU64,
    delta_saves: AtomicU64,
    compactions: AtomicU64,
    lazy_materialized: AtomicU64,
    /// Fronts kept warm by the most recent `update_rules`/`update_config`.
    fronts_retained: AtomicU64,
    /// Why the last rejected snapshot was rejected (diagnostics).
    reject_reason: std::sync::Mutex<Option<Rejection>>,
}

impl StoreMetrics {
    fn reset(&self) {
        self.loads.store(0, Ordering::Relaxed);
        self.rejects.store(0, Ordering::Relaxed);
        self.persisted.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.skipped.store(0, Ordering::Relaxed);
        self.delta_saves.store(0, Ordering::Relaxed);
        self.compactions.store(0, Ordering::Relaxed);
        self.lazy_materialized.store(0, Ordering::Relaxed);
        self.fronts_retained.store(0, Ordering::Relaxed);
        *self.reject_reason.lock().expect("reject reason poisoned") = None;
    }

    fn reject(&self, reason: Rejection) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
        *self.reject_reason.lock().expect("reject reason poisoned") = Some(reason);
    }
}

/// The DTAS synthesis engine: a rule base plus a target cell library.
///
/// # Concurrency
///
/// The engine is `Sync` and built to be shared (`Arc<Dtas>` or `&Dtas`
/// across scoped threads) by many clients:
///
/// * **Hits never contend.** Answers live in one sharded table keyed by
///   the requested spec ([`CacheStats::result_shards`] shards,
///   read-mostly `RwLock` each); a repeat query — decorated or not —
///   hashes its spec once, takes one shard read lock and clones out the
///   stored [`Arc`]. No exclusive lock is taken anywhere on the hit path
///   ([`CacheStats::state_exclusive`] stays flat).
/// * **Cold queries overlap.** Every cold query — a memo miss, an
///   override request, a batch's cold specs — runs one pipeline: it
///   expands under a brief exclusive lock on the shared design space,
///   then solves against a private snapshot with no lock held, and
///   finally merges its solved fronts back. Two distinct cold specs
///   therefore solve concurrently.
/// * **Identical results.** Every front is a pure function of its
///   (append-only) subgraph, so the schedule cannot change any answer:
///   whatever the interleaving, each query returns exactly what a fresh
///   single-threaded engine would return for that spec.
///
/// # Caching
///
/// The engine memoizes aggressively across queries: repeated specs
/// return from the answer table, and shared sub-specs across *different* roots (ADD8 under both ALU64 and
/// ADD16, say) are expanded and solved once per engine lifetime. Cached
/// entries are keyed implicitly by the library's content
/// [`fingerprint`](CellLibrary::fingerprint) — verified on every call.
/// A spec first requested is canonicalized (see
/// [`canon_fingerprint`](crate::canon_fingerprint)): functionally
/// equivalent spec variants share one solve, each holding the canonical
/// answer relabelled once as an alias entry. Rule or
/// configuration changes ([`update_rules`](Self::update_rules) /
/// [`update_config`](Self::update_config)) invalidate exactly the
/// affected entries and report what they kept
/// ([`InvalidationReport`]); [`clear_cache`](Self::clear_cache) drops
/// everything.
///
/// # Warm start
///
/// With [`DtasConfig::persist_path`] set, the memoized answers also
/// survive the engine:
/// construction maps a compatible snapshot of them, and new answers are
/// flushed back by [`checkpoint`](Self::checkpoint) or on drop. A second
/// process pointed at the same directory answers a persisted query by
/// decoding that answer's own section (about a millisecond for ALU64)
/// instead of re-paying the cold solve. The design space and its fronts
/// are not persisted: a miss on a warm engine runs the one cold pipeline
/// and grows the live space, exactly as on a cold engine. Snapshot
/// compatibility is strict (codec format version + library + rule-set +
/// configuration fingerprints); anything else is rejected and the engine
/// starts cold. [`clear_cache`](Self::clear_cache) only clears the
/// in-memory state — snapshots already on disk are untouched.
///
/// # Poison recovery
///
/// If a client thread panics while holding an engine lock (a rule that
/// panics mid-expansion, say), the lock is poisoned. The engine never
/// propagates that poison: the next caller that observes it clears the
/// poison flag, **drops the possibly half-mutated cached state** (the
/// shared space and fronts, or the affected memo shard) and rebuilds from
/// empty — exactly the effect of [`clear_cache`](Self::clear_cache) on the
/// poisoned part. Subsequent queries re-solve from cold and remain
/// correct; [`CacheStats::poison_recoveries`] counts how often this
/// happened.
pub struct Dtas {
    rules: RuleSet,
    library: CellLibrary,
    config: DtasConfig,
    fingerprint: u64,
    mem: MemStore,
    store: Option<PersistentStore>,
    metrics: StoreMetrics,
    canon: Canonicalizer,
}

/// Constructs a [`Dtas`] in one shot: library (required), then optional
/// rule base and configuration. Once built, the engine
/// is immutable except through [`Dtas::update_rules`] /
/// [`Dtas::update_config`], which invalidate *only* the affected cached
/// state and say exactly what they did ([`InvalidationReport`]).
pub struct DtasBuilder {
    library: CellLibrary,
    rules: Option<RuleSet>,
    config: DtasConfig,
}

impl DtasBuilder {
    /// Replaces the default rule base: [`RuleSet::standard`] plus the
    /// rules LOLA derives for the engine's library
    /// ([`with_derived_rules`]).
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = Some(rules);
        self
    }

    /// Replaces the default configuration.
    pub fn config(mut self, config: DtasConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the engine and warm-starts it from the store on
    /// [`DtasConfig::persist_path`] (if one is set and holds a compatible
    /// chain; anything else is a plain cold start).
    pub fn build(self) -> Dtas {
        let fingerprint = self.library.fingerprint();
        let store = self.config.persist_path.as_ref().map(PersistentStore::new);
        let library = self.library;
        let dtas = Dtas {
            rules: self
                .rules
                .unwrap_or_else(|| with_derived_rules(RuleSet::standard(), &library)),
            library,
            config: self.config,
            fingerprint,
            mem: MemStore::default(),
            store,
            metrics: StoreMetrics::default(),
            canon: Canonicalizer::default(),
        };
        dtas.try_warm_load();
        dtas
    }
}

impl Dtas {
    /// Creates an engine with the standard rule base, the rules LOLA
    /// derives for `library`, and default configuration.
    pub fn new(library: CellLibrary) -> Self {
        Dtas::builder(library).build()
    }

    /// Starts building an engine: `Dtas::builder(lib).rules(…).config(…)
    /// .build()`.
    pub fn builder(library: CellLibrary) -> DtasBuilder {
        DtasBuilder {
            library,
            rules: None,
            config: DtasConfig::default(),
        }
    }

    /// Creates an engine warm-started from (and flushed back to) the
    /// snapshot directory `dir` — shorthand for setting
    /// [`DtasConfig::persist_path`] on a default configuration.
    pub fn warm_start(library: CellLibrary, dir: impl Into<std::path::PathBuf>) -> Self {
        Dtas::builder(library)
            .config(DtasConfig {
                persist_path: Some(dir.into()),
                ..DtasConfig::default()
            })
            .build()
    }

    /// Replaces the rule base **in place**, invalidating only the cached
    /// state the change can actually reach.
    ///
    /// Every answer with no live node — decoded from the warm-start chain,
    /// or still pending on it — is first expanded into the live space
    /// under the old rules. Then every live spec node's expansion is
    /// recomputed under both the old and the new rules (a template diff —
    /// rule *bodies* count, not just membership): nodes whose one-level
    /// template list changed, and every ancestor of one, are dropped with
    /// their fronts and answers; the rest of the space stays warm. Every
    /// alias goes too, since canonical forms depend on the rules. When
    /// the change is invisible to the name-level rule-set fingerprint
    /// (same rule names, different bodies) the bound store's chain is
    /// superseded, so a stale persisted base can never shadow the
    /// invalidation on the next warm start.
    ///
    /// The returned [`InvalidationReport`] says exactly what was dropped,
    /// what stayed warm, and why;
    /// [`CacheStats::fronts_retained_on_update`] mirrors the retained
    /// front count.
    pub fn update_rules(&mut self, rules: RuleSet) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        let old_key = self.store_key();
        // The diff below runs over live nodes, so it must see every answer
        // the table holds, pending persisted ones included.
        let entries = self.mem.entries();
        let (dirty_count, retained_nodes, retained_fronts, dropped_fronts, clean_specs) = {
            let mut guard = self.mem.write_state();
            let state = &mut *guard;
            // An answer from the chain has no live node: expand its spec
            // under the old rules so the diff can judge it. One
            // whose expansion fails keeps no node and is dropped below.
            for entry in &entries {
                if entry.holds_answer() && state.space.id_of(&entry.spec).is_none() {
                    let _ =
                        state
                            .space
                            .expand(&entry.spec, &self.rules, &self.library, &state.models);
                }
            }
            let n = state.space.nodes.len();
            let mut dirty = vec![false; n];
            for (id, node) in state.space.nodes.iter().enumerate() {
                // A node is dirty iff the *expansion function* changed
                // for its spec: the one-level template list under the old
                // rules differs from the list under the new rules. The
                // stored impls are deliberately not consulted — they may
                // lawfully omit cycle-dropped templates (tainted nodes),
                // but drops are a pure function of the template lists of
                // in-space specs, so identical one-level expansions over
                // the clean set reproduce the stored state exactly,
                // cycle drops and taint included.
                let old_templates: Vec<NetlistTemplate> = self
                    .rules
                    .iter()
                    .flat_map(|rule| rule.expand(&node.spec))
                    .collect();
                let new_templates: Vec<NetlistTemplate> = rules
                    .iter()
                    .flat_map(|rule| rule.expand(&node.spec))
                    .collect();
                if old_templates != new_templates {
                    dirty[id] = true;
                }
            }
            // Dirt propagates to ancestors: a front is a function of its
            // whole subgraph. Children have strictly lower ids (expansion
            // pushes children first), so one increasing pass closes the
            // set.
            for id in 0..n {
                if !dirty[id]
                    && state.space.nodes[id]
                        .children
                        .iter()
                        .flatten()
                        .any(|&child| dirty[child])
                {
                    dirty[id] = true;
                }
            }
            let dirty_count = dirty.iter().filter(|d| **d).count();
            // Compact the space: keep clean nodes, remapping child ids.
            // The clean set is downward-closed (dirt moved upward only),
            // so a clean node's children are always clean — no dangling
            // ids, and the persisted-codec invariant (one node per spec,
            // topological order) is preserved.
            let mut remap: Vec<Option<SpecId>> = vec![None; n];
            let mut new_nodes: Vec<crate::space::SpecNode> = Vec::with_capacity(n - dirty_count);
            for (id, node) in state.space.nodes.iter().enumerate() {
                if dirty[id] {
                    continue;
                }
                remap[id] = Some(new_nodes.len());
                let mut node = node.clone();
                for children in &mut node.children {
                    for child in children.iter_mut() {
                        *child = remap[*child].expect("clean set is downward-closed");
                    }
                }
                new_nodes.push(node);
            }
            // Rebuild the fronts over the surviving ids, rewriting each
            // point's policy into the new id space (policies only reach
            // the node's own — clean — subgraph).
            let mut fronts = FrontStore {
                fronts: vec![None; new_nodes.len()],
                truncated: vec![0; new_nodes.len()],
            };
            let mut retained_fronts = 0usize;
            let mut dropped_fronts = 0usize;
            for (id, front) in state.fronts.fronts.iter().enumerate() {
                let Some(front) = front else { continue };
                match remap.get(id).copied().flatten() {
                    Some(new_id) => {
                        let points: Vec<DesignPoint> = front
                            .iter()
                            .map(|p| {
                                let mut q = p.clone();
                                q.policy = p
                                    .policy
                                    .iter()
                                    .map(|(sid, choice)| {
                                        (
                                            remap[sid].expect("policy reaches only clean nodes"),
                                            choice,
                                        )
                                    })
                                    .collect();
                                q
                            })
                            .collect();
                        fronts.truncated[new_id] =
                            state.fronts.truncated.get(id).copied().unwrap_or(0);
                        fronts.fronts[new_id] = Some(Arc::new(points));
                        retained_fronts += 1;
                    }
                    None => dropped_fronts += 1,
                }
            }
            let clean_specs: HashSet<ComponentSpec> =
                new_nodes.iter().map(|node| node.spec.clone()).collect();
            let retained_nodes = new_nodes.len();
            state.space.memo = new_nodes
                .iter()
                .enumerate()
                .map(|(id, node)| (node.spec.clone(), id))
                .collect();
            // Taint survives compaction: a retained tainted node still
            // omits its cycle-dropped templates, and future queries
            // reaching it must keep falling back to a cold solve.
            state.space.tainted = state
                .space
                .tainted
                .iter()
                .filter_map(|&id| remap.get(id).copied().flatten())
                .collect();
            state.space.nodes = new_nodes;
            state.fronts = fronts;
            // Node ids moved; no snapshot taken before this point may
            // absorb fronts back (none can exist — `&mut self` — but the
            // guard is cheap insurance).
            state.generation = state.generation.wrapping_add(1);
            (
                dirty_count,
                retained_nodes,
                retained_fronts,
                dropped_fronts,
                clean_specs,
            )
        };
        // Canonical forms depend on the rules: every alias goes, and the
        // canonical counters restart.
        let (retained_results, dropped_results) = self
            .mem
            .retain_answers(|spec| clean_specs.contains(spec), false);
        self.mem.canonical_hits.store(0, Ordering::Relaxed);
        self.mem.specs_collapsed.store(0, Ordering::Relaxed);
        self.rules = rules;
        report.dropped = InvalidationCounts {
            nodes: dirty_count,
            fronts: dropped_fronts,
            results: dropped_results,
        };
        report.retained = InvalidationCounts {
            nodes: retained_nodes,
            fronts: retained_fronts,
            results: retained_results,
        };
        report.reasons.push(InvalidationReason::RulesChanged {
            dirty_nodes: dirty_count,
        });
        if let Some(store) = &self.store {
            if self.store_key() == old_key && (dirty_count > 0 || dropped_results > 0) {
                // The change is invisible to the rule-set fingerprint
                // (same rule names, different bodies): the stored chain
                // would warm-load stale answers under the new rules, so
                // drop it now. An answer whose spec no longer expands
                // has no node for the diff to clear, so dropping one
                // counts as dirt too. (Otherwise the diff just proved the
                // chain still valid — the table holds every stored
                // answer — so it is deliberately kept.)
                if store.supersede(&old_key).is_ok() {
                    report.reasons.push(InvalidationReason::StoreSuperseded);
                }
            }
        }
        self.metrics
            .fronts_retained
            .store(retained_fronts as u64, Ordering::Relaxed);
        if retained_nodes == 0 {
            // Everything went: a compatible chain may exist under the new
            // key (rules changed back, say) — try a warm start.
            self.try_warm_load();
        }
        report
    }

    /// Replaces the configuration **in place**, invalidating only the
    /// cached state the changed fields actually shape:
    ///
    /// * node-front shaping ([`DtasConfig::node_filter`] /
    ///   [`node_cap`](DtasConfig::node_cap) /
    ///   [`max_combinations`](DtasConfig::max_combinations)) drops every
    ///   front and answer but keeps the expanded space;
    /// * root shaping ([`DtasConfig::root_filter`] /
    ///   [`root_cap`](DtasConfig::root_cap)) and
    ///   [`uniform_count_limit`](DtasConfig::uniform_count_limit) drop
    ///   only the answers — node fronts stay warm;
    /// * [`persist_path`](DtasConfig::persist_path) rebinds the store;
    /// * anything else (preflight, the no-op `threads`) touches nothing
    ///   cached and returns an empty report.
    ///
    /// Every answer dropped takes its aliases' answers with it; an alias
    /// keeps only the name of its canonical spec, which depends on the
    /// rules and library alone. No store supersede is ever needed here:
    /// every invalidating field is part of
    /// [`DtasConfig::result_fingerprint`], so the store key changes with
    /// the config.
    pub fn update_config(&mut self, config: DtasConfig) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        let old = &self.config;
        let node_shaping = config.node_filter != old.node_filter
            || config.node_cap != old.node_cap
            || config.max_combinations != old.max_combinations;
        let root_shaping = config.root_filter != old.root_filter || config.root_cap != old.root_cap;
        let uniform = config.uniform_count_limit != old.uniform_count_limit;
        let storage = config.persist_path != old.persist_path;
        if node_shaping {
            // Node-front shaping reshapes every solved front; the
            // expanded space (rules + library only) stays warm.
            let (dropped_fronts, nodes) = {
                let mut state = self.mem.write_state();
                let n = state.space.nodes.len();
                let dropped = state.fronts.solved_count();
                state.fronts = FrontStore {
                    fronts: vec![None; n],
                    truncated: vec![0; n],
                };
                (dropped, n)
            };
            let (_, dropped_results) = self.mem.retain_answers(|_| false, true);
            report.dropped.fronts = dropped_fronts;
            report.dropped.results = dropped_results;
            report.retained.nodes = nodes;
            report.reasons.push(InvalidationReason::NodeShapingChanged);
            self.metrics.fronts_retained.store(0, Ordering::Relaxed);
        } else if root_shaping || uniform {
            // Only the assembled results carry root shaping / uniform
            // accounting; node fronts below the root stay warm.
            let (_, dropped_results) = self.mem.retain_answers(|_| false, true);
            let (retained_fronts, nodes) = self.mem.front_counts();
            report.dropped.results = dropped_results;
            report.retained.fronts = retained_fronts;
            report.retained.nodes = nodes;
            if root_shaping {
                report.reasons.push(InvalidationReason::RootShapingChanged);
            }
            if uniform {
                report
                    .reasons
                    .push(InvalidationReason::UniformAccountingChanged);
            }
            self.metrics
                .fronts_retained
                .store(retained_fronts as u64, Ordering::Relaxed);
        }
        self.config = config;
        if storage {
            self.rebind_store();
            report.reasons.push(InvalidationReason::StoreRebound);
        }
        if storage && self.mem.front_counts().1 == 0 {
            // Nothing live to protect: warm-load from the new directory.
            self.try_warm_load();
        }
        report
    }

    /// Rebinds the store from [`DtasConfig::persist_path`].
    fn rebind_store(&mut self) {
        self.store = self.config.persist_path.as_ref().map(PersistentStore::new);
    }

    /// The compatibility key this engine's snapshots are stored under.
    pub fn store_key(&self) -> StoreKey {
        StoreKey {
            format_version: crate::store::FORMAT_VERSION,
            library: self.fingerprint,
            rules: self.rules.fingerprint(),
            config: self.config.result_fingerprint(),
            canon: canon::canon_fingerprint(),
        }
    }

    /// Attempts a warm start from the bound store. A missing snapshot is
    /// a plain cold start; a rejected one (see
    /// [`CacheStats::snapshot_rejects`]) is logged in the counters and
    /// also falls back cold.
    fn try_warm_load(&self) {
        let Some(store) = &self.store else {
            return;
        };
        match store.load(&self.store_key()) {
            LoadOutcome::Loaded { source, bytes } => {
                // O(index) work so far: headers validated, nothing
                // decoded. Each answer decodes on its first query.
                self.metrics.loads.fetch_add(1, Ordering::Relaxed);
                self.metrics.bytes.store(bytes, Ordering::Relaxed);
                let sections = Arc::<WarmSource>::from(source).sections();
                for (spec, section) in sections {
                    // A live answer for the spec, if any, stands.
                    let _ = self.mem.probe(&spec, || Source::Persisted(section));
                }
            }
            LoadOutcome::Missing => {}
            LoadOutcome::Rejected { reason } => self.metrics.reject(reason),
        }
    }

    /// True while the warm-start chain's base segment is being served
    /// from a shared read-only memory mapping (64-bit unix with an
    /// on-disk store) — N processes on one host then share a single
    /// page-cache copy of the snapshot. False on other platforms, once
    /// no answer from the chain is held any more, or when no chain was
    /// loaded.
    pub fn warm_base_mapped(&self) -> bool {
        let mapped =
            |e: &Arc<MemoEntry>| matches!(&e.source, Source::Persisted(s) if s.is_mapped());
        self.mem.entries().iter().any(mapped)
    }

    /// Forces every still-pending persisted result to decode into the
    /// answer table right now, returning how many were materialized.
    /// Queries normally pay this per spec on first request; `prefault` is
    /// the eager-load escape hatch (and what the perf harness uses to
    /// price lazy vs. full loading). A damaged section counts one
    /// rejection and its spec is solved cold in its place.
    pub fn prefault(&self) -> usize {
        let start = Instant::now();
        self.mem
            .entries()
            .iter()
            .filter(|e| e.cell.get().is_none() && e.holds_answer())
            .filter(|e| self.fill(e, start, &mut Presolved::new()).1)
            .count()
    }

    /// Why the bound store's snapshot was rejected at the last warm-start
    /// attempt, if it was (surfaced by `dtas map --stats`). `None` after
    /// a successful load or a plain cold start.
    pub fn last_snapshot_rejection(&self) -> Option<Rejection> {
        self.metrics
            .reject_reason
            .lock()
            .expect("reject reason poisoned")
            .clone()
    }

    /// Flushes the memoized answers to the bound store. Returns `Ok(None)`
    /// when no store is bound. Also runs automatically on drop.
    ///
    /// The store decides what to write by comparing the answers with the
    /// one chain it loaded or last wrote: a checkpoint whose answers are
    /// all on that chain under the engine's current key writes nothing
    /// ([`CheckpointOutcome::Skipped`]); one with answers missing from it
    /// appends an O(dirty) delta segment ([`CheckpointOutcome::Delta`]);
    /// and a flush with no chain under the current key (the first, or one
    /// after a key change, a rebind or a supersede), or one after the
    /// accumulated deltas outgrow half the base, rewrites one fresh base
    /// ([`CheckpointOutcome::Full`], folding the chain).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the backing medium fails. The in-memory state
    /// is unaffected either way.
    pub fn checkpoint(&self) -> Result<Option<CheckpointOutcome>, StoreError> {
        let Some(store) = &self.store else {
            return Ok(None);
        };
        let answers = self.mem.export_answers();
        // A full save rewrites the chain from the table alone, so every
        // answer still pending on the loaded chain must decode first.
        let (outcome, compaction) = store.checkpoint(&self.store_key(), &answers, || {
            self.prefault();
            self.mem.export_answers()
        })?;
        let (counter, by) = match outcome {
            CheckpointOutcome::Skipped => (&self.metrics.skipped, 1),
            CheckpointOutcome::Delta(_) => (&self.metrics.delta_saves, 1),
            CheckpointOutcome::Full(_) => (&self.metrics.compactions, u64::from(compaction)),
        };
        counter.fetch_add(by, Ordering::Relaxed);
        if let Some(report) = outcome.report() {
            let results = report.results as u64;
            self.metrics.persisted.store(results, Ordering::Relaxed);
            self.metrics.bytes.store(report.bytes, Ordering::Relaxed);
        }
        Ok(Some(outcome))
    }

    /// The rule base.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// The target library.
    pub fn library(&self) -> &CellLibrary {
        &self.library
    }

    /// The configuration.
    pub fn config(&self) -> &DtasConfig {
        &self.config
    }

    /// Drops all cross-query synthesis state (design space, fronts,
    /// memoized results, spec models) and resets every counter. Snapshots
    /// already persisted by the bound store are untouched.
    pub fn clear_cache(&self) {
        // Clearing is in-memory only, and it drops the answers pending on
        // the loaded chain too: it must not resurrect persisted answers.
        self.mem.clear();
        self.metrics.reset();
    }

    /// Cross-query cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        let (cached_fronts, spec_nodes) = self.mem.front_counts();
        let (cached_results, lazy_results) = self.mem.answer_counts();
        CacheStats {
            hits: self.mem.hits.load(Ordering::Relaxed),
            misses: self.mem.misses.load(Ordering::Relaxed),
            cached_results,
            cached_fronts,
            spec_nodes,
            result_shards: self.mem.shard_count(),
            shard_contention: self.mem.shard_contention.load(Ordering::Relaxed),
            state_exclusive: self.mem.state_exclusive.load(Ordering::Relaxed),
            poison_recoveries: self.mem.poison_recoveries.load(Ordering::Relaxed),
            snapshot_loads: self.metrics.loads.load(Ordering::Relaxed),
            snapshot_rejects: self.metrics.rejects.load(Ordering::Relaxed),
            persisted_results: self.metrics.persisted.load(Ordering::Relaxed),
            snapshot_bytes: self.metrics.bytes.load(Ordering::Relaxed),
            checkpoints_skipped: self.metrics.skipped.load(Ordering::Relaxed),
            delta_checkpoints: self.metrics.delta_saves.load(Ordering::Relaxed),
            compactions: self.metrics.compactions.load(Ordering::Relaxed),
            lazy_results,
            lazy_materialized: self.metrics.lazy_materialized.load(Ordering::Relaxed),
            canonical_hits: self.mem.canonical_hits.load(Ordering::Relaxed),
            specs_collapsed: self.mem.specs_collapsed.load(Ordering::Relaxed),
            fronts_retained_on_update: self.metrics.fronts_retained.load(Ordering::Relaxed),
        }
    }

    /// **The** synthesis entry point: runs anything convertible into a
    /// [`SynthRequest`] — a [`ComponentSpec`] (owned, borrowed, or via
    /// [`SynthRequest::new`] for per-request overrides) — and returns the
    /// design set behind an [`Arc`].
    ///
    /// Requests without overrides are served through the answer table: a
    /// repeat request is one probe of its own entry, taking no exclusive
    /// lock; a first request is canonicalized (see
    /// [`canon_fingerprint`](crate::canon_fingerprint)), so a spec variant
    /// shares its canonical spec's solve; concurrent callers with the
    /// *same* cold spec block on one in-flight solve and share its
    /// result; distinct cold specs solve concurrently. A shared set's
    /// [`SynthStats::elapsed`](crate::SynthStats::elapsed) is the original
    /// solve's, not this call's; deep-clone the set if you need a private
    /// copy to mutate.
    ///
    /// Requests with front overrides recompute only the root front (node
    /// fronts below it are still shared with every other query) and
    /// bypass the table; weight-sorted requests sort a private clone.
    ///
    /// # Errors
    ///
    /// [`SynthError::NoImplementation`] when neither rules nor cells cover
    /// the spec; [`SynthError::Expand`] on rule defects.
    pub fn run(&self, request: impl Into<SynthRequest>) -> Result<Arc<DesignSet>, SynthError> {
        let start = Instant::now();
        let request = request.into();
        if request.has_front_overrides() || request.weights.is_some() {
            return self.override_result(&request, start).map(Arc::new);
        }
        self.check_fingerprint();
        let spec = &request.spec;
        self.lookup(spec, || self.source_of(spec))
            .unwrap_or_else(|entry| self.resolve(&entry, start, &mut Presolved::new()))
    }

    /// Where a new entry's answer comes from: the canonicalizer's verdict.
    fn source_of(&self, spec: &ComponentSpec) -> Source {
        let canon = self.canon.canonicalize(spec, &self.rules, &self.library);
        if canon == *spec {
            Source::Solve
        } else {
            Source::Alias(canon)
        }
    }

    /// One probe of the table: a hit is counted and returned; otherwise
    /// the spec's entry, created from `source` when missing.
    fn lookup(
        &self,
        spec: &ComponentSpec,
        source: impl FnOnce() -> Source,
    ) -> Result<SynthResult, Arc<MemoEntry>> {
        let (answer, alias) = self.mem.probe(spec, source)?;
        self.mem.hits.fetch_add(1, Ordering::Relaxed);
        if alias {
            self.mem.canonical_hits.fetch_add(1, Ordering::Relaxed);
        }
        Ok(answer)
    }

    /// Fills a looked-up entry and counts the request: a hit when another
    /// caller filled it or its answer decoded from the chain, a miss
    /// (counted at the solve) when this call solved it, and an alias as
    /// its canonical spec's request.
    fn resolve(&self, entry: &MemoEntry, start: Instant, presolved: &mut Presolved) -> SynthResult {
        if entry.is_alias() {
            self.mem.canonical_hits.fetch_add(1, Ordering::Relaxed);
        }
        let (answer, served) = self.fill(entry, start, presolved);
        if served {
            self.mem.hits.fetch_add(1, Ordering::Relaxed);
        }
        answer
    }

    /// Sets an entry's answer once, from its source: the canonical spec's
    /// answer relabelled for an alias, the decoded section for a
    /// persisted answer, otherwise a solve (taken from `presolved` when
    /// the batch solved it). A damaged section counts one rejection and
    /// the spec is solved instead, in the same cell, so it is never
    /// decoded again. The flag is true when the answer was served without
    /// a solve or relabel of this call's own: decoded, or filled by
    /// another caller.
    fn fill(
        &self,
        entry: &MemoEntry,
        start: Instant,
        presolved: &mut Presolved,
    ) -> (SynthResult, bool) {
        let mut served = true;
        let answer = entry.cell.get_or_init(|| {
            if let Source::Alias(canonical) = &entry.source {
                served = false;
                let answer = self
                    .lookup(canonical, || Source::Solve)
                    .unwrap_or_else(|own| self.resolve(&own, start, presolved));
                return canon::relabel(answer, &entry.spec, canonical);
            }
            if let Source::Persisted(section) = &entry.source {
                match section.decode() {
                    Ok(answer) => {
                        self.metrics
                            .lazy_materialized
                            .fetch_add(1, Ordering::Relaxed);
                        return answer;
                    }
                    Err(reason) => self.metrics.reject(reason),
                }
            }
            served = false;
            self.mem.misses.fetch_add(1, Ordering::Relaxed);
            presolved.remove(&entry.spec).unwrap_or_else(|| {
                let shape = (self.config.root_filter, self.config.root_cap);
                let mut answers = self.solve_cold(&[&entry.spec], shape, start);
                answers.pop().expect("one answer per spec")
            })
        });
        (answer.clone(), served)
    }

    /// The override path behind [`run`](Self::run): a private root front
    /// and/or a weight-sorted clone. Override solves keep the caller's
    /// raw spec end-to-end — they bypass the table, so there is no shared
    /// key to canonicalize, and nothing they produce is persisted.
    fn override_result(
        &self,
        request: &SynthRequest,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        let mut set = if !request.has_front_overrides() {
            let shared = self.run(&request.spec)?;
            let mut set = DesignSet::clone(&shared);
            set.stats.elapsed = start.elapsed();
            set
        } else {
            let shape = (
                request.root_filter.unwrap_or(self.config.root_filter),
                request.root_cap.unwrap_or(self.config.root_cap),
            );
            self.check_fingerprint();
            self.mem.misses.fetch_add(1, Ordering::Relaxed);
            let solved = self.solve_cold(&[&request.spec], shape, start).pop();
            Arc::unwrap_or_clone(solved.expect("one answer per spec")?)
        };
        if let Some((area_weight, delay_weight)) = request.weights {
            let score = |a: &Alternative| area_weight * a.area + delay_weight * a.delay;
            // total_cmp keeps the comparator a total order even if a
            // caller passes non-finite weights (NaN scores would make a
            // partial_cmp-based sort panic since Rust 1.81).
            set.alternatives.sort_by(|a, b| {
                score(a)
                    .total_cmp(&score(b))
                    .then(a.area.total_cmp(&b.area))
                    .then(a.delay.total_cmp(&b.delay))
            });
        }
        Ok(set)
    }

    /// Synthesizes a whole batch of specifications in one shared-space
    /// pass: every *distinct* spec is expanded into the engine's design
    /// space (shared sub-specs once), all cold roots are solved together
    /// in a single bottom-up sweep (not a per-spec loop), and the
    /// results come back aligned with `specs` (duplicates — including
    /// specs that only become duplicates after canonicalization — are
    /// served from one solve).
    ///
    /// Per-spec failures do not abort the batch — each slot carries its
    /// own `Result`.
    pub fn run_batch(&self, specs: &[ComponentSpec]) -> Vec<Result<Arc<DesignSet>, SynthError>> {
        let start = Instant::now();
        self.check_fingerprint();
        // One lookup per distinct requested spec, in first-appearance order.
        let mut looked = Vec::new();
        let mut slot_of: HashMap<&ComponentSpec, usize> = HashMap::new();
        for spec in specs {
            slot_of.entry(spec).or_insert_with(|| {
                looked.push(self.lookup(spec, || self.source_of(spec)));
                looked.len() - 1
            });
        }
        // The canonical specs the empty entries wait on a solve of, each
        // once, in first-appearance order: padded/styled variants of one
        // canonical spec collapse onto a single solve here.
        let mut cold: Vec<ComponentSpec> = Vec::new();
        for entry in looked.iter().filter_map(|looked| looked.as_ref().err()) {
            let own = match &entry.source {
                Source::Alias(canonical) => match self.mem.probe(canonical, || Source::Solve) {
                    Ok(_) => continue,
                    Err(own) => own,
                },
                _ => Arc::clone(entry),
            };
            if matches!(own.source, Source::Solve) && !cold.contains(&own.spec) {
                cold.push(own.spec.clone());
            }
        }
        let mut presolved = Presolved::new();
        if !cold.is_empty() {
            let cold_specs: Vec<&ComponentSpec> = cold.iter().collect();
            let shape = (self.config.root_filter, self.config.root_cap);
            let solved = self.solve_cold(&cold_specs, shape, start);
            presolved = cold.into_iter().zip(solved).collect();
        }
        let answers: Vec<SynthResult> = looked
            .into_iter()
            .map(|looked| looked.unwrap_or_else(|e| self.resolve(&e, start, &mut presolved)))
            .collect();
        specs
            .iter()
            .map(|spec| answers[slot_of[spec]].clone())
            .collect()
    }

    /// Synthesizes every distinct component specification used in a GENUS
    /// netlist (the distinct-spec census is exactly what DTAS expands —
    /// shared specs are expanded once) as one
    /// [`run_batch`](Self::run_batch) pass.
    ///
    /// # Errors
    ///
    /// Fails on the first spec (in census order) with no implementation.
    /// The whole batch is solved before the error is reported — the
    /// successful work is what warms the shared cache; use
    /// [`run_batch`](Self::run_batch) directly for per-spec error
    /// visibility.
    pub fn run_netlist(
        &self,
        netlist: &Netlist,
    ) -> Result<BTreeMap<String, Arc<DesignSet>>, SynthError> {
        let census = netlist.spec_census();
        let specs: Vec<ComponentSpec> = census
            .values()
            .map(|(component, _count)| component.spec().clone())
            .collect();
        let results = self.run_batch(&specs);
        let mut out = BTreeMap::new();
        for (key, set) in census.into_keys().zip(results) {
            out.insert(key, set?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // The cold pipeline.

    /// The library is privately owned and immutable behind `&self`, so the
    /// fingerprint captured in `new()` keys every cached entry; rehashing
    /// it per call would tax the microsecond hit path.
    fn check_fingerprint(&self) {
        debug_assert_eq!(
            self.library.fingerprint(),
            self.fingerprint,
            "library diverged from the fingerprint its cache was keyed under"
        );
    }

    /// **The** cold pipeline, for a memo miss, an override request and a
    /// batch's cold slots alike: expand every spec into the shared space
    /// under one brief exclusive lock, solve all roots in one bottom-up
    /// pass against a snapshot with no lock held, merge the solved fronts
    /// back, and assemble each answer under `shape` (root filter, root
    /// cap). Answers come back aligned with `specs`.
    fn solve_cold(
        &self,
        specs: &[&ComponentSpec],
        shape: (FilterPolicy, usize),
        start: Instant,
    ) -> Vec<SynthResult> {
        let (mut plan, snapshot) = {
            let mut state = self.mem.write_state();
            let plan = self.expand_batch(specs, &mut state);
            // Nothing to solve (expansion errors, taint): skip the copy.
            let snapshot = (!plan.roots.is_empty()).then(|| SharedState {
                space: state.space.clone(),
                fronts: state.fronts.snapshot(),
                models: state.models.clone(),
                generation: state.generation,
            });
            (plan, snapshot)
        };
        if let Some(mut snapshot) = snapshot {
            self.solve_batch(specs, &mut plan, &mut snapshot, shape, start);
            self.absorb_fronts(snapshot.fronts, snapshot.generation);
        }
        self.finish_batch(specs, plan, shape, start)
    }

    /// The cold pipeline on a private state, which is dropped afterwards:
    /// the taint fallback of [`finish_batch`](Self::finish_batch).
    fn solve_private(
        &self,
        specs: &[&ComponentSpec],
        shape: (FilterPolicy, usize),
        start: Instant,
    ) -> Vec<SynthResult> {
        let mut state = SharedState::default();
        let mut plan = self.expand_batch(specs, &mut state);
        self.solve_batch(specs, &mut plan, &mut state, shape, start);
        self.finish_batch(specs, plan, shape, start)
    }

    /// Merges fronts solved against a snapshot back into the shared
    /// store — unless the state was reset (`clear_cache`, poison
    /// recovery) since the snapshot was taken: a reset recycles node
    /// ids, so stale fronts would attach to unrelated nodes and silently
    /// corrupt later answers. The generation check drops them instead.
    fn absorb_fronts(&self, solved: FrontStore, generation: u64) {
        let mut state = self.mem.write_state();
        if state.generation == generation {
            state.fronts.absorb(solved);
        }
    }

    /// Expands every spec into `state`'s space, splitting the indices into
    /// solvable roots, taint-affected specs and expansion failures
    /// (resolved on the spot).
    ///
    /// Mutually-recursive rules drop whichever template closes a cycle, so
    /// nodes expanded under an *earlier* root may carry a different
    /// root's cuts. A spec whose subgraph reaches such a pre-existing node
    /// is tainted: [`finish_batch`](Self::finish_batch) solves it from a
    /// fresh state instead, exactly as a fresh engine would.
    fn expand_batch(&self, specs: &[&ComponentSpec], state: &mut SharedState) -> BatchPlan {
        let mut plan = BatchPlan {
            results: vec![None; specs.len()],
            roots: Vec::new(),
            tainted: Vec::new(),
        };
        for (i, spec) in specs.iter().enumerate() {
            let first_new = state.space.nodes.len();
            let expanded = state
                .space
                .expand(spec, &self.rules, &self.library, &state.models);
            match expanded {
                Ok(root) if state.space.tainted_before(root, first_new) => plan.tainted.push(i),
                Ok(root) => plan.roots.push((i, root)),
                Err(ExpandError::Cycle) => {
                    plan.results[i] = Some(Err(SynthError::NoImplementation(spec.to_string())));
                }
                Err(other) => plan.results[i] = Some(Err(SynthError::Expand(other.to_string()))),
            }
        }
        plan
    }

    /// Solves all of a plan's roots in **one** bottom-up pass over
    /// `state` and assembles each design set under `shape`; the solved
    /// fronts stay in `state`.
    fn solve_batch(
        &self,
        specs: &[&ComponentSpec],
        plan: &mut BatchPlan,
        state: &mut SharedState,
        shape: (FilterPolicy, usize),
        start: Instant,
    ) {
        let roots: Vec<SpecId> = plan.roots.iter().map(|&(_, root)| root).collect();
        let fronts = std::mem::take(&mut state.fronts);
        let mut solver = Solver::with_front_store(&state.space, self.solve_config(), fronts);
        solver.solve_many(&roots, &state.models);
        for &(i, root) in &plan.roots {
            let set = self.assemble(specs[i], root, state, &mut solver, shape, start);
            plan.results[i] = Some(set.map(Arc::new));
        }
        state.fronts = solver.into_front_store();
    }

    /// Resolves a plan's taint-affected specs, each on a fresh private
    /// state (where nothing predates its root, so it cannot be tainted
    /// again), and unwraps the per-slot results.
    fn finish_batch(
        &self,
        specs: &[&ComponentSpec],
        mut plan: BatchPlan,
        shape: (FilterPolicy, usize),
        start: Instant,
    ) -> Vec<SynthResult> {
        for &i in &plan.tainted {
            plan.results[i] = self.solve_private(&[specs[i]], shape, start).pop();
        }
        plan.results
            .into_iter()
            .map(|slot| slot.expect("every batch spec resolved"))
            .collect()
    }

    fn solve_config(&self) -> SolveConfig {
        SolveConfig {
            node_filter: self.config.node_filter,
            node_cap: self.config.node_cap,
            max_combinations: self.config.max_combinations,
        }
    }

    /// Computes the root front of an already-solved root under `shape`
    /// (root filter, root cap) and assembles the design set
    /// (alternatives, space-size accounting, per-query stats).
    fn assemble(
        &self,
        spec: &ComponentSpec,
        root: usize,
        state: &SharedState,
        solver: &mut Solver,
        (root_filter, root_cap): (FilterPolicy, usize),
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        let space = &state.space;
        let solve_truncated = solver.truncated_combinations;
        // Recompute the root under the (usually more permissive) root
        // filter; the node-filter front below it stays cached.
        let front = solver.root_front(root, &state.models, root_filter, root_cap);
        // This query's truncation: everything under the root — including
        // truncation inherited from fronts solved by earlier queries —
        // plus the root-filter recomputation's own.
        let truncated_combinations =
            solver.truncated_under(root) + (solver.truncated_combinations - solve_truncated);
        if front.is_empty() {
            return Err(SynthError::NoImplementation(spec.to_string()));
        }
        let alternatives: Vec<Alternative> = front
            .iter()
            .map(|p| Alternative {
                area: p.area,
                delay: p.delay(),
                timing: p.timing.clone(),
                implementation: extract::extract(space, root, &p.policy),
            })
            .collect();
        let unconstrained_size = space.unconstrained_size(root);
        let unconstrained_log10 = space.unconstrained_log10(root);
        let uniform_size = if self.config.uniform_count_limit > 0 {
            space.uniform_size(root, self.config.uniform_count_limit)
        } else {
            None
        };
        // Stats describe this query's reachable subgraph, not the whole
        // (engine-shared, cross-query) space.
        let reachable = space.reachable(root);
        let impl_choices = reachable.iter().map(|&n| space.nodes[n].impls.len()).sum();
        Ok(DesignSet {
            spec: spec.clone(),
            alternatives,
            unconstrained_size,
            unconstrained_log10,
            uniform_size,
            stats: SynthStats {
                spec_nodes: reachable.len(),
                impl_choices,
                elapsed: start.elapsed(),
                truncated_combinations,
            },
        })
    }
}

impl Drop for Dtas {
    /// Best-effort [`checkpoint`](Dtas::checkpoint) to the bound store. It
    /// writes what the chain under the engine's key is missing: new
    /// solves, or answers an [`update_rules`](Dtas::update_rules) kept
    /// under a new key. A pure-hit warm session, or one already
    /// checkpointed explicitly, writes nothing. Skipped during panics so a
    /// failing test or crashing client never persists suspect state.
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = self.checkpoint();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::ImplKind;
    use cells::lsi::lsi_logic_subset;
    use genus::kind::ComponentKind;
    use genus::op::{Op, OpSet};

    fn engine() -> Dtas {
        Dtas::new(lsi_logic_subset())
    }

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    fn unmappable_spec() -> ComponentSpec {
        // A stack has no decomposition rules and no cell in the library.
        ComponentSpec::new(ComponentKind::StackFifo, 8)
            .with_width2(4)
            .with_ops([Op::Push, Op::Pop].into_iter().collect())
            .with_style("STACK")
    }

    #[test]
    fn add16_produces_a_design_space() {
        let set = engine().run(add_spec(16)).unwrap();
        assert!(set.alternatives.len() >= 3, "{set}");
        // Monotone trade-off curve.
        for w in set.alternatives.windows(2) {
            assert!(w[0].area <= w[1].area);
        }
        assert!(set.unconstrained_size >= 100.0);
    }

    #[test]
    fn unmappable_spec_reports_no_implementation() {
        assert!(matches!(
            engine().run(unmappable_spec()),
            Err(SynthError::NoImplementation(_))
        ));
    }

    #[test]
    fn direct_cell_hit_is_a_one_cell_design() {
        let set = engine().run(add_spec(4)).unwrap();
        let direct = set
            .alternatives
            .iter()
            .find(|a| matches!(a.implementation.kind, ImplKind::Cell { .. }));
        assert!(direct.is_some(), "ADD4 should map directly to a cell");
    }

    #[test]
    fn batch_mixes_successes_and_failures() {
        let engine = engine();
        let specs = vec![add_spec(16), unmappable_spec(), add_spec(16), add_spec(8)];
        let results = engine.run_batch(&specs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SynthError::NoImplementation(_))));
        assert!(results[2].is_ok());
        assert!(results[3].is_ok());
        // Duplicates are served from one solve: 3 distinct specs → 3
        // misses, no hits (first batch), and the duplicate slot carries
        // the same alternatives.
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 3));
        let a = results[0].as_ref().unwrap();
        let c = results[2].as_ref().unwrap();
        assert_eq!(a.alternatives.len(), c.alternatives.len());
    }

    #[test]
    fn batch_then_single_queries_hit_the_memo() {
        let engine = engine();
        let results = engine.run_batch(&[add_spec(8), add_spec(16)]);
        assert!(results.iter().all(|r| r.is_ok()));
        let single = engine.run(add_spec(16)).unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(
            single.alternatives.len(),
            results[1].as_ref().unwrap().alternatives.len()
        );
    }

    #[test]
    fn request_without_overrides_matches_bare_spec_run() {
        let engine = engine();
        let plain = engine.run(add_spec(16)).unwrap();
        let via_request = engine.run(SynthRequest::new(add_spec(16))).unwrap();
        assert_eq!(plain.alternatives.len(), via_request.alternatives.len());
        // The second call was a memo hit.
        assert_eq!(engine.cache_stats().hits, 1);
    }

    #[test]
    fn request_overrides_reshape_the_front() {
        let engine = engine();
        let full = engine.run(add_spec(16)).unwrap();
        assert!(full.alternatives.len() > 2);
        let capped = engine
            .run(SynthRequest::new(add_spec(16)).with_front_cap(2))
            .unwrap();
        assert!(capped.alternatives.len() <= 2);
        let pareto = engine
            .run(SynthRequest::new(add_spec(16)).with_root_filter(FilterPolicy::Pareto))
            .unwrap();
        // Strict Pareto keeps no more than the slack filter does.
        assert!(pareto.alternatives.len() <= full.alternatives.len());
        // Delay-heavy weights put the fastest design first.
        let fastest_first = engine
            .run(SynthRequest::new(add_spec(16)).with_weights(0.0, 1.0))
            .unwrap();
        let min_delay = full
            .alternatives
            .iter()
            .map(|a| a.delay)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(fastest_first.alternatives[0].delay, min_delay);
    }

    #[test]
    fn memoized_errors_count_as_hits() {
        let engine = engine();
        assert!(engine.run(unmappable_spec()).is_err());
        assert!(engine.run(unmappable_spec()).is_err());
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Error cells are not counted as cached results.
        assert_eq!(stats.cached_results, 0);
    }

    #[test]
    fn canonical_variants_collapse_onto_one_solve() {
        let engine = engine();
        // An unstyled spec and a styled variant no rule distinguishes.
        let raw = ComponentSpec::new(ComponentKind::AddSub, 16).with_ops(OpSet::only(Op::Add));
        let styled = raw.clone().with_style("FASTEST");
        let a = engine.run(&raw).unwrap();
        let b = engine.run(&styled).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(
            (stats.misses, stats.hits),
            (1, 1),
            "styled variant must be served from the canonical entry: {stats}"
        );
        assert!(stats.canonical_hits >= 1, "{stats}");
        assert!(stats.specs_collapsed >= 1, "{stats}");
        // The relabel restores the caller's spec label; everything else
        // matches the canonical solve.
        assert_eq!(b.spec, styled);
        assert_eq!(a.alternatives.len(), b.alternatives.len());
        for (x, y) in a.alternatives.iter().zip(&b.alternatives) {
            assert_eq!(x.area, y.area);
            assert_eq!(x.delay, y.delay);
        }
    }

    #[test]
    fn update_rules_without_change_retains_everything() {
        let mut engine = engine();
        engine.run(add_spec(16)).unwrap();
        let (fronts_before, nodes_before) = {
            let stats = engine.cache_stats();
            (stats.cached_fronts, stats.spec_nodes)
        };
        assert!(nodes_before > 0);
        let report =
            engine.update_rules(with_derived_rules(RuleSet::standard(), &lsi_logic_subset()));
        assert_eq!(report.dropped, InvalidationCounts::default(), "{report}");
        assert_eq!(report.retained.nodes, nodes_before, "{report}");
        assert_eq!(report.retained.fronts, fronts_before, "{report}");
        assert_eq!(report.retained.results, 1, "{report}");
        assert_eq!(
            report.reasons,
            vec![InvalidationReason::RulesChanged { dirty_nodes: 0 }]
        );
        // The retained memo still answers without a new solve.
        engine.run(add_spec(16)).unwrap();
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1, "{stats}");
        assert_eq!(stats.fronts_retained_on_update, fronts_before as u64);
    }

    #[test]
    fn update_rules_drops_only_reachable_state() {
        // Start without the LSI-derived rules, then add them: the ADD16
        // root gains an `lsi-carry-select-8` template (dirty), while
        // leaf nodes whose expansions are untouched stay warm.
        let mut engine = Dtas::builder(lsi_logic_subset())
            .rules(RuleSet::standard())
            .build();
        engine.run(add_spec(16)).unwrap();
        let warm = engine.cache_stats();
        let report =
            engine.update_rules(with_derived_rules(RuleSet::standard(), &lsi_logic_subset()));
        assert!(report.dropped.nodes > 0, "{report}");
        assert!(report.retained.nodes > 0, "{report}");
        assert_eq!(
            report.dropped.nodes + report.retained.nodes,
            warm.spec_nodes,
            "{report} vs {warm}"
        );
        assert_eq!(report.dropped.results, 1, "{report}");
        // The re-solve under the extended rules matches a fresh engine.
        let fresh = Dtas::new(lsi_logic_subset());
        let a = fresh.run(add_spec(16)).unwrap();
        let b = engine.run(add_spec(16)).unwrap();
        assert_eq!(a.alternatives.len(), b.alternatives.len());
        for (x, y) in a.alternatives.iter().zip(&b.alternatives) {
            assert_eq!((x.area, x.delay), (y.area, y.delay));
        }
    }

    #[test]
    fn update_config_root_shaping_keeps_fronts() {
        let mut engine = engine();
        engine.run(add_spec(16)).unwrap();
        let warm = engine.cache_stats();
        assert!(warm.cached_fronts > 0);
        let report = engine.update_config(DtasConfig {
            root_cap: 2,
            ..DtasConfig::default()
        });
        assert_eq!(report.retained.fronts, warm.cached_fronts, "{report}");
        assert_eq!(report.dropped.results, 1, "{report}");
        assert_eq!(report.reasons, vec![InvalidationReason::RootShapingChanged]);
        let capped = engine.run(add_spec(16)).unwrap();
        assert!(capped.alternatives.len() <= 2);
        // The re-solve reused the warm fronts; only the root was redone.
        let stats = engine.cache_stats();
        assert_eq!(stats.cached_fronts, warm.cached_fronts, "{stats}");
    }

    #[test]
    fn update_config_node_shaping_drops_fronts_keeps_space() {
        let mut engine = engine();
        engine.run(add_spec(16)).unwrap();
        let warm = engine.cache_stats();
        let report = engine.update_config(DtasConfig {
            node_cap: 1,
            ..DtasConfig::default()
        });
        assert_eq!(report.dropped.fronts, warm.cached_fronts, "{report}");
        assert_eq!(report.retained.nodes, warm.spec_nodes, "{report}");
        assert_eq!(report.reasons, vec![InvalidationReason::NodeShapingChanged]);
        // Same answer as a fresh engine under the new config.
        let fresh = Dtas::builder(lsi_logic_subset())
            .config(DtasConfig {
                node_cap: 1,
                ..DtasConfig::default()
            })
            .build();
        let a = fresh.run(add_spec(16)).unwrap();
        let b = engine.run(add_spec(16)).unwrap();
        assert_eq!(a.alternatives.len(), b.alternatives.len());
    }

    #[test]
    fn update_config_neutral_fields_touch_nothing() {
        let mut engine = engine();
        engine.run(add_spec(16)).unwrap();
        let report = engine.update_config(DtasConfig {
            strict_preflight: true,
            ..DtasConfig::default()
        });
        assert_eq!(report, InvalidationReport::default(), "{report}");
        engine.run(add_spec(16)).unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
    }

    #[test]
    fn builder_matches_new() {
        let built = Dtas::builder(lsi_logic_subset()).build();
        let plain = Dtas::new(lsi_logic_subset());
        assert_eq!(built.store_key(), plain.store_key());
        assert_eq!(
            built.run(add_spec(16)).unwrap().alternatives.len(),
            plain.run(add_spec(16)).unwrap().alternatives.len()
        );
    }
}
