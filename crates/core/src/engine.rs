//! The DTAS synthesis engine.

use crate::canon::{self, Canonicalizer};
use crate::config::DtasConfig;
use crate::extract;
use crate::report::{Alternative, DesignSet, SynthStats};
use crate::request::SynthRequest;
use crate::rules::RuleSet;
use crate::space::{
    DesignPoint, DesignSpace, ExpandError, FilterPolicy, FrontStore, SolveConfig, Solver, SpecId,
};
use crate::store::mem::{MemStore, ResultCell, SharedState};
use crate::store::{
    DirtySet, EngineSnapshot, LoadOutcome, PersistentStore, Rejection, ResultStore, SaveReport,
    StoreError, StoreKey, WarmSource,
};
use crate::template::{NetlistTemplate, SpecModelCache};
use cells::CellLibrary;
use genus::netlist::Netlist;
use genus::spec::ComponentSpec;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Counters for the engine-level cross-query cache and its warm-start
/// store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `synthesize` calls answered entirely from the result memo
    /// (including callers that blocked on another client's in-flight
    /// solve of the same spec and were served its result).
    pub hits: u64,
    /// `synthesize` calls that had to solve (possibly reusing sub-spec
    /// fronts from earlier queries).
    pub misses: u64,
    /// Whole result sets currently memoized.
    pub cached_results: usize,
    /// Specification nodes whose fronts are currently solved and reusable.
    /// Zero while a warm-started engine serves its chain undecoded.
    pub cached_fronts: usize,
    /// Specification nodes in the engine's shared design space. Zero while
    /// a warm-started engine serves its chain undecoded.
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
    /// Snapshots successfully loaded from the bound [`ResultStore`]
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
    /// Checkpoint calls that wrote nothing because nothing changed since
    /// the last flush (the background checkpoint thread ticks on a
    /// timer; an idle service stops paying encode + write).
    pub checkpoints_skipped: u64,
    /// Checkpoints that appended an O(dirty) delta segment instead of
    /// rewriting the whole chain.
    pub delta_checkpoints: u64,
    /// Full saves that folded an existing base + delta chain into a
    /// fresh base (triggered by
    /// [`DtasConfig::compaction_ratio`](crate::DtasConfig::compaction_ratio),
    /// or by a chain another process moved underneath this engine).
    pub compactions: u64,
    /// Persisted results indexed by the warm-start chain but not yet
    /// decoded — the lazy read path's backlog. Drains toward zero as
    /// queries (or [`Dtas::prefault`]) materialize them.
    pub lazy_results: usize,
    /// Persisted results decoded on first request (each also counts as a
    /// [`hit`](CacheStats::hits)).
    pub lazy_materialized: u64,
    /// Queries whose canonicalized spec differed from the raw request —
    /// each was answered through (and warmed) the collapsed memo entry
    /// instead of solving its own.
    pub canonical_hits: u64,
    /// Distinct raw specs the canonicalizer has mapped onto a *different*
    /// canonical spec since the cache was last cleared.
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
/// still means "no store bound / caching off").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointOutcome {
    /// Nothing changed since the last flush; no bytes were written.
    Skipped,
    /// An O(dirty) delta segment was appended to the chain.
    Delta(SaveReport),
    /// A full base segment was written (the first flush of a chain, a
    /// compaction, or a fallback when a delta could not safely append).
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

/// Errors produced by [`Dtas::synthesize`].
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
    /// from a changed expansion (template diff, taint, or an ancestor of
    /// either) and were dropped with their fronts and results.
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
    /// the new backend.
    StoreRebound,
    /// The bound store was asked to drop the chain stored under the
    /// engine's key (a rule change invisible to the name-level rule
    /// fingerprint would otherwise be shadowed by the stale chain).
    StoreSuperseded,
    /// Caching was switched off; all cached state was dropped.
    CachingOff,
    /// Caching was switched on; the engine warm-loads from the bound
    /// store on its next query.
    CachingOn,
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
            InvalidationReason::CachingOff => f.write_str("caching-off"),
            InvalidationReason::CachingOn => f.write_str("caching-on"),
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

/// Per-spec expansion outcome of one batch pass: slots already resolved
/// (expansion errors), roots to solve together, and taint-affected
/// indices needing a cold fallback.
struct BatchPlan {
    results: Vec<Option<Result<Arc<DesignSet>, SynthError>>>,
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
    /// [`MemStore::settled`] count at the last checkpoint — the drop
    /// hook only flushes when solves landed since, so an explicit
    /// `checkpoint()` is not paid a second time on drop.
    flushed_settled: AtomicU64,
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
        self.flushed_settled.store(0, Ordering::Relaxed);
        *self.reject_reason.lock().expect("reject reason poisoned") = None;
    }

    fn reject(&self, reason: Rejection) {
        self.rejects.fetch_add(1, Ordering::Relaxed);
        *self.reject_reason.lock().expect("reject reason poisoned") = Some(reason);
    }
}

/// The engine's handle on a loaded chain — the lazy read path. The
/// source starts *unhydrated*: nothing is decoded at load beyond the
/// headers, and each answer decodes from its own section when its spec is
/// first queried. The space and fronts decode into live state only for
/// the operations that rewrite it — `update_rules`, `update_config` and a
/// full save ([`Dtas::ensure_hydrated`]). Until then the live space stays
/// empty and misses solve on private state.
#[derive(Default)]
struct WarmState {
    source: Option<WarmSource>,
    hydrated: bool,
}

impl WarmState {
    /// True while a loaded chain's space is not live state.
    fn undecoded(&self) -> bool {
        self.source.is_some() && !self.hydrated
    }
}

/// The checkpoint watermark: what the chain on the backing store already
/// contains, so a checkpoint can emit just the difference. A warm load
/// primes it from the chain's index; unprimed (a cold start, a reset, an
/// update) means "unknown" and forces the safe full save.
#[derive(Default)]
struct FlushState {
    primed: bool,
    /// Shared-state generation the watermark describes; a reset bumps
    /// the generation and invalidates every node id below.
    generation: u64,
    /// Nodes `0..nodes` are already persisted.
    nodes: usize,
    /// Which of those nodes had solved fronts at the last flush (empty
    /// while the chain is undecoded: no live front can exist then).
    solved: Vec<bool>,
    /// Specs whose memoized results are already persisted.
    results: HashSet<ComponentSpec>,
    /// A base segment exists on the store for this chain.
    has_base: bool,
    /// Encoded size of that base, the compaction denominator.
    base_bytes: u64,
    /// Total encoded size of the deltas appended since, the numerator.
    delta_bytes: u64,
}

/// The DTAS synthesis engine: a rule base plus a target cell library.
///
/// # Concurrency
///
/// The engine is `Sync` and built to be shared (`Arc<Dtas>` or `&Dtas`
/// across scoped threads) by many clients:
///
/// * **Hits never contend.** Memoized results live in a sharded memo
///   ([`CacheStats::result_shards`] shards, read-mostly `RwLock` each); a
///   repeat query takes one shard read lock and clones out an [`Arc`]. No
///   exclusive lock is taken anywhere on the hit path
///   ([`CacheStats::state_exclusive`] stays flat).
/// * **Cold queries overlap.** A miss expands under a brief exclusive
///   lock on the shared design space, then solves against a private
///   snapshot with no lock held, and finally merges its solved fronts
///   back. Two distinct cold specs therefore solve concurrently.
/// * **Identical results.** Every front is a pure function of its
///   (append-only) subgraph, so the schedule cannot change any answer:
///   whatever the interleaving, each query returns exactly what a fresh
///   single-threaded engine would return for that spec.
///
/// # Caching
///
/// The engine memoizes aggressively across queries (see
/// [`DtasConfig::cache`]): repeated specs return from the result memo, and
/// shared sub-specs across *different* roots (ADD8 under both ALU64 and
/// ADD16, say) are expanded and solved once per engine lifetime. Cached
/// entries are keyed implicitly by the library's content
/// [`fingerprint`](CellLibrary::fingerprint) — verified on every call —
/// and by each spec's *canonical* form (see
/// [`canon_fingerprint`](crate::canon_fingerprint)): functionally
/// equivalent spec variants collapse onto one memo entry. Rule or
/// configuration changes ([`update_rules`](Self::update_rules) /
/// [`update_config`](Self::update_config)) invalidate exactly the
/// affected entries and report what they kept
/// ([`InvalidationReport`]); [`clear_cache`](Self::clear_cache) drops
/// everything.
///
/// # Warm start
///
/// With [`DtasConfig::persist_path`] set (or a backend attached through
/// [`Dtas::builder`]), the cached state also survives the
/// engine: construction maps a compatible snapshot — the explored design
/// space, every solved front, and the memoized answers — and the state is
/// flushed back by [`checkpoint`](Self::checkpoint) or on drop. A second
/// process pointed at the same directory answers a persisted query by
/// decoding that answer's own section (about a millisecond for ALU64)
/// instead of re-paying the cold solve; the space itself is decoded only
/// by an update or a full save. Snapshot
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
    store: Option<Arc<dyn ResultStore>>,
    metrics: StoreMetrics,
    warm: Mutex<WarmState>,
    flush: Mutex<FlushState>,
    canon: Canonicalizer,
}

/// Constructs a [`Dtas`] in one shot: library (required), then optional
/// rule base, configuration and snapshot backend. Once built, the engine
/// is immutable except through [`Dtas::update_rules`] /
/// [`Dtas::update_config`], which invalidate *only* the affected cached
/// state and say exactly what they did ([`InvalidationReport`]) — unlike
/// the retired consuming `with_*` chain, which silently reset everything.
pub struct DtasBuilder {
    library: CellLibrary,
    rules: Option<RuleSet>,
    config: DtasConfig,
    store: Option<Arc<dyn ResultStore>>,
}

impl DtasBuilder {
    /// Replaces the default rule base
    /// (`RuleSet::standard().with_lsi_extensions()`).
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = Some(rules);
        self
    }

    /// Replaces the default configuration.
    pub fn config(mut self, config: DtasConfig) -> Self {
        self.config = config;
        self
    }

    /// Binds an explicit snapshot backend, overriding the
    /// [`DtasConfig::persist_path`] binding.
    pub fn store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Builds the engine and warm-starts it from the bound store (if any
    /// chain is compatible; anything else is a plain cold start).
    pub fn build(self) -> Dtas {
        let fingerprint = self.library.fingerprint();
        let store = self.store.or_else(|| {
            self.config
                .persist_path
                .as_ref()
                .map(|dir| Arc::new(PersistentStore::new(dir)) as Arc<dyn ResultStore>)
        });
        let dtas = Dtas {
            rules: self
                .rules
                .unwrap_or_else(|| RuleSet::standard().with_lsi_extensions()),
            library: self.library,
            config: self.config,
            fingerprint,
            mem: MemStore::new(),
            store,
            metrics: StoreMetrics::default(),
            warm: Mutex::new(WarmState::default()),
            flush: Mutex::new(FlushState::default()),
            canon: Canonicalizer::new(),
        };
        dtas.try_warm_load();
        dtas
    }
}

impl Dtas {
    /// Creates an engine with the standard rule base, the library-specific
    /// extensions, and default configuration.
    pub fn new(library: CellLibrary) -> Self {
        Dtas::builder(library).build()
    }

    /// Starts building an engine: `Dtas::builder(lib).rules(…).config(…)
    /// .store(…).build()`.
    pub fn builder(library: CellLibrary) -> DtasBuilder {
        DtasBuilder {
            library,
            rules: None,
            config: DtasConfig::default(),
            store: None,
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

    /// Replaces the rule base, dropping **all** cached synthesis state.
    #[deprecated(
        note = "use Dtas::builder(..).rules(..) to construct, or Dtas::update_rules for \
                delta invalidation that keeps unaffected state warm"
    )]
    pub fn with_rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self.reset_runtime_state();
        self.try_warm_load();
        self
    }

    /// Replaces the configuration, dropping **all** cached synthesis
    /// state and rebinding the store from [`DtasConfig::persist_path`].
    #[deprecated(
        note = "use Dtas::builder(..).config(..) to construct, or Dtas::update_config for \
                delta invalidation that keeps unaffected state warm"
    )]
    pub fn with_config(mut self, config: DtasConfig) -> Self {
        self.config = config;
        self.reset_runtime_state();
        self.store = self
            .config
            .persist_path
            .as_ref()
            .map(|dir| Arc::new(PersistentStore::new(dir)) as Arc<dyn ResultStore>);
        self.try_warm_load();
        self
    }

    /// Binds an explicit snapshot backend (overriding any
    /// [`DtasConfig::persist_path`] binding) and warm-starts from it,
    /// dropping all cached synthesis state first.
    #[deprecated(note = "use Dtas::builder(..).store(..)")]
    pub fn with_store(mut self, store: Arc<dyn ResultStore>) -> Self {
        self.reset_runtime_state();
        self.store = Some(store);
        self.try_warm_load();
        self
    }

    /// Fresh (empty) synchronized state, counters included. Used by the
    /// deprecated consuming builders before they re-bind / re-load.
    fn reset_runtime_state(&mut self) {
        self.mem = MemStore::new();
        self.metrics.reset();
        self.canon.clear();
        *self.lock_warm() = WarmState::default();
        *self.lock_flush() = FlushState::default();
    }

    /// Replaces the rule base **in place**, invalidating only the cached
    /// state the change can actually reach.
    ///
    /// Every live spec node's expansion is recomputed under both the old
    /// and the new rules (a template diff — rule *bodies* count, not just
    /// membership): nodes whose one-level template list changed, and
    /// every ancestor of one, are dropped with their fronts and memoized
    /// results; the rest of the space stays warm. When the change is
    /// invisible to the name-level rule-set fingerprint (same rule names,
    /// different bodies) the bound store's chain is superseded, so a
    /// stale persisted base can never shadow the invalidation on the next
    /// warm start.
    ///
    /// The returned [`InvalidationReport`] says exactly what was dropped,
    /// what stayed warm, and why;
    /// [`CacheStats::fronts_retained_on_update`] mirrors the retained
    /// front count.
    pub fn update_rules(&mut self, rules: RuleSet) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        if !self.config.cache {
            self.rules = rules;
            self.canon.clear();
            report
                .reasons
                .push(InvalidationReason::RulesChanged { dirty_nodes: 0 });
            return report;
        }
        let old_key = self.store_key();
        // The diff below runs over live nodes, so live state must cover
        // everything persisted: materialize every pending result and
        // hydrate the chain, then drop the lazy source (its node index
        // would dangle across the compaction below).
        self.prefault();
        self.ensure_hydrated();
        {
            let mut warm = self.lock_warm();
            warm.source = None;
            warm.hydrated = true;
        }
        let (dirty_count, retained_nodes, retained_fronts, dropped_fronts, clean_specs) = {
            let mut state = self.mem.write_state();
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
        let (retained_results, dropped_results) =
            self.mem.retain_results(|spec| clean_specs.contains(spec));
        self.rules = rules;
        self.canon.clear();
        // The watermark describes a chain keyed under the old rules;
        // unprime so the next checkpoint starts a fresh full base.
        *self.lock_flush() = FlushState::default();
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
                // drop it now. Answers solved on private state have no
                // nodes in the live space for the diff to check, so
                // dropping one counts as dirt too. (Otherwise the diff
                // just proved the chain still valid — prefault made live
                // ⊇ stored — so it is deliberately kept.)
                if store.supersede(&old_key).is_ok() {
                    report.reasons.push(InvalidationReason::StoreSuperseded);
                }
            }
            let dropped_any = dirty_count > 0 || dropped_results > 0;
            let retained_any = retained_nodes > 0 || retained_results > 0;
            if dropped_any && retained_any {
                // Make the retained-but-compacted state look unflushed so
                // the next checkpoint persists it instead of skipping.
                self.metrics.flushed_settled.store(
                    self.mem.settled.load(Ordering::Relaxed).wrapping_sub(1),
                    Ordering::Relaxed,
                );
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
    ///   front and result but keeps the expanded space;
    /// * root shaping ([`DtasConfig::root_filter`] /
    ///   [`root_cap`](DtasConfig::root_cap)) and
    ///   [`uniform_count_limit`](DtasConfig::uniform_count_limit) drop
    ///   only the memoized results — node fronts stay warm;
    /// * [`persist_path`](DtasConfig::persist_path) rebinds the store;
    /// * toggling [`cache`](DtasConfig::cache) drops or warm-loads
    ///   everything;
    /// * anything else (compaction ratio, preflight, the no-op
    ///   `threads`) touches nothing cached and returns an empty report.
    ///
    /// No store supersede is ever needed here: every invalidating field
    /// is part of [`DtasConfig::result_fingerprint`], so the store key
    /// changes with the config.
    pub fn update_config(&mut self, config: DtasConfig) -> InvalidationReport {
        let mut report = InvalidationReport::default();
        let old = &self.config;
        let node_shaping = config.node_filter != old.node_filter
            || config.node_cap != old.node_cap
            || config.max_combinations != old.max_combinations;
        let root_shaping = config.root_filter != old.root_filter || config.root_cap != old.root_cap;
        let uniform = config.uniform_count_limit != old.uniform_count_limit;
        let storage = config.persist_path != old.persist_path;
        let cache_off = old.cache && !config.cache;
        let cache_on = !old.cache && config.cache;
        if cache_off {
            let stats = self.cache_stats();
            report.dropped = InvalidationCounts {
                nodes: stats.spec_nodes,
                fronts: stats.cached_fronts,
                results: stats.cached_results,
            };
            report.reasons.push(InvalidationReason::CachingOff);
            self.config = config;
            self.mem.clear();
            self.metrics.reset();
            self.canon.clear();
            {
                let mut warm = self.lock_warm();
                warm.source = None;
                warm.hydrated = true;
            }
            *self.lock_flush() = FlushState::default();
            if storage {
                self.rebind_store();
                report.reasons.push(InvalidationReason::StoreRebound);
            }
            return report;
        }
        if cache_on {
            self.config = config;
            if storage {
                self.rebind_store();
                report.reasons.push(InvalidationReason::StoreRebound);
            } else if self.store.is_none() && self.config.persist_path.is_some() {
                self.rebind_store();
            }
            report.reasons.push(InvalidationReason::CachingOn);
            self.try_warm_load();
            return report;
        }
        if !config.cache {
            // Off → off: nothing cached to invalidate.
            self.config = config;
            if storage {
                self.rebind_store();
                report.reasons.push(InvalidationReason::StoreRebound);
            }
            return report;
        }
        // On → on: the interesting delta paths.
        if node_shaping || root_shaping || uniform {
            // The lazy chain indexes state this update is about to thin
            // out; make it live first (so the report counts it), then
            // drop it.
            self.prefault();
            self.ensure_hydrated();
            let mut warm = self.lock_warm();
            warm.source = None;
            warm.hydrated = true;
        }
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
            let (_, dropped_results) = self.mem.retain_results(|_| false);
            report.dropped.fronts = dropped_fronts;
            report.dropped.results = dropped_results;
            report.retained.nodes = nodes;
            report.reasons.push(InvalidationReason::NodeShapingChanged);
            self.metrics.fronts_retained.store(0, Ordering::Relaxed);
        } else if root_shaping || uniform {
            // Only the assembled results carry root shaping / uniform
            // accounting; node fronts below the root stay warm.
            let (_, dropped_results) = self.mem.retain_results(|_| false);
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
        if node_shaping || root_shaping || uniform || storage {
            // Shaping changes the result fingerprint (and a rebind the
            // backend): the old watermark describes some other chain.
            *self.lock_flush() = FlushState::default();
        }
        if (node_shaping || root_shaping || uniform)
            && self.store.is_some()
            && (report.retained.nodes > 0 || report.retained.fronts > 0)
        {
            // Make the retained state look unflushed so the next
            // checkpoint persists it under the new key.
            self.metrics.flushed_settled.store(
                self.mem.settled.load(Ordering::Relaxed).wrapping_sub(1),
                Ordering::Relaxed,
            );
        }
        if storage && self.mem.front_counts().1 == 0 {
            // Nothing live to protect: warm-load from the new backend.
            self.try_warm_load();
        }
        report
    }

    /// Rebinds the snapshot backend from [`DtasConfig::persist_path`].
    fn rebind_store(&mut self) {
        self.store = self
            .config
            .persist_path
            .as_ref()
            .map(|dir| Arc::new(PersistentStore::new(dir)) as Arc<dyn ResultStore>);
    }

    /// The lazy-source lock, recovering from poison by dropping the
    /// (possibly half-consumed) source — queries fall back to cold
    /// solves, which is always correct.
    fn lock_warm(&self) -> MutexGuard<'_, WarmState> {
        self.warm.lock().unwrap_or_else(|poisoned| {
            self.warm.clear_poison();
            let mut guard = poisoned.into_inner();
            guard.source = None;
            guard.hydrated = true;
            guard
        })
    }

    /// The checkpoint-watermark lock, recovering from poison by
    /// unpriming — the next checkpoint does a (safe) full save.
    fn lock_flush(&self) -> MutexGuard<'_, FlushState> {
        self.flush.lock().unwrap_or_else(|poisoned| {
            self.flush.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = FlushState::default();
            guard
        })
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

    /// The bound snapshot backend, if any.
    pub fn snapshot_store(&self) -> Option<&Arc<dyn ResultStore>> {
        self.store.as_ref()
    }

    /// Attempts a warm start from the bound store. A missing snapshot is
    /// a plain cold start; a rejected one (see
    /// [`CacheStats::snapshot_rejects`]) is logged in the counters and
    /// also falls back cold. Skipped entirely when caching is off.
    fn try_warm_load(&self) {
        if !self.config.cache {
            return;
        }
        let Some(store) = &self.store else {
            return;
        };
        match store.load(&self.store_key()) {
            LoadOutcome::Loaded { source, bytes } => {
                // O(index) work so far: headers validated, nothing
                // decoded. Each answer decodes on its first query; the
                // space only for an update or a full save (see
                // `ensure_hydrated`).
                self.metrics.loads.fetch_add(1, Ordering::Relaxed);
                self.metrics.bytes.store(bytes, Ordering::Relaxed);
                // Everything the chain indexes is on the store already,
                // so the next checkpoint appends only what is new.
                *self.lock_flush() = FlushState {
                    primed: true,
                    generation: self.mem.read_state().generation,
                    nodes: source.node_count(),
                    solved: Vec::new(),
                    results: source.pending_specs().into_iter().collect(),
                    has_base: true,
                    base_bytes: source.base_bytes,
                    delta_bytes: source.delta_bytes,
                };
                let mut warm = self.lock_warm();
                warm.source = Some(*source);
                warm.hydrated = false;
            }
            LoadOutcome::Missing => {}
            LoadOutcome::Rejected { reason } => self.metrics.reject(reason),
        }
    }

    /// Decodes the loaded chain's space and fronts into the shared state,
    /// once per engine lifetime — called only by the operations that
    /// rewrite live state (`update_rules`, `update_config`, a full save),
    /// each after [`prefault`](Self::prefault). A chain that fails
    /// structural validation here is dropped whole (counted in
    /// [`CacheStats::snapshot_rejects`](CacheStats)) and the engine
    /// continues cold; no partial state is ever installed.
    fn ensure_hydrated(&self) {
        if !self.config.cache {
            return;
        }
        let mut warm = self.lock_warm();
        if !warm.undecoded() {
            return;
        }
        warm.hydrated = true;
        let Some(source) = warm.source.as_ref() else {
            return;
        };
        match source.hydrate_state() {
            Ok((space, fronts)) => {
                let mut state = self.mem.write_state();
                if !state.space.nodes.is_empty() {
                    // Misses on an undecoded chain solve privately, so the
                    // space cannot have grown; don't risk clobbering live
                    // state if it somehow did — just drop the source.
                    drop(state);
                    warm.source = None;
                    return;
                }
                state.space = space;
                state.fronts = fronts;
            }
            Err(reason) => {
                warm.source = None;
                self.metrics.reject(reason);
            }
        }
    }

    /// True while a loaded chain is served undecoded: misses then solve on
    /// private state, leaving the live space empty.
    fn chain_undecoded(&self) -> bool {
        self.lock_warm().undecoded()
    }

    /// Decodes the persisted result for `spec`, if the loaded chain has
    /// one that was not consumed yet. `None` means "solve it yourself"
    /// (no chain, no entry, or damaged bytes — damage is counted as a
    /// rejection and the entry dropped, so it is never retried).
    fn warm_materialize(&self, spec: &ComponentSpec) -> Option<Result<Arc<DesignSet>, SynthError>> {
        if !self.config.cache {
            return None;
        }
        let decoded = self.lock_warm().source.as_mut()?.take_result(spec)?;
        match decoded {
            Ok(result) => {
                self.metrics
                    .lazy_materialized
                    .fetch_add(1, Ordering::Relaxed);
                Some(result)
            }
            Err(reason) => {
                self.metrics.reject(reason);
                None
            }
        }
    }

    /// True while the warm-start chain's base segment is being served
    /// from a shared read-only memory mapping (64-bit unix with an
    /// on-disk store) — N processes on one host then share a single
    /// page-cache copy of the snapshot. False on other platforms, after
    /// the source is dropped, or when no chain was loaded.
    pub fn warm_base_mapped(&self) -> bool {
        self.lock_warm()
            .source
            .as_ref()
            .map(WarmSource::is_mapped)
            .unwrap_or(false)
    }

    /// Forces every still-pending persisted result to decode into the
    /// memo right now, returning how many were materialized. Queries
    /// normally pay this per spec on first request; `prefault` is the
    /// eager-load escape hatch (and what the perf harness uses to price
    /// lazy vs. full loading). It decodes answers only, never the space.
    pub fn prefault(&self) -> usize {
        if !self.config.cache {
            return 0;
        }
        let pending = {
            let warm = self.lock_warm();
            match &warm.source {
                Some(source) => source.pending_specs(),
                None => return 0,
            }
        };
        let mut materialized = 0;
        for spec in pending {
            if let Some(result) = self.warm_materialize(&spec) {
                let cell = self.mem.result_cell(&spec);
                let _ = cell.get_or_init(|| result);
                materialized += 1;
            }
        }
        materialized
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

    /// Flushes the current cached state (design space, solved fronts,
    /// memoized results) to the bound store. Returns `Ok(None)` when no
    /// store is bound or caching is off. Also runs automatically on drop
    /// when the engine solved anything new since the last load.
    ///
    /// Flushes are tiered: a checkpoint with nothing new since the last
    /// flush writes nothing ([`CheckpointOutcome::Skipped`]); one with a
    /// known on-store chain appends an O(dirty) delta segment
    /// ([`CheckpointOutcome::Delta`]); and the first flush of a chain —
    /// or any flush after the accumulated deltas outgrow
    /// [`DtasConfig::compaction_ratio`](crate::DtasConfig::compaction_ratio)
    /// times the base — rewrites one fresh base
    /// ([`CheckpointOutcome::Full`], folding the chain).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the backing medium fails. The in-memory state
    /// is unaffected either way.
    pub fn checkpoint(&self) -> Result<Option<CheckpointOutcome>, StoreError> {
        if !self.config.cache {
            return Ok(None);
        }
        let Some(store) = &self.store else {
            return Ok(None);
        };
        // The watermark lock is held across the whole flush so two
        // checkpoints cannot interleave their delta appends.
        let mut flush = self.lock_flush();
        // Sample the settled counter *before* exporting: a solve landing
        // after the sample is then counted as un-flushed and re-saved on
        // the next tick (or on drop), rather than possibly lost. The
        // counter increments only once a solve's effects are fully in the
        // store, so everything the sample covers is in the export.
        let settled_at_start = self.mem.settled.load(Ordering::Relaxed);
        if settled_at_start == self.metrics.flushed_settled.load(Ordering::Relaxed) {
            self.metrics.skipped.fetch_add(1, Ordering::Relaxed);
            return Ok(Some(CheckpointOutcome::Skipped));
        }
        let mut snapshot = self.mem.export_snapshot();
        let ratio = self.config.compaction_ratio;
        // Only this call (holding the watermark) or `&mut self` updates
        // hydrate, so the answer stays true for the whole flush.
        let undecoded = self.chain_undecoded();
        let delta_eligible = flush.primed
            && flush.has_base
            && flush.generation == snapshot.generation
            && (snapshot.space.nodes.len() >= flush.nodes || undecoded)
            && ratio.is_finite()
            && ratio >= 0.0;
        if delta_eligible {
            let dirty = Self::compute_dirty(&flush, &snapshot);
            if dirty.first_new_node >= snapshot.space.nodes.len()
                && dirty.front_ids.is_empty()
                && dirty.result_indices.is_empty()
            {
                // Solves landed but produced nothing persistable that
                // is not already on the chain (override requests,
                // repeat solves): the store is up to date.
                self.metrics
                    .flushed_settled
                    .store(settled_at_start, Ordering::Relaxed);
                self.metrics.skipped.fetch_add(1, Ordering::Relaxed);
                return Ok(Some(CheckpointOutcome::Skipped));
            }
            let compact = (flush.delta_bytes as f64) > ratio * (flush.base_bytes as f64);
            if !compact {
                if let Some(report) = store.save_delta(&self.store_key(), &snapshot, &dirty)? {
                    self.metrics.delta_saves.fetch_add(1, Ordering::Relaxed);
                    flush.delta_bytes += report.bytes;
                    // An undecoded chain keeps its node count.
                    let nodes = flush.nodes.max(snapshot.space.nodes.len());
                    Self::advance_watermark(&mut flush, &snapshot);
                    flush.nodes = nodes;
                    self.finish_flush(&report, settled_at_start);
                    return Ok(Some(CheckpointOutcome::Delta(report)));
                }
                // The store no longer has the chain this watermark
                // describes (another writer moved it): fall through to
                // the always-safe full rewrite.
            }
        }
        if undecoded {
            // A full save rewrites the chain from live state alone, so
            // every persisted answer and node must be live first.
            self.prefault();
            self.ensure_hydrated();
            snapshot = self.mem.export_snapshot();
        }
        let report = store.save_full(&self.store_key(), &snapshot)?;
        if delta_eligible {
            // A full save over a known chain folds its deltas away.
            self.metrics.compactions.fetch_add(1, Ordering::Relaxed);
        }
        flush.has_base = true;
        flush.base_bytes = report.bytes;
        flush.delta_bytes = 0;
        flush.primed = true;
        flush.generation = snapshot.generation;
        Self::advance_watermark(&mut flush, &snapshot);
        self.finish_flush(&report, settled_at_start);
        Ok(Some(CheckpointOutcome::Full(report)))
    }

    /// What changed between the watermark and `snapshot` — the payload of
    /// a delta checkpoint.
    fn compute_dirty(flush: &FlushState, snapshot: &EngineSnapshot) -> DirtySet {
        let nodes_now = snapshot.space.nodes.len();
        let mut front_ids = Vec::new();
        for id in 0..nodes_now {
            if snapshot.fronts.fronts.get(id).is_some_and(Option::is_some)
                && !(id < flush.nodes && flush.solved.get(id).copied().unwrap_or(false))
            {
                front_ids.push(id);
            }
        }
        let result_indices = snapshot
            .results
            .iter()
            .enumerate()
            .filter(|(_, (spec, _))| !flush.results.contains(spec))
            .map(|(i, _)| i)
            .collect();
        DirtySet {
            first_new_node: flush.nodes,
            front_ids,
            result_indices,
        }
    }

    /// Records that everything in `snapshot` is now on the store.
    fn advance_watermark(flush: &mut FlushState, snapshot: &EngineSnapshot) {
        flush.nodes = snapshot.space.nodes.len();
        flush.solved = (0..flush.nodes)
            .map(|id| snapshot.fronts.fronts.get(id).is_some_and(Option::is_some))
            .collect();
        flush.results = snapshot
            .results
            .iter()
            .map(|(spec, _)| spec.clone())
            .collect();
    }

    /// Post-save metric updates shared by the delta and full paths.
    fn finish_flush(&self, report: &SaveReport, settled_at_start: u64) {
        self.metrics
            .persisted
            .store(report.results as u64, Ordering::Relaxed);
        self.metrics.bytes.store(report.bytes, Ordering::Relaxed);
        self.metrics
            .flushed_settled
            .store(settled_at_start, Ordering::Relaxed);
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

    /// The library content fingerprint the cache is keyed by.
    pub fn library_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Drops all cross-query synthesis state (design space, fronts,
    /// memoized results, spec models) and resets every counter. Snapshots
    /// already persisted by the bound store are untouched.
    pub fn clear_cache(&self) {
        self.mem.clear();
        self.metrics.reset();
        self.canon.clear();
        {
            // The lazy source indexes node ids of the state being
            // dropped; it must go with it (clearing is in-memory only —
            // it must not resurrect persisted state either).
            let mut warm = self.lock_warm();
            warm.source = None;
            warm.hydrated = true;
        }
        *self.lock_flush() = FlushState::default();
    }

    /// Cross-query cache counters (the memo counters are all zero when
    /// caching is off).
    pub fn cache_stats(&self) -> CacheStats {
        let (cached_fronts, spec_nodes) = self.mem.front_counts();
        let lazy_results = self
            .lock_warm()
            .source
            .as_ref()
            .map(|source| source.pending_results())
            .unwrap_or(0);
        CacheStats {
            hits: self.mem.hits.load(Ordering::Relaxed),
            misses: self.mem.misses.load(Ordering::Relaxed),
            cached_results: self.mem.cached_result_count(),
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
            canonical_hits: self.canon.canonical_hits.load(Ordering::Relaxed),
            specs_collapsed: self.canon.specs_collapsed.load(Ordering::Relaxed),
            fronts_retained_on_update: self.metrics.fronts_retained.load(Ordering::Relaxed),
        }
    }

    /// **The** synthesis entry point: runs anything convertible into a
    /// [`SynthRequest`] — a [`ComponentSpec`] (owned, borrowed, or via
    /// [`SynthRequest::new`] for per-request overrides) — and returns the
    /// design set behind an [`Arc`].
    ///
    /// Requests without overrides are canonicalized (see
    /// [`canon_fingerprint`](crate::canon_fingerprint)) and served through
    /// the shared result memo: concurrent callers with memoized specs are
    /// served without taking any exclusive lock; concurrent callers with
    /// the *same* cold spec block on one in-flight solve and share its
    /// result; distinct cold specs solve concurrently. A shared set's
    /// [`SynthStats::elapsed`](crate::SynthStats::elapsed) is the original
    /// solve's, not this call's; deep-clone the set if you need a private
    /// copy to mutate.
    ///
    /// Requests with front overrides recompute only the root front (node
    /// fronts below it are still shared with every other query) and
    /// bypass the memo; weight-sorted requests sort a private clone.
    ///
    /// # Errors
    ///
    /// [`SynthError::NoImplementation`] when neither rules nor cells cover
    /// the spec; [`SynthError::Expand`] on rule defects.
    pub fn run(&self, request: impl Into<SynthRequest>) -> Result<Arc<DesignSet>, SynthError> {
        let start = Instant::now();
        let request = request.into();
        if !request.has_front_overrides() && request.weights.is_none() {
            self.shared_result(&request.spec, start)
        } else {
            self.override_result(&request, start).map(Arc::new)
        }
    }

    /// The memoized (non-override) path behind [`run`](Self::run):
    /// canonicalize, serve through the collapsed memo entry, rewrite the
    /// answer back to the caller's raw spec.
    fn shared_result(
        &self,
        spec: &ComponentSpec,
        start: Instant,
    ) -> Result<Arc<DesignSet>, SynthError> {
        if !self.config.cache {
            // Ablation path: nothing is keyed, so nothing to canonicalize.
            return self.synthesize_shared_from(spec, start);
        }
        let canonical = self.canon.canonical(spec, &self.rules, &self.library);
        canon::rewrite_result(
            self.synthesize_shared_from(&canonical, start),
            spec,
            &canonical,
        )
    }

    /// The override path behind [`run`](Self::run): a private root front
    /// and/or a weight-sorted clone. Override solves keep the caller's
    /// raw spec end-to-end — they bypass the memo, so there is no shared
    /// key to canonicalize.
    fn override_result(
        &self,
        request: &SynthRequest,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        let mut set = if !request.has_front_overrides() {
            Self::deliver(&self.shared_result(&request.spec, start), start)?
        } else {
            let root_filter = request.root_filter.unwrap_or(self.config.root_filter);
            let root_cap = request.root_cap.unwrap_or(self.config.root_cap);
            if !self.config.cache {
                let mut state = SharedState::default();
                self.solve_in(&request.spec, &mut state, root_filter, root_cap, start)?
            } else {
                self.check_fingerprint();
                self.mem.misses.fetch_add(1, Ordering::Relaxed);
                let solved = self.solve_shared_with(&request.spec, root_filter, root_cap, start);
                // Settle even on error: the solve may have grown shared
                // space/fronts that the next checkpoint should consider.
                self.mem.settled.fetch_add(1, Ordering::Relaxed);
                solved?
            }
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

    /// Synthesizes one component specification into a set of alternative
    /// library-specific implementations.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    #[deprecated(note = "use Dtas::run (deep-clone the Arc if you need an owned set)")]
    pub fn synthesize(&self, spec: &ComponentSpec) -> Result<DesignSet, SynthError> {
        let start = Instant::now();
        Self::deliver(&self.run(spec), start)
    }

    /// Like the retired `synthesize`, with `Arc` delivery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    #[deprecated(note = "use Dtas::run")]
    pub fn synthesize_shared(&self, spec: &ComponentSpec) -> Result<Arc<DesignSet>, SynthError> {
        self.run(spec)
    }

    /// Runs a [`SynthRequest`] with `Arc` delivery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    #[deprecated(note = "use Dtas::run")]
    pub fn synthesize_request_shared(
        &self,
        request: &SynthRequest,
    ) -> Result<Arc<DesignSet>, SynthError> {
        self.run(request)
    }

    fn synthesize_shared_from(
        &self,
        spec: &ComponentSpec,
        start: Instant,
    ) -> Result<Arc<DesignSet>, SynthError> {
        if !self.config.cache {
            // Ablation path: cold state per query, nothing retained.
            let mut state = SharedState::default();
            return self.synthesize_in(spec, &mut state, start).map(Arc::new);
        }
        self.check_fingerprint();
        let cell = self.mem.result_cell(spec);
        if let Some(result) = cell.get() {
            self.mem.hits.fetch_add(1, Ordering::Relaxed);
            return result.clone();
        }
        if let Some(result) = self.warm_materialize(spec) {
            // A persisted result, decoded on first request. It counts as
            // a hit (the answer came from the cache, not a solve); if
            // another client raced us to the cell, the bit-identical
            // first value stands.
            self.mem.hits.fetch_add(1, Ordering::Relaxed);
            return cell.get_or_init(|| result).clone();
        }
        let mut solved_here = false;
        let result = cell.get_or_init(|| {
            solved_here = true;
            self.mem.misses.fetch_add(1, Ordering::Relaxed);
            self.solve_shared(spec, start).map(Arc::new)
        });
        if solved_here {
            // Only now — with the result in its cell and the fronts
            // merged back — is this solve flushable; a checkpoint that
            // sampled mid-solve must not have marked it as flushed.
            self.mem.settled.fetch_add(1, Ordering::Relaxed);
        } else {
            // Another client solved this spec while we waited on the cell.
            self.mem.hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Runs a [`SynthRequest`] with owned delivery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run`](Self::run).
    #[deprecated(note = "use Dtas::run (deep-clone the Arc if you need an owned set)")]
    pub fn synthesize_request(&self, request: &SynthRequest) -> Result<DesignSet, SynthError> {
        let start = Instant::now();
        Self::deliver(&self.run(request), start)
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
        if !self.config.cache {
            // Ablation path: dedupe raw specs only (nothing is keyed).
            let mut distinct: Vec<&ComponentSpec> = Vec::new();
            let mut slot_of: HashMap<&ComponentSpec, usize> = HashMap::new();
            for spec in specs {
                if !slot_of.contains_key(spec) {
                    slot_of.insert(spec, distinct.len());
                    distinct.push(spec);
                }
            }
            let mut state = SharedState::default();
            let results = self.batch_in(&distinct, &mut state, start);
            return specs
                .iter()
                .map(|spec| results[slot_of[spec]].clone())
                .collect();
        }
        self.check_fingerprint();
        // Canonicalize every slot, then dedupe by canonical spec in
        // first-appearance order — padded/styled variants of one
        // canonical spec collapse onto a single solve here.
        let canonical: Vec<ComponentSpec> = specs
            .iter()
            .map(|spec| self.canon.canonical(spec, &self.rules, &self.library))
            .collect();
        let mut distinct: Vec<&ComponentSpec> = Vec::new();
        let mut slot_of: HashMap<&ComponentSpec, usize> = HashMap::new();
        for spec in &canonical {
            if !slot_of.contains_key(spec) {
                slot_of.insert(spec, distinct.len());
                distinct.push(spec);
            }
        }
        let results = self.batch_cached(&distinct, start);
        specs
            .iter()
            .zip(&canonical)
            .map(|(raw, canon_spec)| {
                canon::rewrite_result(results[slot_of[canon_spec]].clone(), raw, canon_spec)
            })
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

    /// Batch synthesis with owned delivery.
    #[deprecated(note = "use Dtas::run_batch (Arc delivery)")]
    pub fn synthesize_batch(&self, specs: &[ComponentSpec]) -> Vec<Result<DesignSet, SynthError>> {
        let start = Instant::now();
        self.run_batch(specs)
            .iter()
            .map(|result| Self::deliver(result, start))
            .collect()
    }

    /// Netlist synthesis with owned delivery.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_netlist`](Self::run_netlist).
    #[deprecated(note = "use Dtas::run_netlist (Arc delivery)")]
    pub fn synthesize_netlist(
        &self,
        netlist: &Netlist,
    ) -> Result<BTreeMap<String, DesignSet>, SynthError> {
        let start = Instant::now();
        let mut out = BTreeMap::new();
        for (key, set) in self.run_netlist(netlist)? {
            out.insert(key, Self::deliver(&Ok(set), start)?);
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Solve internals.

    /// Clones a memoized (or just-computed) result out to the caller,
    /// restamping the elapsed wall time with this call's own.
    fn deliver(
        result: &Result<Arc<DesignSet>, SynthError>,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        match result {
            Ok(set) => {
                let mut set = DesignSet::clone(set);
                set.stats.elapsed = start.elapsed();
                Ok(set)
            }
            Err(e) => Err(e.clone()),
        }
    }

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

    /// Expands a spec into a state's shared design space.
    fn expand_in(
        &self,
        spec: &ComponentSpec,
        state: &mut SharedState,
    ) -> Result<usize, SynthError> {
        state
            .space
            .expand(spec, &self.rules, &self.library, &state.models)
            .map_err(|e| match e {
                ExpandError::Cycle => SynthError::NoImplementation(spec.to_string()),
                other => SynthError::Expand(other.to_string()),
            })
    }

    /// Cold-solve pipeline over a private state (the ablation path and the
    /// fallback for taint-affected queries).
    fn synthesize_in(
        &self,
        spec: &ComponentSpec,
        state: &mut SharedState,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        self.solve_in(
            spec,
            state,
            self.config.root_filter,
            self.config.root_cap,
            start,
        )
    }

    /// Like [`synthesize_in`](Self::synthesize_in) with explicit root
    /// filter/cap (per-request overrides).
    fn solve_in(
        &self,
        spec: &ComponentSpec,
        state: &mut SharedState,
        root_filter: FilterPolicy,
        root_cap: usize,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        let root = self.expand_in(spec, state)?;
        let fronts = std::mem::take(&mut state.fronts);
        let mut solver = Solver::with_front_store(&state.space, self.solve_config(), fronts);
        solver.solve(root, &state.models);
        let result = self.assemble(
            spec,
            root,
            &state.space,
            &mut solver,
            &state.models,
            root_filter,
            root_cap,
            start,
        );
        state.fronts = solver.into_front_store();
        result
    }

    /// The shared-space cold path for one spec: expand under a brief
    /// exclusive lock, solve against a private snapshot with no lock held,
    /// then merge the solved fronts back.
    fn solve_shared(&self, spec: &ComponentSpec, start: Instant) -> Result<DesignSet, SynthError> {
        self.solve_shared_with(spec, self.config.root_filter, self.config.root_cap, start)
    }

    fn solve_shared_with(
        &self,
        spec: &ComponentSpec,
        root_filter: FilterPolicy,
        root_cap: usize,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        if self.chain_undecoded() {
            // Growing the live space would mis-align the chain's node
            // ids, and decoding the chain costs more than this solve:
            // solve privately, as a fresh engine would.
            let mut private = SharedState::default();
            return self.solve_in(spec, &mut private, root_filter, root_cap, start);
        }
        let (space, fronts, models, generation, root) = {
            let mut state = self.mem.write_state();
            let first_new = state.space.nodes.len();
            let root = self.expand_in(spec, &mut state)?;
            // Mutually-recursive rules drop whichever template closes a
            // cycle, so nodes expanded under an *earlier* root may carry a
            // different root's cuts; if this query's subgraph reaches any
            // such pre-existing node, solve it from a cold space instead
            // (identical to a fresh engine). The frozen result is
            // spec-keyed, so it is safe to memoize either way.
            if state.space.tainted_before(root, first_new) {
                drop(state);
                let mut cold = SharedState::default();
                return self.solve_in(spec, &mut cold, root_filter, root_cap, start);
            }
            (
                state.space.clone(),
                state.fronts.snapshot(),
                state.models.clone(),
                state.generation,
                root,
            )
        };
        let mut solver = Solver::with_front_store(&space, self.solve_config(), fronts);
        solver.solve(root, &models);
        let result = self.assemble(
            spec,
            root,
            &space,
            &mut solver,
            &models,
            root_filter,
            root_cap,
            start,
        );
        self.absorb_fronts(solver.into_front_store(), generation);
        result
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

    /// The cached batch path: serve memo hits, expand all cold specs under
    /// one exclusive lock, solve every untainted root in one bottom-up
    /// pass against a snapshot, then memoize.
    fn batch_cached(
        &self,
        distinct: &[&ComponentSpec],
        start: Instant,
    ) -> Vec<Result<Arc<DesignSet>, SynthError>> {
        let mut out: Vec<Option<Result<Arc<DesignSet>, SynthError>>> = vec![None; distinct.len()];
        let mut cells: Vec<Option<Arc<ResultCell>>> = vec![None; distinct.len()];
        let mut cold: Vec<usize> = Vec::new();
        for (i, spec) in distinct.iter().enumerate() {
            let cell = self.mem.result_cell(spec);
            if let Some(result) = cell.get() {
                self.mem.hits.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(result.clone());
            } else if let Some(result) = self.warm_materialize(spec) {
                // Persisted result decoded on first request — a hit,
                // exactly as in `synthesize_shared_from`.
                self.mem.hits.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(cell.get_or_init(|| result).clone());
            } else {
                cells[i] = Some(cell);
                cold.push(i);
            }
        }
        if !cold.is_empty() {
            let cold_specs: Vec<&ComponentSpec> = cold.iter().map(|&i| distinct[i]).collect();
            let solved = self.batch_shared(&cold_specs, start);
            for (&i, result) in cold.iter().zip(solved) {
                // Memoize through the cell: if another client raced us to
                // this spec, its (bit-identical) result stands and ours is
                // dropped. Either way this call solved, so it counts as a
                // miss.
                let cell = cells[i].take().expect("cold cell reserved");
                self.mem.misses.fetch_add(1, Ordering::Relaxed);
                let stored = cell.get_or_init(|| result);
                self.mem.settled.fetch_add(1, Ordering::Relaxed);
                out[i] = Some(stored.clone());
            }
        }
        out.into_iter()
            .map(|slot| slot.expect("every batch slot filled"))
            .collect()
    }

    /// Expands + solves a set of distinct cold specs against the shared
    /// space (snapshot solve, fronts merged back under the generation
    /// guard).
    fn batch_shared(
        &self,
        specs: &[&ComponentSpec],
        start: Instant,
    ) -> Vec<Result<Arc<DesignSet>, SynthError>> {
        if self.chain_undecoded() {
            // As in `solve_shared_with`: the batch shares one private
            // state instead of the undecoded chain's space.
            let mut private = SharedState::default();
            return self.batch_in(specs, &mut private, start);
        }
        let (space, fronts, models, generation, mut plan) = {
            let mut state = self.mem.write_state();
            let plan = self.expand_batch(specs, &mut state);
            (
                state.space.clone(),
                state.fronts.snapshot(),
                state.models.clone(),
                state.generation,
                plan,
            )
        };
        let solved = self.solve_batch(specs, &mut plan, &space, fronts, &models, start);
        self.absorb_fronts(solved, generation);
        self.finish_batch(specs, plan, start)
    }

    /// The private-state batch path (cache off, or an undecoded chain):
    /// one private state is still shared by the whole batch — batching
    /// *is* the single shared-space pass.
    fn batch_in(
        &self,
        distinct: &[&ComponentSpec],
        state: &mut SharedState,
        start: Instant,
    ) -> Vec<Result<Arc<DesignSet>, SynthError>> {
        let mut plan = self.expand_batch(distinct, state);
        let fronts = std::mem::take(&mut state.fronts);
        let solved = self.solve_batch(
            distinct,
            &mut plan,
            &state.space,
            fronts,
            &state.models,
            start,
        );
        state.fronts = solved;
        self.finish_batch(distinct, plan, start)
    }

    /// Expands every spec of a batch into `state`'s space, splitting the
    /// indices into solvable roots, taint-affected specs (cold fallback),
    /// and expansion failures (resolved on the spot).
    fn expand_batch(&self, specs: &[&ComponentSpec], state: &mut SharedState) -> BatchPlan {
        let mut plan = BatchPlan {
            results: vec![None; specs.len()],
            roots: Vec::new(),
            tainted: Vec::new(),
        };
        for (i, spec) in specs.iter().enumerate() {
            let first_new = state.space.nodes.len();
            match self.expand_in(spec, state) {
                Ok(root) if state.space.tainted_before(root, first_new) => plan.tainted.push(i),
                Ok(root) => plan.roots.push((i, root)),
                Err(e) => plan.results[i] = Some(Err(e)),
            }
        }
        plan
    }

    /// Solves all of a plan's roots in **one** bottom-up pass and
    /// assembles each design set; returns the grown front store for the
    /// caller to merge or keep.
    fn solve_batch(
        &self,
        specs: &[&ComponentSpec],
        plan: &mut BatchPlan,
        space: &DesignSpace,
        fronts: FrontStore,
        models: &SpecModelCache,
        start: Instant,
    ) -> FrontStore {
        let root_ids: Vec<usize> = plan.roots.iter().map(|&(_, root)| root).collect();
        let mut solver = Solver::with_front_store(space, self.solve_config(), fronts);
        solver.solve_many(&root_ids, models);
        for &(i, root) in &plan.roots {
            plan.results[i] = Some(
                self.assemble(
                    specs[i],
                    root,
                    space,
                    &mut solver,
                    models,
                    self.config.root_filter,
                    self.config.root_cap,
                    start,
                )
                .map(Arc::new),
            );
        }
        solver.into_front_store()
    }

    /// Resolves a plan's taint-affected specs from cold state (like
    /// `synthesize` does) and unwraps the per-slot results.
    fn finish_batch(
        &self,
        specs: &[&ComponentSpec],
        mut plan: BatchPlan,
        start: Instant,
    ) -> Vec<Result<Arc<DesignSet>, SynthError>> {
        for &i in &plan.tainted {
            let mut cold = SharedState::default();
            plan.results[i] = Some(self.synthesize_in(specs[i], &mut cold, start).map(Arc::new));
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

    /// Computes the root front of an already-solved root and assembles the
    /// design set (alternatives, space-size accounting, per-query stats).
    #[allow(clippy::too_many_arguments)]
    fn assemble(
        &self,
        spec: &ComponentSpec,
        root: usize,
        space: &DesignSpace,
        solver: &mut Solver,
        models: &SpecModelCache,
        root_filter: FilterPolicy,
        root_cap: usize,
        start: Instant,
    ) -> Result<DesignSet, SynthError> {
        let solve_truncated = solver.truncated_combinations;
        // Recompute the root under the (usually more permissive) root
        // filter; the node-filter front below it stays cached.
        let front = solver.root_front(root, models, root_filter, root_cap);
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
    /// Best-effort flush to the bound store when the engine solved
    /// anything new since the last [`checkpoint`](Dtas::checkpoint) (a
    /// pure-hit warm session, or one already checkpointed explicitly,
    /// stays clean and writes nothing). Skipped during panics so a
    /// failing test or crashing client never persists suspect state.
    fn drop(&mut self) {
        if std::thread::panicking() {
            return;
        }
        let unflushed = self.mem.settled.load(Ordering::Relaxed)
            > self.metrics.flushed_settled.load(Ordering::Relaxed);
        if self.store.is_some() && self.config.cache && unflushed {
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
    fn deprecated_entry_points_still_answer() {
        #![allow(deprecated)]
        let engine = engine();
        let owned = engine.synthesize(&add_spec(16)).unwrap();
        let shared = engine.synthesize_shared(&add_spec(16)).unwrap();
        assert_eq!(owned.alternatives.len(), shared.alternatives.len());
        let via_request = engine
            .synthesize_request(&SynthRequest::new(add_spec(16)))
            .unwrap();
        assert_eq!(owned.alternatives.len(), via_request.alternatives.len());
        let batch = engine.synthesize_batch(&[add_spec(16)]);
        assert_eq!(
            batch[0].as_ref().unwrap().alternatives.len(),
            owned.alternatives.len()
        );
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
            "styled variant must be served from the collapsed entry: {stats}"
        );
        assert!(stats.canonical_hits >= 1, "{stats}");
        assert!(stats.specs_collapsed >= 1, "{stats}");
        // The rewrite restores the caller's spec label; everything else
        // matches the collapsed solve.
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
        let report = engine.update_rules(RuleSet::standard().with_lsi_extensions());
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
        // Start without the LSI extensions, then add them: the ADD16
        // root gains an `lsi-carry-select-8` template (dirty), while
        // leaf nodes whose expansions are untouched stay warm.
        let mut engine = Dtas::builder(lsi_logic_subset())
            .rules(RuleSet::standard())
            .build();
        engine.run(add_spec(16)).unwrap();
        let warm = engine.cache_stats();
        let report = engine.update_rules(RuleSet::standard().with_lsi_extensions());
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
            compaction_ratio: 0.25,
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
