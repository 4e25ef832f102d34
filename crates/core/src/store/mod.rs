//! The engine storage layer: in-memory state, tiered segment chains, and
//! pluggable warm-start backends.
//!
//! [`Dtas`](crate::Dtas) keeps its hot state in a sharded in-memory store
//! (the private `mem` module) and can mirror its memoized whole-query
//! answers through the [`ResultStore`] trait to a backend that outlives
//! the engine. The design space and its solved fronts are never
//! persisted: they stay with the engine that explored them.
//!
//! Since format version 2 a key's persisted state is a **chain**: one
//! immutable *base* segment plus zero or more O(dirty) *delta* segments
//! (see the `segment` module). Since format version 5 a segment is its
//! header plus one section per memoized answer, each stored as its own
//! hierarchical netlist (see the `codec` module). Loading returns a
//! [`WarmSource`] — a validated but *undecoded* view of the chain: the
//! base is memory-mapped where the platform supports it, and the engine
//! decodes each stored answer only when its spec is first requested.
//! Saving is either a full base rewrite ([`ResultStore::save_full`], also
//! the compaction step) or an appended delta carrying just the engine's
//! [`DirtySet`] ([`ResultStore::save_delta`]).
//!
//! * [`PersistentStore`] keeps chains as files in a directory (the
//!   `--cache-dir` of the `dtas` CLI), so a restarted — or concurrent —
//!   process warm-starts from a previous run's answers, sharing one
//!   page-cache copy of the mapped base across processes;
//! * [`MemSnapshotStore`] holds encoded chains in memory, exercising the
//!   exact same segment/codec path — useful in tests and for handing
//!   warmed state between engines inside one process.
//!
//! Chains are keyed by [`StoreKey`]: codec [`FORMAT_VERSION`] plus the
//! library ([`CellLibrary::fingerprint`](cells::CellLibrary::fingerprint)),
//! rule-set ([`RuleSet::fingerprint`](crate::RuleSet::fingerprint)),
//! configuration
//! ([`DtasConfig::result_fingerprint`](crate::DtasConfig::result_fingerprint))
//! and canonicalization-scheme
//! ([`canon_fingerprint`](crate::canon_fingerprint)) fingerprints. A
//! chain written under *any* other combination is rejected at load —
//! never silently reused — and the engine starts cold, which is always
//! correct.

pub(crate) mod codec;
mod disk;
pub(crate) mod mem;
mod mmap;
pub(crate) mod segment;

pub use codec::FORMAT_VERSION;
pub use disk::{CacheKeyEntry, GcItem, GcPlan, GcReason, PersistentStore};
pub use segment::WarmSource;

use crate::report::DesignSet;
use crate::SynthError;
use genus::spec::ComponentSpec;
use mmap::SegmentBytes;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The compatibility key a chain is stored and validated under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// Codec [`FORMAT_VERSION`] the chain was written with.
    pub format_version: u32,
    /// [`CellLibrary::fingerprint`](cells::CellLibrary::fingerprint) of
    /// the target library.
    pub library: u64,
    /// [`RuleSet::fingerprint`](crate::RuleSet::fingerprint) of the rule
    /// base that expanded the space.
    pub rules: u64,
    /// [`DtasConfig::result_fingerprint`](crate::DtasConfig::result_fingerprint)
    /// of the filters/caps that shaped every front.
    pub config: u64,
    /// Fingerprint of the canonicalization scheme
    /// ([`canon_fingerprint`](crate::canon_fingerprint)) that picked the
    /// canonical specs whose answers the engine persists: specs stored
    /// under one scheme's canonical forms must never warm an engine
    /// running another.
    pub canon: u64,
}

/// The persistable engine state: the memoized whole-query answers. This
/// is what flows between the in-memory store and a [`ResultStore`]
/// backend.
pub struct EngineSnapshot {
    /// Memoized whole-query results in canonical (spec-sorted) order.
    pub(crate) results: Vec<(ComponentSpec, Result<Arc<DesignSet>, SynthError>)>,
}

impl EngineSnapshot {
    /// Number of memoized whole-query results (successes and failures).
    pub fn results(&self) -> usize {
        self.results.len()
    }
}

/// What an engine memoized since its last flush — the payload of a delta
/// checkpoint, O(dirty) rather than O(answers).
pub struct DirtySet {
    /// Indices into the snapshot's `results` of entries not yet flushed.
    pub result_indices: Vec<usize>,
}

/// Why a backend had no chain to offer, or what it found.
pub enum LoadOutcome {
    /// A compatible chain was validated. Decoding is lazy — see
    /// [`WarmSource`].
    Loaded {
        /// The validated chain, ready to serve an engine (boxed: a
        /// chain carries its segments, and the enum would otherwise
        /// dwarf `Missing`).
        source: Box<WarmSource>,
        /// Total encoded size (base + deltas), for
        /// [`CacheStats::snapshot_bytes`](crate::CacheStats::snapshot_bytes).
        bytes: u64,
    },
    /// The backend has nothing stored under this key (a plain cold
    /// start, not an error).
    Missing,
    /// Something was stored but failed validation — truncated, corrupt,
    /// a different format version, or mismatched fingerprints. The engine
    /// falls back to a clean cold solve.
    Rejected {
        /// The cause, kept by the engine (see
        /// [`Dtas::last_snapshot_rejection`](crate::Dtas::last_snapshot_rejection))
        /// and printed by `dtas map --stats`.
        reason: Rejection,
    },
}

/// Why a persisted chain, or one answer in it, was refused. Every
/// rejection falls back to a cold solve, which is always correct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Rejection {
    /// The chain was written by another codec [`FORMAT_VERSION`].
    FormatVersion {
        /// The version the segment header carries.
        found: u32,
        /// The version this build reads.
        supported: u32,
    },
    /// Intact bytes that belong to some other chain: mismatched
    /// fingerprints, a delta of another base, a broken chain link.
    Mismatch(String),
    /// Damaged bytes: truncation, a checksum mismatch, or a field no
    /// decoder accepts.
    Damaged(String),
    /// The backing medium could not be read.
    Unreadable(String),
    /// An answer section whose implementation DAG is inconsistent.
    Answer(AnswerDefect),
}

impl From<String> for Rejection {
    /// Decoder errors are damage unless a check says otherwise.
    fn from(reason: String) -> Self {
        Rejection::Damaged(reason)
    }
}

impl From<AnswerDefect> for Rejection {
    fn from(defect: AnswerDefect) -> Self {
        Rejection::Answer(defect)
    }
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::FormatVersion { found, supported } => {
                write!(f, "format version {found} (this build reads {supported})")
            }
            Rejection::Mismatch(m) | Rejection::Damaged(m) | Rejection::Unreadable(m) => {
                f.write_str(m)
            }
            Rejection::Answer(defect) => write!(f, "answer section: {defect}"),
        }
    }
}

/// A structural defect in a persisted answer's implementation DAG. DAG
/// nodes are numbered bottom-up: children always precede their parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnswerDefect {
    /// A child reference that does not point below its parent.
    ChildNotBelowParent {
        /// The parent node.
        node: usize,
        /// The offending child reference.
        child: usize,
    },
    /// A template index past the section's template table.
    TemplateOutOfRange {
        /// The netlist node.
        node: usize,
        /// The offending index.
        index: usize,
        /// Templates the section holds.
        templates: usize,
    },
    /// A netlist node whose child count differs from its template's
    /// module count.
    ChildCount {
        /// The netlist node.
        node: usize,
        /// Child references stored.
        children: usize,
        /// Modules the template instantiates.
        modules: usize,
    },
    /// A child that implements a different spec than its module asks for.
    ChildSpec {
        /// The netlist node.
        node: usize,
        /// The module (and child) position.
        module: usize,
    },
    /// An alternative whose root is out of range or implements a spec
    /// other than the answer's.
    Root {
        /// The alternative's position.
        alternative: usize,
    },
}

impl fmt::Display for AnswerDefect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnswerDefect::ChildNotBelowParent { node, child } => {
                write!(f, "child {child} not below node {node}")
            }
            AnswerDefect::TemplateOutOfRange {
                node,
                index,
                templates,
            } => write!(f, "node {node} names template {index} of {templates}"),
            AnswerDefect::ChildCount {
                node,
                children,
                modules,
            } => write!(
                f,
                "node {node} has {children} children for a template of {modules} modules"
            ),
            AnswerDefect::ChildSpec { node, module } => write!(
                f,
                "child {module} of node {node} implements another spec than its module"
            ),
            AnswerDefect::Root { alternative } => write!(
                f,
                "alternative {alternative} is rooted outside the answer's spec"
            ),
        }
    }
}

/// What a successful save wrote.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SaveReport {
    /// Encoded segment size in bytes.
    pub bytes: u64,
    /// Memoized answers (successes and failures) persisted.
    pub results: usize,
}

/// A storage-layer failure (I/O only: decoding problems surface as
/// [`LoadOutcome::Rejected`], not errors, because falling back cold is
/// the designed response).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// Reading or writing the backing medium failed.
    Io(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(m) => write!(f, "snapshot store i/o: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A pluggable snapshot backend: where engine state goes when it must
/// outlive the engine.
///
/// Implementations must be fail-safe: [`load`](Self::load) returns
/// [`LoadOutcome::Rejected`] (never panics, never a torn chain) for
/// anything it cannot fully validate, and both save paths must be atomic
/// with respect to concurrent loads (publish via rename or equivalent).
pub trait ResultStore: Send + Sync {
    /// Where this store keeps chains, for diagnostics.
    fn location(&self) -> String;

    /// Fetches and validates the chain stored under `key`, if any.
    fn load(&self, key: &StoreKey) -> LoadOutcome;

    /// Persists `snapshot` as a fresh base segment, starting a new chain
    /// that supersedes any previous one (this is also the compaction
    /// step: base + deltas fold into one segment).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the backing medium fails; encoding itself is
    /// infallible.
    fn save_full(
        &self,
        key: &StoreKey,
        snapshot: &EngineSnapshot,
    ) -> Result<SaveReport, StoreError>;

    /// Appends `dirty` as a delta segment onto the chain this store last
    /// wrote or loaded for `key`. Returns `Ok(None)` — asking the caller
    /// to fall back to [`save_full`](Self::save_full) — when there is no
    /// such chain.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the backing medium fails.
    fn save_delta(
        &self,
        key: &StoreKey,
        snapshot: &EngineSnapshot,
        dirty: &DirtySet,
    ) -> Result<Option<SaveReport>, StoreError>;

    /// Drops everything stored under `key`, best-effort. The engine calls
    /// this from [`update_rules`](crate::Dtas::update_rules) when a rule
    /// change lands on the *same* fingerprint (the rule fingerprint hashes
    /// names and docs, not bodies), so the next checkpoint persists the
    /// invalidation instead of a stale chain shadowing it. Backends that
    /// cannot delete may keep the default no-op: the worst case is a cold
    /// re-solve after the stale chain is rejected or overwritten.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the backing medium refuses the removal.
    fn supersede(&self, key: &StoreKey) -> Result<(), StoreError> {
        let _ = key;
        Ok(())
    }
}

/// Process-unique id for a fresh base segment: deltas name it so a chain
/// can never mix segments from two different bases (e.g. two processes
/// compacting the same key back to back).
pub(crate) fn fresh_base_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut seed = Vec::with_capacity(24);
    seed.extend_from_slice(&(std::process::id() as u64).to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    seed.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    rtl_base::hash::fnv1a_64(&seed)
}

/// One in-memory chain: the same segment bytes a [`PersistentStore`]
/// would put in files.
struct MemChain {
    base: Vec<u8>,
    base_id: u64,
    next_seq: u32,
    last_link: u64,
    deltas: Vec<Vec<u8>>,
}

/// An in-memory [`ResultStore`]: chains are held as *encoded segment
/// bytes* keyed by [`StoreKey`], so every load and save exercises the
/// same segment framing and validation path as [`PersistentStore`] — only
/// the medium (and the mmap) differs. Share one behind an [`Arc`] to hand
/// warmed state between engines in a single process without touching
/// disk.
#[derive(Default)]
pub struct MemSnapshotStore {
    slots: Mutex<HashMap<StoreKey, MemChain>>,
}

impl MemSnapshotStore {
    /// An empty store.
    pub fn new() -> Self {
        MemSnapshotStore::default()
    }

    /// Number of chains held.
    pub fn len(&self) -> usize {
        self.slots.lock().expect("snapshot slots poisoned").len()
    }

    /// True when nothing has been saved yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of delta segments currently chained under `key`.
    pub fn delta_count(&self, key: &StoreKey) -> usize {
        self.slots
            .lock()
            .expect("snapshot slots poisoned")
            .get(key)
            .map(|chain| chain.deltas.len())
            .unwrap_or(0)
    }
}

impl ResultStore for MemSnapshotStore {
    fn location(&self) -> String {
        "(in-memory)".to_string()
    }

    fn load(&self, key: &StoreKey) -> LoadOutcome {
        let (base, deltas) = {
            let slots = self.slots.lock().expect("snapshot slots poisoned");
            match slots.get(key) {
                Some(chain) => (chain.base.clone(), chain.deltas.clone()),
                None => return LoadOutcome::Missing,
            }
        };
        let bytes = (base.len() + deltas.iter().map(Vec::len).sum::<usize>()) as u64;
        let deltas = deltas.into_iter().map(SegmentBytes::Owned).collect();
        match segment::assemble_chain(SegmentBytes::Owned(base), deltas, key) {
            Ok(source) => LoadOutcome::Loaded {
                source: Box::new(source),
                bytes,
            },
            Err(reason) => LoadOutcome::Rejected { reason },
        }
    }

    fn save_full(
        &self,
        key: &StoreKey,
        snapshot: &EngineSnapshot,
    ) -> Result<SaveReport, StoreError> {
        let base_id = fresh_base_id();
        let encoded = segment::encode_base(snapshot, key, base_id);
        let report = SaveReport {
            bytes: encoded.bytes.len() as u64,
            results: encoded.results,
        };
        self.slots.lock().expect("snapshot slots poisoned").insert(
            *key,
            MemChain {
                base: encoded.bytes,
                base_id,
                next_seq: 1,
                last_link: encoded.header_checksum,
                deltas: Vec::new(),
            },
        );
        Ok(report)
    }

    fn save_delta(
        &self,
        key: &StoreKey,
        snapshot: &EngineSnapshot,
        dirty: &DirtySet,
    ) -> Result<Option<SaveReport>, StoreError> {
        let mut slots = self.slots.lock().expect("snapshot slots poisoned");
        let Some(chain) = slots.get_mut(key) else {
            return Ok(None);
        };
        let encoded = segment::encode_delta(
            snapshot,
            dirty,
            key,
            chain.base_id,
            chain.next_seq,
            chain.last_link,
        );
        let report = SaveReport {
            bytes: encoded.bytes.len() as u64,
            results: encoded.results,
        };
        chain.next_seq += 1;
        chain.last_link = encoded.header_checksum;
        chain.deltas.push(encoded.bytes);
        Ok(Some(report))
    }

    fn supersede(&self, key: &StoreKey) -> Result<(), StoreError> {
        self.slots
            .lock()
            .expect("snapshot slots poisoned")
            .remove(key);
        Ok(())
    }
}
