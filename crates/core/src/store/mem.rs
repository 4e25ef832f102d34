//! The engine's in-memory store: one shared design space plus the answer
//! table, the one place an answer lives.
//!
//! This is the hot-path half of the storage layer. It is its own module
//! so the memoized answers can be exported to the engine's
//! [`PersistentStore`](crate::store::PersistentStore) (see
//! [`MemStore::export_answers`]) without the engine knowing how
//! snapshots are encoded.
//!
//! The table is sharded and read-mostly, keyed by the *requested* spec.
//! A repeat query hashes its spec once, takes exactly one shard *read*
//! lock and clones out the stored `Arc` (never an exclusive lock); cold
//! queries expand under a brief exclusive lock and solve against
//! snapshots, and every acquisition recovers from poison by clearing the
//! affected state.

use crate::report::DesignSet;
use crate::space::{DesignSpace, FrontStore};
use crate::store::codec::ResultEntry;
use crate::store::segment::Section;
use crate::template::SpecModelCache;
use crate::SynthError;
use genus::spec::ComponentSpec;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of answer-table shards. Hit-path lookups only share a lock with
/// queries that hash to the same shard — and even those take it in read
/// mode, so hits never serialize.
const RESULT_SHARDS: usize = 16;

/// Cross-query synthesis state shared by every solve on one engine: the
/// growing design space, solved per-node fronts, and the spec-model
/// cache. Whole answers live outside, in the answer table.
#[derive(Default)]
pub(crate) struct SharedState {
    pub(crate) space: DesignSpace,
    pub(crate) fronts: FrontStore,
    pub(crate) models: Arc<SpecModelCache>,
    /// Bumped every time the space is reset (`clear_cache`, poison
    /// recovery). Node ids restart from 0 after a reset, so fronts solved
    /// against an older generation's ids must never be absorbed back —
    /// in-flight solvers check this before merging.
    pub(crate) generation: u64,
}

impl SharedState {
    /// Drops all cached state, invalidating every outstanding snapshot
    /// (their absorb-back becomes a no-op).
    pub(crate) fn reset(&mut self) {
        let generation = self.generation.wrapping_add(1);
        *self = SharedState {
            generation,
            ..SharedState::default()
        };
    }
}

/// One query's answer, as stored and handed out.
pub(crate) type SynthResult = Result<Arc<DesignSet>, SynthError>;

/// Where an entry's answer comes from while its cell is still empty.
pub(crate) enum Source {
    /// The spec is canonical: this engine solves it.
    Solve,
    /// The spec's answer is persisted in the loaded chain; it decodes on
    /// first request.
    Persisted(Section),
    /// The spec canonicalizes to this other spec: its answer is the
    /// canonical spec's, relabelled once for the requested spec.
    Alias(ComponentSpec),
}

/// One row of the answer table: the requested spec, its answer (set
/// once) and where that answer comes from. Concurrent first callers
/// block on the cell: one fills it, the rest are served its answer.
pub(crate) struct MemoEntry {
    pub(crate) spec: ComponentSpec,
    pub(crate) cell: OnceLock<SynthResult>,
    pub(crate) source: Source,
}

impl MemoEntry {
    fn new(spec: ComponentSpec, source: Source) -> Self {
        MemoEntry {
            spec,
            cell: OnceLock::new(),
            source,
        }
    }

    pub(crate) fn is_alias(&self) -> bool {
        matches!(self.source, Source::Alias(_))
    }

    /// A spec's own answer, solved, decoded or still pending on the
    /// chain: what is exported, persisted and invalidated as a result.
    /// Aliases never count.
    pub(crate) fn holds_answer(&self) -> bool {
        match self.source {
            Source::Solve => self.cell.get().is_some(),
            Source::Persisted(_) => true,
            Source::Alias(_) => false,
        }
    }
}

/// One shard of the answer table, keyed by the requested spec's hash.
type Table = HashMap<u64, Arc<MemoEntry>>;
type Shard = RwLock<Table>;

/// The sharded in-memory engine store: shared space/front state behind an
/// `RwLock`, the answer table behind [`RESULT_SHARDS`] read-mostly shards,
/// and the counters the engine reports via
/// [`CacheStats`](crate::CacheStats).
pub(crate) struct MemStore {
    state: RwLock<SharedState>,
    /// Hashes each requested spec once per probe; the hash picks the
    /// shard and keys the entry. Seeded per store, so no client can aim
    /// two specs at one key.
    hasher: RandomState,
    table: Vec<Shard>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// Requests answered through an alias.
    pub(crate) canonical_hits: AtomicU64,
    /// Aliases created: distinct requested specs that canonicalize to
    /// another spec.
    pub(crate) specs_collapsed: AtomicU64,
    pub(crate) shard_contention: AtomicU64,
    pub(crate) state_exclusive: AtomicU64,
    pub(crate) poison_recoveries: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            state: RwLock::new(SharedState::default()),
            hasher: RandomState::new(),
            table: (0..RESULT_SHARDS).map(|_| Shard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            canonical_hits: AtomicU64::new(0),
            specs_collapsed: AtomicU64::new(0),
            shard_contention: AtomicU64::new(0),
            state_exclusive: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }
}

impl MemStore {
    /// Exclusive access to the shared space/fronts. On poison the state is
    /// dropped and rebuilt before the guard is returned.
    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, SharedState> {
        self.state_exclusive.fetch_add(1, Ordering::Relaxed);
        match self.state.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.state.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.reset();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Shared access to the shared space/fronts, recovering on poison.
    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, SharedState> {
        loop {
            match self.state.read() {
                Ok(guard) => return guard,
                // A writer panicked: clear-and-rebuild via the write
                // path, then retry the read.
                Err(_) => drop(self.write_state()),
            }
        }
    }

    /// Exclusive access to one shard, clearing it on poison.
    fn shard_write<'a>(&self, shard: &'a Shard) -> RwLockWriteGuard<'a, Table> {
        match shard.write() {
            Ok(guard) => guard,
            Err(poisoned) => {
                shard.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
                guard
            }
        }
    }

    /// Shared access to one shard, recovering on poison.
    fn shard_read<'a>(&self, shard: &'a Shard) -> RwLockReadGuard<'a, Table> {
        loop {
            match shard.read() {
                Ok(guard) => return guard,
                Err(_) => drop(self.shard_write(shard)),
            }
        }
    }

    /// The hit probe: one hash of the requested spec, one shard read lock
    /// (`try_read` first, so contention is observable in
    /// [`CacheStats::shard_contention`](crate::CacheStats::shard_contention))
    /// and one `Arc` clone of the stored answer, `true` for an alias's;
    /// the caller counts the hit. Otherwise the spec's entry to fill,
    /// inserted from `source` unless another caller got there first. A
    /// spec whose 64-bit hash another spec holds gets an entry that is
    /// never stored: solved on every request, never answered wrongly.
    pub(crate) fn probe(
        &self,
        spec: &ComponentSpec,
        source: impl FnOnce() -> Source,
    ) -> Result<(SynthResult, bool), Arc<MemoEntry>> {
        let hash = self.hasher.hash_one(spec);
        let shard = &self.table[hash as usize % self.table.len()];
        let read = match shard.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.shard_contention.fetch_add(1, Ordering::Relaxed);
                self.shard_read(shard)
            }
            Err(std::sync::TryLockError::Poisoned(_)) => self.shard_read(shard),
        };
        if let Some(entry) = read.get(&hash).filter(|entry| entry.spec == *spec) {
            return match entry.cell.get() {
                Some(answer) => Ok((answer.clone(), entry.is_alias())),
                None => Err(Arc::clone(entry)),
            };
        }
        drop(read);
        let entry = Arc::new(MemoEntry::new(spec.clone(), source()));
        Err(match self.shard_write(shard).entry(hash) {
            Entry::Occupied(slot) if slot.get().spec == *spec => Arc::clone(slot.get()),
            Entry::Occupied(_) => entry,
            Entry::Vacant(slot) => {
                if entry.is_alias() {
                    self.specs_collapsed.fetch_add(1, Ordering::Relaxed);
                }
                Arc::clone(slot.insert(entry))
            }
        })
    }

    /// Every entry, cloned out shard by shard.
    pub(crate) fn entries(&self) -> Vec<Arc<MemoEntry>> {
        let mut entries = Vec::new();
        for shard in &self.table {
            entries.extend(self.shard_read(shard).values().cloned());
        }
        entries
    }

    /// Drops all cross-query synthesis state and resets every counter.
    pub(crate) fn clear(&self) {
        self.write_state().reset();
        for shard in &self.table {
            self.shard_write(shard).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.canonical_hits.store(0, Ordering::Relaxed);
        self.specs_collapsed.store(0, Ordering::Relaxed);
        self.shard_contention.store(0, Ordering::Relaxed);
        self.state_exclusive.store(0, Ordering::Relaxed);
        self.poison_recoveries.store(0, Ordering::Relaxed);
    }

    /// `(solved fronts, spec nodes)` under a shared state read.
    pub(crate) fn front_counts(&self) -> (usize, usize) {
        let state = self.read_state();
        (state.fronts.solved_count(), state.space.nodes.len())
    }

    /// `(cached, pending)`: specs' own `Ok` answers held (not aliases),
    /// and persisted answers not decoded yet.
    pub(crate) fn answer_counts(&self) -> (usize, usize) {
        let entries = self.entries();
        let count = |f: fn(&MemoEntry) -> bool| entries.iter().filter(|e| f(e)).count();
        (
            count(|e| !e.is_alias() && matches!(e.cell.get(), Some(Ok(_)))),
            count(|e| e.cell.get().is_none() && e.holds_answer()),
        )
    }

    /// Number of table shards (fixed per store).
    pub(crate) fn shard_count(&self) -> usize {
        self.table.len()
    }

    /// Drops every answer whose spec fails `keep`, and every alias's
    /// answer; with `links` an alias stays, empty, naming its canonical
    /// spec. Returns `(retained, dropped)` counts of specs' own answers,
    /// pending persisted ones included. Callers hold `&mut` on the
    /// engine, so no client can be mid-flight on a dropped entry.
    pub(crate) fn retain_answers(
        &self,
        keep: impl Fn(&ComponentSpec) -> bool,
        links: bool,
    ) -> (usize, usize) {
        let (mut retained, mut dropped) = (0, 0);
        for shard in &self.table {
            self.shard_write(shard).retain(|_, entry| {
                if let Source::Alias(canonical) = &entry.source {
                    let source = Source::Alias(canonical.clone());
                    *entry = Arc::new(MemoEntry::new(entry.spec.clone(), source));
                    return links;
                }
                let kept = keep(&entry.spec);
                let held = usize::from(entry.holds_answer());
                if kept {
                    retained += held;
                } else {
                    dropped += held;
                }
                kept
            });
        }
        (retained, dropped)
    }

    /// Copies the persistable state out: every spec's own answer that is
    /// set, in spec order. Aliases never leave the table, and neither do
    /// entries still being filled by an in-flight client (a later
    /// checkpoint persists them). Cheap relative to solving: each answer
    /// is an `Arc` bump.
    pub(crate) fn export_answers(&self) -> Vec<ResultEntry> {
        let mut results: Vec<ResultEntry> = self
            .entries()
            .iter()
            .filter(|entry| !entry.is_alias())
            .filter_map(|entry| Some((entry.spec.clone(), entry.cell.get()?.clone())))
            .collect();
        // Shard + HashMap iteration order is nondeterministic; keep the
        // export canonical so identical engine states encode to identical
        // bytes.
        results.sort_by(|(a, _), (b, _)| a.cmp(b));
        results
    }
}
