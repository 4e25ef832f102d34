//! The engine's in-memory store: one shared design space plus a sharded,
//! read-mostly result memo.
//!
//! This is the hot-path half of the storage layer. It is its own module
//! so the memoized answers can be exported to a
//! [`ResultStore`](crate::store::ResultStore) backend (see
//! [`EngineSnapshot`]) without the engine knowing how snapshots are
//! encoded or where they live.
//!
//! The locking discipline is unchanged from the pre-store engine and is
//! what the concurrency tests pin: memoized queries take exactly one
//! shard *read* lock (never an exclusive lock), cold queries expand under
//! a brief exclusive lock and solve against snapshots, and every
//! acquisition recovers from poison by clearing the affected state.

use crate::report::DesignSet;
use crate::space::{DesignSpace, FrontStore};
use crate::store::EngineSnapshot;
use crate::template::SpecModelCache;
use crate::SynthError;
use genus::spec::ComponentSpec;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Number of result-memo shards. Hit-path lookups only share a lock with
/// queries that hash to the same shard — and even those take it in read
/// mode, so hits never serialize.
const RESULT_SHARDS: usize = 16;

/// Cross-query synthesis state shared by every solve on one engine: the
/// growing design space, solved per-node fronts, and the spec-model
/// cache. Whole-result memoization lives outside, in the sharded memo.
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

/// A memoized whole-query result: set exactly once, then served to every
/// later caller. Concurrent first callers block on the cell (one solves,
/// the rest are served its result) instead of solving redundantly.
pub(crate) type ResultCell = OnceLock<Result<Arc<DesignSet>, SynthError>>;

type MemoShard = RwLock<HashMap<ComponentSpec, Arc<ResultCell>>>;

/// The sharded in-memory engine store: shared space/front state behind an
/// `RwLock`, whole-query results behind [`RESULT_SHARDS`] read-mostly
/// shards, and the contention/recovery counters the engine reports via
/// [`CacheStats`](crate::CacheStats).
pub(crate) struct MemStore {
    state: RwLock<SharedState>,
    memo: Vec<MemoShard>,
    pub(crate) hits: AtomicU64,
    pub(crate) misses: AtomicU64,
    /// Solves whose effects (memoized result, merged fronts) have fully
    /// landed in this store. `misses` increments when a solve *starts*,
    /// so the checkpoint skip/flush decision keys on this counter
    /// instead: a snapshot exported mid-solve must not mark that solve
    /// as flushed.
    pub(crate) settled: AtomicU64,
    pub(crate) shard_contention: AtomicU64,
    pub(crate) state_exclusive: AtomicU64,
    pub(crate) poison_recoveries: AtomicU64,
}

impl Default for MemStore {
    fn default() -> Self {
        MemStore {
            state: RwLock::new(SharedState::default()),
            memo: (0..RESULT_SHARDS).map(|_| MemoShard::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            settled: AtomicU64::new(0),
            shard_contention: AtomicU64::new(0),
            state_exclusive: AtomicU64::new(0),
            poison_recoveries: AtomicU64::new(0),
        }
    }
}

impl MemStore {
    pub(crate) fn new() -> Self {
        MemStore::default()
    }

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

    /// Exclusive access to one memo shard, clearing it on poison.
    fn shard_write<'a>(
        &self,
        shard: &'a MemoShard,
    ) -> RwLockWriteGuard<'a, HashMap<ComponentSpec, Arc<ResultCell>>> {
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

    /// Shared access to one memo shard, recovering on poison.
    fn shard_read<'a>(
        &self,
        shard: &'a MemoShard,
    ) -> RwLockReadGuard<'a, HashMap<ComponentSpec, Arc<ResultCell>>> {
        loop {
            match shard.read() {
                Ok(guard) => return guard,
                Err(_) => drop(self.shard_write(shard)),
            }
        }
    }

    fn shard_of(&self, spec: &ComponentSpec) -> &MemoShard {
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        spec.hash(&mut hasher);
        &self.memo[hasher.finish() as usize % self.memo.len()]
    }

    /// The memo cell for a spec, creating it if absent. The fast path is a
    /// shared read; `try_read` first so contention is observable in
    /// [`CacheStats::shard_contention`](crate::CacheStats::shard_contention).
    pub(crate) fn result_cell(&self, spec: &ComponentSpec) -> Arc<ResultCell> {
        let shard = self.shard_of(spec);
        let read = match shard.try_read() {
            Ok(guard) => guard,
            Err(std::sync::TryLockError::WouldBlock) => {
                self.shard_contention.fetch_add(1, Ordering::Relaxed);
                self.shard_read(shard)
            }
            Err(std::sync::TryLockError::Poisoned(_)) => self.shard_read(shard),
        };
        if let Some(cell) = read.get(spec) {
            return cell.clone();
        }
        drop(read);
        self.shard_write(shard)
            .entry(spec.clone())
            .or_default()
            .clone()
    }

    /// Drops all cross-query synthesis state and resets every counter.
    pub(crate) fn clear(&self) {
        self.write_state().reset();
        for shard in &self.memo {
            self.shard_write(shard).clear();
        }
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.settled.store(0, Ordering::Relaxed);
        self.shard_contention.store(0, Ordering::Relaxed);
        self.state_exclusive.store(0, Ordering::Relaxed);
        self.poison_recoveries.store(0, Ordering::Relaxed);
    }

    /// `(solved fronts, spec nodes)` under a shared state read.
    pub(crate) fn front_counts(&self) -> (usize, usize) {
        let state = self.read_state();
        (state.fronts.solved_count(), state.space.nodes.len())
    }

    /// Whole result sets currently memoized with an `Ok` value.
    pub(crate) fn cached_result_count(&self) -> usize {
        self.memo
            .iter()
            .map(|shard| {
                self.shard_read(shard)
                    .values()
                    .filter(|cell| matches!(cell.get(), Some(Ok(_))))
                    .count()
            })
            .sum()
    }

    /// Number of memo shards (fixed per store).
    pub(crate) fn shard_count(&self) -> usize {
        self.memo.len()
    }

    /// Drops every memoized result whose spec fails `keep`, returning
    /// `(retained, dropped)` counts of *settled* entries (empty cells —
    /// created by lookups that never solved — are filtered silently,
    /// they hold no answer to invalidate). Callers hold `&mut` on the
    /// engine, so no client can be mid-flight on a dropped cell.
    pub(crate) fn retain_results(&self, keep: impl Fn(&ComponentSpec) -> bool) -> (usize, usize) {
        let mut retained = 0;
        let mut dropped = 0;
        for shard in &self.memo {
            self.shard_write(shard).retain(|spec, cell| {
                let settled = cell.get().is_some();
                let keep = keep(spec);
                match (keep, settled) {
                    (true, true) => retained += 1,
                    (false, true) => dropped += 1,
                    _ => {}
                }
                keep
            });
        }
        (retained, dropped)
    }

    /// Copies the persistable state out: every *settled* memo entry
    /// (cells still being solved by an in-flight client are skipped —
    /// they will be persisted by a later checkpoint). Cheap relative to
    /// solving: each answer is an `Arc` bump.
    pub(crate) fn export_snapshot(&self) -> EngineSnapshot {
        let mut results: Vec<(ComponentSpec, Result<Arc<DesignSet>, SynthError>)> = Vec::new();
        for shard in &self.memo {
            for (spec, cell) in self.shard_read(shard).iter() {
                if let Some(result) = cell.get() {
                    results.push((spec.clone(), result.clone()));
                }
            }
        }
        // Shard + HashMap iteration order is nondeterministic; keep the
        // snapshot canonical so identical engine states encode to
        // identical bytes.
        results.sort_by(|(a, _), (b, _)| a.cmp(b));
        EngineSnapshot { results }
    }
}
