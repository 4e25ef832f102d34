//! The on-disk chain store: generation-named segment files, atomic
//! publication, and the cache-directory inventory/GC that `dtas cache`
//! exposes.
//!
//! A key's chain lives as one base plus its deltas, all carrying a
//! *generation* number:
//!
//! ```text
//! dtas-v7-{lib:016x}-{rules:016x}-{cfg:016x}-{canon:016x}-g00000003.base
//! dtas-v7-{lib:016x}-{rules:016x}-{cfg:016x}-{canon:016x}-g00000003-d0001.delta
//! ```
//!
//! Every write goes to a dot-prefixed temporary in the same directory and
//! is `rename`d into place, so a concurrent reader sees whole files only.
//! A full save (including compaction) publishes generation *N+1* and then
//! best-effort unlinks generation ≤ N — readers that already mapped the
//! old base keep a consistent view (unlinked files survive their open
//! mappings on unix), readers listing the directory mid-prune simply
//! retry, and a crash between publish and prune leaves extra-but-valid
//! files that the next compaction or `dtas cache --gc` removes.
//!
//! Loads are fail-safe by construction: a missing chain is a cold start;
//! a chain that fails any header, checksum, fingerprint or link check is
//! [rejected](LoadOutcome::Rejected) with a reason and the engine falls
//! back to a clean cold solve. No damaged file can panic the decoder or
//! alter results.

use crate::engine::CheckpointOutcome;
use crate::store::codec::ResultEntry;
use crate::store::mmap::SegmentBytes;
use crate::store::{segment, LoadOutcome, Rejection, StoreError, StoreKey, FORMAT_VERSION};
use genus::spec::ComponentSpec;
use std::collections::{HashMap, HashSet};
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, SystemTime};

/// A dirty checkpoint folds the chain into one fresh base instead of
/// appending once its deltas have outgrown this fraction of its base.
const COMPACTION_RATIO: f64 = 0.5;

/// Monotonic discriminator for temporary file names, so concurrent saves
/// from one process never collide.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Orphaned temporaries younger than this are left alone at startup: they
/// may belong to a live writer mid-save. Anything older is a crash
/// leftover (a save takes milliseconds, not minutes).
const TMP_SWEEP_AGE: Duration = Duration::from_secs(15 * 60);

/// Process-unique id for a fresh base segment: deltas name it so a chain
/// can never mix segments from two different bases (e.g. two processes
/// compacting the same key back to back).
fn fresh_base_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut seed = Vec::with_capacity(24);
    seed.extend_from_slice(&(std::process::id() as u64).to_le_bytes());
    seed.extend_from_slice(&nanos.to_le_bytes());
    seed.extend_from_slice(&COUNTER.fetch_add(1, Ordering::Relaxed).to_le_bytes());
    rtl_base::hash::fnv1a_64(&seed)
}

/// The one chain this store loaded or last wrote: where the next delta
/// appends, which answers the chain holds, and the sizes the compaction
/// test weighs.
struct Chain {
    key: StoreKey,
    base_id: u64,
    generation: u32,
    next_seq: u32,
    last_link: u64,
    /// Specs whose answers the chain holds.
    specs: HashSet<ComponentSpec>,
    /// Encoded size of the base segment.
    base_bytes: u64,
    /// Total encoded size of the deltas appended to it.
    delta_bytes: u64,
}

/// The parsed name of one cache file (see the module docs for the
/// scheme).
struct SegmentName {
    version: u32,
    library: u64,
    rules: u64,
    config: u64,
    canon: u64,
    generation: u32,
    /// `None` for a base, `Some(seq)` for a delta.
    seq: Option<u32>,
}

impl SegmentName {
    fn key_tuple(&self) -> (u32, u64, u64, u64, u64) {
        (
            self.version,
            self.library,
            self.rules,
            self.config,
            self.canon,
        )
    }
}

fn key_stem(key: &StoreKey) -> String {
    format!(
        "dtas-v{}-{:016x}-{:016x}-{:016x}-{:016x}",
        key.format_version, key.library, key.rules, key.config, key.canon
    )
}

/// Parses `dtas-v{V}-{lib}-{rules}-{cfg}-{canon}-g{GEN}[-d{SEQ}].{base|delta}`,
/// plus the retired three-fingerprint v2 layout (no canon field — reported
/// with `canon: 0` so the GC can collect it as stale format). Returns
/// `None` for anything else (including the retired v1 `.snap` layout —
/// those are handled as stale-format files by the GC).
fn parse_segment_name(name: &str) -> Option<SegmentName> {
    let (stem, seq) = if let Some(stem) = name.strip_suffix(".base") {
        (stem, None)
    } else if let Some(stem) = name.strip_suffix(".delta") {
        let (stem, d) = stem.rsplit_once("-d")?;
        (stem, Some(d.parse::<u32>().ok().filter(|&s| s > 0)?))
    } else {
        return None;
    };
    let rest = stem.strip_prefix("dtas-v")?;
    let mut parts = rest.split('-');
    let version = parts.next()?.parse::<u32>().ok()?;
    // Fingerprint fields are zero-padded hex; the generation part starts
    // with a `g`, which no hex field can, so the two never collide.
    let mut fps = Vec::new();
    let mut generation: Option<u32> = None;
    for part in parts {
        if generation.is_some() {
            return None;
        }
        match part.strip_prefix('g') {
            Some(g) => generation = Some(g.parse::<u32>().ok()?),
            None => fps.push(u64::from_str_radix(part, 16).ok()?),
        }
    }
    let generation = generation?;
    let (library, rules, config, canon) = match fps.as_slice() {
        [l, r, c] => (*l, *r, *c, 0),
        [l, r, c, k] => (*l, *r, *c, *k),
        _ => return None,
    };
    Some(SegmentName {
        version,
        library,
        rules,
        config,
        canon,
        generation,
        seq,
    })
}

/// One key's chain as listed in a `--cache-dir`, for `dtas cache`.
#[derive(Clone, Debug)]
pub struct CacheKeyEntry {
    /// Format version the chain was written with.
    pub format_version: u32,
    /// Library fingerprint from the file name.
    pub library: u64,
    /// Rule-set fingerprint from the file name.
    pub rules: u64,
    /// Configuration fingerprint from the file name.
    pub config: u64,
    /// Canonicalization-scheme fingerprint from the file name (zero for
    /// chains written by the retired three-fingerprint layouts).
    pub canon: u64,
    /// Newest generation present for this key.
    pub generation: u32,
    /// Size of that generation's base segment.
    pub base_bytes: u64,
    /// Contiguous delta segments chained onto it.
    pub delta_count: usize,
    /// Their total size.
    pub delta_bytes: u64,
    /// Total bytes across *all* files for this key (stale generations and
    /// broken-chain leftovers included).
    pub total_bytes: u64,
    /// Seconds since the newest file for this key was modified.
    pub age_secs: u64,
    /// True when this build can read the chain (format version matches).
    pub current_format: bool,
}

/// Why the GC wants a file gone.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GcReason {
    /// A `.tmp` left behind by a crash between write and rename.
    OrphanTmp,
    /// A generation superseded by a newer base for the same key.
    StaleGeneration,
    /// A delta past a gap in its generation's sequence (or without a
    /// base) — unreachable by any load.
    BrokenChain,
    /// Written by a format version this build does not read.
    StaleFormat,
    /// The whole key is older than the requested retention age.
    Expired,
}

impl std::fmt::Display for GcReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GcReason::OrphanTmp => "orphan-tmp",
            GcReason::StaleGeneration => "stale-generation",
            GcReason::BrokenChain => "broken-chain",
            GcReason::StaleFormat => "stale-format",
            GcReason::Expired => "expired",
        })
    }
}

/// One file the GC would remove.
#[derive(Clone, Debug)]
pub struct GcItem {
    /// Absolute path of the doomed file.
    pub path: PathBuf,
    /// Its size, for reporting reclaimable space.
    pub bytes: u64,
    /// Why it is collectable.
    pub reason: GcReason,
}

/// A dry-run GC result: what would be removed and what stays.
#[derive(Clone, Debug, Default)]
pub struct GcPlan {
    /// Files to remove, with reasons.
    pub items: Vec<GcItem>,
    /// Cache files that survive the plan.
    pub kept: usize,
}

impl GcPlan {
    /// Total bytes the plan would reclaim.
    pub fn bytes(&self) -> u64 {
        self.items.iter().map(|i| i.bytes).sum()
    }
}

/// A directory of versioned segment chains: the warm-start store that
/// survives restarts and is shared across processes. See the module docs
/// for the file scheme and atomicity argument.
pub struct PersistentStore {
    dir: PathBuf,
    chain: Mutex<Option<Chain>>,
}

impl PersistentStore {
    /// A store rooted at `dir` (created on first save). Construction
    /// sweeps crash-orphaned temporary files older than fifteen minutes;
    /// younger ones may belong to a live writer and are left alone.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        let store = PersistentStore {
            dir: dir.into(),
            chain: Mutex::new(None),
        };
        store.sweep_orphan_tmp();
        store
    }

    /// The directory chains live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file a key's generation-`gen` base is stored at.
    fn base_path(&self, key: &StoreKey, gen: u32) -> PathBuf {
        self.dir.join(format!("{}-g{gen:08}.base", key_stem(key)))
    }

    /// The file a key's generation-`gen`, sequence-`seq` delta is stored
    /// at.
    fn delta_path(&self, key: &StoreKey, gen: u32, seq: u32) -> PathBuf {
        self.dir
            .join(format!("{}-g{gen:08}-d{seq:04}.delta", key_stem(key)))
    }

    fn lock_chain(&self) -> std::sync::MutexGuard<'_, Option<Chain>> {
        // A panic mid-save leaves only this process's append cursor
        // suspect; dropping it degrades the next checkpoint to a full
        // save, which is always correct.
        self.chain.lock().unwrap_or_else(|poisoned| {
            self.chain.clear_poison();
            let mut guard = poisoned.into_inner();
            *guard = None;
            guard
        })
    }

    /// Best-effort removal of crash-orphaned temporaries (see
    /// [`TMP_SWEEP_AGE`]). Never fails: a sweep problem must not block a
    /// warm start.
    fn sweep_orphan_tmp(&self) {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return;
        };
        let now = SystemTime::now();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if !(name.starts_with('.') && name.contains(".tmp-")) {
                continue;
            }
            let stale = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| now.duration_since(mtime).ok())
                .is_some_and(|age| age >= TMP_SWEEP_AGE);
            if stale {
                let _ = std::fs::remove_file(entry.path());
            }
        }
    }

    /// Writes `bytes` atomically at `path` via tmp-then-rename.
    fn publish(&self, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| StoreError::Io(format!("{}: {e}", self.dir.display())))?;
        let tmp = self.dir.join(format!(
            ".{}.tmp-{}-{}",
            path.file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("segment"),
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&tmp, bytes)
            .map_err(|e| StoreError::Io(format!("{}: {e}", tmp.display())))?;
        if let Err(e) = std::fs::rename(&tmp, path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::Io(format!("{}: {e}", path.display())));
        }
        Ok(())
    }

    /// All parsed segment names for `key`'s fingerprints (any version).
    fn list_key_files(&self, key: &StoreKey) -> Result<Vec<SegmentName>, std::io::Error> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(parsed) = parse_segment_name(name) else {
                continue;
            };
            if parsed.key_tuple()
                == (
                    key.format_version,
                    key.library,
                    key.rules,
                    key.config,
                    key.canon,
                )
            {
                out.push(parsed);
            }
        }
        Ok(out)
    }

    /// One load attempt. `Err(true)` asks the caller to retry (a listed
    /// file vanished under us — concurrent compaction pruned it);
    /// `Err(false)` is wrapped by the caller as a definitive rejection.
    fn try_load(&self, key: &StoreKey) -> Result<LoadOutcome, bool> {
        let files = match self.list_key_files(key) {
            Ok(files) => files,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(LoadOutcome::Missing),
            Err(e) => {
                return Ok(LoadOutcome::Rejected {
                    reason: Rejection::Unreadable(format!("{}: {e}", self.dir.display())),
                })
            }
        };
        let Some(gen) = files
            .iter()
            .filter(|f| f.seq.is_none())
            .map(|f| f.generation)
            .max()
        else {
            return Ok(LoadOutcome::Missing);
        };
        let base_path = self.base_path(key, gen);
        let base = match SegmentBytes::open(&base_path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == ErrorKind::NotFound => return Err(true),
            Err(e) => {
                return Ok(LoadOutcome::Rejected {
                    reason: Rejection::Unreadable(format!("{}: {e}", base_path.display())),
                })
            }
        };
        let mut max_seq = 0u32;
        for file in &files {
            if file.generation == gen {
                if let Some(seq) = file.seq {
                    max_seq = max_seq.max(seq);
                }
            }
        }
        let mut deltas = Vec::new();
        for seq in 1..=max_seq {
            let path = self.delta_path(key, gen, seq);
            match SegmentBytes::open(&path) {
                Ok(bytes) => deltas.push(bytes),
                // A gap (crash between delta writes, or concurrent
                // pruning): the contiguous prefix is a valid chain.
                Err(e) if e.kind() == ErrorKind::NotFound => break,
                Err(e) => {
                    return Ok(LoadOutcome::Rejected {
                        reason: Rejection::Unreadable(format!("{}: {e}", path.display())),
                    })
                }
            }
        }
        let loaded = deltas.len() as u32;
        let base_bytes = base.len() as u64;
        let delta_bytes = deltas.iter().map(|d| d.len() as u64).sum::<u64>();
        match segment::assemble_chain(base, deltas, key) {
            Ok(source) => {
                *self.lock_chain() = Some(Chain {
                    key: *key,
                    base_id: source.base_id(),
                    generation: gen,
                    next_seq: loaded + 1,
                    last_link: source.last_link(),
                    specs: source.specs().cloned().collect(),
                    base_bytes,
                    delta_bytes,
                });
                Ok(LoadOutcome::Loaded {
                    source: Box::new(source),
                    bytes: base_bytes + delta_bytes,
                })
            }
            Err(reason) => Ok(LoadOutcome::Rejected { reason }),
        }
    }

    /// Lists every chain in the directory, one entry per key, newest
    /// generation first by age.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be read (a missing
    /// directory is an empty inventory, not an error).
    pub fn inventory(&self) -> Result<Vec<CacheKeyEntry>, StoreError> {
        let scan = match self.scan() {
            Ok(scan) => scan,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", self.dir.display()))),
        };
        let now = SystemTime::now();
        let mut entries: Vec<CacheKeyEntry> = Vec::new();
        for ((version, library, rules, config, canon), files) in scan.keys {
            let gen = files
                .iter()
                .filter(|f| f.name.seq.is_none())
                .map(|f| f.name.generation)
                .max()
                .unwrap_or(0);
            let mut base_bytes = 0u64;
            let mut delta_bytes = 0u64;
            let mut delta_count = 0usize;
            let mut total_bytes = 0u64;
            let mut newest: Option<SystemTime> = None;
            let live = live_seqs(&files, gen);
            for file in &files {
                total_bytes += file.bytes;
                newest = match (newest, file.mtime) {
                    (None, t) => t,
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (some, None) => some,
                };
                if file.name.generation != gen {
                    continue;
                }
                match file.name.seq {
                    None => base_bytes = file.bytes,
                    Some(seq) if seq <= live => {
                        delta_count += 1;
                        delta_bytes += file.bytes;
                    }
                    Some(_) => {}
                }
            }
            let age_secs = newest
                .and_then(|t| now.duration_since(t).ok())
                .map(|d| d.as_secs())
                .unwrap_or(0);
            entries.push(CacheKeyEntry {
                format_version: version,
                library,
                rules,
                config,
                canon,
                generation: gen,
                base_bytes,
                delta_count,
                delta_bytes,
                total_bytes,
                age_secs,
                current_format: version == FORMAT_VERSION,
            });
        }
        entries.sort_by_key(|e| (e.library, e.rules, e.config, e.canon, e.format_version));
        Ok(entries)
    }

    /// Computes what a GC pass would remove: orphaned temporaries, stale
    /// generations, broken-chain leftovers, stale-format files, and —
    /// when `max_age` is given — whole keys older than it. Nothing is
    /// deleted; pass the plan to [`apply_gc`](Self::apply_gc).
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory cannot be read (a missing
    /// directory yields an empty plan).
    pub fn plan_gc(&self, max_age: Option<Duration>) -> Result<GcPlan, StoreError> {
        let scan = match self.scan() {
            Ok(scan) => scan,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(GcPlan::default()),
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", self.dir.display()))),
        };
        let now = SystemTime::now();
        let mut plan = GcPlan::default();
        for tmp in scan.tmps {
            let stale = tmp
                .mtime
                .and_then(|mtime| now.duration_since(mtime).ok())
                .is_some_and(|age| age >= TMP_SWEEP_AGE);
            if stale {
                plan.items.push(GcItem {
                    path: tmp.path,
                    bytes: tmp.bytes,
                    reason: GcReason::OrphanTmp,
                });
            } else {
                plan.kept += 1;
            }
        }
        for ((version, ..), files) in scan.keys {
            if version != FORMAT_VERSION {
                for file in files {
                    plan.items.push(GcItem {
                        path: file.path,
                        bytes: file.bytes,
                        reason: GcReason::StaleFormat,
                    });
                }
                continue;
            }
            let newest = files.iter().filter_map(|f| f.mtime).max();
            let expired = max_age.is_some_and(|limit| {
                newest
                    .and_then(|t| now.duration_since(t).ok())
                    .is_some_and(|age| age >= limit)
            });
            if expired {
                for file in files {
                    plan.items.push(GcItem {
                        path: file.path,
                        bytes: file.bytes,
                        reason: GcReason::Expired,
                    });
                }
                continue;
            }
            let gen = files
                .iter()
                .filter(|f| f.name.seq.is_none())
                .map(|f| f.name.generation)
                .max();
            let live = gen.map(|g| live_seqs(&files, g)).unwrap_or(0);
            for file in files {
                let reason = match (gen, file.name.seq) {
                    // Deltas with no base at all are unreachable.
                    (None, _) => Some(GcReason::BrokenChain),
                    (Some(g), _) if file.name.generation < g => Some(GcReason::StaleGeneration),
                    (Some(g), Some(seq)) if file.name.generation == g && seq > live => {
                        Some(GcReason::BrokenChain)
                    }
                    // A generation *above* the newest base's cannot occur
                    // from our writers; leave such files alone.
                    _ => None,
                };
                match reason {
                    Some(reason) => plan.items.push(GcItem {
                        path: file.path,
                        bytes: file.bytes,
                        reason,
                    }),
                    None => plan.kept += 1,
                }
            }
        }
        Ok(plan)
    }

    /// Removes every file in `plan`, returning the bytes reclaimed.
    /// Already-gone files (another process collected first) are counted
    /// as reclaimed, not errors.
    ///
    /// # Errors
    ///
    /// [`StoreError`] on the first removal the filesystem refuses.
    pub fn apply_gc(&self, plan: &GcPlan) -> Result<u64, StoreError> {
        let mut reclaimed = 0u64;
        for item in &plan.items {
            match std::fs::remove_file(&item.path) {
                Ok(()) => reclaimed += item.bytes,
                Err(e) if e.kind() == ErrorKind::NotFound => reclaimed += item.bytes,
                Err(e) => return Err(StoreError::Io(format!("{}: {e}", item.path.display()))),
            }
        }
        Ok(reclaimed)
    }

    fn scan(&self) -> Result<DirScan, std::io::Error> {
        let mut scan = DirScan::default();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let meta = entry.metadata().ok();
            let bytes = meta.as_ref().map(|m| m.len()).unwrap_or(0);
            let mtime = meta.and_then(|m| m.modified().ok());
            if name.starts_with('.') && name.contains(".tmp-") {
                scan.tmps.push(ScannedFile {
                    path,
                    bytes,
                    mtime,
                    name: SegmentName {
                        version: 0,
                        library: 0,
                        rules: 0,
                        config: 0,
                        canon: 0,
                        generation: 0,
                        seq: None,
                    },
                });
                continue;
            }
            // The retired v1 monolithic layout: collectable as stale
            // format.
            let parsed = parse_segment_name(name).or_else(|| parse_v1_snap_name(name));
            if let Some(parsed) = parsed {
                scan.keys
                    .entry(parsed.key_tuple())
                    .or_default()
                    .push(ScannedFile {
                        path,
                        bytes,
                        mtime,
                        name: parsed,
                    });
            }
        }
        Ok(scan)
    }
}

/// Parses the retired v1 layout `dtas-v{V}-{lib}-{rules}-{cfg}.snap`, so
/// pre-tiered snapshot files show up in the inventory and GC as
/// stale-format entries.
fn parse_v1_snap_name(name: &str) -> Option<SegmentName> {
    let stem = name.strip_suffix(".snap")?;
    let rest = stem.strip_prefix("dtas-v")?;
    let mut parts = rest.split('-');
    let version = parts.next()?.parse::<u32>().ok()?;
    let library = u64::from_str_radix(parts.next()?, 16).ok()?;
    let rules = u64::from_str_radix(parts.next()?, 16).ok()?;
    let config = u64::from_str_radix(parts.next()?, 16).ok()?;
    if parts.next().is_some() {
        return None;
    }
    Some(SegmentName {
        version,
        library,
        rules,
        config,
        canon: 0,
        generation: 0,
        seq: None,
    })
}

struct ScannedFile {
    path: PathBuf,
    bytes: u64,
    mtime: Option<SystemTime>,
    name: SegmentName,
}

#[derive(Default)]
struct DirScan {
    tmps: Vec<ScannedFile>,
    keys: HashMap<(u32, u64, u64, u64, u64), Vec<ScannedFile>>,
}

/// Highest delta sequence reachable without a gap in generation `gen`.
fn live_seqs(files: &[ScannedFile], gen: u32) -> u32 {
    let mut present: Vec<u32> = files
        .iter()
        .filter(|f| f.name.generation == gen)
        .filter_map(|f| f.name.seq)
        .collect();
    present.sort_unstable();
    let mut live = 0u32;
    for seq in present {
        if seq == live + 1 {
            live = seq;
        } else if seq > live {
            break;
        }
    }
    live
}

// The chain protocol the engine drives. Every method is fail-safe: `load`
// rejects (never panics, never a torn chain) anything it cannot fully
// validate, and every write publishes by rename, so a concurrent load sees
// whole files only.
impl PersistentStore {
    /// Fetches and validates the chain stored under `key`, if any. A
    /// loaded chain becomes the one this store appends to.
    pub(crate) fn load(&self, key: &StoreKey) -> LoadOutcome {
        // Two attempts: a file listed and then gone means a concurrent
        // compaction pruned under us; the retry sees the new generation.
        for _ in 0..2 {
            match self.try_load(key) {
                Ok(outcome) => return outcome,
                Err(_retry) => continue,
            }
        }
        LoadOutcome::Rejected {
            reason: Rejection::Unreadable(format!(
                "{}: cache directory changed concurrently during load",
                self.dir.display()
            )),
        }
    }

    /// Brings the chain under `key` up to date with `answers`, the
    /// engine's answers in spec order, and says what it wrote. The one
    /// place a checkpoint is decided:
    ///
    /// * **skipped** when this store holds a chain under `key` that
    ///   already has every answer;
    /// * **delta** when it holds one with answers missing: a segment of
    ///   just those is appended;
    /// * **full** otherwise, a fresh base that supersedes every older
    ///   generation: when no chain under `key` is held (a first flush, or
    ///   a key change, rebind or supersede since), or when the chain's
    ///   deltas have outgrown [`COMPACTION_RATIO`] of its base (a
    ///   compaction, flagged by the returned `bool`). A full save writes
    ///   what `prefault` returns: every answer, including those still
    ///   undecoded on a loaded chain, since the new base replaces it.
    ///   With no chain and no answers at all, nothing is written.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory refuses the write; encoding
    /// itself is infallible.
    pub(crate) fn checkpoint(
        &self,
        key: &StoreKey,
        answers: &[ResultEntry],
        prefault: impl FnOnce() -> Vec<ResultEntry>,
    ) -> Result<(CheckpointOutcome, bool), StoreError> {
        // Held across the write, so two checkpoints never interleave
        // their appends.
        let mut held = self.lock_chain();
        let mut compacting = None;
        if let Some(chain) = held.as_mut().filter(|chain| chain.key == *key) {
            let missing: Vec<ResultEntry> = answers
                .iter()
                .filter(|(spec, _)| !chain.specs.contains(spec))
                .cloned()
                .collect();
            if missing.is_empty() {
                return Ok((CheckpointOutcome::Skipped, false));
            }
            if chain.delta_bytes as f64 <= COMPACTION_RATIO * chain.base_bytes as f64 {
                let encoded = segment::encode_delta(
                    key,
                    chain.base_id,
                    chain.next_seq,
                    chain.last_link,
                    &missing,
                );
                let path = self.delta_path(key, chain.generation, chain.next_seq);
                self.publish(&path, &encoded.bytes)?;
                let report = encoded.report();
                chain.next_seq += 1;
                chain.last_link = encoded.header_checksum;
                chain.delta_bytes += report.bytes;
                chain
                    .specs
                    .extend(missing.into_iter().map(|(spec, _)| spec));
                return Ok((CheckpointOutcome::Delta(report), false));
            }
            compacting = Some(chain.generation);
        }
        let answers = prefault();
        if answers.is_empty() && compacting.is_none() {
            return Ok((CheckpointOutcome::Skipped, false));
        }
        let disk_gen = self
            .list_key_files(key)
            .ok()
            .and_then(|files| files.iter().map(|f| f.generation).max())
            .unwrap_or(0);
        let gen = disk_gen.max(compacting.unwrap_or(0)) + 1;
        let base_id = fresh_base_id();
        let encoded = segment::encode_base(key, base_id, &answers);
        self.publish(&self.base_path(key, gen), &encoded.bytes)?;
        // Published: prune superseded generations best-effort. Failures
        // leave valid-but-ignored files for the GC.
        if let Ok(files) = self.list_key_files(key) {
            for file in files.iter().filter(|f| f.generation < gen) {
                let path = match file.seq {
                    None => self.base_path(key, file.generation),
                    Some(seq) => self.delta_path(key, file.generation, seq),
                };
                let _ = std::fs::remove_file(path);
            }
        }
        let report = encoded.report();
        *held = Some(Chain {
            key: *key,
            base_id,
            generation: gen,
            next_seq: 1,
            last_link: encoded.header_checksum,
            specs: answers.into_iter().map(|(spec, _)| spec).collect(),
            base_bytes: report.bytes,
            delta_bytes: 0,
        });
        Ok((CheckpointOutcome::Full(report), compacting.is_some()))
    }

    /// Drops everything stored under `key`. The engine calls this from
    /// [`update_rules`](crate::Dtas::update_rules) when a rule change
    /// lands on the *same* fingerprint (the rule fingerprint hashes names
    /// and docs, not bodies), so the next checkpoint persists the
    /// invalidation instead of a stale chain shadowing it.
    ///
    /// # Errors
    ///
    /// [`StoreError`] when the directory refuses a removal.
    pub(crate) fn supersede(&self, key: &StoreKey) -> Result<(), StoreError> {
        // Forget the chain first: whatever happens on disk, this store
        // must never extend the superseded chain with a delta.
        *self.lock_chain() = None;
        let files = match self.list_key_files(key) {
            Ok(files) => files,
            Err(e) if e.kind() == ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(StoreError::Io(format!("{}: {e}", self.dir.display()))),
        };
        for file in files {
            let path = match file.seq {
                None => self.base_path(key, file.generation),
                Some(seq) => self.delta_path(key, file.generation, seq),
            };
            match std::fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == ErrorKind::NotFound => {}
                Err(e) => return Err(StoreError::Io(format!("{}: {e}", path.display()))),
            }
        }
        Ok(())
    }
}
