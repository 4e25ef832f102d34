//! Engine configuration.

use crate::space::FilterPolicy;
use rtl_base::hash::StableHasher;
use std::hash::Hash;
use std::path::PathBuf;

/// Configuration of a DTAS run.
#[derive(Clone, Debug)]
pub struct DtasConfig {
    /// Performance filter at internal spec nodes.
    pub node_filter: FilterPolicy,
    /// Alternatives kept per internal node.
    pub node_cap: usize,
    /// Performance filter at the root (the paper keeps near-optimal
    /// "favorable tradeoff" designs, not just the strict front).
    pub root_filter: FilterPolicy,
    /// Alternatives kept at the root.
    pub root_cap: usize,
    /// Cap on child-front combinations per template.
    pub max_combinations: usize,
    /// The `Some`/`None` threshold of the uniform-constraint design count
    /// ([`DesignSet::uniform_size`](crate::DesignSet::uniform_size)): a
    /// count above it is reported as `None`. The count is memoized
    /// (see [`DesignSpace::uniform_size`](crate::DesignSpace::uniform_size)),
    /// so this is no longer a CPU budget. 0 disables counting.
    pub uniform_count_limit: u64,
    /// No effect: every step of a cold solve, the uniform count
    /// included, runs serially on the calling thread.
    #[deprecated(note = "the cold solve is serial; the field has no effect")]
    pub threads: Option<usize>,
    /// Engine-level cross-query memoization: when on (the default),
    /// design spaces, node fronts and whole result sets persist inside
    /// [`Dtas`](crate::Dtas) across `synthesize` calls, so repeated
    /// specs — and shared sub-specs under *different* roots — are solved
    /// once per engine lifetime. Turn off to ablate (every query starts
    /// cold).
    pub cache: bool,
    /// Directory for the on-disk warm-start store. When set, the engine
    /// binds a [`PersistentStore`](crate::store::PersistentStore) on this
    /// directory: construction loads a compatible snapshot (design space,
    /// solved fronts, memoized results) if one exists, and the state is
    /// flushed back on drop or explicit
    /// [`checkpoint`](crate::Dtas::checkpoint). Snapshots are keyed by
    /// library, rule-set and configuration fingerprints plus the codec
    /// format version, so an incompatible snapshot is rejected and the
    /// engine simply starts cold. Ignored when `cache` is off.
    pub persist_path: Option<PathBuf>,
    /// Compaction trigger for the tiered store: when the accumulated
    /// delta segments exceed this fraction of the base segment's size,
    /// the next checkpoint rewrites a fresh base (folding the chain)
    /// instead of appending another delta. Lower values compact more
    /// eagerly (faster loads, more write amplification); higher values
    /// let chains grow longer. A non-finite or negative value compacts
    /// on every dirty checkpoint. Storage-only: excluded from
    /// [`result_fingerprint`](Self::result_fingerprint).
    pub compaction_ratio: f64,
    /// Opt-in static pre-flight: when on, flow entry points that accept
    /// external artifacts (the `hls-rtl-bridge` facade's `LinkedFlow::map`)
    /// run the [`analyze`](crate::analyze) netlist lints first and refuse
    /// inputs carrying Error-severity findings instead of feeding them to
    /// the engine. Off by default; it does not change what a query returns
    /// for *accepted* inputs, so it is excluded from
    /// [`result_fingerprint`](Self::result_fingerprint).
    pub strict_preflight: bool,
}

impl Default for DtasConfig {
    // `threads` is deprecated but still a field to fill in.
    #[allow(deprecated)]
    fn default() -> Self {
        DtasConfig {
            node_filter: FilterPolicy::Pareto,
            node_cap: 24,
            root_filter: FilterPolicy::Slack {
                area: 0.5,
                delay: 0.5,
            },
            root_cap: 16,
            max_combinations: 100_000,
            uniform_count_limit: 2_000_000,
            threads: None,
            cache: true,
            persist_path: None,
            compaction_ratio: 0.5,
            strict_preflight: false,
        }
    }
}

impl DtasConfig {
    /// Stable fingerprint over every field that shapes *results* (filters,
    /// caps, combination budget and count limit). `threads`, `cache` and
    /// `persist_path` are excluded on purpose: `threads` has no effect,
    /// and the storage knobs do not change what a query returns.
    /// Snapshots taken under a different result-shaping configuration
    /// must not be reused — their fronts were filtered differently — so
    /// this fingerprint is part of the snapshot key.
    pub fn result_fingerprint(&self) -> u64 {
        fn feed_filter(h: &mut StableHasher, filter: FilterPolicy) {
            match filter {
                FilterPolicy::Pareto => 0u8.hash(h),
                FilterPolicy::Slack { area, delay } => {
                    1u8.hash(h);
                    area.to_bits().hash(h);
                    delay.to_bits().hash(h);
                }
            }
        }
        StableHasher::digest_of(|h| {
            "dtas-config/1".hash(h);
            feed_filter(h, self.node_filter);
            (self.node_cap as u64).hash(h);
            feed_filter(h, self.root_filter);
            (self.root_cap as u64).hash(h);
            (self.max_combinations as u64).hash(h);
            self.uniform_count_limit.hash(h);
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(deprecated)] // `threads` stays out of the fingerprint until it is deleted
    fn fingerprint_tracks_result_shaping_fields_only() {
        let base = DtasConfig::default();
        let same = DtasConfig {
            threads: Some(7),
            cache: false,
            persist_path: Some(PathBuf::from("/tmp/x")),
            compaction_ratio: 0.1,
            strict_preflight: true,
            ..DtasConfig::default()
        };
        assert_eq!(base.result_fingerprint(), same.result_fingerprint());
        let capped = DtasConfig {
            node_cap: 8,
            ..DtasConfig::default()
        };
        assert_ne!(base.result_fingerprint(), capped.result_fingerprint());
        let refiltered = DtasConfig {
            root_filter: FilterPolicy::Pareto,
            ..DtasConfig::default()
        };
        assert_ne!(base.result_fingerprint(), refiltered.result_fingerprint());
    }
}
