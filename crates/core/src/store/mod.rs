//! The engine storage layer: in-memory state and the on-disk segment
//! chains that let answers outlive the engine.
//!
//! [`Dtas`](crate::Dtas) keeps its hot state in a sharded in-memory store
//! (the private `mem` module). With
//! [`DtasConfig::persist_path`](crate::DtasConfig::persist_path) set it
//! also owns a [`PersistentStore`] on that directory and mirrors its
//! memoized whole-query answers there. The design space and its solved
//! fronts are never persisted: they stay with the engine that explored
//! them.
//!
//! Since format version 2 a key's persisted state is a **chain**: one
//! immutable *base* segment plus zero or more O(dirty) *delta* segments
//! (see the `segment` module). Since format version 5 a segment is its
//! header plus one section per memoized answer, each stored as its own
//! hierarchical netlist (see the `codec` module); since version 6 each
//! section tables its specs and names once. Loading yields a
//! validated but *undecoded* view of the chain: the base is
//! memory-mapped where the platform supports it, and the engine decodes
//! each stored answer only when its spec is first requested.
//!
//! A store serves one engine and keeps the one chain it loaded or last
//! wrote: its key, the append cursor, the specs it holds and its base and
//! delta sizes. One checkpoint decision, in the store, compares the
//! engine's answers with that chain. It skips when every answer is
//! already on the chain under the engine's current key, appends a delta
//! of the missing answers, or writes one fresh base: when there is no
//! chain under that key (a first flush, or a key change, rebind or
//! supersede since) or when the deltas have outgrown half the base (a
//! compaction).
//!
//! [`PersistentStore`] keeps chains as files in a directory (the
//! `--cache-dir` of the `dtas` CLI), so a restarted — or concurrent —
//! process warm-starts from a previous run's answers, sharing one
//! page-cache copy of the mapped base across processes.
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

use segment::WarmSource;
use std::fmt;

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

/// Why the store had no chain to offer, or what it found.
pub(crate) enum LoadOutcome {
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
    /// Nothing is stored under this key (a plain cold start, not an
    /// error).
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
    /// An answer section with an index past one of its tables or an
    /// inconsistent implementation DAG.
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

/// A structural defect in a persisted answer section: an index past one
/// of its tables, an inconsistent implementation DAG, or a template's
/// wiring arena out of order. DAG nodes and wiring nodes are numbered
/// bottom-up: children always precede their parent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AnswerDefect {
    /// A child reference that does not point below its parent.
    ChildNotBelowParent {
        /// The parent node.
        node: usize,
        /// The offending child reference.
        child: usize,
    },
    /// A spec index past the section's spec table.
    SpecOutOfRange {
        /// The offending index.
        index: usize,
        /// Specs the section holds.
        specs: usize,
    },
    /// A name symbol past the section's name table.
    SymbolOutOfRange {
        /// The offending symbol.
        index: usize,
        /// Names the section holds.
        symbols: usize,
    },
    /// A net index past its template's nets.
    NetOutOfRange {
        /// The template's position in the section.
        template: usize,
        /// The offending index.
        index: usize,
        /// Nets the template holds.
        nets: usize,
    },
    /// A wiring-node index past its template's wiring arena.
    NodeOutOfRange {
        /// The template's position in the section.
        template: usize,
        /// The offending index.
        index: usize,
        /// Wiring nodes the template holds.
        nodes: usize,
    },
    /// A concatenation whose parts run past its template's part table.
    PartOutOfRange {
        /// The template's position in the section.
        template: usize,
        /// The concatenation's wiring node.
        node: usize,
        /// Where its parts end.
        end: usize,
        /// Parts the template holds.
        parts: usize,
    },
    /// A wiring node that refers to itself or to a later node.
    WiringNotBelow {
        /// The template's position in the section.
        template: usize,
        /// The referring node.
        node: usize,
        /// The node it refers to.
        child: usize,
    },
    /// A wiring node referred to twice: by two nodes, pins or outputs.
    /// A template's wiring is a tree.
    WiringShared {
        /// The template's position in the section.
        template: usize,
        /// The node referred to twice.
        node: usize,
    },
    /// A wiring node nested deeper than a decode allows (64 levels).
    WiringTooDeep {
        /// The template's position in the section.
        template: usize,
        /// The node nested too deep.
        node: usize,
        /// Its depth, a leaf being 1.
        depth: usize,
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
            AnswerDefect::SpecOutOfRange { index, specs } => {
                write!(f, "spec index {index} past a table of {specs}")
            }
            AnswerDefect::SymbolOutOfRange { index, symbols } => {
                write!(f, "name symbol {index} past a table of {symbols}")
            }
            AnswerDefect::NetOutOfRange {
                template,
                index,
                nets,
            } => write!(f, "template {template} names net {index} of {nets}"),
            AnswerDefect::NodeOutOfRange {
                template,
                index,
                nodes,
            } => write!(
                f,
                "template {template} names wiring node {index} of {nodes}"
            ),
            AnswerDefect::PartOutOfRange {
                template,
                node,
                end,
                parts,
            } => write!(
                f,
                "template {template} wiring node {node} concatenates parts up to {end} of {parts}"
            ),
            AnswerDefect::WiringNotBelow {
                template,
                node,
                child,
            } => write!(
                f,
                "template {template} wiring node {node} refers to node {child}, not below it"
            ),
            AnswerDefect::WiringShared { template, node } => {
                write!(f, "template {template} refers to wiring node {node} twice")
            }
            AnswerDefect::WiringTooDeep {
                template,
                node,
                depth,
            } => write!(
                f,
                "template {template} wiring node {node} nests {depth} deep, past {}",
                codec::MAX_WIRING_DEPTH
            ),
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

/// A storage-layer failure (I/O only: a chain that fails to decode is a
/// [`Rejection`], not an error, because falling back cold is the designed
/// response).
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
