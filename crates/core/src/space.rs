//! The DTAS design space: an acyclic AND-OR graph over component
//! specifications.
//!
//! "This design space is represented as an acyclic graph. Nodes consist of
//! component specifications and alternative component implementations.
//! Each component implementation corresponds to a library cell or to a
//! netlist of modules." (paper §5)
//!
//! Specification nodes are OR nodes (pick one implementation); netlist
//! implementations are AND nodes (every module must be implemented).
//! Specs are memoized, so shared subproblems are expanded once.
//!
//! Search control implements the paper's two principles:
//!
//! 1. designs "containing two or more modules with the same component
//!    specification that are not instances of the same component
//!    implementation" are excluded — enforced by the policy-merge step of
//!    [`Solver`]: a design is a consistent *policy* mapping each reachable
//!    spec to exactly one implementation choice;
//! 2. *performance filters* keep only the best (area, delay) alternatives
//!    at every specification node ([`FilterPolicy`]).

use crate::cost::{CostScratch, Timing, TimingGraph};
use crate::rules::RuleSet;
use crate::template::{NetlistTemplate, SpecModelCache};
use cells::CellLibrary;
use genus::spec::ComponentSpec;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Index of a specification node in the design space.
pub type SpecId = usize;

/// A library-cell implementation choice.
#[derive(Clone, Debug)]
pub struct CellChoice {
    /// Data book cell name.
    pub cell: String,
    /// Cell area in gates.
    pub area: f64,
    /// Cell timing arcs.
    pub timing: Timing,
}

/// One alternative implementation of a specification.
///
/// A netlist choice carries its template and the template's
/// [`TimingGraph`], compiled once at expansion. Both are [`Arc`]-shared,
/// so cloning a choice (or a whole [`DesignSpace`]), extraction and
/// result cloning are pointer bumps, not deep copies, and every solve
/// costs against the one compiled graph.
#[derive(Clone, Debug)]
pub enum ImplChoice {
    /// Map directly to a library cell (a leaf of the hierarchy).
    Cell(CellChoice),
    /// Decompose into a netlist of modules.
    Netlist {
        /// The decomposition template.
        template: Arc<NetlistTemplate>,
        /// The template's compiled timing graph.
        graph: Arc<TimingGraph>,
    },
}

impl ImplChoice {
    /// A short human-readable label (cell name or rule name).
    pub fn label(&self) -> &str {
        match self {
            ImplChoice::Cell(c) => &c.cell,
            ImplChoice::Netlist { template, .. } => template.rule(),
        }
    }
}

/// An OR node: a specification plus its alternative implementations.
#[derive(Clone, Debug)]
pub struct SpecNode {
    /// The specification.
    pub spec: ComponentSpec,
    /// Alternative implementations.
    pub impls: Vec<ImplChoice>,
    /// For each implementation, the spec node of every module (aligned
    /// with the template's modules; empty for cells).
    pub children: Vec<Vec<SpecId>>,
}

/// Errors raised while expanding the design space.
#[derive(Clone, Debug, PartialEq)]
pub enum ExpandError {
    /// A rule generated a template that fails structural validation —
    /// always a rule-authoring bug, reported loudly.
    InvalidTemplate(String),
    /// A spec's model could not be built.
    BadSpec(String),
    /// Internal marker: the spec is an ancestor of itself (the offending
    /// template is skipped; this never escapes [`DesignSpace::expand`]).
    Cycle,
}

impl fmt::Display for ExpandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExpandError::InvalidTemplate(m) => write!(f, "invalid template: {m}"),
            ExpandError::BadSpec(m) => write!(f, "bad spec: {m}"),
            ExpandError::Cycle => write!(f, "cyclic decomposition"),
        }
    }
}

impl std::error::Error for ExpandError {}

/// The AND-OR design space.
///
/// `Clone` is cheap relative to solving: netlist templates and their
/// compiled timing graphs inside implementation choices are
/// [`Arc`]-shared, so a clone copies node and memo tables but no template
/// bodies or graphs. The engine clones the space to solve cold queries
/// against a private snapshot without holding the shared-state lock.
#[derive(Clone, Default)]
pub struct DesignSpace {
    /// All specification nodes.
    pub nodes: Vec<SpecNode>,
    pub(crate) memo: HashMap<ComponentSpec, SpecId>,
    /// Nodes that dropped a decomposition because it referenced an
    /// ancestor (a cyclic ruleset): their alternative lists depend on
    /// which root expanded them first, so cross-query caches must not
    /// serve results that reach them (see [`tainted_under`](Self::tainted_under)).
    pub(crate) tainted: HashSet<SpecId>,
}

impl DesignSpace {
    /// Creates an empty space.
    pub fn new() -> Self {
        DesignSpace::default()
    }

    /// The node id of a previously expanded spec.
    pub fn id_of(&self, spec: &ComponentSpec) -> Option<SpecId> {
        self.memo.get(spec).copied()
    }

    /// Expands a specification (and, recursively, every module spec it
    /// decomposes into), returning its node id. Already-expanded specs are
    /// returned from the memo.
    ///
    /// # Errors
    ///
    /// [`ExpandError::InvalidTemplate`] if a rule emits a structurally
    /// invalid template; [`ExpandError::BadSpec`] for unbuildable specs.
    pub fn expand(
        &mut self,
        spec: &ComponentSpec,
        rules: &RuleSet,
        library: &CellLibrary,
        cache: &SpecModelCache,
    ) -> Result<SpecId, ExpandError> {
        let mut in_progress = HashSet::new();
        self.expand_inner(spec, rules, library, cache, &mut in_progress)
    }

    /// Same as [`expand`](Self::expand): expansion is serial, so
    /// `threads` is ignored.
    ///
    /// # Errors
    ///
    /// Same conditions as [`expand`](Self::expand).
    #[deprecated(note = "expansion is serial; use `DesignSpace::expand`")]
    pub fn expand_threaded(
        &mut self,
        spec: &ComponentSpec,
        rules: &RuleSet,
        library: &CellLibrary,
        cache: &SpecModelCache,
        _threads: usize,
    ) -> Result<SpecId, ExpandError> {
        self.expand(spec, rules, library, cache)
    }

    fn expand_inner(
        &mut self,
        spec: &ComponentSpec,
        rules: &RuleSet,
        library: &CellLibrary,
        cache: &SpecModelCache,
        in_progress: &mut HashSet<ComponentSpec>,
    ) -> Result<SpecId, ExpandError> {
        if let Some(&id) = self.memo.get(spec) {
            return Ok(id);
        }
        if in_progress.contains(spec) {
            return Err(ExpandError::Cycle);
        }
        in_progress.insert(spec.clone());

        let mut impls = Vec::new();
        let mut children = Vec::new();

        // Technology mapping by functional match (paper §5): matching
        // cells become leaf implementations.
        for cell in library.implementers(spec) {
            let model = cache.model(&cell.spec).map_err(ExpandError::BadSpec)?;
            impls.push(ImplChoice::Cell(CellChoice {
                cell: cell.name.clone(),
                area: cell.area,
                timing: Timing::for_cell(cell, &model),
            }));
            children.push(Vec::new());
        }

        // Functional decomposition: every rule may contribute templates,
        // in rule order.
        let mut dropped_cycle = false;
        for template in rules.iter().flat_map(|r| r.expand(spec)) {
            let graph = TimingGraph::compile(&template, spec, cache)
                .map_err(|e| ExpandError::InvalidTemplate(e.to_string()))?;
            let mut ids = Vec::with_capacity(template.module_count());
            let mut ok = true;
            for module in template.modules() {
                match self.expand_inner(module.spec(), rules, library, cache, in_progress) {
                    Ok(id) => ids.push(id),
                    Err(ExpandError::Cycle) => {
                        ok = false;
                        dropped_cycle = true;
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
            if ok {
                impls.push(ImplChoice::Netlist {
                    template: Arc::new(template),
                    graph: Arc::new(graph),
                });
                children.push(ids);
            }
        }

        in_progress.remove(spec);
        let id = self.nodes.len();
        self.nodes.push(SpecNode {
            spec: spec.clone(),
            impls,
            children,
        });
        self.memo.insert(spec.clone(), id);
        if dropped_cycle {
            self.tainted.insert(id);
        }
        Ok(id)
    }

    /// True when any spec reachable from `root` dropped a decomposition
    /// during its first expansion because it referenced an ancestor.
    /// Cycle drops are routine (mutually-recursive rules terminate by
    /// dropping whichever template closes the cycle), and within one
    /// root's own expansion they are exactly the paper's acyclicity
    /// semantics — the hazard is only *reusing* such nodes under a
    /// different root, whose own traversal would have cut elsewhere.
    pub fn tainted_under(&self, root: SpecId) -> bool {
        self.tainted_before(root, usize::MAX)
    }

    /// Like [`tainted_under`](Self::tainted_under), but only counting
    /// tainted nodes with id below `first_new` — i.e., nodes that already
    /// existed before the current query started expanding (`first_new` =
    /// the space's node count at query start). Engines use this to decide
    /// whether a shared-space answer would diverge from a fresh engine's.
    pub fn tainted_before(&self, root: SpecId, first_new: SpecId) -> bool {
        !self.tainted.is_empty()
            && self
                .reachable(root)
                .iter()
                .any(|id| *id < first_new && self.tainted.contains(id))
    }

    /// The spec nodes reachable from `root` (through any implementation),
    /// in increasing id order. In an engine-shared space this is the
    /// subgraph one query actually owns.
    pub fn reachable(&self, root: SpecId) -> Vec<SpecId> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![root];
        seen[root] = true;
        while let Some(id) = stack.pop() {
            for kids in &self.nodes[id].children {
                for &k in kids {
                    if !seen[k] {
                        seen[k] = true;
                        stack.push(k);
                    }
                }
            }
        }
        (0..self.nodes.len()).filter(|&i| seen[i]).collect()
    }

    /// The *unconstrained* design-space size: the "product of the number
    /// of alternative implementations for each module in the netlist"
    /// (paper §5), i.e. every module occurrence chooses independently.
    /// Returned as `f64` because the number routinely reaches millions.
    pub fn unconstrained_size(&self, root: SpecId) -> f64 {
        let mut memo = vec![None; self.nodes.len()];
        self.unconstrained_inner(root, &mut memo)
    }

    fn unconstrained_inner(&self, id: SpecId, memo: &mut Vec<Option<f64>>) -> f64 {
        if let Some(v) = memo[id] {
            return v;
        }
        // Mark in progress to break (impossible) cycles defensively.
        memo[id] = Some(0.0);
        let node = &self.nodes[id];
        let mut total = 0.0;
        for (choice, child_ids) in node.impls.iter().zip(&node.children) {
            match choice {
                ImplChoice::Cell(_) => total += 1.0,
                ImplChoice::Netlist { .. } => {
                    let mut prod = 1.0;
                    for &cid in child_ids {
                        prod *= self.unconstrained_inner(cid, memo);
                        if prod == 0.0 {
                            break;
                        }
                    }
                    total += prod;
                }
            }
        }
        memo[id] = Some(total);
        total
    }

    /// `log10` of the unconstrained design-space size, computed in the log
    /// domain so it stays finite even when the plain product overflows
    /// `f64` (as it does for the 64-bit ALU).
    pub fn unconstrained_log10(&self, root: SpecId) -> f64 {
        let mut memo = vec![None; self.nodes.len()];
        self.unconstrained_log10_inner(root, &mut memo)
    }

    fn unconstrained_log10_inner(&self, id: SpecId, memo: &mut Vec<Option<f64>>) -> f64 {
        if let Some(v) = memo[id] {
            return v;
        }
        memo[id] = Some(f64::NEG_INFINITY); // log10(0) while in progress
        let node = &self.nodes[id];
        let mut logs: Vec<f64> = Vec::with_capacity(node.impls.len());
        for (choice, child_ids) in node.impls.iter().zip(&node.children) {
            match choice {
                ImplChoice::Cell(_) => logs.push(0.0),
                ImplChoice::Netlist { .. } => {
                    let mut sum = 0.0;
                    for &cid in child_ids {
                        sum += self.unconstrained_log10_inner(cid, memo);
                        if sum == f64::NEG_INFINITY {
                            break;
                        }
                    }
                    logs.push(sum);
                }
            }
        }
        let m = logs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let value = if m == f64::NEG_INFINITY {
            f64::NEG_INFINITY
        } else {
            m + (logs.iter().map(|&l| 10f64.powf(l - m)).sum::<f64>()).log10()
        };
        memo[id] = Some(value);
        value
    }

    /// Counts consistent designs under the uniform-implementation
    /// constraint only (no performance filter): `Some(count)` when the
    /// count is at most `limit`, `None` otherwise.
    ///
    /// The count is defined by a policy DFS from the root: pop the next
    /// unassigned spec off a pending stack, try each of its alternatives
    /// with that alternative's unassigned modules pushed, and count one
    /// design whenever the stack holds nothing unassigned. The DFS drops
    /// the already-assigned entries it pops and never restores them on
    /// backtrack, so it overcounts; the number feeds answer fingerprints,
    /// so this reproduces it exactly, overcount included. It does so
    /// without enumerating the designs: each DFS call is memoized on
    /// everything it can observe — its exact pending stack and which
    /// nodes reachable from that stack are assigned — together with the
    /// designs it counted and the stack it left behind, so a sub-state
    /// the DFS reaches again is answered from the table. The memo lives
    /// for one count. `limit` only decides between `Some` and `None`: the
    /// count stops as soon as its running total passes it.
    pub fn uniform_size(&self, root: SpecId, limit: u64) -> Option<u64> {
        UniformCount::new(self, root, limit).run()
    }

    /// Same as [`uniform_size`](Self::uniform_size): the count is serial,
    /// so `threads` is ignored.
    #[deprecated(note = "the uniform count is serial; use `DesignSpace::uniform_size`")]
    pub fn uniform_size_threaded(&self, root: SpecId, limit: u64, _threads: usize) -> Option<u64> {
        self.uniform_size(root, limit)
    }
}

/// The DFS behind [`DesignSpace::uniform_size`], over a dense renumbering
/// of the root's reachable nodes (ids in increasing order, so children
/// precede parents and the root comes last).
struct UniformCount {
    /// Node `v`'s alternatives are `alts[v]..alts[v + 1]`.
    alts: Vec<u32>,
    /// Alternative `a`'s modules are `kids[mods[a]..mods[a + 1]]`.
    mods: Vec<u32>,
    kids: Vec<u32>,
    /// Node `v`'s reach (itself included) is the bitset of `words` words
    /// at `v * words`, `words` covering one bit per node.
    reach: Vec<u64>,
    /// The nodes the DFS has assigned an alternative.
    assigned: Vec<u64>,
    limit: u64,
    /// Designs counted so far.
    total: u64,
    memo: CallMemo,
}

impl UniformCount {
    fn new(space: &DesignSpace, root: SpecId, limit: u64) -> Self {
        let order = space.reachable(root);
        let words = order.len().div_ceil(64);
        let mut dense = vec![u32::MAX; space.nodes.len()];
        let mut count = UniformCount {
            alts: vec![0],
            mods: vec![0],
            kids: Vec::new(),
            reach: vec![0; order.len() * words],
            assigned: vec![0; words],
            limit,
            total: 0,
            memo: CallMemo::new(words),
        };
        for (v, &id) in order.iter().enumerate() {
            dense[id] = v as u32;
            let (below, own) = count.reach.split_at_mut(v * words);
            let own = &mut own[..words];
            own[v / 64] |= 1 << (v % 64);
            for modules in &space.nodes[id].children {
                for &child in modules {
                    let k = dense[child] as usize;
                    assert!(k < v, "children precede their parents");
                    count.kids.push(k as u32);
                    for (r, c) in own.iter_mut().zip(&below[k * words..][..words]) {
                        *r |= c;
                    }
                }
                count.mods.push(count.kids.len() as u32);
            }
            count.alts.push(count.mods.len() as u32 - 1);
        }
        count
    }

    fn run(mut self) -> Option<u64> {
        let root = self.alts.len() as u32 - 2;
        self.call(&mut vec![root]).then_some(self.total)
    }

    fn is_assigned(&self, v: u32) -> bool {
        self.assigned[v as usize / 64] >> (v % 64) & 1 == 1
    }

    fn flip(&mut self, v: u32) {
        self.assigned[v as usize / 64] ^= 1 << (v % 64);
    }

    /// Adds `designs` to the total; false once it passes the limit.
    fn add(&mut self, designs: u64) -> bool {
        self.total = self.total.saturating_add(designs);
        self.total <= self.limit
    }

    /// One DFS call on `pending`, leaving `pending` as the DFS leaves it;
    /// false when the count gave up.
    fn call(&mut self, pending: &mut Vec<u32>) -> bool {
        if pending.iter().all(|&v| self.is_assigned(v)) {
            pending.clear();
            return self.add(1);
        }
        let (hash, key) = self.memo.stage(pending, &self.reach, &self.assigned);
        if let Some(designs) = self.memo.replay(hash, key, pending) {
            return self.add(designs);
        }
        let (before, depth) = (self.total, pending.len());
        let next = loop {
            let v = pending.pop().expect("an unassigned entry is pending");
            if !self.is_assigned(v) {
                break v;
            }
        };
        // A dead spec has no alternatives: nothing completes through it.
        for alt in self.alts[next as usize]..self.alts[next as usize + 1] {
            self.flip(next);
            let mark = pending.len();
            for i in self.mods[alt as usize]..self.mods[alt as usize + 1] {
                let kid = self.kids[i as usize];
                if !self.is_assigned(kid) {
                    pending.push(kid);
                }
            }
            let complete = self.call(pending);
            pending.truncate(mark);
            self.flip(next);
            if !complete {
                return false;
            }
        }
        pending.push(next);
        self.memo
            .insert(hash, key, depth, self.total - before, pending);
        true
    }
}

/// The memo of one [`UniformCount`]: every completed call's key (its
/// entry stack, then the assigned bits of the nodes that stack reaches)
/// and exit stack sit in two arenas, found through a table from the key's
/// hash to a chain of entries.
struct CallMemo {
    /// Scratch: the reach of the stack being keyed, one bit per node.
    mask: Vec<u64>,
    /// Keys; the masked bitset words are stored as low/high halves.
    keys: Vec<u32>,
    /// Exit-stack tails.
    exits: Vec<u32>,
    entries: Vec<MemoEntry>,
    /// Power-of-two bucket table: the first entry of each chain.
    heads: Vec<u32>,
}

struct MemoEntry {
    hash: u64,
    /// Start of the key in `keys`.
    key: u32,
    /// Entry stack length.
    depth: u32,
    designs: u64,
    /// The exit stack is the entry stack's first `keep` entries followed
    /// by `exits[tail..tail_end]`.
    keep: u32,
    tail: u32,
    tail_end: u32,
    /// Next entry in the chain.
    next: u32,
}

impl CallMemo {
    const END: u32 = u32::MAX;

    fn new(words: usize) -> Self {
        CallMemo {
            mask: vec![0; words],
            keys: Vec::new(),
            exits: Vec::new(),
            entries: Vec::new(),
            heads: vec![CallMemo::END; 256],
        }
    }

    /// Appends the key of a call on `pending` to the key arena; returns
    /// its hash and start.
    fn stage(&mut self, pending: &[u32], reach: &[u64], assigned: &[u64]) -> (u64, usize) {
        let words = self.mask.len();
        self.mask.fill(0);
        for &v in pending {
            for (m, r) in self
                .mask
                .iter_mut()
                .zip(&reach[v as usize * words..][..words])
            {
                *m |= r;
            }
        }
        let start = self.keys.len();
        let mut hash = pending.len() as u64;
        for &v in pending {
            hash = mix(hash, u64::from(v));
        }
        self.keys.extend_from_slice(pending);
        for (m, a) in self.mask.iter().zip(assigned) {
            let bits = m & a;
            hash = mix(hash, bits);
            self.keys.extend([bits as u32, (bits >> 32) as u32]);
        }
        (hash, start)
    }

    fn bucket(&self, hash: u64) -> usize {
        (hash >> (64 - self.heads.len().trailing_zeros())) as usize
    }

    /// On a hit for the key staged at `key`, unstages it, sets `pending`
    /// to the entry's exit stack and returns its design count.
    fn replay(&mut self, hash: u64, key: usize, pending: &mut Vec<u32>) -> Option<u64> {
        let staged = &self.keys[key..];
        let mut at = self.heads[self.bucket(hash)];
        while at != CallMemo::END {
            let entry = &self.entries[at as usize];
            if entry.hash == hash
                && entry.depth as usize == pending.len()
                && self.keys[entry.key as usize..][..staged.len()] == *staged
            {
                pending.truncate(entry.keep as usize);
                pending
                    .extend_from_slice(&self.exits[entry.tail as usize..entry.tail_end as usize]);
                self.keys.truncate(key);
                return Some(entry.designs);
            }
            at = entry.next;
        }
        None
    }

    /// Records a completed call: the key staged at `key` for a stack of
    /// `depth` entries, the designs it counted and the stack it left.
    fn insert(&mut self, hash: u64, key: usize, depth: usize, designs: u64, exit: &[u32]) {
        let keep = exit
            .iter()
            .zip(&self.keys[key..key + depth])
            .take_while(|(a, b)| a == b)
            .count();
        let offset = |n: usize| u32::try_from(n).expect("memo offsets fit in u32");
        let tail = offset(self.exits.len());
        self.exits.extend_from_slice(&exit[keep..]);
        if self.entries.len() >= self.heads.len() {
            self.grow();
        }
        let bucket = self.bucket(hash);
        self.entries.push(MemoEntry {
            hash,
            key: offset(key),
            depth: offset(depth),
            designs,
            keep: offset(keep),
            tail,
            tail_end: offset(self.exits.len()),
            next: self.heads[bucket],
        });
        self.heads[bucket] = offset(self.entries.len() - 1);
    }

    fn grow(&mut self) {
        self.heads = vec![CallMemo::END; self.heads.len() * 2];
        for at in 0..self.entries.len() {
            let bucket = self.bucket(self.entries[at].hash);
            self.entries[at].next = self.heads[bucket];
            self.heads[bucket] = at as u32;
        }
    }
}

/// One step of the memo's key hash (a multiply-rotate mix).
fn mix(hash: u64, word: u64) -> u64 {
    (hash.rotate_left(26) ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Performance-filter policy applied at each specification node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FilterPolicy {
    /// Keep exactly the Pareto-optimal set.
    Pareto,
    /// Keep near-optimal points too: a point is evicted only when another
    /// point is at least as good in both dimensions *and* better than the
    /// given fractional slack in one ("favorable tradeoffs", paper §6).
    Slack {
        /// Fractional area slack (e.g. `0.10` = 10%).
        area: f64,
        /// Fractional delay slack.
        delay: f64,
    },
}

/// A design's implementation choices: a flat, dense map from [`SpecId`]
/// to the chosen implementation index.
///
/// Stored as a `Vec<u32>` indexed by spec id with `u32::MAX` as the unset
/// sentinel, so the solver's inner Cartesian-product merge is a linear
/// scan over two dense arrays instead of an ordered-map clone-and-probe.
/// Slots past the end of the vector are unset, which lets policies built
/// against an older (smaller) snapshot of a growing [`DesignSpace`] merge
/// with newer ones.
#[derive(Clone, Default)]
pub struct Policy {
    slots: Vec<u32>,
}

impl Policy {
    const UNSET: u32 = u32::MAX;

    /// Creates an empty policy (every spec unset).
    pub fn new() -> Self {
        Policy::default()
    }

    /// The implementation choice for a spec, if assigned.
    pub fn get(&self, id: SpecId) -> Option<usize> {
        match self.slots.get(id) {
            Some(&v) if v != Policy::UNSET => Some(v as usize),
            _ => None,
        }
    }

    /// Assigns the implementation choice for a spec.
    ///
    /// # Panics
    ///
    /// Panics if `choice` does not fit the dense encoding (≥ `u32::MAX`);
    /// real nodes have a handful of alternatives.
    pub fn set(&mut self, id: SpecId, choice: usize) {
        assert!((choice as u64) < Policy::UNSET as u64, "choice too large");
        if self.slots.len() <= id {
            self.slots.resize(id + 1, Policy::UNSET);
        }
        self.slots[id] = choice as u32;
    }

    /// The assigned `(spec, choice)` pairs in increasing spec order.
    pub fn iter(&self) -> impl Iterator<Item = (SpecId, usize)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, &v)| v != Policy::UNSET)
            .map(|(id, &v)| (id, v as usize))
    }

    /// Number of assigned specs.
    pub fn assigned(&self) -> usize {
        self.slots.iter().filter(|&&v| v != Policy::UNSET).count()
    }

    /// True when no spec is assigned.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(|&v| v == Policy::UNSET)
    }

    /// Merges `other`'s assignments into `self`. Returns `false` on the
    /// first conflicting assignment (the uniform-implementation rule), in
    /// which case `self` is left partially merged — clone first when the
    /// original must survive a failed merge.
    pub fn merge_from(&mut self, other: &Policy) -> bool {
        if other.slots.len() > self.slots.len() {
            self.slots.resize(other.slots.len(), Policy::UNSET);
        }
        for (s, &o) in self.slots.iter_mut().zip(&other.slots) {
            if o == Policy::UNSET {
                continue;
            }
            if *s == Policy::UNSET {
                *s = o;
            } else if *s != o {
                return false;
            }
        }
        true
    }

    /// The merge of two policies, or `None` when they conflict.
    pub fn merged(&self, other: &Policy) -> Option<Policy> {
        let mut out = self.clone();
        out.merge_from(other).then_some(out)
    }
}

impl PartialEq for Policy {
    fn eq(&self, other: &Self) -> bool {
        // Trailing unset slots are not observable: compare assignments.
        let (short, long) = if self.slots.len() <= other.slots.len() {
            (&self.slots, &other.slots)
        } else {
            (&other.slots, &self.slots)
        };
        short.iter().zip(long.iter()).all(|(a, b)| a == b)
            && long[short.len()..].iter().all(|&v| v == Policy::UNSET)
    }
}

impl Eq for Policy {}

impl fmt::Debug for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

impl FromIterator<(SpecId, usize)> for Policy {
    fn from_iter<I: IntoIterator<Item = (SpecId, usize)>>(iter: I) -> Self {
        let mut p = Policy::new();
        for (id, choice) in iter {
            p.set(id, choice);
        }
        p
    }
}

/// A fully costed, globally consistent design alternative.
#[derive(Clone, Debug)]
pub struct DesignPoint {
    /// Total area in gates.
    pub area: f64,
    /// Composite timing.
    pub timing: Timing,
    /// Implementation choice for every reachable spec node.
    pub policy: Policy,
}

impl DesignPoint {
    /// Worst-case delay in ns.
    pub fn delay(&self) -> f64 {
        self.timing.worst
    }
}

fn filter_points(
    mut points: Vec<DesignPoint>,
    policy: FilterPolicy,
    cap: usize,
) -> Vec<DesignPoint> {
    points.sort_by(|a, b| {
        (a.area, a.delay())
            .partial_cmp(&(b.area, b.delay()))
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Exact-cost duplicates carry no new trade-off: keep the first.
    points.dedup_by(|a, b| a.area == b.area && a.delay() == b.delay());
    // After the (area, delay) sort, every point that can evict `p` —
    // dominated points included, matching the exhaustive filter — precedes
    // it, so one forward sweep with running delay minima decides survival:
    //   Pareto: p survives iff its delay beats every predecessor's.
    //   Slack: p is evicted when a predecessor beats it by more than the
    //   area slack (a prefix of the sort, tracked by a second lagging
    //   cursor since p.area/(1+slack) is nondecreasing) or by more than
    //   the delay slack (any predecessor, tracked by the running minimum).
    let mut kept: Vec<DesignPoint> = Vec::new();
    let mut min_delay = f64::INFINITY; // over points[0..i)
    let mut area_cursor = 0usize; // prefix with area < p.area/(1+slack)
    let mut min_delay_in_prefix = f64::INFINITY;
    for i in 0..points.len() {
        let (p_area, p_delay) = (points[i].area, points[i].delay());
        let evicted = match policy {
            FilterPolicy::Pareto => min_delay <= p_delay,
            FilterPolicy::Slack { area, delay } => {
                while area_cursor < i && points[area_cursor].area < p_area / (1.0 + area) {
                    min_delay_in_prefix = min_delay_in_prefix.min(points[area_cursor].delay());
                    area_cursor += 1;
                }
                min_delay_in_prefix <= p_delay || min_delay < p_delay / (1.0 + delay)
            }
        };
        if !evicted {
            kept.push(points[i].clone());
        }
        min_delay = min_delay.min(p_delay);
    }
    if kept.len() <= cap {
        return kept;
    }
    if cap <= 1 {
        return kept.into_iter().take(1).collect();
    }
    // Over cap: keep a spread across the area axis, always retaining the
    // extremes.
    let mut out = Vec::with_capacity(cap);
    for i in 0..cap {
        let idx = i * (kept.len() - 1) / (cap - 1);
        out.push(kept[idx].clone());
    }
    out.dedup_by(|a, b| a.area == b.area && a.delay() == b.delay());
    out
}

/// Configuration for the solver.
#[derive(Clone, Copy, Debug)]
pub struct SolveConfig {
    /// Filter applied at every internal spec node.
    pub node_filter: FilterPolicy,
    /// Maximum surviving alternatives per node.
    pub node_cap: usize,
    /// Maximum child-front combinations evaluated per template.
    pub max_combinations: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            node_filter: FilterPolicy::Pareto,
            node_cap: 24,
            max_combinations: 100_000,
        }
    }
}

/// Computes one node's filtered front from its children's already-solved
/// fronts: a pure function of them. Each netlist choice is costed on its
/// compiled [`TimingGraph`].
fn compute_front(
    space: &DesignSpace,
    config: SolveConfig,
    fronts: &[Option<Arc<Vec<DesignPoint>>>],
    id: SpecId,
) -> (Vec<DesignPoint>, u64) {
    let node = &space.nodes[id];
    let mut truncated = 0u64;
    let mut points: Vec<DesignPoint> = Vec::new();
    let mut scratch = CostScratch::default();
    for (i, (choice, child_ids)) in node.impls.iter().zip(&node.children).enumerate() {
        match choice {
            ImplChoice::Cell(c) => {
                let mut policy = Policy::new();
                policy.set(id, i);
                points.push(DesignPoint {
                    area: c.area,
                    timing: c.timing.clone(),
                    policy,
                });
            }
            ImplChoice::Netlist { graph, .. } => {
                let distinct: Vec<SpecId> =
                    graph.distinct_modules().map(|m| child_ids[m]).collect();
                let Some(combos) =
                    combinations(&distinct, fronts, config.max_combinations, &mut truncated)
                else {
                    continue; // some module cannot be implemented
                };
                for (mut policy, picks) in combos {
                    // `None`: this combination's arcs close a cycle.
                    let Some((area, timing)) = graph.cost(&picks, &mut scratch) else {
                        continue;
                    };
                    policy.set(id, i);
                    points.push(DesignPoint {
                        area,
                        timing,
                        policy,
                    });
                }
            }
        }
    }
    (
        filter_points(points, config.node_filter, config.node_cap),
        truncated,
    )
}

/// The consistent combinations of the distinct children's solved points,
/// in costing order: a Cartesian product over the children, in order,
/// that keeps only policy-consistent merges (the uniform-implementation
/// rule; the merge is a linear scan over the flat policies). Each
/// combination carries its merged policy and one point per child.
/// Combinations past `max_combinations` are counted in `truncated`;
/// `None` when some child has no points.
fn combinations<'f>(
    distinct: &[SpecId],
    fronts: &'f [Option<Arc<Vec<DesignPoint>>>],
    max_combinations: usize,
    truncated: &mut u64,
) -> Option<Vec<(Policy, Vec<&'f DesignPoint>)>> {
    let child_fronts: Vec<&[DesignPoint]> = distinct
        .iter()
        .map(|&cid| {
            fronts[cid]
                .as_deref()
                .map(Vec::as_slice)
                .expect("children are solved before parents")
        })
        .collect();
    if child_fronts.iter().any(|f| f.is_empty()) {
        return None;
    }
    let mut combos: Vec<(Policy, Vec<&DesignPoint>)> = vec![(Policy::new(), Vec::new())];
    for front in &child_fronts {
        let mut next: Vec<(Policy, Vec<&DesignPoint>)> = Vec::new();
        for (combo, picks) in &combos {
            for p in *front {
                if next.len() >= max_combinations {
                    *truncated += 1;
                    continue;
                }
                let mut merged = combo.clone();
                if merged.merge_from(&p.policy) {
                    let mut picks = picks.clone();
                    picks.push(p);
                    next.push((merged, picks));
                }
            }
        }
        combos = next;
    }
    Some(combos)
}

/// Per-node solve results that outlive one [`Solver`]: the filtered
/// fronts plus each node's combination-truncation count, so a query
/// reusing cached fronts still reports the truncation that shaped them.
///
/// Fronts are [`Arc`]-shared, so [`snapshot`](Self::snapshot) is a
/// pointer-bump copy — concurrent queries each solve against a private
/// snapshot of the shared store and [`absorb`](Self::absorb) their newly
/// solved nodes back without blocking one another mid-solve.
#[derive(Clone, Default)]
pub struct FrontStore {
    pub(crate) fronts: Vec<Option<Arc<Vec<DesignPoint>>>>,
    pub(crate) truncated: Vec<u64>,
}

impl FrontStore {
    /// Number of nodes with a solved front.
    pub fn solved_count(&self) -> usize {
        self.fronts.iter().filter(|f| f.is_some()).count()
    }

    /// A cheap copy sharing every solved front (`Arc` clones).
    pub fn snapshot(&self) -> FrontStore {
        self.clone()
    }

    /// Merges `other`'s solved fronts into `self`, filling only nodes
    /// still unsolved here. Every front is a pure function of the node's
    /// (append-only) subgraph and the solve configuration, so when both
    /// stores solved a node the results are bit-identical and either copy
    /// may be kept.
    pub fn absorb(&mut self, other: FrontStore) {
        if other.fronts.len() > self.fronts.len() {
            self.resize(other.fronts.len());
        }
        for (i, front) in other.fronts.into_iter().enumerate() {
            if self.fronts[i].is_none() {
                if let Some(front) = front {
                    self.fronts[i] = Some(front);
                    self.truncated[i] = other.truncated[i];
                }
            }
        }
    }

    fn resize(&mut self, len: usize) {
        self.fronts.resize(len, None);
        self.truncated.resize(len, 0);
    }
}

/// Bottom-up solver: computes the filtered front of consistent design
/// points at every node.
///
/// Fronts are solved in node-id order, which is a topological order of
/// the spec DAG (expansion pushes children before parents), so every
/// node's children are solved before it.
///
/// Costing reads only the timing graphs expansion compiled, so the
/// solver no longer reads the [`SpecModelCache`] its methods take; the
/// parameter stays for the callers that pass it.
pub struct Solver<'a> {
    space: &'a DesignSpace,
    config: SolveConfig,
    store: FrontStore,
    /// Number of combinations this solver discarded due to
    /// `max_combinations`; nonzero values mean the space was truncated
    /// (reported, never silent). Truncation inherited from reused fronts
    /// is accounted per node — see
    /// [`truncated_under`](Self::truncated_under).
    pub truncated_combinations: u64,
}

impl<'a> Solver<'a> {
    /// Creates a solver over an expanded space.
    pub fn new(space: &'a DesignSpace, config: SolveConfig) -> Self {
        Solver::with_front_store(space, config, FrontStore::default())
    }

    /// Creates a solver resuming from a previously computed front store
    /// (as returned by [`into_front_store`](Self::into_front_store)),
    /// typically across queries against a space that has grown since.
    pub fn with_front_store(
        space: &'a DesignSpace,
        config: SolveConfig,
        mut store: FrontStore,
    ) -> Self {
        store.resize(space.nodes.len());
        Solver {
            space,
            config,
            store,
            truncated_combinations: 0,
        }
    }

    /// Returns the solver unchanged: solving is serial, so `threads` is
    /// ignored.
    #[deprecated(note = "solving is serial; drop the call")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Surrenders the solved fronts so a later solver over the same
    /// (possibly grown) space can resume without recomputing them.
    pub fn into_front_store(self) -> FrontStore {
        self.store
    }

    /// Total combinations truncated while solving the nodes reachable
    /// from `root` — including truncation performed by *earlier* solvers
    /// whose fronts this one reused through the shared [`FrontStore`].
    pub fn truncated_under(&self, root: SpecId) -> u64 {
        self.space
            .reachable(root)
            .iter()
            .map(|&n| self.store.truncated[n])
            .sum()
    }

    /// Solves every unsolved node in `id`'s subgraph, bottom-up.
    pub fn solve(&mut self, id: SpecId, cache: &SpecModelCache) {
        self.solve_many(&[id], cache);
    }

    /// Solves the subgraphs of several roots in one bottom-up pass: every
    /// unsolved node reachable from any root is solved once, in id order
    /// (children before parents). Identical results to solving the roots
    /// one at a time — every front is a pure function of its children's.
    pub fn solve_many(&mut self, roots: &[SpecId], _cache: &SpecModelCache) {
        let mut todo = vec![false; self.space.nodes.len()];
        for &root in roots {
            if self.store.fronts[root].is_none() {
                for n in self.space.reachable(root) {
                    todo[n] = self.store.fronts[n].is_none();
                }
            }
        }
        for n in (0..todo.len()).filter(|&n| todo[n]) {
            let (front, truncated) = compute_front(self.space, self.config, &self.store.fronts, n);
            self.store.fronts[n] = Some(Arc::new(front));
            self.store.truncated[n] = truncated;
            self.truncated_combinations += truncated;
        }
    }

    /// The filtered design-point front of a node (computed on demand).
    pub fn front(&mut self, id: SpecId, cache: &SpecModelCache) -> Vec<DesignPoint> {
        self.solve(id, cache);
        self.store.fronts[id]
            .as_deref()
            .cloned()
            .expect("front solved")
    }

    /// Like [`front`](Self::front) but with a different final filter —
    /// used at the root, where the paper reports near-optimal alternatives
    /// as well. The root's node-filter front stays cached (later queries
    /// may reuse this root as a child).
    pub fn root_front(
        &mut self,
        id: SpecId,
        cache: &SpecModelCache,
        root_filter: FilterPolicy,
        cap: usize,
    ) -> Vec<DesignPoint> {
        // Solve the children under the node filter, then recompute the
        // root alone under the root filter. `compute_front` never reads a
        // node's own slot, so the node-filter front needn't be cleared.
        self.solve(id, cache);
        let config = SolveConfig {
            node_filter: root_filter,
            node_cap: cap,
            max_combinations: self.config.max_combinations,
        };
        let (front, truncated) = compute_front(self.space, config, &self.store.fronts, id);
        self.truncated_combinations += truncated;
        front
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{template_cost, ChildCost};
    use crate::lola::with_derived_rules;
    use crate::rules::RuleSet;
    use crate::template::{Signal, TemplateBuilder};
    use cells::lsi::lsi_logic_subset;
    use genus::component::PortClass;
    use genus::kind::{ComponentKind, GateOp};
    use genus::op::{Op, OpSet};
    use std::collections::BTreeMap;
    use std::sync::OnceLock;

    fn add_spec(w: usize) -> ComponentSpec {
        ComponentSpec::new(ComponentKind::AddSub, w)
            .with_ops(OpSet::only(Op::Add))
            .with_carry_in(true)
            .with_carry_out(true)
    }

    #[test]
    fn add4_maps_directly_to_cells() {
        let mut space = DesignSpace::new();
        let rules = RuleSet::standard();
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(4), &rules, &lib, &cache).unwrap();
        let node = &space.nodes[id];
        let cell_names: Vec<&str> = node
            .impls
            .iter()
            .filter_map(|i| match i {
                ImplChoice::Cell(c) => Some(c.cell.as_str()),
                _ => None,
            })
            .collect();
        assert!(cell_names.contains(&"ADD4"));
    }

    #[test]
    fn add16_has_cell_free_decompositions() {
        let mut space = DesignSpace::new();
        let rules = RuleSet::standard();
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(16), &rules, &lib, &cache).unwrap();
        let node = &space.nodes[id];
        // No 16-bit adder cell exists: every impl is a decomposition.
        assert!(node
            .impls
            .iter()
            .all(|i| matches!(i, ImplChoice::Netlist { .. })));
        assert!(!node.impls.is_empty());
    }

    #[test]
    fn solver_produces_nonempty_pareto_front_for_add16() {
        let mut space = DesignSpace::new();
        let rules = RuleSet::standard();
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(16), &rules, &lib, &cache).unwrap();
        let mut solver = Solver::new(&space, SolveConfig::default());
        let front = solver.front(id, &cache);
        assert!(!front.is_empty());
        // Front is sorted by area and antitone in delay.
        for w in front.windows(2) {
            assert!(w[0].area < w[1].area);
            assert!(w[0].delay() > w[1].delay());
        }
    }

    #[test]
    fn unconstrained_size_is_product_form() {
        let mut space = DesignSpace::new();
        let rules = RuleSet::standard();
        let lib = lsi_logic_subset();
        let cache = SpecModelCache::new();
        let id = space.expand(&add_spec(16), &rules, &lib, &cache).unwrap();
        let size = space.unconstrained_size(id);
        let uniform = space.uniform_size(id, 10_000_000).unwrap();
        assert!(size >= uniform as f64);
        assert!(uniform >= 2);
    }

    #[test]
    fn filter_policies() {
        let mk = |area: f64, delay: f64| DesignPoint {
            area,
            timing: Timing {
                arcs: BTreeMap::new(),
                worst: delay,
            },
            policy: Policy::new(),
        };
        let pts = vec![mk(100.0, 50.0), mk(102.0, 50.0), mk(200.0, 10.0)];
        let strict = filter_points(pts.clone(), FilterPolicy::Pareto, 10);
        assert_eq!(strict.len(), 2); // 102-gate point dominated
        let relaxed = filter_points(
            pts,
            FilterPolicy::Slack {
                area: 0.05,
                delay: 0.05,
            },
            10,
        );
        assert_eq!(relaxed.len(), 3); // within 5% slack, kept
    }

    #[test]
    fn cap_keeps_extremes() {
        let mk = |area: f64, delay: f64| DesignPoint {
            area,
            timing: Timing {
                arcs: BTreeMap::new(),
                worst: delay,
            },
            policy: Policy::new(),
        };
        let pts: Vec<DesignPoint> = (0..20)
            .map(|i| mk(100.0 + i as f64, 100.0 - i as f64))
            .collect();
        let kept = filter_points(pts, FilterPolicy::Pareto, 5);
        assert_eq!(kept.len(), 5);
        assert_eq!(kept.first().unwrap().area, 100.0);
        assert_eq!(kept.last().unwrap().area, 119.0);
    }

    #[test]
    fn merge_policies_detects_conflicts() {
        let a: Policy = [(1, 0), (2, 1)].into_iter().collect();
        let b: Policy = [(2, 1), (3, 0)].into_iter().collect();
        let c: Policy = [(2, 0)].into_iter().collect();
        assert!(a.merged(&b).is_some());
        assert_eq!(a.merged(&b).unwrap().assigned(), 3);
        assert!(a.merged(&c).is_none());
    }

    #[test]
    fn policy_equality_ignores_trailing_unset() {
        let mut a = Policy::new();
        a.set(2, 1);
        let mut b = Policy::new();
        b.set(2, 1);
        b.set(9, 0);
        assert_ne!(a, b);
        let mut c: Policy = [(2, 1)].into_iter().collect();
        c.set(9, 0);
        assert_eq!(b, c);
        // A policy padded out by a failed merge still equals its original.
        let d: Policy = [(2, 1)].into_iter().collect();
        assert_eq!(a, d);
        assert_eq!(a.get(2), Some(1));
        assert_eq!(a.get(3), None);
        assert_eq!(a.get(100), None);
    }

    /// The exhaustive O(n²) dominance filter this module used to ship,
    /// kept as the reference model for the linear sweep.
    fn naive_filter(mut points: Vec<DesignPoint>, policy: FilterPolicy) -> Vec<DesignPoint> {
        points.sort_by(|a, b| {
            (a.area, a.delay())
                .partial_cmp(&(b.area, b.delay()))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        points.dedup_by(|a, b| a.area == b.area && a.delay() == b.delay());
        let evicts = |q: &DesignPoint, p: &DesignPoint| -> bool {
            match policy {
                FilterPolicy::Pareto => {
                    q.area <= p.area
                        && q.delay() <= p.delay()
                        && (q.area < p.area || q.delay() < p.delay())
                }
                FilterPolicy::Slack { area, delay } => {
                    q.area <= p.area
                        && q.delay() <= p.delay()
                        && (q.area < p.area / (1.0 + area) || q.delay() < p.delay() / (1.0 + delay))
                }
            }
        };
        points
            .iter()
            .filter(|p| !points.iter().any(|q| !std::ptr::eq(*p, q) && evicts(q, p)))
            .cloned()
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The single-sweep dominance filter agrees with the exhaustive
        /// quadratic filter for both policies on arbitrary point clouds.
        #[test]
        fn sweep_filter_matches_naive(
            raw in proptest::collection::vec((1u32..60, 1u32..60), 0..40),
            area_slack in 0u32..40,
            delay_slack in 0u32..40,
        ) {
            let points: Vec<DesignPoint> = raw
                .iter()
                .map(|&(a, d)| DesignPoint {
                    area: a as f64,
                    timing: Timing {
                        arcs: BTreeMap::new(),
                        worst: d as f64,
                    },
                    policy: Policy::new(),
                })
                .collect();
            for policy in [
                FilterPolicy::Pareto,
                FilterPolicy::Slack {
                    area: area_slack as f64 / 100.0,
                    delay: delay_slack as f64 / 100.0,
                },
            ] {
                let expect: Vec<(u64, u64)> = naive_filter(points.clone(), policy)
                    .iter()
                    .map(|p| (p.area.to_bits(), p.delay().to_bits()))
                    .collect();
                let got: Vec<(u64, u64)> = filter_points(points.clone(), policy, usize::MAX)
                    .iter()
                    .map(|p| (p.area.to_bits(), p.delay().to_bits()))
                    .collect();
                proptest::prop_assert_eq!(&got, &expect, "policy {:?}", policy);
            }
        }
    }

    /// A space shaped by `below` plus a root on top: node `i`'s
    /// alternatives list children `k % i` (ids below `i`, as in an
    /// expanded space), and a node without alternatives is dead. The
    /// counter reads only this AND-OR shape, so every alternative is a
    /// placeholder cell.
    fn random_space(below: &[Vec<Vec<usize>>], root: &[Vec<usize>]) -> DesignSpace {
        let mut space = DesignSpace::new();
        for (id, alternatives) in below.iter().map(Vec::as_slice).chain([root]).enumerate() {
            let children: Vec<Vec<SpecId>> = alternatives
                .iter()
                .map(|kids| match id {
                    0 => Vec::new(),
                    _ => kids.iter().map(|&k| k % id).collect(),
                })
                .collect();
            let placeholder = ImplChoice::Cell(CellChoice {
                cell: String::new(),
                area: 0.0,
                timing: Timing {
                    arcs: BTreeMap::new(),
                    worst: 0.0,
                },
            });
            space.nodes.push(SpecNode {
                spec: ComponentSpec::new(ComponentKind::Delay, id + 1),
                impls: vec![placeholder; children.len()],
                children,
            });
        }
        space
    }

    /// The serial uniform-count DFS from the root with a plain leaf
    /// count: the reference model for `uniform_size`, overcount
    /// included.
    fn reference_uniform(space: &DesignSpace, root: SpecId, limit: u64) -> Option<u64> {
        const UNSET: u32 = u32::MAX;
        fn assign(
            space: &DesignSpace,
            pending: &mut Vec<SpecId>,
            policy: &mut [u32],
            count: &mut u64,
            limit: u64,
        ) -> bool {
            let next = loop {
                match pending.pop() {
                    None => {
                        *count += 1;
                        return *count <= limit;
                    }
                    Some(id) if policy[id] != UNSET => continue,
                    Some(id) => break id,
                }
            };
            if space.nodes[next].impls.is_empty() {
                pending.push(next);
                return true;
            }
            for (i, kids) in space.nodes[next].children.iter().enumerate() {
                policy[next] = i as u32;
                let mark = pending.len();
                pending.extend(kids.iter().copied().filter(|&k| policy[k] == UNSET));
                let ok = assign(space, pending, policy, count, limit);
                pending.truncate(mark);
                policy[next] = UNSET;
                if !ok {
                    return false;
                }
            }
            pending.push(next);
            true
        }
        let mut policy = vec![UNSET; space.nodes.len()];
        let mut count = 0;
        let complete = assign(space, &mut vec![root], &mut policy, &mut count, limit);
        (complete && count <= limit).then_some(count)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 1024,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// The memoized count equals the reference DFS's, `Some`/`None`
        /// included, from every node of random small spaces, with the
        /// limit at the count's give-up boundary.
        #[test]
        fn memoized_uniform_count_matches_reference(
            below in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0usize..64, 0..4), 0..4),
                1..17,
            ),
            root in proptest::collection::vec(proptest::collection::vec(0usize..64, 1..4), 1..5),
            slack in 1u64..4,
        ) {
            let space = random_space(&below, &root);
            for id in 0..space.nodes.len() {
                let total =
                    reference_uniform(&space, id, u64::MAX).expect("an unlimited count completes");
                for limit in [total.saturating_sub(1), total, total + slack] {
                    let expect = reference_uniform(&space, id, limit);
                    proptest::prop_assert_eq!(expect, (total <= limit).then_some(total));
                    proptest::prop_assert_eq!(
                        space.uniform_size(id, limit),
                        expect,
                        "root {}, limit {}",
                        id,
                        limit
                    );
                }
            }
        }
    }

    /// The 41 specs the benchmark maps: the plain keys of
    /// `perfbench/oracle.tsv`, built as its spec universe builds them.
    fn benchmark_specs() -> Vec<(&'static str, ComponentSpec)> {
        let specs: Vec<_> = crate::bench_specs::pinned_answers()
            .into_iter()
            .map(|(key, _)| (key, crate::bench_specs::spec(key)))
            .collect();
        assert_eq!(specs.len(), 41);
        specs
    }

    /// [`template_cost`] on one combination: `picks[i]` implements the
    /// template's `i`-th distinct module spec.
    fn reference_cost(
        template: &NetlistTemplate,
        parent: &ComponentSpec,
        graph: &TimingGraph,
        picks: &[&DesignPoint],
        cache: &SpecModelCache,
    ) -> Result<(f64, Timing), String> {
        let by_spec: BTreeMap<&ComponentSpec, &DesignPoint> = graph
            .distinct_modules()
            .map(|m| template.module(m).spec())
            .zip(picks.iter().copied())
            .collect();
        let child_cost = |spec: &ComponentSpec| {
            by_spec.get(spec).map(|p| ChildCost {
                area: p.area,
                timing: p.timing.clone(),
            })
        };
        template_cost(template, parent, &child_cost, cache)
    }

    /// Whether the compiled graph's cost equals the reference's: both
    /// report a cycle, or area, `worst` and every arc agree bit for bit.
    fn same_cost(
        compiled: &Option<(f64, Timing)>,
        reference: &Result<(f64, Timing), String>,
    ) -> bool {
        let bits = |(area, timing): &(f64, Timing)| {
            let arcs: Vec<_> = timing.arcs.iter().map(|(k, v)| (*k, v.to_bits())).collect();
            (area.to_bits(), timing.worst.to_bits(), arcs)
        };
        match (compiled, reference) {
            (None, Err(_)) => true,
            (Some(got), Ok(want)) => bits(got) == bits(want),
            _ => false,
        }
    }

    /// Every combination the solver costs on a fresh space for each of the
    /// benchmark's 41 specs, costed again by the reference from the same
    /// solved child fronts: the compiled graph's result is identical.
    #[test]
    fn compiled_costs_match_the_reference_on_the_benchmark_specs() {
        let lib = lsi_logic_subset();
        let rules = with_derived_rules(RuleSet::standard(), &lib);
        let cache = SpecModelCache::new();
        let config = SolveConfig::default();
        let (mut combinations_checked, mut cycles) = (0usize, 0usize);
        for (key, spec) in benchmark_specs() {
            let mut space = DesignSpace::new();
            let root = space.expand(&spec, &rules, &lib, &cache).unwrap();
            let mut solver = Solver::new(&space, config);
            solver.solve(root, &cache);
            for id in space.reachable(root) {
                let node = &space.nodes[id];
                for (choice, child_ids) in node.impls.iter().zip(&node.children) {
                    let ImplChoice::Netlist { template, graph } = choice else {
                        continue;
                    };
                    let distinct: Vec<SpecId> =
                        graph.distinct_modules().map(|m| child_ids[m]).collect();
                    let fronts = &solver.store.fronts;
                    let mut truncated = 0;
                    let Some(combos) =
                        combinations(&distinct, fronts, config.max_combinations, &mut truncated)
                    else {
                        continue;
                    };
                    let mut scratch = CostScratch::default();
                    for (_, picks) in &combos {
                        let compiled = graph.cost(picks, &mut scratch);
                        let reference = reference_cost(template, &node.spec, graph, picks, &cache);
                        assert!(
                            same_cost(&compiled, &reference),
                            "{key}: {} under {}: compiled {compiled:?}, reference {reference:?}",
                            template.rule(),
                            node.spec
                        );
                        combinations_checked += 1;
                        cycles += usize::from(compiled.is_none());
                    }
                }
            }
        }
        assert!(
            combinations_checked > 5_000,
            "only {combinations_checked} combinations checked"
        );
        assert_eq!(cycles, 0, "no benchmark combination closes a cycle");
    }

    /// One template the benchmark specs reach, compiled.
    struct Reached {
        parent: ComponentSpec,
        template: Arc<NetlistTemplate>,
        graph: Arc<TimingGraph>,
    }

    /// Every template the 41 benchmark specs reach in one shared space,
    /// with the indices of those whose graph of every potential edge
    /// closes a cycle and of those with a sequential module.
    struct ReachedTemplates {
        all: Vec<Reached>,
        cyclic: Vec<usize>,
        sequential: Vec<usize>,
        cache: SpecModelCache,
    }

    fn reached_templates() -> &'static ReachedTemplates {
        static REACHED: OnceLock<ReachedTemplates> = OnceLock::new();
        REACHED.get_or_init(|| {
            let lib = lsi_logic_subset();
            let rules = with_derived_rules(RuleSet::standard(), &lib);
            let cache = SpecModelCache::new();
            let mut space = DesignSpace::new();
            for (_, spec) in benchmark_specs() {
                space.expand(&spec, &rules, &lib, &cache).unwrap();
            }
            let (mut all, mut cyclic, mut sequential) = (Vec::new(), Vec::new(), Vec::new());
            for node in &space.nodes {
                for choice in &node.impls {
                    let ImplChoice::Netlist { template, graph } = choice else {
                        continue;
                    };
                    let reached = Reached {
                        parent: node.spec.clone(),
                        template: Arc::clone(template),
                        graph: Arc::clone(graph),
                    };
                    // With every arc present the reference errs exactly
                    // when the potential edges close a cycle.
                    let points = random_picks(&reached, &cache, &mut || 3);
                    let picks: Vec<&DesignPoint> = points.iter().collect();
                    if reference_cost(template, &node.spec, graph, &picks, &cache).is_err() {
                        cyclic.push(all.len());
                    }
                    if template
                        .modules()
                        .any(|m| cache.model(m.spec()).unwrap().is_sequential())
                    {
                        sequential.push(all.len());
                    }
                    all.push(reached);
                }
            }
            ReachedTemplates {
                all,
                cyclic,
                sequential,
                cache,
            }
        })
    }

    /// One point per distinct module spec of a template, from a stream of
    /// codes in `0..8`: an arc for each (input class, output class) pair
    /// of the module's model, absent on codes 0 and 1 and otherwise
    /// `(code - 2) / 2` ns (so 0 and ties are common), then `worst` and
    /// area from one code each. A sequential model's `worst` is its
    /// launch delay.
    fn random_picks(
        reached: &Reached,
        cache: &SpecModelCache,
        draw: &mut dyn FnMut() -> u64,
    ) -> Vec<DesignPoint> {
        reached
            .graph
            .distinct_modules()
            .map(|m| {
                let model = cache.model(reached.template.module(m).spec()).unwrap();
                let mut arcs = BTreeMap::new();
                for pin in model.inputs().filter(|p| p.class != PortClass::Clock) {
                    for pout in model.outputs() {
                        let code = draw();
                        if code >= 2 && !arcs.contains_key(&(pin.class, pout.class)) {
                            arcs.insert((pin.class, pout.class), (code - 2) as f64 * 0.5);
                        }
                    }
                }
                let worst = draw() as f64 * 0.75;
                DesignPoint {
                    area: draw() as f64 * 1.5,
                    timing: Timing { arcs, worst },
                    policy: Policy::new(),
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 256,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Random child timings, absent arcs, zero and tied delays and
        /// sequential launches included, cost the same on the compiled
        /// graph as in the reference, on the templates the benchmark
        /// specs reach. A quarter of the cases draw a template whose
        /// potential edges close a cycle, and a quarter one with a
        /// sequential module.
        #[test]
        fn compiled_costs_match_the_reference_on_random_child_timings(
            index in 0usize..1 << 20,
            pool in 0u8..4,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let reached = reached_templates();
            let pick = match pool {
                0 => reached.cyclic[index % reached.cyclic.len()],
                1 => reached.sequential[index % reached.sequential.len()],
                _ => index % reached.all.len(),
            };
            let (reached, cache) = (&reached.all[pick], &reached.cache);
            let mut state = seed | 1;
            let mut draw = || {
                // xorshift64
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 8
            };
            let points = random_picks(reached, cache, &mut draw);
            let picks: Vec<&DesignPoint> = points.iter().collect();
            let compiled = reached.graph.cost(&picks, &mut CostScratch::default());
            let reference =
                reference_cost(&reached.template, &reached.parent, &reached.graph, &picks, cache);
            proptest::prop_assert!(
                same_cost(&compiled, &reference),
                "{} under {}: compiled {:?}, reference {:?}",
                reached.template.rule(),
                reached.parent,
                compiled,
                reference
            );
        }
    }

    /// A 4-bit 2-input mux built from a mux whose I1 reads an AND of its
    /// own output: the graph of every potential edge has the cycle
    /// a → b → a. An AND point without a data arc breaks it and is costed
    /// as the reference costs it; one with the arc closes it and, as in
    /// the reference, yields no point.
    #[test]
    fn a_combination_that_closes_a_potential_cycle_is_skipped() {
        let mux = ComponentSpec::new(ComponentKind::Mux, 4).with_inputs(2);
        let and = ComponentSpec::new(ComponentKind::Gate(GateOp::And), 4).with_inputs(2);
        let mut t = TemplateBuilder::new("mux-through-and");
        t.module(
            "m",
            mux.clone(),
            vec![
                ("I0", Signal::parent("I0")),
                ("I1", Signal::net("b")),
                ("S", Signal::parent("S")),
            ],
            vec![("O", "a", 4)],
        );
        t.module(
            "g",
            and.clone(),
            vec![("I0", Signal::net("a")), ("I1", Signal::parent("I1"))],
            vec![("O", "b", 4)],
        );
        t.output("O", Signal::net("a"));
        let template = t.build();
        let cache = SpecModelCache::new();
        template.validate(&mux, &cache).unwrap();
        let graph = Arc::new(TimingGraph::compile(&template, &mux, &cache).unwrap());

        let cell = |name: &str, area: f64, arcs: &[(PortClass, PortClass, f64)], worst: f64| {
            ImplChoice::Cell(CellChoice {
                cell: name.to_string(),
                area,
                timing: Timing {
                    arcs: arcs.iter().map(|&(i, o, d)| ((i, o), d)).collect(),
                    worst,
                },
            })
        };
        let (data, select) = (PortClass::Data, PortClass::Select);
        let mut space = DesignSpace::new();
        let nodes = [
            (
                mux.clone(),
                vec![cell(
                    "MUX",
                    10.0,
                    &[(data, data, 1.0), (select, data, 1.5)],
                    1.5,
                )],
                vec![Vec::new()],
            ),
            (
                and,
                vec![
                    cell("AND-ARC", 5.0, &[(data, data, 1.0)], 1.0),
                    cell("AND-CUT", 4.0, &[], 2.0),
                ],
                vec![Vec::new(); 2],
            ),
            (
                mux.clone(),
                vec![ImplChoice::Netlist {
                    template: Arc::new(template.clone()),
                    graph: Arc::clone(&graph),
                }],
                vec![vec![0, 1]],
            ),
        ];
        for (spec, impls, children) in nodes {
            space.nodes.push(SpecNode {
                spec,
                impls,
                children,
            });
        }

        let mut solver = Solver::new(&space, SolveConfig::default());
        let front = solver.front(2, &cache);
        assert_eq!(front.len(), 1, "one combination is costed");
        assert_eq!(front[0].policy.get(1), Some(1), "the one with AND-CUT");

        let mux_point = &solver.front(0, &cache)[0];
        let and_front = solver.front(1, &cache);
        assert_eq!(and_front.len(), 2, "both AND points survive the filter");
        let mut scratch = CostScratch::default();
        for and_point in &and_front {
            let picks = [mux_point, and_point];
            let compiled = graph.cost(&picks, &mut scratch);
            let reference = reference_cost(&template, &mux, &graph, &picks, &cache);
            assert!(
                same_cost(&compiled, &reference),
                "{compiled:?} vs {reference:?}"
            );
            let closes_the_cycle = and_point.timing.arc(data, data).is_some();
            assert_eq!(compiled.is_none(), closes_the_cycle, "{compiled:?}");
        }
    }
}
