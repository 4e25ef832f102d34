//! Segment framing for the tiered snapshot store.
//!
//! A key's persisted state is a *chain*: one immutable **base** segment
//! (the whole design space, every solved front, an index of memoized
//! answers) plus zero or more **delta** segments, each carrying only what
//! changed since the previous flush — appended nodes, newly solved
//! fronts, new answers. Every segment is self-framing:
//!
//! ```text
//! magic "DTASSEG2" · format version · kind (base/delta)
//! library/rule-set/config/canonicalization fingerprints
//! base id · seq · prev link · prev node count · node count
//! space section desc · fronts section desc
//! result index: (spec, section desc) per memoized result
//! header checksum (FNV-1a over everything above)
//! ...packed sections (each desc = absolute offset, length, checksum)...
//! ```
//!
//! The header is O(results), not O(space): loading a base verifies only
//! the header checksum and the section bounds, then leaves the body bytes
//! untouched (and, on 64-bit unix, memory-mapped — see the `mmap`
//! module). Sections are checksummed individually and verified on first
//! *access*: each answer when its spec is first requested, the space and
//! fronts only when an engine hydrates them (a rules or config update, or
//! a full save). Deltas are small, so they are verified eagerly at load —
//! a damaged delta rejects the whole load before any of it can be served.
//!
//! Chains are validated strictly at assembly: sequence numbers must be
//! contiguous from 1, every delta must name the base's random id, carry
//! the previous segment's header checksum as its `prev link`, and agree
//! on the running node count. A *missing* suffix (crash between two delta
//! writes, concurrent compaction pruning) is a clean prefix — any prefix
//! of a chain is a valid, smaller snapshot because solves are
//! deterministic — but a segment that is present and fails any check
//! rejects the load to a cold solve.

use super::codec::{self, Reader, ResultEntry, Writer};
use super::mmap::SegmentBytes;
use super::{DirtySet, EngineSnapshot, Rejection, StoreKey};
use crate::report::DesignSet;
use crate::space::{DesignPoint, DesignSpace, FrontStore, SpecId, SpecNode};
use crate::SynthError;
use genus::spec::ComponentSpec;
use rtl_base::hash::fnv1a_64;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Magic prefix of every tiered-store segment (unchanged since v2 of the
/// on-disk format: the version field right behind it is what
/// discriminates layouts, and keeping the magic stable lets an old
/// segment report "format version" instead of "bad magic").
pub(crate) const SEGMENT_MAGIC: [u8; 8] = *b"DTASSEG2";

const KIND_BASE: u8 = 0;
const KIND_DELTA: u8 = 1;

/// Where one checksummed section lives inside a segment file.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct SectionDesc {
    /// Absolute byte offset from the start of the segment.
    off: u64,
    /// Section length in bytes.
    len: u64,
    /// FNV-1a-64 over the section bytes.
    sum: u64,
}

impl SectionDesc {
    fn put(&self, w: &mut Writer) {
        w.u64(self.off);
        w.u64(self.len);
        w.u64(self.sum);
    }

    fn get(r: &mut Reader) -> Result<SectionDesc, String> {
        Ok(SectionDesc {
            off: r.u64("section offset")?,
            len: r.u64("section length")?,
            sum: r.u64("section checksum")?,
        })
    }

    fn of(off: usize, bytes: &[u8]) -> SectionDesc {
        SectionDesc {
            off: off as u64,
            len: bytes.len() as u64,
            sum: fnv1a_64(bytes),
        }
    }
}

/// A parsed, checksum-verified, bounds-checked segment header.
pub(crate) struct SegmentHeader {
    kind: u8,
    /// Random id stamped on a base; every delta in its chain repeats it,
    /// so a delta can never be replayed onto a different base.
    pub(crate) base_id: u64,
    /// 0 for a base; 1, 2, … for its deltas.
    pub(crate) seq: u32,
    /// Header checksum of the chain predecessor (0 for a base).
    prev_link: u64,
    /// Node count *before* this segment (0 for a base).
    pub(crate) prev_nodes: u32,
    /// Node count after this segment is applied.
    pub(crate) node_count: u32,
    space: SectionDesc,
    fronts: SectionDesc,
    /// Per-result index: the spec (decoded eagerly — it is the lookup
    /// key) and where its still-encoded body lives.
    results: Vec<(ComponentSpec, SectionDesc)>,
    /// This header's own checksum; doubles as the `prev_link` value of
    /// the chain successor.
    pub(crate) header_checksum: u64,
}

/// Writes every header field up to (not including) the checksum.
#[allow(clippy::too_many_arguments)]
fn put_header_fields(
    w: &mut Writer,
    key: &StoreKey,
    kind: u8,
    base_id: u64,
    seq: u32,
    prev_link: u64,
    prev_nodes: u32,
    node_count: u32,
    space: &SectionDesc,
    fronts: &SectionDesc,
    results: &[(ComponentSpec, SectionDesc)],
) {
    w.bytes(&SEGMENT_MAGIC);
    w.u32(key.format_version);
    w.u8(kind);
    w.u64(key.library);
    w.u64(key.rules);
    w.u64(key.config);
    w.u64(key.canon);
    w.u64(base_id);
    w.u32(seq);
    w.u64(prev_link);
    w.u32(prev_nodes);
    w.u32(node_count);
    space.put(w);
    fronts.put(w);
    w.usize32(results.len());
    for (spec, desc) in results {
        codec::put_spec(w, spec);
        desc.put(w);
    }
}

/// Parses and validates a segment header against `key`.
///
/// Check order is deliberate: magic and format version are checked
/// *before* the header checksum, so a snapshot from a different format
/// version reports "format version", not a checksum mismatch (the
/// version is at the same offset — bytes 8..12 — in every format, past
/// and future). Everything else is covered by the checksum, then every
/// section descriptor is bounds-checked against the file, so no later
/// access can read out of range.
pub(crate) fn parse_header(bytes: &[u8], key: &StoreKey) -> Result<SegmentHeader, Rejection> {
    let mut r = Reader::new(bytes);
    let magic = r.take(SEGMENT_MAGIC.len(), "magic")?;
    if magic != SEGMENT_MAGIC {
        return Err(Rejection::Damaged("not a DTAS segment (bad magic)".into()));
    }
    let version = r.u32("format version")?;
    if version != key.format_version {
        return Err(Rejection::FormatVersion {
            found: version,
            supported: key.format_version,
        });
    }
    let kind = r.u8("segment kind")?;
    if kind != KIND_BASE && kind != KIND_DELTA {
        return Err(format!("unknown segment kind {kind}").into());
    }
    // Fingerprints come before the checksum, so damage here can read as
    // a mismatch; either way the chain is refused.
    for (stored, wanted, what) in [
        (r.u64("library fingerprint")?, key.library, "library"),
        (r.u64("rule-set fingerprint")?, key.rules, "rule-set"),
        (r.u64("config fingerprint")?, key.config, "configuration"),
        (
            r.u64("canonicalization fingerprint")?,
            key.canon,
            "canonicalization",
        ),
    ] {
        if stored != wanted {
            return Err(Rejection::Mismatch(format!("{what} fingerprint mismatch")));
        }
    }
    let base_id = r.u64("base id")?;
    let seq = r.u32("segment seq")?;
    let prev_link = r.u64("chain link")?;
    let prev_nodes = r.u32("previous node count")?;
    let node_count = r.u32("node count")?;
    let space = SectionDesc::get(&mut r)?;
    let fronts = SectionDesc::get(&mut r)?;
    let result_count = r.len("result index entry")?;
    let mut results = Vec::with_capacity(result_count);
    for _ in 0..result_count {
        let spec = codec::get_spec(&mut r)?;
        results.push((spec, SectionDesc::get(&mut r)?));
    }
    let checksum_at = bytes.len() - r.remaining();
    let stored = r.u64("header checksum")?;
    let computed = fnv1a_64(&bytes[..checksum_at]);
    if stored != computed {
        return Err(format!(
            "header checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        )
        .into());
    }
    let header_end = checksum_at + 8;
    let check_bounds = |desc: &SectionDesc, what: &str| -> Result<(), String> {
        let off = usize::try_from(desc.off).map_err(|_| format!("{what} offset overflows"))?;
        let len = usize::try_from(desc.len).map_err(|_| format!("{what} length overflows"))?;
        if off < header_end || off.checked_add(len).is_none_or(|end| end > bytes.len()) {
            return Err(format!(
                "truncated segment: {what} section [{off}, +{len}) outside file of {} bytes",
                bytes.len()
            ));
        }
        Ok(())
    };
    check_bounds(&space, "space")?;
    check_bounds(&fronts, "fronts")?;
    for (spec, desc) in &results {
        check_bounds(desc, &format!("result {spec}"))?;
    }
    match kind {
        KIND_BASE if seq != 0 || prev_link != 0 || prev_nodes != 0 => {
            return Err(Rejection::Damaged(
                "base segment carries chain fields".into(),
            ))
        }
        KIND_DELTA if seq == 0 => {
            return Err(Rejection::Damaged("delta segment with sequence 0".into()))
        }
        _ => {}
    }
    if prev_nodes > node_count {
        return Err(
            format!("node count shrinks across segment ({prev_nodes} -> {node_count})").into(),
        );
    }
    Ok(SegmentHeader {
        kind,
        base_id,
        seq,
        prev_link,
        prev_nodes,
        node_count,
        space,
        fronts,
        results,
        header_checksum: computed,
    })
}

/// Returns a section's bytes after verifying its checksum. Bounds were
/// established at [`parse_header`]; the checksum is what defers — this is
/// the lazy half of base-segment validation.
fn verified_section<'a>(
    bytes: &'a [u8],
    desc: &SectionDesc,
    what: &str,
) -> Result<&'a [u8], String> {
    let slice = &bytes[desc.off as usize..(desc.off + desc.len) as usize];
    let computed = fnv1a_64(slice);
    if computed != desc.sum {
        return Err(format!(
            "{what} section checksum mismatch (stored {:016x}, computed {computed:016x})",
            desc.sum
        ));
    }
    Ok(slice)
}

/// One encoded segment, ready to be written.
pub(crate) struct EncodedSegment {
    pub(crate) bytes: Vec<u8>,
    /// The written header's checksum — the `prev_link` of the next delta.
    pub(crate) header_checksum: u64,
    /// Memoized results indexed in this segment.
    pub(crate) results: usize,
    /// The chain's node count once this segment is applied.
    pub(crate) node_count: u32,
}

/// Frames pre-encoded sections into one segment. Two passes: the header's
/// length does not depend on the (fixed-width) offsets it carries, so
/// pass one learns the length with zeroed offsets and pass two writes the
/// real ones.
#[allow(clippy::too_many_arguments)]
fn encode_segment(
    key: &StoreKey,
    kind: u8,
    base_id: u64,
    seq: u32,
    prev_link: u64,
    prev_nodes: u32,
    node_count: u32,
    space_bytes: &[u8],
    fronts_bytes: &[u8],
    result_bodies: &[(ComponentSpec, Vec<u8>)],
) -> EncodedSegment {
    let zeroed: Vec<(ComponentSpec, SectionDesc)> = result_bodies
        .iter()
        .map(|(spec, _)| (spec.clone(), SectionDesc::default()))
        .collect();
    let mut probe = Writer::new();
    put_header_fields(
        &mut probe,
        key,
        kind,
        base_id,
        seq,
        prev_link,
        prev_nodes,
        node_count,
        &SectionDesc::default(),
        &SectionDesc::default(),
        &zeroed,
    );
    let header_len = probe.len() + 8; // + checksum

    let mut off = header_len;
    let space = SectionDesc::of(off, space_bytes);
    off += space_bytes.len();
    let fronts = SectionDesc::of(off, fronts_bytes);
    off += fronts_bytes.len();
    let results: Vec<(ComponentSpec, SectionDesc)> = result_bodies
        .iter()
        .map(|(spec, body)| {
            let desc = SectionDesc::of(off, body);
            off += body.len();
            (spec.clone(), desc)
        })
        .collect();

    let mut w = Writer::new();
    put_header_fields(
        &mut w, key, kind, base_id, seq, prev_link, prev_nodes, node_count, &space, &fronts,
        &results,
    );
    debug_assert_eq!(w.len() + 8, header_len);
    let header_checksum = fnv1a_64(w.as_slice());
    w.u64(header_checksum);
    let mut bytes = w.into_bytes();
    bytes.reserve(off - header_len);
    bytes.extend_from_slice(space_bytes);
    bytes.extend_from_slice(fronts_bytes);
    for (_, body) in result_bodies {
        bytes.extend_from_slice(body);
    }
    EncodedSegment {
        bytes,
        header_checksum,
        results: result_bodies.len(),
        node_count,
    }
}

/// Encodes a whole snapshot as a base segment under a fresh `base_id`.
pub(crate) fn encode_base(
    snapshot: &EngineSnapshot,
    key: &StoreKey,
    base_id: u64,
) -> EncodedSegment {
    let node_count = snapshot.space.nodes.len();
    let space = codec::encode_space_section(&snapshot.space);
    let fronts = codec::encode_fronts_section(&snapshot.fronts, node_count);
    let results = codec::encode_result_sections(&snapshot.results);
    encode_segment(
        key,
        KIND_BASE,
        base_id,
        0,
        0,
        0,
        node_count as u32,
        &space,
        &fronts,
        &results,
    )
}

/// Encodes the dirty slice of a snapshot as delta segment `seq` chained
/// onto the segment whose header checksum is `prev_link`. A snapshot with
/// fewer live nodes than the chain (an engine that never hydrated it)
/// appends answers only.
pub(crate) fn encode_delta(
    snapshot: &EngineSnapshot,
    dirty: &DirtySet,
    key: &StoreKey,
    base_id: u64,
    seq: u32,
    prev_link: u64,
) -> EncodedSegment {
    let node_count = snapshot.space.nodes.len().max(dirty.first_new_node);
    let space = codec::encode_space_extension(&snapshot.space, dirty.first_new_node);
    let fronts = codec::encode_front_updates(&snapshot.fronts, &dirty.front_ids);
    let entries: Vec<ResultEntry> = dirty
        .result_indices
        .iter()
        .map(|&i| snapshot.results[i].clone())
        .collect();
    let results = codec::encode_result_sections(&entries);
    encode_segment(
        key,
        KIND_DELTA,
        base_id,
        seq,
        prev_link,
        dirty.first_new_node as u32,
        node_count as u32,
        &space,
        &fronts,
        &results,
    )
}

/// An opened base segment: header parsed and verified, body bytes (owned
/// or memory-mapped) untouched until first access.
pub(crate) struct BaseSegment {
    bytes: SegmentBytes,
    pub(crate) header: SegmentHeader,
}

impl BaseSegment {
    pub(crate) fn open(bytes: SegmentBytes, key: &StoreKey) -> Result<BaseSegment, Rejection> {
        let header = parse_header(&bytes, key)?;
        if header.kind != KIND_BASE {
            return Err(Rejection::Mismatch(
                "expected a base segment, found a delta".into(),
            ));
        }
        Ok(BaseSegment { bytes, header })
    }

    fn decode_space(&self) -> Result<DesignSpace, String> {
        let slice = verified_section(&self.bytes, &self.header.space, "space")?;
        codec::decode_space_section(slice)
    }

    fn decode_fronts(&self, space: &DesignSpace) -> Result<FrontStore, String> {
        let slice = verified_section(&self.bytes, &self.header.fronts, "fronts")?;
        codec::decode_fronts_section(slice, space, self.header.node_count as usize)
    }
}

/// An opened delta segment. Deltas are eagerly *checksum*-verified (every
/// section) at open — they are O(dirty)-small, and rejecting a damaged
/// delta must happen at load, before any of the chain is served —
/// structural decoding still waits for first access.
pub(crate) struct DeltaSegment {
    bytes: SegmentBytes,
    pub(crate) header: SegmentHeader,
}

impl DeltaSegment {
    pub(crate) fn open(bytes: SegmentBytes, key: &StoreKey) -> Result<DeltaSegment, Rejection> {
        let header = parse_header(&bytes, key)?;
        if header.kind != KIND_DELTA {
            return Err(Rejection::Mismatch(
                "expected a delta segment, found a base".into(),
            ));
        }
        verified_section(&bytes, &header.space, "space extension")?;
        verified_section(&bytes, &header.fronts, "front updates")?;
        for (spec, desc) in &header.results {
            verified_section(&bytes, desc, &format!("result {spec}"))?;
        }
        Ok(DeltaSegment { bytes, header })
    }

    fn decode_extension(&self) -> Result<(Vec<SpecNode>, HashSet<SpecId>), String> {
        let slice = verified_section(&self.bytes, &self.header.space, "space extension")?;
        codec::decode_space_extension(
            slice,
            self.header.prev_nodes as usize,
            self.header.node_count as usize,
        )
    }

    fn decode_front_updates(&self) -> Result<Vec<(SpecId, u64, Vec<DesignPoint>)>, String> {
        let slice = verified_section(&self.bytes, &self.header.fronts, "front updates")?;
        codec::decode_front_updates(slice, self.header.node_count as usize)
    }
}

/// A validated chain, held by a warm-started engine as its lazy read
/// path: the base stays mapped (where supported), each answer decodes from
/// its own section on first request, and the space/fronts hydrate only
/// when an update or a full save needs them as live state.
pub struct WarmSource {
    base: BaseSegment,
    deltas: Vec<DeltaSegment>,
    /// spec -> (segment: 0 = base, i+1 = deltas[i]; result index within
    /// it). Later segments win.
    index: HashMap<ComponentSpec, (usize, usize)>,
    /// Encoded size of the base segment.
    pub(crate) base_bytes: u64,
    /// Total encoded size of the delta segments.
    pub(crate) delta_bytes: u64,
}

impl WarmSource {
    /// Total node count of the hydrated space this chain describes.
    pub(crate) fn node_count(&self) -> usize {
        self.deltas
            .last()
            .map(|d| d.header.node_count)
            .unwrap_or(self.base.header.node_count) as usize
    }

    /// Number of deltas chained onto the base.
    pub fn delta_count(&self) -> usize {
        self.deltas.len()
    }

    /// Memoized results still awaiting lazy materialization.
    pub fn pending_results(&self) -> usize {
        self.index.len()
    }

    /// True when the base segment is memory-mapped rather than copied.
    pub fn is_mapped(&self) -> bool {
        self.base.bytes.is_mapped()
    }

    /// The base's random id (for watermark bookkeeping).
    pub(crate) fn base_id(&self) -> u64 {
        self.base.header.base_id
    }

    /// Header checksum of the last segment — the `prev_link` a new delta
    /// must carry to chain onto this source.
    pub(crate) fn last_link(&self) -> u64 {
        self.deltas
            .last()
            .map(|d| d.header.header_checksum)
            .unwrap_or(self.base.header.header_checksum)
    }

    /// Decodes (and consumes) the stored answer for `spec` from its own
    /// section. Returns `None` when no answer is indexed; `Some(Err)` when
    /// the stored bytes are damaged — the entry is removed either way, so
    /// a damaged answer is reported once and then re-solved, never
    /// retried against the same bad bytes.
    pub(crate) fn take_result(
        &mut self,
        spec: &ComponentSpec,
    ) -> Option<Result<Result<Arc<DesignSet>, SynthError>, Rejection>> {
        let (seg, idx) = self.index.remove(spec)?;
        let (bytes, header) = if seg == 0 {
            (&self.base.bytes, &self.base.header)
        } else {
            let delta = &self.deltas[seg - 1];
            (&delta.bytes, &delta.header)
        };
        let (spec, desc) = &header.results[idx];
        Some(
            verified_section(bytes, desc, &format!("result {spec}"))
                .map_err(Rejection::from)
                .and_then(|slice| codec::decode_result_body(slice, spec)),
        )
    }

    /// Every spec with a pending stored result, for diagnostics.
    pub(crate) fn pending_specs(&self) -> Vec<ComponentSpec> {
        self.index.keys().cloned().collect()
    }

    /// Fully decodes the chain's space and fronts into live engine state:
    /// the base, then every delta folded on top in sequence order. Any
    /// validation failure rejects the whole hydration — the engine drops
    /// the source and re-solves cold.
    pub(crate) fn hydrate_state(&self) -> Result<(DesignSpace, FrontStore), Rejection> {
        let mut space = self.base.decode_space()?;
        if space.nodes.len() != self.base.header.node_count as usize {
            return Err(format!(
                "base space has {} nodes, header recorded {}",
                space.nodes.len(),
                self.base.header.node_count
            )
            .into());
        }
        let mut fronts = self.base.decode_fronts(&space)?;
        for delta in &self.deltas {
            let (nodes, tainted) = delta.decode_extension()?;
            for node in nodes {
                let id = space.nodes.len();
                if space.memo.insert(node.spec.clone(), id).is_some() {
                    return Err(format!("duplicate spec node {} in delta", node.spec).into());
                }
                space.nodes.push(node);
            }
            space.tainted.extend(tainted);
            while fronts.fronts.len() < space.nodes.len() {
                fronts.fronts.push(None);
                fronts.truncated.push(0);
            }
            for (id, truncated, points) in delta.decode_front_updates()? {
                codec::check_front_policies(&space, &points)?;
                fronts.fronts[id] = Some(Arc::new(points));
                fronts.truncated[id] = truncated;
            }
        }
        Ok((space, fronts))
    }
}

/// Validates a base + ordered deltas into a [`WarmSource`].
///
/// `deltas` must already be the *contiguous* sequence starting at seq 1 —
/// backends stop listing at the first gap (a missing suffix is a valid
/// prefix). Here every present segment is held to the strict chain
/// contract; any violation rejects the whole chain.
pub(crate) fn assemble_chain(
    base: SegmentBytes,
    deltas: Vec<SegmentBytes>,
    key: &StoreKey,
) -> Result<WarmSource, Rejection> {
    let base_bytes = base.len() as u64;
    let base = BaseSegment::open(base, key)?;
    let mut index: HashMap<ComponentSpec, (usize, usize)> = HashMap::new();
    for (idx, (spec, _)) in base.header.results.iter().enumerate() {
        index.insert(spec.clone(), (0, idx));
    }
    let mut opened = Vec::with_capacity(deltas.len());
    let mut delta_bytes = 0u64;
    let mut link = base.header.header_checksum;
    let mut node_count = base.header.node_count;
    for (i, bytes) in deltas.into_iter().enumerate() {
        let expected_seq = (i + 1) as u32;
        delta_bytes += bytes.len() as u64;
        let delta = DeltaSegment::open(bytes, key)?;
        let broken = if delta.header.base_id != base.header.base_id {
            Some(format!(
                "delta {} belongs to a different base ({:016x}, chain base {:016x})",
                delta.header.seq, delta.header.base_id, base.header.base_id
            ))
        } else if delta.header.seq != expected_seq {
            Some(format!(
                "delta sequence mismatch (found {}, expected {expected_seq})",
                delta.header.seq
            ))
        } else if delta.header.prev_link != link {
            Some(format!(
                "delta {} chain link mismatch (file was not written against its predecessor)",
                delta.header.seq
            ))
        } else if delta.header.prev_nodes != node_count {
            Some(format!(
                "delta {} expects {} prior nodes, chain has {node_count}",
                delta.header.seq, delta.header.prev_nodes
            ))
        } else {
            None
        };
        if let Some(reason) = broken {
            return Err(Rejection::Mismatch(reason));
        }
        link = delta.header.header_checksum;
        node_count = delta.header.node_count;
        for (idx, (spec, _)) in delta.header.results.iter().enumerate() {
            index.insert(spec.clone(), (i + 1, idx));
        }
        opened.push(delta);
    }
    Ok(WarmSource {
        base,
        deltas: opened,
        index,
        base_bytes,
        delta_bytes,
    })
}
