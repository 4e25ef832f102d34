//! Segment framing for the tiered snapshot store.
//!
//! A key's persisted state is a *chain*: one immutable **base** segment
//! (an index of memoized answers) plus zero or more **delta** segments,
//! each carrying only answers the chain did not hold yet.
//! Every segment is self-framing:
//!
//! ```text
//! magic "DTASSEG2" · format version · kind (base/delta)
//! library/rule-set/config/canonicalization fingerprints
//! base id · seq · prev link
//! result index: (spec, section desc) per memoized result
//! header checksum (word_sum over everything above)
//! ...packed answer sections (each desc = absolute offset, length, checksum)...
//! ```
//!
//! Both checksums are [`word_sum`]: it reads a word at a time, and a warm
//! first answer checksums its whole section before decoding it.
//!
//! Loading a base verifies only the header checksum and the section
//! bounds, then leaves the body bytes untouched (and, on 64-bit unix,
//! memory-mapped — see the `mmap` module). Sections are checksummed
//! individually and a base's are verified on first *access*: each answer
//! when its spec is first requested. Deltas are small, so they are
//! verified eagerly at load — a damaged delta rejects the whole load
//! before any of it can be served.
//!
//! Chains are validated strictly at assembly: sequence numbers must be
//! contiguous from 1, and every delta must name the base's random id and
//! carry the previous segment's header checksum as its `prev link`. A
//! *missing* suffix (crash between two delta writes, concurrent
//! compaction pruning) is a clean prefix — any prefix of a chain is a
//! valid, smaller snapshot because solves are deterministic — but a
//! segment that is present and fails any check rejects the load to a cold
//! solve.

use super::codec::{self, Reader, ResultEntry, Writer};
use super::mmap::SegmentBytes;
use super::{Rejection, SaveReport, StoreKey};
use crate::report::DesignSet;
use crate::SynthError;
use genus::spec::ComponentSpec;
use rtl_base::hash::word_sum;
use std::collections::HashMap;
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
    /// [`word_sum`] over the section bytes.
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
            sum: word_sum(bytes),
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
    /// Per-result index: the spec (decoded eagerly — it is the lookup
    /// key) and where its still-encoded body lives.
    results: Vec<(ComponentSpec, SectionDesc)>,
    /// This header's own checksum; doubles as the `prev_link` value of
    /// the chain successor.
    pub(crate) header_checksum: u64,
}

/// Writes every header field up to (not including) the checksum.
fn put_header_fields(
    w: &mut Writer,
    key: &StoreKey,
    kind: u8,
    base_id: u64,
    seq: u32,
    prev_link: u64,
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
    let result_count = r.len("result index entry")?;
    let mut results = Vec::with_capacity(result_count);
    for _ in 0..result_count {
        let spec = codec::get_spec(&mut r)?;
        results.push((spec, SectionDesc::get(&mut r)?));
    }
    let checksum_at = bytes.len() - r.remaining();
    let stored = r.u64("header checksum")?;
    let computed = word_sum(&bytes[..checksum_at]);
    if stored != computed {
        return Err(format!(
            "header checksum mismatch (stored {stored:016x}, computed {computed:016x})"
        )
        .into());
    }
    let header_end = checksum_at + 8;
    for (spec, desc) in &results {
        let what = format!("result {spec}");
        let off = usize::try_from(desc.off).map_err(|_| format!("{what} offset overflows"))?;
        let len = usize::try_from(desc.len).map_err(|_| format!("{what} length overflows"))?;
        if off < header_end || off.checked_add(len).is_none_or(|end| end > bytes.len()) {
            return Err(format!(
                "truncated segment: {what} section [{off}, +{len}) outside file of {} bytes",
                bytes.len()
            )
            .into());
        }
    }
    match kind {
        KIND_BASE if seq != 0 || prev_link != 0 => {
            return Err(Rejection::Damaged(
                "base segment carries chain fields".into(),
            ))
        }
        KIND_DELTA if seq == 0 => {
            return Err(Rejection::Damaged("delta segment with sequence 0".into()))
        }
        _ => {}
    }
    Ok(SegmentHeader {
        kind,
        base_id,
        seq,
        prev_link,
        results,
        header_checksum: computed,
    })
}

/// One encoded segment, ready to be written.
pub(crate) struct EncodedSegment {
    pub(crate) bytes: Vec<u8>,
    /// The written header's checksum — the `prev_link` of the next delta.
    pub(crate) header_checksum: u64,
    /// Memoized results indexed in this segment.
    pub(crate) results: usize,
}

impl EncodedSegment {
    /// What writing this segment persists.
    pub(crate) fn report(&self) -> SaveReport {
        SaveReport {
            bytes: self.bytes.len() as u64,
            results: self.results,
        }
    }
}

/// Frames answer sections into one segment. Two passes: the header's
/// length does not depend on the (fixed-width) offsets it carries, so
/// pass one learns the length with zeroed offsets and pass two writes the
/// real ones.
fn encode_segment(
    key: &StoreKey,
    kind: u8,
    base_id: u64,
    seq: u32,
    prev_link: u64,
    results: &[ResultEntry],
) -> EncodedSegment {
    let bodies = codec::encode_result_sections(results);
    let mut index: Vec<(ComponentSpec, SectionDesc)> = bodies
        .iter()
        .map(|(spec, _)| (spec.clone(), SectionDesc::default()))
        .collect();
    let mut probe = Writer::new();
    put_header_fields(&mut probe, key, kind, base_id, seq, prev_link, &index);
    let header_len = probe.len() + 8; // + checksum

    let mut off = header_len;
    for ((_, desc), (_, body)) in index.iter_mut().zip(&bodies) {
        *desc = SectionDesc::of(off, body);
        off += body.len();
    }

    let mut w = Writer::new();
    put_header_fields(&mut w, key, kind, base_id, seq, prev_link, &index);
    debug_assert_eq!(w.len() + 8, header_len);
    let header_checksum = word_sum(w.as_slice());
    w.u64(header_checksum);
    let mut bytes = w.into_bytes();
    bytes.reserve(off - header_len);
    for (_, body) in &bodies {
        bytes.extend_from_slice(body);
    }
    EncodedSegment {
        bytes,
        header_checksum,
        results: bodies.len(),
    }
}

/// Encodes `answers` (in spec order) as a base segment under a fresh
/// `base_id`.
pub(crate) fn encode_base(key: &StoreKey, base_id: u64, answers: &[ResultEntry]) -> EncodedSegment {
    encode_segment(key, KIND_BASE, base_id, 0, 0, answers)
}

/// Encodes `answers` as delta segment `seq` chained onto the segment
/// whose header checksum is `prev_link`.
pub(crate) fn encode_delta(
    key: &StoreKey,
    base_id: u64,
    seq: u32,
    prev_link: u64,
    answers: &[ResultEntry],
) -> EncodedSegment {
    encode_segment(key, KIND_DELTA, base_id, seq, prev_link, answers)
}

/// An opened segment: header parsed and verified, body bytes (owned or
/// memory-mapped) untouched until first access.
struct Segment {
    bytes: SegmentBytes,
    header: SegmentHeader,
}

impl Segment {
    /// Opens a segment of the given kind. A delta's answer sections are
    /// checksum-verified here, not on first access: deltas are
    /// O(dirty)-small, and rejecting a damaged delta must happen at load,
    /// before any of the chain is served.
    fn open(bytes: SegmentBytes, key: &StoreKey, kind: u8) -> Result<Segment, Rejection> {
        let header = parse_header(&bytes, key)?;
        if header.kind != kind {
            return Err(Rejection::Mismatch(
                if kind == KIND_BASE {
                    "expected a base segment, found a delta"
                } else {
                    "expected a delta segment, found a base"
                }
                .into(),
            ));
        }
        if kind == KIND_DELTA {
            for index in 0..header.results.len() {
                verified_result(&bytes, &header, index)?;
            }
        }
        Ok(Segment { bytes, header })
    }
}

/// Returns result `index`'s section bytes after verifying its checksum.
/// Bounds were established at [`parse_header`]; the checksum is what
/// defers — this is the lazy half of base-segment validation.
fn verified_result<'a>(
    bytes: &'a [u8],
    header: &SegmentHeader,
    index: usize,
) -> Result<&'a [u8], String> {
    let (spec, desc) = &header.results[index];
    let slice = &bytes[desc.off as usize..(desc.off + desc.len) as usize];
    let computed = word_sum(slice);
    if computed != desc.sum {
        return Err(format!(
            "result {spec} section checksum mismatch (stored {:016x}, computed {computed:016x})",
            desc.sum
        ));
    }
    Ok(slice)
}

/// A validated chain: the base stays mapped (where supported) and each
/// answer decodes from its own section on first request. A warm-started
/// engine keeps one [`Section`] per persisted answer in its answer table;
/// the sections share the chain, so it lives as long as any of them.
pub(crate) struct WarmSource {
    /// The base, then its deltas in chain order.
    segments: Vec<Segment>,
}

impl WarmSource {
    /// True when the base segment is memory-mapped rather than copied.
    pub(crate) fn is_mapped(&self) -> bool {
        self.segments[0].bytes.is_mapped()
    }

    /// The base's random id, which every delta appended to it repeats.
    pub(crate) fn base_id(&self) -> u64 {
        self.segments[0].header.base_id
    }

    /// Header checksum of the last segment — the `prev_link` a new delta
    /// must carry to chain onto this source.
    pub(crate) fn last_link(&self) -> u64 {
        let last = self.segments.last().expect("a chain holds its base");
        last.header.header_checksum
    }

    /// Every spec the chain holds an answer for, in any segment.
    pub(crate) fn specs(&self) -> impl Iterator<Item = &ComponentSpec> {
        self.segments
            .iter()
            .flat_map(|segment| segment.header.results.iter().map(|(spec, _)| spec))
    }

    /// Every persisted answer's section, keyed by spec. A spec answered
    /// in more than one segment takes the latest.
    pub(crate) fn sections(self: Arc<Self>) -> HashMap<ComponentSpec, Section> {
        let mut sections = HashMap::new();
        for (seg, segment) in self.segments.iter().enumerate() {
            for (idx, (spec, _)) in segment.header.results.iter().enumerate() {
                let chain = Arc::clone(&self);
                sections.insert(spec.clone(), Section { chain, seg, idx });
            }
        }
        sections
    }
}

/// Where one persisted answer lives in a loaded chain: segment `seg`
/// (0 is the base), result `idx` of its index.
pub(crate) struct Section {
    chain: Arc<WarmSource>,
    seg: usize,
    idx: usize,
}

impl Section {
    /// Verifies the section's checksum and decodes its answer. A damaged
    /// section is a [`Rejection`]; the caller solves the spec instead and
    /// never decodes this section again.
    pub(crate) fn decode(&self) -> Result<Result<Arc<DesignSet>, SynthError>, Rejection> {
        let segment = &self.chain.segments[self.seg];
        verified_result(&segment.bytes, &segment.header, self.idx)
            .map_err(Rejection::from)
            .and_then(|slice| codec::decode_result_body(slice, &segment.header.results[self.idx].0))
    }

    /// True when the chain's base is memory-mapped.
    pub(crate) fn is_mapped(&self) -> bool {
        self.chain.is_mapped()
    }
}

/// Validates a base + ordered deltas into a [`WarmSource`].
///
/// `deltas` must already be the *contiguous* sequence starting at seq 1 —
/// the store stops listing at the first gap (a missing suffix is a valid
/// prefix). Here every present segment is held to the strict chain
/// contract; any violation rejects the whole chain.
pub(crate) fn assemble_chain(
    base: SegmentBytes,
    deltas: Vec<SegmentBytes>,
    key: &StoreKey,
) -> Result<WarmSource, Rejection> {
    let base = Segment::open(base, key, KIND_BASE)?;
    let base_id = base.header.base_id;
    let mut link = base.header.header_checksum;
    let mut segments = vec![base];
    for (i, bytes) in deltas.into_iter().enumerate() {
        let expected_seq = (i + 1) as u32;
        let delta = Segment::open(bytes, key, KIND_DELTA)?;
        let broken = if delta.header.base_id != base_id {
            Some(format!(
                "delta {} belongs to a different base ({:016x}, chain base {base_id:016x})",
                delta.header.seq, delta.header.base_id
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
        } else {
            None
        };
        if let Some(reason) = broken {
            return Err(Rejection::Mismatch(reason));
        }
        link = delta.header.header_checksum;
        segments.push(delta);
    }
    Ok(WarmSource { segments })
}
