//! Binary wire codec for intervals: the delta family.
//!
//! The simulator's byte accounting — and any real transport a library
//! user brings — needs an actual serialized form, not an estimate. There
//! is one frame family, identified by the *top byte of the leading
//! little-endian `u32`* (the version byte): [`INTERVAL_DELTA_TAG`] heads
//! an interval frame, [`TENANT_BATCH_TAG`] a batch of them, and
//! [`CLOCK_DELTA_TAG`] the clock header every interval frame embeds. Any
//! other version byte is a [`DecodeError`].
//!
//! Clock components are varint + zigzag deltas against a *base* clock —
//! either the all-zeros clock (standalone frames, decodable in isolation)
//! or a caller-supplied base such as the previous interval's `lo` on the
//! same connection (stateful frames, see `core::protocol::ConnCodec`). An
//! interval's `hi` is always encoded against its own `lo`, which is nearly
//! free because an interval's bounds differ in only a few components.
//!
//! ```text
//! DClock    := u32 (0xD1<<24 | len), u8 base_flag,
//!              len × varint(zigzag(c[i] − base[i]))
//! DInterval := u32 (0xD2<<24 | source), varint seq,
//!              u8 kind, [varint level if aggregated],
//!              DClock lo (against caller base),
//!              len × varint(zigzag(hi[i] − lo[i])),
//!              varint coverage_len, coverage_len × (varint process, varint seq)
//! DBatch    := u32 (0xD3<<24 | group_count), group_count × Group
//! Group     := varint k (≥ 1), k × varint predicate_id, DInterval
//! ```
//!
//! `base_flag` is `0` for a standalone frame (base = zero clock) and `1`
//! for a stateful frame (the decoder must be handed the same base the
//! encoder used, or decoding fails instead of silently corrupting).
//!
//! Every length prefix is validated against [`MAX_PROCESSES`] /
//! [`MAX_COVERAGE`] *and* against what the remaining bytes can hold
//! before anything is reserved for it, so a hostile header cannot make a
//! decoder allocate more than a small multiple of the frame it arrived in.
//!
//! Both directions speak the vocabulary of the wire around them: an
//! encoder appends to any [`Sink`] — the `Vec<u8>` being sent, or a
//! [`Len`] that only counts, which is how every `encoded_*_len` query is
//! answered (the layout is written down once, in its encoder) — and a
//! decoder pulls from a [`Reader`], a checked cursor over the `&[u8]` the
//! frame arrived in, whose reads fail with a [`DecodeError`] instead of
//! panicking. `net::wire` uses the same two for the fields around an
//! interval, so a frame is never copied between buffer types.
//!
//! [`encoded_interval_len`] is not a size of anything this module emits:
//! it is the paper's `O(n)` report size (§IV) — fixed-width, 4 bytes per
//! clock component — which `Interval::wire_size`, the baselines and the
//! bench's `bytes_per_interval.dense` column bill, and which the delta
//! sizes are compared with. It lives here so that every byte count of an
//! interval comes from one module.

use crate::interval::{Interval, IntervalKind, IntervalRef};
use ftscp_vclock::{ProcessId, VectorClock};
use std::fmt;

/// Upper bound on the number of processes a decoded clock may cover.
///
/// Anything larger is rejected as hostile input before allocation. The
/// bound also guarantees every length/process header fits in 24 bits,
/// which is what frees the top byte of the leading `u32` for the version.
pub const MAX_PROCESSES: usize = 1 << 20;

/// Upper bound on the number of coverage entries a decoded interval may
/// carry. Same rationale as [`MAX_PROCESSES`].
pub const MAX_COVERAGE: usize = 1 << 20;

/// Version byte of the delta-encoded clock header inside an interval frame.
pub const CLOCK_DELTA_TAG: u8 = 0xD1;

/// Version byte of a delta-encoded interval frame.
pub const INTERVAL_DELTA_TAG: u8 = 0xD2;

/// Version byte of a predicate-tagged interval *batch* frame
/// (multi-tenant uplink coalescing — see [`encode_tenant_batch`]).
pub const TENANT_BATCH_TAG: u8 = 0xD3;

/// Decoding error: the buffer did not contain a well-formed value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Reader and sink: the two ends of the byte path
// ---------------------------------------------------------------------------

/// Checked little-endian cursor over a received frame. Every read names
/// the [`DecodeError`] it fails with when the bytes run out, and a failed
/// read consumes nothing — truncation safety is a property of the reader,
/// not of guards placed in front of it.
#[derive(Clone, Copy, Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    /// Bytes not yet read — what a length prefix is bounded by before
    /// anything is reserved for it.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// The next `n` bytes, or `DecodeError(truncated)` if fewer remain.
    pub fn bytes(&mut self, n: usize, truncated: &'static str) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError(truncated));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self, truncated: &'static str) -> Result<[u8; N], DecodeError> {
        let head = self.bytes(N, truncated)?;
        Ok(head.try_into().expect("`bytes(N)` returns N bytes"))
    }

    /// The next byte.
    pub fn u8(&mut self, truncated: &'static str) -> Result<u8, DecodeError> {
        self.array::<1>(truncated).map(|[b]| b)
    }

    /// The next two bytes as a little-endian `u16`.
    pub fn u16_le(&mut self, truncated: &'static str) -> Result<u16, DecodeError> {
        self.array(truncated).map(u16::from_le_bytes)
    }

    /// The next four bytes as a little-endian `u32`.
    pub fn u32_le(&mut self, truncated: &'static str) -> Result<u32, DecodeError> {
        self.array(truncated).map(u32::from_le_bytes)
    }

    /// The next eight bytes as a little-endian `u64`.
    pub fn u64_le(&mut self, truncated: &'static str) -> Result<u64, DecodeError> {
        self.array(truncated).map(u64::from_le_bytes)
    }
}

/// Where an encoder puts its bytes: the `Vec<u8>` about to be sent, or a
/// [`Len`] when only the size is wanted.
pub trait Sink {
    /// Appends `bytes`.
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// The counting sink: drops the bytes, keeps their number.
#[derive(Debug)]
pub struct Len(pub usize);

impl Sink for Len {
    fn put(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

impl Len {
    /// The number of bytes `encode` emits.
    fn of(encode: impl FnOnce(&mut Len)) -> usize {
        let mut len = Len(0);
        encode(&mut len);
        len.0
    }
}

// ---------------------------------------------------------------------------
// varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_varint(out: &mut impl Sink, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put(&[byte]);
            return;
        }
        out.put(&[byte | 0x80]);
    }
}

fn get_varint(buf: &mut Reader<'_>) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = buf.u8("varint truncated")?;
        let bits = u64::from(byte & 0x7f);
        if shift == 63 && bits > 1 {
            return Err(DecodeError("varint overflows u64"));
        }
        v |= bits << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err(DecodeError("varint too long"))
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// The paper-unit size of an interval report: fixed-width fields, 4 bytes
/// per clock component, 12 per coverage entry (see the module docs — a
/// billing formula, not the length of any frame).
pub fn encoded_interval_len(iv: &Interval) -> usize {
    let kind = match iv.kind {
        IntervalKind::Local => 1,
        IntervalKind::Aggregated { .. } => 5,
    };
    4 + 8 + kind + (4 + 4 * iv.lo.len()) + (4 + 4 * iv.hi.len()) + 4 + 12 * iv.coverage.len()
}

// ---------------------------------------------------------------------------
// Interval frames (version byte 0xD2, embedded clock header 0xD1)
// ---------------------------------------------------------------------------

fn delta_components<'a>(
    clock: &'a VectorClock,
    base: Option<&'a VectorClock>,
) -> impl Iterator<Item = u64> + 'a {
    (0..clock.len()).map(move |i| {
        let b = base.map_or(0, |b| b.get(i));
        zigzag(i64::from(clock.get(i)) - i64::from(b))
    })
}

/// Reads `len` component deltas and applies them to `base` (the zero
/// clock when `None`). A component is at least one byte, so a `len` the
/// remaining bytes cannot hold is rejected before anything is reserved.
fn get_components(
    buf: &mut Reader<'_>,
    len: usize,
    base: Option<&VectorClock>,
) -> Result<VectorClock, DecodeError> {
    if buf.remaining() < len {
        return Err(DecodeError("clock components truncated"));
    }
    let mut components = Vec::with_capacity(len);
    for i in 0..len {
        let d = unzigzag(get_varint(buf)?);
        let v = i64::from(base.map_or(0, |b| b.get(i)))
            .checked_add(d)
            .and_then(|v| u32::try_from(v).ok())
            .ok_or(DecodeError("delta component out of range"))?;
        components.push(v);
    }
    Ok(VectorClock::from_components(components))
}

/// Encodes a clock as a delta frame. With `base = None` the frame is
/// standalone (deltas against the zero clock); with `base = Some(b)` the
/// decoder must supply the same `b`.
pub fn encode_clock_delta(clock: &VectorClock, base: Option<&VectorClock>, out: &mut impl Sink) {
    debug_assert!(
        clock.len() <= MAX_PROCESSES,
        "clock wider than MAX_PROCESSES"
    );
    if let Some(b) = base {
        debug_assert_eq!(b.len(), clock.len(), "delta base width mismatch");
    }
    out.put(&((u32::from(CLOCK_DELTA_TAG) << 24) | clock.len() as u32).to_le_bytes());
    out.put(&[u8::from(base.is_some())]);
    for d in delta_components(clock, base) {
        put_varint(out, d);
    }
}

/// Decodes a delta clock frame. `base` must match what the encoder used:
/// a stateful frame (`base_flag = 1`) without a base is an error, and a
/// standalone frame ignores any base passed.
pub fn decode_clock_delta(
    buf: &mut Reader<'_>,
    base: Option<&VectorClock>,
) -> Result<VectorClock, DecodeError> {
    let header = buf.u32_le("delta clock header truncated")?;
    if (header >> 24) as u8 != CLOCK_DELTA_TAG {
        return Err(DecodeError("not a delta clock frame"));
    }
    let len = (header & 0x00ff_ffff) as usize;
    if len > MAX_PROCESSES {
        return Err(DecodeError("clock length exceeds MAX_PROCESSES"));
    }
    let base = match buf.u8("delta clock header truncated")? {
        0 => None,
        1 => Some(base.ok_or(DecodeError("stateful delta frame but no base supplied"))?),
        _ => return Err(DecodeError("unknown delta base flag")),
    };
    if base.is_some_and(|b| b.len() != len) {
        return Err(DecodeError("delta base width mismatch"));
    }
    get_components(buf, len, base)
}

/// Encoded size of a clock delta frame.
pub fn encoded_clock_delta_len(clock: &VectorClock, base: Option<&VectorClock>) -> usize {
    Len::of(|len| encode_clock_delta(clock, base, len))
}

/// Encodes an interval as a delta frame. `base` (if any) is the base for
/// `lo`; `hi` is always encoded against `lo`.
///
/// # Panics
///
/// Panics if `source` does not fit in 24 bits (callers stay below
/// [`MAX_PROCESSES`]) or if `lo` and `hi` have different widths.
pub fn encode_interval_delta(iv: &Interval, base: Option<&VectorClock>, out: &mut impl Sink) {
    assert!(iv.source.0 < 1 << 24, "source id exceeds 24 bits");
    assert_eq!(iv.lo.len(), iv.hi.len(), "interval bound width mismatch");
    out.put(&((u32::from(INTERVAL_DELTA_TAG) << 24) | iv.source.0).to_le_bytes());
    put_varint(out, iv.seq);
    match iv.kind {
        IntervalKind::Local => out.put(&[0]),
        IntervalKind::Aggregated { level } => {
            out.put(&[1]);
            put_varint(out, u64::from(level));
        }
    }
    encode_clock_delta(&iv.lo, base, out);
    for d in delta_components(&iv.hi, Some(&iv.lo)) {
        put_varint(out, d);
    }
    put_varint(out, iv.coverage.len() as u64);
    for r in &iv.coverage {
        put_varint(out, u64::from(r.process.0));
        put_varint(out, r.seq);
    }
}

/// Decodes a delta interval frame (see [`encode_interval_delta`] for the
/// base contract).
pub fn decode_interval_delta(
    buf: &mut Reader<'_>,
    base: Option<&VectorClock>,
) -> Result<Interval, DecodeError> {
    let header = buf.u32_le("interval header truncated")?;
    if (header >> 24) as u8 != INTERVAL_DELTA_TAG {
        return Err(DecodeError("not a delta interval frame"));
    }
    let source = ProcessId(header & 0x00ff_ffff);
    let seq = get_varint(buf)?;
    let kind = match buf.u8("interval kind truncated")? {
        0 => IntervalKind::Local,
        1 => {
            let level = get_varint(buf)?;
            let level =
                u32::try_from(level).map_err(|_| DecodeError("aggregation level out of range"))?;
            IntervalKind::Aggregated { level }
        }
        _ => return Err(DecodeError("unknown interval kind tag")),
    };
    let lo = decode_clock_delta(buf, base)?;
    let hi = get_components(buf, lo.len(), Some(&lo))?;
    let cov_len = get_varint(buf)? as usize;
    if cov_len > MAX_COVERAGE {
        return Err(DecodeError("coverage length exceeds MAX_COVERAGE"));
    }
    // Each entry is at least two varint bytes — cheap sanity bound before
    // the allocation.
    if buf.remaining() < 2 * cov_len {
        return Err(DecodeError("coverage entries truncated"));
    }
    let mut coverage = Vec::with_capacity(cov_len);
    for _ in 0..cov_len {
        let process = get_varint(buf)?;
        let process =
            u32::try_from(process).map_err(|_| DecodeError("coverage process out of range"))?;
        let seq = get_varint(buf)?;
        coverage.push(IntervalRef {
            process: ProcessId(process),
            seq,
        });
    }
    Ok(Interval {
        source,
        seq,
        lo,
        hi,
        kind,
        coverage,
    })
}

/// Exact encoded size of an interval in the delta codec for a given base.
pub fn encoded_interval_delta_len(iv: &Interval, base: Option<&VectorClock>) -> usize {
    Len::of(|len| encode_interval_delta(iv, base, len))
}

// ---------------------------------------------------------------------------
// Tenant batch format (version byte 0xD3)
// ---------------------------------------------------------------------------

/// One group of a tenant batch: an interval plus the predicate ids it is
/// addressed to. When an event is relevant to many tenants the interval
/// is encoded *once* and the fan-out costs one varint per tenant.
pub type TenantGroup = (Vec<u32>, Interval);

/// Encodes a predicate-tagged interval batch:
///
/// ```text
/// DBatch := u32 (0xD3<<24 | group_count), group_count × Group
/// Group  := varint k (≥ 1), k × varint predicate_id, DInterval
/// ```
///
/// One frame carries the pending intervals of *many* tenants on one
/// connection (per-connection batching, not per-predicate framing). Each
/// group's interval is stored once no matter how many tenants consume it.
/// The delta chain runs through the batch: group 0's `lo` is encoded
/// against `base` (the connection base; `None` makes the frame
/// standalone) and every later group's `lo` against the *previous
/// group's* `lo` — so a cold decoder can always decode a standalone
/// batch front to back, the chain being rooted inside the frame. After
/// sending, the connection base should advance to the *last* group's `lo`
/// (see `core::protocol::ConnCodec`).
///
/// # Panics
///
/// Panics if there are ≥ 2^24 groups (the count shares the leading `u32`
/// with the version byte), if a group has no tenants, or if any interval
/// violates [`encode_interval_delta`]'s constraints.
pub fn encode_tenant_batch(
    groups: &[TenantGroup],
    base: Option<&VectorClock>,
    out: &mut impl Sink,
) {
    assert!(groups.len() < 1 << 24, "batch group count exceeds 24 bits");
    out.put(&((u32::from(TENANT_BATCH_TAG) << 24) | groups.len() as u32).to_le_bytes());
    let mut chain_base = base;
    for (preds, iv) in groups {
        assert!(!preds.is_empty(), "a batch group must address a tenant");
        put_varint(out, preds.len() as u64);
        for &pred in preds {
            put_varint(out, u64::from(pred));
        }
        encode_interval_delta(iv, chain_base, out);
        chain_base = Some(&iv.lo);
    }
}

/// The shortest possible group: `k`, one predicate id, and a `DInterval`
/// of a zero-width clock (header 4, seq 1, kind 1, `DClock` 5, coverage
/// length 1). Bounds what a batch header may make the decoder reserve.
const MIN_GROUP_LEN: usize = 2 + 12;

/// Decodes a predicate-tagged interval batch (see [`encode_tenant_batch`]
/// for the layout and base contract — `base` feeds the first group only;
/// the rest chain internally).
pub fn decode_tenant_batch(
    buf: &mut Reader<'_>,
    base: Option<&VectorClock>,
) -> Result<Vec<TenantGroup>, DecodeError> {
    let header = buf.u32_le("batch header truncated")?;
    if (header >> 24) as u8 != TENANT_BATCH_TAG {
        return Err(DecodeError("not a tenant batch frame"));
    }
    let count = (header & 0x00ff_ffff) as usize;
    if buf.remaining() < MIN_GROUP_LEN * count {
        return Err(DecodeError("batch groups truncated"));
    }
    let mut groups: Vec<TenantGroup> = Vec::with_capacity(count);
    for _ in 0..count {
        let k = get_varint(buf)? as usize;
        if k == 0 {
            return Err(DecodeError("empty tenant group"));
        }
        if k > MAX_COVERAGE {
            return Err(DecodeError("tenant group exceeds MAX_COVERAGE"));
        }
        if buf.remaining() < k {
            return Err(DecodeError("batch groups truncated"));
        }
        let mut preds = Vec::with_capacity(k);
        for _ in 0..k {
            let pred = get_varint(buf)?;
            let pred = u32::try_from(pred).map_err(|_| DecodeError("predicate id out of range"))?;
            preds.push(pred);
        }
        let chain_base = groups.last().map(|(_, prev)| &prev.lo).or(base);
        let iv = decode_interval_delta(buf, chain_base)?;
        groups.push((preds, iv));
    }
    Ok(groups)
}

/// Exact encoded size of a tenant batch for a given first-group base.
pub fn encoded_tenant_batch_len(groups: &[TenantGroup], base: Option<&VectorClock>) -> usize {
    Len::of(|len| encode_tenant_batch(groups, base, len))
}

/// Convenience: encode an interval into a fresh buffer as a standalone
/// delta frame (zero base — decodable with no connection state).
pub fn interval_to_bytes_delta(iv: &Interval) -> Vec<u8> {
    let mut out = Vec::new();
    encode_interval_delta(iv, None, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_local() -> Interval {
        Interval::local(
            ProcessId(3),
            7,
            VectorClock::from_components(vec![1, 2, 3, 4]),
            VectorClock::from_components(vec![5, 6, 7, 8]),
        )
    }

    fn sample_aggregated() -> Interval {
        let a = sample_local();
        let b = Interval::local(
            ProcessId(1),
            2,
            VectorClock::from_components(vec![2, 2, 2, 2]),
            VectorClock::from_components(vec![6, 6, 6, 6]),
        );
        crate::aggregate(&[a, b], ProcessId(0), 9, 3)
    }

    /// The same interval in the retired fixed-width layout, built by hand:
    /// what a pre-delta peer would put on the wire (version byte `0x00`).
    fn dense_bytes(iv: &Interval) -> Vec<u8> {
        let mut raw = Vec::new();
        raw.extend_from_slice(&iv.source.0.to_le_bytes());
        raw.extend_from_slice(&iv.seq.to_le_bytes());
        match iv.kind {
            IntervalKind::Local => raw.push(0),
            IntervalKind::Aggregated { level } => {
                raw.push(1);
                raw.extend_from_slice(&level.to_le_bytes());
            }
        }
        for clock in [&iv.lo, &iv.hi] {
            raw.extend_from_slice(&(clock.len() as u32).to_le_bytes());
            for &c in clock.components() {
                raw.extend_from_slice(&c.to_le_bytes());
            }
        }
        raw.extend_from_slice(&(iv.coverage.len() as u32).to_le_bytes());
        for r in &iv.coverage {
            raw.extend_from_slice(&r.process.0.to_le_bytes());
            raw.extend_from_slice(&r.seq.to_le_bytes());
        }
        raw
    }

    #[test]
    fn dense_frame_is_rejected_and_sized_by_the_paper_formula() {
        for iv in [sample_local(), sample_aggregated()] {
            let raw = dense_bytes(&iv);
            assert_eq!(raw[3], 0x00, "dense frames carry version byte 0x00");
            assert_eq!(raw.len(), encoded_interval_len(&iv));
            assert_eq!(
                decode_interval_delta(&mut Reader::new(&raw), None),
                Err(DecodeError("not a delta interval frame"))
            );
        }
    }

    #[test]
    fn bad_kind_tag_rejected() {
        let mut raw = interval_to_bytes_delta(&sample_local());
        raw[5] = 9; // kind tag offset: 4 (header) + 1 (varint seq = 7)
        assert_eq!(
            decode_interval_delta(&mut Reader::new(&raw), None),
            Err(DecodeError("unknown interval kind tag"))
        );
    }

    #[test]
    fn multiple_intervals_stream() {
        // Back to back in one buffer, the second chained against the
        // first's `lo` — each decode consumes exactly its own frame.
        let a = sample_local();
        let b = sample_aggregated();
        let mut buf = Vec::new();
        encode_interval_delta(&a, None, &mut buf);
        encode_interval_delta(&b, Some(&a.lo), &mut buf);
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_interval_delta(&mut bytes, None).unwrap(), a);
        assert_eq!(decode_interval_delta(&mut bytes, Some(&a.lo)).unwrap(), b);
        assert_eq!(bytes.remaining(), 0);
    }

    // --- hostile length prefixes -------------------------------------------

    #[test]
    fn hostile_coverage_length_rejected() {
        let mut raw = interval_to_bytes_delta(&sample_local());
        // The frame ends with varint coverage_len = 1 and the two-byte
        // self-coverage entry; claim MAX_COVERAGE + 1 entries instead.
        raw.truncate(raw.len() - 3);
        put_varint(&mut raw, MAX_COVERAGE as u64 + 1);
        assert_eq!(
            decode_interval_delta(&mut Reader::new(&raw), None),
            Err(DecodeError("coverage length exceeds MAX_COVERAGE"))
        );
    }

    #[test]
    fn hostile_delta_clock_length_rejected() {
        let mut raw = Vec::new();
        let header = (u32::from(CLOCK_DELTA_TAG) << 24) | 0x00ff_ffff;
        raw.extend_from_slice(&header.to_le_bytes());
        raw.push(0); // base flag
        assert_eq!(
            decode_clock_delta(&mut Reader::new(&raw), None),
            Err(DecodeError("clock length exceeds MAX_PROCESSES"))
        );
    }

    #[test]
    fn hostile_delta_clock_length_rejected_before_reservation() {
        // A bare 5-byte header claiming MAX_PROCESSES components: the
        // payload cannot hold them, so nothing may be reserved for them.
        let header = (u32::from(CLOCK_DELTA_TAG) << 24) | MAX_PROCESSES as u32;
        let mut raw = header.to_le_bytes().to_vec();
        raw.push(0); // base flag
        assert_eq!(
            decode_clock_delta(&mut Reader::new(&raw), None),
            Err(DecodeError("clock components truncated"))
        );
    }

    // --- reader and sink ---------------------------------------------------

    #[test]
    fn reader_reads_little_endian_and_consumes_exactly() {
        let raw = [0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a];
        let mut r = Reader::new(&raw);
        assert_eq!(r.u8("cut"), Ok(0x01));
        assert_eq!(r.u16_le("cut"), Ok(0x0302));
        assert_eq!(r.u32_le("cut"), Ok(0x0706_0504));
        assert_eq!(r.bytes(2, "cut"), Ok(&raw[7..9]));
        assert_eq!(r.remaining(), 1);
        let mut r = Reader::new(&raw);
        assert_eq!(r.u64_le("cut"), Ok(0x0807_0605_0403_0201));
        assert_eq!(r.remaining(), 2);
        assert_eq!(
            r.bytes(0, "cut"),
            Ok(&raw[..0]),
            "an empty read never fails"
        );
    }

    #[test]
    fn short_read_names_the_callers_error_and_consumes_nothing() {
        // Three bytes cannot hold a u32 (nor a u64, nor five raw bytes):
        // each read fails with *its caller's* message, and leaves all
        // three bytes for the next read — a failed wide read followed by a
        // narrower one must see the frame from where it stood, not from
        // somewhere inside the field that did not fit.
        let raw = [0xaa, 0xbb, 0xcc];
        let mut r = Reader::new(&raw);
        assert_eq!(
            r.u32_le("header truncated"),
            Err(DecodeError("header truncated"))
        );
        assert_eq!(
            r.u64_le("epoch truncated"),
            Err(DecodeError("epoch truncated"))
        );
        assert_eq!(
            r.bytes(5, "addr truncated"),
            Err(DecodeError("addr truncated"))
        );
        assert_eq!(r.remaining(), 3);
        assert_eq!(r.u16_le("cut"), Ok(0xbbaa));
        assert_eq!(
            r.u16_le("flag truncated"),
            Err(DecodeError("flag truncated"))
        );
        assert_eq!(r.u8("cut"), Ok(0xcc));
        assert_eq!(r.u8("tag truncated"), Err(DecodeError("tag truncated")));
        assert_eq!(r.remaining(), 0);
        // A copy is an independent position: peeking ahead on it leaves
        // the original where it was.
        let mut r = Reader::new(&raw);
        let mut ahead = r;
        assert_eq!(ahead.u16_le("cut"), Ok(0xbbaa));
        assert_eq!(r.u8("cut"), Ok(0xaa));
    }

    #[test]
    fn counting_sink_agrees_with_the_vec_it_stands_in_for() {
        // The size queries *are* the encoders run into `Len` (the round
        // trips below hold each against its `Vec`); this pins the sink
        // itself: same calls, same number of bytes.
        let mut vec = Vec::new();
        let mut len = Len(0);
        for chunk in [&[][..], &[1], &[2, 3, 4], &[0; 300]] {
            vec.put(chunk);
            len.put(chunk);
            assert_eq!(len.0, vec.len());
        }
    }

    // --- varint primitives -------------------------------------------------

    #[test]
    fn varint_round_trip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u64::from(u32::MAX),
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(Len::of(|len| put_varint(len, v)), buf.len());
            let mut bytes = Reader::new(&buf);
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert_eq!(bytes.remaining(), 0);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::from(u32::MAX),
            -i64::from(u32::MAX),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        // small magnitudes stay small — counted and written alike
        for v in [-1, 1] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            assert_eq!(buf.len(), 1);
            assert_eq!(Len::of(|len| put_varint(len, zigzag(v))), 1);
        }
    }

    #[test]
    fn varint_truncation_and_overflow_rejected() {
        let mut truncated = Reader::new(&[0x80, 0x80]);
        assert_eq!(
            get_varint(&mut truncated),
            Err(DecodeError("varint truncated"))
        );
        let mut too_big =
            Reader::new(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
        assert_eq!(
            get_varint(&mut too_big),
            Err(DecodeError("varint overflows u64"))
        );
    }

    // --- delta clock -------------------------------------------------------

    #[test]
    fn delta_clock_standalone_round_trip() {
        let c = VectorClock::from_components(vec![0, u32::MAX, 17, 3]);
        let mut buf = Vec::new();
        encode_clock_delta(&c, None, &mut buf);
        assert_eq!(buf.len(), encoded_clock_delta_len(&c, None));
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_clock_delta(&mut bytes, None).unwrap(), c);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn delta_clock_stateful_round_trip() {
        let base = VectorClock::from_components(vec![100, 200, 300]);
        let c = VectorClock::from_components(vec![101, 199, 300]);
        let mut buf = Vec::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let stateful_len = buf.len();
        assert_eq!(stateful_len, encoded_clock_delta_len(&c, Some(&base)));
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_clock_delta(&mut bytes, Some(&base)).unwrap(), c);

        // near-identical clocks encode to ~1 byte per component
        assert_eq!(stateful_len, 5 + 3);
        // the same clock standalone is bigger (multi-byte varints)
        assert!(encoded_clock_delta_len(&c, None) > stateful_len);
    }

    #[test]
    fn stateful_frame_without_base_errors() {
        let base = VectorClock::from_components(vec![5, 5]);
        let c = VectorClock::from_components(vec![6, 5]);
        let mut buf = Vec::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let mut bytes = Reader::new(&buf);
        assert_eq!(
            decode_clock_delta(&mut bytes, None),
            Err(DecodeError("stateful delta frame but no base supplied"))
        );
    }

    #[test]
    fn wrong_base_width_errors() {
        let base = VectorClock::from_components(vec![5, 5]);
        let c = VectorClock::from_components(vec![6, 5]);
        let mut buf = Vec::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let mut bytes = Reader::new(&buf);
        let narrow = VectorClock::from_components(vec![5]);
        assert_eq!(
            decode_clock_delta(&mut bytes, Some(&narrow)),
            Err(DecodeError("delta base width mismatch"))
        );
    }

    #[test]
    fn negative_component_after_base_rejected() {
        // encoder base says 10, decoder base says 0 with flag 0 is
        // impossible (flag mismatch caught), but a hostile frame can carry
        // a delta driving the component negative.
        let mut raw = Vec::new();
        let header = (u32::from(CLOCK_DELTA_TAG) << 24) | 1;
        raw.extend_from_slice(&header.to_le_bytes());
        raw.push(0); // standalone, base = 0
        raw.push(0x01); // zigzag(-1)
        assert_eq!(
            decode_clock_delta(&mut Reader::new(&raw), None),
            Err(DecodeError("delta component out of range"))
        );
        // ... or, on top of a non-zero base, past the end of `i64`.
        let mut buf = ((u32::from(CLOCK_DELTA_TAG) << 24) | 1)
            .to_le_bytes()
            .to_vec();
        buf.push(1);
        put_varint(&mut buf, zigzag(i64::MAX));
        let base = VectorClock::from_components(vec![5]);
        assert_eq!(
            decode_clock_delta(&mut Reader::new(&buf), Some(&base)),
            Err(DecodeError("delta component out of range"))
        );
    }

    // --- delta interval ----------------------------------------------------

    #[test]
    fn delta_interval_standalone_round_trip() {
        for iv in [sample_local(), sample_aggregated()] {
            let bytes = interval_to_bytes_delta(&iv);
            assert_eq!(bytes.len(), encoded_interval_delta_len(&iv, None));
            let mut buf = Reader::new(&bytes);
            assert_eq!(decode_interval_delta(&mut buf, None).unwrap(), iv);
            assert_eq!(buf.remaining(), 0);
        }
    }

    #[test]
    fn delta_interval_stateful_round_trip() {
        let iv = sample_local();
        let base = VectorClock::from_components(vec![1, 2, 3, 3]);
        let mut buf = Vec::new();
        encode_interval_delta(&iv, Some(&base), &mut buf);
        assert_eq!(buf.len(), encoded_interval_delta_len(&iv, Some(&base)));
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_interval_delta(&mut bytes, Some(&base)).unwrap(), iv);
    }

    #[test]
    fn delta_beats_dense_at_scale() {
        // A realistic wide interval: n = 1024, bounds close to each other,
        // sent against a recent per-connection base.
        let n = 1024;
        let mut lo = vec![0u32; n];
        for (i, c) in lo.iter_mut().enumerate() {
            *c = (i as u32 % 7) * 100;
        }
        let mut hi = lo.clone();
        for c in hi.iter_mut().take(16) {
            *c += 3; // the interval advanced a handful of components
        }
        let mut base = lo.clone();
        for c in base.iter_mut().take(8) {
            *c = c.saturating_sub(2); // connection base slightly behind
        }
        let iv = Interval::local(
            ProcessId(5),
            40,
            VectorClock::from_components(lo),
            VectorClock::from_components(hi),
        );
        let base = VectorClock::from_components(base);
        let dense = encoded_interval_len(&iv);
        let standalone = encoded_interval_delta_len(&iv, None);
        let stateful = encoded_interval_delta_len(&iv, Some(&base));
        assert!(
            standalone < dense,
            "standalone delta ({standalone}) should beat dense ({dense})"
        );
        assert!(
            stateful < standalone,
            "stateful delta ({stateful}) should beat standalone ({standalone})"
        );
    }

    // --- tenant batch ------------------------------------------------------

    fn sample_batch() -> Vec<TenantGroup> {
        // The same event routed to three tenants plus one distinct
        // pending interval — the mixed shape a per-connection uplink
        // coalesces.
        let a = sample_local();
        let b = Interval::local(
            ProcessId(1),
            2,
            VectorClock::from_components(vec![2, 2, 2, 2]),
            VectorClock::from_components(vec![6, 6, 6, 6]),
        );
        vec![(vec![0, 17, 4093], a), (vec![2], b)]
    }

    #[test]
    fn tenant_batch_standalone_round_trip() {
        let entries = sample_batch();
        let mut buf = Vec::new();
        encode_tenant_batch(&entries, None, &mut buf);
        assert_eq!(buf.len(), encoded_tenant_batch_len(&entries, None));
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_tenant_batch(&mut bytes, None).unwrap(), entries);
        assert_eq!(bytes.remaining(), 0);
    }

    #[test]
    fn tenant_batch_stateful_round_trip() {
        let entries = sample_batch();
        let base = VectorClock::from_components(vec![1, 2, 3, 3]);
        let mut buf = Vec::new();
        encode_tenant_batch(&entries, Some(&base), &mut buf);
        assert_eq!(buf.len(), encoded_tenant_batch_len(&entries, Some(&base)));
        let mut bytes = Reader::new(&buf);
        assert_eq!(
            decode_tenant_batch(&mut bytes, Some(&base)).unwrap(),
            entries
        );
    }

    #[test]
    fn tenant_batch_fanout_entries_are_cheap() {
        // Routing one event to k tenants: the interval is encoded once
        // and each extra tenant costs one varint — per-predicate framing
        // would re-ship the interval k times.
        let a = sample_local();
        let solo = vec![(vec![0u32], a.clone())];
        let fanout = vec![((0..64u32).collect::<Vec<u32>>(), a.clone())];
        let solo_len = encoded_tenant_batch_len(&solo, None);
        let fanout_len = encoded_tenant_batch_len(&fanout, None);
        let per_predicate = 64 * solo_len;
        assert!(
            fanout_len < per_predicate / 8,
            "batched fan-out ({fanout_len}) must beat per-predicate framing ({per_predicate})"
        );
        assert_eq!(
            fanout_len - solo_len,
            63,
            "each extra tenant costs exactly one varint here"
        );
    }

    #[test]
    fn tenant_batch_empty_round_trip() {
        let mut buf = Vec::new();
        encode_tenant_batch(&[], None, &mut buf);
        assert_eq!(buf.len(), 4);
        let mut bytes = Reader::new(&buf);
        assert_eq!(decode_tenant_batch(&mut bytes, None).unwrap(), vec![]);
    }

    #[test]
    fn tenant_batch_stateful_without_base_errors() {
        let entries = sample_batch();
        let base = VectorClock::from_components(vec![1, 1, 1, 1]);
        let mut buf = Vec::new();
        encode_tenant_batch(&entries, Some(&base), &mut buf);
        let mut bytes = Reader::new(&buf);
        assert_eq!(
            decode_tenant_batch(&mut bytes, None),
            Err(DecodeError("stateful delta frame but no base supplied"))
        );
    }

    #[test]
    fn tenant_batch_truncations_error_cleanly() {
        let entries = sample_batch();
        let mut bytes = Vec::new();
        encode_tenant_batch(&entries, None, &mut bytes);
        for cut in 0..bytes.len() {
            let mut truncated = Reader::new(&bytes[..cut]);
            assert!(
                decode_tenant_batch(&mut truncated, None).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn hostile_batch_count_rejected_before_allocation() {
        let header = (u32::from(TENANT_BATCH_TAG) << 24) | 0x00ff_ffff;
        let raw = header.to_le_bytes();
        let mut buf = Reader::new(&raw);
        assert_eq!(
            decode_tenant_batch(&mut buf, None),
            Err(DecodeError("batch groups truncated"))
        );
    }

    #[test]
    fn hostile_batch_count_rejected_before_reservation() {
        // The largest frame the transport admits (1 MiB), all zeros after
        // a header claiming two bytes per group: far more groups than the
        // payload can hold, so nothing may be reserved for them.
        let header = (u32::from(TENANT_BATCH_TAG) << 24) | 524_286;
        let mut raw = vec![0u8; 1 << 20];
        raw[..4].copy_from_slice(&header.to_le_bytes());
        assert_eq!(
            decode_tenant_batch(&mut Reader::new(&raw), None),
            Err(DecodeError("batch groups truncated"))
        );
    }

    #[test]
    fn hostile_empty_group_rejected() {
        // Header claims one group, whose tenant count is zero.
        let header = (u32::from(TENANT_BATCH_TAG) << 24) | 1;
        let mut raw = header.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0x00; MIN_GROUP_LEN]); // k = 0, then padding
        let mut buf = Reader::new(&raw);
        assert_eq!(
            decode_tenant_batch(&mut buf, None),
            Err(DecodeError("empty tenant group"))
        );
    }

    #[test]
    fn delta_interval_truncations_error_cleanly() {
        let iv = sample_aggregated();
        let bytes = interval_to_bytes_delta(&iv);
        for cut in 0..bytes.len() {
            let mut buf = Reader::new(&bytes[..cut]);
            assert!(
                decode_interval_delta(&mut buf, None).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
