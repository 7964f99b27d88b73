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
//! [`encoded_interval_len`] is not a size of anything this module emits:
//! it is the paper's `O(n)` report size (§IV) — fixed-width, 4 bytes per
//! clock component — which `Interval::wire_size`, the baselines and the
//! bench's `bytes_per_interval.dense` column bill, and which the delta
//! sizes are compared with. It lives here so that every byte count of an
//! interval comes from one module.

use crate::interval::{Interval, IntervalKind, IntervalRef};
use bytes::{Buf, BufMut, Bytes, BytesMut};
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
// varint / zigzag primitives
// ---------------------------------------------------------------------------

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut Bytes) -> Result<u64, DecodeError> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        if !buf.has_remaining() {
            return Err(DecodeError("varint truncated"));
        }
        let byte = buf.get_u8();
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

fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
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
    buf: &mut Bytes,
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
pub fn encode_clock_delta(clock: &VectorClock, base: Option<&VectorClock>, buf: &mut BytesMut) {
    debug_assert!(
        clock.len() <= MAX_PROCESSES,
        "clock wider than MAX_PROCESSES"
    );
    if let Some(b) = base {
        debug_assert_eq!(b.len(), clock.len(), "delta base width mismatch");
    }
    buf.put_u32_le((u32::from(CLOCK_DELTA_TAG) << 24) | clock.len() as u32);
    buf.put_u8(u8::from(base.is_some()));
    for d in delta_components(clock, base) {
        put_varint(buf, d);
    }
}

/// Decodes a delta clock frame. `base` must match what the encoder used:
/// a stateful frame (`base_flag = 1`) without a base is an error, and a
/// standalone frame ignores any base passed.
pub fn decode_clock_delta(
    buf: &mut Bytes,
    base: Option<&VectorClock>,
) -> Result<VectorClock, DecodeError> {
    if buf.remaining() < 5 {
        return Err(DecodeError("delta clock header truncated"));
    }
    let header = buf.get_u32_le();
    if (header >> 24) as u8 != CLOCK_DELTA_TAG {
        return Err(DecodeError("not a delta clock frame"));
    }
    let len = (header & 0x00ff_ffff) as usize;
    if len > MAX_PROCESSES {
        return Err(DecodeError("clock length exceeds MAX_PROCESSES"));
    }
    let base = match buf.get_u8() {
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
    5 + delta_components(clock, base).map(varint_len).sum::<usize>()
}

/// Encodes an interval as a delta frame. `base` (if any) is the base for
/// `lo`; `hi` is always encoded against `lo`.
///
/// # Panics
///
/// Panics if `source` does not fit in 24 bits (callers stay below
/// [`MAX_PROCESSES`]) or if `lo` and `hi` have different widths.
pub fn encode_interval_delta(iv: &Interval, base: Option<&VectorClock>, buf: &mut BytesMut) {
    assert!(iv.source.0 < 1 << 24, "source id exceeds 24 bits");
    assert_eq!(iv.lo.len(), iv.hi.len(), "interval bound width mismatch");
    buf.put_u32_le((u32::from(INTERVAL_DELTA_TAG) << 24) | iv.source.0);
    put_varint(buf, iv.seq);
    match iv.kind {
        IntervalKind::Local => buf.put_u8(0),
        IntervalKind::Aggregated { level } => {
            buf.put_u8(1);
            put_varint(buf, u64::from(level));
        }
    }
    encode_clock_delta(&iv.lo, base, buf);
    for d in delta_components(&iv.hi, Some(&iv.lo)) {
        put_varint(buf, d);
    }
    put_varint(buf, iv.coverage.len() as u64);
    for r in &iv.coverage {
        put_varint(buf, u64::from(r.process.0));
        put_varint(buf, r.seq);
    }
}

/// Decodes a delta interval frame (see [`encode_interval_delta`] for the
/// base contract).
pub fn decode_interval_delta(
    buf: &mut Bytes,
    base: Option<&VectorClock>,
) -> Result<Interval, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError("interval header truncated"));
    }
    let header = buf.get_u32_le();
    if (header >> 24) as u8 != INTERVAL_DELTA_TAG {
        return Err(DecodeError("not a delta interval frame"));
    }
    let source = ProcessId(header & 0x00ff_ffff);
    let seq = get_varint(buf)?;
    if !buf.has_remaining() {
        return Err(DecodeError("interval kind truncated"));
    }
    let kind = match buf.get_u8() {
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
    let kind = match iv.kind {
        IntervalKind::Local => 1,
        IntervalKind::Aggregated { level } => 1 + varint_len(u64::from(level)),
    };
    4 + varint_len(iv.seq)
        + kind
        + encoded_clock_delta_len(&iv.lo, base)
        + delta_components(&iv.hi, Some(&iv.lo))
            .map(varint_len)
            .sum::<usize>()
        + varint_len(iv.coverage.len() as u64)
        + iv.coverage
            .iter()
            .map(|r| varint_len(u64::from(r.process.0)) + varint_len(r.seq))
            .sum::<usize>()
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
pub fn encode_tenant_batch(groups: &[TenantGroup], base: Option<&VectorClock>, buf: &mut BytesMut) {
    assert!(groups.len() < 1 << 24, "batch group count exceeds 24 bits");
    buf.put_u32_le((u32::from(TENANT_BATCH_TAG) << 24) | groups.len() as u32);
    let mut chain_base = base;
    for (preds, iv) in groups {
        assert!(!preds.is_empty(), "a batch group must address a tenant");
        put_varint(buf, preds.len() as u64);
        for &pred in preds {
            put_varint(buf, u64::from(pred));
        }
        encode_interval_delta(iv, chain_base, buf);
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
    buf: &mut Bytes,
    base: Option<&VectorClock>,
) -> Result<Vec<TenantGroup>, DecodeError> {
    if buf.remaining() < 4 {
        return Err(DecodeError("batch header truncated"));
    }
    let header = buf.get_u32_le();
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
    let mut total = 4;
    let mut chain_base = base;
    for (preds, iv) in groups {
        total += varint_len(preds.len() as u64)
            + preds
                .iter()
                .map(|&p| varint_len(u64::from(p)))
                .sum::<usize>()
            + encoded_interval_delta_len(iv, chain_base);
        chain_base = Some(&iv.lo);
    }
    total
}

/// Convenience: encode an interval into a fresh buffer as a standalone
/// delta frame (zero base — decodable with no connection state).
pub fn interval_to_bytes_delta(iv: &Interval) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_interval_delta_len(iv, None));
    encode_interval_delta(iv, None, &mut buf);
    buf.freeze()
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
                decode_interval_delta(&mut Bytes::from(raw), None),
                Err(DecodeError("not a delta interval frame"))
            );
        }
    }

    #[test]
    fn bad_kind_tag_rejected() {
        let mut raw = interval_to_bytes_delta(&sample_local()).to_vec();
        raw[5] = 9; // kind tag offset: 4 (header) + 1 (varint seq = 7)
        assert_eq!(
            decode_interval_delta(&mut Bytes::from(raw), None),
            Err(DecodeError("unknown interval kind tag"))
        );
    }

    #[test]
    fn multiple_intervals_stream() {
        // Back to back in one buffer, the second chained against the
        // first's `lo` — each decode consumes exactly its own frame.
        let a = sample_local();
        let b = sample_aggregated();
        let mut buf = BytesMut::new();
        encode_interval_delta(&a, None, &mut buf);
        encode_interval_delta(&b, Some(&a.lo), &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(decode_interval_delta(&mut bytes, None).unwrap(), a);
        assert_eq!(decode_interval_delta(&mut bytes, Some(&a.lo)).unwrap(), b);
        assert!(!bytes.has_remaining());
    }

    // --- hostile length prefixes -------------------------------------------

    #[test]
    fn hostile_coverage_length_rejected() {
        let mut raw = interval_to_bytes_delta(&sample_local()).to_vec();
        // The frame ends with varint coverage_len = 1 and the two-byte
        // self-coverage entry; claim MAX_COVERAGE + 1 entries instead.
        raw.truncate(raw.len() - 3);
        let mut claim = BytesMut::new();
        put_varint(&mut claim, MAX_COVERAGE as u64 + 1);
        raw.extend_from_slice(claim.freeze().as_slice());
        assert_eq!(
            decode_interval_delta(&mut Bytes::from(raw), None),
            Err(DecodeError("coverage length exceeds MAX_COVERAGE"))
        );
    }

    #[test]
    fn hostile_delta_clock_length_rejected() {
        let mut raw = Vec::new();
        let header = (u32::from(CLOCK_DELTA_TAG) << 24) | 0x00ff_ffff;
        raw.extend_from_slice(&header.to_le_bytes());
        raw.push(0); // base flag
        let mut buf = Bytes::from(raw);
        assert_eq!(
            decode_clock_delta(&mut buf, None),
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
            decode_clock_delta(&mut Bytes::from(raw), None),
            Err(DecodeError("clock components truncated"))
        );
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
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut bytes = buf.freeze();
            assert_eq!(get_varint(&mut bytes).unwrap(), v);
            assert!(!bytes.has_remaining());
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
        // small magnitudes stay small
        assert!(varint_len(zigzag(-1)) == 1);
        assert!(varint_len(zigzag(1)) == 1);
    }

    #[test]
    fn varint_truncation_and_overflow_rejected() {
        let mut truncated = Bytes::from(vec![0x80, 0x80]);
        assert_eq!(
            get_varint(&mut truncated),
            Err(DecodeError("varint truncated"))
        );
        let mut too_big = Bytes::from(vec![
            0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f,
        ]);
        assert_eq!(
            get_varint(&mut too_big),
            Err(DecodeError("varint overflows u64"))
        );
    }

    // --- delta clock -------------------------------------------------------

    #[test]
    fn delta_clock_standalone_round_trip() {
        let c = VectorClock::from_components(vec![0, u32::MAX, 17, 3]);
        let mut buf = BytesMut::new();
        encode_clock_delta(&c, None, &mut buf);
        assert_eq!(buf.len(), encoded_clock_delta_len(&c, None));
        let mut bytes = buf.freeze();
        assert_eq!(decode_clock_delta(&mut bytes, None).unwrap(), c);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn delta_clock_stateful_round_trip() {
        let base = VectorClock::from_components(vec![100, 200, 300]);
        let c = VectorClock::from_components(vec![101, 199, 300]);
        let mut buf = BytesMut::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let stateful_len = buf.len();
        assert_eq!(stateful_len, encoded_clock_delta_len(&c, Some(&base)));
        let mut bytes = buf.freeze();
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
        let mut buf = BytesMut::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_clock_delta(&mut bytes, None),
            Err(DecodeError("stateful delta frame but no base supplied"))
        );
    }

    #[test]
    fn wrong_base_width_errors() {
        let base = VectorClock::from_components(vec![5, 5]);
        let c = VectorClock::from_components(vec![6, 5]);
        let mut buf = BytesMut::new();
        encode_clock_delta(&c, Some(&base), &mut buf);
        let mut bytes = buf.freeze();
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
        let mut buf = Bytes::from(raw);
        assert_eq!(
            decode_clock_delta(&mut buf, None),
            Err(DecodeError("delta component out of range"))
        );
        // ... or, on top of a non-zero base, past the end of `i64`.
        let mut buf = BytesMut::new();
        buf.put_u32_le((u32::from(CLOCK_DELTA_TAG) << 24) | 1);
        buf.put_u8(1);
        put_varint(&mut buf, zigzag(i64::MAX));
        let base = VectorClock::from_components(vec![5]);
        assert_eq!(
            decode_clock_delta(&mut buf.freeze(), Some(&base)),
            Err(DecodeError("delta component out of range"))
        );
    }

    // --- delta interval ----------------------------------------------------

    #[test]
    fn delta_interval_standalone_round_trip() {
        for iv in [sample_local(), sample_aggregated()] {
            let bytes = interval_to_bytes_delta(&iv);
            assert_eq!(bytes.len(), encoded_interval_delta_len(&iv, None));
            let mut buf = bytes.clone();
            assert_eq!(decode_interval_delta(&mut buf, None).unwrap(), iv);
            assert!(!buf.has_remaining());
        }
    }

    #[test]
    fn delta_interval_stateful_round_trip() {
        let iv = sample_local();
        let base = VectorClock::from_components(vec![1, 2, 3, 3]);
        let mut buf = BytesMut::new();
        encode_interval_delta(&iv, Some(&base), &mut buf);
        assert_eq!(buf.len(), encoded_interval_delta_len(&iv, Some(&base)));
        let mut bytes = buf.freeze();
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
        let mut buf = BytesMut::new();
        encode_tenant_batch(&entries, None, &mut buf);
        assert_eq!(buf.len(), encoded_tenant_batch_len(&entries, None));
        let mut bytes = buf.freeze();
        assert_eq!(decode_tenant_batch(&mut bytes, None).unwrap(), entries);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn tenant_batch_stateful_round_trip() {
        let entries = sample_batch();
        let base = VectorClock::from_components(vec![1, 2, 3, 3]);
        let mut buf = BytesMut::new();
        encode_tenant_batch(&entries, Some(&base), &mut buf);
        assert_eq!(buf.len(), encoded_tenant_batch_len(&entries, Some(&base)));
        let mut bytes = buf.freeze();
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
        let mut buf = BytesMut::new();
        encode_tenant_batch(&[], None, &mut buf);
        assert_eq!(buf.len(), 4);
        let mut bytes = buf.freeze();
        assert_eq!(decode_tenant_batch(&mut bytes, None).unwrap(), vec![]);
    }

    #[test]
    fn tenant_batch_stateful_without_base_errors() {
        let entries = sample_batch();
        let base = VectorClock::from_components(vec![1, 1, 1, 1]);
        let mut buf = BytesMut::new();
        encode_tenant_batch(&entries, Some(&base), &mut buf);
        let mut bytes = buf.freeze();
        assert_eq!(
            decode_tenant_batch(&mut bytes, None),
            Err(DecodeError("stateful delta frame but no base supplied"))
        );
    }

    #[test]
    fn tenant_batch_truncations_error_cleanly() {
        let entries = sample_batch();
        let mut buf = BytesMut::new();
        encode_tenant_batch(&entries, None, &mut buf);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() {
            let mut truncated = bytes.clone();
            truncated.truncate(cut);
            assert!(
                decode_tenant_batch(&mut truncated, None).is_err(),
                "cut at {cut} must fail"
            );
        }
    }

    #[test]
    fn hostile_batch_count_rejected_before_allocation() {
        let header = (u32::from(TENANT_BATCH_TAG) << 24) | 0x00ff_ffff;
        let mut buf = Bytes::from(header.to_le_bytes().to_vec());
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
            decode_tenant_batch(&mut Bytes::from(raw), None),
            Err(DecodeError("batch groups truncated"))
        );
    }

    #[test]
    fn hostile_empty_group_rejected() {
        // Header claims one group, whose tenant count is zero.
        let header = (u32::from(TENANT_BATCH_TAG) << 24) | 1;
        let mut raw = header.to_le_bytes().to_vec();
        raw.extend_from_slice(&[0x00; MIN_GROUP_LEN]); // k = 0, then padding
        let mut buf = Bytes::from(raw);
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
            let mut truncated = bytes.clone();
            truncated.truncate(cut);
            let mut buf = truncated;
            assert!(
                decode_interval_delta(&mut buf, None).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
