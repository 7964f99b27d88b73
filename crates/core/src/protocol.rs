//! Wire messages of the distributed monitor, their byte layout, and the
//! per-connection delta codec that shrinks them. Every [`DetectMsg`] is
//! something one monitor sends another, on the simulated network and over
//! TCP alike: tree repair included, it is all the protocol there is.
//!
//! [`DetectMsg::encode`] is the one statement of what a message weighs.
//! TCP writes its bytes (inside `net::wire`'s session tag 3); the
//! simulator bills their count. Interval payloads go through the
//! connection's [`ConnCodec`]; everything else is fixed-width
//! little-endian.
//!
//! ```text
//! DetectMsg := u8 subtag, fields…
//!    0 Interval      := u32 from, u8 resync, interval frame (codec)
//!    1 Heartbeat     := u32 from, u64 epoch, u8 has_parent, [u32 parent],
//!                       u8 n_ancestors, n × u32 ancestor
//!    2 Ack           := u32 from, u64 upto
//!  3–6 (retired)
//!    7 (unassigned)
//!    8 Suspect       := u32 from, u32 suspect
//!    9 Adopt         := u32 child, u64 epoch, u8 has_dead, [u32 dead_parent]
//!   10 AdoptAck      := u32 from, u32 child, u64 epoch, u8 accepted
//!   11 ReReport      := u32 from, u64 epoch
//!   12 IntervalBatch := u32 from, u8 resync, tenant batch frame (codec)
//! ```
//!
//! Subtags 3–6 are retired: they carried a clairvoyant harness's four
//! tree-repair control messages, and no monitor sends or applies such a
//! message any more. Every tree, simulated or TCP, repairs itself
//! through `Suspect`/`Adopt`/`AdoptAck`/`ReReport`, and a message carrying
//! 3–6 is refused like the unassigned subtag 7.

use ftscp_intervals::codec::{
    decode_interval_delta, decode_tenant_batch, encode_interval_delta, encode_tenant_batch,
    encoded_interval_delta_len, DecodeError, Reader, Sink, TenantGroup,
};
use ftscp_intervals::Interval;
use ftscp_vclock::{ProcessId, VectorClock};

/// Messages exchanged by [`crate::monitor::MonitorApp`]s.
///
/// `Interval` and `Heartbeat` are the algorithm's own traffic. The
/// membership variants (`Suspect`, `Adopt`, `AdoptAck`, `ReReport`) are
/// the decentralized §III-F repair handshake — see
/// [`crate::membership`]. A root's `Heartbeat` names its heirs where a
/// non-root's carries the rungs above its parent. Only the in-memory
/// `HierarchicalDetector` and `PredicateRegistry` repair without
/// messages: they apply by call the rule the handshake settles to,
/// [`ladder_adopters`](crate::membership::ladder_adopters).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum DetectMsg {
    /// A completed interval (raw from a leaf, aggregated from an interior
    /// node) reported child → parent.
    Interval {
        /// The reporting child.
        from: ProcessId,
        /// The reported interval.
        interval: Interval,
        /// True when this is a re-report to a new parent after a tree
        /// repair: the receiver resets its per-child sequence baseline to
        /// this interval instead of waiting for earlier (already consumed
        /// elsewhere) sequence numbers.
        resync: bool,
    },
    /// A predicate-tagged interval batch reported child → parent: the
    /// multi-tenant uplink. One message per connection flush carries the
    /// pending intervals of *every* tenant with traffic, each interval
    /// tagged with the predicate ids consuming it and encoded once no
    /// matter the fan-out (see `ftscp_intervals::codec::encode_tenant_batch`
    /// for the 0xD3 frame this maps to). Replaces per-predicate
    /// [`Interval`](Self::Interval) traffic in multi-tenant deployments.
    IntervalBatch {
        /// The reporting child.
        from: ProcessId,
        /// `(predicate ids, interval)` groups, in uplink order. The delta
        /// chain threads through the batch, so groups must be decoded (and
        /// fed) front to back.
        groups: Vec<(Vec<u32>, Interval)>,
        /// True when this batch re-opens the stream to a new parent after
        /// a tree repair (same contract as [`Interval`](Self::Interval)'s
        /// `resync`, applied to every tenant's stream at once).
        resync: bool,
    },
    /// Liveness beacon exchanged along tree edges. Besides proving the
    /// sender alive it carries its incarnation (stale beacons from a dead
    /// incarnation are rejected by epoch) and its ancestor chain: its
    /// current parent — the grandparent hint that tells each child where
    /// to go when the sender dies (§III-F's preferred adopter) — plus the
    /// ancestors above it, so a child's fallback ladder reaches past a
    /// grandparent that died together with the parent.
    Heartbeat {
        /// The beaconing node.
        from: ProcessId,
        /// The beaconing node's incarnation number.
        epoch: u64,
        /// The beaconing node's own parent (the receiver's grandparent
        /// when the receiver is a child of `from`); `None` at a root.
        parent: Option<ProcessId>,
        /// The beaconing node's ancestors *above* `parent`, nearest
        /// first, as learned from its own parent's heartbeats (capped at
        /// [`crate::membership::ANCESTOR_HINT_CAP`]); the chain ends in the
        /// heirs of the root above. At a root: its heirs, its live
        /// children by id. Empty when the parent's chain has not been
        /// heard yet, and on a beacon to the parent, which reads none.
        ancestors: Vec<ProcessId>,
    },
    /// Cumulative acknowledgement: the parent has delivered every
    /// interval with `seq < upto` from `from`'s stream to its engine.
    /// Part of the optional reliability layer for lossy links.
    Ack {
        /// The acknowledging parent.
        from: ProcessId,
        /// One past the highest contiguously delivered sequence number.
        upto: u64,
    },
    /// Membership: the sender believes `suspect` — a child of the
    /// receiver — has crashed (heartbeat timeout). The receiver drops the
    /// dead child's queue if it still holds one. Advisory and idempotent;
    /// [`Adopt`](Self::Adopt) carries the same fact in `dead_parent` so
    /// the handshake survives reordering.
    Suspect {
        /// The suspecting node.
        from: ProcessId,
        /// The node presumed dead.
        suspect: ProcessId,
    },
    /// Membership: `child` lost its parent and asks the receiver (its
    /// grandparent, learned from heartbeat hints) to adopt it, under
    /// `epoch` as the attempt's fencing token.
    Adopt {
        /// The orphaned subtree root asking for adoption.
        child: ProcessId,
        /// The adopter's incarnation/attempt epoch; the `AdoptAck` must
        /// echo it, and lower epochs from `child` are stale thereafter.
        epoch: u64,
        /// The dead parent being replaced (`None` when a rebooted node
        /// joins from scratch); the receiver drops its queue if it still
        /// holds one.
        dead_parent: Option<ProcessId>,
    },
    /// Membership: answer to [`Adopt`](Self::Adopt).
    AdoptAck {
        /// The (prospective) new parent answering.
        from: ProcessId,
        /// The child whose adoption is being answered.
        child: ProcessId,
        /// Echo of the attempt epoch (fences stale acks).
        epoch: u64,
        /// False when the attempt was rejected (stale epoch).
        accepted: bool,
    },
    /// Membership: the adopted child announces that its interval stream
    /// restarts below (the standalone-first re-reports that refill the
    /// adopter's fresh queue, §III-B) and commits the adoption epoch.
    ReReport {
        /// The adopted child.
        from: ProcessId,
        /// The committed adoption epoch.
        epoch: u64,
    },
}

impl DetectMsg {
    /// Appends the message — subtag, then fields, as the module doc lays
    /// them out — to `out`, advancing `codec` if it carries intervals. Run
    /// into a [`Len`](ftscp_intervals::codec::Len) it is also the size the
    /// simulator bills, so both runtimes count the same bytes.
    pub fn encode(&self, codec: &mut ConnCodec, out: &mut impl Sink) {
        match self {
            DetectMsg::Interval {
                from,
                interval,
                resync,
            } => {
                out.put(&[0]);
                out.put(&from.0.to_le_bytes());
                out.put(&[u8::from(*resync)]);
                codec.encode(interval, out);
            }
            DetectMsg::Heartbeat {
                from,
                epoch,
                parent,
                ancestors,
            } => {
                out.put(&[1]);
                out.put(&from.0.to_le_bytes());
                out.put(&epoch.to_le_bytes());
                put_optional(out, *parent);
                debug_assert!(ancestors.len() <= u8::MAX as usize);
                out.put(&[ancestors.len() as u8]);
                for a in ancestors {
                    out.put(&a.0.to_le_bytes());
                }
            }
            DetectMsg::Ack { from, upto } => {
                out.put(&[2]);
                out.put(&from.0.to_le_bytes());
                out.put(&upto.to_le_bytes());
            }
            DetectMsg::Suspect { from, suspect } => {
                out.put(&[8]);
                out.put(&from.0.to_le_bytes());
                out.put(&suspect.0.to_le_bytes());
            }
            DetectMsg::Adopt {
                child,
                epoch,
                dead_parent,
            } => {
                out.put(&[9]);
                out.put(&child.0.to_le_bytes());
                out.put(&epoch.to_le_bytes());
                put_optional(out, *dead_parent);
            }
            DetectMsg::AdoptAck {
                from,
                child,
                epoch,
                accepted,
            } => {
                out.put(&[10]);
                out.put(&from.0.to_le_bytes());
                out.put(&child.0.to_le_bytes());
                out.put(&epoch.to_le_bytes());
                out.put(&[u8::from(*accepted)]);
            }
            DetectMsg::ReReport { from, epoch } => {
                out.put(&[11]);
                out.put(&from.0.to_le_bytes());
                out.put(&epoch.to_le_bytes());
            }
            DetectMsg::IntervalBatch {
                from,
                groups,
                resync,
            } => {
                out.put(&[12]);
                out.put(&from.0.to_le_bytes());
                out.put(&[u8::from(*resync)]);
                if *resync {
                    codec.encode_batch_standalone(groups, out);
                } else {
                    codec.encode_batch(groups, out);
                }
            }
        }
    }

    /// Reads one message from where `r` stands, advancing `codec` if it
    /// carries intervals. The retired subtags 3–6 and the unassigned 7
    /// are refused as unknown.
    pub fn decode(r: &mut Reader<'_>, codec: &mut ConnCodec) -> Result<DetectMsg, DecodeError> {
        Ok(match r.u8(TRUNCATED)? {
            0 => DetectMsg::Interval {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                resync: get_flag(r, "bad resync flag")?,
                interval: codec.decode(r)?,
            },
            1 => {
                let from = ProcessId(r.u32_le(TRUNCATED)?);
                let epoch = r.u64_le(TRUNCATED)?;
                let parent = get_optional(r, "bad parent flag")?;
                let n = r.u8(TRUNCATED)? as usize;
                let mut ancestors = Vec::with_capacity(n);
                for _ in 0..n {
                    ancestors.push(ProcessId(r.u32_le(TRUNCATED)?));
                }
                DetectMsg::Heartbeat {
                    from,
                    epoch,
                    parent,
                    ancestors,
                }
            }
            2 => DetectMsg::Ack {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                upto: r.u64_le(TRUNCATED)?,
            },
            8 => DetectMsg::Suspect {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                suspect: ProcessId(r.u32_le(TRUNCATED)?),
            },
            9 => DetectMsg::Adopt {
                child: ProcessId(r.u32_le(TRUNCATED)?),
                epoch: r.u64_le(TRUNCATED)?,
                dead_parent: get_optional(r, "bad dead-parent flag")?,
            },
            10 => DetectMsg::AdoptAck {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                child: ProcessId(r.u32_le(TRUNCATED)?),
                epoch: r.u64_le(TRUNCATED)?,
                accepted: get_flag(r, "bad accepted flag")?,
            },
            11 => DetectMsg::ReReport {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                epoch: r.u64_le(TRUNCATED)?,
            },
            12 => DetectMsg::IntervalBatch {
                from: ProcessId(r.u32_le(TRUNCATED)?),
                resync: get_flag(r, "bad resync flag")?,
                groups: codec.decode_batch(r)?,
            },
            _ => return Err(DecodeError("unknown detect subtag")),
        })
    }

    /// True for the algorithm's own traffic (what Figures 4–5 count);
    /// false for heartbeats and control.
    pub fn is_interval(&self) -> bool {
        matches!(
            self,
            DetectMsg::Interval { .. } | DetectMsg::IntervalBatch { .. }
        )
    }
}

/// What every fixed-width read of a message fails with.
const TRUNCATED: &str = "message truncated";

/// A process id that may be absent: a `u8` flag, then the id if present.
fn put_optional(out: &mut impl Sink, p: Option<ProcessId>) {
    match p {
        Some(p) => {
            out.put(&[1]);
            out.put(&p.0.to_le_bytes());
        }
        None => out.put(&[0]),
    }
}

fn get_optional(r: &mut Reader<'_>, bad: &'static str) -> Result<Option<ProcessId>, DecodeError> {
    match r.u8(TRUNCATED)? {
        0 => Ok(None),
        1 => Ok(Some(ProcessId(r.u32_le(TRUNCATED)?))),
        _ => Err(DecodeError(bad)),
    }
}

fn get_flag(r: &mut Reader<'_>, bad: &'static str) -> Result<bool, DecodeError> {
    match r.u8(TRUNCATED)? {
        0 => Ok(false),
        1 => Ok(true),
        _ => Err(DecodeError(bad)),
    }
}

/// Per-connection delta codec for the child → parent interval stream.
///
/// A tree edge carries a FIFO stream of intervals whose `lo` clocks creep
/// forward a few components at a time, so encoding each `lo` as varint
/// deltas against the previous frame's `lo` collapses most components to a
/// single `0x00` byte (see `ftscp_intervals::codec` for the frame format).
/// `ConnCodec` holds that one piece of state — *base := `lo` of the last
/// frame* — for each direction of a connection.
///
/// # Contract
///
/// * **FIFO**: stateful frames must be decoded in the order they were
///   encoded. The monitor's reliability layer already guarantees in-order
///   delivery to the engine; the codec rides the same stream. TCP is FIFO
///   per connection; the simulator's links reorder, so its stateful bills
///   are a lower bound (`docs/PERF.md` §3).
/// * **Resync**: a [`standalone`](Self::encode_standalone) frame depends
///   on no prior state and may be decoded cold. Both halves reset their
///   base to that frame's `lo`, so retransmissions and re-reports after a
///   tree repair double as codec resync points.
/// * Frames are self-describing (a base flag distinguishes stateful from
///   standalone), so a decoder never misapplies a base — at worst it
///   reports a missing one.
#[derive(Clone, Debug, Default)]
pub struct ConnCodec {
    /// `lo` of the last frame encoded or decoded on this connection.
    base: Option<VectorClock>,
    /// Frames this codec has encoded, and how many of them standalone.
    sent: (u64, u64),
}

impl ConnCodec {
    /// A fresh codec with no base (the next frame must be standalone, or
    /// a stateful encode will fall back to standalone automatically).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops the base, as when a connection is torn down and re-opened
    /// (e.g. the monitor is re-parented).
    pub fn reset(&mut self) {
        self.base = None;
    }

    /// `(frames, standalone)` this codec has *encoded* so far: interval and
    /// batch frames, and those of them a cold decoder can read (resync
    /// points). Transports bill the difference around a send.
    pub fn sent_tally(&self) -> (u64, u64) {
        self.sent
    }

    /// The base the next stateful frame would be encoded against, if the
    /// connection has one of the width of `first` (a batch's first group).
    fn usable_base(&self, first: Option<&Interval>) -> Option<&VectorClock> {
        let width = first?.lo.len();
        self.base.as_ref().filter(|b| b.len() == width)
    }

    /// Books one encoded frame and advances the base to `last`'s `lo`.
    fn note_encoded(&mut self, standalone: bool, last: Option<&Interval>) {
        self.sent.0 += 1;
        self.sent.1 += u64::from(standalone);
        if let Some(iv) = last {
            self.note_sent(iv);
        }
    }

    /// Appends `iv` to `buf` as the next frame of the stream and advances
    /// the base. Uses the stateful (smaller) form when a base of matching
    /// width is available, and the standalone form otherwise.
    pub fn encode(&mut self, iv: &Interval, buf: &mut impl Sink) {
        let base = self.usable_base(Some(iv));
        let standalone = base.is_none();
        encode_interval_delta(iv, base, buf);
        self.note_encoded(standalone, Some(iv));
    }

    /// Encodes `iv` standalone (no dependence on connection state) and
    /// resets the base to `iv.lo`. Use for retransmissions and re-reports
    /// to a new parent.
    pub fn encode_standalone(&mut self, iv: &Interval, buf: &mut impl Sink) {
        encode_interval_delta(iv, None, buf);
        self.note_encoded(true, Some(iv));
    }

    /// Decodes the next frame of the stream (stateful or standalone) from
    /// where `buf` stands and advances the base to its `lo`.
    pub fn decode(&mut self, buf: &mut Reader<'_>) -> Result<Interval, DecodeError> {
        let iv = decode_interval_delta(buf, self.base.as_ref())?;
        self.note_sent(&iv);
        Ok(iv)
    }

    /// Size `iv` would occupy as the next stateful frame. Pure query: does
    /// not advance the base — pair with [`note_sent`](Self::note_sent).
    /// The monitor bills by running [`DetectMsg::encode`] into a counting
    /// sink instead; this query, [`standalone_len`](Self::standalone_len)
    /// and `note_sent` remain for `ftscp_bench`'s per-sender codec replay.
    pub fn stateful_len(&self, iv: &Interval) -> usize {
        encoded_interval_delta_len(iv, self.usable_base(Some(iv)))
    }

    /// Size of `iv` as a standalone frame; independent of any connection.
    pub fn standalone_len(iv: &Interval) -> usize {
        encoded_interval_delta_len(iv, None)
    }

    /// Advances the base as if `iv` had just been sent (or received) on
    /// this connection.
    pub fn note_sent(&mut self, iv: &Interval) {
        self.base = Some(iv.lo.clone());
    }

    /// Encodes a predicate-tagged batch as the next frame of the stream.
    /// Group 0 chains against the connection base (when one of matching
    /// width exists), later groups against their predecessor, and the
    /// base advances to the *last* group's `lo` — the batch behaves like
    /// the same intervals sent back to back, at a fraction of the bytes.
    pub fn encode_batch(&mut self, groups: &[TenantGroup], buf: &mut impl Sink) {
        let base = self.usable_base(groups.first().map(|(_, iv)| iv));
        let standalone = base.is_none();
        encode_tenant_batch(groups, base, buf);
        self.note_encoded(standalone, groups.last().map(|(_, iv)| iv));
    }

    /// Encodes a batch standalone (decodable cold) and resyncs the base
    /// to the last group's `lo`. Use for the first flush on a connection
    /// and for re-reports after a tree repair.
    pub fn encode_batch_standalone(&mut self, groups: &[TenantGroup], buf: &mut impl Sink) {
        encode_tenant_batch(groups, None, buf);
        self.note_encoded(true, groups.last().map(|(_, iv)| iv));
    }

    /// Decodes the next batch frame and advances the base to its last
    /// group's `lo`, mirroring [`encode_batch`](Self::encode_batch).
    pub fn decode_batch(&mut self, buf: &mut Reader<'_>) -> Result<Vec<TenantGroup>, DecodeError> {
        let groups = decode_tenant_batch(buf, self.base.as_ref())?;
        if let Some((_, last)) = groups.last() {
            self.note_sent(last);
        }
        Ok(groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_intervals::codec::Len;
    use ftscp_vclock::VectorClock;

    /// The bytes `msg` occupies on a fresh connection.
    fn size(msg: &DetectMsg) -> usize {
        Len::of(|len| msg.encode(&mut ConnCodec::new(), len))
    }

    #[test]
    fn sizes_scale_with_interval_width() {
        let narrow = DetectMsg::Interval {
            from: ProcessId(0),
            interval: Interval::local(ProcessId(0), 0, VectorClock::new(2), VectorClock::new(2)),
            resync: false,
        };
        let wide = DetectMsg::Interval {
            from: ProcessId(0),
            interval: Interval::local(ProcessId(0), 0, VectorClock::new(64), VectorClock::new(64)),
            resync: false,
        };
        assert!(size(&wide) > size(&narrow));
        let hb = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: None,
            ancestors: vec![],
        };
        assert!(size(&hb) < size(&narrow));
        let hb_with_hint = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: Some(ProcessId(1)),
            ancestors: vec![],
        };
        assert!(size(&hb_with_hint) > size(&hb));
        let hb_with_chain = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: Some(ProcessId(1)),
            ancestors: vec![ProcessId(2), ProcessId(3)],
        };
        assert!(size(&hb_with_chain) > size(&hb_with_hint));
    }

    fn iv(seq: u64, lo: Vec<u32>, hi: Vec<u32>) -> Interval {
        Interval::local(
            ProcessId(3),
            seq,
            VectorClock::from_components(lo),
            VectorClock::from_components(hi),
        )
    }

    #[test]
    fn conn_codec_fifo_roundtrip() {
        let stream = [
            iv(0, vec![1, 0, 0, 0], vec![4, 2, 0, 0]),
            iv(1, vec![5, 2, 0, 0], vec![7, 2, 1, 0]),
            iv(2, vec![8, 2, 1, 0], vec![9, 3, 1, 1]),
        ];
        let mut tx = ConnCodec::new();
        let mut rx = ConnCodec::new();
        for (i, original) in stream.iter().enumerate() {
            let mut buf = Vec::new();
            let predicted = tx.stateful_len(original);
            tx.encode(original, &mut buf);
            assert_eq!(buf.len(), predicted, "size query matches encoder");
            let decoded = rx.decode(&mut Reader::new(&buf)).expect("frame decodes");
            assert_eq!(&decoded, original, "frame {i} roundtrips");
        }
    }

    #[test]
    fn stateful_frames_beat_standalone_on_slow_moving_streams() {
        let a = iv(0, vec![900, 800, 700, 600], vec![905, 800, 700, 600]);
        let b = iv(1, vec![906, 800, 701, 600], vec![910, 801, 701, 600]);
        let mut tx = ConnCodec::new();
        tx.note_sent(&a);
        assert!(
            tx.stateful_len(&b) < ConnCodec::standalone_len(&b),
            "deltas against the previous lo are smaller than against zero"
        );
    }

    #[test]
    fn standalone_frame_resyncs_a_cold_decoder() {
        let a = iv(0, vec![3, 1], vec![4, 1]);
        let b = iv(1, vec![5, 1], vec![6, 2]);
        let mut tx = ConnCodec::new();
        let mut buf = Vec::new();
        tx.encode(&a, &mut buf); // consumed by a decoder that later died
        let mut buf = Vec::new();
        tx.encode_standalone(&b, &mut buf);
        // A brand-new decoder (no base) handles the standalone frame...
        let mut rx = ConnCodec::new();
        let decoded = rx.decode(&mut Reader::new(&buf)).expect("cold decode");
        assert_eq!(decoded, b);
        // ...and is synced for the next stateful frame.
        let c = iv(2, vec![6, 2], vec![7, 3]);
        let mut buf = Vec::new();
        tx.encode(&c, &mut buf);
        assert_eq!(rx.decode(&mut Reader::new(&buf)).expect("warm decode"), c);
    }

    #[test]
    fn stateful_decode_without_base_is_an_error_not_garbage() {
        let a = iv(0, vec![3, 1], vec![4, 1]);
        let b = iv(1, vec![5, 1], vec![6, 2]);
        let mut tx = ConnCodec::new();
        let mut buf = Vec::new();
        tx.encode(&a, &mut buf); // establishes tx base; frame dropped
        let mut buf = Vec::new();
        tx.encode(&b, &mut buf); // stateful frame
        let mut rx = ConnCodec::new(); // never saw the first frame
        assert!(rx.decode(&mut Reader::new(&buf)).is_err());
    }

    #[test]
    fn dense_frame_is_rejected_like_any_unknown_version() {
        // The retired fixed-width layout (version byte 0x00) of
        // `iv(0, [3, 1], [4, 1])`, built by hand: u32 source, u64 seq,
        // u8 kind, two length-prefixed clocks, one coverage entry.
        let mut raw = Vec::new();
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(&0u64.to_le_bytes());
        raw.push(0);
        for clock in [[3u32, 1], [4, 1]] {
            raw.extend_from_slice(&2u32.to_le_bytes());
            for c in clock {
                raw.extend_from_slice(&c.to_le_bytes());
            }
        }
        raw.extend_from_slice(&1u32.to_le_bytes());
        raw.extend_from_slice(&3u32.to_le_bytes());
        raw.extend_from_slice(&0u64.to_le_bytes());
        let mut rx = ConnCodec::new();
        assert!(rx.decode(&mut Reader::new(&raw)).is_err());
        raw[3] = 0x42;
        assert!(rx.decode(&mut Reader::new(&raw)).is_err());
    }

    /// Runs one encoder call and checks the tally after it — against
    /// `expect`, and against the frame itself: exactly the frames booked
    /// standalone are the ones a cold decoder can read.
    fn encode_step(
        tx: &mut ConnCodec,
        expect: (u64, u64),
        encode: impl FnOnce(&mut ConnCodec, &mut Vec<u8>),
    ) {
        let before = tx.sent_tally();
        let mut frame = Vec::new();
        encode(tx, &mut frame);
        assert_eq!(tx.sent_tally(), expect);
        let cold_ok = ConnCodec::new().decode(&mut Reader::new(&frame)).is_ok()
            || ConnCodec::new()
                .decode_batch(&mut Reader::new(&frame))
                .is_ok();
        assert_eq!(cold_ok, expect.1 > before.1, "tally {expect:?}");
    }

    #[test]
    fn encoder_tally_counts_frames_and_resync_points() {
        let a = iv(0, vec![1, 0], vec![4, 2]);
        let b = iv(1, vec![5, 2], vec![7, 2]);
        let wide = iv(2, vec![8, 2, 1], vec![9, 3, 1]);
        let groups = vec![(vec![0u32, 7], wide.clone())];
        let mut tx = ConnCodec::new();
        assert_eq!(tx.sent_tally(), (0, 0));
        // Cold → standalone, warm → stateful, a width change falls back to
        // standalone, the `_standalone` forms always are, and an empty
        // batch has no first group to chain.
        encode_step(&mut tx, (1, 1), |c, buf| c.encode(&a, buf));
        encode_step(&mut tx, (2, 1), |c, buf| c.encode(&b, buf));
        encode_step(&mut tx, (3, 2), |c, buf| c.encode(&wide, buf));
        encode_step(&mut tx, (4, 2), |c, buf| c.encode_batch(&groups, buf));
        encode_step(&mut tx, (5, 3), |c, buf| {
            c.encode_batch_standalone(&groups, buf)
        });
        encode_step(&mut tx, (6, 4), |c, buf| c.encode_standalone(&a, buf));
        encode_step(&mut tx, (7, 5), |c, buf| c.encode_batch(&[], buf));
        // Size queries, `note_sent` and decoding send nothing.
        let _ = tx.stateful_len(&b);
        tx.note_sent(&b);
        let mut frame = Vec::new();
        ConnCodec::new().encode(&a, &mut frame);
        tx.decode(&mut Reader::new(&frame))
            .expect("standalone frame");
        assert_eq!(tx.sent_tally(), (7, 5));
    }

    #[test]
    fn conn_codec_batch_interleaves_with_single_frames() {
        // A connection can mix plain interval frames and tenant batches:
        // both advance the same base, so the stream stays decodable.
        let a = iv(0, vec![1, 0, 0, 0], vec![4, 2, 0, 0]);
        let b = iv(1, vec![5, 2, 0, 0], vec![7, 2, 1, 0]);
        let c = iv(2, vec![8, 2, 1, 0], vec![9, 3, 1, 1]);
        let d = iv(3, vec![9, 3, 1, 1], vec![9, 4, 2, 1]);
        let mut tx = ConnCodec::new();
        let mut rx = ConnCodec::new();

        let mut buf = Vec::new();
        tx.encode(&a, &mut buf);
        assert_eq!(rx.decode(&mut Reader::new(&buf)).unwrap(), a);

        // Batch chains its first group against `a.lo` (the shared base).
        let groups = vec![(vec![0u32, 7], b.clone()), (vec![3u32], c.clone())];
        let mut buf = Vec::new();
        tx.encode_batch(&groups, &mut buf);
        assert_eq!(rx.decode_batch(&mut Reader::new(&buf)).unwrap(), groups);

        // And a later plain frame chains against the LAST group's lo.
        let mut buf = Vec::new();
        tx.encode(&d, &mut buf);
        assert_eq!(rx.decode(&mut Reader::new(&buf)).unwrap(), d);
    }

    #[test]
    fn standalone_batch_resyncs_a_cold_decoder() {
        let a = iv(0, vec![3, 1], vec![4, 1]);
        let b = iv(1, vec![5, 1], vec![6, 2]);
        let mut tx = ConnCodec::new();
        tx.note_sent(&iv(9, vec![2, 1], vec![3, 1])); // prior traffic
        let groups = vec![(vec![1u32], a), (vec![1u32, 2], b.clone())];
        let mut buf = Vec::new();
        tx.encode_batch_standalone(&groups, &mut buf);
        let mut rx = ConnCodec::new(); // never saw the prior traffic
        assert_eq!(rx.decode_batch(&mut Reader::new(&buf)).unwrap(), groups);
        // Both ends now share base = b.lo.
        let c = iv(2, vec![6, 2], vec![7, 3]);
        let mut buf = Vec::new();
        tx.encode(&c, &mut buf);
        assert_eq!(rx.decode(&mut Reader::new(&buf)).unwrap(), c);
    }

    #[test]
    fn interval_classification() {
        assert!(DetectMsg::Interval {
            from: ProcessId(0),
            interval: Interval::local(ProcessId(0), 0, VectorClock::new(1), VectorClock::new(1)),
            resync: false,
        }
        .is_interval());
        assert!(DetectMsg::IntervalBatch {
            from: ProcessId(3),
            groups: vec![(vec![0, 1, 2], iv(0, vec![1, 0], vec![4, 2]))],
            resync: false,
        }
        .is_interval());
        assert!(!DetectMsg::Ack {
            from: ProcessId(0),
            upto: 0
        }
        .is_interval());
    }
}
