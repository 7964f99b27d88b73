//! Wire messages of the distributed monitor, and the per-connection
//! delta codec that shrinks them. Every [`DetectMsg`] is something one
//! monitor sends another; the simulated harness's tree repair is not
//! among them — it is a [`RepairStep`](crate::membership::RepairStep)
//! applied by call.

use ftscp_intervals::codec::{
    decode_interval_delta, decode_tenant_batch, encode_interval_delta, encode_tenant_batch,
    encoded_interval_delta_len, encoded_tenant_batch_len, DecodeError, Reader, TenantGroup,
};
use ftscp_intervals::Interval;
use ftscp_vclock::{ProcessId, VectorClock};

/// Messages exchanged by [`crate::monitor::MonitorApp`]s.
///
/// `Interval` and `Heartbeat` are the algorithm's own traffic. The
/// membership variants (`Suspect`, `Adopt`, `AdoptAck`, `ReReport`) are
/// the decentralized §III-F repair handshake — see
/// [`crate::membership`]. The clairvoyant oracle
/// ([`crate::deploy::Deployment`] in `Scheduled` mode) expresses the same
/// reconfigurations as [`RepairStep`](crate::membership::RepairStep)s,
/// which it applies by call: they are not messages.
#[derive(Clone, Debug, PartialEq, Eq)]
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
        /// [`crate::membership::ANCESTOR_HINT_CAP`]). Empty at a root or
        /// when the parent's chain has not been heard yet.
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
    /// Approximate wire size in bytes (for the simulator's accounting).
    pub fn wire_size(&self) -> usize {
        match self {
            DetectMsg::Interval { interval, .. } => 8 + interval.wire_size(),
            DetectMsg::IntervalBatch { groups, .. } => {
                8 + 4
                    + groups
                        .iter()
                        .map(|(preds, iv)| 1 + 2 * preds.len() + iv.wire_size())
                        .sum::<usize>()
            }
            DetectMsg::Heartbeat {
                parent, ancestors, ..
            } => 14 + 4 * (usize::from(parent.is_some()) + ancestors.len()),
            DetectMsg::Ack { .. } => 16,
            DetectMsg::Suspect { .. } => 8,
            DetectMsg::Adopt { dead_parent, .. } => 13 + 4 * usize::from(dead_parent.is_some()),
            DetectMsg::AdoptAck { .. } => 17,
            DetectMsg::ReReport { .. } => 12,
        }
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

/// Fixed per-message overhead of an interval report on the wire: the
/// `from` process id (the same 8 bytes [`DetectMsg::wire_size`] charges).
pub(crate) const INTERVAL_MSG_OVERHEAD: usize = 8;

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
///   delivery to the engine; the codec rides the same stream.
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
    pub fn encode(&mut self, iv: &Interval, buf: &mut Vec<u8>) {
        let base = self.usable_base(Some(iv));
        let standalone = base.is_none();
        encode_interval_delta(iv, base, buf);
        self.note_encoded(standalone, Some(iv));
    }

    /// Encodes `iv` standalone (no dependence on connection state) and
    /// resets the base to `iv.lo`. Use for retransmissions and re-reports
    /// to a new parent.
    pub fn encode_standalone(&mut self, iv: &Interval, buf: &mut Vec<u8>) {
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
    /// not advance the base — pair with [`note_sent`](Self::note_sent)
    /// when only sizes are needed (the simulator ships structured messages
    /// and charges bytes separately).
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
    pub fn encode_batch(&mut self, groups: &[TenantGroup], buf: &mut Vec<u8>) {
        let base = self.usable_base(groups.first().map(|(_, iv)| iv));
        let standalone = base.is_none();
        encode_tenant_batch(groups, base, buf);
        self.note_encoded(standalone, groups.last().map(|(_, iv)| iv));
    }

    /// Encodes a batch standalone (decodable cold) and resyncs the base
    /// to the last group's `lo`. Use for the first flush on a connection
    /// and for re-reports after a tree repair.
    pub fn encode_batch_standalone(&mut self, groups: &[TenantGroup], buf: &mut Vec<u8>) {
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

    /// Size the batch would occupy as the next stateful frame. Pure query
    /// (does not advance the base), like [`stateful_len`](Self::stateful_len).
    pub fn batch_len(&self, groups: &[TenantGroup]) -> usize {
        encoded_tenant_batch_len(groups, self.usable_base(groups.first().map(|(_, iv)| iv)))
    }

    /// Compact wire size of a whole [`DetectMsg`] as the next frame on
    /// this connection: interval payloads get the delta codec (stateful
    /// here; use [`standalone_msg_size`](Self::standalone_msg_size) for
    /// retransmissions), everything else its fixed [`DetectMsg::wire_size`].
    /// Pure query, like [`stateful_len`](Self::stateful_len).
    pub fn msg_size(&self, msg: &DetectMsg) -> usize {
        match msg {
            DetectMsg::Interval { interval, .. } => {
                INTERVAL_MSG_OVERHEAD + self.stateful_len(interval)
            }
            DetectMsg::IntervalBatch { groups, .. } => {
                INTERVAL_MSG_OVERHEAD + self.batch_len(groups)
            }
            other => other.wire_size(),
        }
    }

    /// Compact wire size of `msg` as a standalone frame (retransmission /
    /// resync); connection-independent — what a cold codec would send.
    pub fn standalone_msg_size(msg: &DetectMsg) -> usize {
        Self::new().msg_size(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::VectorClock;

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
        assert!(wide.wire_size() > narrow.wire_size());
        let hb = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: None,
            ancestors: vec![],
        };
        assert!(hb.wire_size() < narrow.wire_size());
        let hb_with_hint = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: Some(ProcessId(1)),
            ancestors: vec![],
        };
        assert!(hb_with_hint.wire_size() > hb.wire_size());
        let hb_with_chain = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: Some(ProcessId(1)),
            ancestors: vec![ProcessId(2), ProcessId(3)],
        };
        assert!(hb_with_chain.wire_size() > hb_with_hint.wire_size());
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
        let stream = vec![
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
        let _ = (tx.stateful_len(&b), tx.batch_len(&groups));
        tx.note_sent(&b);
        let mut frame = Vec::new();
        ConnCodec::new().encode(&a, &mut frame);
        tx.decode(&mut Reader::new(&frame))
            .expect("standalone frame");
        assert_eq!(tx.sent_tally(), (7, 5));
    }

    #[test]
    fn compact_msg_sizes_track_the_payload_codec() {
        let msg = DetectMsg::Interval {
            from: ProcessId(3),
            interval: iv(0, vec![1, 0, 0, 0], vec![4, 2, 0, 0]),
            resync: false,
        };
        let codec = ConnCodec::new();
        assert!(codec.msg_size(&msg) < msg.wire_size());
        let ack = DetectMsg::Ack {
            from: ProcessId(3),
            upto: 1,
        };
        assert_eq!(
            ConnCodec::standalone_msg_size(&ack),
            ack.wire_size(),
            "non-interval traffic is unaffected"
        );
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
        let predicted = tx.batch_len(&groups);
        tx.encode_batch(&groups, &mut buf);
        assert_eq!(buf.len(), predicted, "size query matches encoder");
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
    fn batch_msg_sizes_and_classification() {
        let a = iv(0, vec![1, 0, 0, 0], vec![4, 2, 0, 0]);
        let b = iv(1, vec![5, 2, 0, 0], vec![7, 2, 1, 0]);
        let msg = DetectMsg::IntervalBatch {
            from: ProcessId(3),
            groups: vec![(vec![0, 1, 2], a.clone()), (vec![0], b.clone())],
            resync: false,
        };
        assert!(msg.is_interval());
        let codec = ConnCodec::new();
        assert!(codec.msg_size(&msg) < msg.wire_size());
        assert!(ConnCodec::standalone_msg_size(&msg) <= msg.wire_size());
        // Fanning one interval out to many tenants through a batch is far
        // cheaper than shipping per-predicate Interval messages.
        let fanout = DetectMsg::IntervalBatch {
            from: ProcessId(3),
            groups: vec![((0..32u32).collect(), a.clone())],
            resync: false,
        };
        let single = DetectMsg::Interval {
            from: ProcessId(3),
            interval: a,
            resync: false,
        };
        assert!(
            ConnCodec::standalone_msg_size(&fanout)
                < 32 * ConnCodec::standalone_msg_size(&single) / 4
        );
    }

    #[test]
    fn interval_classification() {
        assert!(DetectMsg::Interval {
            from: ProcessId(0),
            interval: Interval::local(ProcessId(0), 0, VectorClock::new(1), VectorClock::new(1)),
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
