//! Session-layer messages and their binary encoding.
//!
//! One [`NetMsg`] per frame (see [`crate::frame`]). Interval payloads —
//! inside [`NetMsg::Detect`] reports and [`NetMsg::Event`] ingestions —
//! are encoded with the *connection's* [`ConnCodec`], so a long-lived
//! connection carries cheap stateful delta frames while the first
//! interval after a (re)connect is automatically standalone: a fresh
//! codec has no base, which is exactly the cold-decoder resync the codec
//! contract requires. Everything else is fixed-width little-endian.
//!
//! ```text
//! Frame payload := u8 tag, fields…
//!   1 Hello    := u32 node, u8 peer_kind (0 child / 1 client), u8 proto
//!   2 HelloAck := u32 node
//!   3 Detect   := u8 subtag, fields…
//!        0 Interval    := u32 from, u8 resync, interval frame (codec)
//!        1 Heartbeat   := u32 from, u64 epoch, u8 has_parent, [u32 parent],
//!                         u8 n_ancestors, n × u32 ancestor
//!        2 Ack         := u32 from, u64 upto
//!      3–6 (retired)
//!        7 (unassigned)
//!        8 Suspect     := u32 from, u32 suspect
//!        9 Adopt       := u32 child, u64 epoch, u8 has_dead, [u32 dead_parent]
//!       10 AdoptAck    := u32 from, u32 child, u64 epoch, u8 accepted
//!       11 ReReport    := u32 from, u64 epoch
//!       12 IntervalBatch := u32 from, u8 resync, tenant batch frame (codec)
//!   4 Event    := interval frame (codec)
//!   5 Fin      := u32 node
//!   6 Uplink   := u8 has_parent, [u32 parent, u16 addr_len, addr bytes],
//!                 u8 n_ancestors, n × (u32 id, u16 addr_len, addr bytes)
//! ```
//!
//! Subtags 3–6 are retired: they carried the simulated harness's four
//! tree-repair control messages, which are now `RepairStep`s the harness
//! applies by call and no `DetectMsg` at all. A TCP tree repairs itself
//! through `Suspect`/`Adopt`/`AdoptAck`/`ReReport`, and a frame carrying
//! 3–6 is refused like the unassigned subtag 7.
//!
//! `Uplink` is the TCP-specific half of the grandparent hint: a parent
//! periodically tells each child where *its own* uplink points (process
//! id + listen address), plus the listen addresses of every higher rung
//! it has itself learned — so an orphaned child holds a dialable address
//! for the whole fallback-adopter ladder, not just the grandparent. The
//! chain propagates one edge per beacon (each node re-relays what its
//! own parent told it), mirroring how the id-only ladder rides on
//! `Heartbeat` on both backends.

use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_intervals::codec::{DecodeError, Reader};
use ftscp_intervals::Interval;
use ftscp_vclock::ProcessId;

/// Session protocol version carried in HELLO; a mismatch kills the
/// connection during the handshake instead of corrupting streams later.
/// v2 added the membership messages (epoch-carrying heartbeats, the
/// adoption handshake, and the `Uplink` grandparent hint); v3 extended
/// `Heartbeat` with the sender's ancestor chain (the fallback-adopter
/// ladder past the grandparent); v4 extended `Uplink` with the listen
/// addresses of that chain, so every ladder rung is dialable; v5 added
/// the predicate-tagged `IntervalBatch` (subtag 12) — the multi-tenant
/// uplink that coalesces every tenant's pending intervals into one
/// 0xD3 frame per connection flush.
pub const PROTO_VERSION: u8 = 5;

/// What a connecting peer is, declared in its HELLO.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerKind {
    /// A monitor node connecting to its tree parent: its stream carries
    /// interval reports, heartbeats, and FIN.
    Child,
    /// An external event source feeding local-predicate intervals into a
    /// node's ingestion endpoint.
    Client,
}

/// One session-layer message (one frame on the wire).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NetMsg {
    /// Handshake opener, first frame on every connection.
    Hello {
        /// The connecting peer's process id (clients use the id of the
        /// process whose intervals they feed).
        node: ProcessId,
        /// Declared role of the peer.
        kind: PeerKind,
        /// Must equal [`PROTO_VERSION`].
        proto: u8,
    },
    /// Handshake acceptance, first frame in the reverse direction.
    HelloAck {
        /// The accepting node's process id.
        node: ProcessId,
    },
    /// Monitor protocol traffic, carried verbatim from the simulated
    /// deployment's message set.
    Detect(DetectMsg),
    /// A completed local-predicate interval pushed by an event client.
    Event(Interval),
    /// End of stream: the sender has delivered everything it ever will
    /// (its feeds finished, its subtree finished, nothing unacked).
    Fin {
        /// The finishing peer.
        from: ProcessId,
    },
    /// Grandparent hint (parent → child, periodic): where the sender's
    /// own uplink points. `None` means the sender is the root.
    Uplink {
        /// The sender's parent and its listen address, if any.
        parent: Option<(ProcessId, String)>,
        /// Listen addresses of the rungs *above* the sender's parent, as
        /// far as the sender has learned them from its own parent's
        /// hints. Unordered address book entries — the adoption ladder's
        /// *order* comes from the heartbeat ancestor chain; these only
        /// make its targets dialable.
        ancestors: Vec<(ProcessId, String)>,
    },
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_addr(out: &mut Vec<u8>, addr: &str) {
    let bytes = addr.as_bytes();
    debug_assert!(bytes.len() <= u16::MAX as usize);
    out.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes `msg` as one frame payload (no length prefix), advancing the
/// connection's `codec` if the message carries an interval.
pub fn encode_msg(msg: &NetMsg, codec: &mut ConnCodec) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    match msg {
        NetMsg::Hello { node, kind, proto } => {
            out.push(1);
            put_u32(&mut out, node.0);
            out.push(match kind {
                PeerKind::Child => 0,
                PeerKind::Client => 1,
            });
            out.push(*proto);
        }
        NetMsg::HelloAck { node } => {
            out.push(2);
            put_u32(&mut out, node.0);
        }
        NetMsg::Detect(d) => {
            out.push(3);
            match d {
                DetectMsg::Interval {
                    from,
                    interval,
                    resync,
                } => {
                    out.push(0);
                    put_u32(&mut out, from.0);
                    out.push(u8::from(*resync));
                    codec.encode(interval, &mut out);
                }
                DetectMsg::Heartbeat {
                    from,
                    epoch,
                    parent,
                    ancestors,
                } => {
                    out.push(1);
                    put_u32(&mut out, from.0);
                    put_u64(&mut out, *epoch);
                    match parent {
                        Some(p) => {
                            out.push(1);
                            put_u32(&mut out, p.0);
                        }
                        None => out.push(0),
                    }
                    debug_assert!(ancestors.len() <= u8::MAX as usize);
                    out.push(ancestors.len() as u8);
                    for a in ancestors {
                        put_u32(&mut out, a.0);
                    }
                }
                DetectMsg::Ack { from, upto } => {
                    out.push(2);
                    put_u32(&mut out, from.0);
                    put_u64(&mut out, *upto);
                }
                DetectMsg::Suspect { from, suspect } => {
                    out.push(8);
                    put_u32(&mut out, from.0);
                    put_u32(&mut out, suspect.0);
                }
                DetectMsg::Adopt {
                    child,
                    epoch,
                    dead_parent,
                } => {
                    out.push(9);
                    put_u32(&mut out, child.0);
                    put_u64(&mut out, *epoch);
                    match dead_parent {
                        Some(d) => {
                            out.push(1);
                            put_u32(&mut out, d.0);
                        }
                        None => out.push(0),
                    }
                }
                DetectMsg::AdoptAck {
                    from,
                    child,
                    epoch,
                    accepted,
                } => {
                    out.push(10);
                    put_u32(&mut out, from.0);
                    put_u32(&mut out, child.0);
                    put_u64(&mut out, *epoch);
                    out.push(u8::from(*accepted));
                }
                DetectMsg::ReReport { from, epoch } => {
                    out.push(11);
                    put_u32(&mut out, from.0);
                    put_u64(&mut out, *epoch);
                }
                DetectMsg::IntervalBatch {
                    from,
                    groups,
                    resync,
                } => {
                    out.push(12);
                    put_u32(&mut out, from.0);
                    out.push(u8::from(*resync));
                    if *resync {
                        codec.encode_batch_standalone(groups, &mut out);
                    } else {
                        codec.encode_batch(groups, &mut out);
                    }
                }
            }
        }
        NetMsg::Event(iv) => {
            out.push(4);
            codec.encode(iv, &mut out);
        }
        NetMsg::Fin { from } => {
            out.push(5);
            put_u32(&mut out, from.0);
        }
        NetMsg::Uplink { parent, ancestors } => {
            out.push(6);
            match parent {
                Some((p, addr)) => {
                    out.push(1);
                    put_u32(&mut out, p.0);
                    put_addr(&mut out, addr);
                }
                None => out.push(0),
            }
            debug_assert!(ancestors.len() <= u8::MAX as usize);
            out.push(ancestors.len() as u8);
            for (p, addr) in ancestors {
                put_u32(&mut out, p.0);
                put_addr(&mut out, addr);
            }
        }
    }
    out
}

/// What every fixed-width read of a message fails with.
const TRUNCATED: &str = "message truncated";

fn get_addr(c: &mut Reader<'_>) -> Result<String, DecodeError> {
    let len = c.u16_le(TRUNCATED)? as usize;
    std::str::from_utf8(c.bytes(len, TRUNCATED)?)
        .map(str::to_owned)
        .map_err(|_| DecodeError("uplink addr not utf-8"))
}

/// Decodes one frame payload, advancing the connection's `codec` if the
/// message carries an interval. Trailing garbage after a complete message
/// is rejected — frames are exact.
pub fn decode_msg(frame: &[u8], codec: &mut ConnCodec) -> Result<NetMsg, DecodeError> {
    let mut c = Reader::new(frame);
    let msg = match c.u8(TRUNCATED)? {
        1 => {
            let node = ProcessId(c.u32_le(TRUNCATED)?);
            let kind = match c.u8(TRUNCATED)? {
                0 => PeerKind::Child,
                1 => PeerKind::Client,
                _ => return Err(DecodeError("unknown peer kind")),
            };
            let proto = c.u8(TRUNCATED)?;
            NetMsg::Hello { node, kind, proto }
        }
        2 => NetMsg::HelloAck {
            node: ProcessId(c.u32_le(TRUNCATED)?),
        },
        3 => {
            let d = match c.u8(TRUNCATED)? {
                0 => {
                    let from = ProcessId(c.u32_le(TRUNCATED)?);
                    let resync = match c.u8(TRUNCATED)? {
                        0 => false,
                        1 => true,
                        _ => return Err(DecodeError("bad resync flag")),
                    };
                    let interval = codec.decode(&mut c)?;
                    DetectMsg::Interval {
                        from,
                        interval,
                        resync,
                    }
                }
                1 => {
                    let from = ProcessId(c.u32_le(TRUNCATED)?);
                    let epoch = c.u64_le(TRUNCATED)?;
                    let parent = match c.u8(TRUNCATED)? {
                        0 => None,
                        1 => Some(ProcessId(c.u32_le(TRUNCATED)?)),
                        _ => return Err(DecodeError("bad parent flag")),
                    };
                    let n = c.u8(TRUNCATED)? as usize;
                    let mut ancestors = Vec::with_capacity(n);
                    for _ in 0..n {
                        ancestors.push(ProcessId(c.u32_le(TRUNCATED)?));
                    }
                    DetectMsg::Heartbeat {
                        from,
                        epoch,
                        parent,
                        ancestors,
                    }
                }
                2 => DetectMsg::Ack {
                    from: ProcessId(c.u32_le(TRUNCATED)?),
                    upto: c.u64_le(TRUNCATED)?,
                },
                8 => DetectMsg::Suspect {
                    from: ProcessId(c.u32_le(TRUNCATED)?),
                    suspect: ProcessId(c.u32_le(TRUNCATED)?),
                },
                9 => DetectMsg::Adopt {
                    child: ProcessId(c.u32_le(TRUNCATED)?),
                    epoch: c.u64_le(TRUNCATED)?,
                    dead_parent: match c.u8(TRUNCATED)? {
                        0 => None,
                        1 => Some(ProcessId(c.u32_le(TRUNCATED)?)),
                        _ => return Err(DecodeError("bad dead-parent flag")),
                    },
                },
                10 => DetectMsg::AdoptAck {
                    from: ProcessId(c.u32_le(TRUNCATED)?),
                    child: ProcessId(c.u32_le(TRUNCATED)?),
                    epoch: c.u64_le(TRUNCATED)?,
                    accepted: match c.u8(TRUNCATED)? {
                        0 => false,
                        1 => true,
                        _ => return Err(DecodeError("bad accepted flag")),
                    },
                },
                11 => DetectMsg::ReReport {
                    from: ProcessId(c.u32_le(TRUNCATED)?),
                    epoch: c.u64_le(TRUNCATED)?,
                },
                12 => {
                    let from = ProcessId(c.u32_le(TRUNCATED)?);
                    let resync = match c.u8(TRUNCATED)? {
                        0 => false,
                        1 => true,
                        _ => return Err(DecodeError("bad resync flag")),
                    };
                    let groups = codec.decode_batch(&mut c)?;
                    DetectMsg::IntervalBatch {
                        from,
                        groups,
                        resync,
                    }
                }
                // 3–6 (retired) and 7 (unassigned) included.
                _ => return Err(DecodeError("unknown detect subtag")),
            };
            NetMsg::Detect(d)
        }
        4 => NetMsg::Event(codec.decode(&mut c)?),
        5 => NetMsg::Fin {
            from: ProcessId(c.u32_le(TRUNCATED)?),
        },
        6 => {
            let parent = match c.u8(TRUNCATED)? {
                0 => None,
                1 => {
                    let p = ProcessId(c.u32_le(TRUNCATED)?);
                    Some((p, get_addr(&mut c)?))
                }
                _ => return Err(DecodeError("bad parent flag")),
            };
            let n = c.u8(TRUNCATED)? as usize;
            let mut ancestors = Vec::with_capacity(n);
            for _ in 0..n {
                let p = ProcessId(c.u32_le(TRUNCATED)?);
                ancestors.push((p, get_addr(&mut c)?));
            }
            NetMsg::Uplink { parent, ancestors }
        }
        _ => return Err(DecodeError("unknown message tag")),
    };
    if c.remaining() != 0 {
        return Err(DecodeError("trailing bytes after message"));
    }
    Ok(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::VectorClock;

    fn iv(seq: u64, lo: Vec<u32>, hi: Vec<u32>) -> Interval {
        Interval::local(
            ProcessId(2),
            seq,
            VectorClock::from_components(lo),
            VectorClock::from_components(hi),
        )
    }

    /// Encodes `msg` and reports what the encoder booked for it:
    /// `(interval frames, of them standalone)` — the difference a
    /// transport bills around the call.
    fn encode_booked(msg: &NetMsg, tx: &mut ConnCodec) -> (Vec<u8>, (u64, u64)) {
        let before = tx.sent_tally();
        let payload = encode_msg(msg, tx);
        let after = tx.sent_tally();
        (payload, (after.0 - before.0, after.1 - before.1))
    }

    const STANDALONE: (u64, u64) = (1, 1);
    const STATEFUL: (u64, u64) = (1, 0);

    #[test]
    fn all_variants_roundtrip() {
        let msgs = vec![
            NetMsg::Hello {
                node: ProcessId(7),
                kind: PeerKind::Child,
                proto: PROTO_VERSION,
            },
            NetMsg::Hello {
                node: ProcessId(8),
                kind: PeerKind::Client,
                proto: PROTO_VERSION,
            },
            NetMsg::HelloAck { node: ProcessId(1) },
            NetMsg::Detect(DetectMsg::Interval {
                from: ProcessId(3),
                interval: iv(0, vec![1, 2], vec![3, 4]),
                resync: true,
            }),
            NetMsg::Detect(DetectMsg::Heartbeat {
                from: ProcessId(3),
                epoch: 6,
                parent: Some(ProcessId(0)),
                ancestors: vec![],
            }),
            NetMsg::Detect(DetectMsg::Heartbeat {
                from: ProcessId(0),
                epoch: 0,
                parent: None,
                ancestors: vec![],
            }),
            NetMsg::Detect(DetectMsg::Heartbeat {
                from: ProcessId(9),
                epoch: 2,
                parent: Some(ProcessId(4)),
                ancestors: vec![ProcessId(1), ProcessId(0)],
            }),
            NetMsg::Detect(DetectMsg::Ack {
                from: ProcessId(1),
                upto: 42,
            }),
            NetMsg::Detect(DetectMsg::Suspect {
                from: ProcessId(4),
                suspect: ProcessId(2),
            }),
            NetMsg::Detect(DetectMsg::Adopt {
                child: ProcessId(4),
                epoch: 3,
                dead_parent: Some(ProcessId(2)),
            }),
            NetMsg::Detect(DetectMsg::Adopt {
                child: ProcessId(4),
                epoch: 3,
                dead_parent: None,
            }),
            NetMsg::Detect(DetectMsg::AdoptAck {
                from: ProcessId(0),
                child: ProcessId(4),
                epoch: 3,
                accepted: true,
            }),
            NetMsg::Detect(DetectMsg::ReReport {
                from: ProcessId(4),
                epoch: 3,
            }),
            NetMsg::Detect(DetectMsg::IntervalBatch {
                from: ProcessId(6),
                groups: vec![
                    (vec![0, 17], iv(0, vec![1, 2], vec![3, 4])),
                    (vec![3], iv(1, vec![4, 4], vec![6, 5])),
                ],
                resync: false,
            }),
            NetMsg::Detect(DetectMsg::IntervalBatch {
                from: ProcessId(6),
                groups: vec![(vec![2], iv(5, vec![9, 9], vec![10, 10]))],
                resync: true,
            }),
            NetMsg::Event(iv(1, vec![2, 2], vec![5, 3])),
            NetMsg::Fin { from: ProcessId(4) },
            NetMsg::Uplink {
                parent: Some((ProcessId(0), "127.0.0.1:7400".to_owned())),
                ancestors: vec![],
            },
            NetMsg::Uplink {
                parent: Some((ProcessId(1), "127.0.0.1:7401".to_owned())),
                ancestors: vec![
                    (ProcessId(0), "127.0.0.1:7400".to_owned()),
                    (ProcessId(4), "[::1]:9000".to_owned()),
                ],
            },
            NetMsg::Uplink {
                parent: None,
                ancestors: vec![],
            },
        ];
        for msg in msgs {
            let payload = encode_msg(&msg, &mut ConnCodec::new());
            let decoded = decode_msg(&payload, &mut ConnCodec::new());
            assert_eq!(decoded.as_ref(), Ok(&msg));
            // Frames are exact: cut anywhere, every kind of message is an
            // error from the reader — never a panic, never a shorter
            // message that happens to parse.
            for cut in 0..payload.len() {
                assert!(
                    decode_msg(&payload[..cut], &mut ConnCodec::new()).is_err(),
                    "{msg:?} cut at {cut} must fail"
                );
            }
        }
        // The retired subtags 3–6, laid out as the simulated harness's
        // control messages once were (a new parent, no parent, a child to
        // add, a child to remove, a root promotion), are refused whole.
        for control in [
            &[3, 3, 1, 5, 0, 0, 0][..],
            &[3, 3, 0][..],
            &[3, 4, 9, 0, 0, 0][..],
            &[3, 5, 9, 0, 0, 0][..],
            &[3, 6][..],
        ] {
            assert_eq!(
                decode_msg(control, &mut ConnCodec::new()),
                Err(DecodeError("unknown detect subtag")),
                "{control:?}"
            );
        }
    }

    #[test]
    fn interval_stream_uses_connection_codec() {
        let mut tx = ConnCodec::new();
        let mut rx = ConnCodec::new();
        let stream = vec![
            iv(0, vec![1, 0], vec![4, 2]),
            iv(1, vec![5, 2], vec![7, 2]),
            iv(2, vec![8, 2], vec![9, 3]),
        ];
        let mut payloads = Vec::new();
        for (i, interval) in stream.iter().enumerate() {
            let msg = NetMsg::Detect(DetectMsg::Interval {
                from: ProcessId(2),
                interval: interval.clone(),
                resync: false,
            });
            let (payload, booked) = encode_booked(&msg, &mut tx);
            // cold codec: first frame resyncs
            assert_eq!(booked, if i == 0 { STANDALONE } else { STATEFUL });
            payloads.push(payload);
        }
        for (payload, interval) in payloads.iter().zip(&stream) {
            let NetMsg::Detect(DetectMsg::Interval { interval: got, .. }) =
                decode_msg(payload, &mut rx).expect("in-order decode")
            else {
                panic!("wrong variant");
            };
            assert_eq!(&got, interval);
        }
    }

    #[test]
    fn batch_stream_uses_connection_codec() {
        // Batches share the connection base with plain interval frames:
        // the first flush is standalone (cold codec), later ones chain.
        let mut tx = ConnCodec::new();
        let mut rx = ConnCodec::new();
        let flushes = vec![
            vec![
                (vec![0u32, 1], iv(0, vec![1, 0], vec![4, 2])),
                (vec![2u32], iv(1, vec![5, 2], vec![7, 2])),
            ],
            vec![(vec![0u32, 2], iv(2, vec![8, 2], vec![9, 3]))],
        ];
        let mut payloads = Vec::new();
        for (i, groups) in flushes.iter().enumerate() {
            let msg = NetMsg::Detect(DetectMsg::IntervalBatch {
                from: ProcessId(2),
                groups: groups.clone(),
                resync: false,
            });
            let (payload, booked) = encode_booked(&msg, &mut tx);
            assert_eq!(booked, if i == 0 { STANDALONE } else { STATEFUL });
            payloads.push(payload);
        }
        for (payload, groups) in payloads.iter().zip(&flushes) {
            let NetMsg::Detect(DetectMsg::IntervalBatch { groups: got, .. }) =
                decode_msg(payload, &mut rx).expect("in-order decode")
            else {
                panic!("wrong variant");
            };
            assert_eq!(&got, groups);
        }
    }

    #[test]
    fn resync_batch_is_standalone_despite_warm_codec() {
        let mut tx = ConnCodec::new();
        let warmup = NetMsg::Event(iv(0, vec![1, 1], vec![2, 2]));
        let _ = encode_msg(&warmup, &mut tx);
        let msg = NetMsg::Detect(DetectMsg::IntervalBatch {
            from: ProcessId(2),
            groups: vec![(vec![0], iv(1, vec![3, 2], vec![4, 3]))],
            resync: true,
        });
        let (payload, booked) = encode_booked(&msg, &mut tx);
        assert_eq!(
            booked, STANDALONE,
            "a re-report batch must be decodable by a cold parent"
        );
        let mut cold = ConnCodec::new();
        assert_eq!(decode_msg(&payload, &mut cold).expect("cold decode"), msg);
    }

    #[test]
    fn stateful_frame_on_cold_decoder_errors_cleanly() {
        let mut tx = ConnCodec::new();
        let warmup = NetMsg::Event(iv(0, vec![1, 1], vec![2, 2]));
        let _ = encode_msg(&warmup, &mut tx);
        let (stateful, booked) =
            encode_booked(&NetMsg::Event(iv(1, vec![3, 2], vec![4, 3])), &mut tx);
        assert_eq!(booked, STATEFUL);
        let mut cold = ConnCodec::new();
        assert!(decode_msg(&stateful, &mut cold).is_err());
    }

    #[test]
    fn only_interval_frames_are_booked_and_a_width_change_resyncs() {
        let mut tx = ConnCodec::new();
        let fin = NetMsg::Fin { from: ProcessId(2) };
        assert_eq!(encode_booked(&fin, &mut tx).1, (0, 0));
        let narrow = NetMsg::Event(iv(0, vec![1, 1], vec![2, 2]));
        assert_eq!(encode_booked(&narrow, &mut tx).1, STANDALONE);
        // No base of the new width: the encoder falls back to standalone.
        let wide = NetMsg::Event(iv(1, vec![3, 2, 0], vec![4, 3, 0]));
        let (payload, booked) = encode_booked(&wide, &mut tx);
        assert_eq!(booked, STANDALONE);
        assert_eq!(decode_msg(&payload, &mut ConnCodec::new()), Ok(wide));
    }

    #[test]
    fn dense_interval_payload_is_rejected() {
        // A `Detect/Interval` whose interval is in the retired fixed-width
        // layout (version byte 0x00), built by hand: from = 2, resync = 0,
        // then u32 source, u64 seq, u8 kind, two length-prefixed clocks
        // and one coverage entry.
        let mut payload = vec![3, 0];
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.push(0);
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.push(0);
        for clock in [[1u32, 2], [3, 4]] {
            payload.extend_from_slice(&2u32.to_le_bytes());
            for c in clock {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        payload.extend_from_slice(&1u32.to_le_bytes());
        payload.extend_from_slice(&2u32.to_le_bytes());
        payload.extend_from_slice(&0u64.to_le_bytes());
        assert_eq!(
            decode_msg(&payload, &mut ConnCodec::new()),
            Err(DecodeError("not a delta interval frame"))
        );
    }

    #[test]
    fn interval_frames_are_byte_pinned() {
        // Cold, warm and `resync` codecs on all three interval-carrying
        // messages: the exact bytes protocol v5 peers exchange.
        let report = |seq, lo, hi, resync| {
            NetMsg::Detect(DetectMsg::Interval {
                from: ProcessId(2),
                interval: iv(seq, lo, hi),
                resync,
            })
        };
        let batch = |resync| {
            NetMsg::Detect(DetectMsg::IntervalBatch {
                from: ProcessId(2),
                groups: vec![
                    (vec![0, 300], iv(3, vec![9, 3], vec![9, 4])),
                    (vec![7], iv(4, vec![10, 4], vec![12, 4])),
                ],
                resync,
            })
        };
        let mut tx = ConnCodec::new();
        let got: Vec<String> = [
            NetMsg::Event(iv(0, vec![1, 0], vec![4, 2])), // cold
            NetMsg::Event(iv(1, vec![5, 2], vec![7, 2])), // warm
            report(2, vec![8, 2], vec![9, 3], false),
            report(3, vec![300, 2], vec![301, 3], true),
            batch(false),
            batch(true),
        ]
        .iter()
        .map(|m| {
            let hex: Vec<String> = encode_msg(m, &mut tx)
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect();
            hex.concat()
        })
        .collect();
        let pinned = [
            "04020000d20000020000d10002000604010200",
            "04020000d20100020000d10108040400010201",
            "03000200000000020000d20200020000d10106000202010202",
            "03000200000001020000d20300020000d101c804000202010203",
            "030c0200000000020000d30200ac02020000d20300020000d101c5040200020102030107020000d20400020000d10102020400010204",
            "030c0200000001020000d30200ac02020000d20300020000d100120600020102030107020000d20400020000d10102020400010204",
        ];
        assert_eq!(got, pinned);
    }

    #[test]
    fn hostile_inputs_error_not_panic() {
        let mut rx = ConnCodec::new();
        for bad in [
            &[][..],
            &[9][..],
            &[1, 0][..],
            &[3, 0, 1, 0, 0, 0, 2][..],
            &[3, 9][..],
            &[4, 0xff, 0xff, 0xff, 0xff][..],
        ] {
            assert!(decode_msg(bad, &mut rx).is_err(), "{bad:?}");
        }
        // Unassigned subtag 7: rejected as unknown, not as truncated.
        assert_eq!(
            decode_msg(&[3, 7], &mut rx),
            Err(DecodeError("unknown detect subtag"))
        );
        // Trailing garbage after a valid message is rejected.
        let mut tx = ConnCodec::new();
        let mut payload = encode_msg(&NetMsg::Fin { from: ProcessId(1) }, &mut tx);
        payload.push(0);
        assert!(decode_msg(&payload, &mut rx).is_err());
    }
}
