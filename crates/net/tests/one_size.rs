//! One size per message on both runtimes: what the simulator bills for a
//! `DetectMsg` is what TCP writes for it, less the 5-byte session envelope
//! (the `Detect` tag and the frame's `u32` length prefix).
//!
//! The simulator bills a plain send at `Application::msg_size` and an
//! interval report at the size `MonitorCore` hands `send_sized`; TCP
//! writes `frame_bytes(encode_msg(..))` on the connection's codec. Both
//! sides are checked message by message, on every variant and on report
//! streams that go on past a standalone re-report and through a
//! retransmit on a live connection.

use ftscp_core::monitor::{MonitorApp, MonitorConfig};
use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_core::transport::Duty;
use ftscp_core::{MonitorCore, Transport};
use ftscp_intervals::Interval;
use ftscp_net::frame::frame_bytes;
use ftscp_net::wire::encode_msg;
use ftscp_net::NetMsg;
use ftscp_simnet::{Application, SimTime};
use ftscp_vclock::{ProcessId, VectorClock};

/// Session tag plus length prefix around every `Detect` payload.
const ENVELOPE: usize = 5;

/// The bytes TCP puts on the wire for `msg`, on a connection whose
/// codec stands at `codec`.
fn tcp_bytes(msg: &DetectMsg, codec: &mut ConnCodec) -> usize {
    frame_bytes(&encode_msg(&NetMsg::Detect(msg.clone()), codec)).len()
}

fn iv(seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
    Interval::local(
        ProcessId(1),
        seq,
        VectorClock::from_components(lo.to_vec()),
        VectorClock::from_components(hi.to_vec()),
    )
}

/// A transport that bills like the simulator: a plain send at
/// `MonitorApp::msg_size`, a sized send at the size it is handed.
#[derive(Default)]
struct Billed(Vec<(DetectMsg, usize)>);

impl Transport for Billed {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, _: ProcessId, msg: DetectMsg) {
        let size = MonitorApp::msg_size(&msg);
        self.0.push((msg, size));
    }

    fn send_sized(&mut self, _: ProcessId, msg: DetectMsg, size: usize) {
        self.0.push((msg, size));
    }
}

#[test]
fn every_variant_weighs_the_same_on_both_runtimes() {
    let (p, q) = (ProcessId(3), ProcessId(4));
    let msgs = [
        DetectMsg::Interval {
            from: p,
            interval: iv(7, &[1, 300, 2], &[4, 300, 9]),
            resync: true,
        },
        DetectMsg::IntervalBatch {
            from: p,
            groups: vec![
                (vec![0, 300], iv(0, &[1, 2, 0], &[3, 4, 0])),
                (vec![5], iv(1, &[4, 4, 1], &[6, 5, 1])),
            ],
            resync: false,
        },
        DetectMsg::Heartbeat {
            from: p,
            epoch: 2,
            parent: None,
            ancestors: vec![],
        },
        DetectMsg::Heartbeat {
            from: p,
            epoch: 2,
            parent: Some(q),
            ancestors: vec![ProcessId(0), ProcessId(9)],
        },
        DetectMsg::Ack { from: q, upto: 42 },
        DetectMsg::Suspect {
            from: q,
            suspect: p,
        },
        DetectMsg::Adopt {
            child: p,
            epoch: 5,
            dead_parent: Some(q),
        },
        DetectMsg::Adopt {
            child: p,
            epoch: 5,
            dead_parent: None,
        },
        DetectMsg::AdoptAck {
            from: ProcessId(0),
            child: p,
            epoch: 5,
            accepted: true,
        },
        DetectMsg::ReReport { from: p, epoch: 5 },
    ];
    let differ: Vec<String> = msgs
        .iter()
        .filter_map(|msg| {
            let sim = MonitorApp::msg_size(msg) + ENVELOPE;
            let tcp = tcp_bytes(msg, &mut ConnCodec::new());
            (sim != tcp).then(|| format!("{msg:?}: simnet {sim}, TCP {tcp}"))
        })
        .collect();
    assert!(differ.is_empty(), "{differ:#?}");
}

/// Checks every message `sim` billed, in send order, against the bytes
/// TCP writes for it on a connection whose codec stands at `uplink`, and
/// returns which of them TCP wrote standalone.
fn weigh(sim: &mut Billed, uplink: &mut ConnCodec) -> Vec<bool> {
    sim.0
        .drain(..)
        .map(|(msg, billed)| {
            let before = uplink.sent_tally().1;
            assert_eq!(billed + ENVELOPE, tcp_bytes(&msg, uplink), "{msg:?}");
            uplink.sent_tally().1 > before
        })
        .collect()
}

/// A leaf of process 1 under process 0.
fn leaf(config: MonitorConfig) -> MonitorCore {
    MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[], 1, config)
}

#[test]
fn a_report_stream_weighs_the_same_on_both_runtimes() {
    // A leaf with the retransmit layer off, as the TCP workloads run it.
    let mut core = leaf(MonitorConfig::default());
    let mut sim = Billed::default();
    let stream = [
        iv(0, &[500, 501, 500], &[500, 502, 500]),
        iv(1, &[500, 503, 501], &[502, 504, 501]),
        iv(2, &[502, 505, 501], &[502, 506, 800]),
    ];
    for interval in stream {
        core.observe_local(interval, &mut sim);
    }
    // The uplink: cold for the first report, stateful after it.
    let mut uplink = ConnCodec::new();
    assert_eq!(weigh(&mut sim, &mut uplink), [true, false, false]);

    // A reconnect: the parent's decoder is cold, the last report goes
    // again standalone, and the core bills it as re-report traffic.
    let billed = core.re_report_bytes();
    core.resync_uplink(&mut sim);
    let [(msg, size)] = &sim.0[..] else {
        panic!("one re-report, got {:?}", sim.0);
    };
    assert!(matches!(msg, DetectMsg::Interval { resync: true, .. }));
    assert_eq!(core.re_report_bytes() - billed, *size as u64);
    let mut uplink = ConnCodec::new();
    assert_eq!(weigh(&mut sim, &mut uplink), [true]);

    // The next fresh report follows the re-report on the new connection.
    core.observe_local(iv(3, &[502, 507, 802], &[503, 508, 802]), &mut sim);
    assert_eq!(weigh(&mut sim, &mut uplink), [false]);
}

#[test]
fn a_retransmit_on_a_live_uplink_weighs_the_same_on_both_runtimes() {
    let mut core = leaf(MonitorConfig {
        retransmit_period: Some(SimTime::from_millis(10)),
        ..MonitorConfig::default()
    });
    let mut sim = Billed::default();
    core.observe_local(iv(0, &[500, 501, 500], &[500, 502, 500]), &mut sim);
    core.observe_local(iv(1, &[500, 503, 501], &[502, 504, 501]), &mut sim);
    // No ack: the retransmit duty re-sends both on the same connection,
    // whose codec every frame before them advanced.
    core.on_duty(Duty::Retransmit, &mut sim);
    assert_eq!(sim.0.len(), 4, "two reports, two retransmits");
    let mut uplink = ConnCodec::new();
    assert_eq!(weigh(&mut sim, &mut uplink), [true, false, false, false]);
}
