//! Direct unit tests of [`MonitorApp`]'s protocol logic, driven through
//! the simnet test harness (no full simulation), and of the
//! [`MonitorCore`] under it, driven through an [`Outbox`].

use ftscp_core::membership::MembershipEvent;
use ftscp_core::monitor::{MonitorApp, MonitorConfig};
use ftscp_core::protocol::DetectMsg;
use ftscp_core::transport::{Duty, MonitorCore, Outbox};
use ftscp_intervals::Interval;
use ftscp_simnet::sim::testkit;
use ftscp_simnet::{Application, NodeId, SimTime};
use ftscp_vclock::{ProcessId, VectorClock};

fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
    Interval::local(
        ProcessId(p),
        seq,
        VectorClock::from_components(lo.to_vec()),
        VectorClock::from_components(hi.to_vec()),
    )
}

fn cfg_plain() -> MonitorConfig {
    MonitorConfig {
        heartbeat_period: None,
        retransmit_period: None,
        ..Default::default()
    }
}

/// An interior node (1 child) with no schedule, parent = node 9.
fn interior() -> MonitorApp {
    MonitorApp::new(
        ProcessId(1),
        Some(ProcessId(9)),
        &[ProcessId(0)],
        2,
        Vec::new(),
        cfg_plain(),
    )
}

fn deliver(
    app: &mut MonitorApp,
    from: u32,
    interval: Interval,
    resync: bool,
) -> Vec<(NodeId, DetectMsg)> {
    let effects = testkit::drive(NodeId(1), SimTime(100), 10, &[], |ctx| {
        app.on_message(
            ctx,
            NodeId(from),
            DetectMsg::Interval {
                from: ProcessId(from),
                interval,
                resync,
            },
        );
    });
    effects.sends
}

#[test]
fn out_of_order_child_reports_are_reassembled() {
    let mut app = interior();
    // Local interval arrives via schedule path — instead push directly
    // through a child-only scenario: deliver child seq 1 before seq 0.
    let a0 = iv(0, 0, &[1, 0], &[4, 3]);
    let a1 = iv(0, 1, &[5, 4], &[8, 7]);
    let sends = deliver(&mut app, 0, a1.clone(), false);
    assert!(sends.is_empty(), "seq 1 buffered until seq 0 arrives");
    assert_eq!(app.core().engine().child_enqueued(), 0);
    let _ = deliver(&mut app, 0, a0, false);
    assert_eq!(
        app.core().engine().child_enqueued(),
        2,
        "both delivered in order"
    );
}

#[test]
fn stale_duplicates_are_dropped() {
    let mut app = interior();
    let a0 = iv(0, 0, &[1, 0], &[4, 3]);
    deliver(&mut app, 0, a0.clone(), false);
    deliver(&mut app, 0, a0, false); // duplicate
    assert_eq!(app.core().engine().child_enqueued(), 1);
}

#[test]
fn resync_fast_forwards_the_stream() {
    let mut app = interior();
    // The child was re-parented to us and re-reports from seq 5.
    let a5 = iv(0, 5, &[1, 0], &[4, 3]);
    deliver(&mut app, 0, a5, true);
    assert_eq!(
        app.core().engine().child_enqueued(),
        1,
        "resync accepted seq 5"
    );
    // Continuation at seq 6 flows.
    let a6 = iv(0, 6, &[5, 4], &[8, 7]);
    deliver(&mut app, 0, a6, false);
    assert_eq!(app.core().engine().child_enqueued(), 2);
    // Pre-resync stragglers are dropped.
    let a4 = iv(0, 4, &[0, 0], &[1, 1]);
    deliver(&mut app, 0, a4, false);
    assert_eq!(app.core().engine().child_enqueued(), 2);
}

/// An accepted adoption re-parents the node and re-reports what it has:
/// nothing before its first output, then its last output as a resync.
#[test]
fn an_adoption_re_reports_the_last_output() {
    let adopt = |core: &mut MonitorCore, adopter: u32, t: SimTime| {
        let adopter = ProcessId(adopter);
        core.rejoin(adopter, &mut Outbox::new(t));
        let ack = DetectMsg::AdoptAck {
            from: adopter,
            child: core.me(),
            epoch: core.membership().epoch(),
            accepted: true,
        };
        let mut out = Outbox::new(t);
        core.on_message(ack, &mut out);
        assert_eq!(core.parent(), Some(adopter));
        out.sent
    };
    let mut interior = MonitorCore::new(
        ProcessId(1),
        Some(ProcessId(9)),
        &[ProcessId(0)],
        2,
        cfg_plain(),
    );
    let sent = adopt(&mut interior, 7, SimTime(200));
    assert!(
        matches!(sent[..], [(_, DetectMsg::ReReport { .. })]),
        "nothing to re-report yet: {sent:?}"
    );

    let mut leaf = MonitorCore::new(ProcessId(2), Some(ProcessId(1)), &[], 1, cfg_plain());
    let mut out = Outbox::new(SimTime(50));
    leaf.observe_local(iv(2, 0, &[0, 0, 1], &[0, 0, 2]), &mut out);
    assert!(
        matches!(
            out.sent[..],
            [(_, DetectMsg::Interval { resync: false, .. })]
        ),
        "leaf forwarded its interval"
    );
    let sent = adopt(&mut leaf, 3, SimTime(60));
    assert!(
        matches!(
            sent[..],
            [
                (ProcessId(3), DetectMsg::ReReport { .. }),
                (ProcessId(3), DetectMsg::Interval { resync: true, .. })
            ]
        ),
        "the re-report opens the stream at the adopter: {sent:?}"
    );
}

/// A reboot rejoins through the adoption handshake:
/// the rebooted node knocks on its adopter, and the adopter's `AdoptAck`
/// re-parents it and restarts its report stream from a resync.
#[test]
fn a_reboot_rejoins_through_the_adoption_handshake() {
    let (me, adopter) = (ProcessId(2), ProcessId(3));
    let mut leaf = MonitorApp::new(
        me,
        Some(ProcessId(1)),
        &[],
        1,
        vec![(SimTime(50), iv(2, 0, &[0, 0, 1], &[0, 0, 2]))],
        cfg_plain(),
    );
    let effects = testkit::drive(me, SimTime(0), 10, &[], |ctx| leaf.on_init(ctx));
    testkit::drive(me, SimTime(50), 10, &[], |ctx| {
        leaf.on_timer(ctx, effects.timers[0].1)
    });

    let effects = testkit::drive(me, SimTime(100), 10, &[], |ctx| {
        leaf.reboot(adopter, ctx);
    });
    let epoch = leaf.core().membership().epoch();
    let adopt = DetectMsg::Adopt {
        child: me,
        epoch,
        dead_parent: None,
    };
    assert_eq!(effects.sends, vec![(adopter, adopt)]);
    assert!(leaf.core().membership().is_adopting());

    let ack = DetectMsg::AdoptAck {
        from: adopter,
        child: me,
        epoch,
        accepted: true,
    };
    let effects = testkit::drive(me, SimTime(110), 10, &[], |ctx| {
        leaf.on_message(ctx, adopter, ack)
    });
    assert_eq!(leaf.core().parent(), Some(adopter));
    assert!(!leaf.core().membership().is_adopting());
    let rereport = DetectMsg::ReReport { from: me, epoch };
    assert_eq!(effects.sends.len(), 2, "{:?}", effects.sends);
    assert_eq!(effects.sends[0], (adopter, rereport));
    assert!(
        matches!(effects.sends[1], (to, DetectMsg::Interval { resync: true, .. }) if to == adopter),
        "the re-report opens the stream at the adopter"
    );
}

/// A heartbeat detector with no heartbeats detects nothing, so a monitor
/// with a suspicion timeout but no heartbeats arms no suspicion timer —
/// the same rule the TCP reactor follows.
#[test]
fn suspicion_without_heartbeats_arms_no_timer() {
    let mut leaf = MonitorApp::new(
        ProcessId(2),
        Some(ProcessId(1)),
        &[],
        1,
        vec![(SimTime(50), iv(2, 0, &[0, 0, 1], &[0, 0, 2]))],
        MonitorConfig {
            suspect_timeout: Some(SimTime::from_millis(100)),
            ..cfg_plain()
        },
    );
    let effects = testkit::drive(NodeId(2), SimTime(0), 10, &[], |ctx| leaf.on_init(ctx));
    assert_eq!(
        effects.timers,
        vec![(SimTime(50), 1)],
        "only the next-interval timer"
    );
}

/// The root's only heir promotes itself when the root falls silent: its
/// last output, shipped only to the dead root, resurfaces as a detection,
/// and every heartbeat round then knocks at the lost root.
#[test]
fn the_only_heir_promotes_and_detects_its_last_output() {
    let (root, heir) = (ProcessId(1), ProcessId(2));
    let config = MonitorConfig {
        heartbeat_period: Some(SimTime(50)),
        suspect_timeout: Some(SimTime(100)),
        ..cfg_plain()
    };
    let mut core = MonitorCore::new(heir, Some(root), &[], 1, config);
    let beacon = DetectMsg::Heartbeat {
        from: root,
        epoch: 0,
        parent: None,
        ancestors: vec![heir],
    };
    core.on_message(beacon, &mut Outbox::new(SimTime(0)));
    core.observe_local(
        iv(2, 0, &[0, 0, 1], &[0, 0, 2]),
        &mut Outbox::new(SimTime(10)),
    );
    assert!(core.detections().is_empty());

    let (_, events) = core.on_duty(Duty::Suspect, &mut Outbox::new(SimTime(200)));
    assert_eq!(
        events,
        vec![MembershipEvent::Promoted { dead_parent: root }]
    );
    assert_eq!(core.parent(), None);
    assert_eq!(
        core.detections().len(),
        1,
        "the un-consumed output resurfaces as a detection at the new root"
    );
    let mut out = Outbox::new(SimTime(250));
    core.on_duty(Duty::Heartbeat, &mut out);
    let epoch = core.membership().epoch();
    let knock = DetectMsg::Adopt {
        child: heir,
        epoch,
        dead_parent: None,
    };
    assert_eq!(out.sent, vec![(root, knock)], "re-knocks the lost root");
}

#[test]
fn ack_clears_unacked_buffer() {
    let leaf_iv0 = iv(2, 0, &[0, 0, 1], &[0, 0, 2]);
    let leaf_iv1 = iv(2, 1, &[0, 0, 3], &[0, 0, 4]);
    let mut leaf = MonitorApp::new(
        ProcessId(2),
        Some(ProcessId(1)),
        &[],
        1,
        vec![(SimTime(10), leaf_iv0), (SimTime(20), leaf_iv1)],
        MonitorConfig {
            heartbeat_period: None,
            retransmit_period: Some(SimTime(1_000)),
            ..Default::default()
        },
    );
    let effects = testkit::drive(NodeId(2), SimTime(0), 10, &[], |ctx| leaf.on_init(ctx));
    let token = effects
        .timers
        .iter()
        .map(|&(_, t)| t)
        .find(|&t| t == 1)
        .expect("interval timer");
    testkit::drive(NodeId(2), SimTime(10), 10, &[], |ctx| {
        leaf.on_timer(ctx, token)
    });
    testkit::drive(NodeId(2), SimTime(20), 10, &[], |ctx| {
        leaf.on_timer(ctx, token)
    });
    assert_eq!(leaf.core().unacked_count(), 2);
    // Cumulative ack up to (not incl.) seq 1.
    testkit::drive(NodeId(2), SimTime(25), 10, &[], |ctx| {
        leaf.on_message(
            ctx,
            NodeId(1),
            DetectMsg::Ack {
                from: ProcessId(1),
                upto: 1,
            },
        );
    });
    assert_eq!(leaf.core().unacked_count(), 1);
    testkit::drive(NodeId(2), SimTime(30), 10, &[], |ctx| {
        leaf.on_message(
            ctx,
            NodeId(1),
            DetectMsg::Ack {
                from: ProcessId(1),
                upto: 2,
            },
        );
    });
    assert_eq!(leaf.core().unacked_count(), 0);
}

/// A batch from a child is its intervals delivered back to back (`resync`
/// re-opens the stream at the first group only), acknowledged once for
/// the whole frame.
#[test]
fn a_batch_is_its_intervals_back_to_back_with_one_ack() {
    // Round `s` of every process pairwise overlaps: one solution a round.
    // Each process starts its interval with a send and ends it with the
    // receipt of the other's.
    let round = |p: u32, s: u32| {
        let (mut lo, mut hi) = ([2 * s; 2], [2 * s + 1; 2]);
        lo[p as usize] += 1;
        hi[p as usize] += 1;
        iv(p, u64::from(s), &lo, &hi)
    };
    let root = || {
        let config = MonitorConfig {
            heartbeat_period: None,
            retransmit_period: Some(SimTime(1_000)),
            ..Default::default()
        };
        let mut core = MonitorCore::new(ProcessId(0), None, &[ProcessId(1)], 2, config);
        for s in 0..3 {
            core.observe_local(round(0, s), &mut Outbox::new(SimTime(10)));
        }
        core
    };
    let ack = |upto| {
        (
            ProcessId(1),
            DetectMsg::Ack {
                from: ProcessId(0),
                upto,
            },
        )
    };

    let mut batched = root();
    let mut t = Outbox::new(SimTime(20));
    let groups = (0..3).map(|s| (vec![0], round(1, s))).collect();
    let batch = DetectMsg::IntervalBatch {
        from: ProcessId(1),
        groups,
        resync: true,
    };
    batched.on_message(batch, &mut t);
    assert_eq!(t.sent, vec![ack(3)]);

    let mut single = root();
    let mut t = Outbox::new(SimTime(20));
    for s in 0..3 {
        let msg = DetectMsg::Interval {
            from: ProcessId(1),
            interval: round(1, s),
            resync: s == 0,
        };
        single.on_message(msg, &mut t);
    }
    assert_eq!(t.sent, vec![ack(1), ack(2), ack(3)]);

    assert_eq!(batched.detections().len(), 3);
    assert_eq!(batched.detections(), single.detections());
    assert_eq!(batched.engine().bank_stats(), single.engine().bank_stats());
}
