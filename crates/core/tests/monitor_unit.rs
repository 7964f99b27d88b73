//! Direct unit tests of [`MonitorApp`]'s protocol logic, driven through
//! the simnet test harness (no full simulation).

use ftscp_core::membership::RepairStep;
use ftscp_core::monitor::{MonitorApp, MonitorConfig};
use ftscp_core::protocol::DetectMsg;
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
    assert_eq!(app.engine().child_enqueued(), 0);
    let _ = deliver(&mut app, 0, a0, false);
    assert_eq!(app.engine().child_enqueued(), 2, "both delivered in order");
}

#[test]
fn stale_duplicates_are_dropped() {
    let mut app = interior();
    let a0 = iv(0, 0, &[1, 0], &[4, 3]);
    deliver(&mut app, 0, a0.clone(), false);
    deliver(&mut app, 0, a0, false); // duplicate
    assert_eq!(app.engine().child_enqueued(), 1);
}

#[test]
fn resync_fast_forwards_the_stream() {
    let mut app = interior();
    // The child was re-parented to us and re-reports from seq 5.
    let a5 = iv(0, 5, &[1, 0], &[4, 3]);
    deliver(&mut app, 0, a5, true);
    assert_eq!(app.engine().child_enqueued(), 1, "resync accepted seq 5");
    // Continuation at seq 6 flows.
    let a6 = iv(0, 6, &[5, 4], &[8, 7]);
    deliver(&mut app, 0, a6, false);
    assert_eq!(app.engine().child_enqueued(), 2);
    // Pre-resync stragglers are dropped.
    let a4 = iv(0, 4, &[0, 0], &[1, 1]);
    deliver(&mut app, 0, a4, false);
    assert_eq!(app.engine().child_enqueued(), 2);
}

#[test]
fn set_parent_re_reports_last_output() {
    let mut app = interior();
    // Complete a subtree solution so last_output exists: child interval +
    // local interval via direct schedule is absent; use child + remove to
    // force a solution: child reports, then local queue… simpler: child is
    // the only queue after removing the local? Q0 always exists. Use a
    // 2-wide overlap: deliver child interval, then local interval through
    // the timer path is unavailable — instead check that with no output
    // yet, a new parent gets nothing.
    let effects = testkit::drive(NodeId(1), SimTime(200), 10, &[], |ctx| {
        app.apply_repair(RepairStep::SetParent(Some(ProcessId(7))), ctx);
    });
    assert!(effects.sends.is_empty(), "nothing to re-report yet");
    assert_eq!(app.parent(), Some(ProcessId(7)));

    // Produce an output: overlap child + local by removing the child
    // queue? Instead feed both queues: local intervals only arrive via
    // schedule, so emulate a leaf: a monitor with no children forwards
    // local intervals — construct one with a schedule and fire its timer.
    let leaf_iv = iv(2, 0, &[0, 0, 1], &[0, 0, 2]);
    let mut leaf = MonitorApp::new(
        ProcessId(2),
        Some(ProcessId(1)),
        &[],
        1,
        vec![(SimTime(50), leaf_iv)],
        cfg_plain(),
    );
    let effects = testkit::drive(NodeId(2), SimTime(0), 10, &[], |ctx| leaf.on_init(ctx));
    assert_eq!(effects.timers.len(), 1, "interval timer armed");
    let effects = testkit::drive(NodeId(2), SimTime(50), 10, &[], |ctx| {
        leaf.on_timer(ctx, effects.timers[0].1)
    });
    assert_eq!(effects.sends.len(), 1, "leaf forwarded its interval");
    assert!(matches!(
        effects.sends[0].1,
        DetectMsg::Interval { resync: false, .. }
    ));

    // Now re-parent the leaf: it re-reports with resync.
    let effects = testkit::drive(NodeId(2), SimTime(60), 10, &[], |ctx| {
        leaf.apply_repair(RepairStep::SetParent(Some(ProcessId(3))), ctx);
    });
    assert_eq!(effects.sends.len(), 1);
    assert_eq!(effects.sends[0].0, NodeId(3));
    assert!(matches!(
        effects.sends[0].1,
        DetectMsg::Interval { resync: true, .. }
    ));
}

#[test]
fn promote_root_records_detections_locally() {
    // A leaf with one interval forwarded becomes root: its reseeded last
    // output turns into a local detection.
    let leaf_iv = iv(2, 0, &[0, 0, 1], &[0, 0, 2]);
    let mut leaf = MonitorApp::new(
        ProcessId(2),
        Some(ProcessId(1)),
        &[],
        1,
        vec![(SimTime(50), leaf_iv)],
        cfg_plain(),
    );
    let effects = testkit::drive(NodeId(2), SimTime(0), 10, &[], |ctx| leaf.on_init(ctx));
    testkit::drive(NodeId(2), SimTime(50), 10, &[], |ctx| {
        leaf.on_timer(ctx, effects.timers[0].1)
    });
    assert!(leaf.detections().is_empty());
    testkit::drive(NodeId(2), SimTime(70), 10, &[], |ctx| {
        leaf.apply_repair(RepairStep::PromoteRoot, ctx);
    });
    assert_eq!(
        leaf.detections().len(),
        1,
        "the un-consumed output resurfaces as a detection at the new root"
    );
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
    assert_eq!(leaf.unacked_count(), 2);
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
    assert_eq!(leaf.unacked_count(), 1);
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
    assert_eq!(leaf.unacked_count(), 0);
}
