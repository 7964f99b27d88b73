//! Golden accounting of the simulated network: seeded runs with every
//! simnet counter pinned — the first two to what the simulator produced
//! before PR 22 took its per-event overhead out (BFS per send, heap of
//! whole events, map-keyed link counters), the third to the repair harness
//! before PR 25 stopped sending its plan as messages. A change to routing,
//! event order, RNG draws or per-link counting moves a number here before
//! it moves a fingerprint elsewhere.

use ftscp::baselines::centralized::CentralizedDeployment;
use ftscp::core::deploy::{DeployConfig, Deployment, RepairMode};
use ftscp::core::faultcheck::detection_fingerprint;
use ftscp::core::monitor::MonitorConfig;
use ftscp::simnet::{LinkModel, NetMetrics, SimConfig, SimTime, Topology};
use ftscp::tree::SpanningTree;
use ftscp::vclock::ProcessId;
use ftscp::workload::RandomExecution;

fn sim_config(seed: u64) -> SimConfig {
    SimConfig {
        seed,
        link: LinkModel {
            min_delay: SimTime(200),
            max_delay: SimTime(4_000),
            drop_prob: 0.0,
        },
    }
}

/// `[sends, delivered, hop_messages, hop_bytes, undeliverable,
/// dropped_dead_dst, max_edge_load, events_processed]`.
fn counters(m: &NetMetrics, events: u64) -> [u64; 8] {
    [
        m.sends,
        m.delivered,
        m.hop_messages,
        m.hop_bytes,
        m.undeliverable,
        m.dropped_dead_dst,
        m.max_edge_load(),
        events,
    ]
}

/// Every send goes to a tree neighbour (`hop_messages == sends`): the
/// direct-edge route. Node 1, an internal node with three children, dies
/// with messages in flight; its orphans adopt the root over the
/// grandparent cross-links.
#[test]
fn heartbeat_driven_crash_accounting_is_pinned() {
    let n = 40;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(12)
        .seed(22)
        .build();
    let cfg = DeployConfig {
        sim: sim_config(22),
        interval_spacing: SimTime::from_millis(1),
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(20)),
            retransmit_period: Some(SimTime::from_millis(25)),
            ..MonitorConfig::default()
        },
        repair_delay: SimTime::from_millis(120),
        repair_mode: RepairMode::HeartbeatDriven,
    };
    let mut dep = Deployment::new(
        Topology::dary_tree(n, 3, 1),
        SpanningTree::balanced_dary(n, 3),
        &exec,
        cfg,
    );
    dep.schedule_crash(ProcessId(1), SimTime(200_777));
    dep.run();
    assert_eq!(
        counters(dep.metrics(), dep.events_processed()),
        [40_894, 40_814, 40_894, 918_868, 58, 4, 1_082, 84_786]
    );
    let dets = dep.detections();
    assert_eq!(dets.len(), 12);
    assert_eq!(detection_fingerprint(&dets), 0x3f5a_faac_3ed4_6460);
}

/// The clairvoyant (`Scheduled`) repair path with stable storage: root 0
/// dies, then internal node 2, which later reboots from its checkpoint and
/// rejoins as a leaf. Values captured before PR 25, when the harness
/// *injected* its plan as k = 18 control messages (9 for the root repair,
/// 7 for node 2's, 2 for the rejoin), each one a delivered event; now the
/// steps are applied by call, so `delivered` and `events_processed` are
/// exactly 18 lower and everything else is unchanged.
#[test]
fn scheduled_repair_and_restart_accounting_is_pinned() {
    let n = 40;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(12)
        .seed(25)
        .build();
    let cfg = DeployConfig {
        sim: sim_config(25),
        interval_spacing: SimTime::from_millis(1),
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(20)),
            ..MonitorConfig::default()
        },
        repair_delay: SimTime::from_millis(60),
        repair_mode: RepairMode::Scheduled,
    };
    let mut dep = Deployment::new(
        Topology::dary_tree(n, 3, 1),
        SpanningTree::balanced_dary(n, 3),
        &exec,
        cfg,
    );
    dep.enable_checkpointing();
    dep.schedule_crash(ProcessId(0), SimTime(100_333));
    dep.schedule_crash(ProcessId(2), SimTime(220_555));
    dep.schedule_recovery(ProcessId(2), SimTime(380_111));
    dep.run();
    let k = 18;
    assert_eq!(
        counters(dep.metrics(), dep.events_processed()),
        [
            40_233,
            40_170 - k,
            40_233,
            1_083_210,
            32,
            6,
            1_060,
            61_081 - k
        ]
    );
    assert_eq!(dep.app(ProcessId(2)).parent(), Some(ProcessId(7)));
    let dets = dep.detections();
    assert_eq!(dets.len(), 11);
    assert_eq!(detection_fingerprint(&dets), 0x49d1_c449_991f_86e5);
}

/// Every report is multi-hop — the sink is a corner of a 6 × 6 grid — so
/// the breadth-first search routes all of it and every hop lands on a
/// per-link counter: what `sim_crash` never exercises.
#[test]
fn centralized_grid_accounting_is_pinned() {
    let exec = RandomExecution::builder(36)
        .intervals_per_process(8)
        .skip_prob(0.02)
        .seed(23)
        .build();
    let mut dep = CentralizedDeployment::new(
        Topology::grid(6, 6),
        ProcessId(0),
        &exec,
        sim_config(23),
        SimTime::from_millis(2),
    );
    dep.run();
    assert_eq!(
        counters(dep.metrics(), dep.events_processed()),
        [276, 276, 1_419, 472_527, 0, 0, 237, 560]
    );
    let dets = dep.detections();
    let time_sum: u64 = dets.iter().map(|(t, _)| t.as_micros()).sum();
    assert_eq!((dets.len(), time_sum), (5, 1_592_298));
}
