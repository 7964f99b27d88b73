//! Golden accounting of the simulated network: seeded runs with every
//! simnet counter pinned — the heartbeat-driven crash and the centralized
//! grid to what the simulator produced before its per-event overhead was
//! taken out (BFS per send, heap of whole events, map-keyed link
//! counters), the root crash and restart to the succession and the
//! handshake the monitors repair through. A change to routing, event order, RNG
//! draws or per-link counting moves a number here before it moves a
//! fingerprint elsewhere.

use ftscp::baselines::centralized::CentralizedDeployment;
use ftscp::core::deploy::{DeployConfig, Deployment};
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
/// dropped_dead_dst, max_edge_load, events_processed]`. A monitor's message
/// weighs what `DetectMsg::encode` writes for it, the sink baseline's the
/// paper's fixed-width report.
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
        ..DeployConfig::default()
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
        [40_982, 40_903, 40_982, 1_241_953, 58, 3, 1_082, 84_909]
    );
    let dets = dep.detections();
    assert_eq!(dets.len(), 12);
    assert_eq!(detection_fingerprint(&dets), 0x3fc9_c449_ef3a_8384);
}

/// A root crash and a restart: root 0 dies and its
/// heir, node 1, promotes itself while its siblings 2 and 3 climb the
/// heir line to it — multi-hop sends, siblings are not topology
/// neighbours — and re-knocks at the dead root every heartbeat round from
/// then on (the undeliverable sends). Then internal node 2 dies, and later
/// reboots with the state its crash froze and rejoins as a leaf under node 7 through
/// the adoption handshake.
#[test]
fn root_crash_repair_and_restart_accounting_is_pinned() {
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
        ..DeployConfig::default()
    };
    let mut dep = Deployment::new(
        Topology::dary_tree(n, 3, 1),
        SpanningTree::balanced_dary(n, 3),
        &exec,
        cfg,
    );
    dep.schedule_crash(ProcessId(0), SimTime(100_333));
    dep.schedule_crash(ProcessId(2), SimTime(220_555));
    dep.schedule_recovery(ProcessId(2), SimTime(380_111));
    dep.run();
    assert_eq!(
        counters(dep.metrics(), dep.events_processed()),
        [40_329, 40_247, 44_496, 1_489_159, 559, 7, 3_059, 74_810]
    );
    assert_eq!(dep.tree().root(), ProcessId(1), "the heir took over");
    assert_eq!(dep.app(ProcessId(2)).parent(), Some(ProcessId(7)));
    let dets = dep.detections();
    assert_eq!(dets.len(), 8);
    assert_eq!(detection_fingerprint(&dets), 0x0c45_0501_19e8_cbea);
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
