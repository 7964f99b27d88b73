//! Golden accounting of the simulated network: two seeded runs with every
//! simnet counter pinned to what the simulator produced before PR 22 took
//! its per-event overhead out (BFS per send, heap of whole events, map-keyed
//! link counters). A change to routing, event order, RNG draws or per-link
//! counting moves a number here before it moves a fingerprint elsewhere.

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
