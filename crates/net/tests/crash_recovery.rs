//! Whole-node crash recovery over real sockets, differentially verified.
//!
//! The decentralized repair path (heartbeat suspicion → grandparent
//! adoption → re-reports, `ftscp_core::membership`) runs on two
//! backends: the deterministic simulator in `RepairMode::HeartbeatDriven`
//! and the TCP runtime on loopback. These tests kill real nodes mid-run
//! and assert the survivors converge to the same solution sequence on
//! both — the repaired tree must be an implementation detail invisible
//! in *what* is detected.
//!
//! Determinism caveat the tests are built around: an interval that the
//! dead parent already acknowledged dies with the parent's queues (the
//! reliability layer only re-sends *unacked* state after adoption). So a
//! bit-identical cross-backend comparison needs a crash schedule where
//! the doomed node never holds subtree data: the crashed process
//! contributes no intervals of its own, and it dies before the first
//! interval of its subtree exists on either backend. Everything after
//! that is covered by the delivery-order-invariance guarantee.

use ftscp_core::deploy::{DeployConfig, Deployment as SimDeployment, RepairMode};
use ftscp_core::faultcheck::solution_fingerprint;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::report::GlobalDetection;
use ftscp_net::loopback::{sockets_available, Deployment, LoopbackConfig};
use ftscp_simnet::{LinkModel, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{Execution, ExecutionBuilder, RandomExecution};
use std::thread::sleep;
use std::time::Duration;

fn coverages(dets: &[GlobalDetection]) -> Vec<Vec<(u32, u64)>> {
    dets.iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

/// `rounds` gossip rounds over every process except `excluded`: one
/// guaranteed global solution per round among the participants, zero
/// intervals on the excluded process (see the module doc for why).
fn rounds_without(n: usize, excluded: ProcessId, rounds: usize) -> Execution {
    rounds_without_set(n, &[excluded], rounds)
}

/// As [`rounds_without`], excluding a whole set of processes.
fn rounds_without_set(n: usize, excluded: &[ProcessId], rounds: usize) -> Execution {
    let mut b = ExecutionBuilder::new(n);
    let procs: Vec<ProcessId> = ProcessId::all(n)
        .filter(|p| !excluded.contains(p))
        .collect();
    for round in 0..rounds {
        for &p in &procs {
            b.begin_interval(p);
        }
        // Coordinator gossip: everyone meets the coordinator inside the
        // interval, so all participant intervals pairwise overlap.
        let coord = procs[round % procs.len()];
        let mut inbound = Vec::new();
        for &p in &procs {
            if p != coord {
                inbound.push(b.send(p, coord));
            }
        }
        for m in inbound {
            b.recv(coord, m);
        }
        let mut outbound = Vec::new();
        for &p in &procs {
            if p != coord {
                outbound.push((p, b.send(coord, p)));
            }
        }
        for (p, m) in outbound {
            b.recv(p, m);
        }
        for &p in &procs {
            b.end_interval(p);
        }
    }
    b.finish()
}

/// The acceptance-criteria run. A height-1 internal node (node 1:
/// parent of leaves 3 and 4 in the 7-node binary tree) is crashed on
/// both backends:
///
/// * simnet: `RepairMode::HeartbeatDriven` — the protocol, not the
///   harness, notices the silence and repairs (fast heartbeats, crash
///   scheduled after the grandparent hint circulated but before the
///   first interval exists);
/// * TCP: `Deployment::crash_node` kills the node's threads outright;
///   the root times out the dead child, the orphaned leaves dial the
///   grandparent learned from `Uplink` hint frames and run the
///   adoption handshake over real sockets.
///
/// Post-repair, both must detect the identical solution sequence.
#[test]
fn crashed_internal_node_matches_simnet_heartbeat_repair() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let n = 7;
    let rounds = 6;
    let dead = ProcessId(1);
    let exec = rounds_without(n, dead, rounds);
    let tree = SpanningTree::balanced_dary(n, 2);

    // Simnet reference: heartbeats every 2ms (sim time), suspicion
    // timeout 12ms — wide enough that the 0.2–4ms link jitter can never
    // fake a silence. The crash at 7ms lands after three heartbeat
    // rounds (hints + liveness evidence in place) and before the first
    // interval at 10ms.
    let sim_cfg = DeployConfig {
        sim: SimConfig {
            seed: 11,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(2)),
            ..Default::default()
        },
        repair_delay: SimTime::from_millis(12),
        repair_mode: RepairMode::HeartbeatDriven,
        ..Default::default()
    };
    let topo = Topology::dary_tree(n, 2, 1);
    let mut sim = SimDeployment::new(topo, tree.clone(), &exec, sim_cfg);
    sim.schedule_crash(dead, SimTime::from_millis(7));
    sim.run();
    let sim_dets = sim.detections();
    assert_eq!(
        sim_dets.len(),
        rounds,
        "reference run must detect every survivor round"
    );
    assert!(
        sim_dets
            .iter()
            .all(|d| d.covered_processes().len() == n - 1),
        "reference detections cover exactly the six survivors"
    );

    // TCP run: two heartbeat rounds circulate the hints, then the node
    // dies for real. No harness repair exists on this backend at all.
    // The repair must settle before intervals flow (as it does on the
    // simnet schedule above): suspicion is per-node, so the root could
    // otherwise prune the dead child and match already-queued survivor
    // data a few milliseconds before the orphans' adoption lands.
    let mut config = LoopbackConfig {
        event_pacing: Duration::from_millis(1),
        ..Default::default()
    };
    config.monitor.suspect_timeout = Some(SimTime::from_millis(200));
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    sleep(Duration::from_millis(150));
    let crash_report = dep.crash_node(dead).expect("node 1 was running");
    assert!(
        crash_report.detections.is_empty(),
        "non-root detects nothing"
    );
    // Worst-case detection is 1.5× the timeout; the handshake adds a few
    // round-trips. 800ms leaves a wide margin on a loaded machine.
    sleep(Duration::from_millis(800));
    dep.feed_execution(&exec, config.event_pacing);
    let report = dep.finish(&config).expect("loopback run failed");

    assert!(!report.timed_out, "survivors failed to repair and drain");
    assert_eq!(
        coverages(&sim_dets),
        coverages(&report.detections),
        "post-repair solution sequences diverge across backends"
    );
    assert_eq!(
        solution_fingerprint(&sim_dets),
        solution_fingerprint(&report.detections),
        "post-repair fingerprints diverge across backends"
    );
}

/// The dead-grandparent storm over real sockets: node 3 (parent of
/// leaves 7 and 8 in the 15-node binary tree) and node 1 (its parent —
/// the orphans' freshest adoption hint) are killed together. Nodes 7
/// and 8 dial the dead grandparent, burn through the bounded knock
/// budget (`core::membership::ADOPT_ATTEMPT_CAP`), write it off, and
/// climb one more rung: the root, whose *address* arrived with node 3's
/// relayed `Uplink` ancestor chain (proto v4). They re-join there, just
/// as the simulated backend's `simultaneous_internal_crash_storm_*`
/// tests in `ftscp-core` pin for the id-only ladder. Before the chain
/// carried addresses, the rung was known but undialable and the pair
/// stayed stranded; before the budget existed, they re-dialed the
/// corpse forever.
///
/// The deployment-level contract under the storm: the run finishes, the
/// root prunes the dead branch, node 4 re-adopts under the root with
/// its leaves re-reported, the orphaned pair climbs to the root — and
/// every emitted solution covers exactly the thirteen survivors, never
/// the dead pair.
#[test]
fn dead_grandparent_storm_exhausts_knock_budget_and_still_finishes() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let n = 15;
    let rounds = 4;
    let dead = [ProcessId(1), ProcessId(3)];
    let exec = rounds_without_set(n, &dead, rounds);
    let tree = SpanningTree::balanced_dary(n, 2);

    let mut config = LoopbackConfig {
        event_pacing: Duration::from_millis(1),
        ..Default::default()
    };
    config.monitor.suspect_timeout = Some(SimTime::from_millis(200));
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    // Let hints circulate two relay hops: 7/8 need grandparent 1 from
    // node 3's uplink frames *and* the root's address, which node 3 can
    // only relay after node 1's hints delivered it. Then kill both
    // levels at once.
    sleep(Duration::from_millis(250));
    dep.crash_node(ProcessId(3)).expect("node 3 was running");
    dep.crash_node(ProcessId(1)).expect("node 1 was running");
    // Settle the whole cascade before data flows: suspicion (1.5× the
    // 200ms timeout worst-case), node 4's adoption handshake, the
    // orphans' four knocks at dead node 1 on 100ms suspicion ticks, the
    // write-off, and their second adoption handshake at the root.
    sleep(Duration::from_millis(2_000));
    dep.feed_execution(&exec, config.event_pacing);
    let report = dep.finish(&config).expect("loopback run failed");

    assert!(
        !report.timed_out,
        "recovering orphans must not gate the root's drain"
    );
    let survivors: Vec<u32> = vec![0, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14];
    assert_eq!(report.detections.len(), rounds, "one solution per round");
    for d in &report.detections {
        let covered: Vec<u32> = d.covered_processes().iter().map(|p| p.0).collect();
        assert_eq!(
            covered, survivors,
            "solutions cover all thirteen survivors — the orphaned pair \
             climbed the addressed ladder to the root"
        );
    }
}

/// A crashed root cannot be repaired around (no grandparent exists) —
/// the deployment must halt immediately and gracefully instead of
/// hanging until the run timeout.
#[test]
fn crashed_root_halts_gracefully() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(4)
        .seed(5)
        .build();
    let tree = SpanningTree::balanced_dary(n, 2);
    let config = LoopbackConfig {
        run_timeout: Duration::from_secs(20),
        ..Default::default()
    };
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    dep.feed_execution(&exec, config.event_pacing);
    // Let the whole execution drain into the root, then kill it.
    sleep(Duration::from_millis(800));
    let crash_report = dep.crash_node(ProcessId(0)).expect("root was running");
    let report = dep.finish(&config).expect("teardown failed");

    assert!(!report.timed_out, "a dead root must not burn the timeout");
    assert!(
        report.elapsed < config.run_timeout,
        "halt was not graceful: {:?}",
        report.elapsed
    );
    assert_eq!(
        coverages(&report.detections),
        coverages(&crash_report.detections),
        "the final report preserves the root's crash-time detections"
    );
    assert!(
        !crash_report.detections.is_empty(),
        "the root detected the drained rounds before dying"
    );
}

/// Crash-restart over real sockets: a leaf killed before any of its
/// data flowed is restarted as a fresh incarnation on a new port and
/// rejoins through the adoption handshake (fresh epoch, no pre-crash
/// state). With zero data lost, the run must detect exactly what a
/// fault-free simulated run detects.
#[test]
fn restarted_leaf_rejoins_and_restores_full_detection() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(5)
        .seed(9)
        .build();
    let tree = SpanningTree::balanced_dary(n, 2);

    // Fault-free reference on the simulator.
    let topo = Topology::dary_tree(n, 2, 1);
    let sim_cfg = DeployConfig {
        sim: SimConfig {
            seed: 9,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        ..Default::default()
    };
    let mut sim = SimDeployment::new(topo, tree.clone(), &exec, sim_cfg);
    sim.run();
    let sim_dets = sim.detections();
    assert!(!sim_dets.is_empty());

    let config = LoopbackConfig {
        event_pacing: Duration::from_millis(1),
        ..Default::default()
    };
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    sleep(Duration::from_millis(120));
    let leaf = ProcessId(5);
    dep.crash_node(leaf).expect("leaf was running");
    dep.restart_node(leaf, ProcessId(2), &config)
        .expect("restart failed");
    sleep(Duration::from_millis(100));
    dep.feed_execution(&exec, config.event_pacing);
    let report = dep.finish(&config).expect("loopback run failed");

    assert!(!report.timed_out, "rejoin did not converge");
    assert_eq!(
        coverages(&sim_dets),
        coverages(&report.detections),
        "a clean crash-restart must lose nothing"
    );
}
