//! Integration tests: the distributed deployment on the simulated
//! non-FIFO multi-hop network.

use ftscp_core::deploy::{DeployConfig, Deployment};
use ftscp_core::membership::ladder;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::HierarchicalDetector;
use ftscp_simnet::{LinkModel, NodeId, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{scenarios, Execution, RandomExecution};
use std::collections::BTreeSet;

fn config(seed: u64) -> DeployConfig {
    DeployConfig {
        sim: SimConfig {
            seed,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        ..Default::default()
    }
}

/// Reference: detections of the in-memory detector on the same execution.
fn reference_coverages(tree: &SpanningTree, exec: &Execution) -> Vec<Vec<(u32, u64)>> {
    let mut det = HierarchicalDetector::new(tree);
    for iv in exec.intervals_interleaved() {
        det.feed(iv.clone());
    }
    det.root_solutions()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

#[test]
fn deployment_matches_in_memory_detector() {
    for seed in [1u64, 2, 3] {
        let n = 7;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(5)
            .skip_prob(0.15)
            .seed(seed)
            .build();
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);

        let mut dep = Deployment::new(topo, tree.clone(), &exec, config(seed));
        dep.run();

        let got: Vec<Vec<(u32, u64)>> = dep
            .detections()
            .iter()
            .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
            .collect();
        let want = reference_coverages(&tree, &exec);
        assert_eq!(
            got, want,
            "seed {seed}: network run must match in-memory run"
        );
    }
}

/// For every shape, topology (`crosslinks` 0 and 1) and victim list
/// `victims(n)` names, crashes the victims in turn, at 300 ms and then at
/// 1 000 ms, on the simulated network and in
/// `HierarchicalDetector::fail_node`, and asserts the two repairs agree:
/// every survivor's parent, the main root, the processes the last
/// main-root detection covers, and every live, attached node's ancestor
/// chain, which is `membership::ladder` of its parent. Each run lasts
/// about `run_ms`. Returns the number of cases.
fn repairs_like_the_in_memory_detector(
    shapes: &[(usize, usize)],
    run_ms: usize,
    victims: impl Fn(usize) -> Vec<Vec<ProcessId>>,
) -> usize {
    let mut cases = 0;
    for &(n, d) in shapes {
        let exec = RandomExecution::builder(n)
            .intervals_per_process(run_ms / (10 * n) + 2)
            .seed(7)
            .build();
        let tree = SpanningTree::balanced_dary(n, d);
        for (crosslinks, victims) in [0, 1]
            .into_iter()
            .flat_map(|x| victims(n).into_iter().map(move |v| (x, v)))
        {
            let topo = Topology::dary_tree(n, d, crosslinks);
            let crashes = || {
                victims
                    .iter()
                    .copied()
                    .zip([300, 1_000].map(SimTime::from_millis))
            };
            let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, config(7));
            for (victim, at) in crashes() {
                dep.schedule_crash(victim, at);
            }
            dep.run();

            // The in-memory twin: each crash lands before the first
            // interval completed after it, and the dead feed nothing.
            let spacing = DeployConfig::default().interval_spacing;
            let mut det = HierarchicalDetector::new(&tree);
            for (i, iv) in exec.intervals_interleaved().into_iter().enumerate() {
                for (victim, _) in crashes().filter(|&(_, at)| at.0 / spacing.0 == i as u64) {
                    det.fail_node(victim, &topo);
                }
                if det.tree().contains(iv.source) {
                    det.feed(iv.clone());
                }
            }

            let case = format!("n={n} d={d} crosslinks={crosslinks} victims={victims:?}");
            for v in ProcessId::all(n).filter(|v| !victims.contains(v)) {
                let parent = det.tree().parent(v);
                assert_eq!(dep.app(v).parent(), parent, "{case}: parent of {v:?}");
                if let Some(parent) = parent {
                    let chain = dep.app(v).membership().ancestor_chain();
                    assert_eq!(chain, ladder(det.tree(), parent), "{case}: chain of {v:?}");
                }
            }
            let last_at = |dets: &[ftscp_core::GlobalDetection], root| {
                dets.iter()
                    .rev()
                    .find(|d| d.at_node == root)
                    .map(|d| d.covered_processes())
            };
            let root = det.tree().root();
            assert_eq!(dep.tree().root(), root, "{case}: main root");
            let want = last_at(det.root_solutions(), root);
            assert!(want.is_some(), "{case}: the main root detects");
            assert_eq!(last_at(&dep.detections(), root), want, "{case}");
            cases += 1;
        }
    }
    cases
}

/// One crash, two repairs: on every shape, topology and victim, the tree
/// the protocol settles to on the simulated network is the one
/// `HierarchicalDetector::fail_node` builds.
#[test]
fn one_crash_repairs_like_the_in_memory_detector() {
    let shapes = [(7, 2), (15, 2), (13, 3), (21, 4), (31, 2)];
    let singles = |n| ProcessId::all(n).map(|v| vec![v]).collect();
    assert_eq!(
        repairs_like_the_in_memory_detector(&shapes, 1_200, singles),
        174
    );
}

/// Two crashes, the tree settled in between: after every ordered pair of
/// victims the protocol's tree, root and ladders are still the in-memory
/// detector's.
#[test]
fn two_crashes_repair_like_the_in_memory_detector() {
    let pairs = |n| {
        let all = || ProcessId::all(n);
        all()
            .flat_map(|a| all().filter(move |&b| b != a).map(move |b| vec![a, b]))
            .collect()
    };
    assert_eq!(
        repairs_like_the_in_memory_detector(&[(7, 2), (13, 3)], 2_600, pairs),
        396
    );
}

/// A simulator/tree `NodeId` *is* a `ProcessId`: the tree's own child
/// slice goes wherever the detection layer wants `&[ProcessId]`, with no
/// conversion. Mostly a compile-time pin — it stops building the day the
/// two ids drift apart again.
#[test]
fn tree_ids_are_process_ids() {
    fn ids(children: &[ProcessId]) -> Vec<u32> {
        children.iter().map(|c| c.0).collect()
    }
    let exec = RandomExecution::builder(7)
        .intervals_per_process(1)
        .seed(1)
        .build();
    let topo = Topology::dary_tree(7, 2, 1);
    let dep = Deployment::new(topo, SpanningTree::balanced_dary(7, 2), &exec, config(1));
    let root: NodeId = dep.tree().root();
    assert_eq!(ids(dep.tree().children(root)), vec![1, 2]);
    assert_eq!(dep.app(root).engine().children(), dep.tree().children(root));
}

#[test]
fn deployment_is_deterministic() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(4)
        .seed(5)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let run = |seed| {
        let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, config(seed));
        dep.run();
        (
            dep.detections().len(),
            dep.metrics().sends,
            dep.metrics().hop_messages,
        )
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn heartbeats_flow_along_tree_edges() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(2)
        .seed(1)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut dep = Deployment::new(topo, tree, &exec, config(1));
    dep.run();
    // The root has heard heartbeats from both children.
    let root_app = dep.app(ProcessId(0));
    assert!(root_app.last_heard(ProcessId(1)).is_some());
    assert!(root_app.last_heard(ProcessId(2)).is_some());
}

#[test]
fn heartbeat_timeouts_expose_suspects() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(3)
        .seed(2)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut dep = Deployment::new(topo, tree, &exec, config(2));
    // Node 1 (child of the root) dies early; the repair later removes it
    // from the root's peer set, so `suspects` only ever reasons about the
    // *current* peers.
    dep.schedule_crash(ProcessId(1), SimTime::from_millis(60));
    dep.run();
    let root = dep.app(ProcessId(0));
    // The dead node stopped beaconing at its crash (as its orphan 3 last
    // heard it: the root forgot the dead child with its queue); its live
    // sibling kept going until the run's end.
    assert!(root.last_heard(ProcessId(1)).is_none());
    let orphan = dep.app(ProcessId(3));
    let last_1 = orphan.last_heard(ProcessId(1)).unwrap();
    let last_2 = root.last_heard(ProcessId(2)).unwrap();
    assert!(
        last_1 < SimTime::from_millis(70),
        "node 1 stopped beaconing at death"
    );
    assert!(last_2 > last_1, "node 2 outlived node 1's beacons");
    // After the repair, node 1 is no longer a peer at all.
    assert!(!root.engine().has_child(ProcessId(1)));
    // Timeout arithmetic: probing right after the last heartbeat flags
    // nobody; probing far past it flags every current peer.
    let fresh_probe = last_2 + SimTime::from_millis(1);
    assert!(root.suspects(fresh_probe, SimTime::from_secs(1)).is_empty());
    let stale_probe = last_2 + SimTime::from_secs(30);
    let suspects = root.suspects(stale_probe, SimTime::from_secs(1));
    assert!(
        suspects.contains(&ProcessId(2)),
        "silence past timeout ⇒ suspect"
    );
}

#[test]
fn figure2_scenario_over_the_network_with_p3_crash() {
    let exec = scenarios::figure2();
    let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
    let tree = SpanningTree::from_parents(vec![
        Some(NodeId(1)),
        Some(NodeId(2)),
        None,
        Some(NodeId(2)),
    ]);
    let cfg = DeployConfig {
        interval_spacing: SimTime::from_millis(20),
        // Fast failure detector: repair completes before x1 arrives at P2,
        // with beacons well inside the timeout.
        repair_delay: SimTime::from_millis(5),
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(1)),
            ..Default::default()
        },
        ..config(11)
    };
    // The completion order is x2, x3, x5, x4, x1 → x1 completes at 100ms.
    // Crash P3 at 90ms: after repair (at 95ms), P2 is promoted, P4
    // re-attaches under it, and when x1 completes the partial predicate
    // {x1, x3, x5} is detected at the new root P2 — Figure 2(c).
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    dep.schedule_crash(ProcessId(2), SimTime::from_millis(90));
    dep.run();

    let dets = dep.detections();
    assert_eq!(dets.len(), 1, "partial predicate detected exactly once");
    assert_eq!(dets[0].at_node, ProcessId(1), "at the promoted root P2");
    let covered: BTreeSet<u32> = dets[0].covered_processes().iter().map(|p| p.0).collect();
    assert_eq!(covered, BTreeSet::from([0, 1, 3]), "survivors P1, P2, P4");
    assert_eq!(dep.tree().root(), NodeId(1));
}

#[test]
fn crash_free_figure2_detects_globally_over_network() {
    let exec = scenarios::figure2();
    let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
    let tree = SpanningTree::from_parents(vec![
        Some(NodeId(1)),
        Some(NodeId(2)),
        None,
        Some(NodeId(2)),
    ]);
    let mut dep = Deployment::new(topo, tree, &exec, config(2));
    dep.run();
    let dets = dep.detections();
    assert_eq!(dets.len(), 1);
    assert_eq!(dets[0].covered_processes().len(), 4);
    assert_eq!(dets[0].at_node, ProcessId(2), "at the original root P3");
}

#[test]
fn mid_run_leaf_crash_narrows_coverage() {
    let n = 7;
    let rounds = 6;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(23)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = config(23);
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    // Intervals complete every 10ms; n*rounds = 42 intervals → 420ms span.
    // Kill leaf 5 midway.
    dep.schedule_crash(ProcessId(5), SimTime::from_millis(200));
    dep.run();
    let dets = dep.detections();
    assert!(!dets.is_empty());
    assert!(
        dets.iter().any(|d| d.covered_processes().len() == n),
        "full-coverage detections before the crash"
    );
    assert!(
        dets.last().unwrap().covered_processes().len() == n - 1,
        "post-crash detections cover the 6 survivors"
    );
}

#[test]
fn non_fifo_reordering_is_tolerated() {
    // Huge delay variance: child reports routinely overtake each other.
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(31)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = DeployConfig {
        sim: SimConfig {
            seed: 31,
            link: LinkModel {
                min_delay: SimTime(10),
                max_delay: SimTime(400_000),
                drop_prob: 0.0,
            },
        },
        interval_spacing: SimTime::from_millis(1),
        // Links slower than any suspicion timeout: no failure detector.
        monitor: MonitorConfig {
            heartbeat_period: None,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    dep.run();
    let got: Vec<Vec<(u32, u64)>> = dep
        .detections()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    let want = reference_coverages(&tree, &exec);
    assert_eq!(got, want, "reorder buffers restore per-child order");
}

#[test]
fn lossy_links_with_reliability_layer_lose_nothing() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(41)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = DeployConfig {
        sim: SimConfig {
            seed: 41,
            link: LinkModel {
                min_delay: SimTime(100),
                max_delay: SimTime(2_000),
                drop_prob: 0.25, // every 4th hop-transmission vanishes
            },
        },
        interval_spacing: SimTime::from_millis(10),
        monitor: MonitorConfig {
            heartbeat_period: None,
            retransmit_period: Some(SimTime::from_millis(15)),
            ..Default::default()
        },
        ..Default::default()
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    dep.run();
    assert!(dep.metrics().lost > 0, "losses actually occurred");
    let got: Vec<Vec<(u32, u64)>> = dep
        .detections()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    let want = reference_coverages(&tree, &exec);
    assert_eq!(got, want, "ack/retransmit recovers every report");
    // Everything eventually acknowledged.
    for i in 1..n {
        assert_eq!(
            dep.app(ProcessId(i as u32)).unacked_count(),
            0,
            "node {i} fully acknowledged"
        );
    }
}

#[test]
fn lossy_links_without_reliability_lose_detections() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .seed(43)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = DeployConfig {
        sim: SimConfig {
            seed: 43,
            link: LinkModel {
                min_delay: SimTime(100),
                max_delay: SimTime(2_000),
                drop_prob: 0.3,
            },
        },
        interval_spacing: SimTime::from_millis(10),
        // Lost beacons would fake silences: no failure detector.
        monitor: MonitorConfig {
            heartbeat_period: None,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    dep.run();
    let want = reference_coverages(&tree, &exec);
    assert!(
        dep.detections().len() < want.len(),
        "without the reliability layer, lost reports cost detections \
         ({} < {})",
        dep.detections().len(),
        want.len()
    );
}

#[test]
fn internal_crash_is_repaired_around() {
    let n = 15;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .seed(61)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = DeployConfig {
        repair_delay: SimTime::from_millis(150),
        ..config(61)
    };
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    dep.schedule_crash(ProcessId(3), SimTime::from_millis(200));
    dep.run();
    // The tree closes over node 3's orphans, detection goes on, and it
    // ends on the survivors' coverage.
    assert_eq!(dep.tree().node_count(), n - 1, "orphans re-attached");
    assert!(!dep.tree().contains(NodeId(3)), "node 3 removed");
    let dets = dep.detections();
    assert!(!dets.is_empty());
    assert_eq!(dets.last().unwrap().covered_processes().len(), n - 1);
}

#[test]
fn repair_without_false_positives() {
    // No crashes at all: the failure detector must never mutate the tree.
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(5)
        .seed(3)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut dep = Deployment::new(topo, tree.clone(), &exec, config(3));
    dep.run();
    assert_eq!(dep.tree().node_count(), n);
    assert_eq!(dep.detections().len(), 5, "all rounds detected");
    for i in 0..n as u32 {
        assert_eq!(dep.tree().parent(NodeId(i)), tree.parent(NodeId(i)));
    }
}

#[test]
fn crash_recovery_over_the_network() {
    // Node 5 crashes at 150ms and reboots at 400ms;
    // from then on, rounds cover all 15 processes again: the restart
    // rejoins through the adoption handshake.
    let n = 15;
    let rounds = 8;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(51)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut dep = Deployment::new(topo, tree, &exec, config(51));
    dep.schedule_crash(ProcessId(5), SimTime::from_millis(150));
    dep.schedule_recovery(ProcessId(5), SimTime::from_millis(400));
    dep.run();

    let dets = dep.detections();
    assert!(!dets.is_empty());
    // Some detections happened without node 5 (during the outage, the
    // round in flight at the crash also loses whatever nodes 11/12 had
    // already aggregated into messages addressed to the dead node 5)...
    assert!(
        dets.iter().any(|d| d.covered_processes().len() < n),
        "outage detections exclude the crashed node"
    );
    // ...and the final ones include it again.
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n,
        "full coverage after recovery"
    );
    // The tree holds all 15 nodes again, with node 5 rejoined as a leaf.
    assert_eq!(dep.tree().node_count(), n);
    assert!(dep.tree().is_leaf(NodeId(5)));
    // Every detection remains valid.
    for d in &dets {
        let members: Vec<_> = d
            .coverage
            .iter()
            .map(|r| exec.intervals[r.process.index()][r.seq as usize].clone())
            .collect();
        assert!(ftscp_intervals::definitely_holds(&members));
    }
}

#[test]
fn a_restarted_root_rejoins_below_its_heir() {
    // Root 0 crashes at 150ms; heir 1 promotes itself and knocks at 0
    // every round. 0 reboots at 400ms and rejoins under a node of 1's
    // tree, so neither may adopt the other: the tree keeps one root and
    // the last detection covers all 15 processes.
    let n = 15;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .seed(51)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut dep = Deployment::new(topo, tree, &exec, config(51));
    dep.schedule_crash(ProcessId(0), SimTime::from_millis(150));
    dep.schedule_recovery(ProcessId(0), SimTime::from_millis(400));
    dep.run();

    let root_of = |mut v: ProcessId| {
        for _ in 0..n {
            match dep.app(v).parent() {
                Some(p) => v = p,
                None => return Some(v),
            }
        }
        None
    };
    for v in ProcessId::all(n) {
        assert_eq!(root_of(v), Some(ProcessId(1)), "node {v:?} reaches heir 1");
    }
    let dets = dep.detections();
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n,
        "full coverage after the restart"
    );
}

#[test]
fn a_restart_behind_a_cut_rejoins_once_the_cut_heals() {
    use ftscp_simnet::FaultPlan;
    // Node 5 reboots at 400ms cut off from everyone until 700ms: its first
    // knocks are lost, and the rejoin completes only because it keeps
    // knocking after the cut heals.
    let n = 15;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .seed(51)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cut = FaultPlan::new()
        .partition_at(SimTime::from_millis(390), &[NodeId(5)])
        .heal_at(SimTime::from_millis(700));
    let mut dep = Deployment::new(topo, tree, &exec, config(51));
    dep.apply_fault_plan(&cut);
    dep.schedule_crash(ProcessId(5), SimTime::from_millis(150));
    dep.schedule_recovery(ProcessId(5), SimTime::from_millis(400));
    dep.run();

    let adopter = dep.app(ProcessId(5)).parent().expect("node 5 has a parent");
    assert!(
        dep.app(adopter).engine().has_child(ProcessId(5)),
        "the adopter holds a queue for node 5"
    );
    let dets = dep.detections();
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n,
        "full coverage after the cut heals"
    );
    for d in &dets {
        let members: Vec<_> = d
            .coverage
            .iter()
            .map(|r| exec.intervals[r.process.index()][r.seq as usize].clone())
            .collect();
        assert!(ftscp_intervals::definitely_holds(&members));
    }
}

/// A recovery leaves alone a node the tree still holds: one that never
/// crashed, and a crashed root whose heir has not yet promoted itself (the
/// harness keeps its last tree while no root is claimed). Either way the
/// run is the run without the recovery.
#[test]
fn a_recovery_of_a_node_the_tree_still_holds_does_nothing() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(4)
        .seed(5)
        .build();
    let run = |node: ProcessId, crash: bool, recover: bool| {
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut dep = Deployment::new(topo, tree, &exec, config(5));
        if crash {
            dep.schedule_crash(node, SimTime::from_millis(50));
        }
        if recover {
            // Inside the 120ms suspicion timeout of a crash at 50ms.
            dep.schedule_recovery(node, SimTime::from_millis(100));
        }
        dep.run();
        (dep.detections(), dep.events_processed(), dep.is_alive(node))
    };
    let live = run(ProcessId(5), false, true);
    assert_eq!(live, run(ProcessId(5), false, false));
    assert!(live.2, "node 5 never went down");
    let root = run(ProcessId(0), true, true);
    assert_eq!(root, run(ProcessId(0), true, false));
    assert!(!root.2, "the crashed root stays down");
}

/// A recovery of a node with no live neighbour in the tree leaves it down:
/// on the bare tree topology node 5's one neighbour is its dead parent 2.
#[test]
fn a_node_with_no_live_tree_neighbour_stays_down() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(4)
        .seed(5)
        .build();
    let run = |crash_parent: bool| {
        let topo = Topology::dary_tree(n, 2, 0);
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut dep = Deployment::new(topo, tree, &exec, config(5));
        if crash_parent {
            dep.schedule_crash(ProcessId(2), SimTime::from_millis(40));
        }
        dep.schedule_crash(ProcessId(5), SimTime::from_millis(50));
        dep.schedule_recovery(ProcessId(5), SimTime::from_millis(400));
        dep.run();
        (dep.is_alive(ProcessId(5)), dep.tree().contains(NodeId(5)))
    };
    assert_eq!(run(false), (true, true), "under a live parent it rejoins");
    assert_eq!(run(true), (false, false), "no adopter: it stays down");
}

#[test]
fn overlapping_failures_reattach_stranded_subtrees() {
    // Crash 0 (the root) lands while node 5's orphans are still spending
    // their knock budget (their suspicion timeout is 250ms): the root's
    // heir must promote itself and the orphans, whose ladders name it
    // above the dead root, must still find the main tree.
    let n = 31;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(7)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let cfg = DeployConfig {
        interval_spacing: SimTime::from_millis(10),
        repair_delay: SimTime::from_millis(250),
        ..config(7)
    };
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    dep.schedule_crash(ProcessId(5), SimTime::from_millis(200));
    dep.schedule_crash(ProcessId(0), SimTime::from_millis(400)); // < 200+250
    dep.run();

    let dets = dep.detections();
    // Global detections end covering all 29 survivors.
    let last = dets.last().expect("detections continued");
    assert_eq!(last.covered_processes().len(), n - 2, "fully re-attached");
    // The final tree is one connected forest over the survivors.
    assert_eq!(dep.tree().node_count(), n - 2);
    for node in dep.tree().nodes() {
        let mut cur = node;
        while let Some(p) = dep.tree().parent(cur) {
            cur = p;
        }
        assert_eq!(cur, dep.tree().root(), "{node} reaches the root");
    }
}

#[test]
fn interval_message_count_is_bounded_by_paper_formula() {
    // Clean rounds, balanced d-ary tree: every node's every solution sends
    // one message (except the root). Eq. (11) with α = 1 gives
    // p·d^{h-1}·(h-1) as the hop count; interval sends are ≤ that.
    let n = 13; // d = 3, h = 3
    let rounds = 4;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(2)
        .build();
    let topo = Topology::dary_tree(n, 3, 1);
    let tree = SpanningTree::balanced_dary(n, 3);
    let mut dep = Deployment::new(topo, tree, &exec, config(2));
    dep.run();
    // Non-root nodes each solve once per round: 12 messages per round.
    assert_eq!(dep.interval_messages(), (rounds * (n - 1)) as u64);
}
