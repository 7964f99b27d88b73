//! Fault-injection integration tests: scripted [`FaultPlan`]s driven
//! through the full deployment, with post-hoc invariant checking.
//!
//! Every test asserts the two §III-F obligations — no fault may produce an
//! *invalid* detection (safety), and the survivors' solutions must still be
//! detected (liveness over the live portion) — plus determinism: the same
//! seed and the same plan replay the identical detection sequence.

use ftscp_core::deploy::{DeployConfig, Deployment};
use ftscp_core::faultcheck::{detection_fingerprint, verify_detections, verify_no_silent_drops};
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::HierarchicalDetector;
use ftscp_simnet::{FaultPlan, LinkModel, NodeId, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{Execution, RandomExecution};
use proptest::prelude::*;

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

fn workload(n: usize, rounds: usize, seed: u64) -> (Execution, Topology, SpanningTree) {
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(seed)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    (exec, topo, tree)
}

/// Reference: coverage sequences of the in-memory detector on the same
/// execution (what a fault-free run must reproduce).
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

fn coverages(dep: &Deployment) -> Vec<Vec<(u32, u64)>> {
    dep.detections()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

/// Same seed + same plan ⇒ byte-identical detection sequence, across a
/// plan that exercises every fault primitive at once.
#[test]
fn same_seed_same_plan_replays_identical_detection_sequence() {
    let (exec, topo, tree) = workload(7, 6, 13);
    let plan = FaultPlan::new()
        .crash_at(SimTime::from_millis(200), NodeId(5))
        .partition_at(SimTime::from_millis(60), &[NodeId(3)])
        .heal_at(SimTime::from_millis(160))
        .duplicate_between(SimTime::from_millis(20), SimTime::from_millis(300), 0.4)
        .reorder_between(
            SimTime::from_millis(10),
            SimTime::from_millis(350),
            SimTime::from_millis(8),
            0.5,
        )
        .skew_timers_at(SimTime::ZERO, NodeId(4), 5, 4);
    let cfg = DeployConfig {
        monitor: MonitorConfig {
            retransmit_period: Some(SimTime::from_millis(15)),
            ..Default::default()
        },
        ..config(13)
    };
    let run = |seed_cfg: DeployConfig| {
        let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, seed_cfg);
        dep.apply_fault_plan(&plan);
        dep.run();
        detection_fingerprint(&dep.detections())
    };
    let a = run(cfg);
    let b = run(cfg);
    assert_eq!(a, b, "identical seed + plan ⇒ identical detections");
    // Sanity: the fingerprint is actually sensitive — a different network
    // seed perturbs delivery timing and thus detection times.
    let c = run(DeployConfig {
        sim: SimConfig {
            seed: 14,
            ..cfg.sim
        },
        ..cfg
    });
    assert_ne!(a, c, "a different seed yields a different sequence");
}

/// Crash primitive: a mid-run leaf crash narrows coverage to the
/// survivors without ever emitting an invalid detection.
#[test]
fn crash_injection_preserves_survivor_solutions() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 23);
    let mut dep = Deployment::new(topo, tree, &exec, config(23));
    dep.apply_fault_plan(&FaultPlan::new().crash_at(SimTime::from_millis(200), NodeId(5)));
    dep.run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(!dets.is_empty());
    assert!(
        dets.iter().any(|d| d.covered_processes().len() == n),
        "full-coverage detections before the crash"
    );
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n - 1,
        "post-crash detections cover the six survivors"
    );
}

/// Hold-after-drop regression (the prune/adopt race: reverting the hold
/// trips `Missed` in the explorer's matrix, docs/DST.md §2). An internal
/// monitor (node 1) crashes mid-stream under heartbeat-driven repair.
/// Without the hold, the root finalizes Q₁'s removal the instant
/// suspicion fires and — while nodes 3 and 4 are still re-adopting —
/// emits solutions assembled from only {root, subtree 2}: eight-process
/// "detections" that silently exclude six live survivors. With the
/// hold, the dead child's queue is retired only after the full hold
/// window, by which point the orphans have re-joined, so every detection
/// covers all fourteen survivors.
#[test]
fn internal_crash_hold_prevents_narrow_detections_during_readoption() {
    let n = 15;
    for seed in [0u64, 9, 23] {
        let (exec, topo, tree) = workload(n, 20, seed);
        let cfg = DeployConfig { ..config(seed) };
        let mut dep = Deployment::new(topo, tree, &exec, cfg);
        dep.apply_fault_plan(&FaultPlan::new().crash_at(SimTime::from_millis(60), NodeId(1)));
        dep.run();
        let dets = dep.detections();
        assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
        assert!(!dets.is_empty());
        for d in dets.iter() {
            assert_eq!(
                d.covered_processes().len(),
                n - 1,
                "seed {seed}: every detection covers all fourteen survivors \
                 (anything narrower means the root released solutions while \
                 node 1's orphans were still re-adopting)"
            );
        }
    }
}

/// Restart primitive: a crash-restart pair reboots the node with the state
/// its crash froze, rejoins it as a leaf, and full coverage returns.
#[test]
fn restart_injection_rejoins_and_restores_full_coverage() {
    let n = 15;
    let (exec, topo, tree) = workload(n, 8, 51);
    let mut dep = Deployment::new(topo, tree, &exec, config(51));
    dep.apply_fault_plan(
        &FaultPlan::new()
            .crash_at(SimTime::from_millis(150), NodeId(5))
            .restart_at(SimTime::from_millis(400), NodeId(5)),
    );
    dep.run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(
        dets.iter().any(|d| d.covered_processes().len() < n),
        "outage detections exclude the crashed node"
    );
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n,
        "full coverage after the restart"
    );
    assert_eq!(dep.tree().node_count(), n);
    assert!(dep.tree().is_leaf(NodeId(5)));
}

/// Partition primitive: with the reliability layer on, a healed partition
/// costs nothing — the detection sequence equals the fault-free reference
/// and no surviving node's intervals are dropped.
#[test]
fn partition_with_heal_loses_no_detection() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 41);
    let cfg = DeployConfig {
        monitor: MonitorConfig {
            heartbeat_period: None,
            retransmit_period: Some(SimTime::from_millis(15)),
            ..Default::default()
        },
        ..config(41)
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    // Cut off the subtree {1, 3, 4} for a quarter of the run.
    dep.apply_fault_plan(
        &FaultPlan::new()
            .partition_at(SimTime::from_millis(50), &[NodeId(1), NodeId(3), NodeId(4)])
            .heal_at(SimTime::from_millis(180)),
    );
    dep.run();
    assert!(
        dep.metrics().undeliverable > 0,
        "the cut actually blocked traffic"
    );
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(verify_no_silent_drops(&dep).is_empty(), "nothing dropped");
    assert_eq!(
        coverages(&dep),
        reference_coverages(&tree, &exec),
        "retransmission recovers every report after the heal"
    );
}

/// Duplication primitive: per-child sequence numbers deduplicate injected
/// copies, so the detection sequence equals the fault-free reference.
#[test]
fn duplication_is_absorbed_by_sequence_numbers() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 31);
    let mut dep = Deployment::new(topo, tree.clone(), &exec, config(31));
    dep.apply_fault_plan(&FaultPlan::new().duplicate_between(
        SimTime::ZERO,
        SimTime::from_secs(600),
        1.0,
    ));
    dep.run();
    assert!(dep.metrics().duplicated > 0, "duplicates were injected");
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert_eq!(
        coverages(&dep),
        reference_coverages(&tree, &exec),
        "every duplicate is dropped, no detection repeats"
    );
}

/// Reordering primitive: aggravated non-FIFO bursts are restored to
/// per-child order by the reorder buffers; the detection sequence equals
/// the fault-free reference.
#[test]
fn reordering_bursts_are_tolerated() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 37);
    let mut dep = Deployment::new(topo, tree.clone(), &exec, config(37));
    // Up to 60ms of extra delay per message — several interval spacings,
    // so streams heavily interleave and overtake.
    dep.apply_fault_plan(&FaultPlan::new().reorder_between(
        SimTime::ZERO,
        SimTime::from_secs(600),
        SimTime::from_millis(60),
        0.7,
    ));
    dep.run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert_eq!(
        coverages(&dep),
        reference_coverages(&tree, &exec),
        "reorder buffers restore per-child order"
    );
}

/// Timer-skew primitive, fast-clock direction: a clock running at 2/3
/// speed chases every interval deadline with geometrically shrinking
/// re-arms. Regression for the DST-campaign find (seed 30) where the
/// skew truncated the final 1µs re-arm to zero and the run livelocked;
/// the skew now rounds up, so the run completes and loses nothing.
#[test]
fn fast_clock_skew_completes_losslessly() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 53);
    let cfg = DeployConfig {
        monitor: MonitorConfig {
            retransmit_period: Some(SimTime::from_millis(15)),
            ..Default::default()
        },
        ..config(53)
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    dep.apply_fault_plan(&FaultPlan::new().skew_timers_at(SimTime::ZERO, NodeId(1), 2, 3));
    dep.run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(verify_no_silent_drops(&dep).is_empty(), "nothing dropped");
    assert_eq!(
        coverages(&dep),
        reference_coverages(&tree, &exec),
        "a fast local clock shifts timings, never content"
    );
}

/// §III-F compound scenario: two *internal* monitors on different tree
/// levels crash at the same instant under heartbeat-driven repair.
/// Node 1 (level 1) and node 3 (level 2, a child of node 1) die
/// together, so node 3's children find their grandparent hint already
/// dead. Safety and determinism must survive the storm outright.
///
/// Node 4 re-adopts under the root via its grandparent hint. Nodes 7/8
/// knock at dead node 1 first, exhaust its budget, then fall back one
/// rung up the ancestor chain their parent's heartbeats relayed — the
/// root — and re-join there (the ancestor ladder the heartbeats relay;
/// the explorer's storm row climbs it too). The companion test below
/// asserts the full-recovery endpoint; this one pins safety and
/// determinism of the storm itself.
#[test]
fn simultaneous_internal_crash_storm_stays_safe_and_deterministic() {
    let n = 15;
    let (exec, topo, tree) = workload(n, 8, 61);
    let cfg = DeployConfig { ..config(61) };
    let storm = FaultPlan::new()
        .crash_at(SimTime::from_millis(150), NodeId(1))
        .crash_at(SimTime::from_millis(150), NodeId(3));
    let run = || {
        let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, cfg);
        dep.apply_fault_plan(&storm);
        dep.run();
        dep
    };
    let dep = run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(!dets.is_empty());
    let last = dets.last().unwrap().covered_processes();
    assert!(
        !last.contains(&ProcessId(1)) && !last.contains(&ProcessId(3)),
        "post-storm detections exclude the dead"
    );
    assert_eq!(
        detection_fingerprint(&dets),
        detection_fingerprint(&run().detections()),
        "the storm replays deterministically"
    );
}

/// After the simultaneous internal crashes, *all* thirteen survivors
/// re-join and are covered — including node 3's children, whose
/// grandparent (node 1) died with their parent. They climb the ancestor
/// chain carried on heartbeats: knock at dead node 1 until the budget
/// runs out, then dial the next rung up, the root. This closes
/// ROADMAP's failure-storm item for the simulated backend (the TCP
/// runtime still needs an *address* for a rung to dial it — see
/// `net/tests/crash_recovery.rs` for the knock-budget contract there).
#[test]
fn simultaneous_internal_crash_storm_recovers_all_survivors() {
    let n = 15;
    let (exec, topo, tree) = workload(n, 8, 61);
    let cfg = DeployConfig { ..config(61) };
    let mut dep = Deployment::new(topo, tree, &exec, cfg);
    dep.apply_fault_plan(
        &FaultPlan::new()
            .crash_at(SimTime::from_millis(150), NodeId(1))
            .crash_at(SimTime::from_millis(150), NodeId(3)),
    );
    dep.run();
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert_eq!(
        dets.last().unwrap().covered_processes().len(),
        n - 2,
        "every survivor is covered again after the storm"
    );
}

/// A partition shorter than the suspicion timeout under heartbeat
/// repair: nobody is suspected, the reliability layer re-delivers what
/// the cut blocked, and the run is indistinguishable from fault-free.
#[test]
fn short_partition_under_heartbeat_repair_is_lossless() {
    let n = 15;
    let (exec, topo, tree) = workload(n, 8, 67);
    let cfg = DeployConfig {
        monitor: MonitorConfig {
            retransmit_period: Some(SimTime::from_millis(15)),
            ..Default::default()
        },
        ..config(67)
    };
    let mut dep = Deployment::new(topo, tree.clone(), &exec, cfg);
    // Cut off node 2's whole subtree for 70ms — under the 120ms
    // suspicion timeout, so the repair machinery must stay quiet.
    dep.apply_fault_plan(
        &FaultPlan::new()
            .partition_at(
                SimTime::from_millis(50),
                &[
                    NodeId(2),
                    NodeId(5),
                    NodeId(6),
                    NodeId(11),
                    NodeId(12),
                    NodeId(13),
                    NodeId(14),
                ],
            )
            .heal_at(SimTime::from_millis(120)),
    );
    dep.run();
    assert!(dep.metrics().undeliverable > 0, "the cut blocked traffic");
    let dets = dep.detections();
    assert!(verify_detections(&exec, &dets).is_empty(), "safety holds");
    assert!(verify_no_silent_drops(&dep).is_empty(), "nothing dropped");
    assert_eq!(
        coverages(&dep),
        reference_coverages(&tree, &exec),
        "a sub-timeout partition is invisible after the heal"
    );
}

/// A partition *longer* than the suspicion timeout: both sides repair
/// around each other (the root prunes the severed subtree's queues, and
/// the subtree's top, its ladder dead behind the cut, roots it as a
/// forest), yet after the heal its re-knock and re-reports must stitch
/// the subtree back in and restore full coverage — whether the cut lands
/// on a beacon round (50 ms) or between two (60 ms). This narrows
/// ROADMAP's partition-rejoin item: the single-cut subtree scenario
/// recovers today; divergent multi-cut membership remains open.
#[test]
fn long_partition_under_heartbeat_repair_rejoins_after_heal() {
    let n = 15;
    for cut_ms in [50, 60] {
        let (exec, topo, tree) = workload(n, 8, 67);
        let cfg = DeployConfig {
            monitor: MonitorConfig {
                retransmit_period: Some(SimTime::from_millis(15)),
                ..Default::default()
            },
            ..config(67)
        };
        let mut dep = Deployment::new(topo, tree, &exec, cfg);
        dep.apply_fault_plan(
            &FaultPlan::new()
                .partition_at(
                    SimTime::from_millis(cut_ms),
                    &[
                        NodeId(2),
                        NodeId(5),
                        NodeId(6),
                        NodeId(11),
                        NodeId(12),
                        NodeId(13),
                        NodeId(14),
                    ],
                )
                .heal_at(SimTime::from_millis(400)),
        );
        dep.run();
        let dets = dep.detections();
        assert!(
            verify_detections(&exec, &dets).is_empty(),
            "{cut_ms} ms: safety holds"
        );
        assert!(
            dep.metrics().undeliverable > 0,
            "{cut_ms} ms: the cut actually blocked traffic"
        );
        assert_eq!(
            dets.last().unwrap().covered_processes().len(),
            n,
            "{cut_ms} ms: full coverage returns after the heal"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// DST cornerstone: `FaultPlan::randomized` is a pure function of
    /// `(n, horizon, seed)`, and the deployment is a pure function of the
    /// plan — so any campaign seed replays to the identical
    /// faultcheck fingerprint. This is what makes a failing seed a
    /// complete, shrinkable bug report.
    #[test]
    fn randomized_plans_replay_to_identical_fingerprints(seed in 0u64..100_000) {
        let horizon = SimTime::from_millis(60);
        let plan = FaultPlan::randomized(7, horizon, seed);
        prop_assert_eq!(&plan, &FaultPlan::randomized(7, horizon, seed));

        let (exec, topo, tree) = workload(7, 6, seed);
        let cfg = DeployConfig {
            monitor: MonitorConfig {
                retransmit_period: Some(SimTime::from_millis(15)),
                ..Default::default()
            },
            ..config(seed)
        };
        let run = || {
            let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, cfg);
            dep.apply_fault_plan(&plan);
            dep.run();
            detection_fingerprint(&dep.detections())
        };
        prop_assert_eq!(run(), run());
    }
}

/// Recovery hardening: during a long outage the retransmit timer backs
/// off exponentially to its cap instead of hammering the dead route, and
/// each firing re-sends at most a bounded burst.
#[test]
fn retransmit_backoff_caps_traffic_during_outage() {
    let n = 7;
    let (exec, topo, tree) = workload(n, 6, 47);
    let run = |cap: u32| {
        let cfg = DeployConfig {
            monitor: MonitorConfig {
                heartbeat_period: None,
                retransmit_period: Some(SimTime::from_millis(15)),
                retransmit_burst: 2,
                retransmit_backoff_cap: cap,
                ..Default::default()
            },
            ..config(47)
        };
        let mut dep = Deployment::new(topo.clone(), tree.clone(), &exec, cfg);
        // Node 3 is cut off for the whole run: its reports can never be
        // delivered or acknowledged.
        dep.apply_fault_plan(&FaultPlan::new().partition_at(SimTime::ZERO, &[NodeId(3)]));
        dep.run();
        (
            dep.app(ProcessId(3)).retransmit_backoff(),
            dep.metrics().undeliverable,
        )
    };
    let (backoff, undeliverable_capped) = run(8);
    assert_eq!(backoff, 8, "backoff reached and held the cap");
    let (_, undeliverable_flat) = run(1);
    assert!(
        undeliverable_capped < undeliverable_flat,
        "exponential backoff sends less into a dead route than a flat \
         period ({undeliverable_capped} < {undeliverable_flat})"
    );
}
