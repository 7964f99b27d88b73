//! Integration tests: the in-memory hierarchical detector on the paper's
//! Figure 2 scenario and on random executions.

use ftscp_core::faultcheck::verify_detections;
use ftscp_core::HierarchicalDetector;
use ftscp_intervals::IntervalRef;
use ftscp_simnet::{NodeId, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{scenarios, Execution, RandomExecution};

/// The Figure 2 spanning tree: P3 (node 2) roots, children P2 (1) and
/// P4 (3); P1 (0) is P2's child. Topology adds the P2–P4 link used by the
/// Figure 2(c) reconnection.
fn fig2_tree_and_topo() -> (SpanningTree, Topology) {
    let topo = Topology::from_edges(4, &[(0, 1), (1, 2), (2, 3), (1, 3)]);
    let tree = SpanningTree::from_parents(vec![
        Some(NodeId(1)), // P1 under P2
        Some(NodeId(2)), // P2 under P3
        None,            // P3 root
        Some(NodeId(2)), // P4 under P3
    ]);
    assert!(tree.is_subgraph_of(&topo));
    (tree, topo)
}

/// Every root detection is a genuine `Definitely` over the local
/// intervals it covers.
fn assert_valid(exec: &Execution, det: &HierarchicalDetector) {
    let violations = verify_detections(exec, det.root_solutions());
    assert!(violations.is_empty(), "{violations:?}");
}

fn iv_ref(p: u32, seq: u64) -> IntervalRef {
    IntervalRef {
        process: ProcessId(p),
        seq,
    }
}

#[test]
fn figure2_detects_exactly_once_with_the_fresh_aggregate() {
    let (tree, _) = fig2_tree_and_topo();
    let exec = scenarios::figure2();
    let mut det = HierarchicalDetector::new(&tree);
    for iv in exec.intervals_interleaved() {
        det.feed(iv.clone());
    }
    let dets = det.root_solutions();
    assert_eq!(dets.len(), 1, "one global satisfaction");
    // The detection is made of x1, x3, x4, x5 — not the stale x2.
    assert_eq!(
        dets[0].coverage,
        vec![iv_ref(0, 0), iv_ref(1, 1), iv_ref(2, 0), iv_ref(3, 0)]
    );
    assert_eq!(dets[0].at_node, ProcessId(2), "reported at the root P3");
    // P2 found two subtree-level solutions ({x1,x2} then {x1,x3}).
    assert_eq!(det.solutions_at(ProcessId(1)), 2);
    assert_valid(&exec, &det);
}

#[test]
fn figure2_failure_of_p3_preserves_partial_detection() {
    let (tree, topo) = fig2_tree_and_topo();
    let exec = scenarios::figure2();
    let mut det = HierarchicalDetector::new(&tree);

    // Feed everything except x1 (which completes last), so nothing global
    // has been detected yet when P3 dies.
    let all = exec.intervals_interleaved();
    let (x1_feed, rest): (Vec<_>, Vec<_>) =
        all.into_iter().partition(|iv| iv.source == ProcessId(0));
    for iv in rest {
        det.feed(iv.clone());
    }
    assert!(det.root_solutions().is_empty());

    // P3 (node 2, the root) fails; P2 is promoted (larger subtree) and P4
    // re-attaches under it via the P2–P4 topology link.
    det.fail_node(ProcessId(2), &topo);
    assert_eq!(det.tree().root(), NodeId(1), "P2 promoted");
    assert!(det.tree().children(NodeId(1)).contains(&NodeId(3)));

    // Now x1 completes: the partial predicate over {P1, P2, P4} fires.
    for iv in x1_feed {
        det.feed(iv.clone());
    }
    let dets = det.root_solutions();
    assert_eq!(dets.len(), 1, "partial predicate detected after failure");
    assert_eq!(
        dets[0].coverage,
        vec![iv_ref(0, 0), iv_ref(1, 1), iv_ref(3, 0)],
        "the surviving solution is {{x1, x3, x5}}"
    );
    assert_eq!(dets[0].at_node, ProcessId(1), "reported at the new root P2");
    assert_valid(&exec, &det);
}

#[test]
fn clean_rounds_detect_once_per_round_at_every_tree_shape() {
    // Every round of a no-skip/no-solo workload is one global satisfaction.
    for (n, d) in [(7usize, 2usize), (13, 3), (5, 4), (15, 2)] {
        let rounds = 5;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(rounds)
            .seed(42)
            .build();
        let tree = SpanningTree::balanced_dary(n, d);
        let mut det = HierarchicalDetector::new(&tree);
        for iv in exec.intervals_interleaved() {
            det.feed(iv.clone());
        }
        assert_eq!(
            det.root_solutions().len(),
            rounds,
            "n={n} d={d}: one detection per clean round"
        );
        // Every detection covers all n processes.
        for det_rec in det.root_solutions() {
            assert_eq!(det_rec.covered_processes().len(), n);
        }
        assert_valid(&exec, &det);
    }
}

#[test]
fn noisy_workloads_never_emit_invalid_detections() {
    for seed in 0..20 {
        let n = 9;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(8)
            .skip_prob(0.25)
            .solo_prob(0.2)
            .noise_msg_prob(0.5)
            .seed(seed)
            .build();
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut det = HierarchicalDetector::new(&tree);
        for iv in exec.intervals_interleaved() {
            det.feed(iv.clone());
        }
        let violations = verify_detections(&exec, det.root_solutions());
        assert!(violations.is_empty(), "seed {seed}: {violations:?}");
    }
}

#[test]
fn detection_happens_at_every_level() {
    // Interior nodes detect the partial predicate over their subtrees even
    // when the global predicate never holds: make the last round global-
    // breaking by killing one process's participation.
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(3)
        .build();
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);
    // Drop process 6's intervals entirely: the right subtree of the root
    // can never complete, so no global detection...
    for iv in exec.intervals_interleaved() {
        if iv.source != ProcessId(6) {
            det.feed(iv.clone());
        }
    }
    assert!(det.root_solutions().is_empty(), "global predicate blocked");
    // ...but the left subtree (node 1 over {1, 3, 4}) kept detecting.
    assert_eq!(det.solutions_at(ProcessId(1)), 6);
    // And leaves always detect their own intervals.
    assert_eq!(det.solutions_at(ProcessId(3)), 6);
}

#[test]
fn leaf_failure_only_narrows_coverage() {
    let n = 7;
    let rounds = 4;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(8)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);

    // Feed two full rounds, kill leaf 6, feed the rest.
    let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
    let (first, second) = all.split_at(all.len() / 2);
    for iv in first {
        det.feed(iv.clone());
    }
    det.fail_node(ProcessId(6), &topo);
    for iv in second {
        if iv.source != ProcessId(6) {
            det.feed(iv.clone());
        }
    }
    let dets = det.root_solutions();
    assert_eq!(dets.len(), rounds, "every round still detected");
    assert!(dets
        .iter()
        .take(2)
        .all(|d| d.covered_processes().len() == n));
    assert!(
        dets.iter()
            .skip(2)
            .all(|d| d.covered_processes().len() == n - 1),
        "post-failure detections cover the survivors"
    );
    assert_valid(&exec, &det);
}

/// A bare tree (no cross-links): node 1's death strands its children 3 and
/// 4, which have no way back to the root. They become forest roots and
/// keep detecting their own partial predicate (DESIGN.md §2a) instead of
/// reporting to a parent that no longer exists.
#[test]
fn partitioned_orphans_detect_as_forest_roots() {
    let n = 7;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .seed(8)
        .build();
    let topo = Topology::dary_tree(n, 2, 0);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);

    let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
    let (first, second) = all.split_at(all.len() / 2);
    for iv in first {
        det.feed(iv.clone());
    }
    det.fail_node(ProcessId(1), &topo);
    for forest_root in [NodeId(3), NodeId(4)] {
        assert_eq!(
            det.tree().parent(forest_root),
            None,
            "{forest_root} stranded"
        );
    }
    for iv in second {
        if iv.source != ProcessId(1) {
            det.feed(iv.clone());
        }
    }
    for forest_root in [ProcessId(3), ProcessId(4)] {
        assert!(
            det.root_solutions()
                .iter()
                .any(|d| d.at_node == forest_root),
            "{forest_root} detects its own subtree"
        );
    }
    assert_valid(&exec, &det);
}

#[test]
fn crash_recovery_rejoins_and_detection_resumes() {
    let n = 7;
    let rounds = 6;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(29)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);

    let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
    let third = all.len() / 3;

    // Phase 1: two rounds; then node 5 checkpoints and crashes.
    for iv in &all[..third] {
        det.feed(iv.clone());
    }
    // In a real deployment the node persists this itself; here we take it
    // just before the crash.
    let checkpoint = det.checkpoint_node(ProcessId(5)).expect("node alive");
    det.fail_node(ProcessId(5), &topo);

    // Phase 2: detection continues without node 5 (coverage n-1).
    for iv in &all[third..2 * third] {
        if iv.source != ProcessId(5) {
            det.feed(iv.clone());
        }
    }
    let mid_detections = det.root_solutions().len();
    assert!(mid_detections > 0);

    // Phase 3: node 5 reboots from its checkpoint and rejoins; rounds in
    // which it participates cover all n processes again.
    det.rejoin_node(ProcessId(5), checkpoint, &topo).unwrap();
    assert!(det.tree().contains(NodeId(5)));
    for iv in &all[2 * third..] {
        det.feed(iv.clone());
    }
    let final_detections = det.root_solutions();
    assert!(final_detections.len() > mid_detections, "detection resumed");
    assert_eq!(
        final_detections.last().unwrap().covered_processes().len(),
        n,
        "full coverage restored after recovery"
    );
    assert_valid(&exec, &det);
}

#[test]
fn rejoin_rejects_bad_requests() {
    let n = 7;
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);
    let cp5 = det.checkpoint_node(ProcessId(5)).unwrap();
    // Alive node cannot rejoin.
    assert!(det.rejoin_node(ProcessId(5), cp5.clone(), &topo).is_err());
    det.fail_node(ProcessId(5), &topo);
    // Wrong checkpoint owner rejected.
    let cp3 = det.checkpoint_node(ProcessId(3)).unwrap();
    assert!(det.rejoin_node(ProcessId(5), cp3, &topo).is_err());
    // Correct checkpoint accepted.
    assert!(det.rejoin_node(ProcessId(5), cp5, &topo).is_ok());
    // Dead-node checkpoint requests error.
    det.fail_node(ProcessId(6), &topo);
    assert!(det.checkpoint_node(ProcessId(6)).is_none());
}

#[test]
fn cascading_failures_down_to_two_nodes() {
    let n = 15;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(10)
        .seed(17)
        .build();
    let topo = Topology::dary_tree(n, 2, 1);
    let tree = SpanningTree::balanced_dary(n, 2);
    let mut det = HierarchicalDetector::new(&tree);

    let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
    let mut alive: Vec<bool> = vec![true; n];
    let victims = [3u32, 1, 9, 0, 12, 5, 7, 11, 2, 13, 4, 8, 6];
    let chunk = all.len() / (victims.len() + 1) + 1;
    for (round, part) in all.chunks(chunk).enumerate() {
        for iv in part {
            if alive[iv.source.index()] {
                det.feed(iv.clone());
            }
        }
        if round < victims.len() {
            let v = victims[round];
            alive[v as usize] = false;
            det.fail_node(ProcessId(v), &topo);
        }
    }
    // No invalid detections through 13 failures.
    assert_valid(&exec, &det);
    // The final tree holds the two survivors.
    assert_eq!(det.tree().node_count(), 2);
}
