//! Property tests: the in-memory detector's §III-F repair keeps the tree
//! well formed under arbitrary kill orders on arbitrary topologies, and
//! loses no survivor a single crash leaves connected to the main root.

use ftscp_core::HierarchicalDetector;
use ftscp_simnet::{NodeId, Topology};
use ftscp_tree::SpanningTree;
use proptest::prelude::*;

/// Structural invariants after every repair: exactly the live nodes are
/// in the tree, parent chains are acyclic and end at a parentless node,
/// children lists agree with parent pointers, and the root is live. A
/// tree edge need not be a topology edge: an orphan's adopter may be
/// several hops away.
fn check_invariants(tree: &SpanningTree, alive: &[bool]) {
    let n = tree.capacity();
    for node in (0..n as u32).map(NodeId) {
        assert_eq!(
            tree.contains(node),
            alive[node.index()],
            "{node} membership"
        );
        if !tree.contains(node) {
            assert!(
                tree.parent(node).is_none(),
                "{node} detached but has parent"
            );
            continue;
        }
        let mut cur = node;
        let mut steps = 0;
        while let Some(p) = tree.parent(cur) {
            assert!(tree.contains(p), "{cur} has detached parent {p}");
            assert!(
                tree.children(p).contains(&cur),
                "{p} does not list child {cur}"
            );
            cur = p;
            steps += 1;
            assert!(steps <= n, "cycle through {node}");
        }
        for &c in tree.children(node) {
            assert_eq!(tree.parent(c), Some(node), "child {c} disagrees");
        }
    }
    if tree.node_count() > 0 {
        assert!(tree.contains(tree.root()), "root {} is dead", tree.root());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random geometric topologies, BFS trees, random kill orders.
    #[test]
    fn repair_preserves_invariants(
        seed in 0u64..500,
        kills in proptest::collection::vec(0usize..20, 1..12),
    ) {
        let n = 20;
        let topo = Topology::random_geometric(n, 0.3, seed);
        let tree = SpanningTree::bfs(&topo, NodeId(0));
        let mut det = HierarchicalDetector::new(&tree);
        let mut alive = vec![true; n];
        for (round, k) in kills.into_iter().enumerate() {
            if !alive[k] {
                continue;
            }
            alive[k] = false;
            det.fail_node(NodeId(k as u32), &topo);
            check_invariants(det.tree(), &alive);
            let repaired = det.tree().clone();
            det.fail_node(NodeId(k as u32), &topo);
            prop_assert_eq!(det.tree(), &repaired, "a second report of {} changed the tree", k);
            if round > 0 {
                continue;
            }
            // Completeness of a single crash: every survivor the live
            // topology connects to the main root is in its tree.
            let root = det.tree().root();
            let members = det.tree().subtree(root);
            for v in (0..n as u32).map(NodeId) {
                if topo.shortest_path(v, root, &alive).is_some() {
                    prop_assert!(members.contains(&v), "seed {}: {} stranded", seed, v);
                }
            }
        }
    }

    /// A 4×4 grid has no cut vertex: whichever node dies, the 15
    /// survivors stay in one tree.
    #[test]
    fn grid_single_failure_never_partitions(victim in 0u32..16) {
        let topo = Topology::grid(4, 4);
        let mut det = HierarchicalDetector::new(&SpanningTree::bfs(&topo, NodeId(0)));
        det.fail_node(NodeId(victim), &topo);
        let mut alive = vec![true; 16];
        alive[victim as usize] = false;
        check_invariants(det.tree(), &alive);
        prop_assert_eq!(det.tree().subtree(det.tree().root()).len(), 15);
    }
}
