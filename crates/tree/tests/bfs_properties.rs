//! Property tests: BFS construction builds well-formed spanning trees of
//! arbitrary connected topologies.

use ftscp_simnet::{NodeId, Topology};
use ftscp_tree::SpanningTree;
use proptest::prelude::*;

/// Acyclic parent chains, children lists consistent with parent
/// pointers, tree edges ⊆ topology edges.
fn check_invariants(tree: &SpanningTree, topo: &Topology) {
    let n = tree.capacity();
    for i in 0..n {
        let node = NodeId(i as u32);
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
                topo.neighbors(cur).contains(&p),
                "tree edge {cur}–{p} not in topology"
            );
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Degree-bounded BFS covers every node of connected topologies and
    /// keeps the bound except for forced cut vertices.
    #[test]
    fn bounded_bfs_full_coverage(seed in 0u64..200, bound in 2usize..5) {
        let n = 25;
        let topo = Topology::random_geometric(n, 0.28, seed);
        let tree = SpanningTree::bfs_bounded(&topo, NodeId(0), bound);
        prop_assert_eq!(tree.node_count(), n, "all nodes adopted");
        check_invariants(&tree, &topo);
        // The bound holds for the overwhelming majority of nodes.
        let violators = tree
            .nodes()
            .into_iter()
            .filter(|&x| tree.children(x).len() > bound)
            .count();
        prop_assert!(violators <= n / 5, "violators: {violators}");
    }

    /// BFS trees over random connected topologies are valid and complete.
    #[test]
    fn bfs_tree_well_formed(seed in 0u64..500) {
        let n = 25;
        let topo = Topology::random_geometric(n, 0.28, seed);
        let tree = SpanningTree::bfs(&topo, NodeId(3));
        prop_assert_eq!(tree.node_count(), n, "connected topology fully covered");
        check_invariants(&tree, &topo);
        prop_assert!(tree.height() >= 1);
        prop_assert!(tree.max_degree() >= 1);
    }
}
