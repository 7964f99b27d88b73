//! The [`SpanningTree`] structure and constructors.

use ftscp_simnet::{NodeId, Topology};
use std::collections::VecDeque;

/// A rooted spanning tree over (a subset of) the network's nodes.
///
/// Nodes that have failed or are partitioned away are simply *not in* the
/// tree ([`SpanningTree::contains`] is false); the remaining structure is
/// always a forest rooted at [`SpanningTree::root`] — a single tree as long
/// as no partition has occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanningTree {
    root: NodeId,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    in_tree: Vec<bool>,
}

impl SpanningTree {
    /// Builds a BFS spanning tree of `topology` rooted at `root`, covering
    /// every node reachable from it. Children are visited in neighbor-list
    /// order, so construction is deterministic.
    pub fn bfs(topology: &Topology, root: NodeId) -> SpanningTree {
        let n = topology.len();
        let mut tree = SpanningTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            in_tree: vec![false; n],
        };
        let mut q = VecDeque::from([root]);
        tree.in_tree[root.index()] = true;
        while let Some(u) = q.pop_front() {
            for &v in topology.neighbors(u) {
                if !tree.in_tree[v.index()] {
                    tree.in_tree[v.index()] = true;
                    tree.parent[v.index()] = Some(u);
                    tree.children[u.index()].push(v);
                    q.push_back(v);
                }
            }
        }
        tree
    }

    /// BFS spanning tree with a **degree bound**: no node adopts more than
    /// `max_children` children. Useful on hub-heavy topologies (scale-free
    /// graphs), where plain BFS hangs dozens of children off one hub and
    /// wrecks the paper's `d` parameter. Overflow neighbors are adopted by
    /// already-placed tree nodes discovered later (deeper tree, bounded
    /// degree). Falls back to exceeding the bound only when a node would
    /// otherwise be unreachable.
    pub fn bfs_bounded(topology: &Topology, root: NodeId, max_children: usize) -> SpanningTree {
        assert!(max_children >= 1);
        let n = topology.len();
        let mut tree = SpanningTree {
            root,
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            in_tree: vec![false; n],
        };
        let adopt = |tree: &mut SpanningTree, v: NodeId, a: NodeId| {
            tree.in_tree[v.index()] = true;
            tree.parent[v.index()] = Some(a);
            tree.children[a.index()].push(v);
        };
        let mut frontier = VecDeque::from([root]);
        tree.in_tree[root.index()] = true;
        let mut deferred: Vec<NodeId> = Vec::new();
        while let Some(u) = frontier.pop_front() {
            for &v in topology.neighbors(u) {
                if tree.in_tree[v.index()] {
                    continue;
                }
                if tree.children[u.index()].len() < max_children {
                    adopt(&mut tree, v, u);
                    frontier.push_back(v);
                } else {
                    deferred.push(v);
                }
            }
        }
        // Adoption rounds for deferred nodes: any in-tree neighbor with
        // spare capacity; repeat until stable (capacity appears as the
        // tree deepens).
        loop {
            let mut progressed = false;
            let mut still = Vec::new();
            for v in deferred {
                if tree.in_tree[v.index()] {
                    continue;
                }
                let slot = topology.neighbors(v).iter().copied().find(|w| {
                    tree.in_tree[w.index()] && tree.children[w.index()].len() < max_children
                });
                if let Some(a) = slot {
                    adopt(&mut tree, v, a);
                    progressed = true;
                    // Its own neighbors may now be adoptable under it.
                    for &nb in topology.neighbors(v) {
                        if !tree.in_tree[nb.index()] {
                            still.push(nb);
                        }
                    }
                } else {
                    still.push(v);
                }
            }
            still.sort_unstable();
            still.dedup();
            still.retain(|v| !tree.in_tree[v.index()]);
            deferred = still;
            if deferred.is_empty() {
                break;
            }
            if !progressed {
                // Bound genuinely unachievable for these (e.g. a leaf whose
                // only neighbor is a saturated cut vertex): exceed it for
                // one node and keep going — its subtree may open capacity.
                let mut attached_any = false;
                let mut still = Vec::new();
                for v in std::mem::take(&mut deferred) {
                    if tree.in_tree[v.index()] {
                        continue;
                    }
                    if !attached_any {
                        if let Some(a) = topology
                            .neighbors(v)
                            .iter()
                            .copied()
                            .find(|w| tree.in_tree[w.index()])
                        {
                            adopt(&mut tree, v, a);
                            attached_any = true;
                            for &nb in topology.neighbors(v) {
                                if !tree.in_tree[nb.index()] {
                                    still.push(nb);
                                }
                            }
                            continue;
                        }
                    }
                    still.push(v);
                }
                still.sort_unstable();
                still.dedup();
                still.retain(|v| !tree.in_tree[v.index()]);
                deferred = still;
                if !attached_any {
                    break; // remaining nodes are unreachable
                }
            }
        }
        tree
    }

    /// The idealized complete `d`-ary tree on `n` nodes used throughout the
    /// paper's complexity analysis (`n = d^h`): node 0 is the root, node
    /// `i`'s children are `i·d+1 ..= i·d+d`.
    pub fn balanced_dary(n: usize, d: usize) -> SpanningTree {
        assert!(d >= 1, "degree must be positive");
        assert!(n >= 1, "tree must be non-empty");
        let mut tree = SpanningTree {
            root: NodeId(0),
            parent: vec![None; n],
            children: vec![Vec::new(); n],
            in_tree: vec![true; n],
        };
        for i in 1..n {
            let p = (i - 1) / d;
            tree.parent[i] = Some(NodeId(p as u32));
            tree.children[p].push(NodeId(i as u32));
        }
        tree
    }

    /// Builds from explicit parent pointers (root has `None`).
    ///
    /// # Panics
    ///
    /// Panics if there is not exactly one root or the structure is cyclic.
    pub fn from_parents(parents: Vec<Option<NodeId>>) -> SpanningTree {
        let n = parents.len();
        let roots: Vec<usize> = parents
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_none())
            .map(|(i, _)| i)
            .collect();
        assert_eq!(roots.len(), 1, "exactly one root required");
        let root = NodeId(roots[0] as u32);
        let mut children = vec![Vec::new(); n];
        for (i, p) in parents.iter().enumerate() {
            if let Some(p) = p {
                children[p.index()].push(NodeId(i as u32));
            }
        }
        let tree = SpanningTree {
            root,
            parent: parents,
            children,
            in_tree: vec![true; n],
        };
        // Cycle check: every node must reach the root.
        for i in 0..n {
            let mut cur = NodeId(i as u32);
            let mut steps = 0;
            while let Some(p) = tree.parent[cur.index()] {
                cur = p;
                steps += 1;
                assert!(steps <= n, "cycle detected in parent pointers");
            }
            assert_eq!(cur, root, "node {i} does not reach the root");
        }
        tree
    }

    /// Rebuilds a tree view from decentralized membership state: each
    /// live member's claimed parent pointer, plus the current root. Only
    /// nodes whose parent chain reaches `root` through live members are
    /// included — dead nodes, and subtrees orphaned mid-adoption whose
    /// parent pointer still names a dead node, are simply *not in* the
    /// view (consistent with how failures are represented everywhere
    /// else in this structure).
    pub fn from_membership(
        members: &[(NodeId, Option<NodeId>)],
        capacity: usize,
        root: NodeId,
    ) -> SpanningTree {
        let mut member = vec![false; capacity];
        for &(n, _) in members {
            member[n.index()] = true;
        }
        let mut children = vec![Vec::new(); capacity];
        for &(n, p) in members {
            if let Some(p) = p {
                if member[p.index()] {
                    children[p.index()].push(n);
                }
            }
        }
        for c in &mut children {
            c.sort_unstable();
        }
        // Keep only what the root actually reaches: a cycle among stale
        // claims, or an orphan hanging off a dead parent, stays out.
        let mut tree = SpanningTree {
            root,
            parent: vec![None; capacity],
            children: vec![Vec::new(); capacity],
            in_tree: vec![false; capacity],
        };
        let mut q = VecDeque::from([root]);
        tree.in_tree[root.index()] = true;
        while let Some(u) = q.pop_front() {
            for &v in &children[u.index()] {
                if !tree.in_tree[v.index()] {
                    tree.in_tree[v.index()] = true;
                    tree.parent[v.index()] = Some(u);
                    tree.children[u.index()].push(v);
                    q.push_back(v);
                }
            }
        }
        tree
    }

    /// The tree's root.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Capacity (network size `n`), counting removed nodes.
    pub fn capacity(&self) -> usize {
        self.parent.len()
    }

    /// Number of nodes currently in the tree.
    pub fn node_count(&self) -> usize {
        self.in_tree.iter().filter(|&&b| b).count()
    }

    /// True iff `node` is currently part of the tree.
    pub fn contains(&self, node: NodeId) -> bool {
        self.in_tree[node.index()]
    }

    /// Parent of `node` (`None` for the root or detached nodes).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node.index()]
    }

    /// Children of `node`.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node.index()]
    }

    /// True iff `node` is in the tree and has no children.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.contains(node) && self.children[node.index()].is_empty()
    }

    /// Hop distance from the root (root = 0).
    pub fn depth(&self, node: NodeId) -> usize {
        let mut d = 0;
        let mut cur = node;
        while let Some(p) = self.parent[cur.index()] {
            cur = p;
            d += 1;
        }
        d
    }

    /// Number of levels (`h` in the paper: a root-only tree has height 1,
    /// leaves are level 1, the root is level `h`). One `O(n)` pass down
    /// from every parentless node, where [`depth`](Self::depth) per node
    /// would walk each parent chain once per node below it.
    pub fn height(&self) -> usize {
        let mut depth = vec![0; self.parent.len()];
        let mut stack: Vec<usize> = (0..self.parent.len())
            .filter(|&i| self.parent[i].is_none())
            .collect();
        while let Some(u) = stack.pop() {
            for c in &self.children[u] {
                depth[c.index()] = depth[u] + 1;
                stack.push(c.index());
            }
        }
        (0..self.parent.len())
            .filter(|&i| self.in_tree[i])
            .map(|i| depth[i] + 1)
            .max()
            .unwrap_or(0)
    }

    /// Level of a node in the paper's numbering: leaves-deepest = 1, root =
    /// height. Computed as `height - depth`, in `O(n)`.
    pub fn level(&self, node: NodeId) -> usize {
        self.height() - self.depth(node)
    }

    /// Maximum number of children of any in-tree node (`d` in the paper).
    pub fn max_degree(&self) -> usize {
        self.children
            .iter()
            .enumerate()
            .filter(|(i, _)| self.in_tree[*i])
            .map(|(_, c)| c.len())
            .max()
            .unwrap_or(0)
    }

    /// The nodes of the subtree rooted at `node` (preorder).
    pub fn subtree(&self, node: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        if !self.contains(node) {
            return out;
        }
        let mut stack = vec![node];
        while let Some(u) = stack.pop() {
            out.push(u);
            for &c in self.children(u).iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// All in-tree nodes.
    pub fn nodes(&self) -> Vec<NodeId> {
        (0..self.parent.len())
            .filter(|&i| self.in_tree[i])
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// Validates that every tree edge is also a topology edge — required
    /// for parent/child messages to be single-hop.
    pub fn is_subgraph_of(&self, topology: &Topology) -> bool {
        (0..self.parent.len()).all(|i| match self.parent[i] {
            Some(p) => topology.neighbors(NodeId(i as u32)).contains(&p),
            None => true,
        })
    }

    /// Re-admits a previously removed node as a **leaf** child of
    /// `parent` — the crash-recovery path: a rebooted node rejoins the
    /// tree at the edge (its former children have long been re-parented).
    ///
    /// # Panics
    ///
    /// Panics if `node` is still in the tree or `parent` is not.
    pub fn rejoin_leaf(&mut self, node: NodeId, parent: NodeId) {
        assert!(!self.contains(node), "{node} is still in the tree");
        assert!(self.contains(parent), "{parent} is not in the tree");
        self.in_tree[node.index()] = true;
        self.parent[node.index()] = Some(parent);
        self.children[node.index()].clear();
        self.children[parent.index()].push(node);
    }

    /// Removes `node` from the tree: its parent drops it, and each of its
    /// children becomes the parentless root of its own subtree until a
    /// repair re-attaches it ([`attach`](Self::attach)).
    pub fn detach_node(&mut self, node: NodeId) {
        if let Some(p) = self.parent[node.index()].take() {
            self.children[p.index()].retain(|&c| c != node);
        }
        let kids = std::mem::take(&mut self.children[node.index()]);
        for c in kids {
            self.parent[c.index()] = None;
        }
        self.in_tree[node.index()] = false;
    }

    /// Hangs the parentless `child`, with its subtree, under `parent`. The
    /// edge need not be a topology edge: a repaired tree's parent may be
    /// several hops away.
    pub fn attach(&mut self, child: NodeId, parent: NodeId) {
        debug_assert!(self.parent[child.index()].is_none());
        self.parent[child.index()] = Some(parent);
        self.children[parent.index()].push(child);
    }

    /// Names `root`, a parentless node of the tree, its root.
    pub fn set_root(&mut self, root: NodeId) {
        debug_assert!(self.in_tree[root.index()]);
        self.root = root;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bfs_tree_covers_connected_topology() {
        let topo = Topology::grid(3, 3);
        let tree = SpanningTree::bfs(&topo, NodeId(4)); // center
        assert_eq!(tree.node_count(), 9);
        assert_eq!(tree.root(), NodeId(4));
        assert!(tree.is_subgraph_of(&topo));
        assert_eq!(tree.depth(NodeId(4)), 0);
        assert_eq!(tree.height(), 3, "center-rooted 3x3 grid has 3 levels");
    }

    #[test]
    fn bfs_tree_skips_unreachable_nodes() {
        let topo = Topology::from_edges(4, &[(0, 1)]); // 2, 3 isolated
        let tree = SpanningTree::bfs(&topo, NodeId(0));
        assert!(tree.contains(NodeId(1)));
        assert!(!tree.contains(NodeId(2)));
        assert_eq!(tree.node_count(), 2);
    }

    #[test]
    fn bounded_bfs_respects_degree_on_hub_graphs() {
        // Seed picked so the hub structure exercises the bound without
        // forcing the last-resort slack past it.
        let topo = Topology::scale_free(60, 2, 9);
        let plain = SpanningTree::bfs(&topo, NodeId(0));
        let bounded = SpanningTree::bfs_bounded(&topo, NodeId(0), 3);
        assert_eq!(bounded.node_count(), 60, "full coverage");
        assert!(bounded.is_subgraph_of(&topo));
        assert!(
            bounded.max_degree() <= plain.max_degree(),
            "bounded ({}) ≤ plain ({})",
            bounded.max_degree(),
            plain.max_degree()
        );
        assert!(
            bounded.max_degree() <= 4,
            "close to the bound (small slack for last-resort)"
        );
        // Deeper as the price of bounded degree.
        assert!(bounded.height() >= plain.height());
    }

    #[test]
    fn bounded_bfs_on_line_equals_plain() {
        let topo = Topology::line(6);
        let a = SpanningTree::bfs(&topo, NodeId(0));
        let b = SpanningTree::bfs_bounded(&topo, NodeId(0), 2);
        assert_eq!(a.height(), b.height());
        assert_eq!(b.node_count(), 6);
    }

    #[test]
    fn balanced_dary_shape() {
        let tree = SpanningTree::balanced_dary(7, 2);
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(tree.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert_eq!(tree.parent(NodeId(6)), Some(NodeId(2)));
        assert_eq!(tree.height(), 3);
        assert_eq!(tree.max_degree(), 2);
        assert!(tree.is_leaf(NodeId(3)));
        assert!(!tree.is_leaf(NodeId(1)));
    }

    #[test]
    fn levels_follow_paper_numbering() {
        let tree = SpanningTree::balanced_dary(7, 2);
        assert_eq!(tree.level(NodeId(0)), 3, "root is level h");
        assert_eq!(tree.level(NodeId(1)), 2);
        assert_eq!(tree.level(NodeId(3)), 1, "leaves are level 1");
    }

    #[test]
    fn subtree_preorder() {
        let tree = SpanningTree::balanced_dary(7, 2);
        assert_eq!(
            tree.subtree(NodeId(1)),
            vec![NodeId(1), NodeId(3), NodeId(4)]
        );
        assert_eq!(tree.subtree(NodeId(0)).len(), 7);
    }

    #[test]
    fn from_parents_round_trips() {
        let tree = SpanningTree::balanced_dary(5, 2);
        let parents: Vec<Option<NodeId>> = (0..5).map(|i| tree.parent(NodeId(i))).collect();
        let rebuilt = SpanningTree::from_parents(parents);
        assert_eq!(rebuilt.root(), tree.root());
        for i in 0..5u32 {
            assert_eq!(rebuilt.children(NodeId(i)), tree.children(NodeId(i)));
        }
    }

    #[test]
    #[should_panic(expected = "exactly one root")]
    fn from_parents_rejects_two_roots() {
        let _ = SpanningTree::from_parents(vec![None, None]);
    }

    #[test]
    fn from_membership_excludes_dead_and_orphaned() {
        // 0 ← 1 ← 3, 0 ← 2(dead), 2 ← 4: node 4's parent claim names a
        // dead node, so 4 is orphaned out of the view along with 2.
        let members = vec![
            (NodeId(0), None),
            (NodeId(1), Some(NodeId(0))),
            (NodeId(3), Some(NodeId(1))),
            (NodeId(4), Some(NodeId(2))),
        ];
        let tree = SpanningTree::from_membership(&members, 5, NodeId(0));
        assert_eq!(tree.root(), NodeId(0));
        assert_eq!(tree.node_count(), 3);
        assert!(tree.contains(NodeId(3)));
        assert!(!tree.contains(NodeId(2)), "dead node out");
        assert!(!tree.contains(NodeId(4)), "orphan out until adopted");
        assert_eq!(tree.children(NodeId(0)), &[NodeId(1)]);
        assert_eq!(tree.parent(NodeId(3)), Some(NodeId(1)));
    }

    #[test]
    fn height_is_the_longest_parent_chain() {
        let longest = |tree: &SpanningTree| {
            tree.nodes()
                .into_iter()
                .map(|v| tree.depth(v) + 1)
                .max()
                .unwrap_or(0)
        };
        let mut trees: Vec<SpanningTree> = [(1, 2), (7, 2), (100, 3), (1024, 4), (30, 1)]
            .into_iter()
            .map(|(n, d)| SpanningTree::balanced_dary(n, d))
            .collect();
        for seed in [1, 7] {
            for topo in [
                Topology::random_geometric(200, 0.12, seed),
                Topology::scale_free(300, 2, seed),
            ] {
                trees.push(SpanningTree::bfs(&topo, NodeId(seed as u32)));
            }
        }
        // A forest: detaching an inner node leaves parentless subtrees;
        // then one of them re-attached elsewhere, as a repair does.
        let mut forest = SpanningTree::balanced_dary(40, 2);
        forest.detach_node(NodeId(1));
        trees.push(forest.clone());
        forest.attach(NodeId(3), NodeId(30));
        trees.push(forest);
        for tree in &trees {
            assert_eq!(tree.height(), longest(tree));
        }
    }

    #[test]
    fn detach_node_removes_from_everything() {
        let mut tree = SpanningTree::balanced_dary(7, 2);
        tree.detach_node(NodeId(2));
        assert!(!tree.contains(NodeId(2)));
        assert!(!tree.children(NodeId(0)).contains(&NodeId(2)));
        assert_eq!(tree.node_count(), 6);
    }
}
