//! Failure-time tree repair (§III-F of the paper).

use crate::spanning::SpanningTree;
use ftscp_simnet::{NodeId, Topology};
use std::collections::BTreeSet;

/// Outcome of [`SpanningTree::handle_failure`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReconnectReport {
    /// The node that failed.
    pub failed: Option<NodeId>,
    /// The failed node's (former) parent, which dropped a child queue.
    pub former_parent: Option<NodeId>,
    /// `(new_subtree_root, adopting_parent)` for every reattached orphan
    /// subtree. The subtree may have been re-rooted, so `new_subtree_root`
    /// is not necessarily a former child of the failed node.
    pub reattached: Vec<(NodeId, NodeId)>,
    /// Roots of orphan subtrees that could not reach the main tree
    /// (network partition). They keep operating as independent trees.
    pub partitioned: Vec<NodeId>,
    /// Set when the *root* failed: the promoted replacement root.
    pub new_root: Option<NodeId>,
    /// Every node whose parent or child set changed — the monitor layer
    /// rebuilds these nodes' queue wiring.
    pub affected: Vec<NodeId>,
}

impl SpanningTree {
    /// Repairs the tree after `failed` crash-stops, following §III-F:
    ///
    /// 1. `failed`'s parent removes it (dropping the corresponding queue —
    ///    the caller's responsibility, guided by the report);
    /// 2. each subtree rooted at a child of `failed` re-attaches by finding
    ///    a node `u` inside it with an alive topology neighbor `v` in the
    ///    connected main tree; the subtree is re-rooted at `u` and `u`
    ///    becomes a child of `v`. Orphans may also chain onto orphans that
    ///    have already reattached.
    /// 3. subtrees with no such link are reported as `partitioned`.
    ///
    /// `alive[i]` must already be `false` for `failed`.
    pub fn handle_failure(
        &mut self,
        failed: NodeId,
        topology: &Topology,
        alive: &[bool],
    ) -> ReconnectReport {
        assert!(!alive[failed.index()], "handle_failure on a live node");
        let mut report = ReconnectReport {
            failed: Some(failed),
            ..Default::default()
        };
        if !self.contains(failed) {
            return report;
        }

        let former_parent = self.parent(failed);
        let mut orphan_roots: Vec<NodeId> = self.children(failed).to_vec();
        let root_failed = failed == self.root();
        self.detach_node(failed);

        let mut affected = BTreeSet::new();
        if let Some(p) = former_parent {
            report.former_parent = Some(p);
            affected.insert(p);
        }

        // If the root itself failed, promote its largest orphan subtree:
        // that subtree becomes the main tree and the others re-attach to it.
        if root_failed {
            if orphan_roots.is_empty() {
                // The root died childless. If earlier partitions left
                // independent forests alive, promote the largest forest
                // root so the tree keeps a live root; otherwise the tree
                // is empty.
                let forest_roots: Vec<NodeId> = (0..self.capacity() as u32)
                    .map(NodeId)
                    .filter(|&x| self.contains(x) && self.parent(x).is_none())
                    .collect();
                if let Some(&promoted) = forest_roots.iter().max_by_key(|&&r| self.subtree(r).len())
                {
                    self.set_root(promoted);
                    report.new_root = Some(promoted);
                    affected.insert(promoted);
                }
                report.affected = affected.into_iter().collect();
                return report;
            }
            let promoted = *orphan_roots
                .iter()
                .max_by_key(|&&r| self.subtree(r).len())
                .expect("non-empty");
            orphan_roots.retain(|&r| r != promoted);
            self.set_root(promoted);
            report.new_root = Some(promoted);
            affected.insert(promoted);
        }

        // Membership of the connected main tree (rooted at self.root).
        let mut connected: BTreeSet<NodeId> = if alive[self.root().index()] {
            self.subtree(self.root()).into_iter().collect()
        } else {
            BTreeSet::new()
        };

        // Orphans waiting to re-attach. Iterate until no orphan can attach.
        // The dead node's former parent is the preferred adopter: when the
        // topology allows it (grandparent cross-links), the grandparent
        // takes over the crashed child's subtrees directly, so the interval
        // stream keeps flowing through the node that already aggregated the
        // dead child's queue — the parent-takeover of §III-F.
        let pending = self.attach_orphan_loop(
            orphan_roots,
            topology,
            alive,
            former_parent,
            &mut connected,
            &mut affected,
            &mut report,
        );
        // Partitioned roots' parents changed (to none): they operate as
        // independent forest roots until a later repair can re-attach them.
        for &orphan in &pending {
            affected.insert(orphan);
        }
        report.partitioned = pending;
        report.affected = affected.into_iter().collect();
        report
    }

    /// Retries attaching previously partitioned orphan subtree roots into
    /// the main tree (used when a later repair restores connectivity that
    /// an earlier, overlapping failure had broken). Returns a report with
    /// `reattached`, remaining `partitioned`, and `affected` nodes.
    pub fn reattach_orphans(
        &mut self,
        orphans: &[NodeId],
        topology: &Topology,
        alive: &[bool],
    ) -> ReconnectReport {
        let mut report = ReconnectReport::default();
        let mut affected = BTreeSet::new();
        let live_orphans: Vec<NodeId> = orphans
            .iter()
            .copied()
            .filter(|&o| {
                self.contains(o) && alive[o.index()] && self.parent(o).is_none() && o != self.root()
            })
            .collect();
        let mut connected: BTreeSet<NodeId> = if self.node_count() > 0 && alive[self.root().index()]
        {
            self.subtree(self.root()).into_iter().collect()
        } else {
            BTreeSet::new()
        };
        let pending = self.attach_orphan_loop(
            live_orphans,
            topology,
            alive,
            None,
            &mut connected,
            &mut affected,
            &mut report,
        );
        report.partitioned = pending;
        report.affected = affected.into_iter().collect();
        report
    }

    #[allow(clippy::too_many_arguments)] // internal worker threading three accumulators
    fn attach_orphan_loop(
        &mut self,
        orphan_roots: Vec<NodeId>,
        topology: &Topology,
        alive: &[bool],
        preferred: Option<NodeId>,
        connected: &mut BTreeSet<NodeId>,
        affected: &mut BTreeSet<NodeId>,
        report: &mut ReconnectReport,
    ) -> Vec<NodeId> {
        let mut pending: Vec<NodeId> = orphan_roots;
        loop {
            let mut attached_this_round = false;
            let mut still_pending = Vec::new();
            for orphan_root in pending {
                match self.find_attach_point(orphan_root, topology, alive, connected, preferred) {
                    Some((u, v)) => {
                        // Re-root the orphan subtree at u, then hang it off v.
                        let members = self.subtree(orphan_root);
                        self.reroot_subtree(u);
                        self.attach(u, v);
                        for m in &members {
                            connected.insert(*m);
                        }
                        // Every node on the reversed path changed its
                        // parent/children, plus the adopter v.
                        affected.insert(v);
                        for m in members {
                            affected.insert(m);
                        }
                        report.reattached.push((u, v));
                        attached_this_round = true;
                    }
                    None => still_pending.push(orphan_root),
                }
            }
            pending = still_pending;
            if pending.is_empty() || !attached_this_round {
                break;
            }
        }
        pending
    }

    /// Finds `(u, v)`: `u` inside the subtree rooted at `orphan_root`, `v`
    /// an alive topology neighbor of `u` inside `connected`. When
    /// `preferred` (the failed node's former parent) is adoptable, it wins
    /// over any other candidate — grandparent adoption keeps the orphan's
    /// interval stream flowing through the aggregator that already held
    /// its dead parent's queue. Otherwise prefers the shallowest `u`
    /// (fewest re-rooted edges).
    fn find_attach_point(
        &self,
        orphan_root: NodeId,
        topology: &Topology,
        alive: &[bool],
        connected: &BTreeSet<NodeId>,
        preferred: Option<NodeId>,
    ) -> Option<(NodeId, NodeId)> {
        if let Some(pref) = preferred {
            if alive[pref.index()] && connected.contains(&pref) {
                for u in self.subtree(orphan_root) {
                    if topology.neighbors(u).contains(&pref) {
                        return Some((u, pref));
                    }
                }
            }
        }
        for u in self.subtree(orphan_root) {
            for &v in topology.neighbors(u) {
                if alive[v.index()] && connected.contains(&v) {
                    return Some((u, v));
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Binary tree over 7 nodes with grandparent cross-links so orphans can
    /// always escape one failure. The spanning tree is the balanced binary
    /// tree, which is a subgraph of the cross-linked topology.
    fn setup() -> (Topology, SpanningTree) {
        let topo = Topology::dary_tree(7, 2, 1);
        let tree = SpanningTree::balanced_dary(7, 2);
        assert!(tree.is_subgraph_of(&topo));
        (topo, tree)
    }

    #[test]
    fn leaf_failure_only_affects_parent() {
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        let leaf = tree.nodes().into_iter().find(|&n| tree.is_leaf(n)).unwrap();
        let parent = tree.parent(leaf).unwrap();
        alive[leaf.index()] = false;
        let report = tree.handle_failure(leaf, &topo, &alive);
        assert_eq!(report.failed, Some(leaf));
        assert_eq!(report.former_parent, Some(parent));
        assert!(report.reattached.is_empty());
        assert!(report.partitioned.is_empty());
        assert_eq!(report.affected, vec![parent]);
        assert!(!tree.contains(leaf));
        assert_eq!(tree.node_count(), 6);
    }

    #[test]
    fn internal_failure_reattaches_orphans() {
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        // Fail an internal (non-root) node with children.
        let internal = tree
            .nodes()
            .into_iter()
            .find(|&x| x != tree.root() && !tree.is_leaf(x))
            .unwrap();
        let orphan_count = tree.children(internal).len();
        alive[internal.index()] = false;
        let report = tree.handle_failure(internal, &topo, &alive);
        assert_eq!(report.reattached.len(), orphan_count);
        assert!(report.partitioned.is_empty());
        assert_eq!(tree.node_count(), 6);
        // All survivors still reach the root.
        for node in tree.nodes() {
            let mut cur = node;
            while let Some(p) = tree.parent(cur) {
                cur = p;
            }
            assert_eq!(cur, tree.root(), "{node} must reach the root");
        }
        // Tree edges remain topology edges (single-hop parent links).
        assert!(tree.is_subgraph_of(&topo));
    }

    #[test]
    fn partition_is_reported() {
        // A bare tree: killing an internal node strands its subtree.
        let topo = Topology::dary_tree(7, 2, 0);
        let mut tree = SpanningTree::bfs(&topo, NodeId(0));
        let mut alive = vec![true; 7];
        alive[1] = false;
        let report = tree.handle_failure(NodeId(1), &topo, &alive);
        assert_eq!(report.partitioned.len(), 2, "children 3 and 4 stranded");
        assert!(report.reattached.is_empty());
    }

    #[test]
    fn failure_of_unknown_node_is_noop() {
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        alive[3] = false;
        tree.handle_failure(NodeId(3), &topo, &alive);
        // Second failure report of the same node changes nothing.
        let before = tree.clone();
        let report = tree.handle_failure(NodeId(3), &topo, &alive);
        assert_eq!(tree, before);
        assert!(report.former_parent.is_none());
    }

    #[test]
    fn cascading_failures_keep_survivors_connected() {
        // Richly linked topology: survivors stay connected through many
        // failures; the tree must track that.
        let topo = Topology::grid(4, 4);
        let mut tree = SpanningTree::bfs(&topo, NodeId(0));
        let mut alive = vec![true; 16];
        for &victim in &[5u32, 10, 6, 9] {
            alive[victim as usize] = false;
            let report = tree.handle_failure(NodeId(victim), &topo, &alive);
            assert!(
                report.partitioned.is_empty(),
                "grid survivors remain connected after killing {victim}"
            );
        }
        assert_eq!(tree.node_count(), 12);
        assert!(tree.is_subgraph_of(&topo));
        for node in tree.nodes() {
            let mut cur = node;
            let mut steps = 0;
            while let Some(p) = tree.parent(cur) {
                cur = p;
                steps += 1;
                assert!(steps <= 16, "no cycles");
            }
            assert_eq!(cur, tree.root());
        }
    }

    #[test]
    fn root_failure_promotes_an_orphan() {
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        alive[0] = false;
        let report = tree.handle_failure(NodeId(0), &topo, &alive);
        let new_root = report.new_root.expect("a replacement root");
        assert_eq!(tree.root(), new_root);
        assert!(
            report.partitioned.is_empty(),
            "cross-links reconnect the rest"
        );
        assert_eq!(tree.node_count(), 6);
        for node in tree.nodes() {
            let mut cur = node;
            while let Some(p) = tree.parent(cur) {
                cur = p;
            }
            assert_eq!(cur, new_root);
        }
    }

    #[test]
    fn root_failure_with_no_children_empties_tree() {
        let topo = Topology::line(1);
        let mut tree = SpanningTree::bfs(&topo, NodeId(0));
        let alive = vec![false];
        let report = tree.handle_failure(NodeId(0), &topo, &alive);
        assert!(report.new_root.is_none());
        assert_eq!(tree.node_count(), 0);
    }

    #[test]
    fn grandparent_adopts_orphans_when_linked() {
        // dary_tree(_, _, 1) has grandparent cross-links: when node 1 dies,
        // its children 3 and 4 can reach node 0 (their grandparent)
        // directly, and the preference must route them there rather than
        // to sibling subtrees.
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        let failed = NodeId(1);
        let grandparent = tree.parent(failed).unwrap();
        alive[failed.index()] = false;
        let report = tree.handle_failure(failed, &topo, &alive);
        assert!(report.partitioned.is_empty());
        for &(_, adopter) in &report.reattached {
            assert_eq!(adopter, grandparent, "grandparent takeover preferred");
        }
        assert!(tree.is_subgraph_of(&topo));
    }

    #[test]
    fn affected_nodes_cover_rewired_parents() {
        let (topo, mut tree) = setup();
        let mut alive = vec![true; 7];
        let internal = NodeId(1);
        alive[1] = false;
        let report = tree.handle_failure(internal, &topo, &alive);
        // Every reattached orphan's new parent must appear in `affected`.
        for (child, parent) in &report.reattached {
            assert!(report.affected.contains(parent));
            assert!(report.affected.contains(child));
        }
    }
}
