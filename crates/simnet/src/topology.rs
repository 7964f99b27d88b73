//! Network topologies: generators and graph queries.

use crate::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// An undirected communication graph `(P, L)` (§II-A of the paper).
///
/// In a wireless network a node can talk only to nodes within range, so the
/// graph is generally *not* complete and messages traverse multiple hops —
/// the premise of the paper's message-complexity comparison.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    adj: Vec<Vec<NodeId>>,
    /// `edge_ids[u][i]` is the id of the edge `{u, adj[u][i]}`: edges are
    /// numbered densely in insertion order, and both endpoints' slots
    /// carry the number.
    edge_ids: Vec<Vec<u32>>,
    edges: u32,
}

impl Topology {
    /// An edgeless graph of `n` nodes.
    pub fn empty(n: usize) -> Topology {
        Topology {
            adj: vec![Vec::new(); n],
            edge_ids: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Builds from an undirected edge list. Duplicate edges and self-loops
    /// are ignored.
    pub fn from_edges(n: usize, edges: &[(u32, u32)]) -> Topology {
        let mut t = Topology::empty(n);
        for &(a, b) in edges {
            t.add_edge(NodeId(a), NodeId(b));
        }
        t
    }

    /// Adds the undirected edge `{a, b}` (no-op for self-loops/duplicates).
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) {
        if a == b {
            return;
        }
        if !self.adj[a.index()].contains(&b) {
            self.adj[a.index()].push(b);
            self.adj[b.index()].push(a);
            self.edge_ids[a.index()].push(self.edges);
            self.edge_ids[b.index()].push(self.edges);
            self.edges += 1;
        }
    }

    /// Path graph `0 – 1 – … – n-1`.
    pub fn line(n: usize) -> Topology {
        let mut t = Topology::empty(n);
        for i in 1..n as u32 {
            t.add_edge(NodeId(i - 1), NodeId(i));
        }
        t
    }

    /// `w × h` grid (4-neighborhood), nodes numbered row-major — the shape
    /// of a modular-robot lattice.
    pub fn grid(w: usize, h: usize) -> Topology {
        let mut t = Topology::empty(w * h);
        let id = |x: usize, y: usize| NodeId((y * w + x) as u32);
        for y in 0..h {
            for x in 0..w {
                if x + 1 < w {
                    t.add_edge(id(x, y), id(x + 1, y));
                }
                if y + 1 < h {
                    t.add_edge(id(x, y), id(x, y + 1));
                }
            }
        }
        t
    }

    /// Complete `d`-ary tree topology on `n` nodes (node 0 the root, node
    /// `i`'s children are `i*d+1 ..= i*d+d`), **plus** sibling cross-links
    /// every `crosslink_every`-th node pair so that failure-time
    /// reconnection (§III-F) has neighbors to fall back on. Pass
    /// `crosslink_every = 0` for the bare tree.
    pub fn dary_tree(n: usize, d: usize, crosslink_every: usize) -> Topology {
        assert!(d >= 1, "degree must be positive");
        let mut t = Topology::empty(n);
        for i in 1..n {
            let parent = (i - 1) / d;
            t.add_edge(NodeId(parent as u32), NodeId(i as u32));
        }
        if crosslink_every > 0 {
            // Link node i to its successor at the same depth, periodically,
            // and every node to its grandparent: gives orphaned subtrees an
            // escape route when a parent dies.
            for i in (1..n).step_by(crosslink_every) {
                if i + 1 < n && !is_ancestor(i, i + 1, d) && !is_ancestor(i + 1, i, d) {
                    t.add_edge(NodeId(i as u32), NodeId(i as u32 + 1));
                }
            }
            for i in 1..n {
                let parent = (i - 1) / d;
                if parent > 0 {
                    let grandparent = (parent - 1) / d;
                    t.add_edge(NodeId(i as u32), NodeId(grandparent as u32));
                }
            }
        }
        t
    }

    /// Random geometric graph: `n` points uniform in the unit square,
    /// linked when within `radius`. The classic WSN model. If the result is
    /// disconnected, the nearest nodes of different components are linked
    /// (so simulations always have a connected network).
    pub fn random_geometric(n: usize, radius: f64, seed: u64) -> Topology {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<(f64, f64)> = (0..n)
            .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
            .collect();
        let mut t = Topology::empty(n);
        for a in 0..n {
            for b in (a + 1)..n {
                let (dx, dy) = (pts[a].0 - pts[b].0, pts[a].1 - pts[b].1);
                if (dx * dx + dy * dy).sqrt() <= radius {
                    t.add_edge(NodeId(a as u32), NodeId(b as u32));
                }
            }
        }
        // Stitch components together through closest pairs.
        loop {
            let comps = t.components(&vec![true; n]);
            if comps.len() <= 1 {
                break;
            }
            let (mut best, mut pair) = (f64::MAX, (0usize, 0usize));
            for &a in &comps[0] {
                for comp in &comps[1..] {
                    for &b in comp {
                        let (dx, dy) = (
                            pts[a.index()].0 - pts[b.index()].0,
                            pts[a.index()].1 - pts[b.index()].1,
                        );
                        let dist = (dx * dx + dy * dy).sqrt();
                        if dist < best {
                            best = dist;
                            pair = (a.index(), b.index());
                        }
                    }
                }
            }
            t.add_edge(NodeId(pair.0 as u32), NodeId(pair.1 as u32));
        }
        t
    }

    /// Watts–Strogatz small-world graph: a ring lattice where each node
    /// links to its `k/2` nearest neighbors on each side, with each edge
    /// rewired to a random endpoint with probability `beta`. Connectivity
    /// is restored by component stitching if rewiring disconnects it.
    pub fn small_world(n: usize, k: usize, beta: f64, seed: u64) -> Topology {
        assert!(k >= 2 && k.is_multiple_of(2), "k must be even and ≥ 2");
        assert!(k < n, "k must be < n");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::empty(n);
        for i in 0..n {
            for j in 1..=(k / 2) {
                let mut dst = (i + j) % n;
                if rng.gen::<f64>() < beta {
                    // Rewire to a random non-self target.
                    for _ in 0..8 {
                        let cand = rng.gen_range(0..n);
                        if cand != i {
                            dst = cand;
                            break;
                        }
                    }
                }
                t.add_edge(NodeId(i as u32), NodeId(dst as u32));
            }
        }
        t.stitch_components(&mut rng);
        t
    }

    /// Barabási–Albert preferential-attachment graph: nodes join one at a
    /// time, each linking to `m` existing nodes chosen proportionally to
    /// their degree — the heavy-tailed "hub" topology of many real
    /// networks.
    pub fn scale_free(n: usize, m: usize, seed: u64) -> Topology {
        assert!(m >= 1 && n > m, "need n > m ≥ 1");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Topology::empty(n);
        // Seed clique of m+1 nodes.
        for a in 0..=(m as u32) {
            for b in (a + 1)..=(m as u32) {
                t.add_edge(NodeId(a), NodeId(b));
            }
        }
        // Degree-weighted target list (each edge contributes both ends).
        let mut targets: Vec<usize> = Vec::new();
        for i in 0..=m {
            for _ in 0..t.neighbors(NodeId(i as u32)).len() {
                targets.push(i);
            }
        }
        for i in (m + 1)..n {
            let mut chosen = Vec::new();
            let mut guard = 0;
            while chosen.len() < m && guard < 64 * m {
                guard += 1;
                let pick = targets[rng.gen_range(0..targets.len())];
                if pick != i && !chosen.contains(&pick) {
                    chosen.push(pick);
                }
            }
            for &c in &chosen {
                t.add_edge(NodeId(i as u32), NodeId(c as u32));
                targets.push(c);
                targets.push(i);
            }
        }
        t
    }

    /// Links the nearest pair across components until connected (used by
    /// the random generators; "nearest" is just lowest-id here since not
    /// all generators have coordinates).
    fn stitch_components(&mut self, _rng: &mut StdRng) {
        loop {
            let comps = self.components(&vec![true; self.len()]);
            if comps.len() <= 1 {
                break;
            }
            let a = comps[0][0];
            let b = comps[1][0];
            self.add_edge(a, b);
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True iff the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbors of `node`.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.adj[node.index()]
    }

    /// `node`'s neighbors, each with the id of the edge that reaches it.
    pub(crate) fn links(&self, node: NodeId) -> impl Iterator<Item = (NodeId, usize)> + '_ {
        let (adj, ids) = (&self.adj[node.index()], &self.edge_ids[node.index()]);
        adj.iter().zip(ids).map(|(&v, &edge)| (v, edge as usize))
    }

    /// Id of the undirected edge `{a, b}`, if it exists: edges are numbered
    /// `0..edge_count()` in insertion order. The id indexes the link's
    /// counter in [`NetMetrics::edge_load`](crate::NetMetrics::edge_load).
    pub fn edge_id(&self, a: NodeId, b: NodeId) -> Option<usize> {
        self.links(a).find(|&(v, _)| v == b).map(|(_, edge)| edge)
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edges as usize
    }

    /// BFS shortest path from `src` to `dst` through nodes for which
    /// `alive` is true (endpoints must be alive). Returns the full node
    /// sequence including both endpoints, or `None` if unreachable.
    pub fn shortest_path(&self, src: NodeId, dst: NodeId, alive: &[bool]) -> Option<Vec<NodeId>> {
        self.shortest_path_filtered(src, dst, alive, |_, _| false)
    }

    /// [`shortest_path`](Self::shortest_path) with an additional edge
    /// filter: an edge `{u, v}` for which `blocked(u, v)` returns true is
    /// untraversable. Fault injection uses this to realize network
    /// partitions without mutating the topology.
    pub fn shortest_path_filtered(
        &self,
        src: NodeId,
        dst: NodeId,
        alive: &[bool],
        mut blocked: impl FnMut(NodeId, NodeId) -> bool,
    ) -> Option<Vec<NodeId>> {
        if !alive[src.index()] || !alive[dst.index()] {
            return None;
        }
        if src == dst {
            return Some(vec![src]);
        }
        let n = self.adj.len();
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut seen = vec![false; n];
        let mut q = VecDeque::new();
        seen[src.index()] = true;
        q.push_back(src);
        while let Some(u) = q.pop_front() {
            for &v in &self.adj[u.index()] {
                if !seen[v.index()] && alive[v.index()] && !blocked(u, v) {
                    seen[v.index()] = true;
                    prev[v.index()] = Some(u);
                    if v == dst {
                        let mut path = vec![v];
                        let mut cur = v;
                        while let Some(p) = prev[cur.index()] {
                            path.push(p);
                            cur = p;
                        }
                        path.reverse();
                        return Some(path);
                    }
                    q.push_back(v);
                }
            }
        }
        None
    }

    /// Connected components among alive nodes.
    pub fn components(&self, alive: &[bool]) -> Vec<Vec<NodeId>> {
        let n = self.adj.len();
        let mut seen = vec![false; n];
        let mut comps = Vec::new();
        for s in 0..n {
            if seen[s] || !alive[s] {
                continue;
            }
            let mut comp = Vec::new();
            let mut q = VecDeque::from([NodeId(s as u32)]);
            seen[s] = true;
            while let Some(u) = q.pop_front() {
                comp.push(u);
                for &v in &self.adj[u.index()] {
                    if !seen[v.index()] && alive[v.index()] {
                        seen[v.index()] = true;
                        q.push_back(v);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// True iff all alive nodes are mutually reachable.
    pub fn is_connected(&self, alive: &[bool]) -> bool {
        self.components(alive).len() <= 1
    }
}

/// True iff `a` is a (proper) ancestor of `b` in the implicit d-ary tree.
fn is_ancestor(a: usize, b: usize, d: usize) -> bool {
    let mut cur = b;
    while cur > 0 {
        cur = (cur - 1) / d;
        if cur == a {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_shape() {
        let line = Topology::line(4);
        assert_eq!(line.edge_count(), 3);
        assert_eq!(line.neighbors(NodeId(0)), &[NodeId(1)]);
    }

    #[test]
    fn grid_neighborhoods() {
        let t = Topology::grid(3, 2);
        assert_eq!(t.len(), 6);
        // Corner has 2 neighbors, middle of the top row has 3.
        assert_eq!(t.neighbors(NodeId(0)).len(), 2);
        assert_eq!(t.neighbors(NodeId(1)).len(), 3);
    }

    #[test]
    fn dary_tree_structure() {
        let t = Topology::dary_tree(7, 2, 0);
        // Root 0 children 1,2; node 1 children 3,4; node 2 children 5,6.
        assert_eq!(t.neighbors(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(t.edge_count(), 6);
    }

    #[test]
    fn dary_tree_crosslinks_add_redundancy() {
        let bare = Topology::dary_tree(15, 2, 0);
        let linked = Topology::dary_tree(15, 2, 1);
        assert!(linked.edge_count() > bare.edge_count());
        // Killing node 1 disconnects the bare tree but not the cross-linked.
        let mut alive = vec![true; 15];
        alive[1] = false;
        assert!(!bare.is_connected(&alive));
        assert!(linked.is_connected(&alive));
    }

    #[test]
    fn shortest_path_respects_aliveness() {
        let t = Topology::line(5);
        let alive = vec![true; 5];
        let p = t.shortest_path(NodeId(0), NodeId(4), &alive).unwrap();
        assert_eq!(p.len(), 5);
        let mut broken = alive.clone();
        broken[2] = false;
        assert!(t.shortest_path(NodeId(0), NodeId(4), &broken).is_none());
    }

    #[test]
    fn path_to_self_is_trivial() {
        let t = Topology::line(3);
        let alive = vec![true; 3];
        assert_eq!(
            t.shortest_path(NodeId(1), NodeId(1), &alive).unwrap(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn components_split_on_failures() {
        let t = Topology::line(5);
        let mut alive = vec![true; 5];
        alive[2] = false;
        let comps = t.components(&alive);
        assert_eq!(comps.len(), 2);
        assert!(!t.is_connected(&alive));
    }

    #[test]
    fn random_geometric_is_connected_and_deterministic() {
        let a = Topology::random_geometric(40, 0.18, 7);
        let b = Topology::random_geometric(40, 0.18, 7);
        assert_eq!(a, b, "same seed, same graph");
        assert!(a.is_connected(&[true; 40]));
    }

    #[test]
    fn small_world_is_connected_and_deterministic() {
        let a = Topology::small_world(30, 4, 0.2, 5);
        let b = Topology::small_world(30, 4, 0.2, 5);
        assert_eq!(a, b);
        assert!(a.is_connected(&[true; 30]));
        // Average degree ≈ k.
        let avg = 2.0 * a.edge_count() as f64 / 30.0;
        assert!((3.0..=4.5).contains(&avg), "avg degree {avg}");
    }

    #[test]
    fn small_world_beta_zero_is_ring_lattice() {
        let t = Topology::small_world(12, 4, 0.0, 1);
        // Every node has exactly k = 4 neighbors.
        for i in 0..12u32 {
            assert_eq!(t.neighbors(NodeId(i)).len(), 4);
        }
    }

    #[test]
    fn scale_free_has_hubs() {
        let t = Topology::scale_free(60, 2, 7);
        assert!(t.is_connected(&[true; 60]));
        let max_deg = (0..60u32)
            .map(|i| t.neighbors(NodeId(i)).len())
            .max()
            .unwrap();
        let min_deg = (0..60u32)
            .map(|i| t.neighbors(NodeId(i)).len())
            .min()
            .unwrap();
        assert!(
            max_deg >= 8,
            "preferential attachment grows hubs (max {max_deg})"
        );
        assert!(min_deg >= 2, "every late node brings m = 2 links");
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut t = Topology::empty(3);
        t.add_edge(NodeId(0), NodeId(1));
        t.add_edge(NodeId(1), NodeId(0));
        t.add_edge(NodeId(2), NodeId(2));
        assert_eq!(t.edge_count(), 1);
    }
}
