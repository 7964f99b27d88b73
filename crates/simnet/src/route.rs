//! Routing of one simulated send: the shortest alive, uncut path, found
//! without allocating.

use crate::fault::ActiveFaults;
use crate::topology::Topology;
use crate::NodeId;

/// One link of a route.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Hop {
    /// The node this hop arrives at.
    pub(crate) to: NodeId,
    /// [`Topology::edge_id`] of the link it crosses.
    pub(crate) edge: usize,
}

/// Finds the path [`Topology::shortest_path_filtered`] would return — same
/// breadth-first order, so the same path among equally short ones — into
/// buffers it keeps between calls.
#[derive(Debug, Default)]
pub(crate) struct Router {
    /// `seen[v] == stamp` iff the current search has reached `v`; bumping
    /// the stamp forgets a whole search without touching the vector.
    seen: Vec<u64>,
    stamp: u64,
    /// How every reached node was reached: `to` is its predecessor here.
    /// Stale where `seen` is.
    prev: Vec<Hop>,
    /// BFS frontier, consumed by index.
    queue: Vec<NodeId>,
    /// The last route.
    path: Vec<Hop>,
}

impl Router {
    /// The hops from `src` to `dst` (none if they are the same node)
    /// through alive nodes and edges no installed cut blocks, or `None` if
    /// there is no such path.
    pub(crate) fn route(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        alive: &[bool],
        faults: &ActiveFaults,
    ) -> Option<&[Hop]> {
        if !alive[src.index()] || !alive[dst.index()] {
            return None;
        }
        self.path.clear();
        if src == dst {
            return Some(&self.path);
        }
        // The search below expands `src` before any other node, so a usable
        // direct edge always wins; testing for it first spares a neighbour
        // send — nearly every send — the search and its bookkeeping.
        match topology.edge_id(src, dst) {
            Some(edge) if !faults.edge_blocked(src, dst) => {
                self.path.push(Hop { to: dst, edge });
                Some(&self.path)
            }
            _ => self
                .search(topology, src, dst, alive, faults)
                .then_some(&self.path),
        }
    }

    /// Breadth-first search from `src`; on success leaves the route in
    /// `self.path`.
    fn search(
        &mut self,
        topology: &Topology,
        src: NodeId,
        dst: NodeId,
        alive: &[bool],
        faults: &ActiveFaults,
    ) -> bool {
        self.stamp += 1;
        self.seen.resize(topology.len(), 0);
        self.prev.resize(topology.len(), Hop { to: src, edge: 0 });
        self.queue.clear();
        self.seen[src.index()] = self.stamp;
        self.queue.push(src);
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            for (v, edge) in topology.links(u) {
                if self.seen[v.index()] == self.stamp
                    || !alive[v.index()]
                    || faults.edge_blocked(u, v)
                {
                    continue;
                }
                self.seen[v.index()] = self.stamp;
                self.prev[v.index()] = Hop { to: u, edge };
                if v == dst {
                    let mut cur = dst;
                    while cur != src {
                        let Hop { to: before, edge } = self.prev[cur.index()];
                        self.path.push(Hop { to: cur, edge });
                        cur = before;
                    }
                    self.path.reverse();
                    return true;
                }
                self.queue.push(v);
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultOp;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The routed path as a node sequence, `src` first — the shape
    /// [`Topology::shortest_path_filtered`] returns.
    fn nodes(src: NodeId, hops: &[Hop]) -> Vec<NodeId> {
        std::iter::once(src)
            .chain(hops.iter().map(|h| h.to))
            .collect()
    }

    fn cut(faults: &mut ActiveFaults, side: &[u32], n: usize) {
        let side = side.iter().map(|&v| NodeId(v)).collect();
        faults.apply(&FaultOp::Partition(side), n);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// One router, reused across every ordered pair of every graph
        /// family under random crashes and cuts, bills exactly the path
        /// the allocating reference search finds — or agrees there is none.
        #[test]
        fn routes_equal_the_reference_search(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let topologies = [
                Topology::grid(5, 4),
                Topology::random_geometric(24, 0.3, seed),
                Topology::small_world(24, 4, 0.2, seed),
                Topology::scale_free(24, 2, seed),
                Topology::dary_tree(22, 3, 1),
            ];
            let mut router = Router::default();
            for topology in &topologies {
                let n = topology.len();
                let alive: Vec<bool> = (0..n).map(|_| rng.gen::<f64>() < 0.8).collect();
                let mut faults = ActiveFaults::default();
                for _ in 0..rng.gen_range(0..3usize) {
                    let side: Vec<u32> = (0..n as u32).filter(|_| rng.gen::<f64>() < 0.3).collect();
                    cut(&mut faults, &side, n);
                }
                for src in NodeId::all(n) {
                    for dst in NodeId::all(n) {
                        let want = topology.shortest_path_filtered(src, dst, &alive, |a, b| {
                            faults.edge_blocked(a, b)
                        });
                        let got = router.route(topology, src, dst, &alive, &faults);
                        if let Some(hops) = got {
                            let mut at = src;
                            for hop in hops {
                                prop_assert_eq!(topology.edge_id(at, hop.to), Some(hop.edge));
                                at = hop.to;
                            }
                        }
                        prop_assert_eq!(got.map(|hops| nodes(src, hops)), want);
                    }
                }
            }
        }
    }

    /// A direct edge is taken only when the search would take it: not
    /// across a cut, not to a dead endpoint.
    #[test]
    fn unusable_direct_edge_falls_through_to_the_search() {
        // 0 - 1
        // |   |
        // 2 - 3
        let square = Topology::grid(2, 2);
        let [a, b, c, d] = [NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let mut router = Router::default();
        let mut alive = vec![true; 4];
        let mut faults = ActiveFaults::default();
        let direct = router.route(&square, a, b, &alive, &faults).unwrap();
        assert_eq!(nodes(a, direct), [a, b]);
        let searched = router.route(&square, a, d, &alive, &faults).unwrap();
        assert_eq!(nodes(a, searched), [a, b, d]);

        // {0, 2} | {1, 3}: the edge 0–1 is there but cut, and so is the way
        // round; 0–2 stays direct.
        cut(&mut faults, &[0, 2], 4);
        assert_eq!(router.route(&square, a, b, &alive, &faults), None);
        let same_side = router.route(&square, a, c, &alive, &faults).unwrap();
        assert_eq!(nodes(a, same_side), [a, c]);

        // A dead endpoint is unroutable over an intact direct edge, and a
        // dead neighbour is routed around.
        faults.apply(&FaultOp::Heal, 4);
        alive[b.index()] = false;
        assert_eq!(router.route(&square, a, b, &alive, &faults), None);
        let detour = router.route(&square, a, d, &alive, &faults).unwrap();
        assert_eq!(nodes(a, detour), [a, c, d]);
    }
}
