//! [`HierarchicalDetector`] — a whole tree of engines, driven in memory.

use crate::engine::{EngineOutput, NodeEngine};
use crate::membership::{rejoin_adopter, repair_tree, ANCESTOR_HINT_CAP};
use crate::report::GlobalDetection;
use ftscp_intervals::Interval;
use ftscp_simnet::{SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::{OpCounter, ProcessId};
use std::collections::VecDeque;

/// In-memory hierarchical detector: one [`NodeEngine`] per tree node,
/// with parent forwarding performed synchronously.
///
/// This is the library's primary convenience API. It is deterministic:
/// intervals are processed in feed order, and an interval's effects (up to
/// and including root detections) complete before `feed` returns.
///
/// For a *distributed* deployment with real message delays, heartbeats and
/// multi-hop routing, see [`crate::deploy`].
pub struct HierarchicalDetector {
    tree: SpanningTree,
    engines: Vec<Option<NodeEngine>>,
    /// The members of the last solution each child of a root shipped to
    /// it, indexed by node: an heir requeues its own when the root dies.
    last_solution: Vec<Vec<Interval>>,
    detections: Vec<GlobalDetection>,
    /// Per-node subtree-level solution counts (partial predicate
    /// detections), indexed by node.
    node_solutions: Vec<u64>,
    ops: OpCounter,
    /// Logical feed counter used as the detection "time".
    feeds: u64,
    /// [`propagate`](Self::propagate)'s work queue, empty between calls
    /// and kept so a feed does not build one.
    work: VecDeque<(ProcessId, EngineOutput)>,
}

impl HierarchicalDetector {
    /// Builds a detector over `tree` (all nodes alive).
    pub fn new(tree: &SpanningTree) -> Self {
        let n = tree.capacity();
        let ops = OpCounter::new();
        let mut engines: Vec<Option<NodeEngine>> = (0..n).map(|_| None).collect();
        let height = tree.height();
        for node in tree.nodes() {
            let is_root = node == tree.root();
            let mut engine =
                NodeEngine::new(node, tree.children(node), is_root).with_ops_counter(ops.clone());
            engine.set_level((height - tree.depth(node)) as u32);
            engines[node.index()] = Some(engine);
        }
        HierarchicalDetector {
            tree: tree.clone(),
            engines,
            last_solution: vec![Vec::new(); n],
            detections: Vec::new(),
            node_solutions: vec![0; n],
            ops,
            feeds: 0,
            work: VecDeque::new(),
        }
    }

    /// Sets the head-overlap sweep mode of every engine (see
    /// [`ftscp_intervals::SweepMode`]). Detection outcomes are identical
    /// in both modes; only the number of clock comparisons billed to the
    /// shared [`ops`](Self::ops) counter differs — tests and benchmarks
    /// use it to build the `Full` reference detector.
    pub fn with_sweep_mode(mut self, mode: ftscp_intervals::SweepMode) -> Self {
        for slot in self.engines.iter_mut() {
            if let Some(e) = slot.take() {
                *slot = Some(e.with_sweep_mode(mode));
            }
        }
        self
    }

    /// The current spanning tree.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// Shared vector-clock comparison counter (the paper's time-cost unit).
    pub fn ops(&self) -> &OpCounter {
        &self.ops
    }

    /// All root-level detections so far, in order.
    pub fn root_solutions(&self) -> &[GlobalDetection] {
        &self.detections
    }

    /// Subtree-level solution count at `node` (partial predicate
    /// detections — non-zero at interior nodes even when the global
    /// predicate never holds).
    pub fn solutions_at(&self, node: ProcessId) -> u64 {
        self.node_solutions[node.index()]
    }

    /// Total intervals resident across all engines (space accounting).
    pub fn resident(&self) -> usize {
        self.engines.iter().flatten().map(|e| e.resident()).sum()
    }

    /// Sum of every engine's queue-bank statistics (enqueues, sweeps,
    /// prunes, solutions, gate traffic) — the whole-tree cost picture the
    /// benchmark harness reports alongside [`ops`](Self::ops).
    pub fn bank_stats_total(&self) -> ftscp_intervals::BankStats {
        let mut total = ftscp_intervals::BankStats::default();
        for e in self.engines.iter().flatten() {
            let s = e.bank_stats();
            total.enqueued += s.enqueued;
            total.swept += s.swept;
            total.pruned += s.pruned;
            total.solutions += s.solutions;
            total.peak_resident = total.peak_resident.max(s.peak_resident);
            total.peak_queue_len = total.peak_queue_len.max(s.peak_queue_len);
            total.gate_hits += s.gate_hits;
            total.gate_misses += s.gate_misses;
        }
        total
    }

    /// Peak resident intervals at any single node.
    pub fn peak_queue_len(&self) -> usize {
        self.engines
            .iter()
            .flatten()
            .map(|e| e.bank_stats().peak_queue_len)
            .max()
            .unwrap_or(0)
    }

    /// Feeds one completed local interval (owner = `interval.source`).
    /// Intervals of each process must be fed in their per-process order;
    /// interleaving across processes is free.
    ///
    /// Intervals owned by failed/removed nodes, or by a process outside
    /// the tree, are ignored.
    pub fn feed(&mut self, interval: Interval) {
        self.feeds += 1;
        let owner = interval.source;
        let Some(engine) = self.engines.get_mut(owner.index()).and_then(Option::as_mut) else {
            return;
        };
        let outputs = engine.on_local_interval(interval);
        self.propagate(owner, outputs);
    }

    fn propagate(&mut self, from: ProcessId, outputs: Vec<EngineOutput>) {
        let mut queue = std::mem::take(&mut self.work);
        queue.extend(outputs.into_iter().map(|o| (from, o)));
        while let Some((node, out)) = queue.pop_front() {
            match out {
                EngineOutput::Detected(sol) => {
                    self.node_solutions[node.index()] += 1;
                    self.detections
                        .push(GlobalDetection::new(node, sol, SimTime(self.feeds)));
                }
                EngineOutput::ToParent { interval, solution } => {
                    self.node_solutions[node.index()] += 1;
                    let Some(parent) = self.tree.parent(node) else {
                        continue;
                    };
                    if let Some(engine) = self.engines[parent.index()].as_mut() {
                        if engine.is_root() {
                            self.last_solution[node.index()] = solution.intervals;
                        }
                        let outs = engine.on_child_interval(node, interval);
                        queue.extend(outs.into_iter().map(|o| (parent, o)));
                    }
                }
            }
        }
        self.work = queue;
    }

    /// §III-F: `node` crash-stops. Its orphans settle where the protocol's
    /// handshake puts them ([`ladder_adopters`](crate::membership::ladder_adopters)),
    /// and the effects are applied in the protocol's order: the adopters
    /// open queues and a promoted orphan becomes a root, an heir requeuing
    /// the last solution it shipped to the dead root (as
    /// `MonitorCore::promote` does before any sibling's re-report lands;
    /// the queues it opens for its sibling heirs are the adoptions, since a
    /// hold for a sibling that went elsewhere only expires); then the dead
    /// child's queue goes, so nothing is released without the orphan; then
    /// each adopted orphan re-reports its last output. Detections released
    /// by the repair are recorded as usual. A node that already failed, or
    /// one outside the tree, is ignored.
    pub fn fail_node(&mut self, node: ProcessId, topology: &Topology) {
        if self.engines.get(node.index()).is_none_or(Option::is_none) {
            return;
        }
        self.engines[node.index()] = None;
        self.last_solution[node.index()] = Vec::new();
        let alive: Vec<bool> = self.engines.iter().map(Option::is_some).collect();
        let former_parent = self.tree.parent(node);
        let adopters = repair_tree(&mut self.tree, topology, &alive, node);
        for &(orphan, adopter) in &adopters {
            if let Some(adopter) = adopter {
                self.engine_mut(adopter).add_child(orphan);
            }
        }
        // A dead root's heirs are the first `ANCESTOR_HINT_CAP` of its
        // children, the ones its beacons named.
        for (rank, &(orphan, adopter)) in adopters.iter().enumerate() {
            if adopter.is_some() {
                continue;
            }
            self.engine_mut(orphan).set_root(true);
            if former_parent.is_none() && rank < ANCESTOR_HINT_CAP {
                let last = std::mem::take(&mut self.last_solution[orphan.index()]);
                let outs = self.engine_mut(orphan).requeue(last);
                self.propagate(orphan, outs);
            }
        }
        if let Some(parent) = former_parent {
            let outs = self.engine_mut(parent).remove_child(node);
            self.propagate(parent, outs);
        }
        for &(orphan, adopter) in &adopters {
            if let Some(adopter) = adopter {
                self.re_report(orphan, adopter);
            }
        }
    }

    fn engine_mut(&mut self, node: ProcessId) -> &mut NodeEngine {
        self.engines[node.index()].as_mut().expect("live node")
    }

    /// `node`'s new parent receives its last output, so the fresh queue is
    /// seeded (§III-B: "P2 will report its later aggregated interval ...
    /// to its new parent, P4").
    fn re_report(&mut self, node: ProcessId, parent: ProcessId) {
        let Some(last) = self.engine_mut(node).last_output().cloned() else {
            return;
        };
        let outs = self.engine_mut(parent).on_child_interval(node, last);
        self.propagate(parent, outs);
    }

    /// A copy of `node`'s engine: what the node holds if it crashes now,
    /// for [`rejoin_node`](Self::rejoin_node) (`None` if the node has
    /// failed or is outside the tree).
    pub fn checkpoint_node(&self, node: ProcessId) -> Option<NodeEngine> {
        self.engines.get(node.index())?.clone()
    }

    /// Crash-**recovery** (beyond the paper's crash-stop model): a node
    /// reboots `engine`, the one its crash froze, and rejoins the tree as a
    /// leaf under its first live topology neighbour in the tree, as on the
    /// simulated network. Its local queue, output counter, and dedup state
    /// carry over (so nothing is double-reported); its former child queues
    /// are dropped (those subtrees were re-parented when it failed). What
    /// that releases is not propagated, but its last solution becomes the
    /// node's last output, as on a rebooted monitor (see
    /// [`NodeEngine::reboot`]). That last output is re-reported to the new
    /// parent.
    ///
    /// Returns `Err` if the node is outside the tree or still alive, if
    /// `engine` is another node's, or if no alive neighbor is in the tree.
    pub fn rejoin_node(
        &mut self,
        node: ProcessId,
        mut engine: NodeEngine,
        topology: &Topology,
    ) -> Result<(), String> {
        match self.engines.get(node.index()) {
            None => return Err(format!("{node} is outside the tree")),
            Some(Some(_)) => return Err(format!("{node} is still alive")),
            Some(None) => {}
        }
        if engine.node() != node {
            return Err(format!("engine belongs to {}, not {node}", engine.node()));
        }
        let alive = |nb: ProcessId| self.engines[nb.index()].is_some();
        let parent = rejoin_adopter(node, topology, &self.tree, alive)
            .ok_or_else(|| format!("{node} has no alive tree neighbor"))?;

        self.tree.rejoin_leaf(node, parent);
        engine.reboot();
        self.engines[node.index()] = Some(engine);

        // The in-memory twin of the handshake: the adopter's `Adopt`
        // opens the queue, the `AdoptAck` re-parents and re-reports.
        self.engine_mut(parent).add_child(node);
        self.re_report(node, parent);
        Ok(())
    }

    /// The per-node solution counts, useful for asserting the "detect at
    /// every level" property.
    pub fn solution_counts(&self) -> Vec<(ProcessId, u64)> {
        self.node_solutions
            .iter()
            .enumerate()
            .map(|(i, &c)| (ProcessId(i as u32), c))
            .collect()
    }
}
