//! [`HierarchicalDetector`] — a whole tree of engines, driven in memory.

use crate::engine::{EngineOutput, NodeEngine};
use crate::membership::{repair_plan, RepairStep};
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
    /// Orphan subtree roots a partition stranded, retried at every
    /// later failure.
    pending_orphans: Vec<ProcessId>,
    detections: Vec<GlobalDetection>,
    /// Per-node subtree-level solution counts (partial predicate
    /// detections), indexed by node.
    node_solutions: Vec<u64>,
    ops: OpCounter,
    /// Logical feed counter used as the detection "time".
    feeds: u64,
}

impl HierarchicalDetector {
    /// Builds a detector over `tree` (all nodes alive).
    pub fn new(tree: &SpanningTree) -> Self {
        let n = tree.capacity();
        let ops = OpCounter::new();
        let mut engines: Vec<Option<NodeEngine>> = (0..n).map(|_| None).collect();
        for node in tree.nodes() {
            let is_root = node == tree.root();
            let mut engine =
                NodeEngine::new(node, tree.children(node), is_root).with_ops_counter(ops.clone());
            engine.set_level((tree.height() - tree.depth(node)) as u32);
            engines[node.index()] = Some(engine);
        }
        HierarchicalDetector {
            tree: tree.clone(),
            engines,
            pending_orphans: Vec::new(),
            detections: Vec::new(),
            node_solutions: vec![0; n],
            ops,
            feeds: 0,
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
    /// Intervals owned by failed/removed nodes are ignored.
    pub fn feed(&mut self, interval: Interval) {
        self.feeds += 1;
        let owner = interval.source;
        if self.engines[owner.index()].is_none() {
            return;
        }
        let outputs = self.engines[owner.index()]
            .as_mut()
            .expect("checked")
            .on_local_interval(interval);
        self.propagate(owner, outputs);
    }

    fn propagate(&mut self, from: ProcessId, outputs: Vec<EngineOutput>) {
        let mut queue: VecDeque<(ProcessId, EngineOutput)> =
            outputs.into_iter().map(|o| (from, o)).collect();
        while let Some((node, out)) = queue.pop_front() {
            match out {
                EngineOutput::Detected(sol) => {
                    self.node_solutions[node.index()] += 1;
                    self.detections
                        .push(GlobalDetection::new(node, sol, SimTime(self.feeds)));
                }
                EngineOutput::ToParent { interval, .. } => {
                    self.node_solutions[node.index()] += 1;
                    let Some(parent) = self.tree.parent(node) else {
                        continue;
                    };
                    if let Some(engine) = self.engines[parent.index()].as_mut() {
                        let outs = engine.on_child_interval(node, interval);
                        for o in outs {
                            queue.push_back((parent, o));
                        }
                    }
                }
            }
        }
    }

    /// §III-F: `node` crash-stops. The tree is repaired (orphan subtrees
    /// re-attach through `topology` neighbors; ones a partition strands
    /// become forest roots and are retried at the next failure) and
    /// [`repair_plan`]'s steps are applied. Detections released by the
    /// repair are recorded as usual.
    pub fn fail_node(&mut self, node: ProcessId, topology: &Topology) {
        if self.engines[node.index()].is_none() {
            return;
        }
        self.engines[node.index()] = None;
        let alive: Vec<bool> = self.engines.iter().map(Option::is_some).collect();
        let engines = &self.engines;
        let plan = repair_plan(
            &mut self.tree,
            &mut self.pending_orphans,
            node,
            topology,
            &alive,
            |n| {
                engines[n.index()]
                    .as_ref()
                    .map_or(&[], NodeEngine::children)
            },
        );
        for (node, step) in plan {
            self.apply(node, step);
        }
    }

    /// Applies one repair step to `node`'s engine (none if it is down)
    /// and propagates what it releases. A node given a new parent
    /// re-sends its last output so the parent's fresh queue is seeded
    /// (§III-B: "P2 will report its later aggregated interval ... to its
    /// new parent, P4").
    fn apply(&mut self, node: ProcessId, step: RepairStep) {
        let Some(engine) = self.engines[node.index()].as_mut() else {
            return;
        };
        match step {
            RepairStep::RemoveChild(child) => {
                let outs = engine.remove_child(child);
                self.propagate(node, outs);
            }
            RepairStep::AddChild(child) => {
                if !engine.has_child(child) {
                    engine.add_child(child);
                }
            }
            RepairStep::PromoteRoot => {
                // The last (possibly un-consumed) output is re-published
                // as a detection.
                engine.set_root(true);
                let outs = engine.reseed_last_output();
                self.propagate(node, outs);
            }
            RepairStep::SetParent(parent) => {
                engine.set_root(parent.is_none());
                let last = engine.last_output().cloned();
                if let (Some(parent), Some(interval)) = (parent, last) {
                    if let Some(p_engine) = self.engines[parent.index()].as_mut() {
                        let outs = p_engine.on_child_interval(node, interval);
                        self.propagate(parent, outs);
                    }
                }
            }
        }
    }

    /// Snapshot of `node`'s engine state, for persistence-based recovery
    /// (`None` if the node has failed/been removed).
    pub fn checkpoint_node(&self, node: ProcessId) -> Option<crate::engine::EngineCheckpoint> {
        self.engines[node.index()].as_ref().map(|e| e.checkpoint())
    }

    /// Crash-**recovery** (beyond the paper's crash-stop model): a node
    /// that persisted an [`EngineCheckpoint`](crate::engine::EngineCheckpoint)
    /// reboots and rejoins the tree as a leaf under an alive topology
    /// neighbor. Its local queue, output counter, and dedup state are
    /// restored from the checkpoint (so nothing is double-reported); its
    /// former child queues are dropped (those subtrees were re-parented
    /// when it failed). Its last output is re-reported to the new parent.
    ///
    /// Returns `Err` if the node is still alive or no alive neighbor is in
    /// the tree.
    pub fn rejoin_node(
        &mut self,
        node: ProcessId,
        checkpoint: crate::engine::EngineCheckpoint,
        topology: &Topology,
    ) -> Result<(), String> {
        if self.engines[node.index()].is_some() {
            return Err(format!("{node} is still alive"));
        }
        if checkpoint.node != node {
            return Err(format!(
                "checkpoint belongs to {}, not {node}",
                checkpoint.node
            ));
        }
        // Find an alive tree member adjacent in the topology.
        let parent = topology
            .neighbors(node)
            .iter()
            .copied()
            .find(|&nb| self.tree.contains(nb) && self.engines[nb.index()].is_some())
            .ok_or_else(|| format!("{node} has no alive tree neighbor"))?;

        self.tree.rejoin_leaf(node, parent);

        // Any solutions released by dropping the stale child queues are
        // legitimate (the dedup set came along in the checkpoint) and
        // propagate normally.
        let (engine, released) = NodeEngine::restore_as_leaf(checkpoint);
        self.engines[node.index()] = Some(engine);
        self.propagate(node, released);

        // Seed the adopter, as `Deployment::recover` does.
        self.apply(parent, RepairStep::AddChild(node));
        self.apply(node, RepairStep::SetParent(Some(parent)));
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
