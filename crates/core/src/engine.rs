//! [`NodeEngine`] — Algorithm 1 at a single tree node.

use ftscp_intervals::{aggregate, Interval, QueueBank, SlotId, Solution};
use ftscp_vclock::{OpCounter, ProcessId};
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// Effects produced by feeding an engine.
#[derive(Clone, Debug)]
pub enum EngineOutput {
    /// A solution was found in this node's subtree and this node is not
    /// the root: the aggregated interval must be transmitted to the parent
    /// (lines (19)–(20)). The underlying solution set rides along for
    /// group-level observers.
    ToParent {
        /// `⊓` of the solution set (or the raw local interval at a leaf).
        interval: Interval,
        /// The solution set itself.
        solution: Solution,
    },
    /// A solution was found and this node is the root of its tree: the
    /// predicate holds over the whole (remaining) network (lines (21)–(22)).
    Detected(Solution),
}

/// One node's detection state: `Q_0` for local intervals plus one queue per
/// child, over a shared [`QueueBank`].
///
/// The engine is reconfigurable at runtime — children can be added or
/// removed and the node can be promoted to root — which is what makes the
/// algorithm fault-tolerant (§III-F).
#[derive(Clone, Debug)]
pub struct NodeEngine {
    node: ProcessId,
    bank: QueueBank,
    /// `Q_0` slot.
    local_slot: SlotId,
    child_slots: BTreeMap<ProcessId, SlotId>,
    /// Sorted mirror of `child_slots`' keys, kept so [`children`](Self::children)
    /// can hand out a borrow instead of allocating per call (the engine hot
    /// path queries it on every output flush).
    children: Vec<ProcessId>,
    is_root: bool,
    /// Hierarchy level for tagging aggregations (leaf = 1).
    level: u32,
    /// Number of solutions found at this node (subtree-level detections).
    solutions_found: u64,
    locals_enqueued: u64,
    child_enqueued: u64,
    /// The last interval this node produced for its parent — re-sent when
    /// the node is adopted by a new parent after a failure (§III-B's
    /// "P2 will report its later aggregated interval ... to its new
    /// parent").
    last_output: Option<Interval>,
}

impl NodeEngine {
    /// An engine for `node` with the given children. `is_root` selects
    /// whether solutions are reported as detections or forwarded.
    pub fn new(node: ProcessId, children: &[ProcessId], is_root: bool) -> Self {
        let mut bank = QueueBank::new(1);
        let mut child_slots = BTreeMap::new();
        for &c in children {
            child_slots.insert(c, bank.add_queue());
        }
        let children: Vec<ProcessId> = child_slots.keys().copied().collect();
        NodeEngine {
            node,
            bank,
            local_slot: SlotId(0),
            child_slots,
            children,
            is_root,
            level: 1,
            solutions_found: 0,
            locals_enqueued: 0,
            child_enqueued: 0,
            last_output: None,
        }
    }

    /// Installs a shared comparison counter (distributed cost accounting).
    pub fn with_ops_counter(mut self, ops: OpCounter) -> Self {
        self.bank = self.bank.with_ops_counter(ops);
        self
    }

    /// Selects the queue bank's sweep strategy (see
    /// [`ftscp_intervals::SweepMode`]); detection outcomes are identical
    /// either way, only the comparison count differs.
    pub fn with_sweep_mode(mut self, mode: ftscp_intervals::SweepMode) -> Self {
        self.bank = self.bank.with_sweep_mode(mode);
        self
    }

    /// Enables decision tracing on the underlying queue bank.
    pub fn with_trace(mut self) -> Self {
        self.bank = self.bank.with_trace();
        self
    }

    /// Drains the decision trace (empty unless tracing is enabled).
    pub fn take_trace(&mut self) -> Vec<ftscp_intervals::BankEvent> {
        self.bank.take_trace()
    }

    /// The hierarchy level used to tag aggregations (leaf = 1).
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Sets the hierarchy level used to tag aggregations (leaf = 1).
    pub fn set_level(&mut self, level: u32) {
        self.level = level;
    }

    /// This node's id.
    pub fn node(&self) -> ProcessId {
        self.node
    }

    /// Whether this engine currently reports detections (tree root).
    pub fn is_root(&self) -> bool {
        self.is_root
    }

    /// Promotes/demotes this node. Promotion happens when the previous
    /// root fails and this node is elected (§III-F).
    pub fn set_root(&mut self, is_root: bool) {
        self.is_root = is_root;
    }

    /// Current children, sorted ascending. Borrowed — no allocation.
    pub fn children(&self) -> &[ProcessId] {
        &self.children
    }

    /// Number of solutions found in this node's subtree so far.
    pub fn solutions_found(&self) -> u64 {
        self.solutions_found
    }

    /// The last interval forwarded (or that would have been forwarded) to
    /// the parent.
    pub fn last_output(&self) -> Option<&Interval> {
        self.last_output.as_ref()
    }

    /// Queue statistics (for the space-complexity reproduction).
    pub fn bank_stats(&self) -> ftscp_intervals::BankStats {
        self.bank.stats()
    }

    /// Vector-clock components inspected by this engine so far (the
    /// paper's §IV-C time-cost unit).
    pub fn comparisons(&self) -> u64 {
        self.bank.ops().get()
    }

    /// Local intervals enqueued (`Q_0` traffic).
    pub fn locals_enqueued(&self) -> u64 {
        self.locals_enqueued
    }

    /// Child intervals enqueued (across all child queues, lifetime).
    pub fn child_enqueued(&self) -> u64 {
        self.child_enqueued
    }

    /// Intervals currently resident in this node's queues.
    pub fn resident(&self) -> usize {
        self.bank.resident()
    }

    /// Lines (1)–(3) for the local queue: a new local predicate interval
    /// completed at this node.
    pub fn on_local_interval(&mut self, interval: Interval) -> Vec<EngineOutput> {
        self.locals_enqueued += 1;
        let solutions = self.bank.enqueue(self.local_slot, interval);
        self.emit(solutions)
    }

    /// Lines (1)–(3) for a child queue: an interval (local from a leaf or
    /// aggregated from an interior node) arrived from `child`.
    ///
    /// Intervals from unknown children are ignored (they can arrive late
    /// over the network after a reconfiguration).
    pub fn on_child_interval(&mut self, child: ProcessId, interval: Interval) -> Vec<EngineOutput> {
        let Some(&slot) = self.child_slots.get(&child) else {
            return Vec::new();
        };
        self.child_enqueued += 1;
        let solutions = self.bank.enqueue(slot, interval);
        self.emit(solutions)
    }

    /// §III-F: `child` failed or was re-parented elsewhere — drop its queue.
    /// Removing a blocking empty queue can release solutions immediately.
    pub fn remove_child(&mut self, child: ProcessId) -> Vec<EngineOutput> {
        let Some(slot) = self.child_slots.remove(&child) else {
            return Vec::new();
        };
        self.children.retain(|&c| c != child);
        let solutions = self.bank.remove_queue(slot);
        self.emit(solutions)
    }

    /// §III-F: this node adopted `child` (a reattached orphan subtree
    /// root). Its queue starts empty and blocks detection until the child
    /// reports.
    pub fn add_child(&mut self, child: ProcessId) {
        debug_assert!(
            !self.child_slots.contains_key(&child),
            "child {child} already present"
        );
        let slot = self.bank.add_queue();
        self.child_slots.insert(child, slot);
        let at = self.children.partition_point(|&c| c < child);
        self.children.insert(at, child);
    }

    /// True iff `child` currently has a queue here.
    pub fn has_child(&self, child: ProcessId) -> bool {
        self.child_slots.contains_key(&child)
    }

    /// §III-F failover: offers the members of `solution`, the last one
    /// shipped to a parent that died with it, again to the queues they
    /// came from ([`QueueBank::requeue`]); one whose queue is gone drops.
    pub fn requeue(&mut self, solution: Vec<Interval>) -> Vec<EngineOutput> {
        let slot = |iv: &Interval| {
            let child = self.child_slots.get(&iv.source).copied();
            (iv.source == self.node)
                .then_some(self.local_slot)
                .or(child)
        };
        let members = solution.into_iter().filter_map(|iv| Some((slot(&iv)?, iv)));
        let solutions = self.bank.requeue(members.collect());
        self.emit(solutions)
    }

    /// Reboots the node in place as a leaf: a non-root at level 1 whose
    /// child queues are dropped (their subtrees were re-parented while it
    /// was down). Everything else is what the crash froze: `Q_0`, the
    /// output counter, the emitted-head marks and the last output. The
    /// drops can release solutions over the node's own intervals in `Q_0`
    /// (a head already emitted is suppressed as usual). None is sent, but
    /// each takes the next output seq and the last one becomes the last
    /// output, which a rejoin re-reports to the adopter: the pre-crash
    /// output covered children that now report elsewhere, and a rebooted
    /// leaf's freshest output is its own. Counters, tracing and the sweep
    /// mode carry over; none of them changes an outcome.
    pub fn reboot(&mut self) {
        self.set_root(false);
        self.set_level(1);
        for child in self.children().to_vec() {
            self.remove_child(child);
        }
    }

    /// Feeds what decides the engine's future outputs into `h`: the root
    /// flag, the output sequence, the last output, and each queue's
    /// contents and emitted-head mark keyed by owner, not slot, each hashed
    /// where it lies.
    pub fn digest(&self, h: &mut impl Hasher) {
        (self.node, self.is_root, self.level, self.solutions_found).hash(h);
        self.last_output.hash(h);
        self.bank.hash_queue(self.local_slot, h);
        for (child, &slot) in &self.child_slots {
            child.hash(h);
            self.bank.hash_queue(slot, h);
        }
    }

    fn emit(&mut self, solutions: Vec<Solution>) -> Vec<EngineOutput> {
        let mut out = Vec::with_capacity(solutions.len());
        for sol in solutions {
            // Outbound intervals carry this node's own monotone output
            // counter as their sequence number, so a parent always sees an
            // increasing stream from this child — even across engine
            // reconfigurations (Theorem 2's premise at the next level).
            let out_seq = self.solutions_found;
            self.solutions_found += 1;
            let outbound = if sol.intervals.len() == 1 && !sol.intervals[0].is_aggregated() {
                // A leaf (or a node whose only queue is Q_0): forward the
                // local interval itself, as the paper's leaves do.
                let mut iv = sol.intervals[0].clone();
                iv.source = self.node;
                iv.seq = out_seq;
                iv
            } else {
                aggregate(&sol.intervals, self.node, out_seq, self.level)
            };
            self.last_output = Some(outbound.clone());
            if self.is_root {
                out.push(EngineOutput::Detected(sol));
            } else {
                out.push(EngineOutput::ToParent {
                    interval: outbound,
                    solution: sol,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::VectorClock;

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    #[test]
    fn trace_flows_through_the_engine() {
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], true).with_trace();
        e.on_child_interval(ProcessId(0), iv(0, 0, &[1, 0], &[4, 3]));
        e.on_local_interval(iv(1, 0, &[2, 1], &[3, 4]));
        let trace = e.take_trace();
        assert!(trace
            .iter()
            .any(|ev| matches!(ev, ftscp_intervals::BankEvent::SolutionEmitted { .. })));
        let rendered = ftscp_intervals::render_trace(&trace);
        assert!(rendered.contains("SOLUTION #0"), "{rendered}");
        assert!(rendered.contains("enqueue"));
    }

    #[test]
    fn reboot_keeps_q0_and_the_output_counter_and_drops_the_children() {
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], true);
        e.set_level(2);
        e.on_child_interval(ProcessId(0), iv(0, 0, &[1, 0], &[4, 3]));
        e.on_local_interval(iv(1, 0, &[2, 1], &[3, 4]));
        // Mid-flight: `Q_0` holds a head that child 0's empty queue blocks.
        assert!(e.on_local_interval(iv(1, 1, &[5, 1], &[6, 4])).is_empty());
        e.reboot();
        assert!(!e.is_root());
        assert_eq!(e.level(), 1);
        assert!(e.children().is_empty() && !e.has_child(ProcessId(0)));
        // The child queue's drop released `Q_0`'s head: the reboot sent it
        // nowhere, but it took the next output seq and is the last output.
        assert_eq!(e.solutions_found(), 2);
        let last = e.last_output().expect("the released head");
        assert_eq!((last.source, last.seq), (ProcessId(1), 1));
        let out = e.on_local_interval(iv(1, 2, &[7, 1], &[8, 4]));
        match &out[..] {
            [EngineOutput::ToParent { interval, .. }] => assert_eq!(interval.seq, 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    /// An interior node 1 over child 0 whose `Q_0` head, a long local
    /// interval, was emitted with `first_child`'s interval and kept by
    /// Eq. (10), which pruned the child's.
    fn kept_head_engine(first_child: Interval) -> NodeEngine {
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], false);
        e.on_local_interval(iv(1, 0, &[1, 2], &[9, 9]));
        assert_eq!(e.on_child_interval(ProcessId(0), first_child).len(), 1);
        assert_eq!(e.resident(), 1, "the local head stays");
        e
    }

    fn digest_of(e: &NodeEngine) -> u64 {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        e.digest(&mut h);
        h.finish()
    }

    #[test]
    fn engines_whose_state_agrees_digest_alike_whatever_they_emitted_before() {
        // Different first child members, then one more solution each over
        // the same child interval: the queues, the emitted-head marks, the
        // output counters and the last outputs agree.
        let mut a = kept_head_engine(iv(0, 0, &[2, 1], &[3, 3]));
        let mut b = kept_head_engine(iv(0, 7, &[2, 1], &[4, 3]));
        assert_ne!(a.last_output(), b.last_output());
        for e in [&mut a, &mut b] {
            let second = e.on_child_interval(ProcessId(0), iv(0, 8, &[5, 4], &[6, 5]));
            assert_eq!((second.len(), e.resident()), (1, 1));
        }
        assert_eq!(a.last_output(), b.last_output());
        assert_eq!(a.solutions_found(), b.solutions_found());
        assert_eq!(digest_of(&a), digest_of(&b));
    }

    #[test]
    fn reboot_does_not_re_emit_a_kept_head() {
        let mut e = kept_head_engine(iv(0, 0, &[2, 1], &[3, 3]));
        let last = e.last_output().cloned();
        // Dropping child 0's empty queue leaves `Q_0`'s head alone: it was
        // emitted already, so it is pruned and nothing is released.
        e.reboot();
        assert_eq!(e.solutions_found(), 1);
        assert_eq!(e.last_output().cloned(), last);
        assert_eq!(e.resident(), 0);
    }

    #[test]
    fn leaf_forwards_each_local_interval() {
        let mut e = NodeEngine::new(ProcessId(3), &[], false);
        let out = e.on_local_interval(iv(3, 0, &[0, 0, 0, 1], &[0, 0, 0, 2]));
        assert_eq!(out.len(), 1);
        match &out[0] {
            EngineOutput::ToParent { interval: f, .. } => {
                assert!(!f.is_aggregated(), "leaf forwards the raw interval");
                assert_eq!(f.source, ProcessId(3));
                assert_eq!(f.seq, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(e.solutions_found(), 1);
        assert!(e.last_output().is_some());
    }

    #[test]
    fn interior_node_aggregates_solutions() {
        // Node 1 with child 0; both intervals overlap.
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], false);
        assert!(e
            .on_child_interval(ProcessId(0), iv(0, 0, &[1, 0], &[4, 3]))
            .is_empty());
        let out = e.on_local_interval(iv(1, 0, &[2, 1], &[3, 4]));
        assert_eq!(out.len(), 1);
        match &out[0] {
            EngineOutput::ToParent { interval: agg, .. } => {
                assert!(agg.is_aggregated());
                assert_eq!(agg.source, ProcessId(1));
                assert_eq!(agg.coverage.len(), 2);
                // ⊓ bounds: join of lows, meet of highs.
                assert_eq!(agg.lo.components(), &[2, 1]);
                assert_eq!(agg.hi.components(), &[3, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn root_reports_detections() {
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], true);
        e.on_child_interval(ProcessId(0), iv(0, 0, &[1, 0], &[4, 3]));
        let out = e.on_local_interval(iv(1, 0, &[2, 1], &[3, 4]));
        assert!(matches!(out[0], EngineOutput::Detected(_)));
    }

    #[test]
    fn unknown_child_interval_ignored() {
        let mut e = NodeEngine::new(ProcessId(1), &[], false);
        let out = e.on_child_interval(ProcessId(9), iv(0, 0, &[1, 0], &[2, 0]));
        assert!(out.is_empty());
    }

    #[test]
    fn remove_child_releases_blocked_solution() {
        let mut e = NodeEngine::new(ProcessId(0), &[ProcessId(1), ProcessId(2)], true);
        e.on_local_interval(iv(0, 0, &[1, 0, 0], &[4, 3, 0]));
        e.on_child_interval(ProcessId(1), iv(1, 0, &[2, 1, 0], &[3, 4, 0]));
        // Child 2 silent: no solution yet.
        assert_eq!(e.solutions_found(), 0);
        let out = e.remove_child(ProcessId(2));
        assert_eq!(out.len(), 1, "partial predicate over survivors");
        assert!(!e.has_child(ProcessId(2)));
    }

    #[test]
    fn add_child_blocks_until_report() {
        let mut e = NodeEngine::new(ProcessId(0), &[], true);
        // As a root with only Q0, every local interval is a detection.
        assert_eq!(e.on_local_interval(iv(0, 0, &[1, 0], &[2, 0])).len(), 1);
        e.add_child(ProcessId(1));
        assert!(e.on_local_interval(iv(0, 1, &[3, 0], &[4, 1])).is_empty());
        let out = e.on_child_interval(ProcessId(1), iv(1, 0, &[3, 1], &[4, 2]));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn promotion_switches_output_kind() {
        let mut e = NodeEngine::new(ProcessId(0), &[], false);
        assert!(matches!(
            e.on_local_interval(iv(0, 0, &[1], &[2]))[0],
            EngineOutput::ToParent { .. }
        ));
        e.set_root(true);
        assert!(matches!(
            e.on_local_interval(iv(0, 1, &[3], &[4]))[0],
            EngineOutput::Detected(_)
        ));
    }

    #[test]
    fn aggregation_seq_is_monotone() {
        let mut e = NodeEngine::new(ProcessId(1), &[ProcessId(0)], false);
        let mut seqs = Vec::new();
        for k in 0..3u32 {
            e.on_child_interval(
                ProcessId(0),
                iv(
                    0,
                    k as u64,
                    &[10 * k + 1, 10 * k],
                    &[10 * k + 4, 10 * k + 3],
                ),
            );
            let out = e.on_local_interval(iv(
                1,
                k as u64,
                &[10 * k + 2, 10 * k + 1],
                &[10 * k + 3, 10 * k + 4],
            ));
            for o in out {
                if let EngineOutput::ToParent { interval: a, .. } = o {
                    seqs.push(a.seq);
                }
            }
        }
        assert_eq!(seqs, vec![0, 1, 2], "Theorem 2 premise: outputs ordered");
    }
}
