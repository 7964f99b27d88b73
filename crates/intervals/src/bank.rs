//! [`QueueBank`] — the repeated-detection engine of Algorithm 1.
//!
//! Every node of the hierarchical algorithm runs one `QueueBank` over
//! `1 + l` queues (its own local queue `Q_0` plus one queue per child); the
//! centralized baseline \[12\] runs a single `QueueBank` over `n` queues at
//! the sink. The bank implements, verbatim:
//!
//! * **lines (1)–(17)**: on an enqueue that makes a queue's head fresh, run
//!   the pairwise pruning sweep — for the head `x` of every updated queue
//!   and the head `y` of every other queue, delete `y` if `min(x) ≮ max(y)`
//!   and delete `x` if `min(y) ≮ max(x)` (deletions happen after each
//!   sweep, exactly as line (16) does), iterating until no queue is updated;
//! * **lines (18)–(22)**: if every queue is non-empty afterwards, the heads
//!   mutually overlap — emit them as a [`Solution`];
//! * **lines (23)–(33)**: prune the solution's heads with Eq. (10) and
//!   continue the sweep with the pruned queues, so multiple solutions can
//!   cascade from a single arrival.
//!
//! Queues are identified by stable [`SlotId`]s so the fault-tolerance layer
//! can remove a dead child's queue (§III-F) or add a queue for an adopted
//! child without disturbing the others.

use crate::interval::Interval;
use crate::prune;
use crate::solution::Solution;
use crate::summary::SweepSummary;
use ftscp_vclock::{order, OpCounter};
use std::collections::BTreeSet;
use std::collections::HashSet;
use std::collections::VecDeque;

/// Stable identifier of one queue within a [`QueueBank`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

#[derive(Clone, Debug, Default)]
struct QueueSlot {
    items: VecDeque<Interval>,
    peak_len: usize,
    enqueued: u64,
    discarded: u64,
}

/// Aggregate statistics of a bank, for the space/time reproduction of
/// Table I.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BankStats {
    /// Total intervals ever enqueued.
    pub enqueued: u64,
    /// Intervals deleted by the pairwise sweep (lines (1)–(17)).
    pub swept: u64,
    /// Intervals deleted by the Eq. (10) prune (lines (23)–(33)).
    pub pruned: u64,
    /// Solutions emitted.
    pub solutions: u64,
    /// Peak number of intervals resident across all queues simultaneously.
    pub peak_resident: usize,
    /// Peak length of any single queue.
    pub peak_queue_len: usize,
    /// Sweep visits certified overlap-clean by the `⊓`-summary gate
    /// ([`SweepMode::Aggregate`] only): the whole pairwise row was skipped.
    pub gate_hits: u64,
    /// Sweep visits the summary gate could not certify, falling back to
    /// the pairwise row to identify which head(s) to delete.
    pub gate_misses: u64,
}

/// How the pairwise sweep (lines (1)–(17)) evaluates head-overlap checks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SweepMode {
    /// Recompute both directed comparisons against every other head on
    /// every visit, billing one unit per component — the paper's algorithm
    /// in the paper's unit. Not used by any deployment: it is the reference
    /// the differential tests and benchmarks compare [`Aggregate`] against.
    ///
    /// [`Aggregate`]: SweepMode::Aggregate
    Full,
    /// The engine every deployment runs. Maintain a running per-component
    /// `⊓`-summary of the queue heads ([`SweepSummary`], Theorem 1 /
    /// Lemma 1) and test each sweep visit against the summary in `O(n)`
    /// instead of against all `k − 1` other heads, falling back to the
    /// exact pairwise row only when the summary cannot certify the visit
    /// clean — i.e. only to identify *which* head to delete. All
    /// comparisons (gate and fallback) run through the word-chunked
    /// comparator and bill per
    /// [`CHUNK_WIDTH`](ftscp_vclock::order::CHUNK_WIDTH)-component word.
    /// Deletion, emission, and prune decisions are bit-identical to
    /// [`SweepMode::Full`] — only the traversal and the operation count
    /// change.
    #[default]
    Aggregate,
}

/// Serializable image of one queue (see [`QueueBank::snapshot`]).
#[derive(Clone, Debug)]
pub struct SlotSnapshot {
    /// Resident intervals, front first.
    pub items: Vec<Interval>,
    /// Peak length reached.
    pub peak_len: usize,
    /// Lifetime enqueue count.
    pub enqueued: u64,
    /// Lifetime discard count.
    pub discarded: u64,
}

/// Serializable image of a whole bank (see [`QueueBank::snapshot`]).
#[derive(Clone, Debug)]
pub struct BankSnapshot {
    /// Per-slot state (`None` = removed slot).
    pub slots: Vec<Option<SlotSnapshot>>,
    /// Counters at snapshot time.
    pub stats: BankStats,
    /// Monotone solution counter.
    pub solution_counter: u64,
    /// Emitted-member identity set.
    pub emitted: Vec<(u32, u64, bool)>,
}

/// Identity of an interval in trace events: `(source, seq, aggregated?)`.
pub type TraceId = (u32, u64, bool);

/// One decision taken by the bank, recorded when tracing is enabled via
/// [`QueueBank::with_trace`]. The trace answers the operational question
/// "why was/wasn't the predicate detected?" — every discard says which
/// head doomed it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BankEvent {
    /// An interval joined queue `slot`.
    Enqueued {
        /// Receiving queue.
        slot: SlotId,
        /// Interval identity.
        id: TraceId,
    },
    /// A head was discarded by the pairwise sweep (lines (12)/(14)):
    /// `culprit`'s `min` does not precede `id`'s `max`, so `id` can never
    /// be part of a solution again.
    Swept {
        /// Queue the head was removed from.
        slot: SlotId,
        /// The discarded head.
        id: TraceId,
        /// The head that doomed it.
        culprit: TraceId,
    },
    /// The mutually overlapping heads were emitted as a solution.
    SolutionEmitted {
        /// Solution index.
        index: u64,
        /// Member identities.
        members: Vec<TraceId>,
    },
    /// Heads mutually overlapped but every member had already been part
    /// of an emitted solution (a queue-removal release): suppressed as a
    /// duplicate occurrence.
    SolutionSuppressed {
        /// Member identities.
        members: Vec<TraceId>,
    },
    /// A head was consumed by the post-solution Eq. (10) prune.
    Pruned {
        /// Queue the head was removed from.
        slot: SlotId,
        /// The consumed head.
        id: TraceId,
    },
    /// A queue was removed (dead child).
    QueueRemoved {
        /// The removed queue.
        slot: SlotId,
    },
    /// A queue was added (adopted child).
    QueueAdded {
        /// The new queue.
        slot: SlotId,
    },
}

fn trace_id(iv: &Interval) -> TraceId {
    (iv.source.0, iv.seq, iv.is_aggregated())
}

/// Renders a trace id as `P3#7` (local) or `P3#7⊓` (aggregated).
fn fmt_id(id: &TraceId) -> String {
    format!("P{}#{}{}", id.0, id.1, if id.2 { "⊓" } else { "" })
}

/// Human-readable rendering of a decision trace, one line per event.
pub fn render_trace(events: &[BankEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let line = match ev {
            BankEvent::Enqueued { slot, id } => {
                format!("enqueue  {} → queue {}", fmt_id(id), slot.0)
            }
            BankEvent::Swept { slot, id, culprit } => format!(
                "sweep    {} (queue {}) — min({}) ≮ max({}): can never overlap it again",
                fmt_id(id),
                slot.0,
                fmt_id(culprit),
                fmt_id(id)
            ),
            BankEvent::SolutionEmitted { index, members } => format!(
                "SOLUTION #{index}: {{{}}}",
                members.iter().map(fmt_id).collect::<Vec<_>>().join(", ")
            ),
            BankEvent::SolutionSuppressed { members } => format!(
                "suppress duplicate subset {{{}}}",
                members.iter().map(fmt_id).collect::<Vec<_>>().join(", ")
            ),
            BankEvent::Pruned { slot, id } => format!(
                "prune    {} (queue {}) — Eq. (10): no other max precedes its max",
                fmt_id(id),
                slot.0
            ),
            BankEvent::QueueRemoved { slot } => format!("queue {} removed", slot.0),
            BankEvent::QueueAdded { slot } => format!("queue {} added", slot.0),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// The queue bank: Algorithm 1's per-node state and detection loop.
#[derive(Clone, Debug)]
pub struct QueueBank {
    slots: Vec<Option<QueueSlot>>,
    active: usize,
    ops: OpCounter,
    stats: BankStats,
    solution_counter: u64,
    /// Identities `(source, seq, aggregated?)` of every interval that has
    /// been a member of an emitted solution. A candidate solution with no
    /// fresh member is necessarily a subset of an earlier solution (heads
    /// only ever pop), i.e. a duplicate occurrence released by a queue
    /// removal — it is pruned but not re-emitted.
    emitted: HashSet<(u32, u64, bool)>,
    /// Decision trace (None = disabled).
    trace: Option<Vec<BankEvent>>,
    /// Sweep evaluation strategy.
    mode: SweepMode,
    /// Running `⊓`-summary of the live heads. Maintained only under
    /// [`SweepMode::Aggregate`]; transient (never snapshotted, rebuilt
    /// from the live heads on the next sweep after a restore or a mode
    /// selection). Its rule: [`touch`](SweepSummary::touch) whenever a
    /// head it may hold can have changed — never for a head arriving in an
    /// empty queue, which it cannot hold.
    summary: SweepSummary,
    /// Intervals resident across all queues, kept in step with every push
    /// and pop so the peak statistic costs `O(1)` per enqueue.
    resident: usize,
}

impl QueueBank {
    /// A bank with `queues` initial queues (slots `0..queues`).
    pub fn new(queues: usize) -> Self {
        QueueBank {
            slots: (0..queues).map(|_| Some(QueueSlot::default())).collect(),
            active: queues,
            ops: OpCounter::new(),
            stats: BankStats::default(),
            solution_counter: 0,
            emitted: HashSet::new(),
            trace: None,
            mode: SweepMode::default(),
            summary: SweepSummary::new(),
            resident: 0,
        }
    }

    /// Selects the sweep evaluation strategy; returns `self` for
    /// builder-style use. This is the only way to obtain a
    /// [`SweepMode::Full`] reference bank. Detection outcomes are identical
    /// either way — only the comparison count differs.
    pub fn with_sweep_mode(mut self, mode: SweepMode) -> Self {
        self.mode = mode;
        // Rebuilt from the live heads on the next Aggregate sweep.
        self.summary.touch();
        self
    }

    /// The active sweep evaluation strategy.
    pub fn sweep_mode(&self) -> SweepMode {
        self.mode
    }

    /// Enables decision tracing; events accumulate until drained with
    /// [`take_trace`](Self::take_trace).
    pub fn with_trace(mut self) -> Self {
        self.trace = Some(Vec::new());
        self
    }

    /// Drains and returns the recorded trace (empty if tracing is off).
    pub fn take_trace(&mut self) -> Vec<BankEvent> {
        self.trace.as_mut().map(std::mem::take).unwrap_or_default()
    }

    fn record(&mut self, ev: BankEvent) {
        if let Some(t) = self.trace.as_mut() {
            t.push(ev);
        }
    }

    /// Installs a shared operation counter (for distributed cost
    /// accounting); returns `self` for builder-style use.
    pub fn with_ops_counter(mut self, ops: OpCounter) -> Self {
        self.ops = ops;
        self
    }

    /// The operation counter billed for every vector-clock comparison.
    pub fn ops(&self) -> &OpCounter {
        &self.ops
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> BankStats {
        self.stats
    }

    /// Number of live queues.
    pub fn queue_count(&self) -> usize {
        self.active
    }

    /// Current length of queue `slot` (0 if the slot was removed).
    pub fn queue_len(&self, slot: SlotId) -> usize {
        self.slot(slot).map_or(0, |q| q.items.len())
    }

    /// Current head of queue `slot`.
    pub fn head(&self, slot: SlotId) -> Option<&Interval> {
        self.slot(slot).and_then(|q| q.items.front())
    }

    /// Total intervals currently resident across all queues.
    pub fn resident(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.slots
                .iter()
                .flatten()
                .map(|q| q.items.len())
                .sum::<usize>()
        );
        self.resident
    }

    /// Adds a fresh empty queue, returning its id. Used when a node adopts
    /// a child after a tree reconnection (§III-F).
    ///
    /// An empty queue blocks detection until its first interval arrives, so
    /// adding one never spuriously emits solutions.
    pub fn add_queue(&mut self) -> SlotId {
        // Reuse the first free slot if any, else append.
        for i in 0..self.slots.len() {
            if self.slots[i].is_none() {
                self.slots[i] = Some(QueueSlot::default());
                self.active += 1;
                let slot = SlotId(i as u32);
                self.record(BankEvent::QueueAdded { slot });
                return slot;
            }
        }
        self.slots.push(Some(QueueSlot::default()));
        self.active += 1;
        let slot = SlotId((self.slots.len() - 1) as u32);
        self.record(BankEvent::QueueAdded { slot });
        slot
    }

    /// Removes queue `slot` and its contents — a dead child's queue
    /// (§III-F). Removing a queue can unblock detection among the remaining
    /// queues, so the detection loop reruns; any solutions found are
    /// returned.
    pub fn remove_queue(&mut self, slot: SlotId) -> Vec<Solution> {
        let idx = slot.0 as usize;
        if self.slots.get(idx).and_then(|s| s.as_ref()).is_none() {
            return Vec::new();
        }
        if self.mode == SweepMode::Aggregate {
            self.summary.touch();
        }
        self.resident -= self.queue_len(slot);
        self.slots[idx] = None;
        self.active -= 1;
        self.record(BankEvent::QueueRemoved { slot });
        if self.active == 0 {
            return Vec::new();
        }
        // The remaining heads were already mutually pruned against each
        // other, but the removed queue's emptiness may have been the only
        // thing blocking a solution. Re-run with every non-empty queue
        // marked updated so the solution check fires.
        let updated: BTreeSet<usize> = self
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.as_ref().is_some_and(|q| !q.items.is_empty()))
            .map(|(i, _)| i)
            .collect();
        if updated.is_empty() {
            return Vec::new();
        }
        self.run_detection(updated)
    }

    /// Algorithm 1, lines (1)–(3): enqueue an interval onto queue `slot`
    /// and, if it became the head, run the detection loop. Returns every
    /// solution that cascaded from this arrival.
    ///
    /// # Panics
    ///
    /// Panics if `slot` does not name a live queue — feeding a removed
    /// child's queue is a protocol error the caller must prevent.
    pub fn enqueue(&mut self, slot: SlotId, interval: Interval) -> Vec<Solution> {
        let idx = slot.0 as usize;
        let q = self.slots[idx]
            .as_mut()
            .unwrap_or_else(|| panic!("enqueue on removed queue {slot:?}"));
        let id = trace_id(&interval);
        q.items.push_back(interval);
        q.enqueued += 1;
        q.peak_len = q.peak_len.max(q.items.len());
        let new_len = q.items.len();
        self.stats.enqueued += 1;
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(new_len);
        self.resident += 1;
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident());
        self.record(BankEvent::Enqueued { slot, id });

        if new_len == 1 {
            // No `touch()`: the queue was empty, so the summary holds no
            // head of it.
            self.run_detection(BTreeSet::from([idx]))
        } else {
            Vec::new()
        }
    }

    fn slot(&self, slot: SlotId) -> Option<&QueueSlot> {
        self.slots.get(slot.0 as usize).and_then(|s| s.as_ref())
    }

    /// Pops queue `idx`'s head, returning its trace identity.
    fn pop_head(&mut self, idx: usize, swept: bool) -> Option<TraceId> {
        let q = self.slots[idx].as_mut()?;
        let iv = q.items.pop_front()?;
        q.discarded += 1;
        self.resident -= 1;
        if swept {
            self.stats.swept += 1;
        } else {
            self.stats.pruned += 1;
        }
        if self.mode == SweepMode::Aggregate {
            self.summary.touch();
        }
        Some(trace_id(&iv))
    }

    /// Serializable snapshot of the bank's full state — for checkpointing
    /// a monitor to stable storage so a rebooted node can resume detection
    /// where it left off (crash-*recovery*, complementing the paper's
    /// crash-stop tolerance).
    pub fn snapshot(&self) -> BankSnapshot {
        BankSnapshot {
            slots: self
                .slots
                .iter()
                .map(|s| {
                    s.as_ref().map(|q| SlotSnapshot {
                        items: q.items.iter().cloned().collect(),
                        peak_len: q.peak_len,
                        enqueued: q.enqueued,
                        discarded: q.discarded,
                    })
                })
                .collect(),
            stats: self.stats,
            solution_counter: self.solution_counter,
            emitted: self.emitted.iter().copied().collect(),
        }
    }

    /// Restores a bank from a [`snapshot`](Self::snapshot). A snapshot
    /// carries queue contents and counters only, so everything else is
    /// exactly what [`new`](Self::new) gives: a fresh operation counter
    /// (work done before the crash is not re-billed), tracing off, and the
    /// default sweep engine with a cold summary — whatever mode the bank
    /// ran before the checkpoint. Chain
    /// [`with_sweep_mode`](Self::with_sweep_mode) to restore a
    /// [`SweepMode::Full`] reference bank.
    pub fn restore(snapshot: BankSnapshot) -> QueueBank {
        let slots: Vec<Option<QueueSlot>> = snapshot
            .slots
            .into_iter()
            .map(|s| {
                s.map(|q| QueueSlot {
                    items: q.items.into(),
                    peak_len: q.peak_len,
                    enqueued: q.enqueued,
                    discarded: q.discarded,
                })
            })
            .collect();
        let active = slots.iter().filter(|s| s.is_some()).count();
        let resident = slots.iter().flatten().map(|q| q.items.len()).sum();
        QueueBank {
            slots,
            active,
            resident,
            stats: snapshot.stats,
            solution_counter: snapshot.solution_counter,
            emitted: snapshot.emitted.into_iter().collect(),
            ..QueueBank::new(0)
        }
    }

    /// Returns `(min(x) < max(y), min(y) < max(x))` for `x = head(a)`,
    /// `y = head(b)`, or `None` if either queue lacks a head.
    ///
    /// [`SweepMode::Full`] bills per component, exactly like the paper;
    /// under [`SweepMode::Aggregate`] this is the pairwise fallback row
    /// (the summary gate failed) and runs through the word-chunked
    /// comparator.
    fn head_verdict(&self, a: usize, b: usize) -> Option<(bool, bool)> {
        let x = self.slots.get(a)?.as_ref()?.items.front()?;
        let y = self.slots.get(b)?.as_ref()?.items.front()?;
        Some(match self.mode {
            SweepMode::Full => (
                order::strictly_less_counted(&x.lo, &y.hi, &self.ops),
                order::strictly_less_counted(&y.lo, &x.hi, &self.ops),
            ),
            SweepMode::Aggregate => (
                order::strictly_less_chunked_counted(&x.lo, &y.hi, &self.ops),
                order::strictly_less_chunked_counted(&y.lo, &x.hi, &self.ops),
            ),
        })
    }

    /// The main loop: pairwise sweep to fixpoint, then solution emission and
    /// Eq. (10) pruning, repeated while progress is possible.
    fn run_detection(&mut self, mut updated: BTreeSet<usize>) -> Vec<Solution> {
        let mut solutions = Vec::new();
        loop {
            // Lines (4)–(17): sweep until no queue is updated.
            while !updated.is_empty() {
                let mut new_updated: BTreeSet<usize> = BTreeSet::new();
                let mut culprits: std::collections::BTreeMap<usize, TraceId> =
                    std::collections::BTreeMap::new();
                for &a in &updated {
                    let Some(x_id) = self.slots[a]
                        .as_ref()
                        .and_then(|q| q.items.front())
                        .map(trace_id)
                    else {
                        continue;
                    };
                    if self.mode == SweepMode::Aggregate {
                        // One O(n) test against the ⊓-summary replaces the
                        // O(k·n) pairwise row whenever it certifies that
                        // this visit deletes nothing (the overwhelmingly
                        // common case); the pairwise fallback below runs
                        // only to identify which head(s) to delete.
                        let QueueBank {
                            summary,
                            slots,
                            ops,
                            stats,
                            ..
                        } = self;
                        let head = |b: usize| {
                            let iv = slots[b].as_ref()?.items.front()?;
                            Some((iv.lo.components(), iv.hi.components()))
                        };
                        if summary.certify(a, slots.len(), head, ops) {
                            stats.gate_hits += 1;
                            continue;
                        }
                        stats.gate_misses += 1;
                    }
                    for b in 0..self.slots.len() {
                        if b == a {
                            continue;
                        }
                        let Some((x_lt, y_lt)) = self.head_verdict(a, b) else {
                            continue;
                        };
                        // Line (12): min(x) ≮ max(y) ⇒ y can never join a
                        // solution with x or any successor of x.
                        if !x_lt {
                            new_updated.insert(b);
                            culprits.entry(b).or_insert(x_id);
                        }
                        // Line (14): min(y) ≮ max(x) ⇒ x is doomed likewise.
                        if !y_lt {
                            new_updated.insert(a);
                            let y_id = self.slots[b]
                                .as_ref()
                                .and_then(|q| q.items.front())
                                .map(trace_id)
                                .expect("head_verdict saw a head");
                            culprits.entry(a).or_insert(y_id);
                        }
                    }
                }
                // Line (16): delete the heads marked this sweep.
                for &c in &new_updated {
                    if let Some(id) = self.pop_head(c, true) {
                        if let Some(&culprit) = culprits.get(&c) {
                            self.record(BankEvent::Swept {
                                slot: SlotId(c as u32),
                                id,
                                culprit,
                            });
                        }
                    }
                }
                updated = new_updated;
            }

            // Line (18): solution iff every live queue is non-empty.
            let all_non_empty = self.slots.iter().flatten().all(|q| !q.items.is_empty());
            if self.active == 0 || !all_non_empty {
                return solutions;
            }

            let heads: Vec<Interval> = self
                .slots
                .iter()
                .flatten()
                .map(|q| q.items.front().expect("checked non-empty").clone())
                .collect();
            let head_indices: Vec<usize> = self
                .slots
                .iter()
                .enumerate()
                .filter(|(_, s)| s.is_some())
                .map(|(i, _)| i)
                .collect();

            debug_assert!(
                crate::overlap::definitely_holds(&heads),
                "sweep fixpoint must leave mutually overlapping heads"
            );

            // Lines (23)–(33): the Eq. (10) removal set, computed while the
            // heads are still borrowed so the solution can take them by move.
            let refs: Vec<&Interval> = heads.iter().collect();
            let removable = match self.mode {
                SweepMode::Aggregate => prune::approximate_removals_aggregate(&refs, &self.ops),
                SweepMode::Full => prune::approximate_removals(&refs, &self.ops),
            };

            // Emit only if some member is fresh (see `emitted`).
            let members: Vec<TraceId> = heads.iter().map(trace_id).collect();
            if members.iter().any(|id| !self.emitted.contains(id)) {
                self.emitted.extend(&members);
                self.record(BankEvent::SolutionEmitted {
                    index: self.solution_counter,
                    members,
                });
                solutions.push(Solution {
                    intervals: heads,
                    index: self.solution_counter,
                });
                self.solution_counter += 1;
                self.stats.solutions += 1;
            } else {
                self.record(BankEvent::SolutionSuppressed { members });
            }

            // Continue with the pruned queues.
            debug_assert!(!removable.is_empty(), "Theorem 4: at least one removal");
            let mut pruned = BTreeSet::new();
            for r in &removable {
                let idx = head_indices[*r];
                if let Some(id) = self.pop_head(idx, false) {
                    self.record(BankEvent::Pruned {
                        slot: SlotId(idx as u32),
                        id,
                    });
                }
                pruned.insert(idx);
            }
            if pruned.is_empty() {
                return solutions; // unreachable by Theorem 4; belt & braces
            }
            updated = pruned;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::{ProcessId, VectorClock};

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    #[test]
    fn single_queue_bank_emits_every_interval_as_a_solution() {
        // A leaf node has only its local queue: every local interval is a
        // solution for the (trivial) subtree and is immediately pruned.
        let mut bank = QueueBank::new(1);
        let s0 = bank.enqueue(SlotId(0), iv(0, 0, &[1], &[2]));
        let s1 = bank.enqueue(SlotId(0), iv(0, 1, &[3], &[4]));
        assert_eq!(s0.len(), 1);
        assert_eq!(s1.len(), 1);
        assert_eq!(bank.queue_len(SlotId(0)), 0, "heads pruned after emission");
        assert_eq!(bank.stats().solutions, 2);
    }

    #[test]
    fn two_queue_overlap_detected() {
        let mut bank = QueueBank::new(2);
        assert!(bank
            .enqueue(SlotId(0), iv(0, 0, &[1, 0], &[4, 3]))
            .is_empty());
        let sols = bank.enqueue(SlotId(1), iv(1, 0, &[2, 1], &[3, 4]));
        assert_eq!(sols.len(), 1);
        assert!(sols[0].is_valid());
        assert_eq!(sols[0].intervals.len(), 2);
    }

    #[test]
    fn non_overlapping_heads_are_swept() {
        let mut bank = QueueBank::new(2);
        // a entirely precedes b: when b arrives, a must be swept
        // (min(b) ≮ max(a)), leaving q0 empty and no solution.
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0], &[2, 0]));
        let sols = bank.enqueue(SlotId(1), iv(1, 0, &[3, 1], &[3, 2]));
        assert!(sols.is_empty());
        assert_eq!(bank.queue_len(SlotId(0)), 0, "stale head swept");
        assert_eq!(bank.queue_len(SlotId(1)), 1, "fresh head kept");
        assert_eq!(bank.stats().swept, 1);
    }

    #[test]
    fn repeated_detection_finds_second_solution() {
        let mut bank = QueueBank::new(2);
        // Solution 1: a0 × b0. a0's max dominates b0's max? Construct so
        // only b0 is pruned, then b1 overlaps a0 again → solution 2.
        let a0 = iv(0, 0, &[1, 0], &[6, 5]);
        let b0 = iv(1, 0, &[2, 1], &[3, 2]);
        let b1 = iv(1, 1, &[4, 3], &[5, 4]);
        bank.enqueue(SlotId(0), a0);
        let s1 = bank.enqueue(SlotId(1), b0);
        assert_eq!(s1.len(), 1, "first solution");
        // Only b0 was removable: max(b0)=[3,2] and max(a0)=[6,5];
        // max(b0) < max(a0) so a0 is kept, b0 pruned.
        assert_eq!(bank.queue_len(SlotId(0)), 1);
        assert_eq!(bank.queue_len(SlotId(1)), 0);
        let s2 = bank.enqueue(SlotId(1), b1);
        assert_eq!(s2.len(), 1, "second solution with the same a0");
        assert_eq!(s2[0].index, 1);
    }

    #[test]
    fn cascade_multiple_solutions_from_one_arrival() {
        let mut bank = QueueBank::new(2);
        // Queue 1 accumulates two intervals while queue 0 is empty; then a
        // long interval arrives on queue 0 and pairs with both in one call.
        let b0 = iv(1, 0, &[2, 1], &[3, 2]);
        let b1 = iv(1, 1, &[4, 3], &[5, 4]);
        bank.enqueue(SlotId(1), b0);
        bank.enqueue(SlotId(1), b1);
        let a0 = iv(0, 0, &[1, 0], &[9, 8]);
        let sols = bank.enqueue(SlotId(0), a0);
        assert_eq!(sols.len(), 2, "both pairs detected in cascade");
        assert!(sols.iter().all(|s| s.is_valid()));
    }

    #[test]
    fn remove_queue_unblocks_detection() {
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[4, 3, 0]));
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[3, 4, 0]));
        // Queue 2 is empty: no solution yet.
        assert_eq!(bank.stats().solutions, 0);
        // Child 2 dies; its queue is dropped; the remaining heads overlap.
        let sols = bank.remove_queue(SlotId(2));
        assert_eq!(sols.len(), 1, "partial predicate detected after failure");
        assert_eq!(bank.queue_count(), 2);
    }

    #[test]
    fn add_queue_blocks_until_first_interval() {
        let mut bank = QueueBank::new(1);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0], &[2, 1]));
        // All solutions so far emitted and pruned. Adopt a child:
        let s = bank.add_queue();
        assert_eq!(bank.queue_count(), 2);
        // New interval on q0 alone is no longer a solution.
        let sols = bank.enqueue(SlotId(0), iv(0, 1, &[3, 0], &[4, 1]));
        assert!(sols.is_empty(), "adopted child's empty queue blocks");
        let sols = bank.enqueue(s, iv(1, 0, &[3, 1], &[4, 2]));
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn removed_slot_ids_are_reused() {
        let mut bank = QueueBank::new(2);
        bank.remove_queue(SlotId(1));
        let s = bank.add_queue();
        assert_eq!(s, SlotId(1));
        assert_eq!(bank.queue_count(), 2);
    }

    #[test]
    #[should_panic(expected = "enqueue on removed queue")]
    fn enqueue_on_removed_queue_panics() {
        let mut bank = QueueBank::new(2);
        bank.remove_queue(SlotId(1));
        bank.enqueue(SlotId(1), iv(1, 0, &[0, 1], &[0, 2]));
    }

    #[test]
    fn trace_explains_detection_decisions() {
        let mut bank = QueueBank::new(2).with_trace();
        // a0 entirely precedes b0: swept. Then a1 overlaps b0: solution.
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0], &[2, 0]));
        bank.enqueue(SlotId(1), iv(1, 0, &[3, 1], &[6, 5]));
        bank.enqueue(SlotId(0), iv(0, 1, &[4, 2], &[5, 6]));
        let trace = bank.take_trace();
        // Three enqueues recorded.
        let enqueues = trace
            .iter()
            .filter(|e| matches!(e, BankEvent::Enqueued { .. }))
            .count();
        assert_eq!(enqueues, 3);
        // a0 was swept, and the trace names b0 as the culprit.
        assert!(trace.iter().any(|e| matches!(
            e,
            BankEvent::Swept {
                slot: SlotId(0),
                id: (0, 0, false),
                culprit: (1, 0, false)
            }
        )));
        // One solution emitted with both members.
        assert!(trace.iter().any(|e| match e {
            BankEvent::SolutionEmitted { index: 0, members } => members.len() == 2,
            _ => false,
        }));
        // At least one member pruned afterwards.
        assert!(trace.iter().any(|e| matches!(e, BankEvent::Pruned { .. })));
        // Drained: a second take is empty.
        assert!(bank.take_trace().is_empty());
    }

    #[test]
    fn trace_records_queue_lifecycle_and_suppression() {
        let mut bank = QueueBank::new(3).with_trace();
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[9, 8, 8]));
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[8, 9, 8]));
        bank.enqueue(SlotId(2), iv(2, 0, &[2, 1, 1], &[3, 3, 4]));
        // Solution emitted; prune removed queue 2's head. Removing queue 2
        // releases the subset {q0,q1}: suppressed, not re-emitted.
        bank.remove_queue(SlotId(2));
        let trace = bank.take_trace();
        assert!(trace
            .iter()
            .any(|e| matches!(e, BankEvent::QueueRemoved { slot: SlotId(2) })));
        assert!(trace
            .iter()
            .any(|e| matches!(e, BankEvent::SolutionSuppressed { .. })));
    }

    #[test]
    fn tracing_off_by_default_and_free() {
        let mut bank = QueueBank::new(1);
        bank.enqueue(SlotId(0), iv(0, 0, &[1], &[2]));
        assert!(bank.take_trace().is_empty());
    }

    #[test]
    fn snapshot_restore_round_trips_mid_detection() {
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[6, 5, 5]));
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[5, 6, 5]));
        // Queue 2 empty: detection blocked, state is mid-flight.
        let snap = bank.snapshot();
        let mut restored = QueueBank::restore(snap);
        assert_eq!(restored.queue_count(), bank.queue_count());
        assert_eq!(restored.resident(), bank.resident());
        assert_eq!(restored.stats(), bank.stats());
        // The restored bank completes the detection identically.
        let a = bank.enqueue(SlotId(2), iv(2, 0, &[2, 1, 1], &[5, 5, 6]));
        let b = restored.enqueue(SlotId(2), iv(2, 0, &[2, 1, 1], &[5, 5, 6]));
        assert_eq!(a.len(), 1);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].coverage(), b[0].coverage());
        assert_eq!(a[0].index, b[0].index);
    }

    #[test]
    fn snapshot_preserves_dedup_state() {
        // A solution is emitted, then the bank is snapshotted; the restored
        // bank must not re-emit a subset of it after a queue removal.
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[9, 8, 8]));
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[8, 9, 8]));
        let sols = bank.enqueue(SlotId(2), iv(2, 0, &[2, 1, 1], &[3, 3, 4]));
        assert_eq!(sols.len(), 1);
        // Prune removed queue 2's head (smallest max); 0 and 1 remain.
        let mut restored = QueueBank::restore(bank.snapshot());
        let released = restored.remove_queue(SlotId(2));
        assert!(
            released.is_empty(),
            "subset {{q0,q1}} of the emitted solution must not re-emit"
        );
    }

    #[test]
    fn aggregate_sweep_matches_full_bit_for_bit() {
        // Multi-queue sweep rounds, cascades, and a queue removal: the
        // summary-gated sweep must reproduce every solution, sweep, and
        // prune decision of the paper-unit reference.
        let feed = |bank: &mut QueueBank| {
            let mut sols = Vec::new();
            let seqs: [(u32, u64, [u32; 4], [u32; 4]); 10] = [
                (0, 0, [1, 0, 0, 0], [9, 8, 8, 8]),
                (1, 0, [2, 1, 0, 0], [8, 9, 8, 8]),
                (2, 0, [2, 1, 1, 0], [8, 8, 9, 8]),
                (3, 0, [2, 1, 1, 1], [3, 3, 3, 4]),
                (3, 1, [4, 4, 4, 5], [6, 6, 6, 7]),
                (0, 1, [10, 9, 9, 9], [12, 11, 11, 11]),
                (1, 1, [11, 10, 10, 10], [11, 12, 11, 11]),
                (2, 1, [11, 10, 11, 10], [11, 11, 12, 11]),
                (3, 2, [11, 10, 11, 11], [11, 11, 11, 12]),
                (1, 2, [13, 13, 13, 13], [14, 14, 14, 14]),
            ];
            for (p, seq, lo, hi) in seqs {
                sols.extend(bank.enqueue(SlotId(p), iv(p, seq, &lo, &hi)));
            }
            sols.extend(bank.remove_queue(SlotId(3)));
            sols
        };
        let mut full = QueueBank::new(4).with_sweep_mode(SweepMode::Full);
        let mut agg = QueueBank::new(4).with_sweep_mode(SweepMode::Aggregate);
        let sols_full = feed(&mut full);
        let sols_agg = feed(&mut agg);

        assert_eq!(sols_full.len(), sols_agg.len());
        for (a, b) in sols_full.iter().zip(&sols_agg) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.intervals, b.intervals);
        }
        let fs = full.stats();
        let gs = agg.stats();
        assert_eq!(
            (fs.swept, fs.pruned, fs.solutions),
            (gs.swept, gs.pruned, gs.solutions),
            "sweep/prune decisions diverged"
        );
        assert!(gs.gate_hits > 0, "workload must exercise the summary gate");
        assert_eq!(fs.gate_hits, 0, "full mode never consults the summary");
        assert!(
            agg.ops().get() < full.ops().get(),
            "aggregate ({}) must beat full ({})",
            agg.ops().get(),
            full.ops().get()
        );
    }

    #[test]
    fn aggregate_mode_survives_queue_lifecycle_churn() {
        // Add/remove queue traffic while the summary is live.
        let mut bank = QueueBank::new(2).with_sweep_mode(SweepMode::Aggregate);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[9, 8, 8]));
        let s2 = bank.add_queue();
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[8, 9, 8]));
        let sols = bank.enqueue(s2, iv(2, 0, &[2, 1, 1], &[8, 8, 9]));
        assert_eq!(sols.len(), 1, "three-way overlap detected");
        let sols = bank.remove_queue(s2);
        assert!(sols.is_empty(), "subset re-release suppressed");
        // A second adopted queue reuses the slot, participates and leaves.
        let s3 = bank.add_queue();
        bank.enqueue(s3, iv(7, 0, &[3, 2, 0], &[7, 7, 7]));
        bank.enqueue(SlotId(0), iv(0, 1, &[4, 3, 0], &[7, 8, 7]));
        let sols = bank.enqueue(SlotId(1), iv(1, 1, &[4, 4, 0], &[8, 7, 7]));
        assert_eq!(sols.len(), 1, "solution across local + real + adopted");
        bank.remove_queue(s3);
        assert_eq!(bank.queue_count(), 2);
    }

    #[test]
    fn summary_storage_is_two_rows_however_many_queues() {
        // 64 queues of 64-wide clocks, every one gated at least once
        // (round 0 fills the bank, round 1 revisits after the pops).
        let (k, width) = (64usize, 64usize);
        let mut bank = QueueBank::new(k);
        let mut solutions = 0;
        for round in 0..2u32 {
            for p in 0..k {
                let mut lo = vec![10 * round; width];
                lo[p] += 1;
                let hi = vec![10 * round + 9; width];
                solutions += bank
                    .enqueue(SlotId(p as u32), iv(p as u32, round.into(), &lo, &hi))
                    .len();
            }
        }
        assert_eq!(solutions, 2);
        assert!(bank.stats().gate_hits >= 2 * (k as u64 - 1));
        assert_eq!(bank.summary.storage(), 2 * width);
    }

    #[test]
    fn resident_counter_follows_every_push_and_pop() {
        // Sweeps, a solution's prunes, an added queue that drains, a
        // removed queue with a backlog, and a restore: `resident()` checks
        // the counter against the queues (debug builds) on every call.
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[2, 0, 0]));
        bank.enqueue(SlotId(1), iv(1, 0, &[3, 1, 0], &[9, 9, 8]));
        assert_eq!(bank.resident(), 1, "first head swept by the second");
        bank.enqueue(SlotId(2), iv(2, 0, &[3, 1, 1], &[8, 8, 9]));
        bank.enqueue(SlotId(2), iv(2, 1, &[3, 1, 2], &[8, 8, 10]));
        bank.enqueue(SlotId(2), iv(2, 2, &[3, 1, 3], &[8, 8, 11]));
        assert_eq!(bank.resident(), 4);
        let s3 = bank.add_queue();
        bank.enqueue(s3, iv(7, 0, &[3, 0, 0], &[8, 8, 8]));
        assert_eq!(bank.resident(), 5);
        let sols = bank.enqueue(SlotId(0), iv(0, 1, &[4, 1, 0], &[9, 8, 8]));
        assert_eq!(sols.len(), 1);
        assert_eq!(bank.queue_len(s3), 0, "the added queue's head was pruned");
        bank.remove_queue(s3);
        assert_eq!(
            bank.resident(),
            3,
            "three heads pruned, queue 2 keeps its backlog"
        );
        assert_eq!(bank.stats().peak_resident, 6);
        assert_eq!(QueueBank::restore(bank.snapshot()).resident(), 3);
        assert_eq!(bank.queue_len(SlotId(2)), 2);
        bank.remove_queue(SlotId(2));
        assert_eq!(bank.resident(), 1);
    }

    #[test]
    fn stats_track_peaks() {
        let mut bank = QueueBank::new(2);
        for s in 0..4 {
            bank.enqueue(
                SlotId(1),
                iv(1, s, &[0, 2 * s as u32 + 1], &[0, 2 * s as u32 + 2]),
            );
        }
        assert_eq!(bank.stats().peak_queue_len, 4);
        assert_eq!(bank.stats().peak_resident, 4);
        assert_eq!(bank.resident(), 4);
    }
}
