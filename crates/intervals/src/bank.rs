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
use ftscp_vclock::{order, order::CHUNK_WIDTH, OpCounter, VectorClock};
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Stable identifier of one queue within a [`QueueBank`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u32);

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
    /// The engine every deployment runs. Each overlap test `lo(x) < hi(y)`
    /// of the pairwise row is decided on the components of the processes
    /// `x` covers instead of on all `n` (Fidge and Mattern's own-component
    /// property, plus a `≠` scan for strictness), and each sweep
    /// visit takes whichever of two paths bills less:
    ///
    /// * the **restricted row** against every other live head, which reads
    ///   `(h − 1)·|C(x)| + Σ_{y≠x} |C(y)|` components over `h` live heads
    ///   (`C` a head's coverage), billed one unit per component read — a
    ///   side whose coverage reaches `⌈n/8⌉` processes is tested
    ///   word-chunked instead, at most `⌈n/8⌉` units;
    /// * the **`⊓`-gate**: one test of the visitor against a running
    ///   per-component `⊓`-summary of the other heads ([`SweepSummary`],
    ///   Theorem 1 / Lemma 1), billed two units per
    ///   [`CHUNK_WIDTH`]-component word, `2·⌈n/8⌉` for a whole pass. A gate
    ///   that cannot certify the visit clean falls back to the restricted
    ///   row, solely to identify *which* head to delete.
    ///
    /// The visit takes the row when it reads fewer components than a gate
    /// pass bills, so narrow banks and the lower levels of a tree never
    /// consult the summary, and wide banks of wide heads stay on the gate.
    /// A head whose coverage is empty or names a component `≥ n` is tested
    /// `n`-wide by the word-chunked comparator instead.
    ///
    /// Eq. (10)'s row reads a local disqualifier's `max` on its own
    /// process's component alone (see [`crate::prune`]).
    ///
    /// **Precondition:** every head's `lo` is the join of the start events
    /// of the local intervals its coverage lists, and its `hi` is the
    /// timestamp of a local interval's end event or the meet of such
    /// timestamps — true of every local interval of a vector-clocked
    /// execution and of every `⊓` of such intervals. Under it, deletion,
    /// emission, and prune decisions are bit-identical to
    /// [`SweepMode::Full`]; only the traversal and the operation count
    /// change. Debug builds check every restricted verdict and every
    /// one-component Eq. (10) verdict against the `n`-wide order.
    /// Arbitrary clock data that breaks the precondition belongs on a
    /// `Full` bank.
    #[default]
    Aggregate,
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
    /// Heads mutually overlapped but every member was a member of the
    /// last emitted solution (a queue-removal release): suppressed as a
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
///
/// Its default engine, [`SweepMode::Aggregate`], decides overlap tests on
/// the heads' coverage and so assumes what a vector-clocked execution
/// guarantees: an interval's `lo` is the join of the start events of the
/// local intervals its coverage lists (see [`SweepMode::Aggregate`]).
#[derive(Clone, Debug)]
pub struct QueueBank {
    /// One FIFO queue per slot, front = head; `None` = removed slot.
    slots: Vec<Option<VecDeque<Interval>>>,
    active: usize,
    ops: OpCounter,
    stats: BankStats,
    /// Per slot: its head has been a member of an emitted solution. An
    /// emission marks every live head; a pop, an opened slot and a requeue
    /// clear the mark. Heads only pop, so a candidate whose heads are all
    /// marked is a subset of the last emission — a duplicate occurrence
    /// released by a queue removal — and is pruned but not re-emitted.
    head_emitted: Vec<bool>,
    /// Sum of the live heads' coverage lengths: what a restricted pairwise
    /// row reads, kept in step with every head change so a visit prices
    /// its row in `O(1)`.
    covered: usize,
    /// The slots whose queue has a head: a pairwise row visits these, not
    /// every slot, so a row over `h` heads costs `O(h)` and not `O(k)`,
    /// and line (18) waits while fewer than the live queues have one.
    with_head: SlotSet,
    /// Decision trace (None = disabled).
    trace: Option<Vec<BankEvent>>,
    /// Sweep evaluation strategy.
    mode: SweepMode,
    /// Running `⊓`-summary of the live heads. Maintained only under
    /// [`SweepMode::Aggregate`]; rebuilt from the live heads on the next
    /// sweep after a mode selection. Its rules: [`touch`](SweepSummary::touch) whenever a
    /// head it may hold can have changed, and
    /// [`arrived`](SweepSummary::arrived) — not `touch` — for a head
    /// arriving in an empty queue, which it cannot hold.
    summary: SweepSummary,
    /// Intervals resident across all queues, kept in step with every push
    /// and pop so the peak statistic costs `O(1)` per enqueue.
    resident: usize,
    /// Buffers the detection loop reuses from call to call.
    buffers: LoopBuffers,
}

/// A set of slot indices, one bit each, iterated in ascending order.
#[derive(Clone, Debug, Default)]
struct SlotSet {
    words: Vec<u64>,
}

impl SlotSet {
    fn insert(&mut self, i: usize) {
        let w = i / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        self.words[w] |= 1 << (i % 64);
    }

    fn remove(&mut self, i: usize) {
        if let Some(word) = self.words.get_mut(i / 64) {
            *word &= !(1 << (i % 64));
        }
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w >> (i % 64) & 1 == 1)
    }

    /// The members, ascending.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &bits)| {
            let rest = |b: &u64| Some(b & (b - 1)).filter(|&r| r != 0);
            std::iter::successors(Some(bits).filter(|&b| b != 0), rest)
                .map(move |b| w * 64 + b.trailing_zeros() as usize)
        })
    }
}

/// The detection loop's working sets, owned by the bank so a call
/// allocates nothing for them once they have grown to the bank's width.
#[derive(Clone, Debug, Default)]
struct LoopBuffers {
    /// Queues whose head changed, ascending and distinct: the sweep's
    /// input. Empty between calls; callers push the seed queues.
    updated: Vec<usize>,
    /// Heads the current sweep marked for deletion.
    doomed: Vec<usize>,
    /// `(queue, culprit)` in marking order, first entry per queue wins.
    /// Filled only while tracing.
    culprits: Vec<(usize, TraceId)>,
    /// The live queues, ascending: a solution's members in order.
    live: Vec<usize>,
    /// A solution's heads, in `live` order. Empty between calls: it holds
    /// borrows only while a solution is being emitted.
    heads: Vec<&'static Interval>,
    /// The Eq. (10) removal set: indices into `heads`.
    removable: Vec<usize>,
    /// The strict-leader rows of a wide prune.
    prune: prune::PruneBuffers,
}

/// `v`, emptied, as a vector of another borrow's lifetime on the same
/// allocation: the loop's `heads` outlive no call, but their buffer does.
fn recycle<'b, T>(mut v: Vec<&T>) -> Vec<&'b T> {
    v.clear();
    // An empty `IntoIter` of pointers collected into pointers: the standard
    // library reuses the allocation in place, and the closure never runs.
    v.into_iter().map(|_| unreachable!()).collect()
}

/// `lo(x) < hi` decided on the components of the processes `x` covers,
/// adding to `bill` one unit per component read.
///
/// Fidge and Mattern's own-component property: for an event `e` at
/// process `p` and a cut `f` (an event or a meet of events, as any `hi`
/// is), `V(e) ≤ V(f)` iff `V(e)[p] ≤ V(f)[p]`. When `lo(x)` is the join of
/// the start events of the local intervals its coverage lists, `lo(x) ≤ hi`
/// therefore holds iff it holds on the covered components. Strictness
/// needs more: a covered component with `<` settles it, and failing one,
/// an early-exit scan of the whole clocks for a difference does. The `≤`
/// part alone is not enough even between disjoint subtrees: `lo(x)` can
/// equal a sibling's `hi` exactly.
///
/// Reading the coverage pays only while it is narrower than the clock's
/// `⌈n/8⌉` words: a coverage at least that wide goes straight to the
/// `n`-wide word-chunked comparator, which bills `ops` per word. A
/// coverage that is empty or names a component `≥ n` cannot be read this
/// way and goes there too, on top of the components already read. Debug
/// builds check every verdict against the `n`-wide order.
fn covered_less(x: &Interval, hi: &VectorClock, ops: &OpCounter, bill: &mut u64) -> bool {
    let (lo, up) = (x.lo.components(), hi.components());
    if x.coverage.len() >= lo.len().div_ceil(CHUNK_WIDTH) {
        return order::strictly_less_chunked_counted(&x.lo, hi, ops);
    }
    let mut strict = false;
    let mut fits = !x.coverage.is_empty();
    for c in x.coverage.iter().map(|r| r.process.index()) {
        let (Some(&l), Some(&h)) = (lo.get(c), up.get(c)) else {
            fits = false;
            break;
        };
        *bill += 1;
        if l > h {
            return false;
        }
        strict |= l < h;
    }
    if !fits {
        return order::strictly_less_chunked_counted(&x.lo, hi, ops);
    }
    if !strict {
        // `lo(x) ≤ hi` everywhere: strict iff the clocks differ anywhere.
        let differ = lo.iter().zip(up).position(|(l, h)| l != h);
        *bill += differ.map_or(lo.len(), |i| i + 1) as u64;
        strict = differ.is_some();
    }
    debug_assert_eq!(
        strict,
        order::strictly_less(&x.lo, hi),
        "coverage-restricted verdict diverged for {x:?} against {hi:?}: \
         lo is not the join of its covered starts"
    );
    strict
}

impl QueueBank {
    /// A bank with `queues` initial queues (slots `0..queues`).
    pub fn new(queues: usize) -> Self {
        QueueBank {
            slots: (0..queues).map(|_| Some(VecDeque::new())).collect(),
            active: queues,
            ops: OpCounter::new(),
            stats: BankStats::default(),
            head_emitted: vec![false; queues],
            covered: 0,
            with_head: SlotSet::default(),
            trace: None,
            mode: SweepMode::default(),
            summary: SweepSummary::new(),
            resident: 0,
            buffers: LoopBuffers::default(),
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
        self.slot(slot).map_or(0, |q| q.len())
    }

    /// Current head of queue `slot`.
    pub fn head(&self, slot: SlotId) -> Option<&Interval> {
        self.slot(slot).and_then(|q| q.front())
    }

    /// Feeds into `h` queue `slot`'s contents, front first, with its
    /// emitted-head mark (`None` if the slot was removed).
    pub fn hash_queue(&self, slot: SlotId, h: &mut impl Hasher) {
        let idx = slot.0 as usize;
        self.slot(slot).map(|q| (q, self.head_emitted[idx])).hash(h);
    }

    /// Total intervals currently resident across all queues.
    pub fn resident(&self) -> usize {
        debug_assert_eq!(
            self.resident,
            self.slots.iter().flatten().map(|q| q.len()).sum::<usize>()
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
                self.slots[i] = Some(VecDeque::new());
                self.head_emitted[i] = false;
                self.active += 1;
                let slot = SlotId(i as u32);
                self.record(BankEvent::QueueAdded { slot });
                return slot;
            }
        }
        self.slots.push(Some(VecDeque::new()));
        self.head_emitted.push(false);
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
        self.covered -= self.head(slot).map_or(0, |h| h.coverage.len());
        self.with_head.remove(idx);
        self.slots[idx] = None;
        self.active -= 1;
        self.record(BankEvent::QueueRemoved { slot });
        if self.active == 0 {
            return Vec::new();
        }
        // The remaining heads were already mutually pruned against each
        // other, but the removed queue's emptiness may have been the only
        // thing blocking a solution.
        self.rerun_detection()
    }

    /// Re-runs the detection loop with every non-empty queue marked
    /// updated, so the solution check fires.
    fn rerun_detection(&mut self) -> Vec<Solution> {
        self.buffers.updated.extend(self.with_head.iter());
        self.run_detection()
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
        let cover = interval.coverage.len();
        q.push_back(interval);
        let new_len = q.len();
        self.stats.enqueued += 1;
        self.stats.peak_queue_len = self.stats.peak_queue_len.max(new_len);
        self.resident += 1;
        self.stats.peak_resident = self.stats.peak_resident.max(self.resident());
        self.record(BankEvent::Enqueued { slot, id });

        if new_len == 1 {
            // No `touch()`: the queue was empty, so the summary holds no
            // head of it; announcing the head spares the next visit a scan
            // for it.
            self.covered += cover;
            self.with_head.insert(idx);
            if self.mode == SweepMode::Aggregate {
                self.summary.arrived(idx);
            }
            self.buffers.updated.push(idx);
            self.run_detection()
        } else {
            Vec::new()
        }
    }

    /// Puts the members of a solution this bank emitted back at the heads
    /// of their queues (each `(slot, interval)`, skipped if still there or
    /// the queue is gone), forgets they were emitted and re-runs the
    /// detection loop: §III-F failover of a solution shipped to a parent
    /// that died with it.
    pub fn requeue(&mut self, members: Vec<(SlotId, Interval)>) -> Vec<Solution> {
        for (slot, interval) in members {
            let idx = slot.0 as usize;
            let Some(q) = self.slots.get_mut(idx).and_then(Option::as_mut) else {
                continue;
            };
            if q.front().map(trace_id) != Some(trace_id(&interval)) {
                // An heir requeues its latest emission: a member that left
                // its queue was pruned, and what arrived behind it since
                // has not been emitted.
                debug_assert!(
                    !self.head_emitted[idx],
                    "requeue in front of an emitted head of queue {slot:?}"
                );
                self.with_head.insert(idx);
                let behind = q.front().map_or(0, |h| h.coverage.len());
                self.covered = self.covered - behind + interval.coverage.len();
                q.push_front(interval);
                self.stats.peak_queue_len = self.stats.peak_queue_len.max(q.len());
                self.resident += 1;
                self.stats.peak_resident = self.stats.peak_resident.max(self.resident);
            }
            self.head_emitted[idx] = false;
        }
        if self.mode == SweepMode::Aggregate {
            self.summary.touch();
        }
        self.rerun_detection()
    }

    fn slot(&self, slot: SlotId) -> Option<&VecDeque<Interval>> {
        self.slots.get(slot.0 as usize).and_then(|s| s.as_ref())
    }

    /// Pops queue `idx`'s head.
    fn pop_head(&mut self, idx: usize, swept: bool) -> Option<Interval> {
        let q = self.slots[idx].as_mut()?;
        let iv = q.pop_front()?;
        self.head_emitted[idx] = false;
        self.covered -= iv.coverage.len();
        match q.front() {
            Some(next) => self.covered += next.coverage.len(),
            None => self.with_head.remove(idx),
        }
        self.resident -= 1;
        if swept {
            self.stats.swept += 1;
        } else {
            self.stats.pruned += 1;
        }
        if self.mode == SweepMode::Aggregate {
            self.summary.touch();
        }
        Some(iv)
    }

    /// Returns `(min(x) < max(y), min(y) < max(x))` for two heads.
    ///
    /// [`SweepMode::Full`] compares `n`-wide and bills `ops` per
    /// component, exactly like the paper; under [`SweepMode::Aggregate`]
    /// each test is decided on the coverage of its `min` side
    /// ([`covered_less`]), adding the components it reads to `bill`.
    fn head_verdict(&self, x: &Interval, y: &Interval, bill: &mut u64) -> (bool, bool) {
        match self.mode {
            SweepMode::Full => (
                order::strictly_less_counted(&x.lo, &y.hi, &self.ops),
                order::strictly_less_counted(&y.lo, &x.hi, &self.ops),
            ),
            SweepMode::Aggregate => (
                covered_less(x, &y.hi, &self.ops, bill),
                covered_less(y, &x.hi, &self.ops, bill),
            ),
        }
    }

    /// Whether a visit of head `x` bills less through the `⊓`-gate than
    /// through the restricted row: the row reads `(h − 1)·min(|C(x)|,
    /// ⌈n/8⌉)` for `x`'s side ([`covered_less`] goes word-chunked from
    /// `⌈n/8⌉` covered processes on) and every other live head's coverage
    /// for theirs, a gate pass bills two units per word.
    fn gate_is_cheaper(&self, x: &Interval) -> bool {
        let (live, cover) = (self.with_head.len(), x.coverage.len());
        let words = x.width().div_ceil(CHUNK_WIDTH);
        let row = (live - 1) * cover.min(words) + (self.covered - cover);
        row >= 2 * words
    }

    /// The main loop: pairwise sweep to fixpoint, then solution emission and
    /// Eq. (10) pruning, repeated while progress is possible. The sweep
    /// starts from the queues the caller pushed onto `buffers.updated`.
    fn run_detection(&mut self) -> Vec<Solution> {
        let mut buffers = std::mem::take(&mut self.buffers);
        let solutions = self.detect(&mut buffers);
        self.buffers = buffers;
        solutions
    }

    /// [`run_detection`](Self::run_detection) on buffers taken out of the
    /// bank, so the loop can borrow them beside `self`.
    fn detect(&mut self, s: &mut LoopBuffers) -> Vec<Solution> {
        let tracing = self.trace.is_some();
        let mut solutions = Vec::new();
        loop {
            // Lines (4)–(17): sweep until no queue is updated.
            while !s.updated.is_empty() {
                s.doomed.clear();
                s.culprits.clear();
                for &a in &s.updated {
                    let Some(x) = self.slots[a].as_ref().and_then(|q| q.front()) else {
                        continue;
                    };
                    let x_id = trace_id(x);
                    if self.mode == SweepMode::Aggregate && self.gate_is_cheaper(x) {
                        // One O(n) test against the ⊓-summary replaces a
                        // row that reads more whenever it certifies that
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
                            let iv = slots[b].as_ref()?.front()?;
                            Some((iv.lo.components(), iv.hi.components()))
                        };
                        if summary.certify(a, slots.len(), head, ops) {
                            stats.gate_hits += 1;
                            continue;
                        }
                        stats.gate_misses += 1;
                    }
                    let head = |b: usize| self.slots[b].as_ref().and_then(|q| q.front());
                    let x = head(a).expect("the visited head");
                    // The row's bill, added to the shared counter once.
                    let mut bill = 0;
                    for b in self.with_head.iter() {
                        if b == a {
                            continue;
                        }
                        let y = head(b).expect("a slot with a head");
                        let (x_lt, y_lt) = self.head_verdict(x, y, &mut bill);
                        // Line (12): min(x) ≮ max(y) ⇒ y can never join a
                        // solution with x or any successor of x.
                        if !x_lt {
                            s.doomed.push(b);
                            if tracing {
                                s.culprits.push((b, x_id));
                            }
                        }
                        // Line (14): min(y) ≮ max(x) ⇒ x is doomed likewise.
                        if !y_lt {
                            s.doomed.push(a);
                            if tracing {
                                s.culprits.push((a, trace_id(y)));
                            }
                        }
                    }
                    if bill > 0 {
                        self.ops.add(bill);
                    }
                }
                // Line (16): delete the heads marked this sweep.
                s.doomed.sort_unstable();
                s.doomed.dedup();
                for &c in &s.doomed {
                    let Some(iv) = self.pop_head(c, true) else {
                        continue;
                    };
                    if let Some(&(_, culprit)) = s.culprits.iter().find(|(q, _)| *q == c) {
                        self.record(BankEvent::Swept {
                            slot: SlotId(c as u32),
                            id: trace_id(&iv),
                            culprit,
                        });
                    }
                }
                std::mem::swap(&mut s.updated, &mut s.doomed);
            }

            // Line (18): solution iff every live queue is non-empty.
            let head = |i: usize| self.slots[i].as_ref().and_then(|q| q.front());
            debug_assert_eq!(
                self.covered,
                self.slots
                    .iter()
                    .flatten()
                    .filter_map(|q| q.front())
                    .map(|h| h.coverage.len())
                    .sum::<usize>(),
                "the coverage sum drifted from the heads"
            );
            debug_assert!(
                (0..self.slots.len().max(64 * self.with_head.words.len())).all(|i| {
                    let has_head = self
                        .slots
                        .get(i)
                        .is_some_and(|q| q.as_ref().is_some_and(|q| !q.is_empty()));
                    self.with_head.contains(i) == has_head
                }),
                "the slots with a head drifted from the queues"
            );
            if self.with_head.len() < self.active || self.active == 0 {
                return solutions;
            }
            s.live.clear();
            s.live.extend(self.with_head.iter());

            // Lines (23)–(33): the Eq. (10) removal set, computed while the
            // heads are still borrowed so the solution can take the pruned
            // ones by move.
            let mut heads = recycle(std::mem::take(&mut s.heads));
            heads.extend(s.live.iter().filter_map(|&i| head(i)));
            debug_assert!(
                crate::overlap::definitely_holds(&heads),
                "sweep fixpoint must leave mutually overlapping heads"
            );
            s.removable.clear();
            match self.mode {
                SweepMode::Aggregate => prune::approximate_removals_aggregate(
                    &heads,
                    &self.ops,
                    &mut s.prune,
                    &mut s.removable,
                ),
                SweepMode::Full => s
                    .removable
                    .extend(prune::approximate_removals(&heads, &self.ops)),
            }

            // Emit only if some head is fresh (see `head_emitted`); either
            // way, every live head has now been emitted.
            let fresh = s.live.iter().any(|&i| !self.head_emitted[i]);
            for &i in &s.live {
                self.head_emitted[i] = true;
            }
            if let Some(trace) = self.trace.as_mut() {
                let members = heads.iter().map(|x| trace_id(x)).collect();
                trace.push(if fresh {
                    BankEvent::SolutionEmitted {
                        index: self.stats.solutions,
                        members,
                    }
                } else {
                    BankEvent::SolutionSuppressed { members }
                });
            }

            // Pop the pruned heads into the solution; clone only the heads
            // that stay. Continue with the pruned queues.
            debug_assert!(!s.removable.is_empty(), "Theorem 4: at least one removal");
            let mut intervals = Vec::with_capacity(if fresh { heads.len() } else { 0 });
            s.heads = recycle(heads);
            let mut removable = s.removable.iter().copied().peekable();
            for (r, &idx) in s.live.iter().enumerate() {
                if removable.next_if_eq(&r).is_some() {
                    let iv = self.pop_head(idx, false).expect("a solution member");
                    self.record(BankEvent::Pruned {
                        slot: SlotId(idx as u32),
                        id: trace_id(&iv),
                    });
                    s.updated.push(idx);
                    if fresh {
                        intervals.push(iv);
                    }
                } else if fresh {
                    let stays = self.slots[idx].as_ref().and_then(|q| q.front());
                    intervals.push(stays.expect("a solution member").clone());
                }
            }
            if fresh {
                solutions.push(Solution {
                    intervals,
                    index: self.stats.solutions,
                });
                self.stats.solutions += 1;
            }
            if s.updated.is_empty() {
                return solutions; // unreachable by Theorem 4; belt & braces
            }
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
    fn requeued_solution_is_detected_again_with_a_new_queue() {
        let (a0, b0) = (
            iv(0, 0, &[1, 0, 0], &[4, 3, 3]),
            iv(1, 0, &[2, 1, 1], &[3, 4, 4]),
        );
        let mut bank = QueueBank::new(2);
        bank.enqueue(SlotId(0), a0.clone());
        let sols = bank.enqueue(SlotId(1), b0.clone());
        assert_eq!(sols.len(), 1);
        // The solution went to a parent that died; a sibling's queue opens
        // empty, and the members go back to their queues' heads.
        let sibling = bank.add_queue();
        let members = vec![(SlotId(0), a0.clone()), (SlotId(1), b0.clone())];
        assert!(bank.requeue(members).is_empty(), "the empty queue blocks");
        assert_eq!(bank.resident(), 2);
        let sols = bank.enqueue(sibling, iv(2, 0, &[2, 2, 1], &[3, 3, 4]));
        assert_eq!(sols.len(), 1, "detected again, with the sibling");
        assert_eq!(sols[0].intervals.len(), 3);
        // Without anything to wait for, the members are detected at once.
        let mut bank = QueueBank::new(2);
        bank.enqueue(SlotId(0), a0.clone());
        bank.enqueue(SlotId(1), b0.clone());
        let sols = bank.requeue(vec![(SlotId(0), a0), (SlotId(1), b0)]);
        assert_eq!(sols.len(), 1, "re-emitted, not suppressed");
    }

    #[test]
    fn requeued_members_count_toward_the_peaks() {
        let (a0, b0) = (
            iv(0, 0, &[1, 0, 0], &[4, 3, 3]),
            iv(1, 0, &[2, 1, 1], &[3, 4, 4]),
        );
        let mut bank = QueueBank::new(2);
        bank.enqueue(SlotId(0), a0.clone());
        assert_eq!(bank.enqueue(SlotId(1), b0.clone()).len(), 1);
        assert_eq!(bank.resident(), 0, "concurrent maxes: both pruned");
        // An empty sibling queue blocks detection while queue 1 backs up
        // behind the members that come back.
        bank.add_queue();
        bank.enqueue(SlotId(1), iv(1, 1, &[3, 5, 4], &[3, 6, 4]));
        bank.enqueue(SlotId(1), iv(1, 2, &[3, 7, 4], &[3, 8, 4]));
        assert_eq!(bank.stats().peak_resident, 2);
        assert!(bank
            .requeue(vec![(SlotId(0), a0), (SlotId(1), b0)])
            .is_empty());
        assert_eq!(bank.resident(), 4);
        let stats = bank.stats();
        assert_eq!((stats.peak_resident, stats.peak_queue_len), (4, 3));
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
        // P0 sends at its event 3 (P1's first event receives it) and at
        // its event 6 (P1's event 5); P1 sends at its event 2 (P0's event
        // 4).
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0], &[2, 0]));
        bank.enqueue(SlotId(1), iv(1, 0, &[3, 1], &[6, 5]));
        bank.enqueue(SlotId(0), iv(0, 1, &[4, 2], &[5, 2]));
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
    fn a_queue_removal_re_emits_no_part_of_a_solution() {
        // A solution is emitted; the bank must not re-emit a subset of it
        // after a queue removal.
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[9, 8, 8]));
        bank.enqueue(SlotId(1), iv(1, 0, &[2, 1, 0], &[8, 9, 8]));
        let sols = bank.enqueue(SlotId(2), iv(2, 0, &[2, 1, 1], &[3, 3, 4]));
        assert_eq!(sols.len(), 1);
        // Prune removed queue 2's head (smallest max); 0 and 1 remain.
        let released = bank.remove_queue(SlotId(2));
        assert!(
            released.is_empty(),
            "subset {{q0,q1}} of the emitted solution must not re-emit"
        );
    }

    #[test]
    fn a_reused_slot_opens_unmarked() {
        // c0 has the least max: Eq. (10) prunes it alone, so a0 and b0
        // stay as emitted heads.
        let mut bank = QueueBank::new(3);
        bank.enqueue(SlotId(0), iv(0, 0, &[1, 0, 0], &[9, 8, 8]));
        bank.enqueue(SlotId(1), iv(1, 0, &[0, 1, 0], &[8, 9, 8]));
        let sols = bank.enqueue(SlotId(2), iv(2, 0, &[0, 0, 1], &[5, 5, 5]));
        assert_eq!((sols.len(), bank.resident()), (1, 2));
        // Slot 0 goes with its emitted head and comes back for an adopted
        // child; once queue 2 goes too, the new head and b0 overlap.
        assert!(bank.remove_queue(SlotId(0)).is_empty());
        assert_eq!(bank.add_queue(), SlotId(0));
        bank.enqueue(SlotId(0), iv(3, 0, &[2, 2, 2], &[9, 9, 9]));
        let sols = bank.remove_queue(SlotId(2));
        assert_eq!(sols.len(), 1, "the reused slot's head is fresh");
    }

    #[test]
    fn recycled_heads_keep_their_allocation() {
        let (a, b) = (1u32, 2u32);
        let heads = vec![&a, &b];
        let (ptr, capacity) = (heads.as_ptr() as usize, heads.capacity());
        let heads: Vec<&u32> = recycle(heads);
        assert!(heads.is_empty());
        assert_eq!((heads.as_ptr() as usize, heads.capacity()), (ptr, capacity));
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
        bank.enqueue(s3, iv(7, 0, &[3, 2, 0], &[13, 13, 13]));
        bank.enqueue(SlotId(0), iv(0, 1, &[10, 9, 9], &[12, 10, 10]));
        let sols = bank.enqueue(SlotId(1), iv(1, 1, &[9, 10, 9], &[11, 12, 10]));
        assert_eq!(sols.len(), 1, "solution across local + real + adopted");
        bank.remove_queue(s3);
        assert_eq!(bank.queue_count(), 2);
    }

    #[test]
    fn summary_storage_is_two_rows_however_many_queues() {
        // 64 queues of 8-wide clocks, every one gated at least once
        // (round 0 fills the bank, round 1 revisits after the pops): with
        // two live heads a row already reads as much as a one-word gate
        // pass bills, so every visit but the first of a round takes the
        // gate. Each head's `max` leads its own component (`p mod 8`), so
        // the maxes of distinct components are concurrent, as the Eq.
        // (10) row reads a local head's own component.
        let (k, width) = (64usize, 8usize);
        let mut bank = QueueBank::new(k);
        let mut solutions = 0;
        for round in 0..2u32 {
            for p in 0..k {
                let mut lo = vec![10 * round; width];
                lo[p % width] += 1;
                let mut hi = vec![10 * round + 9; width];
                hi[p % width] += 1;
                solutions += bank
                    .enqueue(SlotId(p as u32), iv(p as u32, round.into(), &lo, &hi))
                    .len();
            }
        }
        assert_eq!(solutions, 2);
        assert!(bank.stats().gate_hits >= 2 * (k as u64 - 1));
        assert_eq!(bank.summary.storage(), 2 * width);
    }

    /// A three-process execution where `lo(x)` equals a sibling's `hi`:
    /// P1 and P2 each send to P0, which receives both, sends back to each,
    /// and each receives. `Y = ⊓` of P1's and P2's intervals has `hi(Y) =
    /// (3,1,1)`, the clock of P0's first send, where P0's interval `x`
    /// starts. The covered component (P0's) says `≤`; only the `≠` step
    /// sees that `lo(x) ≮ hi(Y)`, so line (12) must delete `Y`. Padded with
    /// idle processes to 17 components the bank prices the row below a
    /// gate pass and takes it at once; at 3 components it takes the gate,
    /// which misses and falls back to the row.
    #[test]
    fn a_covered_tie_is_not_strict() {
        for (width, gated) in [(3usize, true), (17, false)] {
            let clock = |c: [u32; 3]| {
                let mut v = c.to_vec();
                v.resize(width, 0);
                v
            };
            let y1 = iv(1, 0, &clock([0, 1, 0]), &clock([3, 2, 1]));
            let y2 = iv(2, 0, &clock([0, 0, 1]), &clock([4, 1, 2]));
            let y = crate::aggregate::aggregate(&[y1, y2], ProcessId(1), 0, 1);
            assert_eq!(y.hi.components()[..3], [3, 1, 1]);
            let x = iv(0, 0, &clock([3, 1, 1]), &clock([4, 1, 1]));
            for mode in [SweepMode::Full, SweepMode::Aggregate] {
                let mut bank = QueueBank::new(2).with_sweep_mode(mode);
                assert!(bank.enqueue(SlotId(1), y.clone()).is_empty());
                assert!(bank.enqueue(SlotId(0), x.clone()).is_empty());
                let stats = bank.stats();
                assert_eq!(
                    (bank.queue_len(SlotId(1)), stats.swept),
                    (0, 1),
                    "{mode:?} at width {width}: Y must be swept"
                );
                assert_eq!(bank.head(SlotId(0)), Some(&x));
                let gate = (stats.gate_hits, stats.gate_misses);
                let expected = (0, u64::from(gated && mode == SweepMode::Aggregate));
                assert_eq!(gate, expected, "{mode:?} at width {width}");
            }
        }
    }

    /// Where Eq. (10)'s one-component reading needs its precondition. P0's
    /// and P1's intervals end at the same vector `⟨2, 2⟩`, which no two
    /// events of an execution share. The `n`-wide order finds neither max
    /// below the other, so Eq. (10) prunes both after their solution, as a
    /// `Full` bank does. Read on its owner's component each max ties with
    /// the other, and for events a tie with another process's local max is
    /// strict, so the default bank would keep both heads: a debug build
    /// stops on the first diverging verdict, a release build keeps them.
    #[test]
    fn a_max_two_processes_share_needs_a_full_bank() {
        let a = iv(0, 0, &[1, 0], &[2, 2]);
        let b = iv(1, 0, &[0, 1], &[2, 2]);
        assert_eq!(crate::prune::own_component_less(&a, &b), Some(true));
        assert!(!ftscp_vclock::order::strictly_less(&a.hi, &b.hi));
        let run = |mode| {
            let mut bank = QueueBank::new(2).with_sweep_mode(mode);
            bank.enqueue(SlotId(0), a.clone());
            let solutions = bank.enqueue(SlotId(1), b.clone()).len();
            (solutions, bank.resident())
        };
        assert_eq!(run(SweepMode::Full), (1, 0));
        let aggregate = std::panic::catch_unwind(|| run(SweepMode::Aggregate));
        if cfg!(debug_assertions) {
            assert!(aggregate.is_err(), "the diverging verdict is caught");
        } else {
            assert_eq!(aggregate.ok(), Some((1, 2)), "both heads kept");
        }
    }

    /// Coverage that cannot index the clocks — a process beyond the width,
    /// or no coverage at all — is decided by the `n`-wide order, on a bank
    /// that prices every visit as a row.
    #[test]
    fn coverage_beyond_the_width_is_tested_n_wide() {
        let width = 17;
        let clock = |c: u32, own: Option<usize>| {
            let mut v = vec![c; width];
            if let Some(p) = own {
                v[p] += 1;
            }
            v
        };
        let mut uncovered = iv(3, 0, &clock(2, Some(3)), &clock(5, Some(3)));
        uncovered.coverage.clear();
        // Each feed with the `(swept, solutions)` it must come to.
        let feeds = [
            // Overlapping heads, one of a process outside the clocks.
            (
                0,
                1,
                vec![
                    (0, iv(0, 0, &clock(1, Some(0)), &clock(6, None))),
                    (1, iv(40, 0, &clock(2, None), &clock(7, None))),
                ],
            ),
            // A head that precedes the other, named out of range: swept.
            (
                1,
                0,
                vec![
                    (0, iv(0, 0, &clock(1, Some(0)), &clock(2, None))),
                    (1, iv(99, 0, &clock(3, None), &clock(4, None))),
                ],
            ),
            // A head with no coverage.
            (
                0,
                1,
                vec![
                    (0, iv(0, 0, &clock(1, Some(0)), &clock(6, None))),
                    (1, uncovered),
                ],
            ),
        ];
        for (case, (swept, solutions, feed)) in feeds.iter().enumerate() {
            let run = |mode| {
                let mut bank = QueueBank::new(2).with_sweep_mode(mode);
                let mut sols = Vec::new();
                for (slot, x) in feed {
                    sols.extend(bank.enqueue(SlotId(*slot), x.clone()));
                }
                (sols, bank.stats())
            };
            let (full, fs) = run(SweepMode::Full);
            let (agg, gs) = run(SweepMode::Aggregate);
            assert_eq!(full, agg, "case {case}");
            assert_eq!((fs.swept, fs.solutions), (*swept, *solutions));
            assert_eq!((fs.swept, fs.solutions), (gs.swept, gs.solutions));
            assert_eq!((gs.gate_hits, gs.gate_misses), (0, 0), "rows, not the gate");
        }
    }

    /// A coverage that reaches the clock's word count is not read: the
    /// test bills what the word-chunked comparator bills. One narrower is
    /// still read a component per covered process.
    #[test]
    fn coverage_as_wide_as_the_words_is_billed_word_chunked() {
        let width = 16; // two words
        let clock = |c: u32| {
            let mut v = vec![0; width];
            v[..3].fill(c);
            v
        };
        let hi = VectorClock::from_components(clock(3));
        let mut x = iv(0, 0, &clock(1), &clock(2));
        for (covers, bill_expected) in [(1u32, 1), (2, 0), (3, 0)] {
            x.coverage = (0..covers)
                .map(|p| crate::IntervalRef {
                    process: ProcessId(p),
                    seq: 0,
                })
                .collect();
            let (ops, mut bill) = (OpCounter::new(), 0);
            assert!(covered_less(&x, &hi, &ops, &mut bill));
            let chunked = OpCounter::new();
            order::strictly_less_chunked_counted(&x.lo, &hi, &chunked);
            let ops_expected = if bill_expected == 0 { chunked.get() } else { 0 };
            assert_eq!(chunked.get(), 2, "a whole two-word pass");
            assert_eq!(
                (bill, ops.get()),
                (bill_expected, ops_expected),
                "|C| = {covers}"
            );
        }
    }

    #[test]
    fn resident_counter_follows_every_push_and_pop() {
        // Sweeps, a solution's prunes, an added queue that drains and a
        // removed queue with a backlog: `resident()` checks
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
