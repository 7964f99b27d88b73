//! [`ExecutionBuilder`] — an event-level DSL for crafting executions.

use crate::execution::{apply, zero_clocks, Execution, Step, StepKind};
use ftscp_intervals::Interval;
use ftscp_vclock::{ProcessId, VectorClock};

pub use crate::execution::MsgHandle;

/// Builds an execution event by event, computing vector clocks with the
/// update rules of §II-A. Predicate state is toggled with
/// [`begin_interval`](ExecutionBuilder::begin_interval) /
/// [`end_interval`](ExecutionBuilder::end_interval); every operation records
/// one [`Step`]. The only clocks it keeps are each process's current one,
/// the interval bounds and the stamps of messages in flight.
///
/// ```
/// use ftscp_workload::ExecutionBuilder;
/// use ftscp_vclock::ProcessId;
///
/// let mut b = ExecutionBuilder::new(2);
/// let (p0, p1) = (ProcessId(0), ProcessId(1));
/// b.begin_interval(p0);
/// let m = b.send(p0, p1);
/// b.begin_interval(p1);
/// b.recv(p1, m);
/// let m2 = b.send(p1, p0);
/// b.recv(p0, m2);
/// b.end_interval(p0);
/// b.end_interval(p1);
/// let exec = b.finish();
/// assert_eq!(exec.total_intervals(), 2);
/// exec.validate().unwrap();
/// ```
pub struct ExecutionBuilder {
    n: usize,
    /// Current clock per process: the stamp of its last event.
    clocks: Vec<VectorClock>,
    pred: Vec<bool>,
    /// Stamp at which the open interval started, per process.
    open_lo: Vec<Option<VectorClock>>,
    intervals: Vec<Vec<Interval>>,
    steps: Vec<Step>,
    completion_order: Vec<(ProcessId, u64)>,
    /// One slot per message sent, holding its stamp until delivery.
    inflight: Vec<Option<VectorClock>>,
}

impl ExecutionBuilder {
    /// A builder over `n` processes, all predicates initially false.
    pub fn new(n: usize) -> Self {
        ExecutionBuilder {
            n,
            clocks: zero_clocks(n),
            pred: vec![false; n],
            open_lo: vec![None; n],
            intervals: vec![Vec::new(); n],
            steps: Vec::new(),
            completion_order: Vec::new(),
            inflight: Vec::new(),
        }
    }

    fn step(&mut self, p: ProcessId, kind: StepKind) {
        let step = Step {
            process: p,
            pred: self.pred[p.index()],
            kind,
        };
        apply(&mut self.clocks, &mut self.inflight, step).unwrap_or_else(|e| panic!("{e}"));
        self.steps.push(step);
    }

    /// An internal event at `p` (no predicate change).
    pub fn internal(&mut self, p: ProcessId) {
        self.step(p, StepKind::Tick);
    }

    /// An internal event at which `p`'s local predicate becomes true; the
    /// new interval's `min` is this event's stamp.
    ///
    /// # Panics
    ///
    /// Panics if an interval is already open at `p`.
    pub fn begin_interval(&mut self, p: ProcessId) {
        assert!(!self.pred[p.index()], "{p}: interval already open");
        self.pred[p.index()] = true;
        self.step(p, StepKind::Tick);
        self.open_lo[p.index()] = Some(self.clocks[p.index()].clone());
    }

    /// An internal event at which `p`'s local predicate becomes false; the
    /// interval's `max` is the stamp of the *previous* event (the last one
    /// at which the predicate still held), which is `p`'s current clock.
    ///
    /// # Panics
    ///
    /// Panics if no interval is open at `p`.
    pub fn end_interval(&mut self, p: ProcessId) {
        assert!(self.pred[p.index()], "{p}: no open interval");
        let lo = self.open_lo[p.index()].take().expect("open interval");
        let hi = self.clocks[p.index()].clone();
        let seq = self.intervals[p.index()].len() as u64;
        self.intervals[p.index()].push(Interval::local(p, seq, lo, hi));
        self.completion_order.push((p, seq));
        // The closing toggle itself is an event (predicate now false).
        self.pred[p.index()] = false;
        self.step(p, StepKind::Tick);
    }

    /// A send event at `from`; the message can later be delivered with
    /// [`recv`](ExecutionBuilder::recv). Channels are non-FIFO: deliver
    /// handles in any order.
    pub fn send(&mut self, from: ProcessId, to: ProcessId) -> MsgHandle {
        let id = u32::try_from(self.inflight.len()).expect("at most 2^32 messages");
        let h = MsgHandle { id, to };
        self.step(from, StepKind::Send(h));
        h
    }

    /// Delivers message `h` (a receive event at its destination).
    ///
    /// # Panics
    ///
    /// Panics if the handle was already delivered or `to` does not match
    /// the destination given at send time.
    pub fn recv(&mut self, to: ProcessId, h: MsgHandle) {
        self.step(to, StepKind::Recv(h));
    }

    /// Current clock of `p` (for assertions in tests).
    pub fn clock(&self, p: ProcessId) -> &VectorClock {
        &self.clocks[p.index()]
    }

    /// Finalizes the execution.
    ///
    /// # Panics
    ///
    /// Panics if any interval is still open or any message undelivered —
    /// both would make the execution's causal record incomplete.
    pub fn finish(self) -> Execution {
        let undelivered = self.inflight.iter().filter(|m| m.is_some()).count();
        assert!(
            undelivered == 0,
            "finish with {undelivered} undelivered messages"
        );
        self.finish_lossy()
    }

    /// Like [`finish`](ExecutionBuilder::finish) but tolerates undelivered
    /// messages (their sends stay in the log; nothing receives them).
    pub fn finish_lossy(self) -> Execution {
        assert!(
            self.open_lo.iter().all(|o| o.is_none()),
            "finish with open interval"
        );
        Execution {
            n: self.n,
            intervals: self.intervals,
            steps: self.steps,
            completion_order: self.completion_order,
            messages: self.inflight.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_intervals::overlap;

    const P0: ProcessId = ProcessId(0);
    const P1: ProcessId = ProcessId(1);

    #[test]
    fn intervals_record_correct_bounds() {
        let mut b = ExecutionBuilder::new(2);
        b.begin_interval(P0); // stamp [1,0]
        b.internal(P0); // [2,0]
        b.end_interval(P0); // hi = [2,0], closing event [3,0]
        let exec = b.finish();
        let iv = &exec.intervals_of(P0)[0];
        assert_eq!(iv.lo.components(), &[1, 0]);
        assert_eq!(iv.hi.components(), &[2, 0]);
        exec.validate().unwrap();
    }

    #[test]
    fn cross_messages_create_overlap() {
        let mut b = ExecutionBuilder::new(2);
        b.begin_interval(P0);
        let m = b.send(P0, P1);
        b.begin_interval(P1);
        b.recv(P1, m);
        let m2 = b.send(P1, P0);
        b.recv(P0, m2);
        b.end_interval(P0);
        b.end_interval(P1);
        let exec = b.finish();
        let x = &exec.intervals_of(P0)[0];
        let y = &exec.intervals_of(P1)[0];
        assert!(overlap(x, y), "mutual causal crossing ⇒ Definitely");
    }

    #[test]
    fn no_communication_means_no_definitely() {
        let mut b = ExecutionBuilder::new(2);
        b.begin_interval(P0);
        b.end_interval(P0);
        b.begin_interval(P1);
        b.end_interval(P1);
        let exec = b.finish();
        assert!(!overlap(
            &exec.intervals_of(P0)[0],
            &exec.intervals_of(P1)[0]
        ));
    }

    #[test]
    fn non_fifo_delivery_allowed() {
        let mut b = ExecutionBuilder::new(2);
        let m1 = b.send(P0, P1);
        let m2 = b.send(P0, P1);
        b.recv(P1, m2); // overtakes m1
        b.recv(P1, m1);
        let exec = b.finish();
        assert_eq!(exec.messages, 2);
    }

    #[test]
    #[should_panic(expected = "interval already open")]
    fn double_begin_panics() {
        let mut b = ExecutionBuilder::new(1);
        b.begin_interval(P0);
        b.begin_interval(P0);
    }

    #[test]
    #[should_panic(expected = "no open interval")]
    fn end_without_begin_panics() {
        let mut b = ExecutionBuilder::new(1);
        b.end_interval(P0);
    }

    #[test]
    #[should_panic(expected = "undelivered")]
    fn finish_with_inflight_panics() {
        let mut b = ExecutionBuilder::new(2);
        b.send(P0, P1);
        let _ = b.finish();
    }

    #[test]
    fn finish_lossy_drops_inflight() {
        let mut b = ExecutionBuilder::new(2);
        b.send(P0, P1);
        let exec = b.finish_lossy();
        assert_eq!(exec.messages, 1);
    }

    #[test]
    fn completion_order_is_causally_consistent() {
        let mut b = ExecutionBuilder::new(2);
        b.begin_interval(P1);
        b.end_interval(P1);
        b.begin_interval(P0);
        b.end_interval(P0);
        b.begin_interval(P1);
        b.end_interval(P1);
        let exec = b.finish();
        assert_eq!(exec.completion_order, vec![(P1, 0), (P0, 0), (P1, 1)]);
        let interleaved = exec.intervals_interleaved();
        assert_eq!(interleaved.len(), 3);
    }
}
