//! The event queue of the discrete-event core.

use crate::time::SimTime;
use crate::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Opaque token identifying an application timer.
pub type TimerToken = u64;

/// What happens when an event fires.
#[derive(Clone, Debug)]
pub enum EventKind<M> {
    /// End-to-end delivery of an application message at `dst`.
    Deliver {
        /// Originating node.
        src: NodeId,
        /// Receiving node.
        dst: NodeId,
        /// Application payload.
        msg: M,
    },
    /// An application timer fires at `node`.
    Timer {
        /// Owning node.
        node: NodeId,
        /// Token passed back to the application.
        token: TimerToken,
    },
    /// `node` crash-stops.
    Crash {
        /// The failing node.
        node: NodeId,
    },
}

/// A scheduled event. Ordered by `(time, seq)`; `seq` is a global monotone
/// counter that makes simultaneous events deterministic.
#[derive(Clone, Debug)]
pub struct Event<M> {
    /// When the event fires.
    pub time: SimTime,
    /// Determinism tie-breaker.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Min-heap of events with a monotone sequence counter.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
    peak_len: usize,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            peak_len: 0,
        }
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` at `time`.
    pub fn push(&mut self, time: SimTime, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
        self.peak_len = self.peak_len.max(self.heap.len());
    }

    /// Pops the earliest event.
    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The most events that were ever pending at once.
    pub fn peak_len(&self) -> usize {
        self.peak_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.push(
            SimTime(30),
            EventKind::Timer {
                node: NodeId(0),
                token: 3,
            },
        );
        q.push(
            SimTime(10),
            EventKind::Timer {
                node: NodeId(0),
                token: 1,
            },
        );
        q.push(
            SimTime(20),
            EventKind::Timer {
                node: NodeId(0),
                token: 2,
            },
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo_by_seq() {
        let mut q: EventQueue<()> = EventQueue::new();
        for token in 0..5 {
            q.push(
                SimTime(7),
                EventKind::Timer {
                    node: NodeId(0),
                    token,
                },
            );
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4], "insertion order preserved");
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime(9), EventKind::Crash { node: NodeId(1) });
        q.push(SimTime(4), EventKind::Crash { node: NodeId(2) });
        assert_eq!(q.peek_time(), Some(SimTime(4)));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random pushes and pops, times drawn from a handful of values so
        /// that most pops are decided by `seq`: the queue agrees with a
        /// sorted reference at every step, high-water mark included.
        #[test]
        fn matches_sorted_reference(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut q: EventQueue<()> = EventQueue::new();
            let mut reference: Vec<(SimTime, u64)> = Vec::new();
            let mut pushed = 0u64;
            let mut peak = 0usize;
            for _ in 0..600 {
                // Mostly growing, then mostly draining.
                let push_bias = if pushed < 250 { 0.7 } else { 0.4 };
                if rng.gen::<f64>() < push_bias {
                    let time = SimTime(rng.gen_range(0..6u64));
                    q.push(time, EventKind::Timer { node: NodeId(0), token: pushed });
                    let at = reference.partition_point(|&key| key <= (time, pushed));
                    reference.insert(at, (time, pushed));
                    pushed += 1;
                } else {
                    let want = (!reference.is_empty()).then(|| reference.remove(0));
                    let got = q.pop().map(|e| match e.kind {
                        EventKind::Timer { token, .. } => (e.time, e.seq, token),
                        _ => unreachable!(),
                    });
                    prop_assert_eq!(got, want.map(|(time, seq)| (time, seq, seq)));
                }
                peak = peak.max(reference.len());
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.first().map(|&(time, _)| time));
                prop_assert_eq!(q.peak_len(), peak);
            }
        }
    }
}
