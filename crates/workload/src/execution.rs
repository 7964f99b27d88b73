//! The [`Execution`] record type.

use ftscp_intervals::Interval;
use ftscp_vclock::{ProcessId, VectorClock};

/// One event of a process's history: its vector timestamp and the local
/// predicate's value *after* the event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Vector timestamp of the event.
    pub vc: VectorClock,
    /// Local predicate value immediately after the event.
    pub pred: bool,
}

/// A complete synthetic distributed execution: per-process event histories,
/// the local-predicate intervals they induce, and a causally consistent
/// global completion order for the intervals.
#[derive(Clone, Debug, Default)]
pub struct Execution {
    /// Number of processes.
    pub n: usize,
    /// Per-process interval sequences (in local order).
    pub intervals: Vec<Vec<Interval>>,
    /// Per-process event histories (in local order).
    pub events: Vec<Vec<EventRecord>>,
    /// Global completion order of the intervals: `(process, seq)` pairs in
    /// the order the intervals *closed* during generation. Feeding a
    /// detector in this order respects every per-process order.
    pub completion_order: Vec<(ProcessId, u64)>,
    /// Total messages exchanged during generation.
    pub messages: u64,
}

impl Execution {
    /// Intervals of process `p`.
    pub fn intervals_of(&self, p: ProcessId) -> &[Interval] {
        &self.intervals[p.index()]
    }

    /// All intervals, in global completion order (causally consistent).
    pub fn intervals_interleaved(&self) -> Vec<&Interval> {
        self.completion_order
            .iter()
            .map(|(p, seq)| &self.intervals[p.index()][*seq as usize])
            .collect()
    }

    /// Total number of intervals.
    pub fn total_intervals(&self) -> usize {
        self.intervals.iter().map(|v| v.len()).sum()
    }

    /// Total number of events.
    pub fn total_events(&self) -> usize {
        self.events.iter().map(|v| v.len()).sum()
    }

    /// Event histories in the shape the lattice oracle consumes.
    pub fn event_histories(&self) -> Vec<Vec<(VectorClock, bool)>> {
        self.events
            .iter()
            .map(|h| h.iter().map(|e| (e.vc.clone(), e.pred)).collect())
            .collect()
    }

    /// Sanity checks: interval bounds are real event stamps, per-process
    /// interval sequences are causally ordered (Theorem 2's premise), and
    /// the completion order covers every interval exactly once.
    pub fn validate(&self) -> Result<(), String> {
        for (p, seq) in self.intervals.iter().enumerate() {
            for w in seq.windows(2) {
                if !w[0].hi.strictly_less(&w[1].lo) {
                    return Err(format!("process {p}: interval bounds not causally ordered"));
                }
            }
            for iv in seq {
                if !iv.is_well_formed() {
                    return Err(format!("process {p}: ill-formed interval {iv:?}"));
                }
            }
        }
        let mut count = 0usize;
        for (p, seq) in &self.completion_order {
            if self.intervals[p.index()].get(*seq as usize).is_none() {
                return Err(format!("completion order references missing {p}#{seq}"));
            }
            count += 1;
        }
        if count != self.total_intervals() {
            return Err("completion order does not cover all intervals".into());
        }
        Ok(())
    }
}
