//! The [`Execution`] record type and the step log it is made of.

use ftscp_intervals::Interval;
use ftscp_vclock::{ProcessId, VectorClock};

/// Handle to a message: its index in send order and its destination.
/// Returned by [`ExecutionBuilder::send`](crate::ExecutionBuilder::send)
/// and named by the [`Send`](StepKind::Send) and [`Recv`](StepKind::Recv)
/// steps.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MsgHandle {
    pub(crate) id: u32,
    pub(crate) to: ProcessId,
}

/// What an event does to its process's clock (§II-A).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepKind {
    /// An internal event: tick.
    Tick,
    /// A send: tick, then the message carries the new stamp.
    Send(MsgHandle),
    /// A receive: merge the message's stamp, then tick.
    Recv(MsgHandle),
}

/// One event of an execution, in generation order. It stores no clock:
/// [`Execution::events`] replays the stamps from the log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    /// The process the event happens at.
    pub process: ProcessId,
    /// Local predicate value immediately after the event.
    pub pred: bool,
    /// Internal event, send or receive.
    pub kind: StepKind,
}

/// One event of a process's history, as [`Execution::events`] replays it:
/// its vector timestamp and the local predicate's value *after* the event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// Vector timestamp of the event.
    pub vc: VectorClock,
    /// Local predicate value immediately after the event.
    pub pred: bool,
}

/// `n` zero clocks, one allocation each.
pub(crate) fn zero_clocks(n: usize) -> Vec<VectorClock> {
    (0..n).map(|_| VectorClock::new(n)).collect()
}

/// The §II-A clock rules for one step: an internal event ticks; a send
/// ticks and files the new stamp under its handle in `inflight` (indexed by
/// send order); a receive takes the message's stamp out of `inflight`,
/// merges it and ticks. Afterwards `clocks[step.process]` is the event's
/// stamp. [`ExecutionBuilder`](crate::ExecutionBuilder) and every replay of
/// the log go through this one function.
pub(crate) fn apply(
    clocks: &mut [VectorClock],
    inflight: &mut Vec<Option<VectorClock>>,
    step: Step,
) -> Result<(), String> {
    let p = step.process;
    let clock = clocks
        .get_mut(p.index())
        .ok_or_else(|| format!("step at unknown process {p}"))?;
    match step.kind {
        StepKind::Tick => clock.tick(p),
        StepKind::Send(m) => {
            if m.id as usize != inflight.len() {
                return Err(format!("message {} sent out of order", m.id));
            }
            clock.tick(p);
            inflight.push(Some(clock.clone()));
        }
        StepKind::Recv(m) => {
            if m.to != p {
                return Err(format!("message {} for {} delivered to {p}", m.id, m.to));
            }
            let stamp = inflight
                .get_mut(m.id as usize)
                .and_then(Option::take)
                .ok_or_else(|| format!("message {} already delivered or never sent", m.id))?;
            clock.receive(p, &stamp);
        }
    }
    Ok(())
}

/// A complete synthetic distributed execution: the log of its events, the
/// local-predicate intervals they induce, and a causally consistent global
/// completion order for the intervals.
#[derive(Clone, Debug, Default)]
pub struct Execution {
    /// Number of processes.
    pub n: usize,
    /// Per-process interval sequences (in local order). Their bounds are
    /// the only clocks an execution stores.
    pub intervals: Vec<Vec<Interval>>,
    /// Every event, in generation order. Clocks are not stored;
    /// [`events`](Execution::events) replays them.
    pub steps: Vec<Step>,
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
        self.steps.len()
    }

    /// Per-process event histories (in local order), each event with the
    /// stamp the §II-A rules give it: the step log replayed.
    ///
    /// # Panics
    ///
    /// Panics if the log is inconsistent (see [`validate`](Execution::validate)).
    pub fn events(&self) -> Vec<Vec<EventRecord>> {
        let mut clocks = zero_clocks(self.n);
        let mut inflight = Vec::new();
        let mut events = vec![Vec::new(); self.n];
        for &step in &self.steps {
            apply(&mut clocks, &mut inflight, step).unwrap_or_else(|e| panic!("{e}"));
            let p = step.process.index();
            events[p].push(EventRecord {
                vc: clocks[p].clone(),
                pred: step.pred,
            });
        }
        events
    }

    /// Event histories in the shape the lattice oracle consumes.
    pub fn event_histories(&self) -> Vec<Vec<(VectorClock, bool)>> {
        self.events()
            .into_iter()
            .map(|h| h.into_iter().map(|e| (e.vc, e.pred)).collect())
            .collect()
    }

    /// Sanity checks: interval bounds are real event stamps (`min` is the
    /// stamp of the event that raised the predicate, `max` the stamp of the
    /// last event before it fell), per-process interval sequences are
    /// causally ordered (Theorem 2's premise), and the completion order
    /// covers every interval exactly once. Replays the log once without
    /// storing the histories.
    pub fn validate(&self) -> Result<(), String> {
        if self.intervals.len() != self.n {
            return Err(format!(
                "{} interval sequences for {} processes",
                self.intervals.len(),
                self.n
            ));
        }
        let mut clocks = zero_clocks(self.n);
        let mut inflight = Vec::new();
        let mut open = vec![false; self.n];
        let mut closed = vec![0usize; self.n];
        let bound = |p: usize, seq: usize| {
            self.intervals[p]
                .get(seq)
                .ok_or_else(|| format!("process {p}: interval #{seq} is in the log only"))
        };
        for &step in &self.steps {
            let p = step.process.index();
            if p >= self.n {
                return Err(format!("step at unknown process {}", step.process));
            }
            if open[p] && !step.pred {
                // The predicate falls: `max` is the previous event's stamp,
                // which is still the process's clock.
                if bound(p, closed[p])?.hi != clocks[p] {
                    return Err(format!(
                        "process {p}: max of #{} is not its last event's stamp",
                        closed[p]
                    ));
                }
                closed[p] += 1;
            }
            apply(&mut clocks, &mut inflight, step)?;
            if !open[p] && step.pred && bound(p, closed[p])?.lo != clocks[p] {
                return Err(format!(
                    "process {p}: min of #{} is not the stamp of the event that raised it",
                    closed[p]
                ));
            }
            open[p] = step.pred;
        }
        for (p, seq) in self.intervals.iter().enumerate() {
            if open[p] {
                return Err(format!("process {p}: interval never closed"));
            }
            if closed[p] != seq.len() {
                return Err(format!(
                    "process {p}: {} intervals recorded, {} in the log",
                    seq.len(),
                    closed[p]
                ));
            }
            for (i, iv) in seq.iter().enumerate() {
                if iv.source.index() != p || iv.seq != i as u64 {
                    return Err(format!("process {p}: #{i} is labelled {iv:?}"));
                }
                if !iv.is_well_formed() {
                    return Err(format!("process {p}: ill-formed interval {iv:?}"));
                }
            }
            for w in seq.windows(2) {
                if !w[0].hi.strictly_less(&w[1].lo) {
                    return Err(format!("process {p}: interval bounds not causally ordered"));
                }
            }
        }
        let mut seen: Vec<Vec<bool>> = self
            .intervals
            .iter()
            .map(|s| vec![false; s.len()])
            .collect();
        for &(p, seq) in &self.completion_order {
            let slot = seen
                .get_mut(p.index())
                .and_then(|s| s.get_mut(seq as usize))
                .ok_or_else(|| format!("completion order references missing {p}#{seq}"))?;
            if std::mem::replace(slot, true) {
                return Err(format!("completion order lists {p}#{seq} twice"));
            }
        }
        if self.completion_order.len() != self.total_intervals() {
            return Err("completion order does not cover all intervals".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RandomExecution;

    fn sample() -> Execution {
        let exec = RandomExecution::builder(3)
            .intervals_per_process(4)
            .seed(5)
            .build();
        exec.validate().unwrap();
        exec
    }

    #[test]
    fn completion_order_must_list_each_interval_once() {
        let mut exec = sample();
        // Same length, one entry twice and another never.
        let first = exec.completion_order[0];
        exec.completion_order[1] = first;
        let err = exec.validate().unwrap_err();
        assert!(err.contains("twice"), "{err}");
    }

    #[test]
    fn bounds_must_be_event_stamps() {
        // The last interval of a process, so no causal-order check between
        // neighbours can notice; only the replay can.
        let mut exec = sample();
        let iv = exec.intervals[1].last_mut().unwrap();
        let c = iv.hi.get(1);
        iv.hi.set(1, c + 1);
        assert!(iv.is_well_formed());
        let err = exec.validate().unwrap_err();
        assert!(err.contains("max of #3"), "{err}");

        let mut exec = sample();
        let iv = exec.intervals[2].last_mut().unwrap();
        let c = iv.lo.get(0);
        iv.lo.set(0, c.saturating_sub(1));
        let err = exec.validate().unwrap_err();
        assert!(err.contains("min of #3"), "{err}");
    }

    #[test]
    fn out_of_range_process_is_an_error() {
        let mut exec = sample();
        exec.completion_order[0].0 = ProcessId(3);
        let err = exec.validate().unwrap_err();
        assert!(err.contains("missing P3#"), "{err}");
    }
}
