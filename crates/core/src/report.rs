//! Detection records.

use ftscp_intervals::{IntervalRef, Solution};
use ftscp_simnet::SimTime;
use ftscp_vclock::ProcessId;

/// One detection of the (possibly partial) global predicate at a tree
/// root.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GlobalDetection {
    /// The node that reported (the tree root at the time).
    pub at_node: ProcessId,
    /// The solution set of queue heads at the root.
    pub solution: Solution,
    /// The local intervals covered — the concrete predicate spans this
    /// occurrence is made of, one (or more across time, never overlapping)
    /// per covered process.
    pub coverage: Vec<IntervalRef>,
    /// Simulated time of the detection (zero for in-memory drivers).
    pub time: SimTime,
}

impl GlobalDetection {
    /// Builds a record from a root solution.
    pub fn new(at_node: ProcessId, solution: Solution, time: SimTime) -> Self {
        let coverage = solution.coverage();
        GlobalDetection {
            at_node,
            solution,
            coverage,
            time,
        }
    }

    /// The processes this detection covers (sorted).
    pub fn covered_processes(&self) -> Vec<ProcessId> {
        let mut p: Vec<ProcessId> = self.coverage.iter().map(|r| r.process).collect();
        p.dedup();
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_intervals::Interval;
    use ftscp_vclock::VectorClock;

    #[test]
    fn coverage_snapshot_taken_at_construction() {
        let iv = Interval::local(
            ProcessId(0),
            0,
            VectorClock::from_components(vec![1, 0]),
            VectorClock::from_components(vec![2, 0]),
        );
        let sol = Solution {
            intervals: vec![iv],
            index: 0,
        };
        let det = GlobalDetection::new(ProcessId(0), sol, SimTime(5));
        assert_eq!(det.covered_processes(), vec![ProcessId(0)]);
        assert_eq!(det.time, SimTime(5));
    }
}
