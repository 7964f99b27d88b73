//! Solution sets — one detection of `Definitely(Φ)` over a queue bank.

use crate::aggregate::aggregate;
use crate::interval::{Interval, IntervalRef};
use crate::overlap::definitely_holds;
use ftscp_vclock::ProcessId;

/// One satisfaction of `Definitely(Φ)` found by a detector: the mutually
/// overlapping queue heads at the moment of detection (lines (18)–(22) of
/// Algorithm 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Solution {
    /// The member intervals (snapshot of the queue heads).
    pub intervals: Vec<Interval>,
    /// Monotone per-detector solution counter (0-based).
    pub index: u64,
}

impl Solution {
    /// The sorted union of local-interval refs covered by the members —
    /// i.e. which concrete predicate spans this detection is made of.
    pub fn coverage(&self) -> Vec<IntervalRef> {
        let mut cov: Vec<_> = self
            .intervals
            .iter()
            .flat_map(|x| x.coverage.iter().copied())
            .collect();
        cov.sort_unstable();
        cov.dedup();
        cov
    }

    /// Processes covered by this solution.
    pub fn covered_processes(&self) -> Vec<ProcessId> {
        let mut procs: Vec<_> = self.coverage().iter().map(|r| r.process).collect();
        procs.dedup();
        procs
    }

    /// Validates Eq. (2) on the members. Detectors only emit valid
    /// solutions; this is the hook the test-suite oracles use.
    pub fn is_valid(&self) -> bool {
        definitely_holds(&self.intervals)
    }

    /// `⊓` of the members — what a non-root node reports to its parent.
    pub fn aggregated(&self, source: ProcessId, level: u32) -> Interval {
        aggregate(&self.intervals, source, self.index, level)
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

    fn overlapping_pair() -> (Interval, Interval) {
        (iv(0, 3, &[1, 0], &[4, 3]), iv(1, 5, &[2, 1], &[3, 4]))
    }

    #[test]
    fn coverage_is_sorted_union() {
        let (a, b) = overlapping_pair();
        let s = Solution {
            intervals: vec![b, a],
            index: 0,
        };
        assert_eq!(
            s.coverage(),
            vec![
                IntervalRef {
                    process: ProcessId(0),
                    seq: 3
                },
                IntervalRef {
                    process: ProcessId(1),
                    seq: 5
                }
            ]
        );
        assert_eq!(s.covered_processes(), vec![ProcessId(0), ProcessId(1)]);
    }

    #[test]
    fn validity_matches_overlap() {
        let (a, b) = overlapping_pair();
        let good = Solution {
            intervals: vec![a.clone(), b],
            index: 0,
        };
        assert!(good.is_valid());
        let later = iv(1, 6, &[9, 9], &[9, 10]);
        let bad = Solution {
            intervals: vec![a, later],
            index: 1,
        };
        assert!(!bad.is_valid());
    }

    #[test]
    fn aggregated_interval_carries_solution_index_as_seq() {
        let (a, b) = overlapping_pair();
        let s = Solution {
            intervals: vec![a, b],
            index: 9,
        };
        let agg = s.aggregated(ProcessId(7), 2);
        assert_eq!(agg.seq, 9);
        assert_eq!(agg.source, ProcessId(7));
        assert!(agg.is_aggregated());
    }
}
