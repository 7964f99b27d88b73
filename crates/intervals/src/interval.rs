//! The [`Interval`] type: local predicate spans and their aggregations.

use ftscp_vclock::{ProcessId, VectorClock};
use std::fmt;

/// A reference to one *local* interval: the `seq`-th interval at process
/// `process` (0-based). Aggregated intervals carry the set of local
/// intervals they cover as sorted `IntervalRef`s, which lets tests and
/// reports trace any detection back to the concrete predicate spans that
/// produced it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct IntervalRef {
    /// The process at which the local interval occurred.
    pub process: ProcessId,
    /// Zero-based index of the interval in that process's history.
    pub seq: u64,
}

impl fmt::Debug for IntervalRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.process, self.seq)
    }
}

/// Whether an interval is a raw local predicate span or the `⊓`-aggregation
/// of a solution set found lower in the hierarchy.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum IntervalKind {
    /// A maximal span in which one process's local predicate held; bounds
    /// are timestamps of real events.
    Local,
    /// `⊓(X)` for a solution set `X`; bounds are cuts of the execution
    /// (Theorem 1). The payload is the hierarchy level at which the
    /// aggregation was produced (leaves are level 1, as in §IV-A).
    Aggregated {
        /// Hierarchy level of the node that generated the aggregation.
        level: u32,
    },
}

/// An interval: the duration in which a (local or subtree-level) predicate
/// is true, identified by the vector timestamps of its bounds.
///
/// For a local interval, `lo` is the timestamp of the first event of the
/// span (`min(x)` in the paper) and `hi` the timestamp of the last
/// (`max(x)`). For an aggregated interval the bounds are cuts computed by
/// [`crate::aggregate()`](crate::aggregate::aggregate).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Interval {
    /// The process that produced the interval: the owner for local
    /// intervals, the aggregating subtree root for aggregated ones.
    pub source: ProcessId,
    /// Per-source sequence number; `succ(x)` of the paper is the interval
    /// with the same source and the next `seq`.
    pub seq: u64,
    /// `min(x)`: timestamp of the interval's start (or low cut).
    pub lo: VectorClock,
    /// `max(x)`: timestamp of the interval's end (or high cut).
    pub hi: VectorClock,
    /// Local vs aggregated.
    pub kind: IntervalKind,
    /// Sorted refs of every local interval this one covers (itself, for a
    /// local interval).
    pub coverage: Vec<IntervalRef>,
}

impl Interval {
    /// Builds a local interval for `process`'s `seq`-th predicate span.
    pub fn local(process: ProcessId, seq: u64, lo: VectorClock, hi: VectorClock) -> Self {
        debug_assert_eq!(lo.len(), hi.len(), "bound width mismatch");
        Interval {
            source: process,
            seq,
            lo,
            hi,
            kind: IntervalKind::Local,
            coverage: vec![IntervalRef { process, seq }],
        }
    }

    /// Number of processes in the system (width of the bound vectors).
    #[inline]
    pub fn width(&self) -> usize {
        self.lo.len()
    }

    /// True iff this is an aggregated interval.
    #[inline]
    pub fn is_aggregated(&self) -> bool {
        matches!(self.kind, IntervalKind::Aggregated { .. })
    }

    /// The processes whose local intervals this interval covers.
    pub fn covered_processes(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.coverage.iter().map(|r| r.process)
    }

    /// Well-formedness: `lo ≤ hi` component-wise. Holds for local intervals
    /// by construction and for aggregations of overlapping sets by
    /// Theorem 2's first half.
    pub fn is_well_formed(&self) -> bool {
        self.lo.less_eq(&self.hi)
    }

    /// The paper-unit report size in bytes — fixed-width fields, 4 bytes
    /// per clock component ([`crate::codec::encoded_interval_len`]). Used
    /// for message-size accounting; delta frames on a socket are smaller.
    pub fn wire_size(&self) -> usize {
        crate::codec::encoded_interval_len(self)
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.kind {
            IntervalKind::Local => "ivl".to_string(),
            IntervalKind::Aggregated { level } => format!("agg@L{level}"),
        };
        write!(
            f,
            "{}[{}#{} lo={:?} hi={:?}]",
            tag, self.source, self.seq, self.lo, self.hi
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_components(c.to_vec())
    }

    #[test]
    fn local_interval_covers_itself() {
        let iv = Interval::local(ProcessId(2), 5, vc(&[0, 0, 1]), vc(&[0, 0, 4]));
        assert_eq!(
            iv.coverage,
            vec![IntervalRef {
                process: ProcessId(2),
                seq: 5
            }]
        );
        assert!(!iv.is_aggregated());
        assert!(iv.is_well_formed());
        assert_eq!(iv.width(), 3);
    }

    #[test]
    fn covered_processes_lists_owners() {
        let iv = Interval::local(ProcessId(1), 0, vc(&[0, 1]), vc(&[0, 2]));
        let procs: Vec<_> = iv.covered_processes().collect();
        assert_eq!(procs, vec![ProcessId(1)]);
    }

    #[test]
    fn ill_formed_interval_detected() {
        let iv = Interval::local(ProcessId(0), 0, vc(&[5, 0]), vc(&[1, 9]));
        assert!(!iv.is_well_formed());
    }

    #[test]
    fn wire_size_includes_bounds_and_coverage() {
        let iv = Interval::local(ProcessId(0), 0, vc(&[0, 0]), vc(&[1, 1]));
        // source 4 + seq 8 + kind tag 1 + two clocks of (4 + 2·4) bytes
        // + coverage length 4 + one coverage entry 12
        assert_eq!(iv.wire_size(), 4 + 8 + 1 + 12 + 12 + 4 + 12);
    }

    #[test]
    fn debug_format_mentions_kind() {
        let iv = Interval::local(ProcessId(0), 3, vc(&[1]), vc(&[2]));
        assert!(format!("{iv:?}").starts_with("ivl[P0#3"));
    }
}
