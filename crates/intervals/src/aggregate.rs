//! The aggregation function `⊓` (Eqs. (5)/(6), Theorem 1).

use crate::interval::{Interval, IntervalKind, IntervalRef};
use ftscp_vclock::{ProcessId, VectorClock};

/// `⊓(X)`: component-wise **max** of the low bounds (Eq. (5)) and
/// component-wise **min** of the high bounds (Eq. (6)).
///
/// The resulting bounds are *cuts* of the execution, not event timestamps.
/// `source`/`seq` identify the aggregating node and its solution counter;
/// `level` records the hierarchy level for diagnostics. Coverage is the
/// sorted union of the members' coverages.
///
/// Both bounds come from one pass over the members
/// ([`VectorClock::join_meet_all`]); the coverage is a merge of the
/// members' sorted runs into one buffer of their total length.
///
/// # Panics
///
/// Panics if `set` is empty. The `overlap(X)` precondition of Theorem 1 is
/// the caller's to establish.
pub fn aggregate(set: &[Interval], source: ProcessId, seq: u64, level: u32) -> Interval {
    assert!(!set.is_empty(), "cannot aggregate an empty interval set");
    let (lo, hi) = VectorClock::join_meet_all(set, |x| (&x.lo, &x.hi));
    let mut coverage = Vec::with_capacity(set.iter().map(|x| x.coverage.len()).sum());
    for x in set {
        merge_run(&mut coverage, &x.coverage);
    }
    coverage.dedup();
    Interval {
        source,
        seq,
        lo,
        hi,
        kind: IntervalKind::Aggregated { level },
        coverage,
    }
}

/// Merges the sorted `run` into the sorted `out` in place, filling from the
/// back; a run that starts past `out`'s end is appended as it is.
fn merge_run(out: &mut Vec<IntervalRef>, run: &[IntervalRef]) {
    debug_assert!(run.is_sorted(), "coverage must be sorted");
    let mut i = out.len();
    out.extend_from_slice(run);
    if i == 0 || run.first().is_none_or(|r| out[i - 1] <= *r) {
        return;
    }
    let mut j = run.len();
    for w in (0..out.len()).rev() {
        if j == 0 {
            break;
        }
        if i > 0 && out[i - 1] > run[j - 1] {
            i -= 1;
            out[w] = out[i];
        } else {
            j -= 1;
            out[w] = run[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::overlap::{definitely_holds, overlap};

    fn vc(c: &[u32]) -> VectorClock {
        VectorClock::from_components(c.to_vec())
    }

    fn iv(p: u32, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(ProcessId(p), 0, vc(lo), vc(hi))
    }

    /// The worked example of the paper's Figure 3: four processes, sets
    /// X = {x1 (P1), x2 (P3)} and Y = {y1 (P2), y2 (P4)} with overlap(X)
    /// and overlap(Y), where Definitely(Φ) holds for the union.
    ///
    /// The published figure is an image; the timestamps below are a faithful
    /// reconstruction with the same structure (1-indexed processes in the
    /// paper map to components 0..3 here).
    fn figure3_sets() -> (Vec<Interval>, Vec<Interval>) {
        // X: x1 at P1, x2 at P3.
        let x1 = iv(0, &[2, 1, 0, 0], &[4, 2, 3, 2]);
        let x2 = iv(2, &[1, 1, 2, 0], &[3, 2, 4, 2]);
        // Y: y1 at P2, y2 at P4.
        let y1 = iv(1, &[1, 2, 0, 0], &[3, 4, 3, 2]);
        let y2 = iv(3, &[1, 1, 1, 2], &[3, 2, 3, 4]);
        (vec![x1, x2], vec![y1, y2])
    }

    #[test]
    fn figure3_sets_overlap_individually() {
        let (x, y) = figure3_sets();
        assert!(definitely_holds(&x), "overlap(X) per the paper");
        assert!(definitely_holds(&y), "overlap(Y) per the paper");
    }

    #[test]
    fn aggregation_bounds_are_componentwise_extrema() {
        let (x, _) = figure3_sets();
        let agg = aggregate(&x, ProcessId(0), 0, 2);
        // u = component-wise max of min(x1), min(x2)
        assert_eq!(agg.lo.components(), &[2, 1, 2, 0]);
        // v = component-wise min of max(x1), max(x2)
        assert_eq!(agg.hi.components(), &[3, 2, 3, 2]);
        assert!(agg.is_aggregated());
        assert!(agg.is_well_formed());
    }

    /// Theorem 1 on the Figure 3 data: overlap(⊓X, ⊓Y) together with
    /// overlap(X), overlap(Y) implies overlap(X ∪ Y).
    #[test]
    fn figure3_union_detected_via_aggregates() {
        let (x, y) = figure3_sets();
        let ax = aggregate(&x, ProcessId(0), 0, 2);
        let ay = aggregate(&y, ProcessId(1), 0, 2);
        assert!(overlap(&ax, &ay), "aggregates overlap");
        let mut union = x.clone();
        union.extend(y.clone());
        assert!(
            definitely_holds(&union),
            "so the union satisfies Definitely"
        );
    }

    /// Eq. (7): ⊓(⊓X, ⊓Y) = ⊓(X ∪ Y) (bounds-wise).
    #[test]
    fn aggregation_is_associative_over_union() {
        let (x, y) = figure3_sets();
        let ax = aggregate(&x, ProcessId(0), 0, 2);
        let ay = aggregate(&y, ProcessId(1), 0, 2);
        let nested = aggregate(&[ax, ay], ProcessId(0), 1, 3);
        let mut union = x;
        union.extend(y);
        let flat = aggregate(&union, ProcessId(0), 1, 3);
        assert_eq!(nested.lo, flat.lo);
        assert_eq!(nested.hi, flat.hi);
        assert_eq!(nested.coverage, flat.coverage);
    }

    #[test]
    fn coverage_union_is_sorted_and_deduped() {
        let (x, y) = figure3_sets();
        let mut union = x;
        union.extend(y);
        let agg = aggregate(&union, ProcessId(0), 0, 2);
        let procs: Vec<_> = agg.covered_processes().collect();
        assert_eq!(
            procs,
            vec![ProcessId(0), ProcessId(1), ProcessId(2), ProcessId(3)]
        );
    }

    /// The run-by-run merge equals the concatenate-sort-dedup of the
    /// coverages it replaces: interleaved, nested, disjoint, duplicated
    /// and empty runs, in every order of up to five members.
    #[test]
    fn coverage_merge_equals_sorted_union() {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..500 {
            let k = 1 + (rng() % 5) as usize;
            let set: Vec<Interval> = (0..k)
                .map(|_| {
                    let mut x = iv(0, &[0], &[1]);
                    x.coverage = (0..rng() % 6)
                        .map(|_| IntervalRef {
                            process: ProcessId((rng() % 12) as u32),
                            seq: rng() % 2,
                        })
                        .collect();
                    x.coverage.sort_unstable();
                    x.coverage.dedup();
                    x
                })
                .collect();
            let mut expected: Vec<_> = set.iter().flat_map(|x| x.coverage.clone()).collect();
            expected.sort_unstable();
            expected.dedup();
            let agg = aggregate(&set, ProcessId(0), 0, 1);
            assert_eq!(agg.coverage, expected, "round {round}");
        }
    }

    #[test]
    #[should_panic(expected = "cannot aggregate an empty interval set")]
    fn empty_set_is_rejected() {
        aggregate(&[], ProcessId(0), 0, 1);
    }

    #[test]
    fn singleton_aggregation_is_identity_on_bounds() {
        let a = iv(0, &[1, 0], &[2, 0]);
        let agg = aggregate(std::slice::from_ref(&a), ProcessId(0), 7, 1);
        assert_eq!(agg.lo, a.lo);
        assert_eq!(agg.hi, a.hi);
        assert_eq!(agg.seq, 7);
    }
}
