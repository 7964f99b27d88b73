//! The `overlap` condition — `Definitely(Φ)` and `Possibly(Φ)` over
//! interval sets (Eqs. (1) and (2) of the paper).

use crate::interval::Interval;
use crate::summary::SweepSummary;
use ftscp_vclock::{order, OpCounter};

/// Pairwise overlap: `min(x) < max(y) ∧ min(y) < max(x)`.
///
/// `overlap` closed over a set of intervals, one per process, is exactly the
/// Garg–Waldecker condition for `Definitely(Φ)` (Eq. (2)).
pub fn overlap(x: &Interval, y: &Interval) -> bool {
    x.lo.strictly_less(&y.hi) && y.lo.strictly_less(&x.hi)
}

/// Instrumented [`overlap`], billing component inspections to `ops`.
pub fn overlap_counted(x: &Interval, y: &Interval, ops: &OpCounter) -> bool {
    order::strictly_less_counted(&x.lo, &y.hi, ops)
        && order::strictly_less_counted(&y.lo, &x.hi, ops)
}

/// `Definitely(Φ)` over a set `X`: `∀ x_i, x_j ∈ X (i ≠ j): min(x_i) <
/// max(x_j)` (Eq. (2)). The empty set and singletons hold vacuously.
pub fn definitely_holds(set: &[Interval]) -> bool {
    for (i, x) in set.iter().enumerate() {
        for y in set.iter().skip(i + 1) {
            if !overlap(x, y) {
                return false;
            }
        }
    }
    true
}

/// [`definitely_holds`] through the `⊓`-summary gate: each member is
/// first tested against the aggregate of the others in `O(n)`
/// ([`SweepSummary::certify`], Theorem 1); only members the summary
/// cannot certify — a violation, or the rare non-strict tie against the
/// aggregate — fall back to their exact pairwise row. Returns exactly
/// what [`definitely_holds`] returns, in `O(k·n)` instead of `O(k²·n)`
/// when the set mutually overlaps (the expensive case, since
/// non-overlapping pairs short-circuit either way). Billing on `ops`
/// follows the gate/chunked-comparator convention.
pub fn definitely_holds_fast(set: &[Interval], ops: &OpCounter) -> bool {
    if set.len() < 2 {
        return true;
    }
    let head = |b: usize| Some((set[b].lo.components(), set[b].hi.components()));
    let mut summary = SweepSummary::new();
    for (i, x) in set.iter().enumerate() {
        if summary.certify(i, set.len(), head, ops) {
            continue;
        }
        // Exact row: the gate is conservative on ties, so only a pairwise
        // violation is a verdict.
        for (j, y) in set.iter().enumerate() {
            if i != j
                && !(order::strictly_less_chunked_counted(&x.lo, &y.hi, ops)
                    && order::strictly_less_chunked_counted(&y.lo, &x.hi, ops))
            {
                return false;
            }
        }
    }
    true
}

/// `Possibly(Φ)` over a set `X`: `∀ x_i, x_j ∈ X (i ≠ j): max(x_i) ≮
/// min(x_j)` (Eq. (1)) — no interval entirely precedes another.
pub fn possibly_holds(set: &[Interval]) -> bool {
    for (i, x) in set.iter().enumerate() {
        for (j, y) in set.iter().enumerate() {
            if i != j && x.hi.strictly_less(&y.lo) {
                return false;
            }
        }
    }
    true
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

    /// Two intervals that mutually "see into" each other overlap.
    #[test]
    fn overlapping_pair() {
        // P0 interval [1..4]; P1 interval starts after seeing P0's start and
        // ends before P0's end event is known — concurrent enough to overlap.
        let x = iv(0, 0, &[1, 0], &[4, 3]);
        let y = iv(1, 0, &[2, 1], &[3, 4]);
        assert!(overlap(&x, &y));
        assert!(overlap(&y, &x), "overlap is symmetric");
    }

    /// An interval that entirely precedes another does not overlap it.
    #[test]
    fn sequential_pair_does_not_overlap() {
        let x = iv(0, 0, &[1, 0], &[2, 0]);
        let y = iv(1, 0, &[3, 1], &[3, 2]); // starts causally after x ends
        assert!(!overlap(&x, &y));
        // ... but Possibly still holds for (x, y)? No: x entirely precedes y.
        assert!(!possibly_holds(&[x, y]));
    }

    /// Definitely requires every pair to overlap.
    #[test]
    fn definitely_needs_all_pairs() {
        let x = iv(0, 0, &[1, 0, 0], &[5, 4, 4]);
        let y = iv(1, 0, &[1, 1, 0], &[4, 5, 4]);
        let z_bad = iv(2, 0, &[6, 6, 1], &[6, 6, 2]); // after x and y
        assert!(definitely_holds(&[x.clone(), y.clone()]));
        assert!(!definitely_holds(&[x, y, z_bad]));
    }

    /// Definitely implies Possibly (strong modality implies weak).
    #[test]
    fn definitely_implies_possibly() {
        let x = iv(0, 0, &[1, 0], &[4, 3]);
        let y = iv(1, 0, &[2, 1], &[3, 4]);
        let set = [x, y];
        assert!(definitely_holds(&set));
        assert!(possibly_holds(&set));
    }

    /// Concurrent but non-communicating intervals: Possibly holds,
    /// Definitely does not (neither min precedes the other's max).
    #[test]
    fn concurrent_without_communication_is_possibly_only() {
        let x = iv(0, 0, &[1, 0], &[2, 0]);
        let y = iv(1, 0, &[0, 1], &[0, 2]);
        let set = [x, y];
        assert!(possibly_holds(&set));
        assert!(!definitely_holds(&set));
    }

    #[test]
    fn trivial_sets_hold() {
        assert!(definitely_holds(&[]));
        assert!(possibly_holds(&[]));
        let x = iv(0, 0, &[1, 0], &[2, 0]);
        assert!(definitely_holds(std::slice::from_ref(&x)));
        assert!(possibly_holds(std::slice::from_ref(&x)));
    }

    /// `definitely_holds_fast` is a drop-in for `definitely_holds` on
    /// randomized sets spanning certify-clean, tie, and violating cases.
    #[test]
    fn fast_definitely_matches_exact_on_random_sets() {
        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..300 {
            let k = 1 + (rng() % 6) as usize;
            let n = 1 + (rng() % 14) as usize;
            let set: Vec<Interval> = (0..k)
                .map(|p| {
                    let lo: Vec<u32> = (0..n).map(|_| (rng() % 5) as u32).collect();
                    let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 5) as u32).collect();
                    iv(p as u32, 0, &lo, &hi)
                })
                .collect();
            let ops = OpCounter::new();
            assert_eq!(
                definitely_holds_fast(&set, &ops),
                definitely_holds(&set),
                "fast path diverged on {set:?}"
            );
        }
    }

    /// On a mutually overlapping set the gate certifies every member, so
    /// the fast path bills `O(k·n)` words instead of `O(k²·n)` components.
    #[test]
    fn fast_definitely_bills_less_on_overlapping_sets() {
        let k = 8;
        let n = 64;
        // Member p: lo = e_p (its own tick), hi = all 9s — every pair
        // strictly overlaps in both directions.
        let set: Vec<Interval> = (0..k)
            .map(|p| {
                let mut lo = vec![0u32; n];
                lo[p as usize] = 1;
                iv(p, 0, &lo, &vec![9u32; n])
            })
            .collect();
        let fast_ops = OpCounter::new();
        assert!(definitely_holds_fast(&set, &fast_ops));
        let exact_ops = OpCounter::new();
        for (i, x) in set.iter().enumerate() {
            for y in set.iter().skip(i + 1) {
                assert!(overlap_counted(x, y, &exact_ops));
            }
        }
        assert!(
            fast_ops.get() < exact_ops.get(),
            "gate ({}) must beat pairwise ({})",
            fast_ops.get(),
            exact_ops.get()
        );
    }

    #[test]
    fn counted_overlap_matches() {
        let ops = OpCounter::new();
        let x = iv(0, 0, &[1, 0], &[4, 3]);
        let y = iv(1, 0, &[2, 1], &[3, 4]);
        assert_eq!(overlap_counted(&x, &y, &ops), overlap(&x, &y));
        assert!(ops.get() > 0, "comparisons were billed");
    }
}
