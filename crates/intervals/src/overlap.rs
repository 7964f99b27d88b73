//! The `overlap` condition — `Definitely(Φ)` and `Possibly(Φ)` over
//! interval sets (Eqs. (1) and (2) of the paper).

use crate::interval::Interval;

/// Pairwise overlap: `min(x) < max(y) ∧ min(y) < max(x)`.
///
/// `overlap` closed over a set of intervals, one per process, is exactly the
/// Garg–Waldecker condition for `Definitely(Φ)` (Eq. (2)).
pub fn overlap(x: &Interval, y: &Interval) -> bool {
    x.lo.strictly_less(&y.hi) && y.lo.strictly_less(&x.hi)
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
}
