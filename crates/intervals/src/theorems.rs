//! Machine-checkable statements of the paper's theorems.
//!
//! These helpers evaluate both sides of each theorem's "iff" on concrete
//! data. The property-test suites sample thousands of random interval sets
//! and assert that the equivalences hold — turning the paper's proofs into
//! executable regression tests for this implementation.

use crate::aggregate::aggregate;
use crate::interval::Interval;
use crate::overlap::{definitely_holds, overlap};
use ftscp_vclock::ProcessId;

/// Theorem 1: for `Z = X ∪ Y`,
/// `overlap(Z) ⇔ overlap(X) ∧ overlap(Y) ∧ overlap(⊓X, ⊓Y)`.
///
/// Returns `(lhs, rhs)` so callers can assert `lhs == rhs`.
pub fn theorem1_sides(x: &[Interval], y: &[Interval]) -> (bool, bool) {
    assert!(
        !x.is_empty() && !y.is_empty(),
        "theorem 1 needs non-empty sets"
    );
    let mut z = x.to_vec();
    z.extend_from_slice(y);
    let lhs = definitely_holds(&z);
    let rhs = definitely_holds(x)
        && definitely_holds(y)
        && overlap(
            &aggregate(x, ProcessId(0), 0, 1),
            &aggregate(y, ProcessId(0), 0, 1),
        );
    (lhs, rhs)
}

/// Lemma 1: for `Z = ∪ X_i`,
/// `overlap(Z) ⇔ ∧ᵢ overlap(X_i) ∧ overlap(⊓X_1, …, ⊓X_d)`.
pub fn lemma1_sides(sets: &[Vec<Interval>]) -> (bool, bool) {
    assert!(
        sets.iter().all(|s| !s.is_empty()),
        "lemma 1 needs non-empty sets"
    );
    let z: Vec<Interval> = sets.iter().flatten().cloned().collect();
    let lhs = definitely_holds(&z);
    let aggs: Vec<Interval> = sets
        .iter()
        .map(|s| aggregate(s, ProcessId(0), 0, 1))
        .collect();
    let rhs = sets.iter().all(|s| definitely_holds(s)) && definitely_holds(&aggs);
    (lhs, rhs)
}

/// Eq. (7): `⊓(⊓X, ⊓Y) = ⊓(X ∪ Y)` (on bounds).
pub fn eq7_holds(x: &[Interval], y: &[Interval]) -> bool {
    let ax = aggregate(x, ProcessId(0), 0, 1);
    let ay = aggregate(y, ProcessId(0), 0, 1);
    let nested = aggregate(&[ax, ay], ProcessId(0), 0, 2);
    let mut z = x.to_vec();
    z.extend_from_slice(y);
    let flat = aggregate(&z, ProcessId(0), 0, 2);
    nested.lo == flat.lo && nested.hi == flat.hi
}

/// Theorem 2, first half: an aggregation of an overlapping set is
/// well-formed (`min(⊓X) ≤ max(⊓X)` component-wise).
pub fn theorem2_well_formed(x: &[Interval]) -> bool {
    if !definitely_holds(x) {
        return true; // precondition not met: vacuous
    }
    aggregate(x, ProcessId(0), 0, 1).is_well_formed()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::VectorClock;

    fn iv(p: u32, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            0,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    fn fig3_x() -> Vec<Interval> {
        vec![
            iv(0, &[2, 1, 0, 0], &[4, 2, 3, 2]),
            iv(2, &[1, 1, 2, 0], &[3, 2, 4, 2]),
        ]
    }

    fn fig3_y() -> Vec<Interval> {
        vec![
            iv(1, &[1, 2, 0, 0], &[3, 4, 3, 2]),
            iv(3, &[1, 1, 1, 2], &[3, 2, 3, 4]),
        ]
    }

    #[test]
    fn theorem1_on_figure3() {
        let (lhs, rhs) = theorem1_sides(&fig3_x(), &fig3_y());
        assert!(lhs && rhs);
    }

    #[test]
    fn theorem1_negative_case() {
        // Y entirely after X: both sides false.
        let x = vec![iv(0, &[1, 0], &[2, 0])];
        let y = vec![iv(1, &[3, 1], &[3, 2])];
        let (lhs, rhs) = theorem1_sides(&x, &y);
        assert!(!lhs && !rhs);
    }

    #[test]
    fn lemma1_with_three_sets() {
        let sets = vec![
            fig3_x(),
            fig3_y(),
            vec![iv(0, &[1, 1, 1, 1], &[3, 2, 3, 2])],
        ];
        let (lhs, rhs) = lemma1_sides(&sets);
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn eq7_on_figure3() {
        assert!(eq7_holds(&fig3_x(), &fig3_y()));
    }

    #[test]
    fn theorem2_well_formedness_on_figure3() {
        assert!(theorem2_well_formed(&fig3_x()));
        assert!(theorem2_well_formed(&fig3_y()));
    }
}
