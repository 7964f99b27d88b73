//! The partial order on vector timestamps, with instrumented variants.
//!
//! The paper's detection conditions are phrased in terms of the strict
//! component order `<` on vector timestamps:
//!
//! * `Definitely(Φ)` over a set `X` of intervals requires
//!   `∀ x_i, x_j ∈ X: min(x_i) < max(x_j)` (Eq. (2));
//! * the repeated-detection prune rule tests `max(x_j) ≮ max(x_i)`
//!   (Eq. (10)).
//!
//! Each comparison of two length-`n` vectors inspects up to `n` components;
//! §IV-C of the paper charges `O(n)` per comparison. The `*_counted`
//! functions bill the *exact* number of components inspected to an
//! [`OpCounter`], which is how the benchmark harness reproduces the paper's
//! time-complexity accounting.

use crate::clock::VectorClock;
use crate::counter::OpCounter;

/// Outcome of comparing two vector timestamps under the component order.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ClockOrd {
    /// All components equal.
    Equal,
    /// `a < b`: every component `≤`, at least one strictly smaller.
    Less,
    /// `b < a`.
    Greater,
    /// Incomparable — the corresponding events are concurrent.
    Concurrent,
}

/// Full comparison of `a` and `b` under the component order.
pub fn compare(a: &VectorClock, b: &VectorClock) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    let mut less = false;
    let mut greater = false;
    for i in 0..a.len() {
        let (x, y) = (a.get(i), b.get(i));
        if x < y {
            less = true;
        } else if x > y {
            greater = true;
        }
        if less && greater {
            return ClockOrd::Concurrent;
        }
    }
    match (less, greater) {
        (false, false) => ClockOrd::Equal,
        (true, false) => ClockOrd::Less,
        (false, true) => ClockOrd::Greater,
        (true, true) => unreachable!("early return above"),
    }
}

/// Strict order `a < b` (happens-before on event timestamps).
pub fn strictly_less(a: &VectorClock, b: &VectorClock) -> bool {
    compare(a, b) == ClockOrd::Less
}

/// True iff `a` and `b` are incomparable.
pub fn concurrent(a: &VectorClock, b: &VectorClock) -> bool {
    compare(a, b) == ClockOrd::Concurrent
}

/// Instrumented [`compare`]: bills one unit per component inspected to
/// `ops`.
pub fn compare_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    let mut less = false;
    let mut greater = false;
    let mut inspected = 0u64;
    let mut result = None;
    for i in 0..a.len() {
        inspected += 1;
        let (x, y) = (a.get(i), b.get(i));
        if x < y {
            less = true;
        } else if x > y {
            greater = true;
        }
        if less && greater {
            result = Some(ClockOrd::Concurrent);
            break;
        }
    }
    ops.add(inspected);
    result.unwrap_or_else(|| match (less, greater) {
        (false, false) => ClockOrd::Equal,
        (true, false) => ClockOrd::Less,
        (false, true) => ClockOrd::Greater,
        (true, true) => unreachable!("early return above"),
    })
}

/// Instrumented strict order `a < b`.
pub fn strictly_less_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> bool {
    compare_counted(a, b, ops) == ClockOrd::Less
}

/// Components folded per billed unit by the word-chunked comparator: one
/// 256-bit lane of `u32`s, the natural width of the autovectorized loop.
pub const CHUNK_WIDTH: usize = 8;

/// Per-lane order flags of one [`CHUNK_WIDTH`]-component chunk, computed
/// over `u64` machine words holding two adjacent `u32` components each.
///
/// A single 64-bit equality test retires both packed components at once —
/// the common all-equal pair contributes nothing to either flag and skips
/// its lane compares entirely; only differing pairs fall through to the
/// per-half `<`/`>` tests. Returns `(less, greater)` exactly as the
/// unpacked per-lane loop would.
#[inline]
fn chunk_flags_u64(wa: &[u32], wb: &[u32]) -> (bool, bool) {
    let mut l = 0u32;
    let mut g = 0u32;
    for k in 0..CHUNK_WIDTH / 2 {
        let (a0, a1) = (wa[2 * k], wa[2 * k + 1]);
        let (b0, b1) = (wb[2 * k], wb[2 * k + 1]);
        let pa = u64::from(a0) | (u64::from(a1) << 32);
        let pb = u64::from(b0) | (u64::from(b1) << 32);
        if pa != pb {
            l |= u32::from(a0 < b0) | u32::from(a1 < b1);
            g |= u32::from(a0 > b0) | u32::from(a1 > b1);
        }
    }
    (l != 0, g != 0)
}

/// Word-chunked [`compare`]: identical verdict to the scalar comparator,
/// different traversal and different cost unit.
///
/// The loop folds [`CHUNK_WIDTH`] components per iteration, packed two
/// components per `u64` machine word (`chunk_flags_u64`): an equal pair
/// is retired by one 64-bit compare, and only differing pairs pay the
/// per-half order tests. Early exit happens at chunk granularity once
/// both order flags are set (concurrency is decided). Billing follows the
/// traversal: **one unit per [`CHUNK_WIDTH`]-component chunk inspected**
/// (`⌈n / 8⌉` for a full scan), the hardware-honest cost of the word
/// loop, vs. the scalar comparator's one unit per component (§IV-C's
/// accounting, kept as the fixed baseline in [`compare_counted`]). The
/// packing is an implementation detail: the billed unit is unchanged, so
/// counter totals stay comparable across revisions.
pub fn compare_chunked_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    let (xs, ys) = (a.components(), b.components());
    let mut less = false;
    let mut greater = false;
    let mut words = 0u64;
    let mut ca = xs.chunks_exact(CHUNK_WIDTH);
    let mut cb = ys.chunks_exact(CHUNK_WIDTH);
    for (wa, wb) in ca.by_ref().zip(cb.by_ref()) {
        words += 1;
        let (l, g) = chunk_flags_u64(wa, wb);
        less |= l;
        greater |= g;
        if less && greater {
            break;
        }
    }
    if !(less && greater) {
        let (ra, rb) = (ca.remainder(), cb.remainder());
        if !ra.is_empty() {
            words += 1;
            for (x, y) in ra.iter().zip(rb) {
                less |= x < y;
                greater |= x > y;
            }
        }
    }
    ops.add(words);
    match (less, greater) {
        (false, false) => ClockOrd::Equal,
        (true, false) => ClockOrd::Less,
        (false, true) => ClockOrd::Greater,
        (true, true) => ClockOrd::Concurrent,
    }
}

/// Word-chunked instrumented strict order `a < b` — same verdict as
/// [`strictly_less_counted`], billed per [`CHUNK_WIDTH`]-component word.
pub fn strictly_less_chunked_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> bool {
    compare_chunked_counted(a, b, ops) == ClockOrd::Less
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components.to_vec())
    }

    #[test]
    fn compare_covers_all_outcomes() {
        assert_eq!(compare(&vc(&[1, 1]), &vc(&[1, 1])), ClockOrd::Equal);
        assert_eq!(compare(&vc(&[1, 1]), &vc(&[1, 2])), ClockOrd::Less);
        assert_eq!(compare(&vc(&[1, 2]), &vc(&[1, 1])), ClockOrd::Greater);
        assert_eq!(compare(&vc(&[0, 2]), &vc(&[2, 0])), ClockOrd::Concurrent);
    }

    #[test]
    fn strictly_less_is_irreflexive_and_antisymmetric() {
        let a = vc(&[3, 1, 4]);
        let b = vc(&[3, 2, 4]);
        assert!(!strictly_less(&a, &a));
        assert!(strictly_less(&a, &b));
        assert!(!strictly_less(&b, &a));
    }

    #[test]
    fn counted_compare_matches_uncounted_and_bills_components() {
        let ops = OpCounter::new();
        let a = vc(&[1, 2, 3, 4]);
        let b = vc(&[1, 2, 3, 5]);
        assert_eq!(compare_counted(&a, &b, &ops), compare(&a, &b));
        assert_eq!(ops.get(), 4, "full scan on comparable clocks");
    }

    #[test]
    fn counted_compare_early_exits_on_concurrency() {
        let ops = OpCounter::new();
        let a = vc(&[5, 0, 0, 0]);
        let b = vc(&[0, 5, 0, 0]);
        assert_eq!(compare_counted(&a, &b, &ops), ClockOrd::Concurrent);
        assert_eq!(ops.get(), 2, "stops at the second component");
    }

    #[test]
    fn strictly_less_counted_agrees() {
        let ops = OpCounter::new();
        assert!(strictly_less_counted(&vc(&[0, 0]), &vc(&[1, 0]), &ops));
        assert!(!strictly_less_counted(&vc(&[1, 0]), &vc(&[1, 0]), &ops));
    }

    #[test]
    fn chunked_compare_matches_scalar_on_all_outcomes() {
        let ops = OpCounter::new();
        for (a, b) in [
            (vec![1u32; 20], vec![1u32; 20]),
            (vec![1; 20], vec![2; 20]),
            (vec![2; 20], vec![1; 20]),
            ((0..20).collect::<Vec<u32>>(), (0..20).rev().collect()),
        ] {
            let (a, b) = (vc(&a), vc(&b));
            assert_eq!(compare_chunked_counted(&a, &b, &ops), compare(&a, &b));
        }
    }

    #[test]
    fn chunked_compare_bills_per_word() {
        // 20 components = 2 full words + 1 remainder word.
        let ops = OpCounter::new();
        let a = vc(&vec![1u32; 20]);
        let b = vc(&vec![2u32; 20]);
        assert_eq!(compare_chunked_counted(&a, &b, &ops), ClockOrd::Less);
        assert_eq!(ops.get(), 3, "⌈20/8⌉ words for a full scan");
    }

    #[test]
    fn chunked_compare_early_exits_on_concurrency_at_word_granularity() {
        let ops = OpCounter::new();
        let mut a = vec![0u32; 64];
        let mut b = vec![0u32; 64];
        a[0] = 5; // a > b in word 0
        b[1] = 5; // b > a in word 0
        assert_eq!(
            compare_chunked_counted(&vc(&a), &vc(&b), &ops),
            ClockOrd::Concurrent
        );
        assert_eq!(ops.get(), 1, "decided inside the first word");
    }

    #[test]
    fn chunked_strictly_less_agrees_with_scalar() {
        let ops = OpCounter::new();
        let a = vc(&[0, 0, 0, 0, 0, 0, 0, 0, 0]);
        let b = vc(&[1, 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(strictly_less_chunked_counted(&a, &b, &ops));
        assert!(!strictly_less_chunked_counted(&b, &a, &ops));
        assert!(!strictly_less_chunked_counted(&a, &a, &ops));
    }
}
