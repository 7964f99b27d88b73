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
//! §IV-C of the paper charges `O(n)` per comparison. Every comparator here
//! runs one scan over the two vectors, which reports the order flags or,
//! once both flags hold (the clocks are concurrent), the
//! [`CHUNK_WIDTH`]-component word in which they first did. The entry points
//! differ only in what they make of that result:
//!
//! * [`compare`] returns the verdict;
//! * [`compare_counted`] also bills an [`OpCounter`] the number of
//!   components a component-by-component loop inspects — up to the
//!   deciding component, which it finds inside the deciding word. That is
//!   the paper's unit, and how the benchmark harness reproduces its
//!   time-complexity accounting;
//! * [`compare_chunked_counted`] bills one unit per word up to the
//!   deciding word instead, the unit of the sweep's `⊓`-gate and of its
//!   `n`-wide fallbacks.
//!
//! The sweep's pairwise `min(x) < max(y)` tests do not come here: the
//! default engine of `ftscp-intervals` decides them on the components of
//! the processes `x` covers and bills one unit per component it reads,
//! the components of its early-exit `≠` scan included.
//!
//! The scan walks the first [`BLOCK`] components as packed word pairs and
//! stops at the word that decides; every later block is skipped if equal,
//! else scanned in one branch-free pass and walked word by word only if
//! it decided. The bills count components or words up to the deciding
//! one, never the work done to find it, so they do not depend on the
//! traversal.

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

/// Components folded per billed unit by the word-chunked comparator: one
/// 256-bit lane of `u32`s, the natural width of the autovectorized loop.
pub const CHUNK_WIDTH: usize = 8;

/// Components per block of the clock-order scan: eight billed
/// [`CHUNK_WIDTH`]-component words, long enough for the autovectorizer,
/// short enough that a deciding component stops the scan early. The gate
/// scan of `ftscp-intervals` (`summary::certify_scan`) runs the same
/// blocks.
pub const BLOCK: usize = 8 * CHUNK_WIDTH;

/// Per-lane order flags of one [`CHUNK_WIDTH`]-component chunk, computed
/// over `u64` machine words holding two adjacent `u32` components each.
///
/// A single 64-bit equality test retires both packed components at once —
/// the common all-equal pair contributes nothing to either flag and skips
/// its lane compares entirely; only differing pairs fall through to the
/// per-half `<`/`>` tests. Returns `(less, greater)` exactly as
/// [`lane_flags`] would.
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

/// `(less, greater)` of two equal-length slices: whether some component of
/// `xs` is below, or above, its counterpart in `ys`. Plain lanes with no
/// branch and no early exit, so the loop vectorizes.
#[inline]
fn lane_flags(xs: &[u32], ys: &[u32]) -> (bool, bool) {
    let ys = &ys[..xs.len()];
    let (mut l, mut g) = (false, false);
    for (x, y) in xs.iter().zip(ys) {
        l |= x < y;
        g |= x > y;
    }
    (l, g)
}

/// What the clock-order scan found.
enum Scan {
    /// Both flags first hold inside the word that starts at component
    /// `word`; `less` and `greater` are the flags of the components before
    /// that word. The clocks are concurrent.
    Decided {
        word: usize,
        less: bool,
        greater: bool,
    },
    /// Both flags never hold: `(less, greater)` over every component.
    Flags(bool, bool),
}

/// Walks `xs` against `ys` word by word ([`chunk_flags_u64`]), starting
/// from the flags `less` / `greater` of whatever came before `xs`, and
/// stops at the word after which both hold; `xs` starts at component
/// `offset` of the clock. A trailing partial word is folded lane by lane.
#[inline(always)]
fn walk_words(xs: &[u32], ys: &[u32], offset: usize, mut less: bool, mut greater: bool) -> Scan {
    let mut wa = xs.chunks_exact(CHUNK_WIDTH);
    let mut wb = ys.chunks_exact(CHUNK_WIDTH);
    for (w, (a, b)) in wa.by_ref().zip(wb.by_ref()).enumerate() {
        let (l, g) = chunk_flags_u64(a, b);
        if (less | l) && (greater | g) {
            let word = offset + w * CHUNK_WIDTH;
            return Scan::Decided {
                word,
                less,
                greater,
            };
        }
        less |= l;
        greater |= g;
    }
    let (ra, rb) = (wa.remainder(), wb.remainder());
    let (l, g) = lane_flags(ra, rb);
    if (less | l) && (greater | g) {
        let word = offset + xs.len() - ra.len();
        return Scan::Decided {
            word,
            less,
            greater,
        };
    }
    Scan::Flags(less | l, greater | g)
}

/// The one clock-order scan behind every comparator (see the module
/// docs). The first [`BLOCK`] components are walked word by word, which
/// stops at the word that decides: a comparison of two maxima (Eq. (10))
/// is often decided there, and an equal pair costs one 64-bit compare.
/// Every later block is one slice equality test — two heads usually agree
/// on whole blocks, and an equal block sets no flag — and, if it differs,
/// one branch-free pass ([`lane_flags`]); only a block that decided is
/// walked again, word by word.
#[inline(always)]
fn scan(xs: &[u32], ys: &[u32]) -> Scan {
    let n = xs.len();
    let ys = &ys[..n];
    let head = n.min(BLOCK);
    let (mut less, mut greater) = match walk_words(&xs[..head], &ys[..head], 0, false, false) {
        Scan::Flags(l, g) => (l, g),
        decided => return decided,
    };
    for start in (head..n).step_by(BLOCK) {
        let end = (start + BLOCK).min(n);
        let (xb, yb) = (&xs[start..end], &ys[start..end]);
        if xb == yb {
            continue;
        }
        let (l, g) = lane_flags(xb, yb);
        if (less | l) && (greater | g) {
            // The block decided, so the walk stops inside it.
            return walk_words(xb, yb, start, less, greater);
        }
        less |= l;
        greater |= g;
    }
    Scan::Flags(less, greater)
}

/// The component at which both flags first hold, inside the word a
/// [`Scan::Decided`] names: the later of the first lanes that set each
/// flag the components before the word had not set.
fn locate(xs: &[u32], ys: &[u32], word: usize, less: bool, greater: bool) -> usize {
    let end = (word + CHUNK_WIDTH).min(xs.len());
    let (mut lm, mut gm) = (0u32, 0u32);
    for (i, (x, y)) in xs[word..end].iter().zip(&ys[word..end]).enumerate() {
        lm |= u32::from(x < y) << i;
        gm |= u32::from(x > y) << i;
    }
    let first = |before: bool, mask: u32| if before { 0 } else { mask.trailing_zeros() };
    word + first(less, lm).max(first(greater, gm)) as usize
}

/// The verdict of a scan.
fn verdict(scan: &Scan) -> ClockOrd {
    match *scan {
        Scan::Decided { .. } => ClockOrd::Concurrent,
        Scan::Flags(false, false) => ClockOrd::Equal,
        Scan::Flags(true, false) => ClockOrd::Less,
        Scan::Flags(false, true) => ClockOrd::Greater,
        Scan::Flags(true, true) => unreachable!("both flags hold only in a decided word"),
    }
}

/// Full comparison of `a` and `b` under the component order.
pub fn compare(a: &VectorClock, b: &VectorClock) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    verdict(&scan(a.components(), b.components()))
}

/// Strict order `a < b` (happens-before on event timestamps).
pub fn strictly_less(a: &VectorClock, b: &VectorClock) -> bool {
    compare(a, b) == ClockOrd::Less
}

/// True iff `a` and `b` are incomparable.
pub fn concurrent(a: &VectorClock, b: &VectorClock) -> bool {
    compare(a, b) == ClockOrd::Concurrent
}

/// Instrumented [`compare`]: bills `ops` one unit per component a
/// component-by-component loop inspects — up to and including the one at
/// which concurrency is decided, all `n` otherwise (§IV-C's unit).
pub fn compare_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    let (xs, ys) = (a.components(), b.components());
    let scan = scan(xs, ys);
    ops.add(match scan {
        Scan::Decided {
            word,
            less,
            greater,
        } => locate(xs, ys, word, less, greater) as u64 + 1,
        Scan::Flags(..) => xs.len() as u64,
    });
    verdict(&scan)
}

/// Instrumented strict order `a < b`.
pub fn strictly_less_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> bool {
    compare_counted(a, b, ops) == ClockOrd::Less
}

/// Word-chunked [`compare`]: the same scan and verdict, a different cost
/// unit — **one unit per [`CHUNK_WIDTH`]-component word** up to and
/// including the word in which concurrency is decided, `⌈n / 8⌉`
/// otherwise (a trailing partial word counts as one). That is the
/// hardware-honest cost of a word loop, against [`compare_counted`]'s one
/// unit per component (§IV-C's accounting, kept as the fixed baseline).
/// How the scan walks the words — packed pairs in the first [`BLOCK`],
/// branch-free blocks after it — does not enter the bill, so counter
/// totals stay comparable across revisions.
pub fn compare_chunked_counted(a: &VectorClock, b: &VectorClock, ops: &OpCounter) -> ClockOrd {
    debug_assert_eq!(a.len(), b.len(), "clock width mismatch");
    let scan = scan(a.components(), b.components());
    ops.add(match scan {
        Scan::Decided { word, .. } => word / CHUNK_WIDTH + 1,
        Scan::Flags(..) => a.len().div_ceil(CHUNK_WIDTH),
    } as u64);
    verdict(&scan)
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
        let a = vc(&[1u32; 20]);
        let b = vc(&[2u32; 20]);
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

    /// The plain per-component loop every comparator is held to: its
    /// verdict, the components it inspects, and the words those span.
    fn reference(a: &[u32], b: &[u32]) -> (ClockOrd, u64, u64) {
        let (mut less, mut greater, mut inspected) = (false, false, 0usize);
        for (x, y) in a.iter().zip(b) {
            inspected += 1;
            if x < y {
                less = true;
            } else if x > y {
                greater = true;
            }
            if less && greater {
                break;
            }
        }
        let ord = match (less, greater) {
            (false, false) => ClockOrd::Equal,
            (true, false) => ClockOrd::Less,
            (false, true) => ClockOrd::Greater,
            (true, true) => ClockOrd::Concurrent,
        };
        let words = inspected.div_ceil(CHUNK_WIDTH);
        (ord, inspected as u64, words as u64)
    }

    /// Holds all three comparators to [`reference`] on `(a, b)` and on
    /// `(b, a)`, verdict and bill, and returns the reference verdict.
    fn check(a: &VectorClock, b: &VectorClock, what: &str) -> ClockOrd {
        for (x, y) in [(a, b), (b, a)] {
            let (ord, components, words) = reference(x.components(), y.components());
            assert_eq!(compare(x, y), ord, "compare, {what}");
            let ops = OpCounter::new();
            assert_eq!(compare_counted(x, y, &ops), ord, "compare_counted, {what}");
            assert_eq!(ops.get(), components, "compare_counted bill, {what}");
            let ops = OpCounter::new();
            assert_eq!(compare_chunked_counted(x, y, &ops), ord, "chunked, {what}");
            assert_eq!(ops.get(), words, "chunked bill, {what}");
        }
        reference(a.components(), b.components()).0
    }

    #[test]
    fn one_scan_matches_the_per_component_loop_in_verdict_and_bill() {
        for width in [1usize, 7, 8, 9, 63, 64, 65, 72, 127, 128, 129, 1024] {
            // Mostly equal pairs (the packed loop's shortcut) and a
            // background where every pair differs.
            let base: Vec<u32> = (0..width as u32).map(|i| i * 7 % 11).collect();
            let above: Vec<u32> = base.iter().map(|x| x + 1).collect();
            let a = vc(&base);
            assert_eq!(check(&a, &vc(&base), "equal"), ClockOrd::Equal);
            assert_eq!(check(&a, &a.clone(), "shared storage"), ClockOrd::Equal);
            assert_eq!(check(&a, &vc(&above), "above everywhere"), ClockOrd::Less);
            for d in 0..width {
                // One-sided: a lone strict component at `d`.
                let mut b = base.clone();
                b[d] += 1;
                assert_eq!(check(&a, &vc(&b), "one-sided"), ClockOrd::Less);
                if d == 0 {
                    continue;
                }
                // Concurrency decided at `d`: a first witness before it
                // (at the start, mid-way or just before), with and
                // without later differing components behind it.
                for first in [0, d / 2, d - 1] {
                    for noisy in [false, true] {
                        let (mut x, mut y) = (base.clone(), base.clone());
                        x[first] += 1;
                        y[d] += 1;
                        if noisy {
                            for j in (d + 1..width).step_by(3) {
                                [&mut x, &mut y][j % 2][j] += 2;
                            }
                        }
                        let what = format!("width {width}, decided at {d} after {first}");
                        assert_eq!(check(&vc(&x), &vc(&y), &what), ClockOrd::Concurrent);
                    }
                }
                // Every pair differs: below everywhere but at `d`.
                let mut x = base.clone();
                x[d] += 2;
                let what = format!("width {width}, differing, decided at {d}");
                assert_eq!(check(&vc(&x), &vc(&above), &what), ClockOrd::Concurrent);
            }
        }
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
