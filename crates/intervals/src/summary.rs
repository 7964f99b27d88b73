//! Running `⊓`-summaries of the live queue heads ([`SweepSummary`]).
//!
//! The pairwise sweep of Algorithm 1 tests, for a fresh head `x` of queue
//! `a`, both directions of the overlap condition against every other head
//! `y`: `min(x) < max(y)` and `min(y) < max(x)` — `O(k)` vector
//! comparisons per visit, `O(k²)` per round. Theorem 1 / Lemma 1 license
//! collapsing the "every other head" side into the aggregation function
//! `⊓` (Eq. (5)/(6)): the component-wise **join of the other lows** and
//! **meet of the other highs**. Writing `U = ⊔_{b≠a} min(head_b)` and
//! `V = ⊓_{b≠a} max(head_b)`:
//!
//! * `min(x) < V` (strict) implies `min(x) < max(y)` for **every** other
//!   `y` — component-wise `≤` transfers through the meet, and a strict
//!   witness component `c` against `V` is a strict witness against every
//!   `y` simultaneously (`min(x)[c] < V[c] ≤ max(y)[c]`);
//! * `U < max(x)` (strict) implies `min(y) < max(x)` for every other `y`,
//!   by the mirror argument through the join.
//!
//! Both tests together certify that `x` mutually overlaps all other heads
//! in `O(n)` instead of `O(k·n)` — and by symmetry that **no head is
//! deleted** by `x`'s sweep visit. When either test fails the sweep falls
//! back to the exact pairwise row, solely to identify *which* head(s) to
//! delete, so deletion decisions stay bit-identical to the pairwise sweep.
//!
//! ## One running row, and what keeps it true
//!
//! A visit of queue `a` is tested against the heads of all *other* queues,
//! so the row a visit needs depends on who is visiting. The summary keeps
//! a single row `(U, V)` and the set `included` of slots folded into it,
//! under one invariant: **the row is `⊓` over exactly the `included`
//! slots' heads, and none of those heads has changed since it was folded.**
//! `⊓` only ever absorbs — a head cannot be taken back out of a `min`/`max`
//! — so between two [`touch`](SweepSummary::touch)es heads are only added.
//!
//! [`certify`](SweepSummary::certify) for slot `a` brings the row to "all
//! live heads except `a`": if `a` is not included it folds in the live
//! heads the row does not hold yet; otherwise it starts over from the live
//! heads. Either way the row scanned is, component for component, `⊓` over
//! the other live heads, so verdicts and billing do not depend on which
//! way it was reached. Debug builds re-derive the row from the included
//! slots' current heads on every visit, so a missed `touch()` fails the
//! first test that reaches it instead of skewing a verdict.
//!
//! The owner's side is one rule: `touch()` whenever an included head can
//! have changed — a head popped (to a successor or to empty), a queue
//! removed. An enqueue into an *empty* queue needs no `touch()`: an empty
//! slot has no head, so it is not in the row, and the invariant is about
//! included heads only; the new head is simply folded by the next visit of
//! another slot. A round in which `k` queues receive their heads one after
//! the other therefore folds each head once (`k − 1` folds, where a
//! rebuild per visit folds `0 + 1 + … + (k − 1)`), a single-queue bank
//! never folds at all, and storage is `2 · width` components however many
//! slots there are.
//!
//! Folding is *maintenance*, billed like the `⊓`-aggregation it is (i.e.
//! not counted as overlap-comparison work); the gate's own scans bill two
//! units per [`CHUNK_WIDTH`]-component word, matching
//! [`compare_chunked_counted`](ftscp_vclock::order::compare_chunked_counted).

use ftscp_vclock::{order::CHUNK_WIDTH, OpCounter};

/// Components per branch-free pass of [`certify_scan`]: long enough for
/// the autovectorizer, short enough that a violating head stops early.
const BLOCK: usize = 8 * CHUNK_WIDTH;

/// `(violated, lo < v somewhere, u < hi somewhere)` over equal-length
/// slices, where *violated* means `lo ≤ v` or `u ≤ hi` fails in some
/// component. Plain lanes with no branch and no early exit, so the loop
/// vectorizes — on a head-vs-aggregate scan almost every component
/// differs, and there is no equal-pair shortcut worth a branch (unlike
/// the head-vs-head comparator's packed pairs).
#[inline]
fn scan_flags(lo: &[u32], hi: &[u32], v: &[u32], u: &[u32]) -> (bool, bool, bool) {
    let n = lo.len();
    let (hi, v, u) = (&hi[..n], &v[..n], &u[..n]);
    let (mut viol, mut lt1, mut lt2) = (false, false, false);
    for j in 0..n {
        viol |= (lo[j] > v[j]) | (u[j] > hi[j]);
        lt1 |= lo[j] < v[j];
        lt2 |= u[j] < hi[j];
    }
    (viol, lt1, lt2)
}

/// The billed gate scan: tests `lo < v` and `u < hi` (component-wise `≤`
/// with a strict witness each) over equal-width slices, billing `ops` two
/// units per [`CHUNK_WIDTH`]-component word up to and including the first
/// word that violates a `≤` direction (a trailing partial word counts as
/// one). The scan runs [`BLOCK`] components at a time and looks for the
/// word only inside a block that reported a violation; billing counts
/// words, not the work done to find them.
fn certify_scan(lo: &[u32], hi: &[u32], v: &[u32], u: &[u32], ops: &OpCounter) -> bool {
    let width = lo.len();
    debug_assert!(hi.len() == width && v.len() == width && u.len() == width);
    let flags = |r: std::ops::Range<usize>| {
        scan_flags(&lo[r.clone()], &hi[r.clone()], &v[r.clone()], &u[r])
    };
    let (mut lt1, mut lt2) = (false, false);
    for start in (0..width).step_by(BLOCK) {
        let end = (start + BLOCK).min(width);
        let (viol, w1, w2) = flags(start..end);
        if viol {
            let word = (start..end)
                .step_by(CHUNK_WIDTH)
                .position(|w| flags(w..(w + CHUNK_WIDTH).min(end)).0)
                .expect("the block reported a violation");
            ops.add(2 * (start / CHUNK_WIDTH + word + 1) as u64);
            return false;
        }
        lt1 |= w1;
        lt2 |= w2;
    }
    ops.add(2 * width.div_ceil(CHUNK_WIDTH) as u64);
    lt1 && lt2
}

/// The running `⊓`-row over a set of queue heads (see the module docs for
/// the invariant and the math).
///
/// Maintained by [`QueueBank`](crate::QueueBank) under
/// [`SweepMode::Aggregate`](crate::SweepMode::Aggregate).
#[derive(Clone, Debug, Default)]
pub struct SweepSummary {
    /// Slots whose current head is folded into the row.
    included: Vec<bool>,
    /// Number of included slots; at 0 the row's contents mean nothing.
    count: usize,
    /// `V = ⊓ max(head_b)` over the included slots.
    v: Vec<u32>,
    /// `U = ⊔ min(head_b)` over the included slots.
    u: Vec<u32>,
}

impl SweepSummary {
    /// A summary holding no head.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the row. Called whenever an included head can have changed
    /// — head pop, queue removal, anything that swaps the heads wholesale —
    /// it costs two stores; the next certify starts over from the live
    /// heads.
    pub fn touch(&mut self) {
        self.included.clear();
        self.count = 0;
    }

    /// Absorbs slot `b`'s head into the row.
    fn fold(&mut self, b: usize, lo: &[u32], hi: &[u32]) {
        if self.count == 0 {
            self.v.clear();
            self.v.extend_from_slice(hi);
            self.u.clear();
            self.u.extend_from_slice(lo);
        } else {
            debug_assert!(hi.len() == self.v.len() && lo.len() == self.u.len());
            for (v, h) in self.v.iter_mut().zip(hi) {
                *v = (*v).min(*h);
            }
            for (u, l) in self.u.iter_mut().zip(lo) {
                *u = (*u).max(*l);
            }
        }
        self.included[b] = true;
        self.count += 1;
    }

    /// Components of storage held, for the bank's space test.
    #[cfg(test)]
    pub(crate) fn storage(&self) -> usize {
        self.v.len() + self.u.len()
    }

    /// The invariant, checked from scratch: the row is `⊓` over exactly
    /// the included slots' *current* heads.
    fn row_is_current<'a>(
        &self,
        slots: usize,
        head: &impl Fn(usize) -> Option<(&'a [u32], &'a [u32])>,
    ) -> bool {
        let mut fresh = SweepSummary {
            included: vec![false; self.included.len()],
            ..Self::default()
        };
        for b in (0..self.included.len()).filter(|&b| self.included[b]) {
            match head(b) {
                Some((lo, hi)) if b < slots => fresh.fold(b, lo, hi),
                _ => return false,
            }
        }
        self.count == 0 || (fresh.v == self.v && fresh.u == self.u)
    }

    /// The whole-set overlap gate: returns `true` iff the summary
    /// *certifies* that the head of queue `slot` strictly overlaps every
    /// other live head in both directions — i.e. the pairwise sweep would
    /// delete nothing on this visit. `false` means "cannot certify": the
    /// caller must fall back to the pairwise row (which may or may not
    /// find a deletion; the rare ambiguous case is a non-strict tie
    /// against the aggregate).
    ///
    /// `head(b)` must give the *current* `(lo, hi)` component slices of
    /// slot `b`'s head for every `b < slots` (`None` for a removed or
    /// empty queue), and `slot` must have one.
    ///
    /// Bills `ops` two units per [`CHUNK_WIDTH`]-component word inspected
    /// (one per direction of the overlap condition), matching the chunked
    /// comparator's accounting; early exit at word granularity on the
    /// first violated direction. Folding is unbilled maintenance (see the
    /// module docs).
    pub fn certify<'a>(
        &mut self,
        slot: usize,
        slots: usize,
        head: impl Fn(usize) -> Option<(&'a [u32], &'a [u32])>,
        ops: &OpCounter,
    ) -> bool {
        let (lo, hi) = head(slot).expect("certify visits a live head");
        debug_assert!(
            self.row_is_current(slots, &head),
            "a folded head changed without touch()"
        );
        // `⊓` cannot give a head back: the row is no use to a visitor it
        // holds.
        if self.included.get(slot) == Some(&true) {
            self.touch();
        }
        self.included.resize(slots, false);
        for b in 0..slots {
            if b != slot && !self.included[b] {
                if let Some((l, h)) = head(b) {
                    self.fold(b, l, h);
                }
            }
        }
        if self.count == 0 {
            return true;
        }
        certify_scan(lo, hi, &self.v, &self.u, ops)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Head = (Vec<u32>, Vec<u32>);

    /// Heads by slot, `None` for an empty or removed queue.
    fn heads_of(set: &[(usize, Vec<u32>, Vec<u32>)]) -> Vec<Option<Head>> {
        let slots = set.iter().map(|(s, _, _)| *s + 1).max().unwrap_or(0);
        let mut heads = vec![None; slots];
        for (s, lo, hi) in set {
            heads[*s] = Some((lo.clone(), hi.clone()));
        }
        heads
    }

    fn certify_heads(
        sum: &mut SweepSummary,
        heads: &[Option<Head>],
        slot: usize,
        ops: &OpCounter,
    ) -> bool {
        let head = |b: usize| {
            let (lo, hi) = heads[b].as_ref()?;
            Some((lo.as_slice(), hi.as_slice()))
        };
        sum.certify(slot, heads.len(), head, ops)
    }

    fn certify_slot(
        sum: &mut SweepSummary,
        set: &[(usize, Vec<u32>, Vec<u32>)],
        slot: usize,
        ops: &OpCounter,
    ) -> bool {
        certify_heads(sum, &heads_of(set), slot, ops)
    }

    /// Reference implementation: does (lo, hi) at `slot` strictly overlap
    /// every other head in both directions?
    fn pairwise_all_overlap(set: &[(usize, Vec<u32>, Vec<u32>)], slot: usize) -> bool {
        let strictly_less = |a: &[u32], b: &[u32]| {
            a.iter().zip(b).all(|(x, y)| x <= y) && a.iter().zip(b).any(|(x, y)| x < y)
        };
        let me = set.iter().find(|(s, _, _)| *s == slot).unwrap();
        set.iter()
            .filter(|(s, _, _)| *s != slot)
            .all(|(_, lo, hi)| strictly_less(&me.1, hi) && strictly_less(lo, &me.2))
    }

    /// The scan as a plain word loop: per-word `≤`/`<` flags, stop after
    /// the first word that violates a `≤` direction, a trailing partial
    /// word is one more word, two units per word.
    fn reference_scan(lo: &[u32], hi: &[u32], v: &[u32], u: &[u32], ops: &OpCounter) -> bool {
        let (mut le1, mut lt1, mut le2, mut lt2) = (true, false, true, false);
        let mut words = 0u64;
        for w in (0..lo.len()).step_by(CHUNK_WIDTH) {
            words += 1;
            for c in w..(w + CHUNK_WIDTH).min(lo.len()) {
                le1 &= lo[c] <= v[c];
                lt1 |= lo[c] < v[c];
                le2 &= u[c] <= hi[c];
                lt2 |= u[c] < hi[c];
            }
            if !le1 || !le2 {
                break;
            }
        }
        ops.add(2 * words);
        le1 && lt1 && le2 && lt2
    }

    /// Slot `slot`'s excluded row built from scratch: `(V, U)` over every
    /// other live head, `None` if there is none.
    fn reference_row(heads: &[Option<Head>], slot: usize) -> Option<(Vec<u32>, Vec<u32>)> {
        let width = heads[slot].as_ref().unwrap().0.len();
        let (mut v, mut u) = (vec![u32::MAX; width], vec![0u32; width]);
        let mut others = 0;
        for (b, head) in heads.iter().enumerate() {
            if let (true, Some((lo, hi))) = (b != slot, head) {
                others += 1;
                for j in 0..width {
                    v[j] = v[j].min(hi[j]);
                    u[j] = u[j].max(lo[j]);
                }
            }
        }
        (others > 0).then_some((v, u))
    }

    #[test]
    fn gate_certifies_mutually_overlapping_heads() {
        let set = vec![
            (0usize, vec![1, 0, 0], vec![9, 8, 8]),
            (1, vec![2, 1, 0], vec![8, 9, 8]),
            (2, vec![2, 1, 1], vec![8, 8, 9]),
        ];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        for (s, _, _) in &set {
            assert!(certify_slot(&mut sum, &set, *s, &ops));
            assert!(pairwise_all_overlap(&set, *s));
        }
        assert!(ops.get() > 0, "gate bills its scans");
    }

    #[test]
    fn gate_rejects_a_non_overlapping_head() {
        // Head 1 entirely precedes head 0: both rows must fail the gate.
        let set = vec![
            (0usize, vec![5, 4], vec![8, 7]),
            (1, vec![1, 0], vec![2, 1]),
        ];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        assert!(!certify_slot(&mut sum, &set, 0, &ops));
        assert!(!certify_slot(&mut sum, &set, 1, &ops));
    }

    #[test]
    fn gate_is_sound_never_certifying_a_pairwise_violation() {
        // Pseudo-random head sets: whenever the gate certifies, the exact
        // pairwise check must agree (the converse may not hold — the gate
        // is allowed to be conservative on ties).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..200 {
            let k = 2 + (rng() % 4) as usize;
            let n = 1 + (rng() % 12) as usize;
            let set: Vec<(usize, Vec<u32>, Vec<u32>)> = (0..k)
                .map(|s| {
                    let lo: Vec<u32> = (0..n).map(|_| (rng() % 6) as u32).collect();
                    let hi: Vec<u32> = lo.iter().map(|v| v + (rng() % 6) as u32).collect();
                    (s, lo, hi)
                })
                .collect();
            let mut sum = SweepSummary::new();
            let ops = OpCounter::new();
            for (s, _, _) in &set {
                if certify_slot(&mut sum, &set, *s, &ops) {
                    assert!(
                        pairwise_all_overlap(&set, *s),
                        "gate certified a violating head: slot {s} in {set:?}"
                    );
                }
            }
        }
    }

    /// The running row against a from-scratch rebuild, over every way a
    /// bank's heads move: after each step the visited slots must see the
    /// reference's row, verdict and bill.
    #[test]
    fn running_row_matches_rebuild_under_head_churn() {
        let mut state = 0xA0761D6478BD642Fu64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Mostly overlapping heads (lows 0–2, highs 10–12), one in three
        // with a component pushed out of range in one direction or pinned
        // to the edge of it (a tie).
        fn fresh_head(rng: &mut impl FnMut() -> u64, width: usize) -> Head {
            let mut lo: Vec<u32> = (0..width).map(|_| (rng() % 3) as u32).collect();
            let mut hi: Vec<u32> = (0..width).map(|_| 10 + (rng() % 3) as u32).collect();
            let c = (rng() % width as u64) as usize;
            match rng() % 9 {
                0 => (lo[c], hi[c]) = (13, 14),
                1 => (lo[c], hi[c]) = (0, 1),
                2 => lo.fill(10),
                _ => {}
            }
            (lo, hi)
        }
        let (mut certified, mut refused, mut unopposed) = (0, 0, 0);
        for width in [1usize, 7, 8, 9, 64, 65] {
            for _ in 0..40 {
                let mut heads: Vec<Option<Head>> = vec![None; 2 + (rng() % 8) as usize];
                let mut sum = SweepSummary::new();
                let (ops, ref_ops) = (OpCounter::new(), OpCounter::new());
                for _ in 0..60 {
                    let slot = (rng() % heads.len() as u64) as usize;
                    // What the bank would visit after this step.
                    let mut visit = vec![slot];
                    match (rng() % 6, heads[slot].is_some()) {
                        // A head appears in an empty (or removed and now
                        // reused) slot: no touch.
                        (_, false) => heads[slot] = Some(fresh_head(&mut rng, width)),
                        // The head pops to a successor.
                        (0..=2, true) => {
                            heads[slot] = Some(fresh_head(&mut rng, width));
                            sum.touch();
                        }
                        // The head pops to empty / the slot is removed.
                        (3, true) => {
                            heads[slot] = None;
                            sum.touch();
                            visit.clear();
                        }
                        // Several heads pop to successors in one pass.
                        (4, true) => {
                            visit.clear();
                            for b in 0..heads.len() {
                                if heads[b].is_some() && rng() % 2 == 0 {
                                    heads[b] = Some(fresh_head(&mut rng, width));
                                    visit.push(b);
                                }
                            }
                            sum.touch();
                        }
                        // A revisit with nothing changed.
                        (_, true) => {}
                    }
                    for a in visit {
                        let (before, ref_before) = (ops.get(), ref_ops.get());
                        let got = certify_heads(&mut sum, &heads, a, &ops);
                        let (lo, hi) = heads[a].as_ref().unwrap();
                        let want = match reference_row(&heads, a) {
                            Some((v, u)) => {
                                assert_eq!((&sum.v, &sum.u), (&v, &u), "row of slot {a}");
                                reference_scan(lo, hi, &v, &u, &ref_ops)
                            }
                            None => true,
                        };
                        assert_eq!(got, want, "verdict of slot {a} in {heads:?}");
                        assert_eq!(
                            ops.get() - before,
                            ref_ops.get() - ref_before,
                            "bill of slot {a} in {heads:?}"
                        );
                        match (got, ops.get() == before) {
                            (true, true) => unopposed += 1,
                            (true, false) => certified += 1,
                            (false, _) => refused += 1,
                        }
                    }
                }
            }
        }
        assert!(
            certified > 500 && refused > 500 && unopposed > 50,
            "workload must exercise every outcome: {certified} / {refused} / {unopposed}"
        );
    }

    #[test]
    fn block_scan_matches_word_loop_in_verdict_and_bill() {
        let check = |lo: &[u32], hi: &[u32], v: &[u32], u: &[u32], what: &str| {
            let (ops, ref_ops) = (OpCounter::new(), OpCounter::new());
            assert_eq!(
                certify_scan(lo, hi, v, u, &ops),
                reference_scan(lo, hi, v, u, &ref_ops),
                "verdict, {what}"
            );
            assert_eq!(ops.get(), ref_ops.get(), "bill, {what}");
            ops.get()
        };
        for width in [1usize, 7, 8, 9, 63, 64, 65, 1024] {
            let words = width.div_ceil(CHUNK_WIDTH) as u64;
            let (ones, twos) = (vec![1u32; width], vec![2u32; width]);
            // Strictly inside in both directions; a tie everywhere (no
            // strict witness); a witness in one direction only.
            assert_eq!(check(&ones, &twos, &twos, &ones, "clean"), 2 * words);
            assert!(certify_scan(&ones, &twos, &twos, &ones, &OpCounter::new()));
            check(&ones, &ones, &ones, &ones, "all equal");
            check(&ones, &ones, &twos, &ones, "witness in direction 1 only");
            check(&ones, &twos, &ones, &ones, "witness in direction 2 only");
            // A lone witness per direction, wherever it sits.
            for c in [0, width / 2, width - 1] {
                let (mut lo, mut u) = (twos.clone(), twos.clone());
                lo[c] = 1;
                u[width - 1 - c] = 1;
                check(&lo, &twos, &twos, &u, "lone witnesses");
                assert!(certify_scan(&lo, &twos, &twos, &u, &OpCounter::new()));
            }
            // The violation in every word, at either end of the word, in
            // each direction, with and without a later one behind it.
            for w in 0..words as usize {
                let last = (w * CHUNK_WIDTH + CHUNK_WIDTH - 1).min(width - 1);
                for c in [w * CHUNK_WIDTH, last] {
                    for later in [false, true] {
                        let (mut lo, mut u) = (ones.clone(), ones.clone());
                        lo[c] = 3;
                        if later {
                            lo[width - 1] = 3;
                            u[width - 1] = 3;
                        }
                        let what = format!("width {width}, lo > v at {c}, later {later}");
                        assert_eq!(check(&lo, &twos, &twos, &ones, &what), 2 * (w as u64 + 1));
                        assert_eq!(check(&ones, &twos, &twos, &lo, &what), 2 * (w as u64 + 1));
                    }
                }
            }
        }
    }

    #[test]
    fn row_after_touch_matches_fresh_build() {
        let set = vec![
            (0usize, vec![1, 0, 0], vec![9, 8, 8]),
            (1, vec![2, 1, 0], vec![8, 9, 8]),
            (2, vec![0, 0, 2], vec![3, 3, 9]),
        ];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        for (s, _, _) in &set {
            let _ = certify_slot(&mut sum, &set, *s, &ops);
        }
        // Drop slot 1, touch, and compare every gate verdict against a
        // summary built fresh from the remaining two heads.
        let remaining: Vec<_> = set.iter().filter(|(s, _, _)| *s != 1).cloned().collect();
        sum.touch();
        let mut fresh = SweepSummary::new();
        for (s, _, _) in &remaining {
            assert_eq!(
                certify_slot(&mut sum, &remaining, *s, &ops),
                certify_slot(&mut fresh, &remaining, *s, &ops),
                "touched row diverged from fresh build at slot {s}"
            );
            assert_eq!((&sum.v, &sum.u), (&fresh.v, &fresh.u));
        }
        assert_eq!(sum.count, 1, "the row holds the one other head");
    }

    #[test]
    fn row_folded_before_touch_is_never_reused_after_it() {
        // Fold slot 1's head into the row, then shift it and touch: the
        // verdict must reflect the new configuration.
        let before = vec![
            (0usize, vec![1, 1], vec![9, 9]),
            (1, vec![2, 2], vec![8, 8]),
        ];
        let after = vec![
            (0usize, vec![1, 1], vec![9, 9]),
            // Slot 1 advanced past slot 0's high: no longer overlapping.
            (1, vec![10, 10], vec![12, 12]),
        ];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        assert!(certify_slot(&mut sum, &before, 0, &ops));
        sum.touch();
        assert!(!certify_slot(&mut sum, &after, 0, &ops));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a folded head changed without touch()")]
    fn a_missed_touch_is_caught_in_debug_builds() {
        let mut set = vec![
            (0usize, vec![1, 1], vec![9, 9]),
            (1, vec![2, 2], vec![8, 8]),
            (2, vec![2, 2], vec![8, 8]),
        ];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        certify_slot(&mut sum, &set, 0, &ops);
        set[1].2 = vec![7, 7];
        certify_slot(&mut sum, &set, 0, &ops);
    }

    #[test]
    fn single_head_always_certifies() {
        let set = vec![(0usize, vec![1, 2], vec![3, 4])];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        assert!(certify_slot(&mut sum, &set, 0, &ops));
        assert_eq!(ops.get(), 0, "nothing to compare against");
        assert!(sum.v.is_empty() && sum.u.is_empty(), "and nothing folded");
    }
}
