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
//! ## Exclusion, epochs, and lazy materialization
//!
//! The summaries must exclude the visiting queue itself (`b ≠ a`), so
//! there is one `(U_a, V_a)` pair per slot. Materializing all of them
//! eagerly on every head change is wasted work twice over: a solution pops
//! all `k` heads at once (the summary would be rebuilt `k` times per
//! round), and a typical sweep round only visits the one or two queues
//! whose heads actually changed (the other `k − 2` rows would never be
//! read).
//!
//! The summary therefore invalidates in `O(1)` and materializes per slot
//! on demand. Head changes call [`touch`](SweepSummary::touch), which just
//! marks an epoch bump; the first [`certify`](SweepSummary::certify)
//! afterwards advances the epoch, and each slot's excluded pair is
//! recomputed — a branch-free component-wise meet/join over the `k − 1`
//! other heads' contiguous bound rows, the exact shape the autovectorizer
//! turns into packed SIMD min/max — only when that slot is gated within
//! the current epoch. A round that gates one fresh head against `k − 1`
//! unchanged peers pays for exactly one `O(k·n)` row, not `k` of them.
//!
//! The materialization is *maintenance*, billed like the `⊓`-aggregation
//! it is (i.e. not counted as overlap-comparison work); the gate's own
//! scans bill two units per [`CHUNK_WIDTH`]-component word, matching
//! [`compare_chunked_counted`](ftscp_vclock::order::compare_chunked_counted).

use ftscp_vclock::{order::CHUNK_WIDTH, OpCounter};

/// Current `(lo, hi)` component slices of every live queue head, indexed
/// by slot — the materialization input for [`SweepSummary::certify`].
pub type HeadBounds<'a> = [Option<(&'a [u32], &'a [u32])>];

/// The billed gate scan: tests `lo < v` and `u < hi` (component-wise `≤`
/// with a strict witness each) over equal-width slices, billing `ops` two
/// units per [`CHUNK_WIDTH`]-component word inspected with early exit at
/// word granularity on the first violated `≤` direction.
///
/// Like the chunked comparator, the inner loop packs two adjacent `u32`
/// components per `u64` word: an equal packed pair leaves every flag
/// unchanged (`≤` holds without a strict witness), so one 64-bit equality
/// test retires both components; only differing pairs pay the per-half
/// order tests. Billing counts words traversed, not work done inside
/// them, so the packing cannot change any counter total.
fn certify_scan(lo: &[u32], hi: &[u32], v: &[u32], u: &[u32], ops: &OpCounter) -> bool {
    let width = lo.len();
    debug_assert!(hi.len() == width && v.len() == width && u.len() == width);
    // Direction 1: min(x) < V_excl  (component-wise ≤ + strict witness).
    // Direction 2: U_excl < max(x).
    let mut le1 = true;
    let mut lt1 = false;
    let mut le2 = true;
    let mut lt2 = false;
    let mut words = 0u64;
    let mut done = false;
    let pack = |a: u32, b: u32| u64::from(a) | (u64::from(b) << 32);
    for (((wl, wh), wv), wu) in lo
        .chunks_exact(CHUNK_WIDTH)
        .zip(hi.chunks_exact(CHUNK_WIDTH))
        .zip(v.chunks_exact(CHUNK_WIDTH))
        .zip(u.chunks_exact(CHUNK_WIDTH))
    {
        words += 1;
        for k in 0..CHUNK_WIDTH / 2 {
            let (l0, l1) = (wl[2 * k], wl[2 * k + 1]);
            let (v0, v1) = (wv[2 * k], wv[2 * k + 1]);
            if pack(l0, l1) != pack(v0, v1) {
                le1 &= l0 <= v0 && l1 <= v1;
                lt1 |= l0 < v0 || l1 < v1;
            }
            let (u0, u1) = (wu[2 * k], wu[2 * k + 1]);
            let (h0, h1) = (wh[2 * k], wh[2 * k + 1]);
            if pack(u0, u1) != pack(h0, h1) {
                le2 &= u0 <= h0 && u1 <= h1;
                lt2 |= u0 < h0 || u1 < h1;
            }
        }
        if !le1 || !le2 {
            done = true;
            break;
        }
    }
    // Any trailing partial word bills one unit like the full ones.
    let rem = width % CHUNK_WIDTH;
    if !done && rem != 0 {
        words += 1;
        let base = width - rem;
        for c in base..width {
            le1 &= lo[c] <= v[c];
            lt1 |= lo[c] < v[c];
            le2 &= u[c] <= hi[c];
            lt2 |= u[c] < hi[c];
        }
    }
    ops.add(2 * words);
    le1 && lt1 && le2 && lt2
}

/// Fills slot `slot`'s excluded `⊓`-row: per column, the meet over the
/// other heads' highs into `out_v` and the join over their lows into
/// `out_u`.
fn fill_row(slot: usize, heads: &HeadBounds<'_>, out_v: &mut [u32], out_u: &mut [u32]) {
    let width = out_v.len();
    out_v.fill(u32::MAX);
    out_u.fill(0);
    for (b, head) in heads.iter().enumerate() {
        if b == slot {
            continue;
        }
        if let Some((lo, hi)) = head {
            let (lo, hi) = (&lo[..width], &hi[..width]);
            for j in 0..width {
                out_v[j] = out_v[j].min(hi[j]);
                out_u[j] = out_u[j].max(lo[j]);
            }
        }
    }
}

/// Per-slot excluded `⊓`-summary of a set of queue heads, invalidated in
/// `O(1)` and materialized lazily per gated slot.
///
/// Maintained by [`QueueBank`](crate::QueueBank) under
/// [`SweepMode::Aggregate`](crate::SweepMode::Aggregate); see the module
/// docs for the math.
#[derive(Clone, Debug)]
pub struct SweepSummary {
    /// Clock width (components per head bound).
    width: usize,
    /// Set by [`touch`](Self::touch); the next certify opens a new epoch.
    dirty: bool,
    /// Current head-configuration epoch. A slot's excluded row is valid
    /// iff `slot_epoch[slot] == epoch`.
    epoch: u64,
    /// Slots contributing a head as of the current epoch.
    present: Vec<bool>,
    /// Number of contributing slots as of the current epoch.
    count: usize,
    /// Epoch at which each slot's excluded row was last materialized.
    slot_epoch: Vec<u64>,
    /// Row-major `slots × width`: `V_s = ⊓_{b≠s} max(head_b)`.
    v_excl: Vec<u32>,
    /// Row-major `slots × width`: `U_s = ⊔_{b≠s} min(head_b)`.
    u_excl: Vec<u32>,
}

impl SweepSummary {
    /// An empty summary; starts dirty so the first certify synchronizes.
    pub fn new() -> Self {
        SweepSummary {
            width: 0,
            dirty: true,
            epoch: 0,
            present: Vec::new(),
            count: 0,
            slot_epoch: Vec::new(),
            v_excl: Vec::new(),
            u_excl: Vec::new(),
        }
    }

    /// Number of heads seen by the current epoch.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True iff the current epoch saw no heads.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Forgets everything (used when the sweep mode changes or state is
    /// restored); the next certify resynchronizes with the live heads.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Marks the summary stale. Called after any head change — enqueue
    /// into an empty queue, head pop, queue removal — it costs one store;
    /// all recomputation is deferred to the next certify.
    pub fn touch(&mut self) {
        self.dirty = true;
    }

    /// Opens a new epoch against the live heads: refreshes the presence
    /// census and invalidates every materialized row (by epoch counter,
    /// not by writing them).
    fn sync(&mut self, heads: &HeadBounds<'_>) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.epoch += 1;
        self.present.clear();
        self.present.extend(heads.iter().map(Option::is_some));
        self.count = self.present.iter().filter(|&&p| p).count();
        self.width = heads
            .iter()
            .flatten()
            .map(|(lo, _)| lo.len())
            .next()
            .unwrap_or(0);
        let ns = heads.len();
        if self.slot_epoch.len() < ns {
            self.slot_epoch.resize(ns, 0);
        }
        if self.v_excl.len() < ns * self.width {
            self.v_excl.resize(ns * self.width, u32::MAX);
            self.u_excl.resize(ns * self.width, 0);
        }
    }

    /// Materializes slot `slot`'s excluded pair `(U, V)` for the current
    /// epoch if stale: component-wise meet of the other heads' highs and
    /// join of their lows.
    fn materialize(&mut self, slot: usize, heads: &HeadBounds<'_>) {
        if self.slot_epoch[slot] == self.epoch {
            return;
        }
        self.slot_epoch[slot] = self.epoch;
        let row = slot * self.width..(slot + 1) * self.width;
        fill_row(
            slot,
            heads,
            &mut self.v_excl[row.clone()],
            &mut self.u_excl[row],
        );
    }

    /// The whole-set overlap gate: returns `true` iff the summary
    /// *certifies* that the head (`lo`, `hi`) of queue `slot` strictly
    /// overlaps every other live head in both directions — i.e. the
    /// pairwise sweep would delete nothing on this visit. `false` means
    /// "cannot certify": the caller must fall back to the pairwise row
    /// (which may or may not find a deletion; the rare ambiguous case is a
    /// non-strict tie against the aggregate).
    ///
    /// `heads[b]` must give the *current* `(lo, hi)` component slices of
    /// every live queue head, indexed by slot — consulted only when a
    /// preceding [`touch`](Self::touch) invalidated the epoch or `slot`
    /// has not been gated in the current epoch.
    ///
    /// Bills `ops` two units per [`CHUNK_WIDTH`]-component word inspected
    /// (one per direction of the overlap condition), matching the chunked
    /// comparator's accounting; early exit at word granularity on the
    /// first violated direction. Materialization is unbilled maintenance
    /// (see the module docs).
    pub fn certify(
        &mut self,
        slot: usize,
        lo: &[u32],
        hi: &[u32],
        heads: &HeadBounds<'_>,
        ops: &OpCounter,
    ) -> bool {
        self.sync(heads);
        let others = self.count - usize::from(self.present.get(slot).copied().unwrap_or(false));
        if others == 0 {
            return true;
        }
        self.materialize(slot, heads);
        let width = self.width;
        let v = &self.v_excl[slot * width..(slot + 1) * width];
        let u = &self.u_excl[slot * width..(slot + 1) * width];
        certify_scan(&lo[..width], &hi[..width], v, u, ops)
    }
}

impl Default for SweepSummary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heads_of<'a>(set: &'a [(usize, Vec<u32>, Vec<u32>)]) -> Vec<Option<(&'a [u32], &'a [u32])>> {
        let max_slot = set.iter().map(|(s, _, _)| *s).max().unwrap_or(0);
        let mut v: Vec<Option<(&[u32], &[u32])>> = vec![None; max_slot + 1];
        for (s, lo, hi) in set {
            v[*s] = Some((lo.as_slice(), hi.as_slice()));
        }
        v
    }

    fn certify_slot(
        sum: &mut SweepSummary,
        set: &[(usize, Vec<u32>, Vec<u32>)],
        slot: usize,
        ops: &OpCounter,
    ) -> bool {
        let heads = heads_of(set);
        let me = set.iter().find(|(s, _, _)| *s == slot).unwrap();
        sum.certify(slot, &me.1, &me.2, &heads, ops)
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

    #[test]
    fn touch_then_certify_matches_fresh_build() {
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
                "epoch invalidation diverged from fresh build at slot {s}"
            );
        }
        assert_eq!(sum.len(), 2);
    }

    #[test]
    fn stale_epoch_is_never_reused_across_touch() {
        // Materialize slot 0's row, then shift the other head and touch:
        // the verdict must reflect the new configuration.
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
    fn single_head_always_certifies() {
        let set = vec![(0usize, vec![1, 2], vec![3, 4])];
        let mut sum = SweepSummary::new();
        let ops = OpCounter::new();
        assert!(certify_slot(&mut sum, &set, 0, &ops));
        assert_eq!(ops.get(), 0, "nothing to compare against");
    }
}
