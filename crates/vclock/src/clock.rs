//! The [`VectorClock`] type and its update rules.

use crate::pool::{bump_deep, bump_logical};
use crate::process::ProcessId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Index;
use std::sync::Arc;

/// A Fidge/Mattern vector clock over a fixed number of processes.
///
/// The clock is a dense vector of `n` counters, one per process. It is used
/// both as an *event timestamp* (produced by the update rules
/// [`tick`](VectorClock::tick) / [`merge`](VectorClock::merge)) and as a
/// *cut* identifier (produced by the component-wise
/// [`join`](VectorClock::join) / [`meet`](VectorClock::meet) used by interval
/// aggregation, Eq. (5)/(6) of the paper).
///
/// Storage is a shared `Arc<[u32]>`: cloning a clock is an `O(1)` refcount
/// bump, reading is a plain slice, and mutation is copy-on-write — a unique
/// clock mutates in place, a shared one copies once and then mutates in
/// place — so passing timestamps between queues, codecs, and aggregation
/// stages costs no `O(n)` allocation per move. Clones of one clock share its
/// allocation, and equality short-circuits on pointer identity. Every clone
/// and every copy-on-write break is counted per thread; see [`crate::pool`].
///
/// # Examples
///
/// ```
/// use ftscp_vclock::{VectorClock, ProcessId};
///
/// let mut a = VectorClock::new(3);
/// a.tick(ProcessId(0)); // internal event at P0
/// let stamp = a.ticked(ProcessId(0)); // send event: tick then piggyback
///
/// let mut b = VectorClock::new(3);
/// b.receive(ProcessId(1), &stamp); // receive at P1
/// assert!(a.strictly_less(&b));
/// ```
pub struct VectorClock {
    data: Arc<[u32]>,
}

impl VectorClock {
    /// A zero clock for an `n`-process system.
    pub fn new(n: usize) -> Self {
        VectorClock {
            data: vec![0u32; n].into(),
        }
    }

    /// Builds a clock directly from components. Mostly used by tests and the
    /// worked examples from the paper (Figure 3).
    pub fn from_components(components: impl Into<Vec<u32>>) -> Self {
        VectorClock {
            data: Arc::from(components.into()),
        }
    }

    /// True iff `self` and `other` share the same allocation (one is a clone
    /// of the other). Equality of contents in `O(1)`.
    #[inline]
    pub fn shares_storage_with(&self, other: &VectorClock) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Number of processes this clock covers.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the clock covers zero processes (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Read component `i`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.data[i]
    }

    /// Overwrite component `i`.
    #[inline]
    pub fn set(&mut self, i: usize, v: u32) {
        self.make_mut()[i] = v;
    }

    /// Raw view of the components.
    #[inline]
    pub fn components(&self) -> &[u32] {
        &self.data
    }

    /// Mutable access to the components. In place when this clock is the
    /// only owner of its storage; otherwise the storage is copied once
    /// (billed as a deep copy) and the clock re-pointed at the private copy.
    fn make_mut(&mut self) -> &mut [u32] {
        if Arc::get_mut(&mut self.data).is_none() {
            bump_deep();
            self.data = self.data.to_vec().into();
        }
        Arc::get_mut(&mut self.data).expect("uniquely owned after copy-on-write")
    }

    /// Rule 1: advance the local component before an internal event.
    #[inline]
    pub fn tick(&mut self, me: ProcessId) {
        self.make_mut()[me.index()] += 1;
    }

    /// Ticks and returns a copy — the timestamp to piggyback on a message
    /// (rule 2).
    pub fn ticked(&mut self, me: ProcessId) -> VectorClock {
        self.tick(me);
        self.clone()
    }

    /// Rule 3: merge a received timestamp `other` into this clock and then
    /// tick the local component (the receive event itself).
    pub fn receive(&mut self, me: ProcessId, other: &VectorClock) {
        self.merge(other);
        self.tick(me);
    }

    /// Component-wise maximum with `other`, in place (no tick).
    pub fn merge(&mut self, other: &VectorClock) {
        debug_assert_eq!(self.len(), other.len(), "clock width mismatch");
        // Merging with an aliased or dominated clock is a no-op; skip the
        // copy-on-write break in that case.
        if other.less_eq(self) {
            return;
        }
        for (c, o) in self.make_mut().iter_mut().zip(other.components()) {
            *c = (*c).max(*o);
        }
    }

    /// Component-wise maximum of two clocks — the *join* in the component
    /// lattice. This is the operation applied to interval low bounds by the
    /// aggregation function ⊓ (Eq. (5)).
    pub fn join(&self, other: &VectorClock) -> VectorClock {
        debug_assert_eq!(self.len(), other.len(), "clock width mismatch");
        if self.shares_storage_with(other) {
            return self.clone();
        }
        VectorClock {
            data: self
                .components()
                .iter()
                .zip(other.components())
                .map(|(a, b)| *a.max(b))
                .collect(),
        }
    }

    /// Component-wise minimum of two clocks — the *meet* in the component
    /// lattice. This is the operation applied to interval high bounds by the
    /// aggregation function ⊓ (Eq. (6)).
    pub fn meet(&self, other: &VectorClock) -> VectorClock {
        debug_assert_eq!(self.len(), other.len(), "clock width mismatch");
        if self.shares_storage_with(other) {
            return self.clone();
        }
        VectorClock {
            data: self
                .components()
                .iter()
                .zip(other.components())
                .map(|(a, b)| *a.min(b))
                .collect(),
        }
    }

    /// The [`join`](Self::join) of the first clocks and the
    /// [`meet`](Self::meet) of the second clocks that `pair` picks from
    /// the members of `set`: both halves of the aggregation function ⊓
    /// (Eqs. (5)/(6)) in one pass. Panics on an empty `set`.
    ///
    /// A single member comes back as storage-sharing clones. From two
    /// members on, each output starts as a copy of the first member's
    /// clock and the others fold into both in place, one
    /// [`BLOCK`](crate::order::BLOCK) of components at a time: each block
    /// of every member's two clocks is read once, while the outputs' block
    /// is hot. One allocation per output.
    pub fn join_meet_all<T>(
        set: &[T],
        pair: impl Fn(&T) -> (&VectorClock, &VectorClock),
    ) -> (VectorClock, VectorClock) {
        use crate::order::BLOCK;

        let (first, rest) = set.split_first().expect("join_meet_all of an empty set");
        let (join, meet) = pair(first);
        if rest.is_empty() {
            return (join.clone(), meet.clone());
        }
        debug_assert_eq!(join.len(), meet.len(), "clock width mismatch");
        let mut join: Arc<[u32]> = join.components().into();
        let mut meet: Arc<[u32]> = meet.components().into();
        let js = Arc::get_mut(&mut join).expect("a fresh allocation");
        let ms = Arc::get_mut(&mut meet).expect("a fresh allocation");
        let n = js.len();
        for start in (0..n).step_by(BLOCK) {
            let end = (start + BLOCK).min(n);
            let (jb, mb) = (&mut js[start..end], &mut ms[start..end]);
            for x in rest {
                let (j, m) = pair(x);
                debug_assert!(j.len() == n && m.len() == n, "clock width mismatch");
                for (acc, c) in jb.iter_mut().zip(&j.components()[start..end]) {
                    *acc = (*acc).max(*c);
                }
                for (acc, c) in mb.iter_mut().zip(&m.components()[start..end]) {
                    *acc = (*acc).min(*c);
                }
            }
        }
        (VectorClock { data: join }, VectorClock { data: meet })
    }

    /// Strict component order: `self < other` iff every component of `self`
    /// is `≤` the matching component of `other` and at least one is strictly
    /// smaller. For event timestamps this is exactly happens-before.
    ///
    /// See [`crate::order`] for the instrumented variants.
    pub fn strictly_less(&self, other: &VectorClock) -> bool {
        crate::order::strictly_less(self, other)
    }

    /// Non-strict component order: every component `≤`.
    pub fn less_eq(&self, other: &VectorClock) -> bool {
        debug_assert_eq!(self.len(), other.len(), "clock width mismatch");
        self.shares_storage_with(other)
            || self
                .components()
                .iter()
                .zip(other.components())
                .all(|(a, b)| a <= b)
    }

    /// True iff the two clocks are incomparable (concurrent events).
    pub fn concurrent(&self, other: &VectorClock) -> bool {
        crate::order::concurrent(self, other)
    }
}

/// A refcount bump, counted as one logical clone.
impl Clone for VectorClock {
    #[inline]
    fn clone(&self) -> Self {
        bump_logical();
        VectorClock {
            data: Arc::clone(&self.data),
        }
    }
}

impl PartialEq for VectorClock {
    fn eq(&self, other: &Self) -> bool {
        self.shares_storage_with(other) || self.data == other.data
    }
}

impl Eq for VectorClock {}

impl Hash for VectorClock {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl Index<usize> for VectorClock {
    type Output = u32;

    fn index(&self, i: usize) -> &u32 {
        &self.data[i]
    }
}

impl fmt::Debug for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, c) in self.components().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "⟩")
    }
}

impl fmt::Display for VectorClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vc(components: &[u32]) -> VectorClock {
        VectorClock::from_components(components.to_vec())
    }

    #[test]
    fn new_clock_is_zero() {
        let c = VectorClock::new(4);
        assert_eq!(c.components(), &[0, 0, 0, 0]);
        assert_eq!(c.len(), 4);
        assert!(!c.is_empty());
    }

    #[test]
    fn tick_advances_only_local_component() {
        let mut c = VectorClock::new(3);
        c.tick(ProcessId(1));
        c.tick(ProcessId(1));
        assert_eq!(c.components(), &[0, 2, 0]);
    }

    #[test]
    fn receive_merges_then_ticks() {
        let mut sender = VectorClock::new(3);
        let stamp = sender.ticked(ProcessId(0));
        assert_eq!(stamp.components(), &[1, 0, 0]);

        let mut receiver = vc(&[0, 5, 2]);
        receiver.receive(ProcessId(1), &stamp);
        assert_eq!(receiver.components(), &[1, 6, 2]);
    }

    #[test]
    fn join_meet_are_componentwise() {
        let a = vc(&[1, 5, 3]);
        let b = vc(&[2, 4, 3]);
        assert_eq!(a.join(&b).components(), &[2, 5, 3]);
        assert_eq!(a.meet(&b).components(), &[1, 4, 3]);
    }

    /// `(lo, hi)` pairs for [`VectorClock::join_meet_all`].
    fn bounds(pair: &(VectorClock, VectorClock)) -> (&VectorClock, &VectorClock) {
        (&pair.0, &pair.1)
    }

    #[test]
    fn join_meet_all_folds_many() {
        let set = [
            (vc(&[1, 9]), vc(&[5, 9])),
            (vc(&[4, 2]), vc(&[6, 3])),
            (vc(&[3, 3]), vc(&[4, 7])),
        ];
        let (join, meet) = VectorClock::join_meet_all(&set, bounds);
        assert_eq!(join.components(), &[4, 9]);
        assert_eq!(meet.components(), &[4, 3]);
    }

    #[test]
    fn join_meet_all_equals_the_left_folds_in_one_buffer_each() {
        let mut state = 0x2545F4914F6CDD1Du64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut clock =
            |width: usize| vc(&(0..width).map(|_| (rng() % 9) as u32).collect::<Vec<_>>());
        // Widths below, at and across the fold's block, and past it
        // with a partial last block.
        for k in 1..=6usize {
            for width in [1usize, 7, 64, 65, 200] {
                let set: Vec<(VectorClock, VectorClock)> =
                    (0..k).map(|_| (clock(width), clock(width))).collect();
                crate::pool::reset_clone_stats();
                let (join, meet) = VectorClock::join_meet_all(&set, bounds);
                assert_eq!(crate::pool::clone_stats().1, 0, "no copy-on-write break");
                let fold =
                    |op: fn(&VectorClock, &VectorClock) -> VectorClock,
                     side: fn(&(VectorClock, VectorClock)) -> &VectorClock| {
                        set[1..]
                            .iter()
                            .fold(side(&set[0]).clone(), |acc, x| op(&acc, side(x)))
                    };
                let what = format!("k = {k}, width = {width}");
                assert_eq!(join, fold(VectorClock::join, |x| &x.0), "{what}");
                assert_eq!(meet, fold(VectorClock::meet, |x| &x.1), "{what}");
                if k == 1 {
                    assert!(join.shares_storage_with(&set[0].0));
                    assert!(meet.shares_storage_with(&set[0].1));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "join_meet_all of an empty set")]
    fn join_meet_all_of_an_empty_set_panics() {
        let _ = VectorClock::join_meet_all(&[], bounds);
    }

    #[test]
    fn strict_order_basics() {
        let a = vc(&[1, 2, 3]);
        let b = vc(&[1, 3, 3]);
        assert!(a.strictly_less(&b));
        assert!(!b.strictly_less(&a));
        assert!(!a.strictly_less(&a), "irreflexive");
    }

    #[test]
    fn concurrent_clocks_are_incomparable() {
        let a = vc(&[2, 0]);
        let b = vc(&[0, 2]);
        assert!(a.concurrent(&b));
        assert!(b.concurrent(&a));
        assert!(!a.strictly_less(&b));
        assert!(!b.strictly_less(&a));
    }

    #[test]
    fn less_eq_allows_equality() {
        let a = vc(&[1, 1]);
        assert!(a.less_eq(&a));
        assert!(!a.strictly_less(&a));
    }

    #[test]
    fn display_is_angle_bracketed() {
        assert_eq!(vc(&[1, 2]).to_string(), "⟨1,2⟩");
    }

    #[test]
    fn clone_is_refcount_bump() {
        let h = vc(&[1, 2, 3]);
        let g = h.clone();
        assert!(h.shares_storage_with(&g));
        assert_eq!(g.components(), &[1, 2, 3]);
        assert_eq!(Arc::strong_count(&h.data), 2);
    }

    #[test]
    fn make_mut_unique_is_in_place() {
        let mut h = vc(&[1, 2]);
        let (_, deep_before) = crate::pool::clone_stats();
        h.make_mut()[0] = 9;
        let (_, deep_after) = crate::pool::clone_stats();
        assert_eq!(h.components(), &[9, 2]);
        assert_eq!(deep_after, deep_before, "unique mutation must not copy");
    }

    #[test]
    fn make_mut_shared_copies_once() {
        let mut h = vc(&[1, 2]);
        let g = h.clone();
        let (_, deep_before) = crate::pool::clone_stats();
        h.make_mut()[0] = 9;
        let (_, deep_after) = crate::pool::clone_stats();
        assert_eq!(deep_after, deep_before + 1, "copy-on-write billed");
        assert_eq!(h.components(), &[9, 2]);
        assert_eq!(g.components(), &[1, 2], "sharer unaffected");
        assert!(!h.shares_storage_with(&g));
    }

    #[test]
    fn equality_is_by_content_with_ptr_fast_path() {
        let a = vc(&[1, 2]);
        let b = vc(&[1, 2]);
        assert_eq!(a, b);
        assert!(!a.shares_storage_with(&b));
        assert_eq!(a, a.clone());
    }

    #[test]
    fn clone_shares_storage() {
        let a = vc(&[1, 2, 3]);
        let b = a.clone();
        assert!(a.shares_storage_with(&b));
        assert_eq!(a, b);
    }

    #[test]
    fn mutation_after_clone_is_copy_on_write() {
        let a = vc(&[1, 2, 3]);
        let mut b = a.clone();
        b.tick(ProcessId(0));
        assert_eq!(a.components(), &[1, 2, 3], "original untouched");
        assert_eq!(b.components(), &[2, 2, 3]);
        assert!(!a.shares_storage_with(&b));
    }

    #[test]
    fn merge_with_dominated_clock_keeps_storage() {
        let big = vc(&[5, 5]);
        let small = vc(&[1, 2]);
        let before = big.clone();
        let mut merged = big.clone();
        merged.merge(&small);
        assert!(merged.shares_storage_with(&before), "no-op merge is free");
        assert_eq!(merged.components(), &[5, 5]);
    }

    #[test]
    fn join_meet_of_aliased_clock_is_identity() {
        let a = vc(&[3, 1]);
        let b = a.clone();
        assert!(a.join(&b).shares_storage_with(&a));
        assert!(a.meet(&b).shares_storage_with(&a));
    }
}
