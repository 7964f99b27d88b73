//! Interned clock storage: [`ClockHandle`] and [`ClockPool`].
//!
//! The data plane moves vector timestamps constantly — every interval
//! carries two, every queue operation clones them, every aggregation reads
//! them. A dense `Box<[u32]>` representation makes each of those moves an
//! `O(n)` allocation + copy, which at large-scale network sizes dominates
//! the detector's real cost. This module replaces the owned buffer with a
//! shared, immutable, reference-counted one:
//!
//! * [`ClockHandle`] wraps an `Arc<[u32]>`: cloning is a refcount bump
//!   (`O(1)`, no allocation), reading is a plain slice, and mutation is
//!   copy-on-write — unique handles mutate in place, shared handles copy
//!   once and then mutate in place.
//! * [`ClockPool`] hash-conses handles: interning the same component
//!   vector twice yields the *same* allocation, so hot timestamps (queue
//!   heads, per-connection codec bases, repeated cuts) deduplicate and
//!   equality checks can short-circuit on pointer identity.
//!
//! [`VectorClock`](crate::VectorClock) is a thin facade over
//! [`ClockHandle`], so existing callers keep their API while the storage
//! underneath becomes zero-copy.
//!
//! ## Instrumentation
//!
//! Two **per-thread** counters quantify the win (read via [`clone_stats`],
//! reset via [`reset_clone_stats`]):
//!
//! * **logical clones** — how many times a clock was cloned. Under the old
//!   dense representation every one of these was an `O(n)` heap copy.
//! * **deep copies** — how many of those (plus copy-on-write breaks)
//!   actually allocated. This is the post-refactor allocator traffic.
//!
//! The counters are thread-local so that independent deployments sharded
//! across worker threads (the parallel benchmark / experiment drivers)
//! each observe only their own clone traffic: a worker resets at the start
//! of its deployment and reads at the end without any cross-deployment
//! skew. Per-pool intern traffic is tracked separately by
//! [`ClockPool::hits`] / [`ClockPool::misses`]. The benchmark harness
//! reports both as the before/after "clock clones" figures in
//! `BENCH_hotpath.json`.

use std::cell::Cell;
use std::collections::HashSet;
use std::sync::Arc;

thread_local! {
    static LOGICAL_CLONES: Cell<u64> = const { Cell::new(0) };
    static DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's clone instrumentation counters:
/// `(logical_clones, deep_copies)`.
///
/// `logical_clones` counts every `VectorClock`/`ClockHandle` clone — each
/// of which the pre-pool dense representation served with an `O(n)`
/// allocation. `deep_copies` counts the allocations that actually happened
/// (copy-on-write breaks and explicit deep copies). Counters are
/// thread-local: a sharded deployment's worker sees only its own traffic.
pub fn clone_stats() -> (u64, u64) {
    (LOGICAL_CLONES.get(), DEEP_COPIES.get())
}

/// Resets the calling thread's clone counters to zero, returning the
/// previous snapshot.
pub fn reset_clone_stats() -> (u64, u64) {
    (LOGICAL_CLONES.replace(0), DEEP_COPIES.replace(0))
}

#[inline]
fn bump_logical() {
    LOGICAL_CLONES.set(LOGICAL_CLONES.get() + 1);
}

#[inline]
fn bump_deep() {
    DEEP_COPIES.set(DEEP_COPIES.get() + 1);
}

/// A cheap handle to an immutable vector of clock components.
///
/// Clone is `O(1)` (refcount bump). Mutation goes through
/// [`make_mut`](ClockHandle::make_mut), which is in-place when the handle
/// is unique and copy-on-write otherwise.
#[derive(Debug)]
pub struct ClockHandle {
    data: Arc<[u32]>,
}

impl ClockHandle {
    /// Builds a handle owning `components`.
    pub fn new(components: Vec<u32>) -> Self {
        ClockHandle {
            data: components.into(),
        }
    }

    /// A zero clock of width `n`.
    pub fn zeros(n: usize) -> Self {
        ClockHandle {
            data: vec![0u32; n].into(),
        }
    }

    /// The components.
    #[inline]
    pub fn as_slice(&self) -> &[u32] {
        &self.data
    }

    /// Width of the clock.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True iff the clock covers zero processes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True iff `self` and `other` share the same allocation — interned
    /// duplicates compare equal in `O(1)` through this fast path.
    #[inline]
    pub fn ptr_eq(&self, other: &ClockHandle) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }

    /// Mutable access to the components. In place when this handle is the
    /// only owner; otherwise the storage is copied once (billed as a deep
    /// copy) and the handle re-pointed at the private copy.
    pub fn make_mut(&mut self) -> &mut [u32] {
        if Arc::get_mut(&mut self.data).is_none() {
            bump_deep();
            self.data = self.data.to_vec().into();
        }
        Arc::get_mut(&mut self.data).expect("uniquely owned after copy-on-write")
    }

    #[cfg(test)]
    fn shared_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl Clone for ClockHandle {
    #[inline]
    fn clone(&self) -> Self {
        bump_logical();
        ClockHandle {
            data: Arc::clone(&self.data),
        }
    }
}

impl PartialEq for ClockHandle {
    fn eq(&self, other: &Self) -> bool {
        self.ptr_eq(other) || self.data == other.data
    }
}

impl Eq for ClockHandle {}

impl std::hash::Hash for ClockHandle {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.data.hash(state);
    }
}

impl From<Vec<u32>> for ClockHandle {
    fn from(v: Vec<u32>) -> Self {
        ClockHandle::new(v)
    }
}

/// Collects components straight into the shared buffer: one allocation for
/// an iterator that knows its exact length, where [`ClockHandle::new`]
/// costs the `Vec` and then its copy.
impl FromIterator<u32> for ClockHandle {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        ClockHandle {
            data: iter.into_iter().collect(),
        }
    }
}

/// Hash-consing interner for clock storage.
///
/// `intern` maps equal component vectors to one shared allocation, so the
/// hot set of timestamps flowing through a decoder or a queue bank is
/// stored once no matter how many intervals reference it. The pool holds
/// strong references; callers that want bounded memory call
/// [`trim`](ClockPool::trim) (drops entries no longer referenced outside
/// the pool) or [`clear`](ClockPool::clear).
#[derive(Debug, Default)]
pub struct ClockPool {
    interned: HashSet<Arc<[u32]>>,
    hits: u64,
    misses: u64,
}

impl ClockPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `components`: returns a handle to the pooled allocation,
    /// creating it on first sight.
    pub fn intern(&mut self, components: &[u32]) -> ClockHandle {
        if let Some(existing) = self.interned.get(components) {
            self.hits += 1;
            return ClockHandle {
                data: Arc::clone(existing),
            };
        }
        self.misses += 1;
        let arc: Arc<[u32]> = components.to_vec().into();
        self.interned.insert(Arc::clone(&arc));
        ClockHandle { data: arc }
    }

    /// Interns an already-built handle, returning the canonical pooled
    /// handle (which may be a different allocation with equal contents).
    pub fn intern_handle(&mut self, handle: &ClockHandle) -> ClockHandle {
        self.intern(handle.as_slice())
    }

    /// Distinct clocks currently pooled.
    pub fn len(&self) -> usize {
        self.interned.len()
    }

    /// True iff nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.interned.is_empty()
    }

    /// Intern cache hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Intern cache misses (= allocations) so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Drops pooled clocks that no live handle references any more
    /// (refcount 1 = only the pool), returning how many were evicted.
    pub fn trim(&mut self) -> usize {
        let before = self.interned.len();
        self.interned.retain(|arc| Arc::strong_count(arc) > 1);
        before - self.interned.len()
    }

    /// Empties the pool (live handles stay valid — they own their storage).
    pub fn clear(&mut self) {
        self.interned.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_is_refcount_bump() {
        let h = ClockHandle::new(vec![1, 2, 3]);
        let g = h.clone();
        assert!(h.ptr_eq(&g));
        assert_eq!(g.as_slice(), &[1, 2, 3]);
        assert_eq!(h.shared_count(), 2);
    }

    #[test]
    fn make_mut_unique_is_in_place() {
        let mut h = ClockHandle::new(vec![1, 2]);
        let (_, deep_before) = clone_stats();
        h.make_mut()[0] = 9;
        let (_, deep_after) = clone_stats();
        assert_eq!(h.as_slice(), &[9, 2]);
        assert_eq!(deep_after, deep_before, "unique mutation must not copy");
    }

    #[test]
    fn make_mut_shared_copies_once() {
        let mut h = ClockHandle::new(vec![1, 2]);
        let g = h.clone();
        let (_, deep_before) = clone_stats();
        h.make_mut()[0] = 9;
        let (_, deep_after) = clone_stats();
        assert_eq!(deep_after, deep_before + 1, "copy-on-write billed");
        assert_eq!(h.as_slice(), &[9, 2]);
        assert_eq!(g.as_slice(), &[1, 2], "sharer unaffected");
        assert!(!h.ptr_eq(&g));
    }

    #[test]
    fn pool_interns_duplicates_to_one_allocation() {
        let mut pool = ClockPool::new();
        let a = pool.intern(&[4, 5, 6]);
        let b = pool.intern(&[4, 5, 6]);
        let c = pool.intern(&[7, 0, 0]);
        assert!(a.ptr_eq(&b), "hash-consed duplicate");
        assert!(!a.ptr_eq(&c));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.hits(), 1);
        assert_eq!(pool.misses(), 2);
    }

    #[test]
    fn pool_trim_evicts_unreferenced() {
        let mut pool = ClockPool::new();
        let keep = pool.intern(&[1]);
        {
            let _drop_me = pool.intern(&[2]);
        }
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.trim(), 1);
        assert_eq!(pool.len(), 1);
        assert_eq!(pool.intern(&[1]).ptr_eq(&keep), true);
    }

    #[test]
    fn handle_equality_is_by_content_with_ptr_fast_path() {
        let a = ClockHandle::new(vec![1, 2]);
        let b = ClockHandle::new(vec![1, 2]);
        assert_eq!(a, b);
        assert!(!a.ptr_eq(&b));
        assert_eq!(a, a.clone());
    }

    #[test]
    fn logical_clones_are_counted() {
        let h = ClockHandle::new(vec![1]);
        let (logical_before, _) = clone_stats();
        let _c1 = h.clone();
        let _c2 = h.clone();
        let (logical_after, _) = clone_stats();
        assert!(logical_after >= logical_before + 2);
    }

    #[test]
    fn clone_counters_are_per_thread() {
        reset_clone_stats();
        let h = ClockHandle::new(vec![1, 2]);
        let _c = h.clone();
        let (here, _) = clone_stats();
        assert!(here >= 1);
        // A sibling worker thread cloning heavily must not skew this
        // thread's counters — the sharded drivers rely on this.
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_clone_stats();
                let g = ClockHandle::new(vec![3]);
                for _ in 0..100 {
                    let _ = g.clone();
                }
                let (there, _) = clone_stats();
                assert_eq!(there, 100);
            });
        });
        let (after, _) = clone_stats();
        assert_eq!(after, here, "sibling thread's clones not visible here");
    }
}
