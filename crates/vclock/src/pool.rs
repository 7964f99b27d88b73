//! Shared clock storage: [`ClockHandle`].
//!
//! The data plane moves vector timestamps constantly — every interval
//! carries two, every queue operation clones them, every aggregation reads
//! them. A dense `Box<[u32]>` representation makes each of those moves an
//! `O(n)` allocation + copy, which at large-scale network sizes dominates
//! the detector's real cost. This module replaces the owned buffer with a
//! shared, immutable, reference-counted one: [`ClockHandle`] wraps an
//! `Arc<[u32]>`, so cloning is a refcount bump (`O(1)`, no allocation),
//! reading is a plain slice, and mutation is copy-on-write — unique handles
//! mutate in place, shared handles copy once and then mutate in place.
//! Clones of one clock share its allocation, and equality checks
//! short-circuit on pointer identity.
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
//! skew. The benchmark harness reports both as the "clock clones" figures
//! in `BENCH_hotpath.json`.

use std::cell::Cell;
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

    /// True iff `self` and `other` share the same allocation — clones of one
    /// clock compare equal in `O(1)` through this fast path.
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
