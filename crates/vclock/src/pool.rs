//! Per-thread clone instrumentation for [`VectorClock`](crate::VectorClock).
//!
//! A clock's storage is a shared `Arc<[u32]>`, so cloning one is a refcount
//! bump and only a copy-on-write break allocates. Two **per-thread**
//! counters quantify that (read via [`clone_stats`], reset via
//! [`reset_clone_stats`]):
//!
//! * **logical clones** — how many times a clock was cloned. Under a dense
//!   owned representation every one of these would be an `O(n)` heap copy.
//! * **deep copies** — how many copy-on-write breaks actually allocated.
//!
//! The counters are thread-local so that independent deployments sharded
//! across worker threads (the parallel benchmark / experiment drivers)
//! each observe only their own clone traffic: a worker resets at the start
//! of its deployment and reads at the end without any cross-deployment
//! skew. The benchmark harness reports both as the "clock clones" figures
//! in `BENCH_hotpath.json`.

use std::cell::Cell;

thread_local! {
    static LOGICAL_CLONES: Cell<u64> = const { Cell::new(0) };
    static DEEP_COPIES: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of the calling thread's clone instrumentation counters:
/// `(logical_clones, deep_copies)`.
///
/// `logical_clones` counts every `VectorClock` clone; `deep_copies` counts
/// the copy-on-write breaks that actually allocated. Counters are
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
pub(crate) fn bump_logical() {
    LOGICAL_CLONES.set(LOGICAL_CLONES.get() + 1);
}

#[inline]
pub(crate) fn bump_deep() {
    DEEP_COPIES.set(DEEP_COPIES.get() + 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VectorClock;

    #[test]
    fn logical_clones_are_counted() {
        let h = VectorClock::from_components([1]);
        let (logical_before, _) = clone_stats();
        let _c1 = h.clone();
        let _c2 = h.clone();
        let (logical_after, _) = clone_stats();
        assert!(logical_after >= logical_before + 2);
    }

    #[test]
    fn clone_counters_are_per_thread() {
        reset_clone_stats();
        let h = VectorClock::from_components([1, 2]);
        let _c = h.clone();
        let (here, _) = clone_stats();
        assert!(here >= 1);
        // A sibling worker thread cloning heavily must not skew this
        // thread's counters — the sharded drivers rely on this.
        std::thread::scope(|s| {
            s.spawn(|| {
                reset_clone_stats();
                let g = VectorClock::from_components([3]);
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
