//! Work-sharded parallel execution of independent deployment jobs.
//!
//! Experiment batches (seeds × configurations × sweep modes) are
//! embarrassingly parallel: every job is a self-contained deterministic
//! simulation with per-thread counters, so results are independent of
//! scheduling. This module runs such batches across a
//! bounded worker pool — [`worker_count`] threads, never more than
//! `std::thread::available_parallelism()` — with a shared atomic job
//! cursor, instead of the one-OS-thread-per-job pattern that oversubscribes
//! the scheduler on wide batches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads used for a batch of `jobs` independent jobs:
/// `min(available_parallelism, jobs)`, at least 1.
pub fn worker_count(jobs: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    cores.min(jobs).max(1)
}

/// Runs `f(0..jobs)` across a bounded scoped worker pool, returning the
/// results in job order. Workers pull the next job index from a shared
/// atomic cursor, so long jobs never leave idle cores behind a static
/// partition. `f` must be deterministic per index for the batch to be
/// scheduling-independent (every caller in this workspace is).
///
/// # Panics
///
/// Propagates a panic from any job once the scope joins.
pub fn run_sharded<T, F>(jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..worker_count(jobs) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let result = f(i);
                *slots[i].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker completed every claimed job")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_job_order() {
        // Stagger job durations so completion order differs from job order.
        let out = run_sharded(16, |i| {
            std::thread::sleep(std::time::Duration::from_millis(((16 - i) % 4) as u64));
            i * i
        });
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn wide_batches_share_a_bounded_pool() {
        // Far more jobs than cores: every job still runs exactly once.
        let hits: Vec<AtomicUsize> = (0..200).map(|_| AtomicUsize::new(0)).collect();
        let out = run_sharded(200, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 200);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(worker_count(200) <= 200);
        assert!(worker_count(0) == 1 && worker_count(1) == 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let out: Vec<u32> = run_sharded(0, |_| unreachable!("no jobs"));
        assert!(out.is_empty());
    }
}
