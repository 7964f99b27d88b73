//! Allocation budget of `PredicateRegistry::ingest`, per tenant touch.
//!
//! Narrow banks are dominated by per-call overhead, and on this path most
//! of that overhead is the allocator (`docs/PERF.md` §4): the pruned-view
//! registry this replaced paid 32.2 heap allocations per touch (33.7 in a
//! debug build), the flat bank pays 4.8 (7.3 in a debug build, where the
//! `⊓`-summary's `debug_assert!` re-folds its row from scratch on every
//! gate visit). The test holds the line at 8 in either profile. It is a
//! binary of its own because it installs a counting global allocator;
//! nothing else may run in this process.

use ftscp_core::registry::{PredicateId, PredicateRegistry, TenantSpec};
use ftscp_intervals::Interval;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::RandomExecution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect that touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 64;
const ROUNDS: usize = 24;
const TENANTS: usize = 1_000;

/// The `mem_tenants` fleet shape: tenant 0 watches everyone, the rest 4–16
/// random processes.
fn specs() -> Vec<TenantSpec> {
    let mut rng = StdRng::seed_from_u64(7);
    let mut processes: Vec<ProcessId> = ProcessId::all(N).collect();
    let mut specs = vec![TenantSpec::full(PredicateId(0))];
    for k in 1..TENANTS as u32 {
        processes.shuffle(&mut rng);
        let size = rng.gen_range(4..=16);
        specs.push(TenantSpec::restricted(
            PredicateId(k),
            processes[..size].to_vec(),
        ));
    }
    specs
}

#[test]
fn ingest_stays_within_eight_allocations_per_tenant_touch() {
    let exec = RandomExecution::builder(N)
        .intervals_per_process(ROUNDS)
        .seed(7)
        .build();
    let stream: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
    let mut registry = PredicateRegistry::new(&SpanningTree::balanced_dary(N, 4), &specs());

    let before = ALLOCATIONS.load(Relaxed);
    for iv in stream {
        registry.ingest(iv);
    }
    let allocations = ALLOCATIONS.load(Relaxed) - before;

    let touches = registry.stats().tenant_touches;
    assert_eq!(registry.total_detections(), TENANTS * ROUNDS);
    let per_touch = allocations as f64 / touches as f64;
    println!("{allocations} allocations / {touches} touches = {per_touch:.2}");
    assert!(
        per_touch <= 8.0,
        "{per_touch:.2} allocations per tenant touch ({allocations} over {touches} touches)"
    );
}
