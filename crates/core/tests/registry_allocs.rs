//! Allocation budget of `PredicateRegistry::ingest`, per tenant touch.
//!
//! Narrow banks are dominated by per-call overhead, and on this path most
//! of that overhead is the allocator (`docs/PERF.md` §4): the pruned-view
//! registry this replaced paid 32.2 heap allocations per touch (33.7 in a
//! debug build), the flat bank paid 4.8 (7.3 in a debug build) while its
//! detection loop built `BTreeSet`s and cloned every solution member, then
//! 2.2 (4.7 in a debug build, where the `⊓`-summary's `debug_assert!`
//! re-folds its row anew on every gate visit) once the loop reused the
//! bank's buffers and moved the pruned heads into the `Solution`, then
//! 1.64 (4.14 in a debug build) once the heads list, the removal set and
//! the strict-leader rows were reused too and an emitted-identity set kept
//! seq ranges instead of hashing every member. It paid 1.59 (4.08 in a
//! debug build) once the bank kept one emitted mark per queue head
//! instead of any emitted-identity set, and pays 1.58 (2.23 in a debug
//! build) now that a narrow bank's sweep visits take the
//! coverage-restricted row and leave the summary, with its allocating
//! debug re-derivation, alone. What is left per touch is
//! the routed `Interval::clone` (its coverage `Vec`) and about a tenth of
//! a solution: the `Solution`'s members with a clone of each head that
//! stays, and the detection record. The test holds the line just above
//! those measurements in each profile, and then holds the registry's live
//! bytes flat over a stream that leaves nothing behind: whatever an event
//! allocates must be freed once its interval is swept. It is a binary of
//! its own because it installs a counting global allocator; nothing else
//! may run in this process, so both phases share the one `#[test]`.

use ftscp_core::registry::{PredicateId, PredicateRegistry, TenantSpec};
use ftscp_intervals::Interval;
use ftscp_tree::SpanningTree;
use ftscp_vclock::{ProcessId, VectorClock};
use ftscp_workload::RandomExecution;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out and not yet returned (wraps through zero harmlessly:
/// only differences are read).
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are a side effect that touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(layout.size() as u64, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Relaxed);
        LIVE_BYTES.fetch_add(
            (new_size as u64).wrapping_sub(layout.size() as u64),
            Relaxed,
        );
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const N: usize = 64;
const ROUNDS: usize = 24;
const TENANTS: usize = 1_000;

/// The bound per profile: a debug build keeps the `⊓`-summary's
/// `debug_assert!` re-derivation, which allocates.
const BUDGET: f64 = if cfg!(debug_assertions) { 2.3 } else { 1.59 };

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

/// Event `e` of a stream that detects nothing and keeps nothing resident:
/// processes 0 and 1 alternate, and every interval lies wholly before the
/// next one, so each arrival sweeps the other queue's head.
fn sequential_event(e: u64) -> Interval {
    let at = |c: u64| VectorClock::from_components(vec![c as u32; N]);
    Interval::local(
        ProcessId((e % 2) as u32),
        e / 2,
        at(2 * e + 1),
        at(2 * e + 2),
    )
}

#[test]
fn ingest_allocation_budget_and_live_bytes_plateau() {
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
        per_touch <= BUDGET,
        "{per_touch:.2} allocations per tenant touch ({allocations} over {touches} touches), \
         budget {BUDGET}"
    );

    // Phase 2: an event whose interval has been swept leaves no bytes
    // behind, however many events came before it.
    let specs: Vec<TenantSpec> = (0..3)
        .map(|k| TenantSpec::restricted(PredicateId(k), vec![ProcessId(0), ProcessId(1)]))
        .collect();
    let mut registry = PredicateRegistry::new(&SpanningTree::balanced_dary(N, 4), &specs);
    let mut live_after = |events: std::ops::Range<u64>| {
        events.for_each(|e| registry.ingest(sequential_event(e)));
        LIVE_BYTES.load(Relaxed)
    };
    let at_2000 = live_after(0..2_000);
    let at_4000 = live_after(2_000..4_000);
    assert_eq!(registry.total_detections(), 0);
    assert_eq!(
        at_4000,
        at_2000,
        "{} live bytes retained per event",
        at_4000.wrapping_sub(at_2000) as i64 as f64 / 2_000.0
    );
}
