//! Allocation budget of one simulated event: none.
//!
//! Once its buffers have grown to the run's working set, the simulator
//! dispatches deliveries and timers — routing each send, direct or
//! multi-hop, queueing each event, counting each hop — without touching
//! the allocator; whatever an event allocates is the application's.
//! Before PR 22 every send paid five allocations for its route alone. It is
//! a binary of its own because it installs a counting global allocator;
//! nothing else may run in this process.

use ftscp_simnet::{
    Application, Ctx, NodeId, SimConfig, SimTime, Simulation, TimerToken, Topology,
};
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
const PERIOD: SimTime = SimTime(10_000);

/// Answers every message while it has bounces left. A message to a tree
/// neighbour bounces forever (the direct-edge route); every period each
/// node also pings the node half the id space away for a few bounces (the
/// breadth-first route) and re-arms its timer.
struct Echo;

impl Application for Echo {
    type Msg = u64;

    fn on_init(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.send(ctx.neighbors()[0], u64::MAX);
        ctx.set_timer(PERIOD, 0);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, u64>, from: NodeId, bounces: u64) {
        if bounces > 0 {
            ctx.send(from, bounces - 1);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u64>, token: TimerToken) {
        let far = NodeId((ctx.me().0 + N as u32 / 2) % N as u32);
        ctx.send(far, 3);
        ctx.set_timer(PERIOD, token);
    }
}

#[test]
fn steady_state_events_do_not_allocate() {
    let apps = (0..N).map(|_| Echo).collect();
    let mut sim = Simulation::new(Topology::dary_tree(N, 4, 1), apps, SimConfig::default());
    assert_eq!(sim.run_to_quiescence(50_000), 50_000, "warm-up");
    let (sends, hops) = (sim.metrics().sends, sim.metrics().hop_messages);

    let before = ALLOCATIONS.load(Relaxed);
    let processed = sim.run_to_quiescence(100_000);
    let allocations = ALLOCATIONS.load(Relaxed) - before;

    assert_eq!(processed, 100_000);
    let (sends, hops) = (
        sim.metrics().sends - sends,
        sim.metrics().hop_messages - hops,
    );
    assert!(sends > 80_000, "most events answer: {sends} sends");
    assert!(
        hops > sends + 5_000,
        "and some routes are searched: {hops} hops"
    );
    assert_eq!(allocations, 0, "over {processed} events, {sends} sends");
}
