//! Allocator calls per interval frame at the codec ↔ wire seam.
//!
//! `wire::encode_msg` hands its own output `Vec` to the connection codec
//! and `wire::decode_msg` hands it its own reader, so a report crosses
//! the seam without a temporary: encoding allocates only the message
//! `Vec` and its growth, decoding only what the decoded [`Interval`] is
//! made of — two clocks (a component `Vec` and the `Arc<[u32]>` it
//! becomes, each) and the coverage list, five calls at any width. While
//! the codec spoke a buffer vocabulary of its own, every frame was also
//! copied into (or out of) one, and the same measurements read 6 and 7.
//! It is a binary of its own because it installs a counting global
//! allocator; nothing else may run in this process, hence one `#[test]`.

use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_intervals::Interval;
use ftscp_net::wire::{decode_msg, encode_msg};
use ftscp_net::NetMsg;
use ftscp_vclock::{ProcessId, VectorClock};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

/// `alloc` + `realloc` calls so far.
static CALLS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a side effect that touches no
// memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc`/`realloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Relaxed);
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Report `seq` of a slowly advancing `width`-wide uplink stream.
fn report(seq: u64, width: usize) -> NetMsg {
    let at = |c: u32| VectorClock::from_components(vec![c; width]);
    NetMsg::Detect(DetectMsg::Interval {
        from: ProcessId(2),
        interval: Interval::local(
            ProcessId(2),
            seq,
            at(100 + 2 * seq as u32),
            at(101 + 2 * seq as u32),
        ),
        resync: false,
    })
}

/// Allocator calls of encoding, and of decoding, the second — stateful —
/// frame of a connection.
fn calls_per_stateful_frame(width: usize) -> (u64, u64) {
    let (mut tx, mut rx) = (ConnCodec::new(), ConnCodec::new());
    let (first, second) = (report(0, width), report(1, width));
    let warmup = encode_msg(&first, &mut tx);
    decode_msg(&warmup, &mut rx).expect("standalone frame decodes");

    let before = CALLS.load(Relaxed);
    let payload = encode_msg(&second, &mut tx);
    let encode = CALLS.load(Relaxed) - before;
    assert_eq!(tx.sent_tally(), (2, 1), "the measured frame was stateful");

    let before = CALLS.load(Relaxed);
    let decoded = decode_msg(&payload, &mut rx);
    let decode = CALLS.load(Relaxed) - before;
    assert_eq!(decoded, Ok(second));
    (encode, decode)
}

#[test]
fn an_interval_frame_crosses_the_codec_seam_without_a_temporary() {
    let (encode, decode) = calls_per_stateful_frame(7);
    // A 35-byte payload: the 16-byte message `Vec` and two doublings.
    assert!(encode <= 3, "encode at width 7: {encode} allocator calls");
    assert_eq!(decode, 5, "decode at width 7");
    // Width grows the message `Vec` a few more times; it must not grow
    // what decoding allocates beyond the interval's own five parts.
    let (_, decode) = calls_per_stateful_frame(256);
    assert_eq!(decode, 5, "decode at width 256");
}
