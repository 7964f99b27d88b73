//! ftscp-net: real TCP transport runtime for the monitor hierarchy.
//!
//! Everything below `ftscp-core`'s `MonitorCore` is swapped out: instead
//! of the deterministic simulated network (`ftscp-simnet`), each monitor
//! runs as a **single-threaded, readiness-polled reactor** over `std::net`
//! TCP sockets (epoll on Linux via the vendored `polling` shim) speaking
//! length-prefixed frames. The detection logic itself — Algorithm 1's
//! queue bank, the ⊓-aggregation, the reorder buffer, the cumulative-ack
//! reliability layer — is byte-for-byte the same code, reached through the
//! `ftscp_core::transport::Transport` trait.
//!
//! Layering, bottom-up:
//!
//! - [`frame`] — `u32`-length-prefixed framing with a hard size cap;
//!   hostile-input-safe incremental reassembly ([`frame::FrameBuffer`])
//!   plus the nonblocking drain helper ([`frame::fill`]).
//! - [`wire`] — the session message set ([`wire::NetMsg`]): HELLO/role
//!   handshake, the embedded `DetectMsg` protocol (carrying the existing
//!   delta codec frames unchanged), event ingestion, and feed-complete
//!   `Fin` markers.
//! - [`reactor`] — shared reactor building blocks: the timer wheel and
//!   the nonblocking TCP connect, which hands back a stream to write to
//!   at once.
//! - `conn` (crate-private) — one nonblocking connection's whole byte
//!   path: frame buffer + codec pair + coalescing write queue, socket to
//!   [`wire::NetMsg`] and back, billing bytes as they are written. Every
//!   socket `node`, `scale` and `tenancy` multiplex goes through it, each
//!   under one poller in one thread, and all three dial the same way:
//!   `Hello` is queued before the connect resolves.
//! - [`node`] — one monitor node as one reactor thread: nonblocking
//!   listener, one table holding a `conn` per socket — accepted
//!   connections and the dialed uplink alike, the uplink's session
//!   starting at the parent's `HelloAck` — and a timer wheel driving
//!   heartbeats, suspicion, retransmits, and reconnect backoff — all
//!   multiplexed over a single poller.
//! - [`client`] — the event-ingestion client used by monitored processes
//!   (and by test harnesses replaying recorded executions); the one
//!   blocking socket user left.
//! - [`loopback`] — whole-tree deployment on 127.0.0.1, the vehicle for
//!   the simnet-vs-TCP differential tests and the `net_loopback` bench.
//! - [`scale`] — synthetic many-children driver: one poller feeding
//!   hundreds of protocol children into one node, for the ≥512-connection
//!   smoke test and the `reactor` bench row.
//! - [`tenancy`] — a `PredicateRegistry` (`ftscp_core::registry`) served over
//!   loopback: one feeder per process sending predicate-tagged batches,
//!   server and feeders on one poller in the calling thread.
//!
//! Why the differential guarantee holds: the exhaustive interleaving
//! tests in `ftscp-intervals` prove the detector's solution sequence is
//! invariant under any delivery order that preserves per-queue FIFO.
//! TCP gives exactly per-connection FIFO, the per-connection codec pairs
//! advance in lockstep with the byte stream, and the reorder buffer
//! absorbs retransmit-induced duplicates — so a loopback run must emit
//! the same solutions as the simulator, which `tests/loopback_differential.rs`
//! checks end to end (including across a severed-and-reconnected uplink).

pub mod client;
mod conn;
pub mod frame;
pub mod loopback;
pub mod node;
pub mod reactor;
pub mod scale;
pub mod tenancy;
pub mod wire;

pub use client::EventClient;
pub use frame::{FrameBuffer, FrameError, MAX_FRAME_LEN};
pub use loopback::{sockets_available, Deployment, LoopbackConfig, LoopbackReport};
pub use node::{spawn, NodeConfig, NodeHandle, NodeReport};
pub use tenancy::{run_tenancy, TenancyReport};
pub use wire::{NetMsg, PeerKind, PROTO_VERSION};
