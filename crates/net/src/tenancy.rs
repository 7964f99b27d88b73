//! Multi-tenant uplink over real sockets.
//!
//! The registry's transport story is per-connection batching: one
//! [`DetectMsg::IntervalBatch`] frame per flush carries the pending
//! intervals of *every* tenant fed by that connection, each interval
//! encoded once and tagged with the predicate ids consuming it (see
//! `ftscp_intervals::codec::encode_tenant_batch`). This module stands up
//! the smallest honest deployment of that path: a registry server on a
//! real TCP listener, one feeder connection per monitored process, and
//! predicate-tagged batches on the wire — so the differential test can
//! assert that detection through real sockets is bit-identical to the
//! in-memory [`PredicateRegistry`], and the bench can measure real bytes.
//!
//! Both ends of every connection are a `conn::Conn` under one poller in
//! the calling thread. The server feeds each decoded group to the tenants
//! it names, in frame order per connection: per-process order is TCP FIFO,
//! and the interleaving *across* connections is whatever readiness order
//! produces — the interleaving-invariance the detector guarantees.

use crate::conn::{Conn, Counters};
use crate::wire::{encode_msg, NetMsg, PeerKind, PROTO_VERSION};
use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_core::registry::{PredicateRegistry, TenantSpec};
use ftscp_core::PredicateId;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;
use polling::{Event as PollEvent, Events, Poller};
use std::io;
use std::net::TcpListener;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Max intervals coalesced into one batch frame per connection flush.
const BATCH_SPAN: usize = 8;

/// Bound on a whole run (a hung feeder fails the run instead of wedging
/// it).
const RUN_DEADLINE: Duration = Duration::from_secs(10);

/// Poller key of the listener. Feeder `i` is key `i`; the server's end of
/// the `j`-th accepted connection is key `feeders + j`.
const LISTENER: usize = usize::MAX;

/// One tenant's time-blind solution sequence:
/// `(solution index, coverage (process, seq) pairs)` per root detection,
/// in order — the same shape `TenantSlot::solution_sequence` returns.
pub type SolutionSeq = Vec<(u64, Vec<(u32, u64)>)>;

/// What a tenancy run produced.
#[derive(Clone, Debug)]
pub struct TenancyReport {
    /// Per-tenant time-blind solution sequences, in registration order.
    /// The differential anchor — compare against an in-memory registry
    /// fed the same execution.
    pub solution_sequences: Vec<(PredicateId, SolutionSeq)>,
    /// Total root detections across tenants.
    pub total_detections: usize,
    /// Bytes actually written to sockets by the feeders (frames incl.
    /// length prefixes and handshake).
    pub batched_bytes: u64,
    /// What the same routed traffic would have cost as per-predicate
    /// `Interval` frames (one frame per `(interval, tenant)` pair, each
    /// predicate with its own delta stream) — the naive uplink the batch
    /// replaces. Computed with shadow codecs, not sent.
    pub naive_bytes: u64,
    /// Events fed across all connections.
    pub events_sent: u64,
    /// Batch frames sent across all connections.
    pub frames_sent: u64,
}

fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// The server's end of one feeder connection.
struct Served {
    conn: Conn,
    greeted: bool,
    fin: bool,
}

impl Served {
    /// Handles what arrived: `Hello` is answered, each batch group goes
    /// to the tenants it names, `Fin` ends the feed.
    fn readable(&mut self, registry: &mut PredicateRegistry) -> io::Result<()> {
        self.conn.fill()?;
        while let Some(msg) = self.conn.next_msg().map_err(invalid)? {
            match msg {
                NetMsg::Hello { node, proto, .. } if !self.greeted => {
                    if proto != PROTO_VERSION {
                        return Err(invalid("proto version mismatch"));
                    }
                    self.greeted = true;
                    self.conn.enqueue(&NetMsg::HelloAck { node });
                }
                NetMsg::Detect(DetectMsg::IntervalBatch { groups, .. }) if self.greeted => {
                    for (preds, iv) in groups {
                        for pred in preds {
                            registry.feed_tenant(PredicateId(pred), iv.clone());
                        }
                    }
                }
                NetMsg::Fin { .. } if self.greeted => self.fin = true,
                other => return Err(invalid(format!("unexpected message: {other:?}"))),
            }
        }
        Ok(())
    }
}

/// Runs `exec` through a registry server over real loopback sockets: one
/// feeder connection per process, predicate-tagged batches on the wire,
/// every tenant detected server-side. Returns the per-tenant solution
/// sequences plus wire accounting (batched vs per-predicate bytes).
///
/// Callers should gate on [`crate::sockets_available`].
pub fn run_tenancy(
    tree: &SpanningTree,
    specs: &[TenantSpec],
    exec: &Execution,
) -> io::Result<TenancyReport> {
    let deadline = Instant::now() + RUN_DEADLINE;
    let mut registry = PredicateRegistry::new(tree, specs);
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let poller = Poller::new()?;
    poller.add(&listener, PollEvent::readable(LISTENER))?;

    // Feeders: each dialed with its whole stream queued — Hello, one batch
    // per `BATCH_SPAN` intervals, Fin — before its connect resolves. Only
    // processes with a tenant dial in (a group may not be empty on the
    // wire), routed by the index `ingest` applies in memory.
    let sent = Arc::new(Counters::default());
    let mut feeders = Vec::new();
    let mut naive_bytes = 0;
    let mut events_sent = 0;
    for p in 0..exec.n {
        let from = ProcessId(p as u32);
        let preds: Vec<u32> = registry
            .tenants_for(from)
            .into_iter()
            .map(|id| id.0)
            .collect();
        if preds.is_empty() {
            continue;
        }
        let (key, c) = (feeders.len(), Arc::clone(&sent));
        let mut conn = Conn::dial(addr, &poller, key, c, from, PeerKind::Client)?;
        let intervals = exec.intervals_of(from);
        for chunk in intervals.chunks(BATCH_SPAN) {
            let groups = chunk.iter().map(|iv| (preds.clone(), iv.clone())).collect();
            conn.enqueue(&NetMsg::Detect(DetectMsg::IntervalBatch {
                from,
                groups,
                resync: false,
            }));
        }
        conn.enqueue(&NetMsg::Fin { from });
        feeders.push(conn);
        events_sent += intervals.len() as u64;
        // The naive uplink: per tenant, one delta-coded `Interval` frame per
        // interval. Every tenant's stream is the same, so one shadow prices
        // them all.
        let mut shadow = ConnCodec::new();
        for iv in intervals {
            let msg = NetMsg::Detect(DetectMsg::Interval {
                from,
                interval: iv.clone(),
                resync: false,
            });
            naive_bytes += (4 + encode_msg(&msg, &mut shadow).len() as u64) * preds.len() as u64;
        }
    }

    let mut served: Vec<Served> = Vec::new();
    let mut events = Events::new();
    while served.iter().filter(|s| s.fin).count() < feeders.len() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "tenancy run deadline exceeded before every feeder's Fin",
            ));
        }
        // Each flush keeps its connection's write interest in step with it.
        let server_ends = served.iter_mut().map(|s| &mut s.conn);
        for (key, conn) in feeders.iter_mut().chain(server_ends).enumerate() {
            conn.flush(&poller, key)?;
        }
        poller.wait(&mut events, Some(remaining))?;
        for ev in events.iter().filter(|ev| ev.readable) {
            if ev.key == LISTENER {
                // One accept per event: the poller is level-triggered, so a
                // longer backlog fires again on the next wait.
                let (stream, _) = listener.accept()?;
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                poller.add(&stream, PollEvent::readable(feeders.len() + served.len()))?;
                served.push(Served {
                    conn: Conn::new(stream, Arc::default()), // not reported
                    greeted: false,
                    fin: false,
                });
            } else if let Some(feeder) = feeders.get_mut(ev.key) {
                // A feeder hears only its `HelloAck`; a refused connect
                // surfaces here, as a failed read.
                feeder.fill()?;
                while let Some(msg) = feeder.next_msg().map_err(invalid)? {
                    if !matches!(msg, NetMsg::HelloAck { .. }) {
                        return Err(invalid("handshake: expected HelloAck"));
                    }
                }
            } else {
                served[ev.key - feeders.len()].readable(&mut registry)?;
            }
        }
    }

    let solution_sequences = registry
        .tenants()
        .map(|t| (t.id(), t.solution_sequence()))
        .collect();
    Ok(TenancyReport {
        solution_sequences,
        total_detections: registry.total_detections(),
        batched_bytes: sent.bytes_sent.load(Relaxed),
        naive_bytes,
        events_sent,
        frames_sent: sent.interval_frames_sent.load(Relaxed),
    })
}
