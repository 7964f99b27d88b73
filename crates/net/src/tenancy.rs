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
//! The server feeds each decoded group to the tenants it names, in frame
//! order per connection. Per-process interval order is preserved by TCP
//! FIFO; interleaving *across* connections is whatever the scheduler
//! produces, which is exactly the interleaving-invariance the detector
//! guarantees (and the differential verifies).

use crate::frame::{read_frame, write_frame, FrameBuffer};
use crate::wire::{decode_msg, encode_msg, NetMsg, PROTO_VERSION};
use crate::EventClient;
use ftscp_core::protocol::{ConnCodec, DetectMsg};
use ftscp_core::registry::{PredicateRegistry, TenantSpec};
use ftscp_core::PredicateId;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// Max intervals coalesced into one batch frame per connection flush.
const BATCH_SPAN: usize = 8;

/// Server-side per-socket read timeout (a hung feeder fails the run
/// instead of wedging it).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

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

/// Per-feeder tally returned by each client thread.
struct FeederStats {
    batched_bytes: u64,
    naive_bytes: u64,
    events: u64,
    frames: u64,
}

const FRAME_PREFIX: u64 = 4; // u32 length prefix per frame

fn serve_conn(mut stream: TcpStream, registry: &Mutex<PredicateRegistry>) -> io::Result<()> {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(READ_TIMEOUT)).ok();
    let mut fb = FrameBuffer::new();
    let mut rx = ConnCodec::new();
    let mut tx = ConnCodec::new();
    // Handshake: Hello(Client) in, HelloAck out.
    let hello = read_frame(&mut stream, &mut fb)?
        .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "no hello"))?;
    let node = match decode_msg(&hello, &mut rx) {
        Ok(NetMsg::Hello { node, proto, .. }) if proto == PROTO_VERSION => node,
        Ok(NetMsg::Hello { .. }) => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "proto version mismatch",
            ))
        }
        _ => return Err(io::Error::new(io::ErrorKind::InvalidData, "expected hello")),
    };
    let ack = encode_msg(&NetMsg::HelloAck { node }, &mut tx);
    write_frame(&mut stream, &ack)?;
    loop {
        let Some(frame) = read_frame(&mut stream, &mut fb)? else {
            return Ok(()); // orderly close after Fin
        };
        match decode_msg(&frame, &mut rx) {
            Ok(NetMsg::Detect(DetectMsg::IntervalBatch { groups, .. })) => {
                // One lock per frame, not per interval: the batch is the
                // unit of ingestion just as it is the unit of framing.
                let mut reg = registry.lock().expect("registry poisoned");
                for (preds, iv) in groups {
                    for pred in preds {
                        reg.feed_tenant(PredicateId(pred), iv.clone());
                    }
                }
            }
            Ok(NetMsg::Fin { .. }) => return Ok(()),
            Ok(other) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unexpected message: {other:?}"),
                ))
            }
            Err(e) => return Err(io::Error::new(io::ErrorKind::InvalidData, e.0)),
        }
    }
}

fn feed_conn(
    addr: SocketAddr,
    process: ProcessId,
    preds: Vec<u32>,
    intervals: Vec<ftscp_intervals::Interval>,
) -> io::Result<FeederStats> {
    let mut stats = FeederStats {
        batched_bytes: 0,
        naive_bytes: 0,
        events: 0,
        frames: 0,
    };
    let mut client = EventClient::connect(addr, process)?;
    // The naive comparison stream: one delta codec per tenant, as if each
    // predicate ran its own pre-registry uplink over this edge.
    let mut naive_codecs: Vec<ConnCodec> = preds.iter().map(|_| ConnCodec::new()).collect();
    for chunk in intervals.chunks(BATCH_SPAN) {
        let groups: Vec<(Vec<u32>, ftscp_intervals::Interval)> =
            chunk.iter().map(|iv| (preds.clone(), iv.clone())).collect();
        for iv in chunk {
            for (codec, &pred) in naive_codecs.iter_mut().zip(&preds) {
                let msg = DetectMsg::Interval {
                    from: process,
                    interval: iv.clone(),
                    resync: false,
                };
                // 1 tag + 1 subtag bytes ride ahead of the codec payload.
                stats.naive_bytes += FRAME_PREFIX + 2 + codec.msg_size(&msg) as u64;
                codec.note_sent(iv);
                let _ = pred;
            }
        }
        let msg = NetMsg::Detect(DetectMsg::IntervalBatch {
            from: process,
            groups,
            resync: false,
        });
        client.send(&msg)?;
        stats.events += chunk.len() as u64;
        stats.frames += 1;
    }
    client.send(&NetMsg::Fin { from: process })?;
    stats.batched_bytes = client.bytes_sent();
    Ok(stats)
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
    let registry = PredicateRegistry::new(tree, specs);
    // Routing is decided feeder-side from the registry's own index, the
    // same relevance filter `ingest` applies in memory.
    let routes: Vec<Vec<u32>> = (0..exec.n)
        .map(|p| {
            registry
                .tenants_for(ProcessId(p as u32))
                .into_iter()
                .map(|id| id.0)
                .collect()
        })
        .collect();
    let registry = Arc::new(Mutex::new(registry));

    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?;
    // Only processes with at least one tenant dial in (a group may not be
    // empty on the wire, and an untenanted process has nothing to say).
    let feeding: Vec<usize> = (0..exec.n).filter(|&p| !routes[p].is_empty()).collect();
    let server = {
        let registry = Arc::clone(&registry);
        let conns = feeding.len();
        thread::spawn(move || -> io::Result<()> {
            let mut handlers = Vec::with_capacity(conns);
            for _ in 0..conns {
                let (stream, _) = listener.accept()?;
                let registry = Arc::clone(&registry);
                handlers.push(thread::spawn(move || serve_conn(stream, &registry)));
            }
            for h in handlers {
                h.join()
                    .map_err(|_| io::Error::other("server handler panicked"))??;
            }
            Ok(())
        })
    };

    let feeders: Vec<_> = feeding
        .iter()
        .map(|&p| {
            let process = ProcessId(p as u32);
            let preds = routes[p].clone();
            let intervals = exec.intervals_of(process).to_vec();
            thread::spawn(move || feed_conn(addr, process, preds, intervals))
        })
        .collect();

    let mut batched_bytes = 0;
    let mut naive_bytes = 0;
    let mut events_sent = 0;
    let mut frames_sent = 0;
    for f in feeders {
        let stats = f
            .join()
            .map_err(|_| io::Error::other("feeder thread panicked"))??;
        batched_bytes += stats.batched_bytes;
        naive_bytes += stats.naive_bytes;
        events_sent += stats.events;
        frames_sent += stats.frames;
    }
    server
        .join()
        .map_err(|_| io::Error::other("server thread panicked"))??;

    let registry = Arc::into_inner(registry)
        .expect("all server threads joined")
        .into_inner()
        .expect("registry poisoned");
    let solution_sequences = registry
        .tenants()
        .map(|t| (t.id(), t.solution_sequence()))
        .collect();
    Ok(TenancyReport {
        solution_sequences,
        total_detections: registry.total_detections(),
        batched_bytes,
        naive_bytes,
        events_sent,
        frames_sent,
    })
}
