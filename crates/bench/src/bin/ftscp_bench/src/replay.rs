//! Record-and-replay stages of the traced run.
//!
//! A single public call hides most layers: `HierarchicalDetector::feed`
//! hides the engines, an engine hides its `QueueBank`, a TCP node hides
//! its `MonitorCore`, codec and framing. To attribute time from outside,
//! the traced run drives the layer below by hand through its public API —
//! a tree of `NodeEngine`s wired like the detector wires them, a bare
//! `QueueBank` fed an engine's recorded inputs, seven `MonitorCore`s over
//! an in-memory `Transport`, the recorded frames through `encode_msg` /
//! `frame_bytes` / `FrameBuffer` / `decode_msg` — and checks that the
//! hand-driven copy detects exactly what the real thing detected.
//!
//! Calls of a microsecond or more get a span each; sub-microsecond calls
//! (compare, encode, decode, enqueue) are timed as one loop and recorded
//! as one batch span, because two clock reads per call would be a large
//! part of what they measure.

use crate::trace::Tracer;
use crate::workloads::SolutionSeq;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::{
    nid, pid, ConnCodec, DetectMsg, EngineOutput, MonitorCore, NodeEngine, Transport,
};
use ftscp_intervals::{aggregate, Interval, QueueBank, SlotId};
use ftscp_net::frame::frame_bytes;
use ftscp_net::wire::{decode_msg, encode_msg};
use ftscp_net::{FrameBuffer, NetMsg};
use ftscp_simnet::SimTime;
use ftscp_tree::SpanningTree;
use ftscp_vclock::{order, ProcessId};
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

/// Count and total time of one class of calls.
#[derive(Clone, Copy, Default)]
pub struct Calls {
    pub count: u64,
    pub ns: u64,
}

impl Calls {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.ns as f64 / self.count as f64
        }
    }

    /// Adds one call that ran from `t0` to `t1`, and its span.
    fn timed(
        &mut self,
        tracer: &mut Tracer,
        name: &'static str,
        id: u64,
        t0: Instant,
        t1: Instant,
    ) {
        tracer.record(name, id, t0, t1);
        self.count += 1;
        self.ns += (t1 - t0).as_nanos() as u64;
    }
}

impl std::ops::AddAssign for Calls {
    fn add_assign(&mut self, other: Calls) {
        self.count += other.count;
        self.ns += other.ns;
    }
}

/// Times `f` as one batch of `count` calls under a single span.
fn batch(tracer: &mut Tracer, name: &'static str, count: u64, f: impl FnOnce()) -> Calls {
    let t0 = Instant::now();
    f();
    let t1 = Instant::now();
    tracer.record(name, count, t0, t1);
    Calls {
        count,
        ns: (t1 - t0).as_nanos() as u64,
    }
}

/// Most solution sets and engine inputs a replay keeps.
const RECORD_CAP: usize = 20_000;

/// One input of a recorded engine: `None` is its local queue.
pub type EngineInput = (Option<ProcessId>, Interval);

pub struct EngineTreeReplay {
    pub detections: SolutionSeq,
    pub leaf: Calls,
    pub inner: Calls,
    pub root: Calls,
    /// Every report a node sent its parent, in emission order.
    pub uplink: Vec<(ProcessId, Interval)>,
    /// Solution sets of more than one member, with the `(source, seq,
    /// level)` their aggregation was made for.
    pub solution_sets: Vec<(Vec<Interval>, ProcessId, u64, u32)>,
    /// Inputs of the root engine and of its first child, with that
    /// engine's children.
    pub recorded: Vec<(Vec<ProcessId>, Vec<EngineInput>)>,
}

impl EngineTreeReplay {
    pub fn engine_ns(&self) -> u64 {
        self.leaf.ns + self.inner.ns + self.root.ns
    }
}

/// Drives a tree of `NodeEngine`s by hand, the way
/// `HierarchicalDetector::new` + `feed` do, with a span per engine call.
pub fn engine_tree(
    tree: &SpanningTree,
    stream: &[Interval],
    tracer: &mut Tracer,
) -> EngineTreeReplay {
    #[derive(Clone, Copy, PartialEq)]
    enum Class {
        Leaf,
        Inner,
        Root,
    }
    let n = tree.capacity();
    let mut engines: Vec<NodeEngine> = Vec::with_capacity(n);
    let mut class = Vec::with_capacity(n);
    for i in 0..n {
        let node = nid(ProcessId(i as u32));
        let children: Vec<ProcessId> = tree.children(node).iter().map(|&c| pid(c)).collect();
        let is_root = node == tree.root();
        class.push(if is_root {
            Class::Root
        } else if children.is_empty() {
            Class::Leaf
        } else {
            Class::Inner
        });
        let mut e = NodeEngine::new(ProcessId(i as u32), &children, is_root);
        e.set_level((tree.height() - tree.depth(node)) as u32);
        engines.push(e);
    }
    let root = pid(tree.root());
    let watched: Vec<ProcessId> = std::iter::once(root)
        .chain(tree.children(tree.root()).first().map(|&c| pid(c)))
        .collect();
    let mut out = EngineTreeReplay {
        detections: Vec::new(),
        leaf: Calls::default(),
        inner: Calls::default(),
        root: Calls::default(),
        uplink: Vec::new(),
        solution_sets: Vec::new(),
        recorded: watched
            .iter()
            .map(|&w| (engines[w.index()].children().to_vec(), Vec::new()))
            .collect(),
    };

    for (feed, iv) in stream.iter().enumerate() {
        let id = feed as u64;
        tracer.span("replay.engine_tree.feed", id, |tracer| {
            // (target engine, input) pairs still to deliver for this feed.
            let mut pending: VecDeque<(ProcessId, EngineInput)> = VecDeque::new();
            pending.push_back((iv.source, (None, iv.clone())));
            while let Some((at, (from, interval))) = pending.pop_front() {
                if let Some(k) = watched.iter().position(|&w| w == at) {
                    if out.recorded[k].1.len() < RECORD_CAP {
                        out.recorded[k].1.push((from, interval.clone()));
                    }
                }
                let (name, calls) = match class[at.index()] {
                    Class::Leaf => ("core.engine.leaf", &mut out.leaf),
                    Class::Inner => ("core.engine.inner", &mut out.inner),
                    Class::Root => ("core.engine.root", &mut out.root),
                };
                let engine = &mut engines[at.index()];
                let t0 = Instant::now();
                let outputs = match from {
                    None => engine.on_local_interval(interval),
                    Some(child) => engine.on_child_interval(child, interval),
                };
                let t1 = Instant::now();
                calls.timed(tracer, name, id, t0, t1);
                for output in outputs {
                    match output {
                        EngineOutput::Detected(sol) => {
                            let cov = sol.coverage();
                            out.detections.push((
                                sol.index,
                                cov.iter().map(|r| (r.process.0, r.seq)).collect(),
                            ));
                        }
                        EngineOutput::ToParent { interval, solution } => {
                            if solution.intervals.len() > 1 && out.solution_sets.len() < RECORD_CAP
                            {
                                let level = (tree.height() - tree.depth(nid(at))) as u32;
                                out.solution_sets.push((
                                    solution.intervals,
                                    at,
                                    solution.index,
                                    level,
                                ));
                            }
                            out.uplink.push((at, interval.clone()));
                            if let Some(parent) = tree.parent(nid(at)) {
                                pending.push_back((pid(parent), (Some(at), interval)));
                            }
                        }
                    }
                }
            }
        });
    }
    out
}

/// Replays one engine's recorded inputs into a bare default-mode
/// `QueueBank`, `reps` times on a fresh bank; returns the enqueue calls.
pub fn bank_enqueue(
    children: &[ProcessId],
    inputs: &[EngineInput],
    reps: usize,
    tracer: &mut Tracer,
) -> Calls {
    let mut total = Calls::default();
    for _ in 0..reps {
        let mut bank = QueueBank::new(1);
        let slots: Vec<(ProcessId, SlotId)> =
            children.iter().map(|&c| (c, bank.add_queue())).collect();
        let prepared: Vec<(SlotId, Interval)> = inputs
            .iter()
            .map(|(from, iv)| {
                let slot = match from {
                    None => SlotId(0),
                    Some(c) => {
                        slots
                            .iter()
                            .find(|(p, _)| p == c)
                            .expect("recorded child")
                            .1
                    }
                };
                (slot, iv.clone())
            })
            .collect();
        let calls = batch(
            tracer,
            "intervals.bank.enqueue",
            prepared.len() as u64,
            || {
                for (slot, iv) in prepared {
                    black_box(bank.enqueue(slot, iv));
                }
            },
        );
        total += calls;
    }
    total
}

/// `aggregate()` over every recorded solution set.
pub fn aggregate_sets(sets: &[(Vec<Interval>, ProcessId, u64, u32)], tracer: &mut Tracer) -> Calls {
    batch(tracer, "intervals.aggregate", sets.len() as u64, || {
        for (set, source, seq, level) in sets {
            black_box(aggregate(black_box(set), *source, *seq, *level));
        }
    })
}

/// `order::strictly_less(lo, hi)` over pairs of neighbours in the
/// workload's own stream, at its own width — the comparison the sweep
/// makes between two queue heads.
pub fn vclock_compare(stream: &[Interval], calls: usize, tracer: &mut Tracer) -> Calls {
    if stream.len() < 2 {
        return Calls::default();
    }
    batch(tracer, "vclock.compare", calls as u64, || {
        let mut hits = 0u64;
        for k in 0..calls {
            let a = &stream[k % (stream.len() - 1)];
            let b = &stream[k % (stream.len() - 1) + 1];
            hits += u64::from(order::strictly_less(black_box(&a.lo), black_box(&b.hi)));
        }
        black_box(hits);
    })
}

/// Bytes per report of an uplink stream under the per-connection codec:
/// `(stateful, standalone)`.
pub fn codec_bytes(uplink: &[(ProcessId, Interval)], n: usize) -> (f64, f64) {
    if uplink.is_empty() {
        return (0.0, 0.0);
    }
    let mut codecs: Vec<ConnCodec> = (0..n).map(|_| ConnCodec::new()).collect();
    let (mut stateful, mut standalone) = (0usize, 0usize);
    for (from, iv) in uplink {
        let codec = &mut codecs[from.index()];
        stateful += codec.stateful_len(iv);
        codec.note_sent(iv);
        standalone += ConnCodec::standalone_len(iv);
    }
    let k = uplink.len() as f64;
    (stateful as f64 / k, standalone as f64 / k)
}

/// The monitor configuration of the TCP workloads: heartbeats and
/// retransmits off, so every counter repeats exactly.
pub fn quiet_monitor() -> MonitorConfig {
    MonitorConfig {
        heartbeat_period: None,
        retransmit_period: None,
        ..MonitorConfig::default()
    }
}

/// Bench-owned in-memory [`Transport`]: sends queue up for the router.
struct MemTransport {
    outbox: VecDeque<(ProcessId, DetectMsg)>,
}

impl Transport for MemTransport {
    fn now(&self) -> SimTime {
        SimTime::ZERO
    }

    fn send(&mut self, dst: ProcessId, msg: DetectMsg) {
        self.outbox.push_back((dst, msg));
    }

    fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, _size: usize) {
        self.send(dst, msg);
    }
}

pub struct MonitorReplay {
    /// Coverage of every report that reached the sink, in order.
    pub detections: Vec<Vec<(u32, u64)>>,
    pub observe_local: Calls,
    pub on_message: Calls,
    pub msgs_out: u64,
    /// Every frame a connection would carry, as `(connection, message)`:
    /// connection `p` is process `p`'s event client, `n + p` its uplink.
    pub frames: Vec<(usize, NetMsg)>,
}

/// Routes the TCP workloads' execution in-process through one
/// `MonitorCore` per node, wired like the socket deployment: the root
/// reports to `sink`, which is the bench.
pub fn monitor_tree(
    tree: &SpanningTree,
    per_process: &[Vec<Interval>],
    rounds: usize,
    sink: ProcessId,
    tracer: &mut Tracer,
) -> MonitorReplay {
    let n = tree.capacity();
    let mut cores: Vec<MonitorCore> = (0..n)
        .map(|i| {
            let node = nid(ProcessId(i as u32));
            let parent = tree.parent(node).map(pid).unwrap_or(sink);
            let children: Vec<ProcessId> = tree.children(node).iter().map(|&c| pid(c)).collect();
            MonitorCore::new(
                ProcessId(i as u32),
                Some(parent),
                &children,
                tree.level(node) as u32,
                quiet_monitor(),
            )
        })
        .collect();
    let mut t = MemTransport {
        outbox: VecDeque::new(),
    };
    let mut out = MonitorReplay {
        detections: Vec::new(),
        observe_local: Calls::default(),
        on_message: Calls::default(),
        msgs_out: 0,
        frames: Vec::new(),
    };
    for round in 0..rounds {
        let id = round as u64;
        for (p, intervals) in per_process.iter().enumerate() {
            let iv = intervals[round].clone();
            out.frames.push((p, NetMsg::Event(iv.clone())));
            let t0 = Instant::now();
            cores[p].observe_local(iv, &mut t);
            let t1 = Instant::now();
            out.observe_local
                .timed(tracer, "core.monitor.observe_local", id, t0, t1);
            while let Some((dst, msg)) = t.outbox.pop_front() {
                out.msgs_out += 1;
                let DetectMsg::Interval { from, interval, .. } = &msg else {
                    unreachable!("quiet monitors send only interval reports");
                };
                out.frames
                    .push((n + from.index(), NetMsg::Detect(msg.clone())));
                if dst == sink {
                    out.detections.push(
                        interval
                            .coverage
                            .iter()
                            .map(|r| (r.process.0, r.seq))
                            .collect(),
                    );
                    continue;
                }
                let t0 = Instant::now();
                cores[dst.index()].on_message(msg, &mut t);
                let t1 = Instant::now();
                out.on_message
                    .timed(tracer, "core.monitor.on_message", id, t0, t1);
            }
        }
    }
    out
}

pub struct WireReplay {
    pub encode: Calls,
    pub decode: Calls,
    pub roundtrip: Calls,
    /// Every decoded message equalled the one encoded.
    pub faithful: bool,
}

/// Every recorded frame through `encode_msg` → `frame_bytes` →
/// `FrameBuffer::push` → `next_frame` → `decode_msg`, with a codec pair
/// per connection as a live connection has.
pub fn wire(frames: &[(usize, NetMsg)], conns: usize, tracer: &mut Tracer) -> WireReplay {
    let count = frames.len() as u64;
    let mut tx: Vec<ConnCodec> = (0..conns).map(|_| ConnCodec::new()).collect();
    let mut payloads: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let encode = batch(tracer, "net.wire.encode", count, || {
        for (conn, msg) in frames {
            payloads.push(encode_msg(msg, &mut tx[*conn]));
        }
    });
    let mut fbs: Vec<FrameBuffer> = (0..conns).map(|_| FrameBuffer::new()).collect();
    let mut reframed: Vec<Vec<u8>> = Vec::with_capacity(frames.len());
    let roundtrip = batch(tracer, "net.frame.roundtrip", count, || {
        for ((conn, _), payload) in frames.iter().zip(&payloads) {
            let fb = &mut fbs[*conn];
            fb.push(&frame_bytes(payload));
            reframed.push(
                fb.next_frame()
                    .expect("own frames are valid")
                    .expect("a whole frame was pushed"),
            );
        }
    });
    let mut rx: Vec<ConnCodec> = (0..conns).map(|_| ConnCodec::new()).collect();
    let mut decoded: Vec<NetMsg> = Vec::with_capacity(frames.len());
    let decode = batch(tracer, "net.wire.decode", count, || {
        for ((conn, _), frame) in frames.iter().zip(&reframed) {
            decoded.push(decode_msg(frame, &mut rx[*conn]).expect("own frames decode"));
        }
    });
    let faithful = decoded.iter().zip(frames).all(|(d, (_, m))| d == m);
    WireReplay {
        encode,
        decode,
        roundtrip,
        faithful,
    }
}
