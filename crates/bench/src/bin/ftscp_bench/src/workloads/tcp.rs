//! `tcp_pingpong` and `tcp_blast`: a 7-node monitor tree over real TCP on
//! 127.0.0.1, with the bench as the observer.
//!
//! `GlobalDetection.time` on a TCP root counts from that reactor
//! thread's private start, which is later than any bench clock taken
//! before the spawn: lining the two up produced negative latencies. So
//! nothing here reads a node's clock. The bench binds one more listener
//! and spawns the seven nodes itself, giving process 0 a parent — the
//! bench's *sink* thread, which accepts that uplink, answers `Hello`, and
//! stamps every report with its own `Instant` as it arrives. Generator
//! and sink are two threads of one process, so send and arrival times
//! are one clock.

use super::{
    build_execution, overhead_pct, quartile_pass, repeat_setup, tail, timed_passes, Outcome, RunCfg,
    TYPICAL_PERCENTILE,
};
use crate::metrics::{median, percentile, sorted};
use crate::replay::{self, quiet_monitor};
use crate::trace::{self, Span, Tracer};
use ftscp_core::{nid, pid, DetectMsg, HierarchicalDetector};
use ftscp_intervals::{Interval, IntervalRef};
use ftscp_net::frame::frame_bytes;
use ftscp_net::wire::{decode_msg, encode_msg};
use ftscp_net::{
    sockets_available, spawn, EventClient, FrameBuffer, NetMsg, NodeConfig, NodeHandle, NodeReport,
};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

const N: usize = 7;
const DEGREE: usize = 2;
/// The id the sink answers `Hello` with: process 0's parent.
const SINK: ProcessId = ProcessId(N as u32);
/// Windows of rounds one deployment runs back-to-back. A window is the
/// unit the run's statistics are taken over, as a pass is in memory; the
/// first of every deployment is run and checked but not measured.
///
/// A deployment per window was the first design. A fresh tree starts up
/// to a third faster than it settles (new threads, new sockets, and the
/// box gives more to cores that have been mostly idle), so one-window
/// deployments of one calm run read a `tcp_pingpong` p50 anywhere in
/// 68–93 µs, while the later windows of one long deployment read
/// 83 ± 1 µs; over ten interleaved runs the p50 spread by 0.095 of its
/// median the first way and by 0.007 the second.
const WINDOWS: usize = 5;
/// Rounds in one `tcp_pingpong` window (≈ 0.7 s).
const PINGPONG_WINDOW: usize = 8_000;
/// Rounds in one `tcp_blast` window (≈ 0.5 s).
const BLAST_WINDOW: usize = 10_000;
/// Most rounds `tcp_blast` keeps in flight. Writing with no limit but the
/// socket buffers' lets tens of thousands of rounds queue up; throughput
/// then swings by a third from pass to pass and latency by an order of
/// magnitude, on whether the reactors happen to batch. 64 rounds (448
/// events) keep every hop busy and the queues short.
const BLAST_IN_FLIGHT: usize = 64;
/// Longest silence the sink tolerates before it calls the run stuck, and
/// longest the generator waits for a detection to make room.
const SINK_TIMEOUT: Duration = Duration::from_secs(10);

/// Both loads are closed loops: a round is written only while fewer than
/// [`Load::in_flight`] rounds are undetected. The generator sleeps on the
/// sink's tokens while that many are.
///
/// An open loop (a round every 500 µs whatever the system does) was the
/// first design of the latency workload. Between two rounds every core
/// went idle for a few hundred µs, and on the virtual machine this runs
/// on an idle core is a halted vCPU that the host has to schedule back
/// in: the p50 was 145 µs or 245 µs by what the host had been doing for
/// the last minute, and ten runs of one binary spread by a quarter of
/// their median. With one round always in flight no core is idle for
/// longer than a hop, and what is measured is the path through the
/// program. (A generator that spins instead of sleeping is no better: it
/// holds one of two cores, and one round in a hundred waits a whole 4 ms
/// scheduler tick behind it.)
#[derive(Clone, Copy, PartialEq)]
pub enum Load {
    /// One round in flight: the next is written when the sink has seen the
    /// last one's detection.
    PingPong,
    /// [`BLAST_IN_FLIGHT`] rounds in flight, written back-to-back.
    Blast,
}

impl Load {
    fn in_flight(self) -> usize {
        match self {
            Load::PingPong => 1,
            Load::Blast => BLAST_IN_FLIGHT,
        }
    }

    /// Rounds in one window.
    fn window_rounds(self) -> usize {
        match self {
            Load::PingPong => PINGPONG_WINDOW,
            Load::Blast => BLAST_WINDOW,
        }
    }

    /// Rounds one deployment is fed.
    fn rounds(self) -> usize {
        WINDOWS * self.window_rounds()
    }
}

/// The whole TCP tree — seven reactors, generator, sink — on one core, for
/// as long as this lives.
///
/// Nine threads on the box's two shared vCPUs wake each other across
/// cores for every frame, and between vCPUs a wake-up goes through the
/// hypervisor: it costs more than the second core gives (`tcp_blast` does
/// 117 k intervals/s on two cores and 153 k on one) and what it costs
/// follows the host's other tenants, not the program (ten interleaved
/// runs: throughput spread 0.12 on two cores, 0.06 on one). On one core
/// the threads take turns, and the time is the CPU every layer spends on a
/// round plus the context switches between them.
struct OneCore {
    /// The affinity mask to put back.
    saved: [u64; OneCore::WORDS],
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl OneCore {
    const WORDS: usize = 16;
    const BYTES: usize = 8 * OneCore::WORDS;

    /// Restricts the calling thread, and with it every thread spawned from
    /// it afterwards, to the first core it is allowed on.
    fn pin() -> Result<OneCore, String> {
        let os = |what: &str| format!("{what}: {}", std::io::Error::last_os_error());
        let mut saved = [0u64; OneCore::WORDS];
        if unsafe { sched_getaffinity(0, OneCore::BYTES, saved.as_mut_ptr()) } != 0 {
            return Err(os("sched_getaffinity"));
        }
        let word = saved
            .iter()
            .position(|w| *w != 0)
            .ok_or("empty affinity mask")?;
        let mut one = [0u64; OneCore::WORDS];
        one[word] = 1 << saved[word].trailing_zeros();
        if unsafe { sched_setaffinity(0, OneCore::BYTES, one.as_ptr()) } != 0 {
            return Err(os("sched_setaffinity"));
        }
        Ok(OneCore { saved })
    }
}

impl Drop for OneCore {
    fn drop(&mut self) {
        unsafe { sched_setaffinity(0, OneCore::BYTES, self.saved.as_ptr()) };
    }
}

/// Latency of a detection that arrived at `arrival_ns` for a round whose
/// first write began at `from_ns`, µs. An arrival "before" it (clock
/// granularity) is 0, never negative.
pub fn latency_us(arrival_ns: u64, from_ns: u64) -> f64 {
    arrival_ns.saturating_sub(from_ns) as f64 / 1e3
}

/// Wall time, s, of every window of `window` arrivals but the first: from
/// the arrival that ended the window before it to its own last one. A
/// trailing part-window is left out.
pub fn measured_window_walls(arrivals_ns: &[u64], window: usize) -> Vec<f64> {
    let ends: Vec<u64> = arrivals_ns
        .chunks_exact(window.max(1))
        .map(|w| w[w.len() - 1])
        .collect();
    ends.windows(2)
        .map(|e| e[1].saturating_sub(e[0]) as f64 / 1e9)
        .collect()
}

struct Prepared {
    tree: SpanningTree,
    /// Per-process interval sequences; round `r` is index `r` of each.
    intervals: Vec<Vec<Interval>>,
    /// Coverage of every detection of the in-memory detector, in order.
    reference: Vec<Vec<IntervalRef>>,
    tree_build_us: f64,
    workload_build_s: f64,
}

fn prepare(rounds: usize, seed: u64) -> Prepared {
    let t0 = Instant::now();
    let exec = build_execution(N, rounds, 0.0, 0.0, seed);
    let workload_build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let tree = SpanningTree::balanced_dary(N, DEGREE);
    let tree_build_us = t0.elapsed().as_secs_f64() * 1e6;
    let mut det = HierarchicalDetector::new(&tree);
    for round in 0..rounds {
        for p in 0..N {
            det.feed(exec.intervals[p][round].clone());
        }
    }
    let reference = det
        .root_solutions()
        .iter()
        .map(|d| d.coverage.clone())
        .collect();
    Prepared {
        tree,
        intervals: exec.intervals,
        reference,
        tree_build_us,
        workload_build_s,
    }
}

/// What the sink saw.
struct SinkOut {
    /// Arrival stamp and coverage of every report, in arrival order.
    arrivals: Vec<(Instant, Vec<IntervalRef>)>,
    fin_at: Option<Instant>,
    error: Option<String>,
    spans: Vec<Span>,
    /// Kept open until the nodes are stopped, so the root never sees its
    /// parent vanish and redial.
    _uplink: Option<TcpStream>,
}

/// `ready` gets one token when the root's `Hello` is answered; `detected`
/// one per report, which the generator paces itself by (no measured data
/// goes that way) and which closes when the sink returns, with `Fin` or
/// without.
fn sink_loop(
    listener: TcpListener,
    ready: mpsc::Sender<()>,
    detected: mpsc::Sender<()>,
    mut tracer: Tracer,
) -> SinkOut {
    let mut out = SinkOut {
        arrivals: Vec::new(),
        fin_at: None,
        error: None,
        spans: Vec::new(),
        _uplink: None,
    };
    let result = (|| -> Result<(), String> {
        listener.set_nonblocking(true).map_err(|e| e.to_string())?;
        let deadline = Instant::now() + SINK_TIMEOUT;
        let mut stream = loop {
            match listener.accept() {
                Ok((s, _)) => break s,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() > deadline {
                        return Err("the root never dialed the sink".into());
                    }
                    thread::sleep(Duration::from_millis(1));
                }
                Err(e) => return Err(format!("sink accept: {e}")),
            }
        };
        stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(SINK_TIMEOUT))
            .map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        out._uplink = stream.try_clone().ok();
        let mut rx = ftscp_core::ConnCodec::new();
        let mut tx = ftscp_core::ConnCodec::new();
        let mut fb = FrameBuffer::new();
        let mut chunk = vec![0u8; 64 * 1024];
        loop {
            let n = match stream.read(&mut chunk) {
                Ok(0) => return Err("the root closed its uplink before Fin".into()),
                Ok(n) => n,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(format!("sink read: {e}")),
            };
            let at = Instant::now();
            fb.push(&chunk[..n]);
            while let Some(frame) = fb.next_frame().map_err(|e| e.to_string())? {
                let id = out.arrivals.len() as u64;
                let msg = tracer
                    .span("net.wire.decode_msg", id, |_| decode_msg(&frame, &mut rx))
                    .map_err(|e| format!("sink decode: {e:?}"))?;
                match msg {
                    NetMsg::Hello { .. } => {
                        let ack = encode_msg(&NetMsg::HelloAck { node: SINK }, &mut tx);
                        stream
                            .write_all(&frame_bytes(&ack))
                            .map_err(|e| format!("sink HelloAck: {e}"))?;
                        let _ = ready.send(());
                    }
                    NetMsg::Detect(DetectMsg::Interval { interval, .. }) => {
                        out.arrivals.push((at, interval.coverage));
                        let _ = detected.send(());
                    }
                    NetMsg::Fin { .. } => {
                        out.fin_at = Some(at);
                        return Ok(());
                    }
                    _ => {}
                }
            }
        }
    })();
    out.error = result.err();
    out.spans = tracer.into_spans();
    out
}

/// A running tree: seven reactor threads, seven connected event clients,
/// and the sink.
struct Live {
    handles: Vec<NodeHandle>,
    clients: Vec<EventClient>,
    sink: Option<JoinHandle<SinkOut>>,
    /// One token per report the sink has seen.
    detected: mpsc::Receiver<()>,
    spawn_connect_s: f64,
}

/// Binds every listener first (as `loopback::Deployment::launch` does, so
/// each uplink knows its parent's address), spawns the nodes with process
/// 0 parented to the sink, connects one `EventClient` per process, and
/// waits until the root's `Hello` reached the sink.
fn launch(tree: &SpanningTree, traced: bool, epoch: Instant) -> Result<Live, String> {
    let t0 = Instant::now();
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let sink_listener = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io("bind sink", e))?;
    let sink_addr = sink_listener.local_addr().map_err(|e| io("sink addr", e))?;
    let (ready_tx, ready_rx) = mpsc::channel();
    let sink_tracer = Tracer::new(traced, epoch);
    let (detected_tx, detected) = mpsc::channel();
    let sink = thread::Builder::new()
        .name("ftscp-bench-sink".into())
        .spawn(move || sink_loop(sink_listener, ready_tx, detected_tx, sink_tracer))
        .map_err(|e| io("spawn sink", e))?;
    let mut live = Live {
        handles: Vec::new(),
        clients: Vec::new(),
        sink: Some(sink),
        detected,
        spawn_connect_s: 0.0,
    };

    let mut listeners = Vec::with_capacity(N);
    let mut addrs = Vec::with_capacity(N);
    for _ in 0..N {
        let l = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| io("bind node", e))?;
        addrs.push(l.local_addr().map_err(|e| io("node addr", e))?);
        listeners.push(l);
    }
    for (i, listener) in listeners.into_iter().enumerate() {
        let node = nid(ProcessId(i as u32));
        let parent = match tree.parent(node) {
            Some(p) => (pid(p), addrs[p.index()]),
            None => (SINK, sink_addr),
        };
        let mut cfg = NodeConfig::new(ProcessId(i as u32), Some(parent));
        cfg.children = tree.children(node).iter().map(|&c| pid(c)).collect();
        cfg.level = tree.level(node) as u32;
        cfg.expected_feeds = 1;
        cfg.monitor = quiet_monitor();
        live.handles
            .push(spawn(listener, cfg).map_err(|e| io("spawn node", e))?);
    }
    for (i, addr) in addrs.iter().enumerate() {
        live.clients.push(
            EventClient::connect(*addr, ProcessId(i as u32))
                .map_err(|e| io("connect client", e))?,
        );
    }
    ready_rx
        .recv_timeout(SINK_TIMEOUT)
        .map_err(|_| "the root's Hello never reached the sink".to_string())?;
    // Every uplink dials at its node's first loop pass, before the node
    // reads a byte; this margin covers a connect still resolving. A
    // report sent with the uplink down would be dropped (retransmits are
    // off) and the reference check would say so.
    thread::sleep(Duration::from_millis(20));
    live.spawn_connect_s = t0.elapsed().as_secs_f64();
    Ok(live)
}

impl Live {
    /// Waits for the sink to see `Fin` (or give up), then stops the nodes.
    fn finish(mut self) -> (SinkOut, Vec<NodeReport>) {
        self.clients.clear();
        let sink = self.sink.take().expect("sink joined once").join();
        let reports = self.handles.drain(..).map(NodeHandle::finish).collect();
        let sink = sink.unwrap_or_else(|_| SinkOut {
            arrivals: Vec::new(),
            fin_at: None,
            error: Some("sink thread panicked".into()),
            spans: Vec::new(),
            _uplink: None,
        });
        (sink, reports)
    }
}

impl Drop for Live {
    /// Tear-down of a tree that was not run to `Fin` (a set-up
    /// repetition, an error path): stopping the nodes closes the root's
    /// uplink, which ends the sink.
    fn drop(&mut self) {
        self.clients.clear();
        for h in self.handles.drain(..) {
            h.finish();
        }
        if let Some(sink) = self.sink.take() {
            let _ = sink.join();
        }
    }
}

/// What the generator did.
struct Generated {
    /// Per round: the moment before its first event was written — the
    /// instant latency counts from.
    from: Vec<Instant>,
    sends: u64,
    failed_sends: u64,
    spans: Vec<Span>,
}

/// Blocks the generator while `in_flight` rounds are undetected; `seen`
/// counts the sink's tokens taken so far. False when room can no longer
/// come: the sink has ended, or no detection arrived for [`SINK_TIMEOUT`] —
/// a tree that stopped delivering must end the run as failed, not hang it.
fn wait_for_room(
    round: usize,
    in_flight: usize,
    seen: &mut usize,
    detected: &mpsc::Receiver<()>,
) -> bool {
    *seen += detected.try_iter().count();
    while round >= *seen + in_flight {
        if detected.recv_timeout(SINK_TIMEOUT).is_err() {
            return false;
        }
        *seen += 1;
    }
    true
}

fn generate(
    load: Load,
    prep: &Prepared,
    clients: &mut Vec<EventClient>,
    detected: &mpsc::Receiver<()>,
    mut tracer: Tracer,
) -> Generated {
    let rounds = load.rounds();
    let mut out = Generated {
        from: Vec::with_capacity(rounds),
        sends: 0,
        failed_sends: 0,
        spans: Vec::new(),
    };
    let total = (rounds * N) as u64;
    let mut seen = 0;
    'rounds: for round in 0..rounds {
        if !wait_for_room(round, load.in_flight(), &mut seen, detected) {
            // Nothing comes back any more: what was not sent has failed.
            out.failed_sends += total - out.sends;
            out.sends = total;
            break 'rounds;
        }
        out.from.push(Instant::now());
        for (p, client) in clients.iter_mut().enumerate() {
            let iv = &prep.intervals[p][round];
            out.sends += 1;
            let sent = tracer.span("net.client.send_event", round as u64, |_| {
                client.send_event(iv)
            });
            if sent.is_err() {
                // The feed is broken: everything not yet sent fails with it.
                out.failed_sends += total - out.sends + 1;
                out.sends = total;
                break 'rounds;
            }
        }
    }
    for client in clients.drain(..) {
        out.sends += 1;
        out.failed_sends += u64::from(client.fin().is_err());
    }
    out.spans = tracer.into_spans();
    out
}

/// One deployment's run, measured from its second window on.
struct Pass {
    /// Latency of every measured round.
    latencies_us: Vec<f64>,
    /// Wall time of every measured window: from the arrival of the last
    /// detection of the window before it to the arrival of its own last.
    window_walls: Vec<f64>,
    reports: Vec<NodeReport>,
    spawn_connect_s: f64,
    spans: Vec<Span>,
}

fn pass(
    load: Load,
    prep: &Prepared,
    mut live: Live,
    epoch: Instant,
    traced: bool,
    out: &mut Outcome,
) -> (f64, Pass) {
    let spawn_connect_s = live.spawn_connect_s;
    let mut clients = std::mem::take(&mut live.clients);
    let gen = generate(
        load,
        prep,
        &mut clients,
        &live.detected,
        Tracer::new(traced, epoch),
    );
    let (sink, reports) = live.finish();

    out.checks.tally(gen.sends, gen.failed_sends, || {
        format!("{} of {} sends failed", gen.failed_sends, gen.sends)
    });
    if let Some(e) = &sink.error {
        out.checks.check(false, || e.clone());
    }
    // Detections equal the in-memory detector's, in order and coverage.
    let wrong = sink
        .arrivals
        .iter()
        .zip(&prep.reference)
        .filter(|((_, got), want)| got != *want)
        .count()
        + sink.arrivals.len().abs_diff(prep.reference.len());
    out.checks
        .tally(prep.reference.len() as u64, wrong as u64, || {
            format!(
                "{wrong} detections missing or wrong ({} arrived, {} expected)",
                sink.arrivals.len(),
                prep.reference.len()
            )
        });

    let ns = |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let mut spans = gen.spans;
    let mut detect_tracer = Tracer::new(traced, epoch);
    let window = load.window_rounds();
    let arrivals_ns: Vec<u64> = sink.arrivals.iter().map(|(at, _)| ns(*at)).collect();
    let window_walls = measured_window_walls(&arrivals_ns, window);
    let latencies_us = sink
        .arrivals
        .iter()
        .skip(window)
        .filter_map(|(at, coverage)| {
            // The last covered event to be written is one of the latest round.
            let round = coverage.iter().map(|r| r.seq).max()? as usize;
            let from = *gen.from.get(round)?;
            detect_tracer.record("tcp.detect", round as u64, from, *at);
            Some(latency_us(ns(*at), ns(from)))
        })
        .collect();
    trace::merge(&mut spans, sink.spans);
    trace::merge(&mut spans, detect_tracer.into_spans());
    let end = sink.fin_at.unwrap_or_else(Instant::now);
    let first_send = gen.from.first().copied().unwrap_or(end);
    let wall = (end - first_send).as_secs_f64();
    let pass = Pass {
        latencies_us,
        window_walls,
        reports,
        spawn_connect_s,
        spans,
    };
    (wall, pass)
}

pub fn run(load: Load, cfg: &RunCfg) -> Result<Outcome, String> {
    if !sockets_available() {
        return Err("loopback sockets are not available: the TCP workloads cannot run".into());
    }
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let rounds = load.rounds();
    let one_core = OneCore::pin()?;
    // Set-up is everything before the first timed send: the execution,
    // the tree, the reference run, spawn and connect.
    let ((prep, first_live), setup_s) = repeat_setup(|| {
        let prep = prepare(rounds, cfg.seed);
        let live = launch(&prep.tree, false, epoch)?;
        Ok((prep, live))
    })?;
    let intervals = (rounds * N) as f64;

    // The first deployment is the one the set-up left.
    let mut first_live = Some(first_live);
    let passes = timed_passes(cfg.pass_budget(), if cfg.traced { 1 } else { 3 }, |_| {
        let live = match first_live.take() {
            Some(live) => live,
            None => launch(&prep.tree, false, epoch)?,
        };
        Ok(pass(load, &prep, live, epoch, false, &mut out))
    })?;
    // Throughput of the first-quartile window; counters of the
    // first-quartile deployment.
    let walls: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.window_walls.iter().copied())
        .collect();
    if !walls.is_empty() {
        let window_intervals = (load.window_rounds() * N) as f64;
        let wall = percentile(&sorted(walls.clone()), TYPICAL_PERCENTILE);
        out.set("intervals_per_s", window_intervals / wall);
    }
    let mid = &passes[quartile_pass(&passes)];
    let latencies_us: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.latencies_us.iter().copied())
        .collect();
    let lat = tail(&latencies_us, load.window_rounds());
    out.set_latency(&lat);
    let sum = |f: fn(&NodeReport) -> u64| mid.1.reports.iter().map(f).sum::<u64>() as f64;
    out.set("wire_bytes_per_interval", sum(|r| r.bytes_sent) / intervals);
    out.set(
        "msgs_per_interval",
        sum(|r| r.interval_msgs_sent) / intervals,
    );
    out.set(
        "net.node.syscalls_per_interval",
        sum(|r| r.syscalls) / intervals,
    );
    out.set("net.node.interval_frames", sum(|r| r.interval_frames_sent));
    out.set(
        "net.node.standalone_frames",
        sum(|r| r.standalone_frames_sent),
    );
    out.set("net.node.reconnects", sum(|r| r.reconnects));
    out.set("net.node.bytes_received", sum(|r| r.bytes_received));
    out.set(
        "net.node.spawn_connect_s",
        median(
            &passes
                .iter()
                .map(|(_, p)| p.spawn_connect_s)
                .collect::<Vec<_>>(),
        ),
    );
    out.set("tree.build_us", prep.tree_build_us);
    out.set("workload.build_s", prep.workload_build_s);
    let samples = latencies_us.len();
    let untraced = (mid.0, lat.p50);
    drop(passes);

    if cfg.traced {
        traced(load, &prep, epoch, untraced, &mut out)?;
    }
    drop(one_core);
    out.finish(&setup_s, &walls, samples);
    Ok(out)
}

fn traced(
    load: Load,
    prep: &Prepared,
    epoch: Instant,
    untraced: (f64, f64),
    out: &mut Outcome,
) -> Result<(), String> {
    // The same load again with spans around every send and every decode.
    let live = launch(&prep.tree, true, epoch)?;
    let (wall, p) = pass(load, prep, live, epoch, true, out);
    out.set(
        "harness.trace_overhead_pct",
        overhead_pct(wall, untraced.0),
    );
    let mut spans = p.spans;
    let agg = trace::aggregate(&spans);
    out.set(
        "net.client.send_event_ns",
        agg.get("net.client.send_event")
            .map_or(0.0, trace::Aggregate::mean_ns),
    );

    // The same execution in-process: seven MonitorCores over an in-memory
    // transport, then every frame through codec and framing.
    let mut tracer = Tracer::new(true, epoch);
    let mon = replay::monitor_tree(
        &prep.tree,
        &prep.intervals,
        load.rounds(),
        SINK,
        &mut tracer,
    );
    let reference: Vec<Vec<(u32, u64)>> = prep
        .reference
        .iter()
        .map(|c| c.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    out.checks.check(mon.detections == reference, || {
        "in-process MonitorCore routing diverged from the detector".into()
    });
    out.set("core.monitor.observe_local_ns", mon.observe_local.mean_ns());
    out.set("core.monitor.on_message_ns", mon.on_message.mean_ns());
    out.set("core.monitor.msgs_out", mon.msgs_out as f64);
    let wire = replay::wire(&mon.frames, 2 * N, &mut tracer);
    out.checks.check(wire.faithful, || {
        "a frame did not decode to the message encoded".into()
    });
    out.set("net.wire.encode_ns", wire.encode.mean_ns());
    out.set("net.wire.decode_ns", wire.decode.mean_ns());
    out.set("net.frame.roundtrip_ns", wire.roundtrip.mean_ns());
    let uplink: Vec<(ProcessId, Interval)> = mon
        .frames
        .iter()
        .filter_map(|(_, msg)| match msg {
            NetMsg::Detect(DetectMsg::Interval { from, interval, .. }) => {
                Some((*from, interval.clone()))
            }
            _ => None,
        })
        .collect();
    out.set_codec_bytes(&uplink, N);
    // The blocking path of one detection is three hops: a leaf takes the
    // event in, its parent and the root each take a report in, and each of
    // the three frames is encoded, framed and decoded once. What is left
    // of the observed median is what the reactor, the kernel and the
    // scheduler cost.
    let cpu_path_ns = 3.0
        * (wire.encode.mean_ns() + wire.roundtrip.mean_ns() + wire.decode.mean_ns())
        + mon.observe_local.mean_ns()
        + 2.0 * mon.on_message.mean_ns();
    if load == Load::PingPong {
        out.set("net.node.residual_us", untraced.1 - cpu_path_ns / 1e3);
    }
    trace::merge(&mut spans, tracer.into_spans());
    out.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_full_pipe_waits_only_while_the_sink_lives() {
        let (sink, detected) = mpsc::channel();
        let mut seen = 0;
        assert!(wait_for_room(BLAST_IN_FLIGHT - 1, BLAST_IN_FLIGHT, &mut seen, &detected));
        assert!(wait_for_room(0, 1, &mut seen, &detected));
        for _ in 0..10 {
            sink.send(()).unwrap();
        }
        assert!(wait_for_room(BLAST_IN_FLIGHT + 9, BLAST_IN_FLIGHT, &mut seen, &detected));
        assert!(wait_for_room(10, 1, &mut seen, &detected));
        assert_eq!(seen, 10);
        // All rounds allowed in flight are, and the sink has ended: no
        // room will come.
        drop(sink);
        assert!(!wait_for_room(BLAST_IN_FLIGHT + 10, BLAST_IN_FLIGHT, &mut seen, &detected));
        assert!(!wait_for_room(11, 1, &mut seen, &detected));
    }

    #[test]
    fn the_first_window_and_a_part_window_are_not_measured() {
        // Arrivals 1 ms apart, then 2 ms apart from the seventh on.
        let at: Vec<u64> = (0..11u64)
            .map(|k| (k + k.saturating_sub(5)) * 1_000_000)
            .collect();
        // Windows of 3: [0,1,2] is the unmeasured first and ends at 2 ms;
        // [3,4,5] ends at 5 ms, [6,7,8] at 11 ms; [9,10] is partial.
        assert_eq!(measured_window_walls(&at, 3), [0.003, 0.006]);
        assert!(measured_window_walls(&at[..5], 3).is_empty());
        assert!(measured_window_walls(&[], 3).is_empty());
    }

    #[test]
    fn latency_counts_from_the_first_write_and_is_never_negative() {
        assert_eq!(latency_us(1_280_000, 1_000_000), 280.0);
        assert_eq!(latency_us(1_000_000, 1_000_000), 0.0);
        assert_eq!(latency_us(999_999, 1_000_000), 0.0);
    }
}
