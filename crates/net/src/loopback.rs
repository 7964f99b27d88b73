//! In-process loopback deployment: a full monitor tree over real TCP on
//! 127.0.0.1.
//!
//! Same role as `ftscp_core::deploy::Deployment` plays for the simulated
//! transport, but every edge is a real socket and every node a bundle of
//! real threads. Used by the differential test (simnet vs TCP must
//! detect identically) and by the `net_loopback` benchmark row.
//!
//! Launch order matters only in one way: all listeners are bound *before*
//! any node spawns, so every uplink knows its parent's address even if
//! the parent's threads come up later (the uplink retries until the
//! parent accepts). Each node's local intervals are fed through a real
//! [`EventClient`] connection — the ingestion
//! endpoint is exercised on every node, not just leaves.
//!
//! Whole-node failures are first-class: [`Deployment::crash_node`] kills
//! a node's entire thread bundle mid-run, and the *survivors* repair the
//! tree themselves through the decentralized membership protocol
//! (heartbeat suspicion → grandparent adoption → re-reports; see
//! `ftscp_core::membership`) — no harness involvement.
//! [`Deployment::restart_node`] brings a crashed node back on a fresh
//! port, rejoining through the same adoption handshake.

use crate::client::EventClient;
use crate::node::{spawn, NodeConfig, NodeHandle, NodeReport};
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::report::GlobalDetection;
use ftscp_simnet::SimTime;
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// True when the environment lets us bind loopback sockets — sandboxes
/// without network namespaces make the whole subsystem untestable, and
/// callers (tests, CI) skip gracefully instead of failing.
pub fn sockets_available() -> bool {
    TcpListener::bind(("127.0.0.1", 0)).is_ok()
}

/// Knobs for a loopback run.
#[derive(Clone, Debug)]
pub struct LoopbackConfig {
    /// Monitor protocol configuration applied to every node. `SimTime`
    /// periods are wall-clock microseconds here.
    pub monitor: MonitorConfig,
    /// Delay between consecutive events on each feed — zero blasts the
    /// stream; a small pacing stretches the run so mid-run fault
    /// injection lands on live traffic.
    pub event_pacing: Duration,
    /// Hard cap on how long [`Deployment::finish`] waits for the root.
    pub run_timeout: Duration,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            // Heartbeats on (50 ms wall), peers silent for 500 ms are
            // declared dead and repaired around, reliability layer on
            // with a generous period: TCP rarely needs retransmits, but a
            // severed-and-reconnected uplink recovers through them.
            monitor: MonitorConfig {
                heartbeat_period: Some(SimTime::from_millis(50)),
                retransmit_period: Some(SimTime::from_millis(25)),
                retransmit_burst: 64,
                retransmit_backoff_cap: 8,
                suspect_timeout: Some(SimTime::from_millis(500)),
            },
            event_pacing: Duration::ZERO,
            run_timeout: Duration::from_secs(30),
        }
    }
}

/// Everything a loopback run produced.
#[derive(Clone, Debug)]
pub struct LoopbackReport {
    /// Detections at the root, in emission order.
    pub detections: Vec<GlobalDetection>,
    /// Per-node reports, indexed by process id (crashed nodes report
    /// what they had at crash time).
    pub node_reports: Vec<NodeReport>,
    /// Wall-clock duration from launch to root completion (or timeout).
    pub elapsed: Duration,
    /// True if the root never finished within the configured timeout.
    pub timed_out: bool,
    /// Local intervals fed into the tree.
    pub total_intervals: u64,
}

impl LoopbackReport {
    /// Total bytes written to sockets across all nodes (both directions
    /// of every edge are counted once, at the writer).
    pub fn bytes_on_wire(&self) -> u64 {
        self.node_reports.iter().map(|r| r.bytes_sent).sum()
    }

    /// Interval-carrying frames sent (reports + ingested events).
    pub fn interval_frames(&self) -> u64 {
        self.node_reports
            .iter()
            .map(|r| r.interval_frames_sent)
            .sum()
    }

    /// Standalone (cold-decodable) interval frames — stream resync points.
    pub fn standalone_frames(&self) -> u64 {
        self.node_reports
            .iter()
            .map(|r| r.standalone_frames_sent)
            .sum()
    }

    /// Uplink reconnects across the deployment.
    pub fn reconnects(&self) -> u64 {
        self.node_reports.iter().map(|r| r.reconnects).sum()
    }
}

/// A running loopback tree plus its event feeders.
pub struct Deployment {
    handles: Vec<Option<NodeHandle>>,
    /// Crash-time reports of nodes taken down by `crash_node`.
    crash_reports: Vec<Option<NodeReport>>,
    addrs: Vec<SocketAddr>,
    root: ProcessId,
    feeders: Vec<JoinHandle<io::Result<()>>>,
    started: Instant,
    total_intervals: u64,
    crashes_injected: bool,
}

impl Deployment {
    /// Binds one listener per tree node and spawns all nodes. The tree
    /// must contain every node in `0..capacity` at launch (failures come
    /// later, via [`crash_node`](Self::crash_node)).
    pub fn launch(tree: &SpanningTree, config: &LoopbackConfig) -> io::Result<Deployment> {
        let n = tree.capacity();
        let mut listeners = Vec::with_capacity(n);
        let mut addrs = Vec::with_capacity(n);
        for _ in 0..n {
            let l = TcpListener::bind(("127.0.0.1", 0))?;
            addrs.push(l.local_addr()?);
            listeners.push(l);
        }
        let mut handles = Vec::with_capacity(n);
        for (node, listener) in ProcessId::all(n).zip(listeners) {
            assert!(tree.contains(node), "loopback trees must be full");
            let mut cfg = NodeConfig::new(node, tree.parent(node).map(|p| (p, addrs[p.index()])));
            cfg.children = tree.children(node).to_vec();
            cfg.level = tree.level(node) as u32;
            cfg.expected_feeds = 1; // every process feeds its own intervals
            cfg.monitor = config.monitor;
            handles.push(Some(spawn(listener, cfg)?));
        }
        Ok(Deployment {
            handles,
            crash_reports: (0..n).map(|_| None).collect(),
            addrs,
            root: tree.root(),
            feeders: Vec::new(),
            started: Instant::now(),
            total_intervals: 0,
            crashes_injected: false,
        })
    }

    /// Address of node `p`'s listener (for external clients).
    pub fn addr(&self, p: ProcessId) -> SocketAddr {
        self.addrs[p.index()]
    }

    /// Starts one event-client thread per process, feeding that process's
    /// local intervals from `exec` in order (paced by `pacing`), then
    /// `Fin`ing. Returns immediately; [`finish`](Self::finish) joins.
    pub fn feed_execution(&mut self, exec: &Execution, pacing: Duration) {
        for p in 0..exec.n {
            let process = ProcessId(p as u32);
            let addr = self.addrs[p];
            let intervals: Vec<_> = exec.intervals_of(process).to_vec();
            self.total_intervals += intervals.len() as u64;
            self.feeders.push(thread::spawn(move || {
                let mut client = EventClient::connect(addr, process)?;
                for iv in &intervals {
                    client.send_event(iv)?;
                    if !pacing.is_zero() {
                        thread::sleep(pacing);
                    }
                }
                client.fin()
            }));
        }
    }

    /// Fault injection: severs `p`'s uplink mid-run. Returns whether a
    /// live uplink socket was shut down (see [`NodeHandle::drop_uplink`]).
    pub fn drop_uplink(&self, p: ProcessId) -> bool {
        self.handles[p.index()]
            .as_ref()
            .is_some_and(NodeHandle::drop_uplink)
    }

    /// Crash-stop failure: kills `p`'s entire thread bundle (listener,
    /// connections, main loop) mid-run. Peers observe dead sockets and
    /// silent heartbeats; the *survivors* repair the tree through the
    /// decentralized adoption protocol. Idempotent; returns the node's
    /// report as of crash time.
    pub fn crash_node(&mut self, p: ProcessId) -> Option<NodeReport> {
        let handle = self.handles[p.index()].take()?;
        self.crashes_injected = true;
        let report = handle.finish();
        self.crash_reports[p.index()] = Some(report.clone());
        Some(report)
    }

    /// Brings a crashed node back as a fresh incarnation on a new port,
    /// rejoining the tree as a leaf under `parent` through the adoption
    /// handshake (the node dials the parent and sends `Adopt` with a
    /// fresh epoch; no re-spawned node keeps any pre-crash state).
    /// Returns an error if the node is still running.
    pub fn restart_node(
        &mut self,
        p: ProcessId,
        parent: ProcessId,
        config: &LoopbackConfig,
    ) -> io::Result<()> {
        if self.handles[p.index()].is_some() {
            return Err(io::Error::other("node is still running"));
        }
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        self.addrs[p.index()] = listener.local_addr()?;
        let mut cfg = NodeConfig::new(p, Some((parent, self.addrs[parent.index()])));
        cfg.level = 1;
        cfg.expected_feeds = 1; // same contract as launch: it feeds itself
        cfg.monitor = config.monitor;
        cfg.rejoin = true;
        self.handles[p.index()] = Some(spawn(listener, cfg)?);
        Ok(())
    }

    /// Waits for the root to drain (bounded by `run_timeout`), then tears
    /// everything down and reports. A crashed root cannot drain: the run
    /// halts immediately and gracefully instead of burning the timeout.
    pub fn finish(self, config: &LoopbackConfig) -> io::Result<LoopbackReport> {
        let timed_out = match &self.handles[self.root.index()] {
            Some(h) => !h.wait_done(config.run_timeout),
            None => false, // root crashed: nothing to wait for
        };
        let elapsed = self.started.elapsed();
        for feeder in self.feeders {
            match feeder.join() {
                // A feeder aimed at a crashed node dies with it — only
                // crash-free runs insist on clean feeds.
                Ok(res) => {
                    if !self.crashes_injected {
                        res?;
                    }
                }
                Err(_) => return Err(io::Error::other("feeder thread panicked")),
            }
        }
        let root = self.root;
        let crash_reports = self.crash_reports;
        let node_reports: Vec<NodeReport> = self
            .handles
            .into_iter()
            .zip(crash_reports)
            .map(|(h, crashed)| match h {
                Some(h) => h.finish(),
                None => crashed.unwrap_or_default(),
            })
            .collect();
        let detections = node_reports[root.index()].detections.clone();
        Ok(LoopbackReport {
            detections,
            node_reports,
            elapsed,
            timed_out,
            total_intervals: self.total_intervals,
        })
    }
}

/// Convenience: launch, feed the whole execution, finish.
pub fn run_execution(
    tree: &SpanningTree,
    exec: &Execution,
    config: &LoopbackConfig,
) -> io::Result<LoopbackReport> {
    let mut dep = Deployment::launch(tree, config)?;
    dep.feed_execution(exec, config.event_pacing);
    dep.finish(config)
}
