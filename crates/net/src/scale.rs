//! Many-children scale driver: one real monitor node under hundreds of
//! concurrent child connections, all driven from a single poller in the
//! calling thread.
//!
//! The point is to exercise the reactor's fan-in — one epoll set, one
//! thread, ≥512 sockets — without paying for 512 full node threads.
//! Each synthetic child is a *real* leaf [`MonitorCore`] (so its report
//! stream, acks, and `Fin` gating are protocol-exact), but its socket is
//! multiplexed here instead of owning a reactor of its own. The node
//! under test is a completely ordinary [`crate::node::spawn`] root.
//!
//! Used by `tests/scale.rs` (the ≥512-connection smoke test) and by the
//! `reactor` row of the hot-path bench.

use crate::conn::{Conn, Counters};
use crate::frame::FillStatus;
use crate::node::{spawn, NodeConfig, NodeReport};
use crate::reactor::connect_nonblocking;
use crate::wire::{NetMsg, PeerKind, PROTO_VERSION};
use crate::EventClient;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::transport::{MonitorCore, Outbox};
use ftscp_intervals::Interval;
use ftscp_simnet::SimTime;
use ftscp_vclock::{ProcessId, VectorClock};
use polling::{Event as PollEvent, Events, Poller};
use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Outcome of one scale run.
#[derive(Debug)]
pub struct ScaleReport {
    /// Concurrent child connections sustained.
    pub children: usize,
    /// Interval rounds each feed produced.
    pub rounds: u64,
    /// The root node's report (detections, wire counters, syscalls).
    pub node: NodeReport,
}

/// File descriptors the run needs: both ends of every child connection
/// live in this process, plus the listener, two pollers, the feed
/// connection, and headroom for the test harness itself.
fn fd_budget(children: usize) -> u64 {
    (2 * children + 64) as u64
}

/// Runs a root node with `children` synthetic protocol children, each
/// streaming `rounds` overlapping interval reports (the `ftscp_feed`
/// pattern: round `s` is `lo=[2s+1;n]`, `hi=[2s+2;n]`, one global
/// solution per round), plus one ordinary event feed for the root's own
/// process. Returns `None` when the environment can't host the run
/// (sockets unavailable or the fd limit can't be raised); errors are
/// real failures.
pub fn run_scale(
    children: usize,
    rounds: u64,
    timeout: Duration,
) -> io::Result<Option<ScaleReport>> {
    if !crate::sockets_available() || !fdlimit::ensure(fd_budget(children)) {
        return Ok(None);
    }
    let deadline = Instant::now() + timeout;
    let n = children + 1; // vector clock width: root's process + children

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut config = NodeConfig::new(ProcessId(0), None);
    config.children = (1..=children as u32).map(ProcessId).collect();
    config.level = 2;
    config.expected_feeds = 1;
    // Deterministic counters for the bench row: no heartbeats, no
    // retransmits — every frame on the wire is protocol payload.
    config.monitor = MonitorConfig {
        heartbeat_period: None,
        retransmit_period: None,
        ..MonitorConfig::default()
    };
    let node = spawn(listener, config)?;
    let addr = node.addr;

    // The root's own feed: one ordinary blocking event client.
    let mut feed = EventClient::connect(addr, ProcessId(0))?;
    for s in 0..rounds {
        feed.send_event(&round_interval(ProcessId(0), s, n))?;
    }
    feed.fin()?;

    // Synthetic children: real leaf cores, sockets multiplexed here.
    let poller = Poller::new()?;
    let counters = Arc::new(Counters::default()); // the children's side; not reported
    let mut kids = Vec::with_capacity(children);
    for i in 0..children {
        let me = ProcessId(1 + i as u32);
        let (stream, established) = connect_nonblocking(addr)?;
        let _ = stream.set_nodelay(true);
        let interest = if established {
            PollEvent::readable(i)
        } else {
            PollEvent::writable(i)
        };
        poller.add(&stream, interest)?;
        let mut kid = Child::new(me, Conn::new(stream, Arc::clone(&counters)));
        if established {
            kid.open(rounds, n);
        }
        kids.push(kid);
    }

    let mut events = Events::new();
    while kids.iter().any(|k| !k.finished()) {
        if Instant::now() >= deadline {
            drop(kids);
            let _ = node.finish();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "scale run deadline exceeded before all children finished",
            ));
        }
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        for ev in events.iter() {
            let kid = &mut kids[ev.key];
            if !kid.established {
                if ev.writable && matches!(kid.conn.stream().take_error(), Ok(None)) {
                    kid.open(rounds, n);
                } else if ev.writable {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionRefused,
                        "synthetic child connect failed",
                    ));
                }
                continue;
            }
            if ev.readable {
                kid.readable()?;
            }
        }
        // Flush (each connection keeps its write interest in step with its
        // residue), every iteration.
        for (i, kid) in kids.iter_mut().enumerate() {
            if kid.established {
                kid.conn.flush(&poller, i)?;
            }
        }
    }

    let remaining = deadline.saturating_duration_since(Instant::now());
    if !node.wait_done(remaining) {
        drop(kids);
        let _ = node.finish();
        return Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "root did not drain within the deadline",
        ));
    }
    let report = node.finish();
    Ok(Some(ScaleReport {
        children,
        rounds,
        node: report,
    }))
}

/// Round `s` of the deterministic overlapping workload (all components
/// equal ⇒ every process's round-`s` interval pairwise overlaps).
fn round_interval(p: ProcessId, s: u64, n: usize) -> Interval {
    let lo = VectorClock::from_components(vec![(2 * s + 1) as u32; n]);
    let hi = VectorClock::from_components(vec![(2 * s + 2) as u32; n]);
    Interval::local(p, s, lo, hi)
}

/// One synthetic child: a real leaf core on one [`Conn`], multiplexed by
/// the caller's poller instead of a reactor of its own.
struct Child {
    core: MonitorCore,
    conn: Conn,
    start: Instant,
    established: bool,
    rounds_sent: bool,
    fin_sent: bool,
}

impl Child {
    fn new(me: ProcessId, conn: Conn) -> Child {
        Child {
            core: MonitorCore::new(
                me,
                Some(ProcessId(0)),
                &[],
                1,
                MonitorConfig {
                    heartbeat_period: None,
                    retransmit_period: None,
                    ..MonitorConfig::default()
                },
            ),
            conn,
            start: Instant::now(),
            established: false,
            rounds_sent: false,
            fin_sent: false,
        }
    }

    fn finished(&self) -> bool {
        self.fin_sent && !self.conn.pending_out()
    }

    fn with_core<R>(&mut self, f: impl FnOnce(&mut MonitorCore, &mut Outbox) -> R) -> R {
        let mut t = Outbox::new(SimTime(self.start.elapsed().as_micros() as u64));
        let r = f(&mut self.core, &mut t);
        // A leaf has exactly one neighbor: its parent, our one socket.
        for (_dst, msg) in t.sent {
            self.conn.enqueue(&NetMsg::Detect(msg));
        }
        r
    }

    /// The connection is up: handshake, cold-start the report stream, and
    /// push every round. Acks stream back while later rounds flush out.
    fn open(&mut self, rounds: u64, n: usize) {
        self.established = true;
        let me = self.me();
        self.conn.enqueue(&NetMsg::Hello {
            node: me,
            kind: PeerKind::Child,
            proto: PROTO_VERSION,
        });
        self.with_core(|core, t| core.resync_uplink(t));
        for s in 0..rounds {
            let iv = round_interval(me, s, n);
            self.with_core(|core, t| core.observe_local(iv, t));
        }
        self.rounds_sent = true;
        self.maybe_fin();
    }

    fn me(&self) -> ProcessId {
        self.core.engine().node()
    }

    fn maybe_fin(&mut self) {
        if !self.fin_sent && self.rounds_sent && self.core.unacked_count() == 0 {
            let me = self.me();
            self.conn.enqueue(&NetMsg::Fin { from: me });
            self.fin_sent = true;
        }
    }

    fn readable(&mut self) -> io::Result<()> {
        let filled = self.conn.fill()?;
        while let Some(msg) = self
            .conn
            .next_msg()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?
        {
            // HelloAck / hints need no action here.
            if let NetMsg::Detect(d) = msg {
                self.with_core(|core, t| core.on_message(d, t));
                self.maybe_fin();
            }
        }
        if filled == FillStatus::Eof && !self.finished() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "node closed a child connection mid-run",
            ));
        }
        Ok(())
    }
}

/// `RLIMIT_NOFILE` management: a 512-children run needs ~1100 fds, above
/// the common 1024 default soft limit.
mod fdlimit {
    /// Ensures the soft fd limit is at least `need`, raising it toward
    /// the hard limit if necessary. Returns whether the budget is met.
    #[cfg(target_os = "linux")]
    pub fn ensure(need: u64) -> bool {
        #[repr(C)]
        struct RLimit {
            cur: u64,
            max: u64,
        }
        extern "C" {
            fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
            fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
        }
        const RLIMIT_NOFILE: i32 = 7;
        let mut lim = RLimit { cur: 0, max: 0 };
        if unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) } != 0 {
            return false;
        }
        if lim.cur >= need {
            return true;
        }
        if lim.max < need {
            return false;
        }
        lim.cur = need;
        unsafe { setrlimit(RLIMIT_NOFILE, &lim) == 0 }
    }

    /// Off Linux: trust the platform default and let socket errors
    /// surface if it was insufficient.
    #[cfg(not(target_os = "linux"))]
    pub fn ensure(_need: u64) -> bool {
        true
    }
}
