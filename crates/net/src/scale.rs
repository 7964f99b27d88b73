//! Many-children scale driver: one real monitor node under hundreds of
//! concurrent child connections, all driven from a single poller in the
//! calling thread.
//!
//! The point is to exercise the reactor's fan-in — one epoll set, one
//! thread, ≥512 sockets — without paying for 512 full node threads.
//! Each synthetic child is a *real* leaf [`MonitorCore`] (so its report
//! stream, acks, and `Fin` gating are protocol-exact), but its socket is
//! multiplexed here instead of owning a reactor of its own, and opened
//! the moment it is dialed: handshake and every round are queued before
//! the connect resolves. The node under test is a completely ordinary
//! [`crate::node::spawn`] root.
//!
//! Used by `tests/scale.rs` (the ≥512-connection smoke test) and by the
//! `reactor` row of the hot-path bench.

use crate::conn::{Conn, Counters};
use crate::frame::FillStatus;
use crate::node::{spawn, NodeConfig, NodeReport};
use crate::wire::{NetMsg, PeerKind};
use crate::EventClient;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::transport::{MonitorCore, Outbox};
use ftscp_intervals::Interval;
use ftscp_simnet::SimTime;
use ftscp_vclock::{ProcessId, VectorClock};
use polling::{Events, Poller};
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

    // Synthetic children: real leaf cores, sockets multiplexed here. Each
    // is dialed with its handshake and every round already queued; the
    // first flushes wait out the connect like any other residue.
    let poller = Poller::new()?;
    let counters = Arc::new(Counters::default()); // the children's side; not reported
    let mut kids = Vec::with_capacity(children);
    for i in 0..children {
        let me = ProcessId(1 + i as u32);
        let conn = Conn::dial(addr, &poller, i, Arc::clone(&counters), me, PeerKind::Child)?;
        kids.push(Child::open(me, conn, rounds, n));
    }

    let mut events = Events::new();
    loop {
        // Flush (each connection keeps its write interest in step with its
        // residue), every iteration.
        for (i, kid) in kids.iter_mut().enumerate() {
            kid.conn.flush(&poller, i)?;
        }
        if kids.iter().all(Child::finished) {
            break;
        }
        if Instant::now() >= deadline {
            drop(kids);
            let _ = node.finish();
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "scale run deadline exceeded before all children finished",
            ));
        }
        poller.wait(&mut events, Some(Duration::from_millis(100)))?;
        // A refused connect reads as readable, and its `fill` fails.
        for ev in events.iter().filter(|ev| ev.readable) {
            kids[ev.key].readable()?;
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

/// Round `s` of the deterministic overlapping workload: every process's
/// round-`s` interval pairwise overlaps. Process `p`'s interval starts
/// with an event that has heard every end of round `s − 1` and ends with
/// one that has heard every start of round `s`, so its bounds are
/// `2s + 1` everywhere but `p`'s own component, one above.
pub fn round_interval(p: ProcessId, s: u64, n: usize) -> Interval {
    let clock = |c: u64| {
        let mut v = vec![c as u32; n];
        v[p.index()] += 1;
        VectorClock::from_components(v)
    };
    Interval::local(p, s, clock(2 * s + 1), clock(2 * s + 2))
}

/// One synthetic child: a real leaf core on one [`Conn`], multiplexed by
/// the caller's poller instead of a reactor of its own.
struct Child {
    core: MonitorCore,
    conn: Conn,
    start: Instant,
    fin_sent: bool,
}

impl Child {
    /// Cold-start the report stream and push every round, all queued on
    /// the freshly dialed `conn` behind its `Hello`, before its connect
    /// resolves. Acks stream back while later rounds flush out.
    fn open(me: ProcessId, conn: Conn, rounds: u64, n: usize) -> Child {
        let core = MonitorCore::new(
            me,
            Some(ProcessId(0)),
            &[],
            1,
            MonitorConfig {
                heartbeat_period: None,
                retransmit_period: None,
                ..MonitorConfig::default()
            },
        );
        let mut kid = Child {
            core,
            conn,
            start: Instant::now(),
            fin_sent: false,
        };
        kid.with_core(|core, t| core.resync_uplink(t));
        for s in 0..rounds {
            let iv = round_interval(me, s, n);
            kid.with_core(|core, t| core.observe_local(iv, t));
        }
        kid.maybe_fin();
        kid
    }

    fn finished(&self) -> bool {
        self.fin_sent && !self.conn.pending_out()
    }

    fn with_core(&mut self, f: impl FnOnce(&mut MonitorCore, &mut Outbox)) {
        let mut t = Outbox::new(SimTime(self.start.elapsed().as_micros() as u64));
        f(&mut self.core, &mut t);
        // A leaf has exactly one neighbor: its parent, our one socket.
        for (_dst, msg) in t.sent {
            self.conn.enqueue(&NetMsg::Detect(msg));
        }
    }

    fn maybe_fin(&mut self) {
        if !self.fin_sent && self.core.unacked_count() == 0 {
            let from = self.core.me();
            self.conn.enqueue(&NetMsg::Fin { from });
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
