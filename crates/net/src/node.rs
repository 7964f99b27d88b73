//! The TCP monitor node: a [`MonitorCore`] driven by real sockets.
//!
//! Runtime shape: **one reactor thread per node**, readiness-polled over
//! every socket the node owns (epoll via the vendored [`polling`] shim;
//! `poll(2)` off Linux):
//!
//! ```text
//!                    ┌────────────────────── reactor thread ───────────────────────┐
//!  children &  accept│  nonblocking listener                                       │
//!  clients ─────────▶│  one connection table: a `Conn` per socket, accepted or     │
//!                    │    dialed (FrameBuffer + rx/tx codec + coalescing queue)    │
//!  parent ◀─────────▶│  uplink state machine (nonblocking connect → handshake →    │
//!                    │    session; its `Conn` is table entry 0; backoff on wheel)  │
//!                    │  timer wheel: heartbeats · suspicion · retransmit · redial  │
//!                    │  MonitorCore (owned exclusively by this thread)             │
//!                    └─────────────────────────────────────────────────────────────┘
//! ```
//!
//! The reactor thread is the only thread: it accepts, reads, decodes,
//! drives the [`MonitorCore`], encodes, and writes. The byte path of every
//! socket — accepted or dialed — is one `Conn` (the crate-private
//! `net::conn`) in one table; the uplink's is the entry under id 0 and
//! differs only in what happens when it ends (back off, re-dial). This
//! module decides *what* to say on which connection and when a connection
//! is over, never how bytes become messages.
//!
//! External control (the [`NodeHandle`]) never touches the reactor's
//! state directly: shutdown is a flag the loop polls between waits,
//! completion is a condvar the loop signals, and
//! [`NodeHandle::drop_uplink`] severs a `try_clone` of the uplink socket
//! — the reactor observes the EOF like any other peer death.
//!
//! ## Session layer
//!
//! * **Handshake**: a connecting peer's first frame is `Hello` (role +
//!   protocol version); the acceptor replies `HelloAck`. Version or role
//!   violations kill the connection.
//! * **Heartbeats**: `MonitorCore::send_heartbeats` fires on the
//!   configured period over the same connections; `suspects()` exposes
//!   peers silent past the configured timeout.
//! * **Reconnect-with-resync**: after any uplink loss the timer wheel
//!   re-dials with backoff (nonblocking connect: `EINPROGRESS` →
//!   write-readiness → `SO_ERROR`). Both sides start the new connection
//!   with cold codecs, and the reactor calls
//!   `MonitorCore::resync_uplink`, so the first interval frame is
//!   standalone (`base_flag = 0`) — the codec's cold-decoder path,
//!   unreachable on the simulated transport without fault injection, is
//!   the *normal* reconnect path here.
//! * **FIN / termination**: event clients `Fin` after their last event; a
//!   node `Fin`s its parent once all its feeds and children have finished
//!   and nothing is unacknowledged. The root signals completion to
//!   [`NodeHandle::wait_done`].

use crate::conn::{Conn, Counters};
use crate::frame::FillStatus;
use crate::reactor::{connect_nonblocking, TimerWheel};
use crate::wire::{NetMsg, PeerKind, PROTO_VERSION};
use ftscp_core::membership::MembershipEvent;
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::report::GlobalDetection;
use ftscp_core::transport::{MonitorCore, Outbox};
use ftscp_simnet::SimTime;
use ftscp_vclock::ProcessId;
use polling::{Event as PollEvent, Events, Poller};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Upper bound on one poller wait: how often the reactor re-checks the
/// shutdown flag when no timer is due sooner. Latency of an orderly
/// shutdown, nothing else.
const WAKE_POLL: Duration = Duration::from_millis(25);

/// Give a nonblocking connect this long to resolve before the attempt is
/// written off and the backoff timer re-dials.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(1);

/// Delay between uplink reconnect attempts.
const RECONNECT_BACKOFF: Duration = Duration::from_millis(20);

/// Poller keys: the listener is fixed; every connection is keyed by
/// `KEY_CONN_BASE + conn id`.
const KEY_LISTENER: usize = 0;
const KEY_CONN_BASE: usize = 1;

/// Connection id of the uplink; accepted connections count from 1.
const UPLINK_CONN: u64 = 0;
const KEY_UPLINK: usize = KEY_CONN_BASE + UPLINK_CONN as usize;

/// Configuration of one TCP monitor node.
#[derive(Clone, Debug)]
pub struct NodeConfig {
    /// This node's process id.
    pub me: ProcessId,
    /// Parent's process id and address; `None` for the root.
    pub parent: Option<(ProcessId, SocketAddr)>,
    /// Children expected to connect (their `Fin`s gate this node's own).
    pub children: Vec<ProcessId>,
    /// Level in the paper's numbering (leaves 1, root = height).
    pub level: u32,
    /// Event clients expected on the ingestion endpoint (their `Fin`s
    /// gate this node's own). A pure relay node uses 0.
    pub expected_feeds: usize,
    /// Monitor protocol knobs (heartbeat period, suspicion timeout,
    /// reliability layer). `SimTime` values are interpreted as wall-clock
    /// microseconds.
    pub monitor: MonitorConfig,
    /// Fresh incarnation of a crashed node: instead of assuming the
    /// parent still knows it, the node joins through the adoption
    /// handshake (`Adopt` with a fresh epoch on first connect).
    pub rejoin: bool,
}

impl NodeConfig {
    /// A leaf/internal/root config with defaults for the timing knobs:
    /// the monitor's own, plus the failure detector on — a TCP node has
    /// no harness to repair the tree for it — suspecting peers silent for
    /// 500 ms.
    pub fn new(me: ProcessId, parent: Option<(ProcessId, SocketAddr)>) -> Self {
        NodeConfig {
            me,
            parent,
            children: Vec::new(),
            level: 1,
            expected_feeds: 0,
            monitor: MonitorConfig {
                suspect_timeout: Some(SimTime::from_millis(500)),
                ..MonitorConfig::default()
            },
            rejoin: false,
        }
    }
}

/// Everything a node did, collected at shutdown.
#[derive(Clone, Debug, Default)]
pub struct NodeReport {
    /// Detections recorded at this node (non-empty only for roots), in
    /// emission order.
    pub detections: Vec<GlobalDetection>,
    /// Bytes written to all sockets (frames incl. length prefixes).
    pub bytes_sent: u64,
    /// Bytes read from all sockets.
    pub bytes_received: u64,
    /// Interval-carrying frames sent (reports + events).
    pub interval_frames_sent: u64,
    /// Of those, standalone (cold-decodable) codec frames — resync points.
    pub standalone_frames_sent: u64,
    /// Times the uplink was re-established after the initial connect.
    pub reconnects: u64,
    /// Interval messages the monitor originated (protocol accounting,
    /// same counter the simulated deployment reports).
    pub interval_msgs_sent: u64,
    /// Socket/poll syscalls the reactor issued (waits, accepts, reads,
    /// writes, connects) — the bench row's syscalls-per-interval
    /// numerator. Scheduling-dependent; never a regression gate.
    pub syscalls: u64,
    /// Peers suspected by the heartbeat failure detector at shutdown.
    pub suspects_at_exit: Vec<ProcessId>,
}

#[derive(Default)]
struct Shared {
    shutdown: AtomicBool,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Live uplink socket, kept for fault injection
    /// ([`NodeHandle::drop_uplink`]) — severing it from outside exercises
    /// the reconnect-with-resync path.
    uplink_stream: Mutex<Option<TcpStream>>,
}

/// Handle to a running node: poke it, wait for it, collect its report.
pub struct NodeHandle {
    me: ProcessId,
    shared: Arc<Shared>,
    main: Option<JoinHandle<NodeReport>>,
    /// Local address of the node's listener.
    pub addr: SocketAddr,
}

impl NodeHandle {
    /// This node's process id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Blocks until the node has drained every input stream and announced
    /// completion (a root: all feeds and subtrees finished; a non-root:
    /// `Fin` sent upward), or the timeout elapses. Returns whether it
    /// finished. The node keeps serving connections until
    /// [`finish`](Self::finish).
    pub fn wait_done(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut done = self.shared.done.lock().expect("done lock");
        while !*done {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .shared
                .done_cv
                .wait_timeout(done, deadline - now)
                .expect("done wait");
            done = guard;
        }
        true
    }

    /// Fault injection: severs the current parent connection at the
    /// socket level. The reactor observes the EOF, backs off, reconnects,
    /// and the protocol resyncs — mid-run, with live traffic in flight.
    /// Returns whether a live uplink socket was shut down: `false` means
    /// the uplink is not (or not yet) up and nothing happened, so a caller
    /// that needs the drop to land retries.
    pub fn drop_uplink(&self) -> bool {
        let guard = self.shared.uplink_stream.lock().expect("uplink lock");
        guard
            .as_ref()
            .is_some_and(|stream| stream.shutdown(Shutdown::Both).is_ok())
    }

    /// Stops the node and collects its report. The reactor notices the
    /// shutdown flag within one poll wait and exits its loop.
    pub fn finish(mut self) -> NodeReport {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        match self.main.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => NodeReport::default(),
        }
    }
}

/// Spawns a monitor node on `listener` (children and event clients
/// connect there). The listener must already be bound — binding before
/// spawning lets a deployment allocate all addresses first, so uplinks
/// can name parents that have not started yet.
pub fn spawn(listener: TcpListener, config: NodeConfig) -> io::Result<NodeHandle> {
    let addr = listener.local_addr()?;
    let me = config.me;
    let shared = Arc::<Shared>::default();

    let main_shared = Arc::clone(&shared);
    let main = thread::Builder::new()
        .name(format!("ftscp-node-{}", me.0))
        .spawn(move || reactor_loop(listener, config, main_shared))?;

    Ok(NodeHandle {
        me,
        shared,
        main: Some(main),
        addr,
    })
}

// ---------------------------------------------------------------------------
// Uplink state machine
// ---------------------------------------------------------------------------

/// The uplink's connect/handshake state machine. Its `Conn` is the
/// [`UPLINK_CONN`] entry of the connection table, present exactly while
/// the state is not `Idle`.
#[derive(Clone, Copy)]
enum Uplink {
    /// No connection; the reconnect timer owns the next attempt.
    Idle,
    /// Nonblocking connect in flight — waiting for write readiness.
    Connecting { peer: ProcessId, started: Instant },
    /// Connected and `Hello` sent; `peer` routes to [`UPLINK_CONN`].
    Up { peer: ProcessId },
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

/// Timers on the reactor wheel. Recurring ones re-arm from their own
/// handler; stale fires are guarded by state checks, not cancellation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Timer {
    Heartbeat,
    Retransmit,
    Suspect,
    /// Dial (or re-dial) the uplink target.
    Reconnect,
    /// Write off a connect attempt that never resolved.
    ConnectTimeout,
}

struct ReactorState {
    core: MonitorCore,
    config: NodeConfig,
    start: Instant,
    poller: Poller,
    timers: TimerWheel<Timer>,
    /// Every live connection by id: accepted ones count from 1, the
    /// uplink's is [`UPLINK_CONN`].
    conns: HashMap<u64, Conn>,
    next_conn: u64,
    /// Which connection reaches a peer: a child's accepted connection
    /// (from its `Hello`), or [`UPLINK_CONN`] for the peer the uplink is
    /// *actually dialed at*, once it is up — not `core.parent()`: during
    /// an adoption handshake the uplink already points at the prospective
    /// parent while the core's parent pointer still names the dead one,
    /// and the `Suspect`/`Adopt` frames must reach the former.
    peer_conn: HashMap<ProcessId, u64>,
    uplink: Uplink,
    /// Where to dial the uplink. Re-targeted when the adoption handshake
    /// picks a new parent (the grandparent); re-read on every (re)connect
    /// attempt.
    uplink_target: Option<(ProcessId, SocketAddr)>,
    /// The first successful uplink connect is not a *re*connect.
    uplink_ever_up: bool,
    /// Address book built from the parent's `Uplink` frames: every
    /// ancestor ever hinted, by id. The core's membership ladder picks
    /// *which* ancestor to adopt toward (freshest hint first, written-off
    /// targets skipped); this map answers *where* to dial it — so a
    /// fallback target from an older hint is reachable even after the
    /// freshest one turned out to be dead.
    hint_addrs: BTreeMap<ProcessId, SocketAddr>,
    feeds_done: usize,
    child_fins: BTreeSet<ProcessId>,
    fin_sent: bool,
    /// Wire counters, fed by every [`Conn`] this reactor creates.
    counters: Arc<Counters>,
    /// Times the uplink was re-established after the initial connect.
    reconnects: u64,
    shared: Arc<Shared>,
}

impl ReactorState {
    fn new(config: NodeConfig, poller: Poller, shared: Arc<Shared>) -> ReactorState {
        let mut core = MonitorCore::new(
            config.me,
            config.parent.map(|(p, _)| p),
            &config.children,
            config.level,
            config.monitor,
        );
        if config.rejoin {
            if let Some((p, _)) = config.parent {
                // A restarted incarnation must not just resume the stream —
                // the parent dropped it at crash time. Arm the adoption
                // handshake; the first established uplink sends the Adopt
                // frame.
                core.membership_mut().begin_adoption(p, None);
            }
        }
        ReactorState {
            core,
            uplink_target: config.parent,
            config,
            start: Instant::now(),
            poller,
            timers: TimerWheel::new(),
            conns: HashMap::new(),
            next_conn: 1,
            peer_conn: HashMap::new(),
            uplink: Uplink::Idle,
            uplink_ever_up: false,
            hint_addrs: BTreeMap::new(),
            feeds_done: 0,
            child_fins: BTreeSet::new(),
            fin_sent: false,
            counters: Arc::default(),
            reconnects: 0,
            shared,
        }
    }

    fn now(&self) -> SimTime {
        SimTime(self.start.elapsed().as_micros() as u64)
    }

    /// Runs `f` against the core with a buffering transport, then routes
    /// what it sent into the per-connection write queues, in send order.
    /// The reactor owns both the core and the sockets, so nothing can
    /// interleave between the call and the drain.
    fn with_core<R>(&mut self, f: impl FnOnce(&mut MonitorCore, &mut Outbox) -> R) -> R {
        let mut t = Outbox::new(self.now());
        let r = f(&mut self.core, &mut t);
        for (dst, msg) in t.sent {
            self.route(dst, &NetMsg::Detect(msg));
        }
        r
    }

    /// Queues `msg` on the connection that reaches `dst`. A peer with no
    /// route — never connected, gone, or an uplink still connecting —
    /// drops the frame: exactly the lossy-link model the core's
    /// reliability layer (unacked + retransmit + resync) is built for.
    fn route(&mut self, dst: ProcessId, msg: &NetMsg) {
        if let Some(conn) = self
            .peer_conn
            .get(&dst)
            .and_then(|id| self.conns.get_mut(id))
        {
            conn.enqueue(msg);
        }
    }

    /// True once every input stream this node will ever get has finished:
    /// all expected event feeds and all *current* children sent `Fin`,
    /// and nothing is waiting for an ack. Children are the engine's live
    /// set, not the static config: adoption adds children mid-run and a
    /// crashed child must not gate termination forever.
    fn drained(&self) -> bool {
        self.feeds_done >= self.config.expected_feeds
            && self
                .core
                .engine()
                .children()
                .iter()
                .all(|c| self.child_fins.contains(c))
            && self.core.unacked_count() == 0
    }

    /// Propagates completion: a root flips the done flag; anyone else
    /// `Fin`s its parent (re-sent after reconnects — receivers treat
    /// `Fin` as idempotent) and then also flips the flag, so
    /// [`NodeHandle::wait_done`] means "drained and announced" on every
    /// role. The node keeps running after the flag — it still answers
    /// reconnects and re-`Fin`s until [`NodeHandle::finish`].
    fn maybe_finish(&mut self) {
        if !self.drained() {
            return;
        }
        let mut announced = self.config.parent.is_none();
        if self.fin_sent {
            announced = true; // already told this parent connection
        } else if let (Some(_), Uplink::Up { peer }) = (self.config.parent, self.uplink) {
            let me = self.config.me;
            self.route(peer, &NetMsg::Fin { from: me });
            self.fin_sent = true;
            announced = true;
        }
        if announced {
            let mut done = self.shared.done.lock().expect("done lock");
            if !*done {
                *done = true;
                self.shared.done_cv.notify_all();
            }
        }
    }

    // -- accepted connections ------------------------------------------------

    fn accept_ready(&mut self, listener: &TcpListener) {
        loop {
            self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let conn_id = self.next_conn;
                    self.next_conn += 1;
                    let key = KEY_CONN_BASE + conn_id as usize;
                    if self.poller.add(&stream, PollEvent::readable(key)).is_err() {
                        continue;
                    }
                    let conn = Conn::new(stream, Arc::clone(&self.counters));
                    self.conns.insert(conn_id, conn);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    /// Ends connection `conn_id` (EOF, error, corrupt peer, failed
    /// connect, or an uplink severed for a retarget). An accepted
    /// connection is just gone; the uplink also backs off and re-dials.
    fn close_conn(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.remove(&conn_id) else {
            return;
        };
        let _ = self.poller.delete(conn.stream());
        // Only unmap peers still pointing at this connection — a
        // replacement may have registered first.
        self.peer_conn.retain(|_, &mut c| c != conn_id);
        if conn_id == UPLINK_CONN {
            self.uplink = Uplink::Idle;
            *self.shared.uplink_stream.lock().expect("uplink lock") = None;
            // The next connection is a new session: a Fin already sent on
            // the dead one must be announced again.
            self.fin_sent = false;
            self.timers
                .arm(Instant::now() + RECONNECT_BACKOFF, Timer::Reconnect);
        }
    }

    /// Drains everything readable from a connection, decoding and
    /// dispatching each complete frame. Ends the connection on EOF, I/O
    /// error, framing violation, or a corrupt peer — after the messages
    /// that came first.
    fn conn_readable(&mut self, conn_id: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        let filled = conn.fill();
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return; // a handler ended it
            };
            match conn.next_msg() {
                Ok(Some(msg)) => self.handle_msg(conn_id, msg),
                Ok(None) => break,
                Err(_) => return self.close_conn(conn_id),
            }
        }
        if !matches!(filled, Ok(FillStatus::Open { .. })) {
            self.close_conn(conn_id);
        }
    }

    // -- uplink --------------------------------------------------------------

    /// Fires on the `Reconnect` timer: dial the current uplink target.
    fn uplink_dial(&mut self) {
        if !matches!(self.uplink, Uplink::Idle) {
            return; // stale timer
        }
        let Some((peer, addr)) = self.uplink_target else {
            self.timers
                .arm(Instant::now() + RECONNECT_BACKOFF, Timer::Reconnect);
            return;
        };
        self.counters.syscalls.fetch_add(1, Ordering::Relaxed);
        match connect_nonblocking(addr) {
            Ok((stream, established)) => {
                let _ = stream.set_nodelay(true);
                let interest = if established {
                    PollEvent::readable(KEY_UPLINK)
                } else {
                    PollEvent::writable(KEY_UPLINK)
                };
                if self.poller.add(&stream, interest).is_err() {
                    self.timers
                        .arm(Instant::now() + RECONNECT_BACKOFF, Timer::Reconnect);
                    return;
                }
                self.conns
                    .insert(UPLINK_CONN, Conn::new(stream, Arc::clone(&self.counters)));
                self.uplink = Uplink::Connecting {
                    peer,
                    started: Instant::now(),
                };
                if established {
                    self.uplink_established();
                } else {
                    self.timers
                        .arm(Instant::now() + CONNECT_TIMEOUT, Timer::ConnectTimeout);
                }
            }
            Err(_) => {
                self.timers
                    .arm(Instant::now() + RECONNECT_BACKOFF, Timer::Reconnect);
            }
        }
    }

    /// The in-flight connect resolved (write readiness): check `SO_ERROR`
    /// and either open the session or back off.
    fn uplink_connect_resolved(&mut self) {
        let Some(conn) = self.conns.get(&UPLINK_CONN) else {
            return;
        };
        if matches!(conn.stream().take_error(), Ok(None)) {
            self.uplink_established();
        } else {
            self.close_conn(UPLINK_CONN);
        }
    }

    /// Connect + handshake: publish the socket for fault injection, say
    /// `Hello`, and either knock (adopting) or resync the report stream.
    fn uplink_established(&mut self) {
        let (Uplink::Connecting { peer, .. }, Some(conn)) =
            (self.uplink, self.conns.get_mut(&UPLINK_CONN))
        else {
            return;
        };
        if self
            .poller
            .modify(conn.stream(), PollEvent::readable(KEY_UPLINK))
            .is_err()
        {
            return self.close_conn(UPLINK_CONN);
        }
        self.reconnects += u64::from(self.uplink_ever_up);
        self.uplink_ever_up = true;
        *self.shared.uplink_stream.lock().expect("uplink lock") = conn.stream().try_clone().ok();
        conn.enqueue(&NetMsg::Hello {
            node: self.config.me,
            kind: PeerKind::Child,
            proto: PROTO_VERSION,
        });
        self.uplink = Uplink::Up { peer };
        self.peer_conn.insert(peer, UPLINK_CONN);
        if self.core.membership().is_adopting() {
            // The uplink now points at the prospective parent: open (or
            // re-knock on) the adoption handshake. The resync happens
            // when the AdoptAck lands.
            self.with_core(|core, t| core.send_adoption_request(t));
        } else {
            // New connection, cold decoder on the other end: restart the
            // uplink stream from a standalone frame.
            self.with_core(|core, t| core.resync_uplink(t));
            self.maybe_finish(); // re-announce Fin if we were done
        }
    }

    // -- timers --------------------------------------------------------------

    fn fire_timer(&mut self, timer: Timer) {
        match timer {
            Timer::Heartbeat => {
                if let Some(period) = self.config.monitor.heartbeat_period {
                    self.with_core(|core, t| core.send_heartbeats(t));
                    self.send_uplink_hints();
                    self.timers
                        .arm(Instant::now() + to_duration(period), Timer::Heartbeat);
                }
            }
            Timer::Retransmit => {
                let delay = self.with_core(|core, t| core.on_retransmit_due(t));
                if let Some(d) = delay {
                    self.timers
                        .arm(Instant::now() + to_duration(d), Timer::Retransmit);
                }
            }
            Timer::Suspect => {
                if let Some(period) = self.config.monitor.suspect_period() {
                    self.membership_round();
                    self.timers
                        .arm(Instant::now() + to_duration(period), Timer::Suspect);
                }
            }
            Timer::Reconnect => self.uplink_dial(),
            Timer::ConnectTimeout => {
                if let Uplink::Connecting { started, .. } = self.uplink {
                    if started.elapsed() >= CONNECT_TIMEOUT {
                        self.close_conn(UPLINK_CONN);
                    }
                }
            }
        }
    }

    /// Sends the TCP half of the grandparent hint to every connected
    /// child: where this node's own uplink points (id + address), plus
    /// every higher rung this node has itself learned — its own address
    /// book, re-relayed one edge down. A child that loses this node dials
    /// the grandparent; a child that finds the grandparent dead too can
    /// climb the rest of the ladder, because each rung arrived with an
    /// address. The chain reaches depth-`k` descendants after `k` beacon
    /// periods.
    fn send_uplink_hints(&mut self) {
        let target = self.uplink_target;
        let ancestors: Vec<(ProcessId, String)> = self
            .hint_addrs
            .iter()
            .filter(|(p, _)| target.is_none_or(|(tp, _)| **p != tp))
            .take(u8::MAX as usize)
            .map(|(&p, a)| (p, a.to_string()))
            .collect();
        let hint = NetMsg::Uplink {
            parent: target.map(|(p, addr)| (p, addr.to_string())),
            ancestors,
        };
        let children: Vec<(ProcessId, u64)> = self
            .peer_conn
            .iter()
            .filter(|(peer, _)| self.core.engine().has_child(**peer))
            .map(|(&p, &c)| (p, c))
            .collect();
        for (_, conn_id) in children {
            if let Some(conn) = self.conns.get_mut(&conn_id) {
                conn.enqueue(&hint);
            }
        }
    }

    /// One decentralized failure-detection round (the TCP driver of
    /// [`MonitorCore::membership_tick`]): dead children are dropped by
    /// the core itself; a dead parent re-targets the uplink at the
    /// grandparent and severs the current socket — the handshake goes
    /// out once the new connection is established.
    fn membership_round(&mut self) {
        let decisions = self.with_core(|core, t| core.membership_tick(t));
        for decision in decisions {
            match decision {
                MembershipEvent::AdoptionStarted { target } => {
                    if matches!(&self.uplink, Uplink::Up { peer, .. } if *peer == target) {
                        // Already dialed at the target: (re-)knock directly.
                        self.with_core(|core, t| core.send_adoption_request(t));
                    } else if let Some(&addr) = self.hint_addrs.get(&target) {
                        self.uplink_target = Some((target, addr));
                        // Sever the current session (if any): the backoff
                        // timer re-reads the target and dials the new
                        // adoption candidate.
                        self.close_conn(UPLINK_CONN);
                    }
                    // A target with no known address burns its knock
                    // budget in the core and falls down the ladder — on
                    // TCP an id without an address is unreachable.
                }
                // A dropped child may have been the last thing gating Fin;
                // an orphaned node just keeps serving its subtree.
                MembershipEvent::ChildDropped(_) | MembershipEvent::Orphaned { .. } => {}
            }
        }
        self.maybe_finish();
    }

    // -- session messages ----------------------------------------------------

    fn handle_msg(&mut self, conn: u64, msg: NetMsg) {
        match msg {
            NetMsg::Hello { node, kind, proto } => {
                if proto != PROTO_VERSION {
                    self.close_conn(conn); // incompatible peer
                    return;
                }
                if conn == UPLINK_CONN {
                    return; // a handshake only makes sense from the accepted direction
                }
                if kind == PeerKind::Child {
                    // The peer this node dialed keeps its route: a
                    // connection claiming its id does not get its frames.
                    if self.peer_conn.get(&node) != Some(&UPLINK_CONN) {
                        self.peer_conn.insert(node, conn);
                    }
                    let now = self.now();
                    self.core.note_heartbeat(node, now);
                }
                let me = self.config.me;
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.enqueue(&NetMsg::HelloAck { node: me });
                }
            }
            NetMsg::HelloAck { node } => {
                // Parent accepted our handshake — counts as liveness.
                let now = self.now();
                self.core.note_heartbeat(node, now);
            }
            NetMsg::Detect(d) => {
                self.with_core(|core, t| core.on_message(d, t));
                // An ack may have drained the last unacked report.
                self.maybe_finish();
            }
            NetMsg::Event(interval) => {
                self.with_core(|core, t| core.observe_local(interval, t));
            }
            NetMsg::Fin { from } => {
                if conn == UPLINK_CONN {
                    // Fin from the parent direction is meaningless; ignore.
                    return;
                }
                if self.peer_conn.get(&from) == Some(&conn) {
                    self.child_fins.insert(from);
                } else {
                    // An event client finished its feed.
                    self.feeds_done += 1;
                }
                self.maybe_finish();
            }
            NetMsg::Uplink { parent, ancestors } => {
                if conn != UPLINK_CONN {
                    return; // the hint only makes sense from the parent direction
                }
                // Every rung lands in the address book: the grandparent
                // and the relayed chain above it alike. Unparseable
                // addresses are dropped — a rung without an address just
                // burns its knock budget as before.
                for (p, addr) in parent.into_iter().chain(ancestors) {
                    if let Ok(a) = addr.parse() {
                        self.hint_addrs.insert(p, a);
                    }
                }
            }
        }
    }

    // -- write-side ----------------------------------------------------------

    /// Flushes every connection with queued output (each keeps its own
    /// write-readiness interest in step with its residue). Runs once per
    /// loop iteration, right before the poller wait — the coalescing point.
    fn flush_all(&mut self) {
        let mut dead = Vec::new();
        for (&conn_id, conn) in &mut self.conns {
            let key = KEY_CONN_BASE + conn_id as usize;
            if conn.flush(&self.poller, key).is_err() {
                dead.push(conn_id);
            }
        }
        for conn_id in dead {
            self.close_conn(conn_id);
        }
    }
}

fn reactor_loop(listener: TcpListener, config: NodeConfig, shared: Arc<Shared>) -> NodeReport {
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return NodeReport::default(),
    };
    if listener.set_nonblocking(true).is_err()
        || poller
            .add(&listener, PollEvent::readable(KEY_LISTENER))
            .is_err()
    {
        return NodeReport::default();
    }
    let mut st = ReactorState::new(config, poller, shared);

    // Arm the initial timers; each re-arms itself from its handler.
    if let Some(period) = st.config.monitor.heartbeat_period {
        st.timers
            .arm(st.start + to_duration(period), Timer::Heartbeat);
        // Decentralized failure detection (only meaningful with
        // heartbeats on).
        if let Some(suspect_period) = st.config.monitor.suspect_period() {
            st.timers
                .arm(st.start + to_duration(suspect_period), Timer::Suspect);
        }
    }
    if let Some(period) = st.config.monitor.retransmit_period {
        st.timers
            .arm(st.start + to_duration(period), Timer::Retransmit);
    }
    if st.config.parent.is_some() {
        st.timers.arm(st.start, Timer::Reconnect); // dial immediately
    }

    let mut events = Events::new();
    loop {
        let now = Instant::now();
        while let Some(timer) = st.timers.pop_due(now) {
            st.fire_timer(timer);
        }
        if st.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        st.flush_all();

        let timeout = st
            .timers
            .next_deadline()
            .map(|at| at.saturating_duration_since(Instant::now()))
            .unwrap_or(WAKE_POLL)
            .min(WAKE_POLL);
        if st.poller.wait(&mut events, Some(timeout)).is_err() {
            break;
        }
        for ev in events.iter() {
            match ev.key {
                KEY_LISTENER => st.accept_ready(&listener),
                KEY_UPLINK if ev.writable && matches!(st.uplink, Uplink::Connecting { .. }) => {
                    st.uplink_connect_resolved()
                }
                // Nothing to read before the connect resolves.
                KEY_UPLINK if matches!(st.uplink, Uplink::Connecting { .. }) => {}
                // Write readiness drains via flush_all on the next pass.
                key if ev.readable => st.conn_readable((key - KEY_CONN_BASE) as u64),
                _ => {}
            }
        }
        if st.shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }

    let now = st.now();
    let suspects_at_exit = match st.config.monitor.suspect_timeout {
        Some(timeout) => st.core.suspects(now, timeout),
        None => Vec::new(),
    };
    let counters = &st.counters;
    NodeReport {
        detections: st.core.detections().to_vec(),
        bytes_sent: counters.bytes_sent.load(Ordering::Relaxed),
        bytes_received: counters.bytes_received.load(Ordering::Relaxed),
        interval_frames_sent: counters.interval_frames_sent.load(Ordering::Relaxed),
        standalone_frames_sent: counters.standalone_frames_sent.load(Ordering::Relaxed),
        reconnects: st.reconnects,
        interval_msgs_sent: st.core.interval_msgs_sent(),
        syscalls: counters.syscalls.load(Ordering::Relaxed) + st.poller.syscalls(),
        suspects_at_exit,
    }
}

fn to_duration(t: SimTime) -> Duration {
    Duration::from_micros(t.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_core::protocol::DetectMsg;

    #[test]
    fn a_hold_opened_before_the_first_tick_survives_it() {
        // A grandchild's `Suspect` can beat this node's own first
        // suspicion check. The hold it opens must last the node's
        // suspicion timeout — which a TCP node has from `NodeConfig::new`
        // on, not from its first tick on — or that first check finalizes
        // it at once and hold-after-drop is void for the first
        // half-timeout of a node's life.
        let config = NodeConfig::new(ProcessId(1), None);
        let mut core = MonitorCore::new(config.me, None, &[ProcessId(2)], 2, config.monitor);
        let mut t = Outbox::new(SimTime::ZERO);
        core.on_message(
            DetectMsg::Suspect {
                from: ProcessId(5),
                suspect: ProcessId(2),
            },
            &mut t,
        );
        core.membership_tick(&mut t);
        assert_eq!(core.held_children(), vec![ProcessId(2)]);
        assert!(core.engine().has_child(ProcessId(2)), "queue still held");
    }

    #[test]
    fn frames_reach_the_uplink_peer_only_while_the_uplink_is_up() {
        if !crate::sockets_available() {
            return;
        }
        let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind");
        let addr = listener.local_addr().expect("addr");
        let parent = ProcessId(0);
        let mut st = ReactorState::new(
            NodeConfig::new(ProcessId(1), Some((parent, addr))),
            Poller::new().expect("poller"),
            Arc::default(),
        );
        let sent = |st: &ReactorState| st.counters.bytes_sent.load(Ordering::Relaxed);
        let ack = NetMsg::Detect(DetectMsg::Ack {
            from: ProcessId(1),
            upto: 0,
        });

        // Dialed, connect not yet resolved: the state `uplink_dial` leaves
        // when the kernel answers `EINPROGRESS`.
        let (stream, _) = connect_nonblocking(addr).expect("connect");
        st.poller
            .add(&stream, PollEvent::writable(KEY_UPLINK))
            .expect("register");
        st.conns
            .insert(UPLINK_CONN, Conn::new(stream, Arc::clone(&st.counters)));
        st.uplink = Uplink::Connecting {
            peer: parent,
            started: Instant::now(),
        };
        st.route(parent, &ack);
        assert_eq!(sent(&st), 0, "dropped, not queued on the half-open Conn");
        assert!(!st.conns[&UPLINK_CONN].pending_out());

        st.uplink_established();
        assert!(matches!(st.uplink, Uplink::Up { peer } if peer == parent));
        let after_hello = sent(&st);
        assert!(after_hello > 0, "Hello queued");
        st.route(parent, &ack);
        assert!(sent(&st) > after_hello, "routed once up");

        // Some other connection claiming the parent's id does not take
        // the uplink's frames.
        st.handle_msg(
            7,
            NetMsg::Hello {
                node: parent,
                kind: PeerKind::Child,
                proto: PROTO_VERSION,
            },
        );
        assert_eq!(st.peer_conn[&parent], UPLINK_CONN);

        st.close_conn(UPLINK_CONN);
        assert!(matches!(st.uplink, Uplink::Idle));
        assert!(st.conns.is_empty() && st.peer_conn.is_empty());
        let before = sent(&st);
        st.route(parent, &ack);
        assert_eq!(sent(&st), before, "no route once down");
    }
}
