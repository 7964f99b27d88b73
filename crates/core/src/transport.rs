//! Transport abstraction and the transport-agnostic monitor state machine.
//!
//! [`MonitorCore`] is everything a tree node's monitor does that has
//! nothing to do with *how* bytes move: feeding the [`NodeEngine`],
//! per-sender in-order interval streams, the cumulative-ack reliability
//! layer with bounded retransmit bursts and exponential backoff, uplink
//! delta-codec state, detection recording — and the timing policy around
//! them: which periodic [`Duty`]s run and when they fire again, the
//! adoption knock after a suspicion round, and the reset of a reboot. It talks to the
//! world only through the [`Transport`] trait, so the same state machine
//! drives both backends, and a driver keeps clocks and moves messages:
//!
//! * `ftscp-simnet` — [`crate::monitor::MonitorApp`] wraps a core and
//!   implements [`Transport`] on the simulator's `Ctx` (sends are
//!   structured messages, billed at their delta-coded size via
//!   `send_sized`); each duty is a simulator timer;
//! * `ftscp-net` — the TCP runtime wraps a core and drains an [`Outbox`]
//!   onto real sockets after every core call (sends are actually encoded);
//!   each duty is an entry on its timer wheel.
//!
//! Because both backends execute the *same* `MonitorCore` code, they
//! cannot drift: the differential test in `ftscp-net` asserts identical
//! detection fingerprints for the same workload run through either one.

use crate::engine::{EngineOutput, NodeEngine};
use crate::membership::{Membership, MembershipEvent, RepairState, ANCESTOR_HINT_CAP};
use crate::monitor::MonitorConfig;
use crate::protocol::{ConnCodec, DetectMsg};
use crate::report::GlobalDetection;
use ftscp_intervals::codec::Len;
use ftscp_intervals::{InOrder, Interval};
use ftscp_simnet::SimTime;
use ftscp_vclock::ProcessId;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

/// The monitor's view of a message channel: fire-and-forget sends to a
/// peer process plus a clock. Implementations decide routing, encoding,
/// and delivery semantics; the core only assumes that messages to one
/// peer arrive in the order sent *or* are recovered by its own
/// reliability layer (acks + retransmissions).
pub trait Transport {
    /// Current time on this node's clock (simulated or wall).
    fn now(&self) -> SimTime;

    /// Sends `msg` to `dst`, billed at the backend's default size.
    fn send(&mut self, dst: ProcessId, msg: DetectMsg);

    /// Sends `msg` to `dst`, billed as `size` bytes — the hook for
    /// stateful wire encodings whose frame size depends on what the
    /// connection already carried. Backends that encode for real may
    /// ignore `size` and bill actual bytes.
    fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, size: usize);
}

/// [`Transport`] over the simulator's effect interface: sends become
/// simulated network messages routed over the topology and billed via
/// the simulator's byte accounting.
impl Transport for ftscp_simnet::Ctx<'_, DetectMsg> {
    fn now(&self) -> SimTime {
        ftscp_simnet::Ctx::now(self)
    }

    fn send(&mut self, dst: ProcessId, msg: DetectMsg) {
        ftscp_simnet::Ctx::send(self, dst, msg);
    }

    fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, size: usize) {
        ftscp_simnet::Ctx::send_sized(self, dst, msg, size);
    }
}

/// Buffering [`Transport`] for a driver that owns both the core and its
/// sockets (the TCP reactor, the scale test's synthetic children): make
/// one, hand it to a core call, then drain [`sent`](Self::sent) — in send
/// order — onto the connections. The clock is fixed when the driver enters
/// the core, and the advisory size of `send_sized` (the simulator's
/// billing hook) is dropped: a driver that encodes real frames bills real
/// bytes.
#[derive(Debug)]
pub struct Outbox {
    now: SimTime,
    /// Everything the core sent during the call, in send order.
    pub sent: Vec<(ProcessId, DetectMsg)>,
}

impl Outbox {
    /// An empty outbox whose clock reads `now`.
    pub fn new(now: SimTime) -> Self {
        Outbox {
            now,
            sent: Vec::new(),
        }
    }
}

impl Transport for Outbox {
    fn now(&self) -> SimTime {
        self.now
    }

    fn send(&mut self, dst: ProcessId, msg: DetectMsg) {
        self.sent.push((dst, msg));
    }

    fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, _size: usize) {
        self.send(dst, msg);
    }
}

/// A periodic duty of the monitor. [`MonitorCore::duties`] says which ones
/// a configuration runs and when each first fires; [`MonitorCore::on_duty`]
/// runs one and says when it fires next.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Duty {
    /// Beacon every tree peer, at start and then every
    /// [`MonitorConfig::heartbeat_period`].
    Heartbeat,
    /// Re-send a bounded burst of the unacked backlog, every
    /// [`MonitorConfig::retransmit_period`] times the backoff multiplier.
    Retransmit,
    /// One failure-detection round, every
    /// [`MonitorConfig::suspect_period`] — and only with heartbeats on: a
    /// heartbeat detector with no heartbeats detects nothing.
    Suspect,
}

impl Duty {
    /// Every duty, in the order a driver arms them.
    pub(crate) const ALL: [Duty; 3] = [Duty::Heartbeat, Duty::Retransmit, Duty::Suspect];
}

impl MonitorConfig {
    /// How often to run the suspicion check: half the timeout, so a dead
    /// peer is caught within 1.5× the configured timeout in the worst
    /// case. `None` when there is no failure detector to run.
    pub fn suspect_period(&self) -> Option<SimTime> {
        self.suspect_timeout
            .map(|timeout| SimTime((timeout.as_micros() / 2).max(1)))
    }
}

/// What a core knows of one peer: a tree neighbour, or any node that sent
/// it intervals. A record holding none of the three is not kept.
#[derive(Clone, Default, PartialEq)]
struct Peer {
    /// The peer's interval stream, from its first interval until it is
    /// (re-)added as a child. With nothing buffered it still decides
    /// whether an `Ack` goes out.
    stream: Option<InOrder>,
    /// When the peer was last heard from (a heartbeat, or session-layer
    /// evidence such as a completed handshake).
    heard: Option<SimTime>,
    /// A child suspected dead keeps its queue, blocking emission, until
    /// this deadline or the drop it waits for
    /// ([`MonitorCore::hold_dead_child`]).
    hold: Option<SimTime>,
}

/// The transport-agnostic monitor state machine (see module docs).
///
/// ## Non-FIFO channels and interval order
///
/// Algorithm 1's queues assume each child's intervals arrive in the order
/// they were produced (that is what makes queue heads "earliest
/// remaining", Theorem 2). The system model explicitly allows
/// out-of-order delivery, so the core restores each sender's order with
/// sequence numbers and an [`InOrder`] stream — a standard engineering
/// completion the paper leaves implicit. Stale re-transmissions (possible
/// after a reattachment re-report, or a TCP reconnect replay) are
/// dropped.
#[derive(Clone)]
pub struct MonitorCore {
    me: ProcessId,
    engine: NodeEngine,
    parent: Option<ProcessId>,
    config: MonitorConfig,
    /// Per-peer state: interval stream, last heard, hold deadline.
    peers: BTreeMap<ProcessId, Peer>,
    /// Detections recorded while this node was a root.
    detections: Vec<GlobalDetection>,
    /// Interval messages sent (for per-node accounting).
    interval_msgs_sent: u64,
    /// Reliability layer: outputs not yet acknowledged by the parent,
    /// keyed by output sequence number.
    unacked: BTreeMap<u64, Interval>,
    /// Current retransmit backoff multiplier (1 = base period); doubles on
    /// each firing without ack progress up to the configured cap.
    retransmit_backoff: u32,
    /// Delta-codec state of the uplink to the current parent: every
    /// interval message — fresh report, retransmission or re-report — is
    /// encoded on it in send order, as TCP's connection codec writes them,
    /// and [`resync_uplink`](Self::resync_uplink) resets it with the
    /// connection. On the simulated backend this determines only the byte
    /// sizes charged to the network.
    uplink_codec: ConnCodec,
    /// Decentralized membership view: own epoch, peers' epochs, the
    /// grandparent hint, and the adoption state machine (§III-F repair
    /// as a protocol feature — see [`crate::membership`]).
    membership: Membership,
    /// Interval messages sent through the re-report path (resync bursts
    /// after a reconnect or adoption) — the §III-F repair traffic.
    re_report_msgs: u64,
    /// Bytes billed for the re-report path.
    re_report_bytes: u64,
    /// The members of the solution behind the last report to the parent:
    /// what a promotion over that parent offers its siblings again
    /// ([`promote`](Self::promote)).
    last_solution: Vec<Interval>,
}

impl MonitorCore {
    /// Builds a core for `me` with the given children.
    pub fn new(
        me: ProcessId,
        parent: Option<ProcessId>,
        children: &[ProcessId],
        level: u32,
        config: MonitorConfig,
    ) -> Self {
        let mut engine = NodeEngine::new(me, children, parent.is_none());
        engine.set_level(level);
        MonitorCore {
            me,
            engine,
            parent,
            config,
            peers: BTreeMap::new(),
            detections: Vec::new(),
            interval_msgs_sent: 0,
            unacked: BTreeMap::new(),
            retransmit_backoff: 1,
            uplink_codec: ConnCodec::new(),
            membership: Membership::new(0),
            re_report_msgs: 0,
            re_report_bytes: 0,
            last_solution: Vec::new(),
        }
    }

    /// This node's id.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// This node's current parent.
    pub fn parent(&self) -> Option<ProcessId> {
        self.parent
    }

    /// The wrapped engine (for statistics).
    pub fn engine(&self) -> &NodeEngine {
        &self.engine
    }

    /// The monitor configuration.
    pub fn config(&self) -> MonitorConfig {
        self.config
    }

    /// Detections recorded at this node (non-empty only for roots).
    pub fn detections(&self) -> &[GlobalDetection] {
        &self.detections
    }

    /// Interval messages this node originated.
    pub fn interval_msgs_sent(&self) -> u64 {
        self.interval_msgs_sent
    }

    /// Outputs awaiting parent acknowledgement (reliability layer).
    pub fn unacked_count(&self) -> usize {
        self.unacked.len()
    }

    /// Current retransmit backoff multiplier (for tests/telemetry).
    pub fn retransmit_backoff(&self) -> u32 {
        self.retransmit_backoff
    }

    /// When `peer` was last heard from, if it was since this node last
    /// dropped, held or forgot it.
    pub fn last_heard(&self, peer: ProcessId) -> Option<SimTime> {
        self.peers.get(&peer)?.heard
    }

    /// This node's membership view (epochs + repair state).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Interval messages sent through the re-report/resync path.
    pub fn re_report_msgs(&self) -> u64 {
        self.re_report_msgs
    }

    /// Bytes billed for the re-report/resync path.
    pub fn re_report_bytes(&self) -> u64 {
        self.re_report_bytes
    }

    /// Records a liveness observation of `peer` (a received heartbeat, or
    /// any session-layer evidence such as a completed handshake). Direct
    /// evidence of life cancels a pending hold — a restarted child must
    /// not have its (revived) queue garbage-collected by the expiry path.
    pub fn note_heartbeat(&mut self, peer: ProcessId, now: SimTime) {
        self.update_peer(peer, |p| {
            p.heard = Some(now);
            p.hold = None;
        });
    }

    /// Changes `peer`'s record, which is created when absent and removed
    /// when left empty.
    fn update_peer(&mut self, peer: ProcessId, change: impl FnOnce(&mut Peer)) {
        let record = self.peers.entry(peer).or_default();
        change(record);
        if *record == Peer::default() {
            self.peers.remove(&peer);
        }
    }

    /// Whether `peer` is held (suspected dead, queue retained).
    fn is_held(&self, peer: ProcessId) -> bool {
        self.peers.get(&peer).is_some_and(|p| p.hold.is_some())
    }

    /// Children currently held (suspected dead, queue retained pending
    /// reattachment or expiry) — for tests and telemetry.
    pub fn held_children(&self) -> Vec<ProcessId> {
        let held = self.peers.iter().filter(|(_, p)| p.hold.is_some());
        held.map(|(&peer, _)| peer).collect()
    }

    /// A canonical digest of the core's logical state for state-space
    /// exploration, with times relative to `now`. Left out: configuration,
    /// counters, the uplink codec (it only sizes frames) and every detection
    /// but the last one's coverage. Every map is ordered.
    pub fn digest(&self, now: SimTime) -> u64 {
        let mut h = DefaultHasher::new();
        self.engine.digest(&mut h);
        (self.me, self.parent, &self.unacked).hash(&mut h);
        (self.retransmit_backoff, &self.membership).hash(&mut h);
        self.last_solution.hash(&mut h);
        let ago = |t: Option<SimTime>| t.map(|t| i128::from(now.0) - i128::from(t.0));
        self.peers.len().hash(&mut h);
        for (peer, p) in &self.peers {
            (peer, &p.stream, ago(p.heard), ago(p.hold)).hash(&mut h);
        }
        let last = self.detections.last();
        last.map(GlobalDetection::covered_processes).hash(&mut h);
        h.finish()
    }

    /// How often `duty` runs under this configuration; `None` if it does
    /// not run at all.
    fn period(&self, duty: Duty) -> Option<SimTime> {
        let config = &self.config;
        match duty {
            Duty::Heartbeat => config.heartbeat_period,
            Duty::Retransmit => config.retransmit_period,
            Duty::Suspect => config.heartbeat_period.and(config.suspect_period()),
        }
    }

    /// The duties this configuration runs, each with its first delay, in
    /// the order a driver arms them. The first beacon goes out at once, so
    /// a node that dies before its first period still leaves its children
    /// a rung to climb and, at a root, its heirs.
    pub fn duties(&self) -> impl Iterator<Item = (Duty, SimTime)> + '_ {
        Duty::ALL.into_iter().filter_map(|duty| {
            let period = self.period(duty)?;
            let first = match duty {
                Duty::Heartbeat => SimTime::ZERO,
                _ => period,
            };
            Some((duty, first))
        })
    }

    /// Runs `duty` now. Returns the delay until it is due again (`None`:
    /// never, it does not run under this configuration) and, for a
    /// [`Duty::Suspect`] round, what the round decided (empty otherwise).
    pub fn on_duty(
        &mut self,
        duty: Duty,
        t: &mut impl Transport,
    ) -> (Option<SimTime>, Vec<MembershipEvent>) {
        let Some(period) = self.period(duty) else {
            return (None, Vec::new());
        };
        match duty {
            Duty::Heartbeat => {
                self.send_heartbeats(t);
                (Some(period), Vec::new())
            }
            Duty::Retransmit => (Some(self.on_retransmit_due(t, period)), Vec::new()),
            Duty::Suspect => (Some(period), self.membership_tick(t)),
        }
    }

    /// Reboot after a crash. The engine keeps what the crash froze — what
    /// stable storage written through on every step would hold — and
    /// comes back as a leaf: its children were re-parented during the
    /// downtime, so their stale queues are dropped; what that releases is
    /// not sent, but its last solution becomes the last output the rejoin
    /// re-reports (see [`NodeEngine::reboot`]). There is no parent until
    /// [`rejoin`](Self::rejoin) names the adopter, and the volatile state
    /// starts over: every peer record (interval streams, heartbeats heard
    /// and held children), the unacked backlog, the retransmit backoff and
    /// the uplink codec. So
    /// does the incarnation: the epoch moves past the crashed life's, so
    /// peers treat its beacons as stale, and peer-epoch observations are
    /// lost.
    pub fn reboot(&mut self) {
        self.engine.reboot();
        self.parent = None;
        self.peers.clear();
        self.unacked.clear();
        self.retransmit_backoff = 1;
        self.uplink_codec.reset();
        self.last_solution.clear();
        self.membership = Membership::new(self.membership.epoch() + 1);
    }

    /// A restarted node's one way back into the tree, on either runtime:
    /// `adopter` becomes the parent, an adoption attempt with no dead
    /// parent opens toward it, and the `Adopt` knock goes out (and again
    /// with every heartbeat round until it is answered). Its `AdoptAck`
    /// completes the rejoin like any adoption.
    pub fn rejoin(&mut self, adopter: ProcessId, t: &mut impl Transport) {
        self.parent = Some(adopter);
        self.membership.begin_adoption(adopter, None);
        self.send_adoption_request(t);
    }

    /// Tree peers this node beacons to: children, then parent.
    pub fn heartbeat_targets(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.engine.children().iter().copied().chain(self.parent)
    }

    /// Beacons every tree peer with this node's epoch and, to its children
    /// (a parent reads none), its ancestor chain: its parent plus the rungs
    /// relayed from above, or at a root its heirs, its live children by id.
    /// An attempt with no dead parent knocks again: a rejoin (no suspicion
    /// round knocks for it) or a promoted node's re-knock.
    fn send_heartbeats(&mut self, t: &mut impl Transport) {
        let ancestors: Vec<ProcessId> = match self.parent {
            Some(_) => self.membership.ancestor_chain().to_vec(),
            None => {
                let live = self.engine.children().iter().copied();
                live.filter(|&c| !self.is_held(c))
                    .take(ANCESTOR_HINT_CAP)
                    .collect()
            }
        };
        for peer in self.heartbeat_targets() {
            let down = Some(peer) != self.parent;
            t.send(
                peer,
                DetectMsg::Heartbeat {
                    from: self.me,
                    epoch: self.membership.epoch(),
                    parent: self.parent,
                    ancestors: if down { ancestors.clone() } else { Vec::new() },
                },
            );
        }
        if let RepairState::Adopting {
            dead_parent: None, ..
        } = *self.membership.state()
        {
            self.send_adoption_request(t);
        }
    }

    /// Tree peers (parent + children) whose last heartbeat is older than
    /// `timeout` at time `now` — the local failure-detector view a
    /// suspicion round acts on. Peers never heard from at all are
    /// suspected once a full timeout has elapsed since the start of time.
    pub fn suspects(&self, now: SimTime, timeout: SimTime) -> Vec<ProcessId> {
        self.heartbeat_targets()
            .filter(|&peer| {
                let last = self.last_heard(peer).unwrap_or(SimTime::ZERO);
                now.saturating_sub(last) > timeout
            })
            .collect()
    }

    /// Finalizes the drop of a dead (or departed) child: removes its
    /// queue and everything keyed to it — the local half of §III-F
    /// repair. Removing the queue *releases* solutions it was blocking,
    /// so this must only run once the blocked solutions can no longer be
    /// missing the dead child's subtree: after the orphan reattached
    /// (its fresh, empty queue takes over the blocking) or after the
    /// hold expired (no orphan is coming). Suspicion-driven paths go
    /// through [`hold_dead_child`](Self::hold_dead_child) first.
    fn drop_dead_child(&mut self, child: ProcessId, t: &mut impl Transport) {
        self.peers.remove(&child);
        let outputs = self.engine.remove_child(child);
        self.handle_outputs(t, outputs);
    }

    /// Opens an empty queue for `child` unless it has one; a fresh queue
    /// accepts any sequence number.
    fn add_child(&mut self, child: ProcessId) {
        if !self.engine.has_child(child) {
            self.engine.add_child(child);
            self.update_peer(child, |p| p.stream = None);
        }
    }

    /// Re-parents this node (`None`: a root). A fresh parent gets a fresh
    /// backoff window and a cold uplink codec — the old connection's base
    /// is meaningless to the new parent's decoder — so the uplink resyncs.
    fn set_parent(&mut self, parent: Option<ProcessId>, t: &mut impl Transport) {
        self.parent = parent;
        self.engine.set_root(parent.is_none());
        self.retransmit_backoff = 1;
        self.resync_uplink(t);
    }

    /// Hold-after-drop: marks `child` dead at `now` but *keeps its queue*
    /// for one suspicion timeout — the same grace period whether the hold
    /// is opened by this node's own tick or by a `Suspect`/`Adopt` that
    /// arrives ahead of it. The queue runs empty, and an empty queue blocks
    /// conjunctive emission — so solutions computed while the orphaned
    /// subtree is detached cannot be released missing its intervals.
    /// The hold closes early when an `Adopt` naming `child` as the dead
    /// parent arrives (reattachment) or any fresh-incarnation liveness
    /// evidence shows up (restart); it expires on a later membership
    /// tick otherwise (a dead leaf blocks nothing forever).
    fn hold_dead_child(&mut self, child: ProcessId, now: SimTime) {
        let window = self.config.suspect_timeout.unwrap_or(SimTime::ZERO);
        self.update_peer(child, |p| {
            p.heard = None;
            p.hold = Some(SimTime(now.0 + window.0));
        });
    }

    /// One decentralized failure-detection round ([`Duty::Suspect`]):
    /// every suspect that is a child gets its queue held; a suspect parent
    /// starts (or keeps knocking on) the adoption handshake with the next
    /// rung of the ladder, and the knock — `Suspect` then `Adopt`, to the
    /// target by id — goes out last in the round; a ladder that reaches
    /// this node's own id or runs out promotes it instead. Returns what
    /// was decided: the TCP driver re-dials its uplink at a new target, and
    /// a knock sent before that dial is up finds no route there and is
    /// dropped (the dial knocks again once it is established).
    ///
    /// The suspicion timeout is [`MonitorConfig::suspect_timeout`]; with
    /// none configured there is no failure detector and this does
    /// nothing. Crash-free runs reach this via a timer and do nothing
    /// either: no suspicion, no messages, no tree mutation.
    fn membership_tick(&mut self, t: &mut impl Transport) -> Vec<MembershipEvent> {
        let Some(timeout) = self.config.suspect_timeout else {
            return Vec::new();
        };
        let now = t.now();
        // Expire holds whose reattachment window closed: the dead child
        // led a subtree with no survivors (or none that reached us), so
        // nothing is coming to take over the blocking. Finalize, which
        // releases whatever the empty queue was holding back.
        let expired: Vec<ProcessId> = self
            .peers
            .iter()
            .filter(|(_, p)| p.hold.is_some_and(|deadline| deadline <= now))
            .map(|(&c, _)| c)
            .collect();
        for child in expired {
            self.drop_dead_child(child, t);
        }
        let mut events = Vec::new();
        for peer in self.suspects(now, timeout) {
            // Already held: the drop decision is made, the queue is just
            // waiting for the orphan's Adopt (or the expiry above).
            if self.is_held(peer) {
                continue;
            }
            // Surgery needs evidence of life first: a peer never heard
            // from is a slow starter (real deployments stagger), not a
            // corpse — and without its heartbeats there is no grandparent
            // hint to adopt toward anyway.
            if self.last_heard(peer).is_none() {
                continue;
            }
            if self.engine.has_child(peer) {
                self.hold_dead_child(peer, now);
                events.push(MembershipEvent::ChildDropped(peer));
            } else if Some(peer) == self.parent {
                if let RepairState::Adopting { target, .. } = *self.membership.state() {
                    if self.membership.note_adoption_attempt() {
                        // Handshake already in flight (slow or lossy
                        // path): keep knocking under the same epoch,
                        // within the target's knock budget.
                        events.push(MembershipEvent::AdoptionStarted { target });
                        continue;
                    }
                    // Budget exhausted: the target never answered — it
                    // died with the parent. Write it off and fall back
                    // to the next rung of the chain instead of dialing a
                    // corpse forever.
                    self.membership.abandon_adoption_target();
                }
                match self.membership.next_adoption_candidate(Some(peer)) {
                    Some(g) if g != self.me => {
                        self.membership.begin_adoption(g, Some(peer));
                        events.push(MembershipEvent::AdoptionStarted { target: g });
                    }
                    // Next in the succession line, or every rung written
                    // off (or none ever heard): root the subtree.
                    _ => {
                        self.promote(peer, t);
                        events.push(MembershipEvent::Promoted { dead_parent: peer });
                    }
                }
            }
        }
        if events
            .iter()
            .any(|e| matches!(e, MembershipEvent::AdoptionStarted { .. }))
        {
            self.send_adoption_request(t);
        }
        events
    }

    /// Roots this node's subtree over its dead parent: the ladder ran out,
    /// or reached this node's own id in a dead root's succession line. An
    /// heir holds a queue for each sibling heir, as for a dead child, and
    /// requeues its last solution, shipped only to the dead root: it is
    /// detected with the siblings' re-reports, or alone once every hold
    /// expired. Every heartbeat round then knocks at the lost parent.
    fn promote(&mut self, dead_parent: ProcessId, t: &mut impl Transport) {
        let now = t.now();
        let chain = self.membership.ancestor_chain().to_vec();
        self.set_parent(None, t);
        if chain.contains(&self.me) {
            for sibling in chain {
                if sibling != self.me && sibling != dead_parent && !self.engine.has_child(sibling) {
                    self.add_child(sibling);
                    self.hold_dead_child(sibling, now);
                }
            }
            let outputs = self.engine.requeue(std::mem::take(&mut self.last_solution));
            self.handle_outputs(t, outputs);
        }
        self.membership.begin_adoption(dead_parent, None);
    }

    /// (Re-)sends the outstanding adoption handshake: `Suspect` (when a
    /// dead parent is being replaced) followed by `Adopt`, both to the
    /// prospective new parent. No-op unless an attempt is open. A
    /// suspicion round knocks by itself; a driver calls this when a
    /// connection to the target comes up.
    pub fn send_adoption_request(&mut self, t: &mut impl Transport) {
        let RepairState::Adopting {
            target,
            epoch,
            dead_parent,
        } = *self.membership.state()
        else {
            return;
        };
        if let Some(dead) = dead_parent {
            t.send(
                target,
                DetectMsg::Suspect {
                    from: self.me,
                    suspect: dead,
                },
            );
        }
        t.send(
            target,
            DetectMsg::Adopt {
                child: self.me,
                epoch,
                dead_parent,
            },
        );
    }

    /// A new local predicate interval completed at this node (lines
    /// (1)–(3) for the local queue `Q_0`).
    pub fn observe_local(&mut self, interval: Interval, t: &mut impl Transport) {
        let outputs = self.engine.on_local_interval(interval);
        self.handle_outputs(t, outputs);
    }

    fn handle_outputs(&mut self, t: &mut impl Transport, outputs: Vec<EngineOutput>) {
        for out in outputs {
            match out {
                EngineOutput::ToParent { interval, solution } => {
                    self.last_solution = solution.intervals;
                    if self.config.retransmit_period.is_some() {
                        self.unacked.insert(interval.seq, interval.clone());
                    }
                    // No parent (orphan root): the detection is recorded at
                    // engine level; nothing to transmit.
                    self.report(t, interval, false);
                }
                EngineOutput::Detected(sol) => {
                    self.detections
                        .push(GlobalDetection::new(self.me, sol, t.now()));
                }
            }
        }
    }

    /// The one way an interval report leaves for the parent: bills it,
    /// counts it and sends it, returning the billed size (0, and nothing
    /// sent, without a parent): the length [`DetectMsg::encode`] writes
    /// for the whole message on the uplink codec, which it advances. A
    /// fresh report, a retransmission and a re-report are alike the next
    /// frame of the uplink stream; the first after
    /// [`resync_uplink`](Self::resync_uplink)'s reset is standalone.
    fn report(&mut self, t: &mut impl Transport, interval: Interval, resync: bool) -> usize {
        let Some(parent) = self.parent else {
            return 0;
        };
        let msg = DetectMsg::Interval {
            from: self.me,
            interval,
            resync,
        };
        let size = Len::of(|len| msg.encode(&mut self.uplink_codec, len));
        self.interval_msgs_sent += 1;
        t.send_sized(parent, msg, size);
        size
    }

    /// Re-sends unacknowledged outputs to the current parent, oldest
    /// first, flagging the first as a stream resync. At most
    /// `retransmit_burst` outputs go out per call — a long outage must not
    /// flood the network with the whole backlog at once; the cumulative
    /// ack moves the window so later calls pick up where this one stopped.
    /// Returns how many messages/bytes went out (the resync path accounts
    /// its burst as §III-F re-report traffic).
    fn retransmit_unacked(&mut self, t: &mut impl Transport, resync_first: bool) -> (u64, u64) {
        if self.parent.is_none() {
            return (0, 0);
        }
        let burst: Vec<Interval> = self
            .unacked
            .values()
            .take(self.config.retransmit_burst)
            .cloned()
            .collect();
        let msgs = burst.len() as u64;
        let mut bytes = 0u64;
        for (i, interval) in burst.into_iter().enumerate() {
            bytes += self.report(t, interval, resync_first && i == 0) as u64;
        }
        (msgs, bytes)
    }

    /// The uplink channel to the parent was (re-)established cold: the
    /// receiving decoder has no per-connection state, so the stream must
    /// restart from a standalone frame. Resets the uplink codec, then
    /// either retransmits the unacknowledged backlog (first frame flagged
    /// as a resync) or — when the reliability layer is off or drained —
    /// re-reports the node's last output so the parent's fresh queue is
    /// seeded (§III-B). Shared by the handshake's `AdoptAck` and the TCP
    /// runtime's reconnect path.
    pub fn resync_uplink(&mut self, t: &mut impl Transport) {
        self.uplink_codec.reset();
        if self.config.retransmit_period.is_some() && !self.unacked.is_empty() {
            // Reliability layer: the (new) parent needs everything the
            // previous connection never acknowledged.
            let (msgs, bytes) = self.retransmit_unacked(t, true);
            self.re_report_msgs += msgs;
            self.re_report_bytes += bytes;
        } else if let (Some(_), Some(last)) = (self.parent, self.engine.last_output().cloned()) {
            // Standalone frame: the receiving decoder is cold.
            self.re_report_msgs += 1;
            self.re_report_bytes += self.report(t, last, true) as u64;
        }
    }

    /// The retransmit `period` elapsed ([`Duty::Retransmit`]): re-send a
    /// bounded burst of the backlog (if any) and back off exponentially
    /// while no ack makes progress. Returns the delay until the next
    /// firing.
    fn on_retransmit_due(&mut self, t: &mut impl Transport, period: SimTime) -> SimTime {
        if self.unacked.is_empty() {
            // Nothing outstanding: idle at the base period.
            self.retransmit_backoff = 1;
        } else {
            self.retransmit_unacked(t, false);
            // No ack progress since the last firing (an ack would have
            // reset the multiplier): back off exponentially so a dead or
            // partitioned parent is not hammered at full rate.
            self.retransmit_backoff =
                (self.retransmit_backoff * 2).min(self.config.retransmit_backoff_cap.max(1));
        }
        SimTime(period.0 * u64::from(self.retransmit_backoff))
    }

    /// Takes intervals from `child` — one report, or a batch sent back to
    /// back — through its [`InOrder`] stream, feeding the engine what is
    /// now in order. A `resync` (a re-report after a tree repair) restarts
    /// the stream at the first interval: the earlier numbers went to the
    /// child's previous parent. Then, with the reliability layer on, the
    /// stream position is acknowledged (cumulative, so idempotent).
    fn receive(
        &mut self,
        t: &mut impl Transport,
        child: ProcessId,
        intervals: impl IntoIterator<Item = Interval>,
        mut resync: bool,
    ) {
        for interval in intervals {
            let stream = self
                .peers
                .entry(child)
                .or_default()
                .stream
                .get_or_insert_default();
            if std::mem::take(&mut resync) {
                stream.resync(interval.seq);
            }
            for iv in stream.accept(interval) {
                let outputs = self.engine.on_child_interval(child, iv);
                self.handle_outputs(t, outputs);
            }
        }
        let stream = self.peers.get(&child).and_then(|p| p.stream.as_ref());
        if let (Some(stream), Some(_)) = (stream, self.config.retransmit_period) {
            let (from, upto) = (self.me, stream.next());
            t.send(child, DetectMsg::Ack { from, upto });
        }
    }

    /// Processes one incoming protocol message (interval report, ack,
    /// heartbeat, or a step of the adoption handshake).
    pub fn on_message(&mut self, msg: DetectMsg, t: &mut impl Transport) {
        match msg {
            DetectMsg::Interval {
                from,
                interval,
                resync,
            } => self.receive(t, from, [interval], resync),
            DetectMsg::IntervalBatch {
                from,
                groups,
                resync,
            } => {
                // A single-predicate monitor consumes a batch as the same
                // intervals sent back to back; the predicate tags are
                // routing metadata for a registry-backed receiver
                // (`crate::registry`).
                self.receive(t, from, groups.into_iter().map(|(_, iv)| iv), resync);
            }
            DetectMsg::Ack { upto, .. } => {
                let before = self.unacked.len();
                self.unacked.retain(|&seq, _| seq >= upto);
                if self.unacked.len() < before {
                    // Ack progress: the parent is responsive again, so the
                    // retransmit timer returns to its base period.
                    self.retransmit_backoff = 1;
                }
            }
            DetectMsg::Heartbeat {
                from,
                epoch,
                parent,
                ancestors,
            } => {
                // Only tree neighbours are liveness peers; a heartbeat from
                // anyone else (e.g. a node we already evicted) is noise.
                if self.parent != Some(from) && !self.engine.has_child(from) {
                    return;
                }
                // Epoch filter: a heartbeat from a stale incarnation must
                // not resurrect a suspicion-cleared peer.
                if !self.membership.observe_peer_epoch(from, epoch) {
                    return;
                }
                self.note_heartbeat(from, t.now());
                if self.parent == Some(from) {
                    // The parent's own uplink is our adoption target if the
                    // parent dies (§III-F grandparent adoption), and the
                    // chain above it is the fallback ladder for the storm
                    // where that target died too.
                    self.membership.note_ancestors(parent, &ancestors);
                }
            }
            DetectMsg::Suspect { suspect, .. } => {
                // A grandchild reports our child dead ahead of our own
                // timeout: open the hold eagerly so the Adopt that follows
                // (usually in the same batch) lands on a queue bank where
                // the dead child already blocks instead of emits.
                if self.engine.has_child(suspect) && !self.is_held(suspect) {
                    self.hold_dead_child(suspect, t.now());
                }
            }
            DetectMsg::Adopt {
                child,
                epoch,
                dead_parent,
            } => {
                if child == self.me {
                    return;
                }
                // Never close a cycle: adopt neither the parent nor a rung
                // (a succession line names this node and holds siblings),
                // nor, blind before the parent's first beacon, a knock that
                // replaces no dead parent (a re-knock from above).
                let chain = self.membership.ancestor_chain();
                let rung = !chain.contains(&self.me) && chain.contains(&child);
                let blind = dead_parent.is_none() && chain.is_empty();
                let cycle = self.parent.is_some() && (Some(child) == self.parent || rung || blind);
                if cycle || !self.membership.observe_peer_epoch(child, epoch) {
                    // Refuse so the sender's attempt terminates instead of
                    // hanging (a refused re-knock stays a root).
                    t.send(
                        child,
                        DetectMsg::AdoptAck {
                            from: self.me,
                            child,
                            epoch,
                            accepted: false,
                        },
                    );
                    return;
                }
                // Add the orphan before touching the dead parent's queue:
                // the orphan's fresh, empty queue blocks emission until
                // its re-reports arrive (hold-after-drop; explored on
                // real cores in `ftscp-dst`).
                self.add_child(child);
                // The Adopt carries the dead parent so the handshake works
                // even when the preceding Suspect was lost or reordered.
                // It does NOT finalize the hold: the dead node may have
                // had *several* orphan children, and releasing on the
                // first one's arrival would emit solutions missing its
                // siblings' subtrees. The hold runs its full window so
                // every orphan gets the same grace period to reattach;
                // expiry (next membership tick past the deadline) is the
                // sole finalizer.
                if let Some(dead) = dead_parent {
                    if dead != self.me && self.engine.has_child(dead) && !self.is_held(dead) {
                        // Suspect lost or reordered behind the Adopt: open
                        // the hold here so the queue blocks instead of
                        // lingering live forever.
                        self.hold_dead_child(dead, t.now());
                    }
                }
                self.note_heartbeat(child, t.now());
                t.send(
                    child,
                    DetectMsg::AdoptAck {
                        from: self.me,
                        child,
                        epoch,
                        accepted: true,
                    },
                );
            }
            DetectMsg::AdoptAck {
                from,
                child,
                epoch,
                accepted,
            } => {
                if child != self.me || !self.membership.matches_adoption(from, epoch) {
                    return;
                }
                if !accepted && self.parent == Some(from) {
                    // A refused rejoin: the adopter's chain is stale (it just
                    // rebooted or was adopted). The next round knocks again.
                    return;
                }
                self.membership.finish_adoption();
                if accepted {
                    // Heard, without lifting a hold as a heartbeat does.
                    let now = t.now();
                    self.update_peer(from, |p| p.heard = Some(now));
                    t.send(
                        from,
                        DetectMsg::ReReport {
                            from: self.me,
                            epoch,
                        },
                    );
                    // §III-F re-report: refill the adopter's fresh queue,
                    // standalone-first (its decoder is cold).
                    self.set_parent(Some(from), t);
                }
            }
            DetectMsg::ReReport { from, epoch } => {
                // Informational: the adopted child announces its epoch and
                // that re-reports follow. Must NOT touch the peer's stream —
                // the resync Interval may already have arrived (non-FIFO
                // delivery) and seeded the new stream position.
                self.membership.observe_peer_epoch(from, epoch);
                self.note_heartbeat(from, t.now());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::ADOPT_ATTEMPT_CAP;
    use ftscp_vclock::VectorClock;

    /// A recorded send: destination, message, billed size if sized.
    type Sent = (ProcessId, DetectMsg, Option<usize>);

    /// Minimal recording transport for unit tests: collects sends and
    /// serves a fixed clock.
    #[derive(Default)]
    struct RecTransport {
        now: SimTime,
        sent: Vec<Sent>,
    }

    impl Transport for RecTransport {
        fn now(&self) -> SimTime {
            self.now
        }
        fn send(&mut self, dst: ProcessId, msg: DetectMsg) {
            self.sent.push((dst, msg, None));
        }
        fn send_sized(&mut self, dst: ProcessId, msg: DetectMsg, size: usize) {
            self.sent.push((dst, msg, Some(size)));
        }
    }

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    /// The default configuration with the failure detector on.
    fn suspecting(timeout: SimTime) -> MonitorConfig {
        MonitorConfig {
            suspect_timeout: Some(timeout),
            ..Default::default()
        }
    }

    /// One suspicion round on its own: what it decided and what it sent.
    fn tick(core: &mut MonitorCore, t: &mut RecTransport) -> (Vec<MembershipEvent>, Vec<Sent>) {
        t.sent.clear();
        let events = core.membership_tick(t);
        (events, std::mem::take(&mut t.sent))
    }

    /// The adoption knock node 1 sends `target` for its dead parent 0.
    fn knock(target: u32, epoch: u64) -> [Sent; 2] {
        let (me, dead) = (ProcessId(1), ProcessId(0));
        [
            (
                ProcessId(target),
                DetectMsg::Suspect {
                    from: me,
                    suspect: dead,
                },
                None,
            ),
            (
                ProcessId(target),
                DetectMsg::Adopt {
                    child: me,
                    epoch,
                    dead_parent: Some(dead),
                },
                None,
            ),
        ]
    }

    #[test]
    fn duties_follow_the_config_and_suspicion_needs_heartbeats() {
        let ms = SimTime::from_millis;
        let retransmit = MonitorConfig {
            retransmit_period: Some(ms(25)),
            ..Default::default()
        };
        let suspicion = MonitorConfig {
            suspect_timeout: Some(ms(120)),
            ..retransmit
        };
        let silent = MonitorConfig {
            heartbeat_period: None,
            ..suspicion
        };
        // The first beacon goes out at once.
        let table = [
            (MonitorConfig::default(), vec![(Duty::Heartbeat, ms(0))]),
            (
                retransmit,
                vec![(Duty::Heartbeat, ms(0)), (Duty::Retransmit, ms(25))],
            ),
            (
                suspicion,
                vec![
                    (Duty::Heartbeat, ms(0)),
                    (Duty::Retransmit, ms(25)),
                    (Duty::Suspect, ms(60)),
                ],
            ),
            (silent, vec![(Duty::Retransmit, ms(25))]),
        ];
        for (config, want) in table {
            let core = MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[], 1, config);
            assert_eq!(core.duties().collect::<Vec<_>>(), want, "{config:?}");
        }
        // A duty the config does not run is never due.
        let mut core = MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[], 1, silent);
        let mut t = RecTransport::default();
        assert_eq!(core.on_duty(Duty::Suspect, &mut t), (None, Vec::new()));
        assert_eq!(core.on_duty(Duty::Heartbeat, &mut t), (None, Vec::new()));
        assert!(t.sent.is_empty());
    }

    #[test]
    fn leaf_reports_upward_with_stateful_billing() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            1,
            MonitorConfig::default(),
        );
        let mut t = RecTransport::default();
        core.observe_local(iv(1, 0, &[0, 1], &[0, 2]), &mut t);
        core.observe_local(iv(1, 1, &[0, 3], &[0, 4]), &mut t);
        assert_eq!(t.sent.len(), 2);
        assert_eq!(core.interval_msgs_sent(), 2);
        let (dst, msg, size) = &t.sent[1];
        assert_eq!(*dst, ProcessId(0));
        assert!(msg.is_interval());
        // The second report is billed as a stateful frame against the
        // first one's lo — never larger than a standalone frame (ties are
        // possible for tiny clocks).
        let cold = Len::of(|len| msg.encode(&mut ConnCodec::new(), len));
        assert!(size.unwrap() <= cold);
    }

    #[test]
    fn resync_uplink_reports_last_output_standalone() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            1,
            MonitorConfig::default(),
        );
        let mut t = RecTransport::default();
        core.observe_local(iv(1, 0, &[0, 1], &[0, 2]), &mut t);
        t.sent.clear();
        core.resync_uplink(&mut t);
        assert_eq!(t.sent.len(), 1, "last output re-reported");
        let (_, msg, size) = &t.sent[0];
        let DetectMsg::Interval { resync, .. } = msg else {
            unreachable!()
        };
        assert!(*resync, "re-report is a resync point");
        assert_eq!(
            size.unwrap(),
            Len::of(|len| msg.encode(&mut ConnCodec::new(), len)),
            "billed standalone — the receiving decoder is cold"
        );
    }

    #[test]
    fn resync_uplink_prefers_unacked_backlog() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            1,
            MonitorConfig {
                retransmit_period: Some(SimTime::from_millis(10)),
                ..Default::default()
            },
        );
        let mut t = RecTransport::default();
        core.observe_local(iv(1, 0, &[0, 1], &[0, 2]), &mut t);
        core.observe_local(iv(1, 1, &[0, 3], &[0, 4]), &mut t);
        assert_eq!(core.unacked_count(), 2);
        t.sent.clear();
        core.resync_uplink(&mut t);
        assert_eq!(t.sent.len(), 2, "whole unacked backlog retransmitted");
        let resyncs: Vec<bool> = t
            .sent
            .iter()
            .map(|(_, m, _)| matches!(m, DetectMsg::Interval { resync: true, .. }))
            .collect();
        assert_eq!(resyncs, vec![true, false], "only the first frame resyncs");
    }

    #[test]
    fn ack_trims_backlog_and_resets_backoff() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            1,
            MonitorConfig {
                retransmit_period: Some(SimTime::from_millis(10)),
                retransmit_backoff_cap: 8,
                ..Default::default()
            },
        );
        let mut t = RecTransport::default();
        core.observe_local(iv(1, 0, &[0, 1], &[0, 2]), &mut t);
        core.on_duty(Duty::Retransmit, &mut t);
        let (next, _) = core.on_duty(Duty::Retransmit, &mut t);
        assert_eq!(next, Some(SimTime::from_millis(40)), "period × backoff");
        assert!(core.retransmit_backoff() > 1, "no ack progress: backs off");
        core.on_message(
            DetectMsg::Ack {
                from: ProcessId(0),
                upto: 1,
            },
            &mut t,
        );
        assert_eq!(core.unacked_count(), 0);
        assert_eq!(core.retransmit_backoff(), 1, "ack progress resets");
    }

    #[test]
    fn suspects_and_heartbeats() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[ProcessId(2)],
            2,
            MonitorConfig::default(),
        );
        let timeout = SimTime::from_millis(100);
        core.note_heartbeat(ProcessId(0), SimTime::from_millis(500));
        let suspects = core.suspects(SimTime::from_millis(550), timeout);
        assert_eq!(suspects, vec![ProcessId(2)], "silent child suspected");
        let mut t = RecTransport::default();
        core.send_heartbeats(&mut t);
        let mut dsts: Vec<u32> = t.sent.iter().map(|(d, _, _)| d.0).collect();
        dsts.sort_unstable();
        assert_eq!(dsts, vec![0, 2], "beacons to parent and child");
    }

    #[test]
    fn fresh_epoch_heartbeat_clears_suspicion() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[ProcessId(2)],
            2,
            MonitorConfig::default(),
        );
        let timeout = SimTime::from_millis(100);
        let mut t = RecTransport {
            now: SimTime::from_millis(500),
            ..Default::default()
        };
        core.note_heartbeat(ProcessId(0), t.now);
        assert_eq!(
            core.suspects(t.now, timeout),
            vec![ProcessId(2)],
            "silent child suspected"
        );
        // The child reboots and beacons again under a fresh epoch: the
        // restart must clear suspicion, not be shrugged off as stale.
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(2),
                epoch: 7,
                parent: Some(ProcessId(1)),
                ancestors: vec![],
            },
            &mut t,
        );
        assert!(
            core.suspects(t.now, timeout).is_empty(),
            "fresh-epoch heartbeat clears suspicion"
        );
    }

    #[test]
    fn unknown_and_stale_epoch_heartbeats_are_ignored() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[ProcessId(2)],
            2,
            MonitorConfig::default(),
        );
        let timeout = SimTime::from_millis(100);
        let mut t = RecTransport::default();
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(2),
                epoch: 3,
                parent: Some(ProcessId(1)),
                ancestors: vec![],
            },
            &mut t,
        );
        core.note_heartbeat(ProcessId(0), t.now);
        // Epochs only move forward: a frame from the child's previous
        // incarnation, still in flight, must not refresh liveness.
        t.now = SimTime::from_millis(150);
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(2),
                epoch: 2,
                parent: Some(ProcessId(1)),
                ancestors: vec![],
            },
            &mut t,
        );
        // Non-neighbours are not liveness peers at all.
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(9),
                epoch: 0,
                parent: None,
                ancestors: vec![],
            },
            &mut t,
        );
        let suspects = core.suspects(SimTime::from_millis(150), timeout);
        assert_eq!(
            suspects,
            vec![ProcessId(2), ProcessId(0)],
            "stale-epoch beacon did not refresh the child; stranger ignored"
        );
        assert_eq!(core.membership().peer_epoch(ProcessId(9)), 0);
    }

    #[test]
    fn dead_grandparent_falls_back_down_the_hint_ladder() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            2,
            suspecting(SimTime::from_millis(100)),
        );
        let mut t = RecTransport::default();
        // The parent re-parented over its lifetime: its older beacon named
        // grandparent 9, its latest names 8 with 7 above it.
        for (at, gp, above) in [(0u64, 9u32, vec![]), (10, 8, vec![ProcessId(7)])] {
            t.now = SimTime::from_millis(at);
            core.on_message(
                DetectMsg::Heartbeat {
                    from: ProcessId(0),
                    epoch: 0,
                    parent: Some(ProcessId(gp)),
                    ancestors: above,
                },
                &mut t,
            );
        }
        // The parent dies — and, unbeknownst to this node, so did 8.
        t.now = SimTime::from_millis(500);
        let (first, sent) = tick(&mut core, &mut t);
        assert_eq!(
            first,
            vec![MembershipEvent::AdoptionStarted {
                target: ProcessId(8)
            }],
            "nearest rung dialed first"
        );
        let epoch8 = core.membership().epoch();
        assert!(sent.ends_with(&knock(8, epoch8)), "the round knocks");
        for _ in 1..ADOPT_ATTEMPT_CAP {
            let (ev, sent) = tick(&mut core, &mut t);
            assert_eq!(
                ev,
                vec![MembershipEvent::AdoptionStarted {
                    target: ProcessId(8)
                }],
                "re-knocks stay within the budget"
            );
            assert!(sent.ends_with(&knock(8, epoch8)), "every round knocks");
        }
        // Budget spent: 8 is written off, the next rung 7 takes over.
        let (retarget, sent) = tick(&mut core, &mut t);
        assert_eq!(
            retarget,
            vec![MembershipEvent::AdoptionStarted {
                target: ProcessId(7)
            }],
            "falls back up the beaconed chain instead of dialing the corpse forever"
        );
        assert_eq!(core.membership().failed_targets(), &[ProcessId(8)]);
        assert!(sent.ends_with(&knock(7, core.membership().epoch())));
        // Were 7 dead too, the chain would run out: 9, heard only in the
        // older beacon, is never knocked.
        let mut spent = core.clone();
        for _ in 0..ADOPT_ATTEMPT_CAP {
            let (_, sent) = tick(&mut spent, &mut t);
            assert!(sent.iter().all(|s| s.0 != ProcessId(9)), "9 knocked");
        }
        // A late ack from the abandoned target answers a closed attempt.
        core.on_message(
            DetectMsg::AdoptAck {
                from: ProcessId(8),
                child: ProcessId(1),
                epoch: epoch8,
                accepted: true,
            },
            &mut t,
        );
        assert_eq!(core.parent(), Some(ProcessId(0)), "stale ack ignored");
        assert!(
            core.membership().is_adopting(),
            "attempt toward 7 still open"
        );
        // 7 answers: handshake completes and the outage memory resets.
        let epoch7 = core.membership().epoch();
        core.on_message(
            DetectMsg::AdoptAck {
                from: ProcessId(7),
                child: ProcessId(1),
                epoch: epoch7,
                accepted: true,
            },
            &mut t,
        );
        assert_eq!(core.parent(), Some(ProcessId(7)));
        assert!(core.membership().failed_targets().is_empty());
    }

    #[test]
    fn exhausted_hint_ladder_promotes_and_reknocks() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[],
            2,
            suspecting(SimTime::from_millis(100)),
        );
        let mut t = RecTransport::default();
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(0),
                epoch: 0,
                parent: Some(ProcessId(7)),
                ancestors: vec![],
            },
            &mut t,
        );
        t.now = SimTime::from_millis(500);
        for _ in 0..ADOPT_ATTEMPT_CAP {
            let (ev, sent) = tick(&mut core, &mut t);
            assert_eq!(
                ev,
                vec![MembershipEvent::AdoptionStarted {
                    target: ProcessId(7)
                }]
            );
            assert!(sent.ends_with(&knock(7, core.membership().epoch())));
        }
        // The only hinted ancestor never answered: the node roots its
        // subtree instead of retrying the dead address forever — and the
        // round knocks nowhere.
        let (ev, sent) = tick(&mut core, &mut t);
        assert_eq!(
            ev,
            vec![MembershipEvent::Promoted {
                dead_parent: ProcessId(0)
            }]
        );
        assert!(sent.is_empty(), "no rung left to knock on");
        assert_eq!(core.parent(), None);
        assert!(core.engine().is_root());
        assert_eq!(tick(&mut core, &mut t), (vec![], vec![]), "settled");
        // Every heartbeat round knocks at the lost parent instead, so a
        // parent that was only cut off takes the node back.
        t.sent.clear();
        core.on_duty(Duty::Heartbeat, &mut t);
        let epoch = core.membership().epoch();
        let reknock = DetectMsg::Adopt {
            child: ProcessId(1),
            epoch,
            dead_parent: None,
        };
        assert_eq!(t.sent, vec![(ProcessId(0), reknock, None)]);
        core.on_message(
            DetectMsg::AdoptAck {
                from: ProcessId(0),
                child: ProcessId(1),
                epoch,
                accepted: true,
            },
            &mut t,
        );
        assert_eq!(core.parent(), Some(ProcessId(0)), "re-attached");
        assert!(!core.engine().is_root());
    }

    #[test]
    fn a_dead_roots_heirs_succeed_it() {
        // A root beacons its live children, by id, as its heirs.
        let mut root = MonitorCore::new(
            ProcessId(0),
            None,
            &[ProcessId(4), ProcessId(1), ProcessId(2)],
            3,
            MonitorConfig::default(),
        );
        let mut t = RecTransport::default();
        root.on_duty(Duty::Heartbeat, &mut t);
        let heirs = vec![ProcessId(1), ProcessId(2), ProcessId(4)];
        let beacon = DetectMsg::Heartbeat {
            from: ProcessId(0),
            epoch: 0,
            parent: None,
            ancestors: heirs.clone(),
        };
        assert!(t.sent.iter().all(|(_, m, _)| *m == beacon));
        // The root dies. The first heir finds its own id first on the
        // ladder: it promotes at once and holds its siblings' queues.
        let child = |me: u32| {
            let config = suspecting(SimTime::from_millis(100));
            let mut core = MonitorCore::new(ProcessId(me), Some(ProcessId(0)), &[], 2, config);
            core.on_message(beacon.clone(), &mut RecTransport::default());
            assert_eq!(core.membership().ancestor_chain(), &heirs[..]);
            core
        };
        let mut t = RecTransport {
            now: SimTime::from_millis(500),
            ..Default::default()
        };
        let mut heir = child(1);
        let (ev, _) = tick(&mut heir, &mut t);
        let promoted = MembershipEvent::Promoted {
            dead_parent: ProcessId(0),
        };
        assert_eq!(ev, vec![promoted.clone()]);
        assert_eq!(heir.held_children(), vec![ProcessId(2), ProcessId(4)]);
        // The next heir knocks at the first...
        let mut second = child(2);
        let (ev, _) = tick(&mut second, &mut t);
        let to_heir = MembershipEvent::AdoptionStarted {
            target: ProcessId(1),
        };
        assert_eq!(ev, vec![to_heir.clone()]);
        // ...and only once the first never answers, succeeds it in turn.
        for _ in 1..ADOPT_ATTEMPT_CAP {
            assert_eq!(tick(&mut second, &mut t).0, vec![to_heir.clone()]);
        }
        assert_eq!(tick(&mut second, &mut t).0, vec![promoted]);
        assert_eq!(second.held_children(), vec![ProcessId(1), ProcessId(4)]);
    }

    #[test]
    fn the_chain_goes_down_only() {
        let config = MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(10)),
            ..MonitorConfig::default()
        };
        let mut core =
            MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[ProcessId(3)], 2, config);
        let heirs = vec![ProcessId(1), ProcessId(2)];
        let beacon = |from: u32, parent: Option<u32>, ancestors: Vec<ProcessId>| {
            let (from, parent) = (ProcessId(from), parent.map(ProcessId));
            DetectMsg::Heartbeat {
                from,
                epoch: 0,
                parent,
                ancestors,
            }
        };
        core.on_message(beacon(0, None, heirs.clone()), &mut RecTransport::default());
        let mut t = RecTransport::default();
        core.on_duty(Duty::Heartbeat, &mut t);
        let down = (ProcessId(3), beacon(1, Some(0), heirs), None);
        let up = (ProcessId(0), beacon(1, Some(0), vec![]), None);
        assert_eq!(t.sent, vec![down, up]);
    }

    #[test]
    fn no_adoption_closes_a_cycle() {
        // Node 0 has just rebooted and rejoined under node 2; its old
        // child 1 promoted itself and re-knocks at it.
        let mut core = MonitorCore::new(ProcessId(0), None, &[], 1, MonitorConfig::default());
        let mut t = RecTransport::default();
        core.rejoin(ProcessId(2), &mut t);
        let mut answer = |core: &mut MonitorCore, child: u32, dead_parent: Option<u32>| {
            t.sent.clear();
            let (child, epoch) = (ProcessId(child), 1);
            let dead_parent = dead_parent.map(ProcessId);
            let adopt = DetectMsg::Adopt {
                child,
                epoch,
                dead_parent,
            };
            core.on_message(adopt, &mut t);
            match t.sent.as_slice() {
                [(_, DetectMsg::AdoptAck { accepted, .. }, _)] => *accepted,
                other => panic!("no single answer: {other:?}"),
            }
        };
        // No chain heard yet: 1 may be above node 0, so a re-knock is
        // refused, while an orphan that names its dead parent is not.
        assert!(!answer(&mut core, 1, None));
        assert!(answer(&mut core, 3, Some(4)));
        // Node 2's beacon names 1 as a rung: 1 and 2 stay refused, and a
        // node that is neither is adopted.
        let beacon = DetectMsg::Heartbeat {
            from: ProcessId(2),
            epoch: 0,
            parent: Some(ProcessId(1)),
            ancestors: vec![],
        };
        core.on_message(beacon, &mut RecTransport::default());
        assert!(!answer(&mut core, 1, None));
        assert!(!answer(&mut core, 2, Some(4)));
        assert!(answer(&mut core, 5, None));
        assert_eq!(core.engine().children(), &[ProcessId(3), ProcessId(5)]);
        // A root adopts anyone: it is above no one.
        let mut root = MonitorCore::new(ProcessId(1), None, &[], 2, MonitorConfig::default());
        assert!(answer(&mut root, 0, None));
    }

    #[test]
    fn a_refused_rejoin_knocks_again() {
        let config = MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(10)),
            ..MonitorConfig::default()
        };
        let mut core = MonitorCore::new(ProcessId(0), None, &[], 1, config);
        let mut t = RecTransport::default();
        core.rejoin(ProcessId(2), &mut t);
        let epoch = core.membership().epoch();
        let refusal = DetectMsg::AdoptAck {
            from: ProcessId(2),
            child: ProcessId(0),
            epoch,
            accepted: false,
        };
        core.on_message(refusal, &mut t);
        assert!(core.membership().matches_adoption(ProcessId(2), epoch));
        t.sent.clear();
        core.on_duty(Duty::Heartbeat, &mut t);
        let knock = DetectMsg::Adopt {
            child: ProcessId(0),
            epoch,
            dead_parent: None,
        };
        assert!(t.sent.contains(&(ProcessId(2), knock, None)));
    }

    #[test]
    fn simultaneous_parent_and_child_suspicion_does_not_deadlock() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[ProcessId(2)],
            3,
            suspecting(SimTime::from_millis(100)),
        );
        let mut t = RecTransport::default();
        // Learn the grandparent from the parent's beacon, then let both
        // neighbours go silent past the timeout.
        core.on_message(
            DetectMsg::Heartbeat {
                from: ProcessId(0),
                epoch: 0,
                parent: Some(ProcessId(7)),
                ancestors: vec![],
            },
            &mut t,
        );
        core.note_heartbeat(ProcessId(2), t.now);
        t.now = SimTime::from_millis(500);
        let events = core.membership_tick(&mut t);
        assert!(
            events.contains(&MembershipEvent::ChildDropped(ProcessId(2))),
            "dead child dropped (held) in the same tick"
        );
        assert!(
            events.contains(&MembershipEvent::AdoptionStarted {
                target: ProcessId(7)
            }),
            "adoption toward the grandparent still starts"
        );
        // Hold-after-drop: the queue stays (blocking emission) until the
        // reattachment window closes; only then is the drop finalized.
        assert_eq!(core.held_children(), vec![ProcessId(2)]);
        assert!(
            core.engine().has_child(ProcessId(2)),
            "queue held, not yet removed"
        );
        t.now = SimTime::from_millis(1100); // past the hold deadline
        let later = core.membership_tick(&mut t);
        assert!(
            !core.engine().has_child(ProcessId(2)),
            "hold expired: finalized"
        );
        assert!(core.held_children().is_empty());
        assert!(!later.contains(&MembershipEvent::ChildDropped(ProcessId(2))));
        let epoch = core.membership().epoch();
        core.on_message(
            DetectMsg::AdoptAck {
                from: ProcessId(7),
                child: ProcessId(1),
                epoch,
                accepted: true,
            },
            &mut t,
        );
        assert_eq!(core.parent(), Some(ProcessId(7)), "handshake completed");
        assert!(!core.membership().is_adopting());
        assert!(
            t.sent
                .iter()
                .any(|(d, m, _)| *d == ProcessId(7) && matches!(m, DetectMsg::ReReport { .. })),
            "re-report announced to the adopter"
        );
    }

    #[test]
    fn hold_opened_before_the_first_tick_runs_a_full_timeout() {
        // A grandchild's `Suspect` (and the `Adopt` that carries the same
        // fact) can reach a node before that node's own first membership
        // tick. The hold it opens must run one whole suspicion timeout
        // like any other — a zero-length hold is finalized by the very
        // next tick, releasing solutions that never saw the orphans.
        let timeout = SimTime::from_millis(100);
        let dead_children = [ProcessId(2), ProcessId(3)];
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &dead_children,
            3,
            suspecting(timeout),
        );
        let mut t = RecTransport {
            now: SimTime::from_millis(10),
            ..Default::default()
        };
        core.on_message(
            DetectMsg::Suspect {
                from: ProcessId(5),
                suspect: ProcessId(2),
            },
            &mut t,
        );
        core.on_message(
            DetectMsg::Adopt {
                child: ProcessId(6),
                epoch: 1,
                dead_parent: Some(ProcessId(3)),
            },
            &mut t,
        );
        assert_eq!(core.held_children(), dead_children);
        // The first tick, half a timeout later: both holds are still open.
        t.now = SimTime::from_millis(60);
        core.membership_tick(&mut t);
        assert_eq!(core.held_children(), dead_children, "held past the tick");
        assert!(dead_children.iter().all(|&c| core.engine().has_child(c)));
        // Past `opened + timeout` they expire like any hold (the adopted
        // orphan, alive, keeps beaconing).
        t.now = SimTime::from_millis(111);
        core.note_heartbeat(ProcessId(6), t.now);
        core.membership_tick(&mut t);
        assert!(core.held_children().is_empty());
        assert!(!dead_children.iter().any(|&c| core.engine().has_child(c)));
    }

    #[test]
    fn one_peer_state_reached_two_ways_digests_alike() {
        let core = || {
            let config = suspecting(SimTime::from_millis(100));
            MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[ProcessId(2)], 2, config)
        };
        let now = SimTime::from_millis(300);
        // One path holds the child and then hears it again, which lifts
        // the hold; the other only ever hears it, at the same time.
        let mut relapsed = core();
        relapsed.note_heartbeat(ProcessId(2), SimTime::from_millis(10));
        relapsed.hold_dead_child(ProcessId(2), SimTime::from_millis(150));
        assert_eq!(relapsed.held_children(), [ProcessId(2)]);
        relapsed.note_heartbeat(ProcessId(2), SimTime::from_millis(200));
        let mut steady = core();
        steady.note_heartbeat(ProcessId(2), SimTime::from_millis(200));
        assert!(relapsed.held_children().is_empty());
        assert_eq!(relapsed.digest(now), steady.digest(now));
        // A held peer that is then forgotten leaves no record behind.
        let mut forgotten = core();
        forgotten.hold_dead_child(ProcessId(2), now);
        forgotten.update_peer(ProcessId(2), |p| p.hold = None);
        assert_eq!(forgotten.digest(now), core().digest(now));
        // A sender that is no child still gets a stream, and the stream is
        // state with nothing buffered: it is what makes an `Ack` go out.
        let config = MonitorConfig {
            retransmit_period: Some(SimTime::from_millis(10)),
            ..suspecting(SimTime::from_millis(100))
        };
        let fresh = MonitorCore::new(ProcessId(1), Some(ProcessId(0)), &[], 2, config);
        let mut acking = fresh.clone();
        let mut t = RecTransport::default();
        let report = DetectMsg::Interval {
            from: ProcessId(5),
            interval: iv(5, 0, &[0, 0, 0, 0, 0, 1], &[0, 0, 0, 0, 0, 2]),
            resync: false,
        };
        acking.on_message(report, &mut t);
        let ack = DetectMsg::Ack {
            from: ProcessId(1),
            upto: 1,
        };
        assert_eq!(t.sent, [(ProcessId(5), ack, None)]);
        assert_ne!(acking.digest(now), fresh.digest(now));
    }

    #[test]
    fn membership_tick_without_a_suspect_timeout_does_nothing() {
        let mut core = MonitorCore::new(
            ProcessId(1),
            Some(ProcessId(0)),
            &[ProcessId(2)],
            2,
            MonitorConfig::default(),
        );
        let mut t = RecTransport::default();
        core.note_heartbeat(ProcessId(0), t.now);
        core.note_heartbeat(ProcessId(2), t.now);
        t.now = SimTime::from_secs(3600);
        assert!(core.membership_tick(&mut t).is_empty());
        assert!(core.held_children().is_empty());
        assert!(!core.membership().is_adopting());
        assert!(t.sent.is_empty());
    }
}
