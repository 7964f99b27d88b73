//! Transport abstraction and the transport-agnostic monitor state machine.
//!
//! [`MonitorCore`] is everything a tree node's monitor does that has
//! nothing to do with *how* bytes move: feeding the [`NodeEngine`],
//! per-child reorder buffers, the cumulative-ack reliability layer with
//! bounded retransmit bursts and exponential backoff, uplink delta-codec
//! state, and detection recording. It talks to the world only through the
//! [`Transport`] trait, so the same state machine drives both backends:
//!
//! * `ftscp-simnet` — [`crate::monitor::MonitorApp`] wraps a core and
//!   implements [`Transport`] on the simulator's `Ctx` (sends are
//!   structured messages, billed at their delta-coded size via
//!   `send_sized`);
//! * `ftscp-net` — the TCP runtime wraps a core and drains an [`Outbox`]
//!   onto real sockets after every core call (sends are actually encoded).
//!
//! Because both backends execute the *same* `MonitorCore` code, they
//! cannot drift: the differential test in `ftscp-net` asserts identical
//! detection fingerprints for the same workload run through either one.

use crate::engine::{EngineOutput, NodeEngine};
use crate::membership::{Membership, MembershipEvent, RepairState, RepairStep};
use crate::monitor::MonitorConfig;
use crate::protocol::{ConnCodec, DetectMsg, INTERVAL_MSG_OVERHEAD};
use crate::report::GlobalDetection;
use ftscp_intervals::Interval;
use ftscp_simnet::SimTime;
use ftscp_vclock::ProcessId;
use std::collections::BTreeMap;

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

/// The transport-agnostic monitor state machine (see module docs).
///
/// ## Non-FIFO channels and interval order
///
/// Algorithm 1's queues assume each child's intervals arrive in the order
/// they were produced (that is what makes queue heads "earliest
/// remaining", Theorem 2). The system model explicitly allows
/// out-of-order delivery, so the core restores per-child order with
/// sequence numbers and a reorder buffer — a standard engineering
/// completion the paper leaves implicit. Stale re-transmissions (possible
/// after a reattachment re-report, or a TCP reconnect replay) are
/// dropped.
pub struct MonitorCore {
    pub(crate) me: ProcessId,
    pub(crate) engine: NodeEngine,
    pub(crate) parent: Option<ProcessId>,
    pub(crate) config: MonitorConfig,
    /// Per-child reorder state: next expected seq + held-back intervals.
    pub(crate) reorder: BTreeMap<ProcessId, (u64, BTreeMap<u64, Interval>)>,
    /// Detections recorded while this node was a root.
    pub(crate) detections: Vec<GlobalDetection>,
    /// Interval messages sent (for per-node accounting).
    pub(crate) interval_msgs_sent: u64,
    /// Reliability layer: outputs not yet acknowledged by the parent,
    /// keyed by output sequence number.
    pub(crate) unacked: BTreeMap<u64, Interval>,
    /// Current retransmit backoff multiplier (1 = base period); doubles on
    /// each firing without ack progress up to the configured cap.
    pub(crate) retransmit_backoff: u32,
    /// Delta-codec state of the uplink to the current parent: fresh
    /// reports go out as stateful frames against the previous report's
    /// `lo`; retransmissions and re-reports are standalone and leave this
    /// untouched. On the simulated backend this determines only the byte
    /// sizes charged to the network; the TCP backend mirrors the same
    /// decisions with a real per-connection codec.
    pub(crate) uplink_codec: ConnCodec,
    /// Heartbeats observed: peer → last time.
    pub(crate) heartbeat_seen: BTreeMap<ProcessId, SimTime>,
    /// Decentralized membership view: own epoch, peers' epochs, the
    /// grandparent hint, and the adoption state machine (§III-F repair
    /// as a protocol feature — see [`crate::membership`]).
    pub(crate) membership: Membership,
    /// Interval messages sent through the re-report path (resync bursts
    /// after a reconnect or adoption) — the §III-F repair traffic.
    pub(crate) re_report_msgs: u64,
    /// Bytes billed for the re-report path (standalone frames).
    pub(crate) re_report_bytes: u64,
    /// Hold-after-drop: children suspected dead whose queues are *kept*
    /// until either the orphaned subtree reattaches (the `Adopt` that
    /// names them as `dead_parent` finalizes the drop) or the deadline
    /// expires (a dead leaf — no orphan is coming). While held, the
    /// child's queue runs empty and an empty queue blocks conjunctive
    /// emission — which is exactly the model's `waiting` gate: without
    /// it, removing the queue releases solutions that were never checked
    /// against the orphan subtree's intervals (the prune/adopt race).
    pub(crate) held: BTreeMap<ProcessId, SimTime>,
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
            reorder: BTreeMap::new(),
            detections: Vec::new(),
            interval_msgs_sent: 0,
            unacked: BTreeMap::new(),
            retransmit_backoff: 1,
            uplink_codec: ConnCodec::new(),
            heartbeat_seen: BTreeMap::new(),
            membership: Membership::new(0),
            re_report_msgs: 0,
            re_report_bytes: 0,
            held: BTreeMap::new(),
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

    /// Heartbeats observed so far: peer → last time.
    pub fn heartbeat_seen(&self) -> &BTreeMap<ProcessId, SimTime> {
        &self.heartbeat_seen
    }

    /// This node's membership view (epochs + repair state).
    pub fn membership(&self) -> &Membership {
        &self.membership
    }

    /// Mutable membership view (the TCP runtime seeds the initial epoch
    /// and join state from its node config).
    pub fn membership_mut(&mut self) -> &mut Membership {
        &mut self.membership
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
        self.heartbeat_seen.insert(peer, now);
        self.held.remove(&peer);
    }

    /// Children currently held (suspected dead, queue retained pending
    /// reattachment or expiry) — for tests and telemetry.
    pub fn held_children(&self) -> Vec<ProcessId> {
        self.held.keys().copied().collect()
    }

    /// Tree peers this node beacons to: children, then parent.
    pub fn heartbeat_targets(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.engine.children().iter().copied().chain(self.parent)
    }

    /// Sends one heartbeat to every tree peer, carrying this node's
    /// epoch and its ancestor chain: its parent (the grandparent hint for
    /// its children) plus the rungs above it relayed from its own
    /// parent's beacons.
    pub fn send_heartbeats(&mut self, t: &mut impl Transport) {
        for peer in self.heartbeat_targets() {
            t.send(
                peer,
                DetectMsg::Heartbeat {
                    from: self.me,
                    epoch: self.membership.epoch(),
                    parent: self.parent,
                    ancestors: self.membership.ancestor_chain().to_vec(),
                },
            );
        }
    }

    /// Tree peers (parent + children) whose last heartbeat is older than
    /// `timeout` at time `now` — the local failure-detector view that a
    /// deployment's maintenance service (or the TCP runtime's reconnect
    /// logic) acts on. Peers never heard from at all are suspected once a
    /// full timeout has elapsed since the start of time.
    pub fn suspects(&self, now: SimTime, timeout: SimTime) -> Vec<ProcessId> {
        self.heartbeat_targets()
            .filter(|peer| {
                let last = self
                    .heartbeat_seen
                    .get(peer)
                    .copied()
                    .unwrap_or(SimTime::ZERO);
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
        self.held.remove(&child);
        self.reorder.remove(&child);
        self.heartbeat_seen.remove(&child);
        let outputs = self.engine.remove_child(child);
        self.handle_outputs(t, outputs);
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
        self.heartbeat_seen.remove(&child);
        self.held.insert(child, SimTime(now.0 + window.0));
    }

    /// One decentralized failure-detection round: every suspect that is a
    /// child gets its queue dropped locally; a suspect parent starts (or
    /// keeps knocking on) the grandparent-adoption handshake. Returns
    /// what was decided so the transport-specific driver can act — the
    /// simulated backend sends the handshake immediately over the
    /// routed network, the TCP backend first re-dials its uplink socket
    /// at the new target (see `ftscp-net`).
    ///
    /// The suspicion timeout is [`MonitorConfig::suspect_timeout`]; with
    /// none configured there is no failure detector and this does
    /// nothing. Crash-free runs reach this via a timer and do nothing
    /// either: no suspicion, no messages, no tree mutation.
    pub fn membership_tick(&mut self, t: &mut impl Transport) -> Vec<MembershipEvent> {
        let Some(timeout) = self.config.suspect_timeout else {
            return Vec::new();
        };
        let now = t.now();
        // Expire holds whose reattachment window closed: the dead child
        // led a subtree with no survivors (or none that reached us), so
        // nothing is coming to take over the blocking. Finalize, which
        // releases whatever the empty queue was holding back.
        let expired: Vec<ProcessId> = self
            .held
            .iter()
            .filter(|&(_, &deadline)| deadline <= now)
            .map(|(&c, _)| c)
            .collect();
        for child in expired {
            self.drop_dead_child(child, t);
        }
        let mut events = Vec::new();
        for peer in self.suspects(now, timeout) {
            // Already held: the drop decision is made, the queue is just
            // waiting for the orphan's Adopt (or the expiry above).
            if self.held.contains_key(&peer) {
                continue;
            }
            // Surgery needs evidence of life first: a peer never heard
            // from is a slow starter (real deployments stagger), not a
            // corpse — and without its heartbeats there is no grandparent
            // hint to adopt toward anyway.
            if !self.heartbeat_seen.contains_key(&peer) {
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
                    // down the hint ladder instead of dialing a corpse
                    // forever.
                    self.membership.abandon_adoption_target();
                }
                match self.membership.next_adoption_candidate(self.me, Some(peer)) {
                    Some(g) => {
                        self.membership.begin_adoption(g, Some(peer));
                        events.push(MembershipEvent::AdoptionStarted { target: g });
                    }
                    None => {
                        // The root died (its heartbeats carried no
                        // parent), no hint was ever heard, or every
                        // hinted ancestor is written off: no adopter.
                        events.push(MembershipEvent::Orphaned { dead_parent: peer });
                    }
                }
            }
        }
        events
    }

    /// (Re-)sends the outstanding adoption handshake: `Suspect` (when a
    /// dead parent is being replaced) followed by `Adopt`, both to the
    /// prospective new parent. No-op unless an attempt is open.
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
                EngineOutput::ToParent { interval, .. } => {
                    if self.config.retransmit_period.is_some() {
                        self.unacked.insert(interval.seq, interval.clone());
                    }
                    // No parent (orphan root): the detection is recorded at
                    // engine level; nothing to transmit.
                    self.report(t, interval, false, false);
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
    /// sent, without a parent). A fresh report is the next stateful frame
    /// of the uplink stream, charged at its delta-coded size; a
    /// retransmission or re-report is `standalone` — decodable by a parent
    /// that missed the originals — and does not advance the uplink codec:
    /// the live stream's base is unaffected by re-sends.
    fn report(
        &mut self,
        t: &mut impl Transport,
        interval: Interval,
        standalone: bool,
        resync: bool,
    ) -> usize {
        let Some(parent) = self.parent else {
            return 0;
        };
        let frame = if standalone {
            ConnCodec::standalone_len(&interval)
        } else {
            let len = self.uplink_codec.stateful_len(&interval);
            self.uplink_codec.note_sent(&interval);
            len
        };
        let size = INTERVAL_MSG_OVERHEAD + frame;
        self.interval_msgs_sent += 1;
        let from = self.me;
        t.send_sized(
            parent,
            DetectMsg::Interval {
                from,
                interval,
                resync,
            },
            size,
        );
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
            bytes += self.report(t, interval, true, resync_first && i == 0) as u64;
        }
        (msgs, bytes)
    }

    /// The uplink channel to the parent was (re-)established cold: the
    /// receiving decoder has no per-connection state, so the stream must
    /// restart from a standalone frame. Resets the uplink codec, then
    /// either retransmits the unacknowledged backlog (first frame flagged
    /// as a resync) or — when the reliability layer is off or drained —
    /// re-reports the node's last output so the parent's fresh queue is
    /// seeded (§III-B). Shared by the handshake's `AdoptAck`, the
    /// harness's [`RepairStep::SetParent`] and the TCP runtime's
    /// reconnect path.
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
            self.re_report_bytes += self.report(t, last, true, true) as u64;
        }
    }

    /// The retransmit period elapsed: re-send a bounded burst of the
    /// backlog (if any) and back off exponentially while no ack makes
    /// progress. Returns the delay until the next firing, or `None` when
    /// the reliability layer is disabled.
    pub fn on_retransmit_due(&mut self, t: &mut impl Transport) -> Option<SimTime> {
        let period = self.config.retransmit_period?;
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
        Some(SimTime(period.0 * u64::from(self.retransmit_backoff)))
    }

    /// Reliability layer: cumulatively acknowledges `child`'s stream
    /// position (idempotent; sent per received report or batch).
    fn ack_stream(&self, t: &mut impl Transport, child: ProcessId) {
        if self.config.retransmit_period.is_some() {
            if let Some(&(upto, _)) = self.reorder.get(&child) {
                let from = self.me;
                t.send(child, DetectMsg::Ack { from, upto });
            }
        }
    }

    /// Feeds `interval` from `child` through the per-child reorder buffer,
    /// delivering to the engine everything that is now in order.
    fn deliver_in_order(
        &mut self,
        t: &mut impl Transport,
        child: ProcessId,
        interval: Interval,
        resync: bool,
    ) {
        let ready = {
            let (next_expected, buffer) = self
                .reorder
                .entry(child)
                .or_insert_with(|| (0, BTreeMap::new()));
            if resync && interval.seq > *next_expected {
                // Re-report after a tree repair: earlier sequence numbers
                // were consumed by the child's previous parent and will
                // never arrive here.
                *next_expected = interval.seq;
                buffer.retain(|&s, _| s >= interval.seq);
            }
            match interval.seq.cmp(next_expected) {
                std::cmp::Ordering::Less => Vec::new(), // stale duplicate
                std::cmp::Ordering::Greater => {
                    buffer.insert(interval.seq, interval);
                    Vec::new()
                }
                std::cmp::Ordering::Equal => {
                    let mut ready = vec![interval];
                    let mut next = *next_expected + 1;
                    while let Some(iv) = buffer.remove(&next) {
                        ready.push(iv);
                        next += 1;
                    }
                    *next_expected = next;
                    ready
                }
            }
        };
        for iv in ready {
            let outputs = self.engine.on_child_interval(child, iv);
            self.handle_outputs(t, outputs);
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
            } => {
                self.deliver_in_order(t, from, interval, resync);
                self.ack_stream(t, from);
            }
            DetectMsg::IntervalBatch {
                from,
                groups,
                resync,
            } => {
                // A single-predicate monitor consumes a batch as the same
                // intervals sent back to back; the predicate tags are
                // routing metadata for a registry-backed receiver
                // (`crate::registry`). `resync` re-opens the stream at the
                // first group; the rest continue it.
                let mut resync = resync;
                for (_preds, interval) in groups {
                    self.deliver_in_order(t, from, interval, resync);
                    resync = false;
                }
                self.ack_stream(t, from);
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
                if self.engine.has_child(suspect) && !self.held.contains_key(&suspect) {
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
                if !self.membership.observe_peer_epoch(child, epoch) {
                    // Stale incarnation: refuse so the sender's (obsolete)
                    // attempt terminates instead of hanging.
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
                // its re-reports arrive (hold-after-drop; model-checked
                // in `ftscp-dst`).
                if !self.engine.has_child(child) {
                    self.engine.add_child(child);
                    // A fresh queue accepts any sequence number.
                    self.reorder.remove(&child);
                }
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
                    if dead != self.me
                        && self.engine.has_child(dead)
                        && !self.held.contains_key(&dead)
                    {
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
                self.membership.finish_adoption();
                if accepted {
                    self.parent = Some(from);
                    self.engine.set_root(false);
                    self.retransmit_backoff = 1;
                    self.heartbeat_seen.insert(from, t.now());
                    t.send(
                        from,
                        DetectMsg::ReReport {
                            from: self.me,
                            epoch,
                        },
                    );
                    // §III-F re-report: refill the adopter's fresh queue,
                    // standalone-first (its decoder is cold).
                    self.resync_uplink(t);
                }
            }
            DetectMsg::ReReport { from, epoch } => {
                // Informational: the adopted child announces its epoch and
                // that re-reports follow. Must NOT touch the reorder entry —
                // the resync Interval may already have arrived (non-FIFO
                // delivery) and seeded the new stream position.
                self.membership.observe_peer_epoch(from, epoch);
                self.note_heartbeat(from, t.now());
            }
        }
    }

    /// Applies one step of a clairvoyant repair
    /// ([`membership::repair_plan`](crate::membership::repair_plan)) — the
    /// simulated harness's stand-in for the adoption handshake.
    pub fn apply_repair(&mut self, step: RepairStep, t: &mut impl Transport) {
        match step {
            RepairStep::SetParent(parent) => {
                self.parent = parent;
                self.engine.set_root(parent.is_none());
                // A fresh parent gets a fresh backoff window and a cold
                // uplink codec (the old connection's base is meaningless
                // to the new parent's decoder).
                self.retransmit_backoff = 1;
                self.resync_uplink(t);
            }
            RepairStep::AddChild(child) => {
                if !self.engine.has_child(child) {
                    self.engine.add_child(child);
                    // A fresh queue accepts any sequence number.
                    self.reorder.remove(&child);
                }
            }
            RepairStep::RemoveChild(child) => {
                self.reorder.remove(&child);
                let outputs = self.engine.remove_child(child);
                self.handle_outputs(t, outputs);
            }
            RepairStep::PromoteRoot => {
                self.parent = None;
                self.engine.set_root(true);
                // Fold the last output (shipped only to the dead root)
                // back into detection.
                let outputs = self.engine.reseed_last_output();
                self.handle_outputs(t, outputs);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::ADOPT_ATTEMPT_CAP;
    use ftscp_vclock::VectorClock;

    /// Minimal recording transport for unit tests: collects sends and
    /// serves a fixed clock.
    #[derive(Default)]
    struct RecTransport {
        now: SimTime,
        sent: Vec<(ProcessId, DetectMsg, Option<usize>)>,
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
        let DetectMsg::Interval { interval, .. } = msg else {
            unreachable!()
        };
        assert!(size.unwrap() <= INTERVAL_MSG_OVERHEAD + ConnCodec::standalone_len(interval));
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
        let DetectMsg::Interval {
            interval, resync, ..
        } = msg
        else {
            unreachable!()
        };
        assert!(*resync, "re-report is a resync point");
        assert_eq!(
            size.unwrap(),
            INTERVAL_MSG_OVERHEAD + ConnCodec::standalone_len(interval),
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
        core.on_retransmit_due(&mut t);
        core.on_retransmit_due(&mut t);
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
        // The parent re-parented over its lifetime: hints 7 then 8.
        for (at, gp) in [(0u64, 7u32), (10, 8)] {
            t.now = SimTime::from_millis(at);
            core.on_message(
                DetectMsg::Heartbeat {
                    from: ProcessId(0),
                    epoch: 0,
                    parent: Some(ProcessId(gp)),
                    ancestors: vec![],
                },
                &mut t,
            );
        }
        // The parent dies — and, unbeknownst to this node, so did 8.
        t.now = SimTime::from_millis(500);
        let first = core.membership_tick(&mut t);
        assert_eq!(
            first,
            vec![MembershipEvent::AdoptionStarted {
                target: ProcessId(8)
            }],
            "freshest hint dialed first"
        );
        let epoch8 = core.membership().epoch();
        for _ in 1..ADOPT_ATTEMPT_CAP {
            let ev = core.membership_tick(&mut t);
            assert_eq!(
                ev,
                vec![MembershipEvent::AdoptionStarted {
                    target: ProcessId(8)
                }],
                "re-knocks stay within the budget"
            );
        }
        // Budget spent: 8 is written off, the older hint 7 takes over.
        let retarget = core.membership_tick(&mut t);
        assert_eq!(
            retarget,
            vec![MembershipEvent::AdoptionStarted {
                target: ProcessId(7)
            }],
            "falls back to the older hint instead of dialing the corpse forever"
        );
        assert_eq!(core.membership().failed_targets(), &[ProcessId(8)]);
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
    fn exhausted_hint_ladder_reports_orphaned() {
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
            let ev = core.membership_tick(&mut t);
            assert_eq!(
                ev,
                vec![MembershipEvent::AdoptionStarted {
                    target: ProcessId(7)
                }]
            );
        }
        // The only hinted ancestor never answered: orphaned, not stuck in
        // an eternal retry toward the dead address.
        for _ in 0..2 {
            let ev = core.membership_tick(&mut t);
            assert_eq!(
                ev,
                vec![MembershipEvent::Orphaned {
                    dead_parent: ProcessId(0)
                }]
            );
            assert!(!core.membership().is_adopting());
        }
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
        core.send_adoption_request(&mut t);
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
