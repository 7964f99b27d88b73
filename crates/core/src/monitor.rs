//! [`MonitorApp`] — one node's monitor process on the simulated network.
//!
//! All protocol logic (queue feeding, reorder buffers, acks/retransmits,
//! uplink codec state, tree-repair steps) lives in the
//! transport-agnostic [`MonitorCore`];
//! this wrapper adds only what is simulator-specific: the local interval
//! *schedule* (the simulated application whose predicate we monitor),
//! timer plumbing, and crash/reboot checkpointing. The TCP runtime in
//! `ftscp-net` wraps the very same core, which is what makes the two
//! backends differentially comparable.

use crate::engine::{EngineCheckpoint, NodeEngine};
use crate::membership::{Membership, MembershipEvent, RepairStep};
use crate::protocol::DetectMsg;
use crate::report::GlobalDetection;
use crate::transport::MonitorCore;
use ftscp_intervals::Interval;
use ftscp_simnet::{Application, Ctx, SimTime, TimerToken};
use ftscp_vclock::ProcessId;
use std::collections::{BTreeMap, VecDeque};

const TIMER_NEXT_INTERVAL: TimerToken = 1;
const TIMER_HEARTBEAT: TimerToken = 2;
const TIMER_RETRANSMIT: TimerToken = 3;
const TIMER_SUSPECT: TimerToken = 4;

/// Monitor configuration.
#[derive(Clone, Copy, Debug)]
pub struct MonitorConfig {
    /// Heartbeat period along tree edges; `None` disables heartbeats
    /// (used by the message-counting experiments, which — like the paper —
    /// count only interval traffic).
    pub heartbeat_period: Option<SimTime>,
    /// Reliability layer for lossy links: when set, interval reports are
    /// held until cumulatively acknowledged by the parent and re-sent at
    /// this period. `None` assumes reliable channels (the paper's model).
    pub retransmit_period: Option<SimTime>,
    /// Maximum unacknowledged outputs re-sent per retransmit firing. A
    /// bounded burst keeps a long outage (crashed parent, partition) from
    /// flooding the network with the entire backlog at every firing; the
    /// cumulative-ack scheme drains the rest over subsequent firings.
    pub retransmit_burst: usize,
    /// Cap on the exponential backoff multiplier: after consecutive
    /// retransmit firings with no acknowledgement progress the period
    /// doubles up to `retransmit_period × cap`, then resets to the base
    /// period as soon as an ack makes progress (or a new parent is set).
    pub retransmit_backoff_cap: u32,
    /// Decentralized failure detection — the one place the suspicion
    /// timeout lives, on either runtime: when set, the node itself runs
    /// [`MonitorCore::membership_tick`] every
    /// [`suspect_period`](Self::suspect_period) — a peer silent for longer
    /// than this is suspected, a silent child's queue is held for this
    /// long and then dropped, and a silent parent triggers the
    /// grandparent-adoption handshake, with no harness involvement.
    /// `None` (the default) leaves repair to the simulated deployment's
    /// maintenance service — [`RepairMode::Scheduled`], the clairvoyant
    /// harness; [`RepairMode::HeartbeatDriven`] sets this from
    /// `repair_delay`.
    ///
    /// [`RepairMode::Scheduled`]: crate::deploy::RepairMode::Scheduled
    /// [`RepairMode::HeartbeatDriven`]: crate::deploy::RepairMode::HeartbeatDriven
    pub suspect_timeout: Option<SimTime>,
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

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(50)),
            retransmit_period: None,
            retransmit_burst: 8,
            retransmit_backoff_cap: 8,
            suspect_timeout: None,
        }
    }
}

/// The per-node monitor on the simulated network: a [`MonitorCore`] plus
/// the node's local interval schedule and timer/checkpoint plumbing.
pub struct MonitorApp {
    core: MonitorCore,
    /// Local intervals this node will observe, with completion times
    /// (the simulated "application" whose predicate we monitor).
    schedule: VecDeque<(SimTime, Interval)>,
    /// Last persisted checkpoint ("stable storage"): taken after every
    /// engine-state change when checkpointing is enabled.
    stable_checkpoint: Option<EngineCheckpoint>,
    checkpointing: bool,
}

impl MonitorApp {
    /// Builds a monitor for `me` with the given children and local
    /// interval schedule (must be sorted by time).
    pub fn new(
        me: ProcessId,
        parent: Option<ProcessId>,
        children: &[ProcessId],
        level: u32,
        schedule: Vec<(SimTime, Interval)>,
        config: MonitorConfig,
    ) -> Self {
        debug_assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0));
        MonitorApp {
            core: MonitorCore::new(me, parent, children, level, config),
            schedule: schedule.into(),
            stable_checkpoint: None,
            checkpointing: false,
        }
    }

    /// Enables write-through checkpointing: after every state change the
    /// engine image is "persisted" (kept aside), surviving a crash of the
    /// in-memory state. Models a node with stable storage.
    pub fn enable_checkpointing(&mut self) {
        self.checkpointing = true;
        self.stable_checkpoint = Some(self.core.engine.checkpoint());
    }

    /// The last persisted checkpoint, if checkpointing is enabled.
    pub fn stable_checkpoint(&self) -> Option<&EngineCheckpoint> {
        self.stable_checkpoint.as_ref()
    }

    /// Reboot: discard volatile state and restore the engine from stable
    /// storage. The node rejoins as a leaf (its children have been
    /// re-parented during its downtime): child queues are dropped, the
    /// reorder buffers and unacked set are volatile and reset, and the
    /// interval schedule continues from wherever simulated time now is.
    /// Returns false if no checkpoint exists.
    pub fn reboot_from_checkpoint(&mut self, ctx: &mut Ctx<'_, DetectMsg>) -> bool {
        let Some(cp) = self.stable_checkpoint.clone() else {
            return false;
        };
        // Discard what dropping the stale child queues released — it refers
        // to children that now live elsewhere.
        let (engine, _released) = NodeEngine::restore_as_leaf(cp);
        self.core.engine = engine;
        self.core.parent = None; // the maintenance service sets a parent
        self.core.reorder.clear();
        self.core.unacked.clear();
        self.core.retransmit_backoff = 1;
        // Connection state is volatile. So is the incarnation: peers must
        // treat beacons from the crashed life as stale, and peer-epoch
        // observations are lost.
        self.core.uplink_codec.reset();
        self.core.membership = Membership::new(self.core.membership.epoch() + 1);
        // Intervals that would have completed during the outage never
        // happened (the node was down): drop them.
        while let Some(&(t, _)) = self.schedule.front() {
            if t <= ctx.now() {
                self.schedule.pop_front();
            } else {
                break;
            }
        }
        // Re-arm volatile timers.
        self.arm_next_interval(ctx);
        if let Some(period) = self.core.config.heartbeat_period {
            ctx.set_timer(period, TIMER_HEARTBEAT);
        }
        if let Some(period) = self.core.config.retransmit_period {
            ctx.set_timer(period, TIMER_RETRANSMIT);
        }
        self.arm_suspect_timer(ctx);
        true
    }

    /// Applies one step of the maintenance service's repair plan (see
    /// [`MonitorCore::apply_repair`]) and persists the result.
    pub fn apply_repair(&mut self, step: RepairStep, ctx: &mut Ctx<'_, DetectMsg>) {
        self.core.apply_repair(step, ctx);
        self.persist();
    }

    fn persist(&mut self) {
        if self.checkpointing {
            self.stable_checkpoint = Some(self.core.engine.checkpoint());
        }
    }

    /// Outputs awaiting parent acknowledgement (reliability layer).
    pub fn unacked_count(&self) -> usize {
        self.core.unacked_count()
    }

    /// Detections recorded at this node (non-empty only for roots).
    pub fn detections(&self) -> &[GlobalDetection] {
        self.core.detections()
    }

    /// This node's current parent.
    pub fn parent(&self) -> Option<ProcessId> {
        self.core.parent()
    }

    /// The wrapped engine (for statistics).
    pub fn engine(&self) -> &NodeEngine {
        self.core.engine()
    }

    /// Interval messages this node originated.
    pub fn interval_msgs_sent(&self) -> u64 {
        self.core.interval_msgs_sent()
    }

    /// Interval messages sent through the re-report/resync path.
    pub fn re_report_msgs(&self) -> u64 {
        self.core.re_report_msgs()
    }

    /// Bytes billed for the re-report/resync path.
    pub fn re_report_bytes(&self) -> u64 {
        self.core.re_report_bytes()
    }

    /// This node's membership view (epoch, repair state, grandparent).
    pub fn membership(&self) -> &Membership {
        self.core.membership()
    }

    /// Heartbeats observed so far: peer → last time.
    pub fn heartbeat_seen(&self) -> &BTreeMap<ProcessId, SimTime> {
        self.core.heartbeat_seen()
    }

    /// Tree peers (parent + children) whose last heartbeat is older than
    /// `timeout` at time `now` — see [`MonitorCore::suspects`].
    pub fn suspects(&self, now: SimTime, timeout: SimTime) -> Vec<ProcessId> {
        self.core.suspects(now, timeout)
    }

    /// Current retransmit backoff multiplier (for tests/telemetry).
    pub fn retransmit_backoff(&self) -> u32 {
        self.core.retransmit_backoff()
    }

    /// Local intervals not yet observed (schedule remainder).
    pub fn pending_schedule_len(&self) -> usize {
        self.schedule.len()
    }

    fn arm_next_interval(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        if let Some(&(t, _)) = self.schedule.front() {
            let delay = t.saturating_sub(ctx.now());
            ctx.set_timer(delay, TIMER_NEXT_INTERVAL);
        }
    }

    fn arm_suspect_timer(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        if let Some(period) = self.core.config.suspect_period() {
            ctx.set_timer(period, TIMER_SUSPECT);
        }
    }
}

impl Application for MonitorApp {
    type Msg = DetectMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        self.arm_next_interval(ctx);
        if let Some(period) = self.core.config.heartbeat_period {
            ctx.set_timer(period, TIMER_HEARTBEAT);
        }
        if let Some(period) = self.core.config.retransmit_period {
            ctx.set_timer(period, TIMER_RETRANSMIT);
        }
        self.arm_suspect_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DetectMsg>, token: TimerToken) {
        match token {
            TIMER_NEXT_INTERVAL => {
                while let Some(&(t, _)) = self.schedule.front() {
                    if t > ctx.now() {
                        break;
                    }
                    let (_, interval) = self.schedule.pop_front().expect("peeked");
                    self.core.observe_local(interval, ctx);
                }
                self.persist();
                self.arm_next_interval(ctx);
            }
            TIMER_RETRANSMIT => {
                if let Some(delay) = self.core.on_retransmit_due(ctx) {
                    ctx.set_timer(delay, TIMER_RETRANSMIT);
                }
            }
            TIMER_HEARTBEAT => {
                if let Some(period) = self.core.config.heartbeat_period {
                    self.core.send_heartbeats(ctx);
                    ctx.set_timer(period, TIMER_HEARTBEAT);
                }
            }
            TIMER_SUSPECT => {
                let events = self.core.membership_tick(ctx);
                if events
                    .iter()
                    .any(|e| matches!(e, MembershipEvent::AdoptionStarted { .. }))
                {
                    // The simulated network routes by id: the handshake
                    // can go out immediately (the TCP runtime instead
                    // re-dials its uplink first — see `ftscp-net`).
                    self.core.send_adoption_request(ctx);
                }
                if !events.is_empty() {
                    self.persist();
                }
                self.arm_suspect_timer(ctx);
            }
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DetectMsg>, _from: ProcessId, msg: DetectMsg) {
        self.core.on_message(msg, ctx);
        self.persist();
    }

    fn msg_size(msg: &DetectMsg) -> usize {
        msg.wire_size()
    }
}
