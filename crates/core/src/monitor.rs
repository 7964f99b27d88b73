//! [`MonitorApp`] — one node's monitor process on the simulated network.
//!
//! All protocol logic (queue feeding, reorder buffers, acks/retransmits,
//! uplink codec state, the repair handshake) and its timing policy (which
//! [`Duty`]s run and when, the adoption knock, the reset of a reboot)
//! live in the transport-agnostic [`MonitorCore`]; this wrapper adds only
//! what is simulator-specific: the local interval *schedule* (the
//! simulated application whose predicate we monitor), one simulator timer
//! per duty, and the reboot of a crashed node. The simulator never calls a
//! crashed app, so its core still holds the state the crash froze; a
//! restart reboots that core in place, which is what stable storage
//! written through on every step would give back. The TCP runtime in
//! `ftscp-net` wraps the very same core, which is what makes the two
//! backends differentially comparable.

use crate::protocol::{ConnCodec, DetectMsg};
use crate::transport::{Duty, MonitorCore};
use ftscp_intervals::codec::Len;
use ftscp_intervals::Interval;
use ftscp_simnet::{Application, Ctx, SimTime, TimerToken};
use ftscp_vclock::ProcessId;
use std::collections::VecDeque;

/// Timer tokens: the schedule's next local interval, then one per
/// [`Duty`], at `TIMER_DUTY + duty as TimerToken`.
const TIMER_NEXT_INTERVAL: TimerToken = 1;
const TIMER_DUTY: TimerToken = 2;

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
    /// timeout lives, on either runtime: when set (and heartbeats are on),
    /// the node itself runs [`Duty::Suspect`] every
    /// [`suspect_period`](Self::suspect_period) — a peer silent for longer
    /// than this is suspected, a silent child's queue is held for this
    /// long and then dropped, and a silent parent triggers the adoption
    /// handshake up the ancestor ladder, or the node's promotion to root
    /// when the ladder reaches its own id or runs out. `None` (the
    /// default) runs no failure detector: a crash is never repaired. The
    /// simulated [`Deployment`](crate::deploy::Deployment) sets it from
    /// `repair_delay`.
    pub suspect_timeout: Option<SimTime>,
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
/// the node's local interval schedule and timer plumbing.
pub struct MonitorApp {
    core: MonitorCore,
    /// Local intervals this node will observe, with completion times
    /// (the simulated "application" whose predicate we monitor).
    schedule: VecDeque<(SimTime, Interval)>,
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
        }
    }

    /// Reboot as a leaf and rejoin under `adopter` ([`MonitorCore::reboot`],
    /// [`MonitorCore::rejoin`]); the schedule goes on from now and the
    /// timers are re-armed.
    pub fn reboot(&mut self, adopter: ProcessId, ctx: &mut Ctx<'_, DetectMsg>) {
        self.core.reboot();
        self.core.rejoin(adopter, ctx);
        // Intervals that would have completed during the outage never
        // happened (the node was down): drop them.
        let now = ctx.now();
        while self.schedule.front().is_some_and(|&(t, _)| t <= now) {
            self.schedule.pop_front();
        }
        self.arm_timers(ctx);
    }

    /// The wrapped core: engine, parent, membership view and counters.
    pub fn core(&self) -> &MonitorCore {
        &self.core
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

    /// Arms the next local interval and every duty the core runs.
    fn arm_timers(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        self.arm_next_interval(ctx);
        for (duty, delay) in self.core.duties() {
            ctx.set_timer(delay, TIMER_DUTY + duty as TimerToken);
        }
    }
}

impl Application for MonitorApp {
    type Msg = DetectMsg;

    fn on_init(&mut self, ctx: &mut Ctx<'_, DetectMsg>) {
        self.arm_timers(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DetectMsg>, token: TimerToken) {
        if token == TIMER_NEXT_INTERVAL {
            while self.schedule.front().is_some_and(|&(t, _)| t <= ctx.now()) {
                let (_, interval) = self.schedule.pop_front().expect("peeked");
                self.core.observe_local(interval, ctx);
            }
            self.arm_next_interval(ctx);
            return;
        }
        let Some(&duty) = token
            .checked_sub(TIMER_DUTY)
            .and_then(|i| Duty::ALL.get(i as usize))
        else {
            return;
        };
        let (next, _) = self.core.on_duty(duty, ctx);
        if let Some(delay) = next {
            ctx.set_timer(delay, token);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, DetectMsg>, _from: ProcessId, msg: DetectMsg) {
        self.core.on_message(msg, ctx);
    }

    /// The length [`DetectMsg::encode`] writes for `msg` on a fresh
    /// connection — what TCP would carry. Interval reports bypass this:
    /// the core bills them against its uplink codec through `send_sized`.
    fn msg_size(msg: &DetectMsg) -> usize {
        Len::of(|len| msg.encode(&mut ConnCodec::new(), len))
    }
}
