//! Deterministic, scriptable fault injection.
//!
//! A [`FaultPlan`] is a time-ordered script of fault operations applied to
//! a [`Simulation`](crate::Simulation) as simulated time advances: process
//! crashes and restarts, network partitions and heals, message-duplication
//! and reordering windows, and per-node timer skew. The plan is pure data —
//! it draws no randomness of its own — so a `(topology, apps, seed, plan)`
//! quadruple always replays the identical execution, extending the
//! simulator's determinism guarantee to faulty runs. Replaying a failure
//! scenario byte-for-byte is what makes the fault-tolerance tests (§III-F
//! of the paper) debuggable.
//!
//! The primitives map onto the paper's system model like so:
//!
//! * **Crash / restart** — crash-stop and crash-recovery of monitor nodes,
//!   the §III-F failure model.
//! * **Partition / heal** — a cut of the communication graph `(P, L)`;
//!   messages crossing the cut are undeliverable until healed. Recovery
//!   relies on the monitor layer's retransmission, not the network.
//! * **Duplication** — link-layer retransmit duplicates; the monitor's
//!   per-child sequence numbers must deduplicate them.
//! * **Reordering** — bursts of extra non-FIFO delay, stressing the
//!   reorder buffers that restore per-child FIFO order.
//! * **Timer skew** — clock-rate drift of one node's local timers,
//!   stressing heartbeat/timeout tuning.

use crate::time::SimTime;
use crate::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// One fault primitive, applied instantaneously at its scheduled time.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultOp {
    /// Crash-stop `node`: it processes no further events.
    Crash(NodeId),
    /// Revive `node`. Its in-memory state is untouched and its pre-crash
    /// timers stay dead; modelling a reboot (checkpoint restore, timer
    /// re-arm) is the application/deployment layer's job.
    Restart(NodeId),
    /// Install a cut isolating `side` from the complement: every topology
    /// edge with exactly one endpoint in `side` becomes untraversable.
    /// Cuts stack — each `Partition` adds one.
    Partition(Vec<NodeId>),
    /// Remove every installed cut.
    Heal,
    /// Begin duplicating each successfully routed message with probability
    /// `prob` (the copy arrives later by one extra link-delay sample).
    DuplicateOn {
        /// Per-message duplication probability in `[0, 1]`.
        prob: f64,
    },
    /// Stop duplicating.
    DuplicateOff,
    /// Begin adding an extra uniform delay in `[0, window]` to each routed
    /// message with probability `prob` — bursts of aggravated non-FIFO
    /// reordering.
    ReorderOn {
        /// Maximum extra delay.
        window: SimTime,
        /// Per-message perturbation probability in `[0, 1]`.
        prob: f64,
    },
    /// Stop perturbing delays.
    ReorderOff,
    /// Scale all timer delays subsequently armed by `node` by `num / den`
    /// (a slow clock has `num > den`). `num = den` removes the skew.
    TimerSkew {
        /// The affected node.
        node: NodeId,
        /// Numerator of the scale factor.
        num: u32,
        /// Denominator of the scale factor.
        den: u32,
    },
}

/// A deterministic, replayable script of timed fault operations.
///
/// Build with the chained `*_at` / `*_between` methods; apply with
/// [`Simulation::apply_fault_plan`](crate::Simulation::apply_fault_plan).
/// Operations scheduled at the same instant apply in insertion order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    ops: Vec<(SimTime, FaultOp)>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules a raw operation.
    pub fn op_at(mut self, at: SimTime, op: FaultOp) -> Self {
        self.ops.push((at, op));
        self
    }

    /// Crash-stops `node` at `at`.
    pub fn crash_at(self, at: SimTime, node: NodeId) -> Self {
        self.op_at(at, FaultOp::Crash(node))
    }

    /// Revives `node` at `at`.
    pub fn restart_at(self, at: SimTime, node: NodeId) -> Self {
        self.op_at(at, FaultOp::Restart(node))
    }

    /// Isolates `side` from the rest of the network at `at`.
    pub fn partition_at(self, at: SimTime, side: &[NodeId]) -> Self {
        self.op_at(at, FaultOp::Partition(side.to_vec()))
    }

    /// Removes every cut at `at`.
    pub fn heal_at(self, at: SimTime) -> Self {
        self.op_at(at, FaultOp::Heal)
    }

    /// Duplicates messages with probability `prob` during `[from, to)`.
    pub fn duplicate_between(self, from: SimTime, to: SimTime, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob out of [0,1]");
        assert!(from < to, "empty duplication window");
        self.op_at(from, FaultOp::DuplicateOn { prob })
            .op_at(to, FaultOp::DuplicateOff)
    }

    /// Adds up to `window` extra delay (probability `prob` per message)
    /// during `[from, to)`.
    pub fn reorder_between(self, from: SimTime, to: SimTime, window: SimTime, prob: f64) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob out of [0,1]");
        assert!(from < to, "empty reorder window");
        self.op_at(from, FaultOp::ReorderOn { window, prob })
            .op_at(to, FaultOp::ReorderOff)
    }

    /// Scales `node`'s timer delays by `num / den` from `at` on.
    pub fn skew_timers_at(self, at: SimTime, node: NodeId, num: u32, den: u32) -> Self {
        assert!(num > 0 && den > 0, "skew factor must be positive");
        self.op_at(at, FaultOp::TimerSkew { node, num, den })
    }

    /// The scheduled operations in application order (stable-sorted by
    /// time, ties by insertion order).
    pub fn sorted_ops(&self) -> Vec<(SimTime, FaultOp)> {
        let mut ops = self.ops.clone();
        ops.sort_by_key(|&(t, _)| t);
        ops
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// All crash times per node — lets deployment layers pre-compute
    /// repair actions for a plan.
    pub fn crashes(&self) -> Vec<(SimTime, NodeId)> {
        let mut out: Vec<(SimTime, NodeId)> = self
            .ops
            .iter()
            .filter_map(|(t, op)| match op {
                FaultOp::Crash(n) => Some((*t, *n)),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }

    /// Synthesizes a randomized plan from `seed` — the fuel of the DST
    /// campaign (`ftscp-dst`). The plan is a pure function of
    /// `(params, seed)`: the same pair always yields the identical plan,
    /// so a failing campaign seed replays byte-for-byte and shrinks
    /// deterministically. Randomization covers every fault primitive:
    ///
    /// * up to `max_crashes` crash-stops with distinct victims at
    ///   randomized times — collapsed onto one instant with probability
    ///   `storm_prob` (a k-simultaneous failure storm, the compound
    ///   scenario scripted suites never cover);
    /// * each victim restarts later with probability `restart_prob`
    ///   (crash-recovery; the deployment must have checkpointing for
    ///   state to survive);
    /// * up to `max_partitions` non-overlapping partition windows, each
    ///   cutting a random proper subset of the network and healing
    ///   before the next opens;
    /// * a message-duplication window and an extra-delay reordering
    ///   window, each present with its configured probability;
    /// * per-node timer skew with probability `skew_prob`.
    pub fn randomized(params: &FaultPlanParams, seed: u64) -> FaultPlan {
        assert!(params.n >= 2, "randomized plans need at least two nodes");
        assert!(params.horizon > SimTime::ZERO, "empty fault horizon");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let horizon = params.horizon.0;
        let mut plan = FaultPlan::new();

        // Crashes (possibly a simultaneous storm), then their restarts.
        let crash_cap = params.max_crashes.min(params.n.saturating_sub(2));
        let crashes = if crash_cap == 0 {
            0
        } else {
            rng.gen_range(0..=crash_cap)
        };
        let mut victims: Vec<u32> = (0..params.n as u32).collect();
        victims.shuffle(&mut rng);
        victims.truncate(crashes);
        let storm = crashes >= 2 && rng.gen_bool(params.storm_prob);
        let storm_at = rng.gen_range(1..=horizon);
        for &v in &victims {
            let at = if storm {
                storm_at
            } else {
                rng.gen_range(1..=horizon)
            };
            plan = plan.crash_at(SimTime(at), NodeId(v));
            if rng.gen_bool(params.restart_prob) {
                let back = rng.gen_range(at + 1..=horizon + horizon / 2 + 2);
                plan = plan.restart_at(SimTime(back), NodeId(v));
            }
        }

        // Non-overlapping partition windows (Heal clears every cut, so
        // overlapping windows would heal each other early).
        let partitions = if params.max_partitions == 0 {
            0
        } else {
            rng.gen_range(0..=params.max_partitions)
        };
        let mut cursor = 1u64;
        for _ in 0..partitions {
            if cursor + 2 > horizon {
                break;
            }
            let from = rng.gen_range(cursor..=horizon - 1);
            let to = rng.gen_range(from + 1..=horizon);
            let side_len = rng.gen_range(1..params.n);
            let mut side: Vec<u32> = (0..params.n as u32).collect();
            side.shuffle(&mut rng);
            side.truncate(side_len);
            let side: Vec<NodeId> = side.into_iter().map(NodeId).collect();
            plan = plan.partition_at(SimTime(from), &side).heal_at(SimTime(to));
            cursor = to + 1;
        }

        // Duplication and reordering windows.
        if rng.gen_bool(params.duplication_prob) {
            let from = rng.gen_range(0..horizon);
            let to = rng.gen_range(from + 1..=horizon);
            let prob = rng.gen_range(0.1..=1.0);
            plan = plan.duplicate_between(SimTime(from), SimTime(to), prob);
        }
        if rng.gen_bool(params.reorder_prob) {
            let from = rng.gen_range(0..horizon);
            let to = rng.gen_range(from + 1..=horizon);
            let window = rng.gen_range(1..=horizon / 4 + 1);
            let prob = rng.gen_range(0.1..=1.0);
            plan = plan.reorder_between(SimTime(from), SimTime(to), SimTime(window), prob);
        }

        // Timer skew: one node's clock runs fast or slow.
        if rng.gen_bool(params.skew_prob) {
            let node = NodeId(rng.gen_range(0..params.n as u32));
            let &(num, den) = [(5u32, 4u32), (3, 2), (2, 1), (4, 5), (2, 3)]
                .choose(&mut rng)
                .expect("non-empty");
            plan = plan.skew_timers_at(SimTime(rng.gen_range(0..horizon)), node, num, den);
        }
        plan
    }

    /// All restart times per node.
    pub fn restarts(&self) -> Vec<(SimTime, NodeId)> {
        let mut out: Vec<(SimTime, NodeId)> = self
            .ops
            .iter()
            .filter_map(|(t, op)| match op {
                FaultOp::Restart(n) => Some((*t, *n)),
                _ => None,
            })
            .collect();
        out.sort();
        out
    }
}

/// Knobs of [`FaultPlan::randomized`]: the network size, the time window
/// faults may land in, and per-primitive intensity. The defaults from
/// [`FaultPlanParams::for_network`] exercise every primitive with enough
/// probability that a few hundred seeds cover all combinations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlanParams {
    /// Network size (victims and partition sides are drawn from `0..n`).
    pub n: usize,
    /// Latest injection time; restarts may land up to 50% past it so a
    /// crash near the horizon still gets its recovery.
    pub horizon: SimTime,
    /// Cap on crash-stops per plan (further capped at `n - 2` so at
    /// least two nodes always survive).
    pub max_crashes: usize,
    /// Probability that a crashed node restarts later.
    pub restart_prob: f64,
    /// Probability that a multi-crash plan collapses all crash times
    /// onto one instant — a k-simultaneous failure storm.
    pub storm_prob: f64,
    /// Cap on partition/heal windows per plan.
    pub max_partitions: usize,
    /// Probability of a message-duplication window.
    pub duplication_prob: f64,
    /// Probability of a reordering (extra-delay) window.
    pub reorder_prob: f64,
    /// Probability of a timer-skew operation.
    pub skew_prob: f64,
}

impl FaultPlanParams {
    /// Default intensities for an `n`-node network with faults injected
    /// across `horizon`.
    pub fn for_network(n: usize, horizon: SimTime) -> Self {
        FaultPlanParams {
            n,
            horizon,
            max_crashes: 3,
            restart_prob: 0.4,
            storm_prob: 0.3,
            max_partitions: 2,
            duplication_prob: 0.4,
            reorder_prob: 0.5,
            skew_prob: 0.3,
        }
    }

    /// Restricts the plan to crash/restart faults only (no partitions,
    /// duplication, reordering, or skew) — used by campaign modes whose
    /// remaining fault coverage is tracked as a known-open ROADMAP item.
    pub fn crash_only(mut self) -> Self {
        self.max_partitions = 0;
        self.duplication_prob = 0.0;
        self.reorder_prob = 0.0;
        self.skew_prob = 0.0;
        self
    }
}

/// The live fault state a simulation consults while routing and timing.
/// Mutated only by [`FaultOp`] application; holds no randomness.
#[derive(Clone, Debug, Default)]
pub struct ActiveFaults {
    /// Installed cuts: per-cut membership flags (`true` = in `side`).
    cuts: Vec<Vec<bool>>,
    /// Current duplication probability (0 = off).
    pub duplicate_prob: f64,
    /// Current reorder window (irrelevant when `reorder_prob` is 0).
    pub reorder_window: SimTime,
    /// Current reorder probability (0 = off).
    pub reorder_prob: f64,
    /// Per-node timer scale factors (absent = no skew).
    skew: BTreeMap<u32, (u32, u32)>,
}

impl ActiveFaults {
    /// True iff the undirected edge `{a, b}` crosses an installed cut.
    pub fn edge_blocked(&self, a: NodeId, b: NodeId) -> bool {
        self.cuts
            .iter()
            .any(|side| side[a.index()] != side[b.index()])
    }

    /// Applies `node`'s current clock skew to a timer delay.
    ///
    /// Rounds up: a fast clock (`num < den`) must never scale a
    /// positive delay to zero, or an application that re-arms a timer
    /// for the remaining time to a fixed deadline (the monitor's
    /// interval schedule does) spins forever at one instant — the
    /// skewed timer keeps firing "early" at the same simulated time.
    pub fn timer_delay(&self, node: NodeId, delay: SimTime) -> SimTime {
        match self.skew.get(&node.0) {
            Some(&(num, den)) => SimTime((delay.0 * u64::from(num)).div_ceil(u64::from(den))),
            None => delay,
        }
    }

    /// Applies one operation. `alive` is the simulation's liveness vector;
    /// `n` the network size (for building cut membership).
    pub fn apply(&mut self, op: &FaultOp, alive: &mut [bool], n: usize) {
        match op {
            FaultOp::Crash(node) => alive[node.index()] = false,
            FaultOp::Restart(node) => alive[node.index()] = true,
            FaultOp::Partition(side) => {
                let mut member = vec![false; n];
                for v in side {
                    member[v.index()] = true;
                }
                self.cuts.push(member);
            }
            FaultOp::Heal => self.cuts.clear(),
            FaultOp::DuplicateOn { prob } => self.duplicate_prob = *prob,
            FaultOp::DuplicateOff => self.duplicate_prob = 0.0,
            FaultOp::ReorderOn { window, prob } => {
                self.reorder_window = *window;
                self.reorder_prob = *prob;
            }
            FaultOp::ReorderOff => {
                self.reorder_window = SimTime::ZERO;
                self.reorder_prob = 0.0;
            }
            FaultOp::TimerSkew { node, num, den } => {
                if num == den {
                    self.skew.remove(&node.0);
                } else {
                    self.skew.insert(node.0, (*num, *den));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_stably_by_time() {
        let plan = FaultPlan::new()
            .crash_at(SimTime(50), NodeId(2))
            .heal_at(SimTime(10))
            .restart_at(SimTime(50), NodeId(2));
        let ops = plan.sorted_ops();
        assert_eq!(ops[0].0, SimTime(10));
        assert_eq!(ops[1], (SimTime(50), FaultOp::Crash(NodeId(2))));
        assert_eq!(ops[2], (SimTime(50), FaultOp::Restart(NodeId(2))));
        assert_eq!(plan.crashes(), vec![(SimTime(50), NodeId(2))]);
        assert_eq!(plan.restarts(), vec![(SimTime(50), NodeId(2))]);
    }

    #[test]
    fn cuts_block_exactly_crossing_edges() {
        let mut af = ActiveFaults::default();
        let mut alive = vec![true; 4];
        af.apply(
            &FaultOp::Partition(vec![NodeId(0), NodeId(1)]),
            &mut alive,
            4,
        );
        assert!(af.edge_blocked(NodeId(1), NodeId(2)), "crossing");
        assert!(!af.edge_blocked(NodeId(0), NodeId(1)), "inside side");
        assert!(!af.edge_blocked(NodeId(2), NodeId(3)), "outside side");
        af.apply(&FaultOp::Heal, &mut alive, 4);
        assert!(!af.edge_blocked(NodeId(1), NodeId(2)), "healed");
    }

    #[test]
    fn crash_and_restart_toggle_liveness() {
        let mut af = ActiveFaults::default();
        let mut alive = vec![true; 2];
        af.apply(&FaultOp::Crash(NodeId(1)), &mut alive, 2);
        assert!(!alive[1]);
        af.apply(&FaultOp::Restart(NodeId(1)), &mut alive, 2);
        assert!(alive[1]);
    }

    #[test]
    fn timer_skew_scales_and_clears() {
        let mut af = ActiveFaults::default();
        let mut alive = vec![true; 2];
        af.apply(
            &FaultOp::TimerSkew {
                node: NodeId(0),
                num: 3,
                den: 2,
            },
            &mut alive,
            2,
        );
        assert_eq!(af.timer_delay(NodeId(0), SimTime(100)), SimTime(150));
        assert_eq!(af.timer_delay(NodeId(1), SimTime(100)), SimTime(100));
        af.apply(
            &FaultOp::TimerSkew {
                node: NodeId(0),
                num: 1,
                den: 1,
            },
            &mut alive,
            2,
        );
        assert_eq!(af.timer_delay(NodeId(0), SimTime(100)), SimTime(100));
    }

    #[test]
    fn windows_toggle_knobs() {
        let mut af = ActiveFaults::default();
        let mut alive = vec![true; 1];
        af.apply(&FaultOp::DuplicateOn { prob: 0.5 }, &mut alive, 1);
        assert_eq!(af.duplicate_prob, 0.5);
        af.apply(&FaultOp::DuplicateOff, &mut alive, 1);
        assert_eq!(af.duplicate_prob, 0.0);
        af.apply(
            &FaultOp::ReorderOn {
                window: SimTime(9),
                prob: 1.0,
            },
            &mut alive,
            1,
        );
        assert_eq!(af.reorder_window, SimTime(9));
        af.apply(&FaultOp::ReorderOff, &mut alive, 1);
        assert_eq!(af.reorder_prob, 0.0);
    }

    #[test]
    #[should_panic(expected = "empty duplication window")]
    fn degenerate_windows_rejected() {
        let _ = FaultPlan::new().duplicate_between(SimTime(5), SimTime(5), 0.1);
    }

    #[test]
    fn randomized_plans_are_pure_functions_of_seed() {
        let params = FaultPlanParams::for_network(9, SimTime::from_millis(500));
        for seed in 0..64 {
            assert_eq!(
                FaultPlan::randomized(&params, seed),
                FaultPlan::randomized(&params, seed),
                "seed {seed} must replay identically"
            );
        }
        // Sensitivity: across a window of seeds the plans are not all
        // equal (any single pair may collide on an empty plan).
        let distinct: std::collections::BTreeSet<usize> = (0..64)
            .map(|s| FaultPlan::randomized(&params, s).len())
            .collect();
        assert!(distinct.len() > 1, "seeds must actually vary the plan");
    }

    #[test]
    fn randomized_plans_respect_caps() {
        let horizon = SimTime::from_millis(300);
        let params = FaultPlanParams::for_network(5, horizon);
        for seed in 0..256 {
            let plan = FaultPlan::randomized(&params, seed);
            let crashes = plan.crashes();
            assert!(crashes.len() <= 3, "seed {seed}: crash cap is n - 2");
            let victims: std::collections::BTreeSet<u32> =
                crashes.iter().map(|&(_, n)| n.0).collect();
            assert_eq!(victims.len(), crashes.len(), "victims are distinct");
            for (t, op) in plan.sorted_ops() {
                assert!(
                    t <= SimTime(horizon.0 + horizon.0 / 2 + 2),
                    "seed {seed}: op beyond the horizon"
                );
                if let FaultOp::Partition(side) = op {
                    assert!(!side.is_empty() && side.len() < 5, "proper subset");
                }
            }
        }
    }

    #[test]
    fn storms_produce_simultaneous_crashes() {
        let params = FaultPlanParams {
            storm_prob: 1.0,
            max_crashes: 3,
            ..FaultPlanParams::for_network(8, SimTime::from_millis(200))
        };
        let storm_seed = (0..200)
            .find(|&s| FaultPlan::randomized(&params, s).crashes().len() >= 2)
            .expect("some seed yields a multi-crash plan");
        let crashes = FaultPlan::randomized(&params, storm_seed).crashes();
        let t0 = crashes[0].0;
        assert!(
            crashes.iter().all(|&(t, _)| t == t0),
            "storm collapses all crash times onto one instant"
        );
    }

    #[test]
    fn fast_clock_skew_never_scales_a_delay_to_zero() {
        // Regression: campaign seed 30 livelocked because a 2/3 clock
        // truncated a 1µs re-armed delay to 0, so the monitor's
        // deadline-chasing interval timer re-fired at the same instant
        // forever. The skew must round up.
        let mut faults = ActiveFaults::default();
        let mut alive = vec![true; 2];
        faults.apply(
            &FaultOp::TimerSkew {
                node: NodeId(1),
                num: 2,
                den: 3,
            },
            &mut alive,
            2,
        );
        assert_eq!(faults.timer_delay(NodeId(1), SimTime(1)), SimTime(1));
        assert_eq!(faults.timer_delay(NodeId(1), SimTime(3)), SimTime(2));
        assert_eq!(faults.timer_delay(NodeId(1), SimTime(0)), SimTime(0));
        // Exact multiples are untouched by the rounding.
        assert_eq!(faults.timer_delay(NodeId(1), SimTime(300)), SimTime(200));
    }

    #[test]
    fn crash_only_plans_carry_no_other_primitives() {
        let params = FaultPlanParams::for_network(6, SimTime::from_millis(200)).crash_only();
        for seed in 0..128 {
            for (_, op) in FaultPlan::randomized(&params, seed).sorted_ops() {
                assert!(
                    matches!(op, FaultOp::Crash(_) | FaultOp::Restart(_)),
                    "seed {seed}: unexpected op {op:?}"
                );
            }
        }
    }
}
