//! [`Deployment`] — the full distributed system on the simulated network.
//!
//! Wires one [`crate::monitor::MonitorApp`] per node onto an
//! [`ftscp_simnet::Simulation`], schedules each process's local intervals
//! at simulated times, injects crash-stop failures, and performs the
//! spanning-tree repair the paper assumes as a substrate (§III-F): after a
//! failure is detected (heartbeat timeout), the maintenance service
//! computes the repaired tree ([`repair_plan`]) and applies its
//! [`RepairStep`]s to the affected monitors by call — no message carries
//! them.

use crate::membership::{repair_plan, RepairStep};
use crate::monitor::{MonitorApp, MonitorConfig};
use crate::report::GlobalDetection;
use ftscp_intervals::Interval;
use ftscp_simnet::{FaultOp, FaultPlan, NetMetrics, SimConfig, SimTime, Simulation, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;

/// How failures are *detected* (repair itself is always the maintenance
/// service's tree surgery).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// The harness repairs at `crash_time + repair_delay` (deterministic,
    /// used by the measurement experiments).
    #[default]
    Scheduled,
    /// Repairs trigger from the monitors' own heartbeat timeouts: the
    /// simulation advances in slices, and when a dead node's tree parent
    /// stops hearing its heartbeats for `repair_delay`, the maintenance
    /// service repairs. No clairvoyance about crash times — the faithful
    /// §III-F mode. Requires heartbeats to be enabled.
    HeartbeatDriven,
}

/// Deployment parameters.
#[derive(Clone, Copy, Debug)]
pub struct DeployConfig {
    /// Simulation seed and link model.
    pub sim: SimConfig,
    /// Spacing between successive interval completions in the global
    /// completion order.
    pub interval_spacing: SimTime,
    /// Monitor options (heartbeats).
    pub monitor: MonitorConfig,
    /// Delay between a crash and the completion of failure detection +
    /// tree repair (models heartbeat timeout + repair protocol). In
    /// [`RepairMode::HeartbeatDriven`] this is the heartbeat timeout.
    pub repair_delay: SimTime,
    /// Failure-detection mode.
    pub repair_mode: RepairMode,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            sim: SimConfig::default(),
            interval_spacing: SimTime::from_millis(10),
            monitor: MonitorConfig::default(),
            repair_delay: SimTime::from_millis(120),
            repair_mode: RepairMode::Scheduled,
        }
    }
}

/// A running deployment.
pub struct Deployment {
    sim: Simulation<MonitorApp>,
    tree: SpanningTree,
    topology: Topology,
    /// Pending crash events (time, node), sorted ascending.
    crash_plan: Vec<(SimTime, ProcessId)>,
    /// Pending recovery events (time, node), sorted ascending.
    recovery_plan: Vec<(SimTime, ProcessId)>,
    /// Orphan subtree roots partitioned by earlier (possibly overlapping)
    /// failures, retried at every subsequent repair.
    pending_orphans: Vec<ProcessId>,
    config: DeployConfig,
    end_of_schedule: SimTime,
}

impl Deployment {
    /// Builds the deployment: every interval of `exec` completes at its
    /// position in the global completion order times `interval_spacing`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not a subgraph of the topology (parent links
    /// must be single-hop) or sizes disagree.
    pub fn new(
        topology: Topology,
        tree: SpanningTree,
        exec: &Execution,
        config: DeployConfig,
    ) -> Self {
        assert_eq!(topology.len(), exec.n, "topology/execution size mismatch");
        assert!(
            tree.is_subgraph_of(&topology),
            "tree edges must be topology edges"
        );
        let n = topology.len();

        // Assign completion times in global completion order.
        let mut schedules: Vec<Vec<(SimTime, Interval)>> = vec![Vec::new(); n];
        let mut t = SimTime::ZERO;
        for (p, seq) in &exec.completion_order {
            t += config.interval_spacing;
            let iv = exec.intervals[p.index()][*seq as usize].clone();
            schedules[p.index()].push((t, iv));
        }
        let end_of_schedule = t;

        // Heartbeat-driven mode is decentralized: every monitor runs its
        // own failure detector and the adoption handshake, with the
        // repair delay as the suspicion timeout. Scheduled mode leaves
        // repair to the clairvoyant maintenance service.
        let mut monitor_cfg = config.monitor;
        if config.repair_mode == RepairMode::HeartbeatDriven {
            monitor_cfg.suspect_timeout = Some(config.repair_delay);
        }

        let height = tree.height();
        let apps: Vec<MonitorApp> = ProcessId::all(n)
            .map(|node| {
                let level = (height - tree.depth(node)) as u32;
                MonitorApp::new(
                    node,
                    tree.parent(node),
                    tree.children(node),
                    level,
                    std::mem::take(&mut schedules[node.index()]),
                    monitor_cfg,
                )
            })
            .collect();

        let sim = Simulation::new(topology.clone(), apps, config.sim);
        Deployment {
            sim,
            tree,
            topology,
            crash_plan: Vec::new(),
            recovery_plan: Vec::new(),
            pending_orphans: Vec::new(),
            config,
            end_of_schedule,
        }
    }

    /// Schedules `node` to crash-stop at `at`.
    pub fn schedule_crash(&mut self, node: ProcessId, at: SimTime) {
        self.sim.schedule_crash(node, at);
        self.crash_plan.push((at, node));
        self.crash_plan.sort_by_key(|&(t, _)| t);
    }

    /// Schedules `node` to reboot from its stable checkpoint at `at`
    /// (crash-**recovery**; requires the monitors to have been built with
    /// checkpointing — see [`Deployment::enable_checkpointing`]). The node
    /// rejoins the tree as a leaf under an alive topology neighbor.
    pub fn schedule_recovery(&mut self, node: ProcessId, at: SimTime) {
        self.recovery_plan.push((at, node));
        self.recovery_plan.sort_by_key(|&(t, _)| t);
    }

    /// Installs a [`FaultPlan`] across both layers of the deployment:
    /// `Crash` operations become scheduled crash-stops (with maintenance
    /// tree repair), `Restart` operations become scheduled recoveries
    /// (checkpoint reboot + leaf rejoin — enable checkpointing first for
    /// state to survive), and every remaining operation (partitions,
    /// duplication, reordering, timer skew) is installed directly into the
    /// network simulation. Like the simulator-level plan, this draws no
    /// randomness: `(deployment config, seed, plan)` replays identically.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        let mut residual = FaultPlan::new();
        for (at, op) in plan.sorted_ops() {
            match op {
                FaultOp::Crash(node) => self.schedule_crash(node, at),
                FaultOp::Restart(node) => self.schedule_recovery(node, at),
                other => residual = residual.op_at(at, other),
            }
        }
        if !residual.is_empty() {
            self.sim.apply_fault_plan(&residual);
        }
    }

    /// Enables write-through engine checkpointing on every node (stable
    /// storage for crash-recovery).
    pub fn enable_checkpointing(&mut self) {
        for node in ProcessId::all(self.sim.len()) {
            self.sim
                .with_app_ctx(node, |app, _ctx| app.enable_checkpointing());
        }
    }

    /// Runs the deployment to completion: all scheduled intervals fire,
    /// failures are repaired, recoveries rejoin, and the network drains.
    pub fn run(&mut self) {
        if self.config.repair_mode == RepairMode::HeartbeatDriven {
            self.run_heartbeat_driven();
            return;
        }
        enum Action {
            Repair(ProcessId),
            Recover(ProcessId),
        }
        let mut actions: Vec<(SimTime, Action)> = std::mem::take(&mut self.crash_plan)
            .into_iter()
            .map(|(t, n)| (t + self.config.repair_delay, Action::Repair(n)))
            .chain(
                std::mem::take(&mut self.recovery_plan)
                    .into_iter()
                    .map(|(t, n)| (t, Action::Recover(n))),
            )
            .collect();
        actions.sort_by_key(|&(t, _)| t);
        for (at, action) in actions {
            self.sim.run_until(at);
            match action {
                Action::Repair(node) => self.repair(node),
                Action::Recover(node) => self.recover(node),
            }
        }
        // Drain the schedules and all in-flight messages. Heartbeats
        // re-arm forever, so the run is bounded by time, not quiescence:
        // the slack comfortably exceeds any in-flight delay.
        let deadline = self.end_of_schedule + SimTime::from_secs(10);
        self.sim.run_until(deadline);
    }

    /// Heartbeat-driven run loop — a *thin driver*: failure detection and
    /// repair run inside the monitors themselves (suspicion timers, the
    /// grandparent-adoption handshake, re-reports — see
    /// [`crate::membership`]); this loop only advances simulated time,
    /// honors the recovery schedule, and keeps the harness's tree
    /// *mirror* in sync with what the monitors decided, so observers
    /// ([`Deployment::tree`]) and the recovery path keep working.
    fn run_heartbeat_driven(&mut self) {
        assert!(
            self.config.monitor.heartbeat_period.is_some(),
            "HeartbeatDriven repair requires heartbeats"
        );
        let timeout = self.config.repair_delay;
        let slice = SimTime(timeout.0.max(2) / 2);
        let deadline = self.end_of_schedule + SimTime::from_secs(10);
        let mut recoveries = std::mem::take(&mut self.recovery_plan);
        recoveries.sort_by_key(|&(t, _)| t);
        let mut next_recovery = 0usize;
        let mut t = SimTime::ZERO;
        while t < deadline {
            t = (t + slice).min(deadline);
            self.sim.run_until(t);
            self.sync_tree_mirror();
            while next_recovery < recoveries.len() && recoveries[next_recovery].0 <= t {
                let (_, node) = recoveries[next_recovery];
                next_recovery += 1;
                self.recover(node);
            }
        }
        self.sync_tree_mirror();
    }

    /// Rebuilds the harness's tree view from the monitors' own parent
    /// pointers (decentralized repair moves edges without telling the
    /// harness). Dead nodes and not-yet-adopted orphan subtrees are out
    /// of the view; if no root is currently claimed (the root itself
    /// died), the last known view is kept.
    fn sync_tree_mirror(&mut self) {
        let members: Vec<(ProcessId, Option<ProcessId>)> = ProcessId::all(self.sim.len())
            .filter(|&n| self.sim.is_alive(n))
            .map(|n| (n, self.sim.app(n).parent()))
            .collect();
        let root = members
            .iter()
            .find(|&&(n, p)| p.is_none() && self.sim.app(n).engine().is_root())
            .map(|&(n, _)| n);
        if let Some(root) = root {
            self.tree = SpanningTree::from_membership(&members, self.sim.len(), root);
        }
    }

    /// The tree-maintenance service: repairs the spanning tree after
    /// `failed` crashed and applies the plan to the survivors.
    fn repair(&mut self, failed: ProcessId) {
        let alive = self.sim.alive().to_vec();
        let sim = &self.sim;
        let plan = repair_plan(
            &mut self.tree,
            &mut self.pending_orphans,
            failed,
            &self.topology,
            &alive,
            |n| sim.app(n).engine().children(),
        );
        self.apply(plan);
    }

    /// Applies repair steps in order, now; a step for a node that is down
    /// is dropped. Callers have run the simulation up to now, so no event
    /// due at this instant is still pending and the steps take effect
    /// before anything that happens later.
    fn apply(&mut self, plan: Vec<(ProcessId, RepairStep)>) {
        for (node, step) in plan {
            self.sim
                .with_app_ctx(node, |app, ctx| app.apply_repair(step, ctx));
        }
    }

    /// The recovery path of the maintenance service: revive the node,
    /// reboot its monitor from stable storage, and rejoin it as a leaf.
    fn recover(&mut self, node: ProcessId) {
        if self.sim.is_alive(node) || self.tree.contains(node) {
            return; // never crashed, or already back
        }
        // Find an adopter first; without one the node stays down.
        let adopter = self
            .topology
            .neighbors(node)
            .iter()
            .copied()
            .find(|&nb| self.tree.contains(nb) && self.sim.is_alive(nb));
        let Some(parent) = adopter else { return };

        self.sim.revive(node);
        let mut rebooted = false;
        self.sim.with_app_ctx(node, |app, ctx| {
            rebooted = app.reboot_from_checkpoint(ctx);
        });
        if !rebooted {
            // No stable storage: leave the node revived but detached (it
            // can still be adopted manually); do not rejoin the tree with
            // inconsistent volatile state.
            return;
        }
        self.tree.rejoin_leaf(node, parent);
        self.apply(vec![
            (parent, RepairStep::AddChild(node)),
            (node, RepairStep::SetParent(Some(parent))),
        ]);
    }

    /// All detections recorded anywhere in the network (roots past and
    /// present), sorted by time.
    ///
    /// This *observer* view includes logs of nodes that later crashed —
    /// convenient for analysis, though a real consumer would only see
    /// live roots' reports. Combined with failover re-publication,
    /// detection delivery across failures is at-least-once; consumers
    /// needing exactly-once should dedup by coverage.
    pub fn detections(&self) -> Vec<GlobalDetection> {
        let mut all: Vec<GlobalDetection> = self
            .sim
            .apps()
            .iter()
            .flat_map(|a| a.detections().iter().cloned())
            .collect();
        all.sort_by_key(|d| d.time);
        all
    }

    /// Network metrics (hop-weighted message counts etc.).
    pub fn metrics(&self) -> &NetMetrics {
        self.sim.metrics()
    }

    /// Simulator events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// The most simulator events (messages in flight plus armed timers)
    /// that were ever pending at once — the simulated network's queue
    /// depth; [`peak_queue_len`](Self::peak_queue_len) is the banks'.
    pub fn peak_pending_events(&self) -> usize {
        self.sim.peak_pending_events()
    }

    /// Interval messages sent network-wide (the paper's message count).
    pub fn interval_messages(&self) -> u64 {
        self.sim.apps().iter().map(|a| a.interval_msgs_sent()).sum()
    }

    /// The current (possibly repaired) spanning tree.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// Access to a node's monitor.
    pub fn app(&self, node: ProcessId) -> &MonitorApp {
        self.sim.app(node)
    }

    /// True iff `node`'s monitor is currently up.
    pub fn is_alive(&self, node: ProcessId) -> bool {
        self.sim.is_alive(node)
    }

    /// Number of nodes in the deployment.
    pub fn len(&self) -> usize {
        self.sim.len()
    }

    /// True iff the deployment has zero nodes.
    pub fn is_empty(&self) -> bool {
        self.sim.is_empty()
    }

    /// Peak intervals resident at any single node (space accounting).
    pub fn peak_queue_len(&self) -> usize {
        self.sim
            .apps()
            .iter()
            .map(|a| a.engine().bank_stats().peak_queue_len)
            .max()
            .unwrap_or(0)
    }

    /// Sum over nodes of peak resident intervals (global space bound).
    pub fn total_peak_resident(&self) -> usize {
        self.sim
            .apps()
            .iter()
            .map(|a| a.engine().bank_stats().peak_resident)
            .sum()
    }
}
