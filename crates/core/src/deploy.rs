//! [`Deployment`] — the full distributed system on the simulated network.
//!
//! Wires one [`crate::monitor::MonitorApp`] per node onto an
//! [`ftscp_simnet::Simulation`], schedules each process's local intervals
//! at simulated times, injects crash-stop failures and restarts, and
//! otherwise stays out of the way: every monitor runs its own failure
//! detector with `repair_delay` as the suspicion timeout, and the tree
//! repairs itself through the adoption handshake a TCP node runs too
//! ([`crate::membership`]) — orphans climb their ancestor ladder, a dead
//! root's heir promotes itself, and a node cut off from every rung roots
//! its subtree and re-knocks its lost parent. The harness only advances
//! time, keeps a mirror of the tree the monitors built, and picks a
//! restarted node's adopter.

use crate::membership::rejoin_adopter;
use crate::monitor::{MonitorApp, MonitorConfig};
use crate::report::GlobalDetection;
use crate::transport::MonitorCore;
use ftscp_intervals::Interval;
use ftscp_simnet::{FaultOp, FaultPlan, NetMetrics, SimConfig, SimTime, Simulation, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;

/// How failures are repaired: by the monitors' own protocol, the only
/// way there is. A one-value type, kept because existing
/// [`DeployConfig`] literals name it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum RepairMode {
    /// The monitors' heartbeat timeouts drive the adoption handshake, with
    /// `repair_delay` as the suspicion timeout — the §III-F protocol.
    #[default]
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
    /// Monitor options (heartbeats). Without heartbeats there is no
    /// failure detector: a crash is never repaired.
    pub monitor: MonitorConfig,
    /// The suspicion timeout: a tree peer silent for longer is presumed
    /// dead. Must exceed the heartbeat period, or every peer is suspected.
    pub repair_delay: SimTime,
    /// Repair mode; [`RepairMode::HeartbeatDriven`] is its only value.
    pub repair_mode: RepairMode,
}

impl Default for DeployConfig {
    fn default() -> Self {
        DeployConfig {
            sim: SimConfig::default(),
            interval_spacing: SimTime::from_millis(10),
            monitor: MonitorConfig::default(),
            repair_delay: SimTime::from_millis(120),
            repair_mode: RepairMode::HeartbeatDriven,
        }
    }
}

/// A running deployment.
pub struct Deployment {
    sim: Simulation<MonitorApp>,
    tree: SpanningTree,
    topology: Topology,
    /// Pending recovery events (time, node), sorted ascending.
    recovery_plan: Vec<(SimTime, ProcessId)>,
    end_of_schedule: SimTime,
}

impl Deployment {
    /// Builds the deployment: every interval of `exec` completes at its
    /// position in the global completion order times `interval_spacing`.
    ///
    /// # Panics
    ///
    /// Panics if the tree is not a subgraph of the topology (parent links
    /// must be single-hop), sizes disagree, or heartbeats are on with a
    /// `repair_delay` no longer than their period.
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
        if let Some(period) = config.monitor.heartbeat_period {
            assert!(
                config.repair_delay > period,
                "repair_delay {:?} must exceed the heartbeat period {:?}",
                config.repair_delay,
                period
            );
        }
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

        // Every monitor runs its own failure detector, with the repair
        // delay as the suspicion timeout.
        let monitor_cfg = MonitorConfig {
            suspect_timeout: Some(config.repair_delay),
            ..config.monitor
        };

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
            recovery_plan: Vec::new(),
            end_of_schedule,
        }
    }

    /// Schedules `node` to crash-stop at `at`.
    pub fn schedule_crash(&mut self, node: ProcessId, at: SimTime) {
        self.sim.schedule_crash(node, at);
    }

    /// Schedules `node` to reboot at `at` (crash-**recovery**): its monitor
    /// comes back with the detector state its crash froze
    /// ([`MonitorCore::reboot`]) and rejoins as a leaf through the adoption
    /// handshake ([`MonitorCore::rejoin`]) under its first live topology
    /// neighbour in the tree. A node the tree still holds at `at` is left
    /// alone, and one with no live neighbour in the tree stays down.
    pub fn schedule_recovery(&mut self, node: ProcessId, at: SimTime) {
        self.recovery_plan.push((at, node));
        self.recovery_plan.sort_by_key(|&(t, _)| t);
    }

    /// Installs a [`FaultPlan`] across both layers of the deployment:
    /// `Crash` operations become scheduled crash-stops, `Restart`
    /// operations become scheduled recoveries (reboot + leaf rejoin, see
    /// [`schedule_recovery`](Self::schedule_recovery)), and
    /// every remaining operation (partitions, duplication, reordering,
    /// timer skew) is installed directly into the network simulation. Like the simulator-level plan, this draws no
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

    /// Runs the deployment to completion: all scheduled intervals fire,
    /// the monitors repair around failures, recoveries rejoin, and the
    /// network drains. The loop only advances simulated time to each
    /// recovery and then to the end, bringing the harness's tree *mirror*
    /// in step with what the monitors decided wherever it is read: by the
    /// recovery path, and by observers ([`Deployment::tree`]) after the
    /// run. Heartbeats re-arm forever, so the run is bounded by time, not
    /// quiescence: the slack comfortably exceeds any repair and any
    /// in-flight delay.
    pub fn run(&mut self) {
        for (at, node) in std::mem::take(&mut self.recovery_plan) {
            self.sim.run_until(at);
            self.sync_tree_mirror();
            self.recover(node);
        }
        let end = self.end_of_schedule + SimTime::from_secs(10);
        self.sim.run_until(end);
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
            .map(|n| (n, self.app(n).parent()))
            .collect();
        let root = members
            .iter()
            .find(|&&(n, p)| p.is_none() && self.app(n).engine().is_root())
            .map(|&(n, _)| n);
        if let Some(root) = root {
            self.tree = SpanningTree::from_membership(&members, self.sim.len(), root);
        }
    }

    /// A scheduled restart: pick the adopter, revive the node, reboot its
    /// monitor (which knocks on the adopter) and mirror the rejoin in the
    /// harness's tree. The handshake does the rest.
    fn recover(&mut self, node: ProcessId) {
        // Never crashed, or still held by the tree: a node does not come
        // back with inconsistent state.
        if self.sim.is_alive(node) || self.tree.contains(node) {
            return;
        }
        // Find an adopter first; without one the node stays down.
        let adopter = rejoin_adopter(node, &self.topology, &self.tree, |nb| self.sim.is_alive(nb));
        let Some(adopter) = adopter else { return };

        self.sim.revive(node);
        self.sim.with_app_ctx(node, |app, ctx| {
            app.reboot(adopter, ctx);
        });
        self.tree.rejoin_leaf(node, adopter);
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
            .cores()
            .flat_map(|c| c.detections().iter().cloned())
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
        self.cores().map(MonitorCore::interval_msgs_sent).sum()
    }

    /// The current (possibly repaired) spanning tree.
    pub fn tree(&self) -> &SpanningTree {
        &self.tree
    }

    /// A node's monitor: its engine, parent, membership view and counters.
    pub fn app(&self, node: ProcessId) -> &MonitorCore {
        self.sim.app(node).core()
    }

    /// Every node's monitor, dead or alive, by id.
    fn cores(&self) -> impl Iterator<Item = &MonitorCore> {
        self.sim.apps().iter().map(MonitorApp::core)
    }

    /// Local intervals `node` has not observed yet (its schedule remainder).
    pub(crate) fn pending_schedule_len(&self, node: ProcessId) -> usize {
        self.sim.app(node).pending_schedule_len()
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
        self.cores()
            .map(|c| c.engine().bank_stats().peak_queue_len)
            .max()
            .unwrap_or(0)
    }

    /// Sum over nodes of peak resident intervals (global space bound).
    pub fn total_peak_resident(&self) -> usize {
        self.cores()
            .map(|c| c.engine().bank_stats().peak_resident)
            .sum()
    }
}
