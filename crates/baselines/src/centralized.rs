//! The centralized repeated-detection algorithm \[12\] (Kshemkalyani,
//! IPL 2011) — the paper's primary comparator.

use ftscp_intervals::codec::encoded_interval_len;
use ftscp_intervals::{BankStats, InOrder, Interval, QueueBank, SlotId, Solution};
use ftscp_simnet::{
    Application, Ctx, NetMetrics, NodeId, SimConfig, SimTime, Simulation, TimerToken, Topology,
};
use ftscp_vclock::{OpCounter, ProcessId};
use ftscp_workload::Execution;
use std::collections::{BTreeMap, VecDeque};

/// In-memory centralized repeated detector: one queue per process at a
/// single sink, same sweep/solve/prune loop as the hierarchical nodes run
/// — but over all `n` processes at once.
#[derive(Debug)]
pub struct CentralizedDetector {
    bank: QueueBank,
    solutions: Vec<Solution>,
}

impl CentralizedDetector {
    /// A detector for `n` processes.
    pub fn new(n: usize) -> Self {
        CentralizedDetector {
            bank: QueueBank::new(n),
            solutions: Vec::new(),
        }
    }

    /// Installs a shared comparison counter.
    pub fn with_ops_counter(mut self, ops: OpCounter) -> Self {
        self.bank = self.bank.with_ops_counter(ops);
        self
    }

    /// Feeds a completed local interval (enqueued on its owner's queue).
    /// Returns the solutions this arrival released.
    pub fn feed(&mut self, interval: Interval) -> Vec<Solution> {
        let slot = SlotId(interval.source.0);
        let sols = self.bank.enqueue(slot, interval);
        self.solutions.extend(sols.iter().cloned());
        sols
    }

    /// All solutions found so far.
    pub fn solutions(&self) -> &[Solution] {
        &self.solutions
    }

    /// Queue statistics (space accounting at the sink).
    pub fn stats(&self) -> BankStats {
        self.bank.stats()
    }

    /// Comparison counter.
    pub fn ops(&self) -> &OpCounter {
        self.bank.ops()
    }
}

/// Per-node application: non-sink nodes ship every local interval to the
/// sink (the network routes it over multiple hops; the interval is the
/// whole message); the sink runs the detector, restoring per-source FIFO
/// order first.
pub struct CentralizedApp {
    me: ProcessId,
    sink: NodeId,
    schedule: VecDeque<(SimTime, Interval)>,
    /// Sink-only state.
    detector: Option<CentralizedDetector>,
    streams: BTreeMap<ProcessId, InOrder>,
    detections: Vec<(SimTime, Solution)>,
}

const TIMER_NEXT_INTERVAL: TimerToken = 1;

impl CentralizedApp {
    fn new(me: ProcessId, sink: NodeId, n: usize, schedule: Vec<(SimTime, Interval)>) -> Self {
        let is_sink = me == sink;
        CentralizedApp {
            me,
            sink,
            schedule: schedule.into(),
            detector: is_sink.then(|| CentralizedDetector::new(n)),
            streams: BTreeMap::new(),
            detections: Vec::new(),
        }
    }

    fn arm(&mut self, ctx: &mut Ctx<'_, Interval>) {
        if let Some(&(t, _)) = self.schedule.front() {
            ctx.set_timer(t.saturating_sub(ctx.now()), TIMER_NEXT_INTERVAL);
        }
    }

    fn sink_ingest(&mut self, now: SimTime, interval: Interval) {
        let ready = self
            .streams
            .entry(interval.source)
            .or_default()
            .accept(interval);
        let det = self.detector.as_mut().expect("sink only");
        for iv in ready {
            for sol in det.feed(iv) {
                self.detections.push((now, sol));
            }
        }
    }
}

impl Application for CentralizedApp {
    type Msg = Interval;

    fn on_init(&mut self, ctx: &mut Ctx<'_, Interval>) {
        self.arm(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Interval>, token: TimerToken) {
        if token != TIMER_NEXT_INTERVAL {
            return;
        }
        while let Some(&(t, _)) = self.schedule.front() {
            if t > ctx.now() {
                break;
            }
            let (_, interval) = self.schedule.pop_front().expect("peeked");
            if self.me == self.sink {
                let now = ctx.now();
                self.sink_ingest(now, interval);
            } else {
                ctx.send(self.sink, interval);
            }
        }
        self.arm(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Interval>, _from: NodeId, interval: Interval) {
        let now = ctx.now();
        self.sink_ingest(now, interval);
    }

    fn msg_size(interval: &Interval) -> usize {
        8 + encoded_interval_len(interval)
    }
}

/// The centralized deployment: the comparator measured in Figures 4–5.
pub struct CentralizedDeployment {
    sim: Simulation<CentralizedApp>,
    sink: NodeId,
    end_of_schedule: SimTime,
}

impl CentralizedDeployment {
    /// Builds the deployment; `sink` collects everything. Interval timing
    /// mirrors `ftscp_core::deploy::Deployment`: completion order spacing.
    pub fn new(
        topology: Topology,
        sink: NodeId,
        exec: &Execution,
        sim_config: SimConfig,
        interval_spacing: SimTime,
    ) -> Self {
        let n = topology.len();
        assert_eq!(n, exec.n);
        let mut schedules: Vec<Vec<(SimTime, Interval)>> = vec![Vec::new(); n];
        let mut t = SimTime::ZERO;
        for (p, seq) in &exec.completion_order {
            t += interval_spacing;
            schedules[p.index()].push((t, exec.intervals[p.index()][*seq as usize].clone()));
        }
        let apps: Vec<CentralizedApp> = (0..n)
            .map(|i| {
                CentralizedApp::new(
                    ProcessId(i as u32),
                    sink,
                    n,
                    std::mem::take(&mut schedules[i]),
                )
            })
            .collect();
        let sim = Simulation::new(topology, apps, sim_config);
        CentralizedDeployment {
            sim,
            sink,
            end_of_schedule: t,
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) {
        self.sim
            .run_until(self.end_of_schedule + SimTime::from_secs(60));
        self.sim.run_to_quiescence(50_000_000);
    }

    /// Solutions detected at the sink, in order.
    pub fn detections(&self) -> Vec<(SimTime, Solution)> {
        self.sim.app(self.sink).detections.clone()
    }

    /// Network accounting (hop-weighted counts — the paper's Eq. (14)
    /// comparison).
    pub fn metrics(&self) -> &NetMetrics {
        self.sim.metrics()
    }

    /// Simulator events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.sim.events_processed()
    }

    /// Sink-side queue statistics.
    pub fn sink_stats(&self) -> BankStats {
        self.sim
            .app(self.sink)
            .detector
            .as_ref()
            .expect("sink has detector")
            .stats()
    }

    /// Sink-side comparison count (time cost at the sink).
    pub fn sink_ops(&self) -> u64 {
        self.sim
            .app(self.sink)
            .detector
            .as_ref()
            .expect("sink has detector")
            .ops()
            .get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::VectorClock;
    use ftscp_workload::RandomExecution;

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    #[test]
    fn in_memory_centralized_detects_overlap() {
        let mut det = CentralizedDetector::new(2);
        assert!(det.feed(iv(0, 0, &[1, 0], &[4, 3])).is_empty());
        let sols = det.feed(iv(1, 0, &[2, 1], &[3, 4]));
        assert_eq!(sols.len(), 1);
        assert_eq!(det.solutions().len(), 1);
    }

    #[test]
    fn repeated_detection_at_the_sink() {
        let exec = RandomExecution::builder(5)
            .intervals_per_process(6)
            .seed(4)
            .build();
        let mut det = CentralizedDetector::new(5);
        for iv in exec.intervals_interleaved() {
            det.feed(iv.clone());
        }
        assert_eq!(det.solutions().len(), 6, "one solution per clean round");
        for s in det.solutions() {
            assert!(s.is_valid());
            assert_eq!(s.intervals.len(), 5);
        }
    }

    #[test]
    fn networked_centralized_matches_in_memory() {
        let exec = RandomExecution::builder(7)
            .intervals_per_process(5)
            .skip_prob(0.2)
            .seed(9)
            .build();
        let mut reference = CentralizedDetector::new(7);
        for iv in exec.intervals_interleaved() {
            reference.feed(iv.clone());
        }

        let topo = Topology::dary_tree(7, 2, 0);
        let mut dep = CentralizedDeployment::new(
            topo,
            NodeId(0),
            &exec,
            SimConfig::default(),
            SimTime::from_millis(5),
        );
        dep.run();
        let got: Vec<Vec<_>> = dep.detections().iter().map(|(_, s)| s.coverage()).collect();
        let want: Vec<Vec<_>> = reference.solutions().iter().map(|s| s.coverage()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn multi_hop_shipping_is_hop_weighted() {
        // 4-node line, sink at one end: process i ships over i hops.
        let exec = RandomExecution::builder(4)
            .intervals_per_process(1)
            .seed(1)
            .build();
        let topo = Topology::line(4);
        let mut dep = CentralizedDeployment::new(
            topo,
            NodeId(0),
            &exec,
            SimConfig::default(),
            SimTime::from_millis(5),
        );
        dep.run();
        // Processes 1, 2, 3 send one interval each over 1+2+3 hops.
        assert_eq!(dep.metrics().sends, 3);
        assert_eq!(dep.metrics().hop_messages, 6);
    }
}
