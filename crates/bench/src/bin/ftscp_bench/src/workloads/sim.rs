//! `sim_crash`: the paper's headline (§III-F) in deterministic sim-time.
//!
//! A 256-node deployment on `simnet` loses an internal node mid-run; the
//! survivors suspect it by heartbeat timeout, the orphans adopt their
//! grandparent and re-report. Latency, stall and recovery are sim-time
//! and ignore the CPU entirely; only the wall time of `Deployment::run`
//! (and so `intervals_per_s`) sees `simnet` and `MonitorCore` speed.

use super::{
    build_execution, quartile_pass, overhead_pct, repeat_setup, solution_seq, tail, timed_passes,
    Outcome, RunCfg, SolutionSeq,
};
use crate::replay;
use crate::trace::Tracer;
use ftscp_core::deploy::{DeployConfig, Deployment, RepairMode};
use ftscp_core::monitor::MonitorConfig;
use ftscp_core::{faultcheck, GlobalDetection};
use ftscp_intervals::Interval;
use ftscp_simnet::{LinkModel, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;
use std::collections::BTreeMap;
use std::time::Instant;

const N: usize = 256;
const DEGREE: usize = 4;
const ROUNDS: usize = 200;
const SPACING_US: u64 = 100;
/// Parent of four leaves, child of a child of the root.
const CRASHED: ProcessId = ProcessId(5);

/// 0.4 of the schedule plus an offset that keeps the crash off every
/// interval-completion and heartbeat tick.
fn crash_time() -> SimTime {
    let schedule_us = (N * ROUNDS) as u64 * SPACING_US;
    SimTime(schedule_us * 2 / 5 + 1234)
}

fn deploy_config(seed: u64) -> DeployConfig {
    DeployConfig {
        sim: SimConfig {
            seed,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        interval_spacing: SimTime(SPACING_US),
        monitor: MonitorConfig {
            heartbeat_period: Some(SimTime::from_millis(20)),
            retransmit_period: Some(SimTime::from_millis(25)),
            ..MonitorConfig::default()
        },
        repair_delay: SimTime::from_millis(120),
        repair_mode: RepairMode::HeartbeatDriven,
    }
}

/// Sim-time latency of every detection: its time minus the completion
/// time of the latest-completing local interval it covers, where the
/// interval at position `k` of `completion_order` completes at
/// `(k + 1) × spacing` — the schedule `Deployment::new` builds.
pub fn sim_latencies_us(
    completion_order: &[(ProcessId, u64)],
    spacing_us: u64,
    detections: &[GlobalDetection],
) -> Vec<u64> {
    let completes: BTreeMap<(ProcessId, u64), u64> = completion_order
        .iter()
        .enumerate()
        .map(|(k, &key)| (key, (k as u64 + 1) * spacing_us))
        .collect();
    detections
        .iter()
        .map(|d| {
            let last = d
                .coverage
                .iter()
                .map(|r| completes[&(r.process, r.seq)])
                .max()
                .expect("a detection covers at least one interval");
            d.time.as_micros().saturating_sub(last)
        })
        .collect()
}

struct Prepared {
    exec: Execution,
    topology: Topology,
    tree: SpanningTree,
    tree_build_us: f64,
    workload_build_s: f64,
}

fn prepare(seed: u64) -> Prepared {
    let t0 = Instant::now();
    let exec = build_execution(N, ROUNDS, 0.0, 0.0, seed);
    let workload_build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let tree = SpanningTree::balanced_dary(N, DEGREE);
    let tree_build_us = t0.elapsed().as_secs_f64() * 1e6;
    Prepared {
        exec,
        topology: Topology::dary_tree(N, DEGREE, 1),
        tree,
        tree_build_us,
        workload_build_s,
    }
}

/// One pass: build the deployment (untimed), schedule the crash, and time
/// `run`. The deployment comes back for the checks.
fn pass(prep: &Prepared, seed: u64, tracer: &mut Tracer) -> (f64, Deployment) {
    let mut dep = tracer.span("core.deploy.new", 0, |_| {
        Deployment::new(
            prep.topology.clone(),
            prep.tree.clone(),
            &prep.exec,
            deploy_config(seed),
        )
    });
    dep.schedule_crash(CRASHED, crash_time());
    let t0 = Instant::now();
    tracer.span("core.deploy.run", 0, |_| dep.run());
    (t0.elapsed().as_secs_f64(), dep)
}

/// Everything sim-time about a finished deployment; identical on every
/// pass of one seed, so the checks run on the first pass and later passes
/// only have to equal it.
#[derive(PartialEq, Debug)]
struct SimNumbers {
    /// When and what every detection was.
    times_us: Vec<u64>,
    solutions: SolutionSeq,
    latencies: Vec<u64>,
    recovery_us: Option<u64>,
    hop_bytes: u64,
    interval_messages: u64,
    total_peak_resident: usize,
}

fn numbers_of(prep: &Prepared, dep: &Deployment) -> (SimNumbers, Vec<GlobalDetection>) {
    let dets = dep.detections();
    let crash = crash_time();
    let n = SimNumbers {
        times_us: dets.iter().map(|d| d.time.as_micros()).collect(),
        solutions: solution_seq(&dets),
        latencies: sim_latencies_us(&prep.exec.completion_order, SPACING_US, &dets),
        recovery_us: dets
            .iter()
            .find(|d| d.time >= crash && !d.covered_processes().contains(&CRASHED))
            .map(|d| d.time.as_micros() - crash.as_micros()),
        hop_bytes: dep.metrics().hop_bytes,
        interval_messages: dep.interval_messages(),
        total_peak_resident: dep.total_peak_resident(),
    };
    (n, dets)
}

fn verify(prep: &Prepared, dets: &[GlobalDetection], recovered: bool, out: &mut Outcome) {
    let errors = faultcheck::verify_detections(&prep.exec, dets);
    out.checks
        .tally(dets.len() as u64, errors.len() as u64, || {
            format!("verify_detections: {}", errors[0])
        });
    // Every round is detected: each seq shows up in some coverage.
    let mut seen = [false; ROUNDS];
    for r in dets.iter().flat_map(|d| &d.coverage) {
        seen[r.seq as usize] = true;
    }
    let missing = seen.iter().filter(|s| !**s).count() as u64;
    out.checks.tally(ROUNDS as u64, missing, || {
        format!("{missing} rounds were never detected")
    });
    // Before the crash nothing is missing from any detection.
    let crash = crash_time();
    let before = dets.iter().filter(|d| d.time < crash).count() as u64;
    let narrow = dets
        .iter()
        .filter(|d| d.time < crash && d.covered_processes().len() != N)
        .count() as u64;
    out.checks
        .tally(before.max(1), narrow + u64::from(before == 0), || {
            format!("{narrow} of {before} pre-crash detections do not cover all {N} processes")
        });
    out.checks.check(recovered, || {
        "no detection without the crashed process after the crash".into()
    });
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (prep, setup_s) = repeat_setup(|| Ok(prepare(cfg.seed)))?;
    let intervals = prep.exec.total_intervals() as f64;

    let mut off = Tracer::new(false, Instant::now());
    let mut last = None;
    let passes = timed_passes(cfg.pass_budget(), 3, |_| {
        let (wall, dep) = pass(&prep, cfg.seed, &mut off);
        let (n, dets) = numbers_of(&prep, &dep);
        last = Some((dep, dets));
        Ok((wall, n))
    })?;
    let (dep, dets) = last.expect("at least one pass ran");
    let numbers = &passes[0].1;
    verify(&prep, &dets, numbers.recovery_us.is_some(), &mut out);
    for (_, n) in &passes[1..] {
        out.checks.check(n == numbers, || {
            "sim-time numbers differ between passes".into()
        });
    }
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let wall = passes[quartile_pass(&passes)].0;

    out.set("intervals_per_s", intervals / wall);
    let latencies: Vec<f64> = numbers.latencies.iter().map(|&us| us as f64).collect();
    let lat = tail(&latencies, latencies.len());
    // The end-to-end latency of this workload is in sim-µs: it moves with
    // protocol changes (timers, adoption, acks), never with the CPU.
    out.set("detect_lat_p50_us", lat.p50);
    out.set("tail.detect_lat_p90_us", lat.p90);
    out.set("sim_detect_lat_p50_us", lat.p50);
    out.set("sim_detect_lat_p90_us", lat.p90);
    out.set("tail.sim_detect_lat_p99_us", lat.p99);
    out.set("tail.sim_detect_lat_max_us", lat.max);
    out.set("sim_recovery_us", numbers.recovery_us.unwrap_or(0) as f64);
    out.set(
        "wire_bytes_per_interval",
        numbers.hop_bytes as f64 / intervals,
    );
    out.set(
        "msgs_per_interval",
        numbers.interval_messages as f64 / intervals,
    );
    out.set(
        "peak_resident_intervals",
        numbers.total_peak_resident as f64,
    );
    out.set("tree.build_us", prep.tree_build_us);
    out.set("workload.build_s", prep.workload_build_s);

    let m = dep.metrics();
    out.set("simnet.sends", m.sends as f64);
    out.set("simnet.delivered", m.delivered as f64);
    out.set("simnet.hop_messages", m.hop_messages as f64);
    out.set("simnet.lost", m.lost as f64);
    out.set("simnet.deliveries_per_wall_s", m.delivered as f64 / wall);
    out.set("simnet.peak_queue_len", dep.peak_queue_len() as f64);
    let (mut msgs, mut bytes) = (0, 0);
    for p in 0..N {
        let app = dep.app(ProcessId(p as u32));
        msgs += app.re_report_msgs();
        bytes += app.re_report_bytes();
    }
    out.set("core.membership.re_report_msgs", msgs as f64);
    out.set("core.membership.re_report_bytes", bytes as f64);
    drop(dep);

    if cfg.traced {
        let mut tracer = Tracer::new(true, Instant::now());
        let traced = timed_passes(cfg.pass_budget(), 1, |_| {
            let (wall, dep) = pass(&prep, cfg.seed, &mut tracer);
            let (n, _) = numbers_of(&prep, &dep);
            out.checks.check(n == *numbers, || {
                "traced pass differs in sim-time numbers".into()
            });
            Ok((wall, ()))
        })?;
        let traced_wall = traced[quartile_pass(&traced)].0;
        out.set(
            "harness.trace_overhead_pct",
            overhead_pct(traced_wall, wall),
        );
        // The fault-free uplink stream of the same execution, for the
        // codec's share of the wire bytes and the engines' share of `run`.
        let stream: Vec<Interval> = prep
            .exec
            .intervals_interleaved()
            .into_iter()
            .cloned()
            .collect();
        let tree_replay = replay::engine_tree(&prep.tree, &stream, &mut tracer);
        out.checks
            .check(tree_replay.detections.len() == ROUNDS, || {
                "hand-driven engine tree did not detect every round".into()
            });
        out.set_engine_calls(&tree_replay);
        out.set_codec_bytes(&tree_replay.uplink, N);
        out.spans = tracer.into_spans();
    }
    out.finish(&setup_s, &walls, numbers.latencies.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_intervals::Solution;
    use ftscp_vclock::VectorClock;

    fn local(p: u32, seq: u64) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(vec![0, 0, 0]),
            VectorClock::from_components(vec![1, 1, 1]),
        )
    }

    fn detection(members: &[(u32, u64)], at_us: u64) -> GlobalDetection {
        let solution = Solution {
            intervals: members.iter().map(|&(p, s)| local(p, s)).collect(),
            index: 0,
        };
        GlobalDetection::new(ProcessId(0), solution, SimTime(at_us))
    }

    #[test]
    fn sim_latency_counts_from_the_latest_covered_completion() {
        // Three processes, two rounds; process 1 closes its intervals last
        // in round 0 and first in round 1.
        let order = [
            (ProcessId(0), 0), // completes at 100
            (ProcessId(2), 0), // 200
            (ProcessId(1), 0), // 300
            (ProcessId(1), 1), // 400
            (ProcessId(0), 1), // 500
            (ProcessId(2), 1), // 600
        ];
        let dets = [
            detection(&[(0, 0), (1, 0), (2, 0)], 1_000), // latest: 300
            detection(&[(0, 1), (1, 1), (2, 1)], 1_250), // latest: 600
            detection(&[(0, 1), (1, 1)], 1_250),         // partial: latest 500
            detection(&[(2, 1)], 550),                   // "before" it completed: clamps to 0
        ];
        assert_eq!(sim_latencies_us(&order, 100, &dets), vec![700, 650, 750, 0]);
    }

    #[test]
    fn crash_lands_off_the_tick_grid() {
        assert_eq!(crash_time(), SimTime(2_049_234));
        assert_ne!(crash_time().as_micros() % SPACING_US, 0);
    }
}
