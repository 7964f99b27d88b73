//! `mem_dense` and `mem_sparse`: the in-memory `HierarchicalDetector`
//! over a 1024-process 4-ary tree. No network, no codec — the time is the
//! `intervals::bank` sweep and prune over 1024-wide clocks.

use super::{
    build_execution, quartile_pass, overhead_pct, repeat_setup, solution_seq, tail, timed_passes,
    Outcome, RunCfg, SolutionSeq,
};
use crate::replay;
use crate::trace::Tracer;
use ftscp_core::HierarchicalDetector;
use ftscp_intervals::{BankStats, Interval, SweepMode};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use std::time::Instant;

const N: usize = 1024;
const DEGREE: usize = 4;
const ROUNDS: usize = 24;

#[derive(Clone, Copy, PartialEq)]
pub enum Shape {
    /// Every process takes part in every round: one root detection each.
    Dense,
    /// 30% of the (process, round) slots skipped and 20% solo: heads
    /// rarely overlap, no root detections, thousands of subtree ones.
    Sparse,
}

impl Shape {
    fn probs(self) -> (f64, f64) {
        match self {
            Shape::Dense => (0.0, 0.0),
            Shape::Sparse => (0.3, 0.2),
        }
    }
}

/// What one detector run leaves behind that does not depend on the sweep
/// mode: the oracle and every timed pass must agree on all of it.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    root: SolutionSeq,
    counts: Vec<(ProcessId, u64)>,
    /// enqueued, swept, pruned, solutions, peak_resident, peak_queue_len —
    /// the `BankStats` fields that are the same in every sweep mode.
    stats: [u64; 6],
}

fn fingerprint(det: &HierarchicalDetector) -> Fingerprint {
    let s: BankStats = det.bank_stats_total();
    Fingerprint {
        root: solution_seq(det.root_solutions()),
        counts: det.solution_counts(),
        stats: [
            s.enqueued,
            s.swept,
            s.pruned,
            s.solutions,
            s.peak_resident as u64,
            s.peak_queue_len as u64,
        ],
    }
}

struct Prepared {
    tree: SpanningTree,
    stream: Vec<Interval>,
    oracle: Fingerprint,
    tree_build_us: f64,
    workload_build_s: f64,
}

fn prepare(shape: Shape, seed: u64) -> Prepared {
    let (skip, solo) = shape.probs();
    let t0 = Instant::now();
    let exec = build_execution(N, ROUNDS, skip, solo, seed);
    let workload_build_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let tree = SpanningTree::balanced_dary(N, DEGREE);
    let tree_build_us = t0.elapsed().as_secs_f64() * 1e6;
    let stream: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
    // The reference: the original recompute-everything sweep.
    let mut oracle = HierarchicalDetector::new(&tree).with_sweep_mode(SweepMode::Full);
    for iv in &stream {
        oracle.feed(iv.clone());
    }
    Prepared {
        tree,
        oracle: fingerprint(&oracle),
        stream,
        tree_build_us,
        workload_build_s,
    }
}

struct Pass {
    /// Duration of every `feed` call, ns.
    feed_ns: Vec<u32>,
    matches_oracle: bool,
    billed: u64,
    peak_queue_len: usize,
    stats: BankStats,
}

/// One pass: the whole stream into a fresh default-mode detector. The
/// pass wall time covers the feeds only (detector and input copies are
/// made before the clock starts).
fn pass(prep: &Prepared, input: Vec<Interval>, tracer: &mut Tracer) -> (f64, Pass) {
    let mut det = HierarchicalDetector::new(&prep.tree);
    let mut feed_ns = Vec::with_capacity(input.len());
    let t0 = Instant::now();
    let mut last = t0;
    for (k, iv) in input.into_iter().enumerate() {
        tracer.span("core.hier.feed", k as u64, |_| det.feed(iv));
        let now = Instant::now();
        feed_ns.push((now - last).as_nanos() as u32);
        last = now;
    }
    let wall = (last - t0).as_secs_f64();
    let pass = Pass {
        feed_ns,
        matches_oracle: fingerprint(&det) == prep.oracle,
        billed: det.ops().get(),
        peak_queue_len: det.peak_queue_len(),
        stats: det.bank_stats_total(),
    };
    (wall, pass)
}

pub fn run(shape: Shape, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (prep, setup_s) = repeat_setup(|| Ok(prepare(shape, cfg.seed)))?;
    let intervals = prep.stream.len() as f64;

    let mut off = Tracer::new(false, Instant::now());
    let passes = timed_passes(cfg.pass_budget(), 3, |_| {
        Ok(pass(&prep, prep.stream.clone(), &mut off))
    })?;
    for (_, p) in &passes {
        out.checks.check(p.matches_oracle, || {
            "pass diverged from the SweepMode::Full oracle".into()
        });
    }
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let mid = &passes[quartile_pass(&passes)];
    out.set("intervals_per_s", intervals / mid.0);
    // Latency here is one `feed` call: interval in, every detection it
    // causes out. One latency window per pass.
    let feed_us: Vec<f64> = passes
        .iter()
        .flat_map(|(_, p)| p.feed_ns.iter().map(|&ns| f64::from(ns) / 1e3))
        .collect();
    let lat = tail(&feed_us, prep.stream.len());
    out.set_latency(&lat);
    out.set("billed_cmp_per_interval", mid.1.billed as f64 / intervals);
    out.set("peak_resident_intervals", mid.1.peak_queue_len as f64);
    out.set("tree.build_us", prep.tree_build_us);
    out.set("workload.build_s", prep.workload_build_s);
    let samples = feed_us.len();
    let untraced_wall = mid.0;
    drop(passes);

    if cfg.traced {
        traced(&prep, cfg, untraced_wall, &mut out)?;
    }
    out.finish(&setup_s, &walls, samples);
    Ok(out)
}

fn traced(
    prep: &Prepared,
    cfg: &RunCfg,
    untraced_wall: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let intervals = prep.stream.len() as f64;
    let mut tracer = Tracer::new(true, Instant::now());

    // The same passes again with a span around every feed.
    let mut clone_stats = (0, 0);
    let passes = timed_passes(cfg.pass_budget(), 1, |k| {
        let input = prep.stream.clone();
        if k == 0 {
            ftscp_vclock::reset_clone_stats();
        }
        let p = pass(prep, input, &mut tracer);
        if k == 0 {
            clone_stats = ftscp_vclock::clone_stats();
        }
        Ok(p)
    })?;
    for (_, p) in &passes {
        out.checks.check(p.matches_oracle, || {
            "traced pass diverged from the SweepMode::Full oracle".into()
        });
    }
    let mid = &passes[quartile_pass(&passes)];
    out.set(
        "harness.trace_overhead_pct",
        overhead_pct(mid.0, untraced_wall),
    );
    let feed_ns = mid.0 * 1e9 / intervals;
    out.set("core.hier.feed_ns", feed_ns);
    out.set("vclock.clone_logical", clone_stats.0 as f64);
    out.set("vclock.clone_deep", clone_stats.1 as f64);
    let stats = mid.1.stats;
    let attempts = stats.gate_hits + stats.gate_misses;
    out.set("intervals.bank.gate_attempts", attempts as f64);
    if attempts == 0 {
        out.notes.push(
            "intervals.bank.gate_hit_ratio: 0 attempts (the default sweep mode has no gate)".into(),
        );
    } else {
        out.set(
            "intervals.bank.gate_hit_ratio",
            stats.gate_hits as f64 / attempts as f64,
        );
    }
    out.set("intervals.bank.swept", stats.swept as f64);
    out.set("intervals.bank.pruned", stats.pruned as f64);
    out.set("intervals.bank.solutions", stats.solutions as f64);
    drop(passes);

    // The engine tree by hand, under the detector.
    let tree_replay = replay::engine_tree(&prep.tree, &prep.stream, &mut tracer);
    out.checks
        .check(tree_replay.detections == prep.oracle.root, || {
            "hand-driven engine tree diverged from the detector".into()
        });
    out.set_engine_calls(&tree_replay);
    out.set(
        "core.hier.self_ns",
        feed_ns - tree_replay.engine_ns() as f64 / intervals,
    );

    // A bare bank under the root engine and under its first child.
    let mut enqueue = replay::Calls::default();
    for (children, inputs) in &tree_replay.recorded {
        let reps = (200_000 / inputs.len().max(1)).clamp(1, 50);
        let c = replay::bank_enqueue(children, inputs, reps, &mut tracer);
        enqueue += c;
    }
    out.set("intervals.bank.enqueue_ns", enqueue.mean_ns());
    out.set(
        "intervals.aggregate_ns",
        replay::aggregate_sets(&tree_replay.solution_sets, &mut tracer).mean_ns(),
    );
    out.set_codec_bytes(&tree_replay.uplink, N);
    out.set(
        "vclock.compare_ns",
        replay::vclock_compare(&prep.stream, 200_000, &mut tracer).mean_ns(),
    );
    out.spans = tracer.into_spans();
    Ok(())
}
