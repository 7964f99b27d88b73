//! The six workloads and what they share: run configuration, the result
//! shape, reference-check bookkeeping, repeated set-up and timed passes.

pub mod mem;
pub mod sim;
pub mod tcp;
pub mod tenants;

use crate::metrics::{median, percentile, quartile_spread, sorted};
use crate::trace::Span;
use ftscp_workload::{Execution, RandomExecution};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Workload names, in the order a full run executes them.
pub const NAMES: [&str; 6] = [
    "tcp_pingpong",
    "tcp_blast",
    "mem_dense",
    "mem_sparse",
    "sim_crash",
    "mem_tenants",
];

/// One line per workload on why it exists (also in `BENCHMARK.json`).
pub const WHY: [&str; 6] = [
    "one round in flight over a 7-node real-TCP tree: leaf-to-root latency of 3 hops with nothing queued, net::node reactor dominates",
    "same TCP tree, closed loop with 64 rounds in flight: saturation, a CPU saving in any layer lifts throughput",
    "in-memory 1024-process 4-ary tree, every round a solution: pure CPU in the intervals bank sweep and vclock compare",
    "same tree with 30% skips and 20% solos: heads rarely overlap, pruning dominates, no root detections",
    "256-node simnet deployment with a mid-run crash of an internal node: protocol latency, stall and recovery in sim-time",
    "1000 predicates of 4-16 members over one 64-process stream: registry routing and many narrow banks, per-call overhead",
];

/// Times the set-up of a workload is repeated in one run; `setup_s` is
/// the median. The repetitions' products are dropped, the last is used.
pub const SETUP_REPS: usize = 3;

pub struct RunCfg {
    pub seed: u64,
    /// Length of the measured region.
    pub seconds: f64,
    pub traced: bool,
}

impl RunCfg {
    /// The share of `seconds` given to the measured passes: all of it
    /// untraced; half each for the untraced baseline and the traced
    /// passes of a traced run (whose replay stages come on top).
    pub fn pass_budget(&self) -> Duration {
        Duration::from_secs_f64(if self.traced {
            self.seconds / 2.0
        } else {
            self.seconds
        })
    }
}

/// Everything one workload run produced. `values` holds end-to-end and
/// per-layer metrics alike, by the names of `crate::metrics`.
#[derive(Default)]
pub struct Outcome {
    pub checks: Checks,
    pub values: BTreeMap<&'static str, f64>,
    /// Remarks for the report: "0 attempts", the pass walls, …
    pub notes: Vec<String>,
    pub spans: Vec<Span>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::metrics::END_TO_END.iter().any(|m| m.name == name)
                || crate::metrics::PER_LAYER.iter().any(|m| m.name == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// The per-class engine call times of a hand-driven engine tree.
    pub fn set_engine_calls(&mut self, replay: &crate::replay::EngineTreeReplay) {
        self.set("core.engine.leaf_ns", replay.leaf.mean_ns());
        self.set("core.engine.inner_ns", replay.inner.mean_ns());
        self.set("core.engine.root_ns", replay.root.mean_ns());
    }

    /// Bytes per report of an uplink stream of `n` senders under the
    /// per-connection codec.
    pub fn set_codec_bytes(
        &mut self,
        uplink: &[(ftscp_vclock::ProcessId, ftscp_intervals::Interval)],
        n: usize,
    ) {
        let (stateful, standalone) = crate::replay::codec_bytes(uplink, n);
        self.set("intervals.codec.bytes_stateful", stateful);
        self.set("intervals.codec.bytes_standalone", standalone);
    }

    /// The wall-clock latency metrics (`sim_crash` names its tails
    /// `tail.sim_*`).
    pub fn set_latency(&mut self, lat: &Tail) {
        self.set("detect_lat_p50_us", lat.p50);
        self.set("tail.detect_lat_p90_us", lat.p90);
        self.set("tail.detect_lat_p99_us", lat.p99);
        self.set("tail.detect_lat_max_us", lat.max);
        self.set("harness.window_iqr_pct", lat.window_iqr_pct);
        let windows: Vec<String> = lat
            .windows
            .iter()
            .map(|(p50, p90)| format!("{p50:.1}/{p90:.1}"))
            .collect();
        self.notes.push(format!(
            "latency p50/p90 per pass, us: [{}]",
            windows.join(", ")
        ));
    }

    /// Fills what every workload reports the same way: the pass
    /// statistics and the check result.
    pub fn finish(&mut self, setup_s: &[f64], pass_walls: &[f64], samples: usize) {
        self.set("setup_s", median(setup_s));
        self.set("harness.passes", pass_walls.len() as f64);
        self.set("harness.samples", samples as f64);
        self.set("harness.pass_iqr_pct", 100.0 * quartile_spread(pass_walls));
        let walls: Vec<String> = pass_walls.iter().map(|w| format!("{w:.4}")).collect();
        self.notes
            .push(format!("pass walls, s: [{}]", walls.join(", ")));
        self.set(
            "harness.cores",
            std::thread::available_parallelism().map_or(1.0, |n| n.get() as f64),
        );
        let failed_share = self.checks.failed as f64 / self.checks.attempted.max(1) as f64;
        self.set("failed_share", failed_share);
    }
}

/// Reference-check tally: `attempted` operations and comparisons,
/// `failed` of them, and the first few failures in words.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.tally(1, u64::from(!ok), what);
    }

    pub fn tally(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 8 {
            self.failures.push(what());
        }
    }
}

/// Runs `setup` [`SETUP_REPS`] times, timing each; returns the last
/// product and all the times.
pub fn repeat_setup<T>(
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let t0 = Instant::now();
        let product = setup()?;
        times.push(t0.elapsed().as_secs_f64());
        if times.len() == SETUP_REPS {
            return Ok((product, times));
        }
        drop(product);
    }
}

/// Runs `pass` at least `min` times, then for as long as one more pass of
/// average length still fits in `budget`; a pass returns its own measured
/// wall time.
pub fn timed_passes<T>(
    budget: Duration,
    min: usize,
    mut pass: impl FnMut(usize) -> Result<(f64, T), String>,
) -> Result<Vec<(f64, T)>, String> {
    let t0 = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(pass(out.len())?);
        let elapsed = t0.elapsed();
        if out.len() >= min && elapsed + elapsed / out.len() as u32 > budget {
            return Ok(out);
        }
    }
}

/// Which pass of a run speaks for it: the one at the first quartile
/// (nearest rank), fastest first.
///
/// The box is shared, and its other tenants only ever make a pass slower:
/// a fifth to a half slower, for seconds to a minute at a time. The median
/// pass of a run is a calm one in one run and a disturbed one in the next;
/// the first-quartile pass is a calm one as long as a quarter of the run
/// was calm, and it is not the single fastest, which on TCP is a fresh
/// tree's head start. Over 45 runs of each TCP workload, in blocks of ten,
/// the throughput of the median window spread by up to 0.29 of its median
/// and the p50 by up to 0.29; of the first-quartile window by up to 0.19
/// and 0.19, and never by more than the median's. What it cannot see is a
/// regression that spares a quarter of the passes; `harness.pass_iqr_pct`
/// and `harness.window_iqr_pct` say how far the passes disagree.
pub const TYPICAL_PERCENTILE: f64 = 25.0;

/// Index of the pass whose wall time is at [`TYPICAL_PERCENTILE`] of all
/// of them — the pass the run's throughput and counters are taken from.
pub fn quartile_pass<T>(passes: &[(f64, T)]) -> usize {
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let m = percentile(&sorted(walls), TYPICAL_PERCENTILE);
    passes
        .iter()
        .position(|(w, _)| *w == m)
        .expect("a nearest-rank percentile is one of the walls")
}

/// The nearest-rank `p`-th percentile of each consecutive window of
/// `window` samples. A short tail window (under half a window) is left
/// out; an empty sample has no windows.
pub fn window_percentiles(samples: &[f64], window: usize, p: f64) -> Vec<f64> {
    samples
        .chunks(window.max(1))
        .enumerate()
        .filter(|(k, w)| *k == 0 || 2 * w.len() >= window)
        .map(|(_, w)| percentile(&sorted(w.to_vec()), p))
        .collect()
}

/// Latency summary in µs. A window is one pass. `p50` and `p90` are the
/// first quartile over the windows of each window's nearest-rank
/// percentile — the latency of the first-quartile pass, as
/// `intervals_per_s` is its throughput (see [`TYPICAL_PERCENTILE`]); `p99`
/// and `max` are of the whole sample, stalls included.
/// `window_iqr_pct` says how far the windows disagree: the quartile
/// distance of the per-window p50s (or p90s, whichever is wider) as a
/// share of their median, which `--compare` holds against the bound before
/// it calls two runs equal. An empty sample (a run whose detections never
/// arrived, already tallied as failed) is all zeros.
#[derive(Default)]
pub struct Tail {
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub max: f64,
    pub window_iqr_pct: f64,
    /// The per-window `(p50, p90)`, for the report's notes.
    pub windows: Vec<(f64, f64)>,
}

pub fn tail(samples_us: &[f64], window: usize) -> Tail {
    if samples_us.is_empty() {
        return Tail::default();
    }
    let s = sorted(samples_us.to_vec());
    let p50s = window_percentiles(samples_us, window, 50.0);
    let p90s = window_percentiles(samples_us, window, 90.0);
    Tail {
        p50: percentile(&sorted(p50s.clone()), TYPICAL_PERCENTILE),
        p90: percentile(&sorted(p90s.clone()), TYPICAL_PERCENTILE),
        p99: percentile(&s, 99.0),
        max: s[s.len() - 1],
        window_iqr_pct: 100.0 * quartile_spread(&p50s).max(quartile_spread(&p90s)),
        windows: p50s.into_iter().zip(p90s).collect(),
    }
}

/// The bench's only source of executions.
pub fn build_execution(n: usize, rounds: usize, skip: f64, solo: f64, seed: u64) -> Execution {
    RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .skip_prob(skip)
        .solo_prob(solo)
        .seed(seed)
        .build()
}

/// `(solution index, coverage)` per detection — the time-blind identity
/// of a detection sequence used by every reference check.
pub type SolutionSeq = Vec<(u64, Vec<(u32, u64)>)>;

pub fn solution_seq(dets: &[ftscp_core::GlobalDetection]) -> SolutionSeq {
    dets.iter()
        .map(|d| {
            (
                d.solution.index,
                d.coverage.iter().map(|r| (r.process.0, r.seq)).collect(),
            )
        })
        .collect()
}

/// Traced ÷ untraced − 1, in percent.
pub fn overhead_pct(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        100.0 * (traced / untraced - 1.0)
    } else {
        0.0
    }
}

pub fn run(name: &str, cfg: &RunCfg) -> Result<Outcome, String> {
    match name {
        "tcp_pingpong" => tcp::run(tcp::Load::PingPong, cfg),
        "tcp_blast" => tcp::run(tcp::Load::Blast, cfg),
        "mem_dense" => mem::run(mem::Shape::Dense, cfg),
        "mem_sparse" => mem::run(mem::Shape::Sparse, cfg),
        "sim_crash" => sim::run(cfg),
        "mem_tenants" => tenants::run(cfg),
        other => Err(format!("unknown workload {other}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_of_the_whole_sample_and_the_windows_give_its_spread() {
        // Eight windows of ten samples, each a little slower than the one
        // before; the third and the sixth are stalls.
        let mut samples: Vec<f64> = (0..80)
            .map(|k| 100.0 + f64::from(k % 10) + 10.0 * f64::from(k / 10))
            .collect();
        for k in (20..30).chain(50..60) {
            samples[k] += 50_000.0;
        }
        assert_eq!(
            window_percentiles(&samples, 10, 50.0),
            [104.0, 114.0, 50_124.0, 134.0, 144.0, 50_154.0, 164.0, 174.0]
        );
        // A 3-sample tail window is dropped, a 5-sample one is kept.
        assert_eq!(window_percentiles(&samples[..33], 10, 90.0).len(), 3);
        assert_eq!(window_percentiles(&samples[..35], 10, 90.0).len(), 4);
        // Six quiet windows and two stalled ones: p50 and p90 are those of
        // the first-quartile window, p99 and max are the stalls', and the
        // windows disagree by more than their median.
        let t = tail(&samples, 10);
        assert_eq!((t.p50, t.p90), (114.0, 118.0));
        assert_eq!((t.p99, t.max), (50_159.0, 50_159.0));
        assert!(t.window_iqr_pct > 100.0);
        // Without the stalls the windows differ only by their drift.
        let quiet: Vec<f64> = samples.iter().map(|v| v % 50_000.0).collect();
        assert!(tail(&quiet, 10).window_iqr_pct < 40.0);
    }

    #[test]
    fn an_empty_sample_summarises_to_zeros() {
        let t = tail(&[], 1_000);
        assert_eq!((t.p50, t.p90, t.p99, t.max), (0.0, 0.0, 0.0, 0.0));
        assert_eq!(t.window_iqr_pct, 0.0);
        assert!(window_percentiles(&[], 0, 99.0).is_empty());
    }

    #[test]
    fn quartile_pass_is_a_pass_that_ran() {
        // Five passes: the second fastest is at the first quartile.
        let passes = [(3.0, 'a'), (1.0, 'b'), (2.0, 'c'), (4.0, 'd'), (5.0, 'e')];
        assert_eq!(passes[quartile_pass(&passes)].1, 'c');
        assert_eq!(quartile_pass(&[(5.0, ())]), 0);
        // Four passes: the fastest. Eight: the second fastest.
        assert_eq!(
            quartile_pass(&[(9.0, ()), (7.0, ()), (8.0, ()), (6.0, ())]),
            3
        );
        let eight: Vec<(f64, ())> = (1..=8).rev().map(|w| (f64::from(w), ())).collect();
        assert_eq!(eight[quartile_pass(&eight)].0, 2.0);
    }
}
