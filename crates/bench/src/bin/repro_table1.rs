//! Reproduces **Table I**: complexity comparison between the hierarchical
//! detection algorithm and the centralized repeated detection algorithm
//! \[12\], both as the paper's closed forms and as measured quantities from
//! paired simulation runs; then Table I's time column as wall-clock, and
//! the Eq. (10) vs Eq. (9) prune-rule ablation.
//!
//! ```text
//! cargo run -p ftscp-bench --release --bin repro_table1
//! ```

use ftscp_analysis::complexity::{full_tree_n, Table1Row};
use ftscp_analysis::measure::{run_paired_many, ExperimentConfig};
use ftscp_analysis::report::{fnum, render_table};
use ftscp_baselines::CentralizedDetector;
use ftscp_core::HierarchicalDetector;
use ftscp_intervals::offline::OfflineDetector;
use ftscp_intervals::{Interval, PruneRule};
use ftscp_tree::SpanningTree;
use ftscp_workload::RandomExecution;
use std::time::{Duration, Instant};

fn main() {
    println!("== Table I: analytic complexity (paper's expressions) ==");
    println!("   (space/time columns are the O(·) expressions evaluated,");
    println!("    messages are Eq. (11) with α = 0.45 vs corrected Eq. (14))\n");

    let mut rows = Vec::new();
    for &(d, h) in &[(2u64, 3u32), (2, 5), (2, 7), (4, 3), (4, 5)] {
        let r = Table1Row::evaluate(20, d, h, 0.45);
        rows.push(vec![
            r.d.to_string(),
            r.h.to_string(),
            r.n.to_string(),
            fnum(r.hier_space),
            fnum(r.central_space),
            fnum(r.hier_time),
            fnum(r.central_time),
            fnum(r.time_ratio()),
            fnum(r.hier_messages),
            fnum(r.central_messages),
        ]);
    }
    let headers = [
        "d",
        "h",
        "n=d^h",
        "space hier",
        "space cent",
        "time hier (d²pn²)",
        "time cent (pn³)",
        "cent/hier time",
        "msgs hier",
        "msgs cent",
    ];
    println!("{}", render_table(&headers, &rows));
    if let Ok(path) = ftscp_analysis::report::write_csv("table1_analytic", &headers, &rows) {
        println!("(series written to {})", path.display());
    }

    println!("\n== Table I, measured: paired simulation runs ==");
    println!("   full d-ary trees, clean-round workload, p = 6, heartbeats off\n");
    let grid: Vec<(usize, u32, f64, f64)> = vec![
        (2, 3, 0.0, 0.0),
        (2, 4, 0.0, 0.0),
        (2, 5, 0.0, 0.0),
        (3, 3, 0.0, 0.0),
        (3, 4, 0.0, 0.0),
        (4, 3, 0.0, 0.0),
        (2, 4, 0.2, 0.1),
        (3, 3, 0.2, 0.1),
    ];
    let configs: Vec<ExperimentConfig> = grid
        .iter()
        .map(|&(d, h, skip, solo)| ExperimentConfig {
            d,
            h,
            p: 6,
            skip_prob: skip,
            solo_prob: solo,
            seed: 42,
        })
        .collect();
    let runs = run_paired_many(&configs);
    let mut rows = Vec::new();
    for (&(d, h, skip, solo), run) in grid.iter().zip(&runs) {
        let m = run.measurement;
        rows.push(vec![
            format!("{d} ({skip:.1}/{solo:.1})"),
            h.to_string(),
            full_tree_n(d as u64, h).to_string(),
            m.hier_detections.to_string(),
            m.central_detections.to_string(),
            m.hier_messages.to_string(),
            m.central_hop_messages.to_string(),
            m.hier_max_node_comparisons.to_string(),
            m.central_comparisons.to_string(),
            m.hier_max_node_resident.to_string(),
            m.central_resident.to_string(),
            format!("{:.2}", m.empirical_alpha),
        ]);
    }
    let headers = [
        "d (skip/solo)",
        "h",
        "n",
        "det hier",
        "det cent",
        "msgs hier",
        "msgs cent(hop)",
        "max cmp/node hier",
        "cmp sink cent",
        "max queue hier",
        "queue sink cent",
        "α̂",
    ];
    println!("{}", render_table(&headers, &rows));
    if let Ok(path) = ftscp_analysis::report::write_csv("table1_measured", &headers, &rows) {
        println!("(series written to {})", path.display());
    }
    println!("\nReadings:");
    println!("  * detections agree — both algorithms find the same occurrences;");
    println!("  * hierarchical hop-messages < centralized hop-messages, gap grows with h;");
    println!("  * no hierarchical node compares or stores as much as the sink —");
    println!("    the cost is distributed (the paper's headline claim).");

    wall_clock();
    prune_ablation();
}

/// Median of `samples`, in microseconds.
fn median_us(samples: &mut [Duration]) -> f64 {
    samples.sort_unstable();
    samples[samples.len() / 2].as_secs_f64() * 1e6
}

/// Table I's time column as wall-clock: the in-memory hierarchy (every
/// node's work, run serially — the most pessimistic reading for it)
/// against the centralized sink, fed the same execution in alternating
/// repetitions. Printed only: timings are box-dependent, and the CSVs
/// under `results/` are committed.
fn wall_clock() {
    let reps = if cfg!(debug_assertions) { 1 } else { 21 };
    let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
    println!("\n== Table I, wall-clock: hierarchy (all nodes, serial) vs sink ==");
    println!("   binary trees, clean rounds, p = 6, seed 42; median of {reps} repetitions,");
    println!("   the two detectors alternating; cores = {cores}\n");
    if cfg!(debug_assertions) {
        println!("   (debug build: these timings are not meaningful — run with --release)\n");
    }
    let mut rows = Vec::new();
    for h in 3..=9u32 {
        let n = full_tree_n(2, h) as usize;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(6)
            .seed(42)
            .build();
        let tree = SpanningTree::balanced_dary(n, 2);
        let feed: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
        let (mut hier_t, mut sink_t) = (Vec::new(), Vec::new());
        let (mut hier_det, mut sink_det) = (0, 0);
        for _ in 0..reps {
            let batch = feed.clone();
            let start = Instant::now();
            let mut det = HierarchicalDetector::new(&tree);
            for iv in batch {
                det.feed(iv);
            }
            hier_t.push(start.elapsed());
            hier_det = det.root_solutions().len();

            let batch = feed.clone();
            let start = Instant::now();
            let mut det = CentralizedDetector::new(n);
            for iv in batch {
                det.feed(iv);
            }
            sink_t.push(start.elapsed());
            sink_det = det.solutions().len();
        }
        let (hier_us, sink_us) = (median_us(&mut hier_t), median_us(&mut sink_t));
        rows.push(vec![
            n.to_string(),
            format!("{hier_us:.0}"),
            format!("{sink_us:.0}"),
            format!("{:.2}", sink_us / hier_us),
            hier_det.to_string(),
            sink_det.to_string(),
        ]);
    }
    let headers = [
        "n",
        "hier µs (serial)",
        "sink µs",
        "sink/hier",
        "det hier",
        "det sink",
    ];
    println!("{}", render_table(&headers, &rows));
}

/// The prune-rule ablation: the paper prunes with the on-line
/// approximation Eq. (10) because Eq. (9)'s successor lows are unknown
/// on-line; the offline detector evaluates both on the same sequences.
/// Every count is deterministic.
fn prune_ablation() {
    println!("\n== Ablation: prune rule Eq. (10) vs Eq. (9) ==");
    println!("   offline detectors, p = 12, skip 0.04, seed 9\n");
    let mut rows = Vec::new();
    for n in [4usize, 8, 16] {
        let seqs = RandomExecution::builder(n)
            .intervals_per_process(12)
            .skip_prob(0.04)
            .seed(9)
            .build()
            .intervals;
        let eq10 = OfflineDetector::new(seqs.clone(), PruneRule::Approximate).run();
        let eq9 = OfflineDetector::new(seqs, PruneRule::ExactWithHindsight).run();
        let per_solution = |pruned: u64, solutions: usize| {
            format!("{:.2}", pruned as f64 / solutions.max(1) as f64)
        };
        rows.push(vec![
            n.to_string(),
            eq10.solutions.len().to_string(),
            eq9.solutions.len().to_string(),
            per_solution(eq10.pruned, eq10.solutions.len()),
            per_solution(eq9.pruned, eq9.solutions.len()),
            eq10.comparisons.to_string(),
            eq9.comparisons.to_string(),
        ]);
    }
    let headers = [
        "n",
        "solutions eq10",
        "solutions eq9",
        "pruned/solution eq10",
        "pruned/solution eq9",
        "comparisons eq10",
        "comparisons eq9",
    ];
    println!("{}", render_table(&headers, &rows));
}
