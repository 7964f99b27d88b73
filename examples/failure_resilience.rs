//! Failure-resilience stress demo: a 31-node system loses a third of its
//! nodes one by one — including the root — while monitoring continues.
//! Contrast with the centralized baseline, which dies with its sink.
//!
//! ```text
//! cargo run --release --example failure_resilience
//! ```

use ftscp::baselines::CentralizedDetector;
use ftscp::core::faultcheck::verify_detections;
use ftscp::core::HierarchicalDetector;
use ftscp::simnet::Topology;
use ftscp::tree::SpanningTree;
use ftscp::vclock::ProcessId;
use ftscp::workload::RandomExecution;

fn main() {
    let n = 31;
    let rounds = 12;
    let topo = Topology::dary_tree(n, 2, 1); // binary tree + escape links
    let tree = SpanningTree::balanced_dary(n, 2);
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .seed(21)
        .build();

    let mut det = HierarchicalDetector::new(&tree);
    let mut central = CentralizedDetector::new(n);
    let mut central_alive = true;

    // Kill a node every ~36 intervals; victim 0 is the root AND the sink.
    let victims = [0u32, 5, 12, 3, 19, 8, 27, 14, 22, 9];
    let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
    let chunk = all.len() / (victims.len() + 1) + 1;

    let mut dead = vec![false; n];
    for (round, part) in all.chunks(chunk).enumerate() {
        for iv in part {
            if dead[iv.source.index()] {
                continue;
            }
            det.feed(iv.clone());
            if central_alive {
                central.feed(iv.clone());
            }
        }
        if round < victims.len() {
            let v = victims[round];
            dead[v as usize] = true;
            println!(
                "t{}: node {v} fails — hierarchical so far: {:3} detections{}",
                round,
                det.root_solutions().len(),
                if v == 0 {
                    "  ← the sink: centralized monitoring DIES here"
                } else {
                    ""
                }
            );
            det.fail_node(ProcessId(v), &topo);
            if v == 0 {
                central_alive = false;
            }
        }
    }

    println!("\nfinal score:");
    println!(
        "  hierarchical: {} detections, {} nodes still monitored",
        det.root_solutions().len(),
        det.tree().node_count()
    );
    println!(
        "  centralized: {} detections (sink died at t0 — nothing after)",
        central.solutions().len()
    );

    // Every hierarchical detection is genuine.
    let violations = verify_detections(&exec, det.root_solutions());
    assert!(violations.is_empty(), "invalid detections: {violations:?}");

    // Coverage shrinks as the population does, but never to zero activity.
    let sizes: Vec<usize> = det
        .root_solutions()
        .iter()
        .map(|d| d.covered_processes().len())
        .collect();
    println!("\ncoverage per detection: {sizes:?}");
    assert!(det.root_solutions().len() > central.solutions().len());
    println!("\nhierarchical detection outlived 10 failures including the root.");
}
