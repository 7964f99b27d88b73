//! Modular robotics — the paper's second motivating domain (refs [2],
//! [3]): a lattice of robot modules detecting a *configuration predicate*
//! ("every module in the group has latched") at the group level.
//!
//! Demonstrates the hierarchical algorithm's "finer-grained monitoring"
//! claim: the tree's interior nodes correspond to module groups, and each
//! group root detects the group predicate independently of the rest.
//!
//! ```text
//! cargo run --example modular_robotics
//! ```

use ftscp::core::HierarchicalDetector;
use ftscp::simnet::{NodeId, Topology};
use ftscp::tree::SpanningTree;
use ftscp::vclock::ProcessId;
use ftscp::workload::RandomExecution;

fn main() {
    // A 6×4 lattice of modules; links are physical latching faces.
    let (w, h) = (6, 4);
    let n = w * h;
    let topo = Topology::grid(w, h);
    let tree = SpanningTree::bfs(&topo, NodeId(0));
    println!(
        "lattice: {w}×{h} modules, tree height {}, max degree {}",
        tree.height(),
        tree.max_degree()
    );

    // Reconfiguration episodes: in each, modules latch (predicate true),
    // handshake with the episode coordinator, and unlatch. 30% of modules
    // sit some episodes out — their groups cannot complete those episodes.
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .skip_prob(0.3)
        .seed(13)
        .build();

    let mut det = HierarchicalDetector::new(&tree);
    for iv in exec.intervals_interleaved() {
        det.feed(iv.clone());
    }

    // Group-level view: each subtree root monitored its own group.
    println!("\nper-group detections (tree node → subtree size → detections):");
    let mut group_rows: Vec<(ProcessId, usize, u64)> = det
        .solution_counts()
        .into_iter()
        .filter(|(p, _)| !det.tree().is_leaf(*p))
        .map(|(p, c)| (p, det.tree().subtree(p).len(), c))
        .collect();
    group_rows.sort_by_key(|&(_, size, _)| std::cmp::Reverse(size));
    for (node, size, count) in group_rows.iter().take(8) {
        println!("  {node}: group of {size} modules → {count} detections");
    }

    let global = det.root_solutions().len();
    println!("\nglobal configuration predicate detected {global} times");
    println!(
        "(with 30% skip probability, most episodes complete only at the\n\
         group level — exactly the finer-grained monitoring the paper\n\
         motivates for large-scale systems)"
    );

    // Smaller groups succeed more often than the whole lattice.
    let smallest_group = group_rows.last().unwrap();
    assert!(
        smallest_group.2 >= global as u64,
        "small groups detect at least as often as the global root"
    );
}
