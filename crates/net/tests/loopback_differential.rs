//! The differential guarantee: the same execution pushed through the
//! simulated network and through real TCP on loopback must produce the
//! same detections.
//!
//! Why this must hold (and is therefore worth asserting): the exhaustive
//! interleaving tests in `ftscp-intervals` prove the detector's solution
//! sequence is invariant under any delivery order that preserves
//! per-queue FIFO. TCP gives per-connection FIFO, the connection codecs
//! advance in lockstep with the byte stream, and the reorder buffer
//! absorbs retransmit duplicates — so thread scheduling, socket timing,
//! and even a severed-and-reconnected uplink must not change *what* is
//! detected, only *when*.

use ftscp_core::deploy::{DeployConfig, Deployment as SimDeployment};
use ftscp_core::faultcheck::solution_fingerprint;
use ftscp_core::report::GlobalDetection;
use ftscp_net::loopback::{run_execution, sockets_available, Deployment, LoopbackConfig};
use ftscp_simnet::{LinkModel, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::{scenarios, Execution, RandomExecution};
use std::time::{Duration, Instant};

/// Solution sequence as explicit coverage lists — the strongest
/// cross-backend comparison (order-sensitive, time-blind).
fn coverages(dets: &[GlobalDetection]) -> Vec<Vec<(u32, u64)>> {
    dets.iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect()
}

/// Reference run on the deterministic simulated network.
fn simnet_detections(tree: &SpanningTree, exec: &Execution, seed: u64) -> Vec<GlobalDetection> {
    let topo = Topology::dary_tree(exec.n, 2, 1);
    let config = DeployConfig {
        sim: SimConfig {
            seed,
            link: LinkModel {
                min_delay: SimTime(200),
                max_delay: SimTime(4_000),
                drop_prob: 0.0,
            },
        },
        ..Default::default()
    };
    let mut dep = SimDeployment::new(topo, tree.clone(), exec, config);
    dep.run();
    dep.detections()
}

/// Severs `p`'s uplink, retrying every millisecond until a live socket
/// was actually shut down: a drop that lands before the uplink is up is a
/// no-op, and on a loaded box "a few milliseconds after launch" can be
/// before.
fn sever_uplink(dep: &Deployment, p: ProcessId) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while !dep.drop_uplink(p) {
        assert!(
            Instant::now() < deadline,
            "the uplink of {p:?} never came up to be severed"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn assert_same_detections(sim: &[GlobalDetection], net: &[GlobalDetection], what: &str) {
    assert_eq!(
        coverages(sim),
        coverages(net),
        "{what}: solution sequences diverge"
    );
    assert_eq!(
        solution_fingerprint(sim),
        solution_fingerprint(net),
        "{what}: fingerprints diverge"
    );
}

#[test]
fn loopback_matches_simnet() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let mut total_detections = 0;
    for seed in [1u64, 2, 3] {
        let n = 7;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(5)
            .skip_prob(0.15)
            .seed(seed)
            .build();
        let tree = SpanningTree::balanced_dary(n, 2);

        let sim = simnet_detections(&tree, &exec, seed);
        total_detections += sim.len();
        let report =
            run_execution(&tree, &exec, &LoopbackConfig::default()).expect("loopback run failed");
        assert!(!report.timed_out, "seed {seed}: loopback run timed out");
        assert_same_detections(&sim, &report.detections, &format!("seed {seed}"));
        assert!(report.bytes_on_wire() > 0);
        assert!(report.interval_frames() >= report.standalone_frames());
    }
    assert!(
        total_detections > 0,
        "degenerate seed set: nothing detected"
    );
}

/// The paper's Figure 2 scenario, end to end over TCP.
#[test]
fn loopback_matches_simnet_on_figure2() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let exec = scenarios::figure2();
    let tree = SpanningTree::balanced_dary(exec.n, 2);
    let sim = simnet_detections(&tree, &exec, 42);
    let report =
        run_execution(&tree, &exec, &LoopbackConfig::default()).expect("loopback run failed");
    assert!(!report.timed_out);
    assert_same_detections(&sim, &report.detections, "figure2");
}

/// The acceptance-criteria run: an uplink is severed (twice) while events
/// are in flight; the reconnect-with-resync machinery must recover and
/// the detections must STILL equal the simulator's.
#[test]
fn loopback_matches_simnet_across_forced_reconnects() {
    if !sockets_available() {
        eprintln!("skipping: loopback sockets unavailable in this environment");
        return;
    }
    let n = 7;
    let seed = 7u64;
    let exec = RandomExecution::builder(n)
        .intervals_per_process(8)
        .skip_prob(0.1)
        .seed(seed)
        .build();
    let tree = SpanningTree::balanced_dary(n, 2);
    let sim = simnet_detections(&tree, &exec, seed);

    let config = LoopbackConfig {
        // Pace the feeds so the drops land on live traffic.
        event_pacing: Duration::from_millis(3),
        ..Default::default()
    };
    let mut dep = Deployment::launch(&tree, &config).expect("launch failed");
    dep.feed_execution(&exec, config.event_pacing);
    // Sever two uplinks mid-run: an internal node (relays its whole
    // subtree) and a leaf. The sleeps only place the cuts inside the
    // paced traffic; that each cut hits a live socket is `sever_uplink`'s.
    std::thread::sleep(Duration::from_millis(6));
    sever_uplink(&dep, ProcessId(1));
    std::thread::sleep(Duration::from_millis(10));
    sever_uplink(&dep, ProcessId(5));
    let report = dep.finish(&config).expect("loopback run failed");

    assert!(!report.timed_out, "run did not recover from the drops");
    assert!(
        report.reconnects() >= 2,
        "expected both severed uplinks to reconnect, saw {}",
        report.reconnects()
    );
    assert_same_detections(&sim, &report.detections, "forced reconnect");
}
