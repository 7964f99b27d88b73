//! Failure-injection fuzzing: random crash schedules against random
//! workloads — the system must never panic, never emit an invalid
//! detection, and remain deterministic.

use ftscp_core::deploy::{DeployConfig, Deployment};
use ftscp_core::faultcheck::verify_detections;
use ftscp_core::HierarchicalDetector;
use ftscp_intervals::definitely_holds;
use ftscp_simnet::{SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_vclock::ProcessId;
use ftscp_workload::RandomExecution;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// In-memory detector under random failure points.
    #[test]
    fn in_memory_random_failures_stay_valid(
        seed in 0u64..10_000,
        kills in proptest::collection::vec((0u32..15, 0usize..100), 0..8),
    ) {
        let n = 15;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(6)
            .skip_prob(0.1)
            .seed(seed)
            .build();
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);
        let mut det = HierarchicalDetector::new(&tree);

        let all: Vec<_> = exec.intervals_interleaved().into_iter().cloned().collect();
        let mut kill_at: Vec<(usize, u32)> = kills
            .iter()
            .map(|&(v, at)| (at % (all.len() + 1), v))
            .collect();
        kill_at.sort();
        let mut alive = vec![true; n];
        let mut next_kill = 0;
        for (i, iv) in all.iter().enumerate() {
            while next_kill < kill_at.len() && kill_at[next_kill].0 <= i {
                let v = kill_at[next_kill].1;
                if alive[v as usize] {
                    alive[v as usize] = false;
                    det.fail_node(ProcessId(v), &topo);
                }
                next_kill += 1;
            }
            if alive[iv.source.index()] {
                det.feed(iv.clone());
            }
        }
        // Safety: every detection satisfies Definitely over its members'
        // original local intervals.
        let violations = verify_detections(&exec, det.root_solutions());
        prop_assert!(violations.is_empty(), "{:?}", violations);
        // And directly re-validate via the raw overlap condition.
        for d in det.root_solutions() {
            let members: Vec<_> = d
                .coverage
                .iter()
                .map(|r| exec.intervals[r.process.index()][r.seq as usize].clone())
                .collect();
            prop_assert!(definitely_holds(&members));
        }
    }

    /// Networked deployment under random crash times: deterministic and
    /// panic-free, with only valid detections.
    #[test]
    fn deployed_random_crashes_are_safe_and_deterministic(
        seed in 0u64..10_000,
        crashes in proptest::collection::vec((1u32..7, 20u64..500), 0..3),
    ) {
        let n = 7;
        let exec = RandomExecution::builder(n)
            .intervals_per_process(5)
            .seed(seed)
            .build();
        let topo = Topology::dary_tree(n, 2, 1);
        let tree = SpanningTree::balanced_dary(n, 2);

        let run = || {
            let mut dep = Deployment::new(
                topo.clone(),
                tree.clone(),
                &exec,
                DeployConfig { sim: ftscp_simnet::SimConfig { seed, ..Default::default() }, ..Default::default() },
            );
            for &(v, at_ms) in &crashes {
                dep.schedule_crash(ProcessId(v), SimTime::from_millis(at_ms));
            }
            dep.run();
            let dets = dep.detections();
            for d in &dets {
                let members: Vec<_> = d
                    .coverage
                    .iter()
                    .map(|r| exec.intervals[r.process.index()][r.seq as usize].clone())
                    .collect();
                assert!(definitely_holds(&members), "invalid detection {d:?}");
            }
            dets.len()
        };
        prop_assert_eq!(run(), run(), "deterministic under crashes");
    }
}
