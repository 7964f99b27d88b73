//! Paired experiment runner: both algorithms, same workload, same network.

use ftscp_baselines::centralized::CentralizedDeployment;
use ftscp_core::deploy::{DeployConfig, Deployment};
use ftscp_core::monitor::MonitorConfig;
use ftscp_simnet::{LinkModel, NodeId, SimConfig, SimTime, Topology};
use ftscp_tree::SpanningTree;
use ftscp_workload::RandomExecution;

/// Parameters of one paired experiment.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentConfig {
    /// Tree degree.
    pub d: usize,
    /// Tree height (levels); the tree is the *full* `d`-ary tree with
    /// `n = (d^h - 1)/(d - 1)` nodes.
    pub h: u32,
    /// Rounds of the workload ≈ intervals per process.
    pub p: usize,
    /// Probability a process skips a round (lowers effective `α`).
    pub skip_prob: f64,
    /// Probability a process raises its predicate without communicating.
    pub solo_prob: f64,
    /// Seed for both workload and network.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Network size for this configuration.
    pub fn n(&self) -> usize {
        ftscp_tree_size(self.d, self.h)
    }
}

fn ftscp_tree_size(d: usize, h: u32) -> usize {
    if d == 1 {
        h as usize
    } else {
        (d.pow(h) - 1) / (d - 1)
    }
}

/// Measured outcome of one paired run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measurement {
    /// Network size.
    pub n: usize,
    /// Hierarchical: interval messages (1 hop each — already hop-weighted).
    pub hier_messages: u64,
    /// Centralized: hop-weighted interval messages (Eq. (14)'s unit).
    pub central_hop_messages: u64,
    /// Centralized: end-to-end sends (before hop weighting).
    pub central_sends: u64,
    /// Root/sink detections of each algorithm (must agree).
    pub hier_detections: usize,
    /// Sink detections of the centralized algorithm.
    pub central_detections: usize,
    /// Hierarchical: total vector-clock component inspections, all nodes.
    pub hier_comparisons: u64,
    /// Hierarchical: the largest per-node comparison count (the paper's
    /// "distributed across all nodes" claim quantified).
    pub hier_max_node_comparisons: u64,
    /// Centralized: comparisons at the sink.
    pub central_comparisons: u64,
    /// Hierarchical: largest per-node peak queue residency.
    pub hier_max_node_resident: usize,
    /// Hierarchical: sum of per-node peak residencies.
    pub hier_total_resident: usize,
    /// Centralized: sink peak residency.
    pub central_resident: usize,
    /// Hierarchical: peak per-link traffic (congestion hotspot).
    pub hier_max_edge_load: u64,
    /// Centralized: peak per-link traffic (around the sink).
    pub central_max_edge_load: u64,
    /// Empirical α: aggregates produced ÷ (children × intervals received
    /// per child), averaged over interior non-root nodes (the paper's
    /// §IV-A definition rearranged).
    pub empirical_alpha: f64,
}

/// A configuration together with its measurement.
#[derive(Clone, Copy, Debug)]
pub struct PairedRun {
    /// Inputs.
    pub config: ExperimentConfig,
    /// Outputs.
    pub measurement: Measurement,
}

/// Runs both deployments on the same workload/topology and collects the
/// paired measurement.
pub fn run_paired(cfg: ExperimentConfig) -> PairedRun {
    let n = cfg.n();
    let exec = RandomExecution::builder(n)
        .intervals_per_process(cfg.p)
        .skip_prob(cfg.skip_prob)
        .solo_prob(cfg.solo_prob)
        .seed(cfg.seed)
        .build();
    let topo = Topology::dary_tree(n, cfg.d, 0);
    let tree = SpanningTree::balanced_dary(n, cfg.d);

    let sim = SimConfig {
        seed: cfg.seed,
        link: LinkModel {
            min_delay: SimTime(100),
            max_delay: SimTime(2_000),
            drop_prob: 0.0,
        },
    };

    // Hierarchical run (heartbeats off: the paper counts interval traffic).
    let mut hier = Deployment::new(
        topo.clone(),
        tree,
        &exec,
        DeployConfig {
            sim,
            interval_spacing: SimTime::from_millis(5),
            monitor: MonitorConfig {
                heartbeat_period: None,
                retransmit_period: None,
                ..Default::default()
            },
            repair_delay: SimTime::from_millis(50),
            ..Default::default()
        },
    );
    hier.run();

    // Centralized run over the same tree topology, sink at the root.
    let mut central =
        CentralizedDeployment::new(topo, NodeId(0), &exec, sim, SimTime::from_millis(5));
    central.run();

    // Empirical α over interior non-root nodes.
    let mut alpha_sum = 0.0;
    let mut alpha_count = 0usize;
    for i in 1..n {
        let app = hier.app(ftscp_vclock::ProcessId(i as u32));
        let engine = app.engine();
        let kids = engine.children().len();
        if kids == 0 {
            continue;
        }
        let received = engine.child_enqueued() as f64 / kids as f64;
        if received > 0.0 {
            alpha_sum += engine.solutions_found() as f64 / (kids as f64 * received);
            alpha_count += 1;
        }
    }

    let hier_comparisons: u64 = (0..n)
        .map(|i| {
            hier.app(ftscp_vclock::ProcessId(i as u32))
                .engine()
                .comparisons()
        })
        .sum();
    let hier_max_node_comparisons = (0..n)
        .map(|i| {
            hier.app(ftscp_vclock::ProcessId(i as u32))
                .engine()
                .comparisons()
        })
        .max()
        .unwrap_or(0);
    let hier_max_node_resident = hier.peak_queue_len();

    let measurement = Measurement {
        n,
        hier_messages: hier.interval_messages(),
        central_hop_messages: central.metrics().hop_messages,
        central_sends: central.metrics().sends,
        hier_detections: hier.detections().len(),
        central_detections: central.detections().len(),
        hier_comparisons,
        hier_max_node_comparisons,
        central_comparisons: central.sink_ops(),
        hier_max_node_resident,
        hier_total_resident: hier.total_peak_resident(),
        central_resident: central.sink_stats().peak_resident,
        hier_max_edge_load: hier.metrics().max_edge_load(),
        central_max_edge_load: central.metrics().max_edge_load(),
        empirical_alpha: if alpha_count > 0 {
            alpha_sum / alpha_count as f64
        } else {
            0.0
        },
    };
    PairedRun {
        config: cfg,
        measurement,
    }
}

/// Runs a batch of paired experiments across a bounded worker pool
/// ([`crate::shard::run_sharded`], capped at the machine's available
/// parallelism), preserving input order. The simulations are independent
/// and deterministic, so parallelism changes nothing but wall-clock time.
pub fn run_paired_many(configs: &[ExperimentConfig]) -> Vec<PairedRun> {
    crate::shard::run_sharded(configs.len(), |i| run_paired(configs[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExperimentConfig {
        ExperimentConfig {
            d: 2,
            h: 3,
            p: 4,
            skip_prob: 0.0,
            solo_prob: 0.0,
            seed: 7,
        }
    }

    #[test]
    fn paired_run_detections_agree() {
        let run = run_paired(quick_cfg());
        let m = run.measurement;
        assert_eq!(m.n, 7);
        assert_eq!(
            m.hier_detections, m.central_detections,
            "both algorithms find the same occurrences"
        );
        assert_eq!(m.hier_detections, 4, "one per clean round");
    }

    #[test]
    fn hierarchical_messages_fewer_than_centralized() {
        let run = run_paired(ExperimentConfig {
            h: 4,
            ..quick_cfg()
        });
        let m = run.measurement;
        assert!(
            m.hier_messages < m.central_hop_messages,
            "hier {} < central {}",
            m.hier_messages,
            m.central_hop_messages
        );
    }

    #[test]
    fn cost_is_distributed() {
        let run = run_paired(ExperimentConfig {
            h: 4,
            ..quick_cfg()
        });
        let m = run.measurement;
        // No single hierarchical node does as much comparison work or
        // holds as many intervals as the centralized sink.
        assert!(m.hier_max_node_comparisons < m.central_comparisons);
        assert!(m.hier_max_node_resident <= m.central_resident);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let configs = [
            quick_cfg(),
            ExperimentConfig {
                h: 4,
                ..quick_cfg()
            },
            ExperimentConfig {
                d: 3,
                seed: 9,
                ..quick_cfg()
            },
        ];
        let par = run_paired_many(&configs);
        for (cfg, run) in configs.iter().zip(&par) {
            let serial = run_paired(*cfg);
            assert_eq!(
                serial.measurement.hier_messages,
                run.measurement.hier_messages
            );
            assert_eq!(
                serial.measurement.hier_detections,
                run.measurement.hier_detections
            );
            assert_eq!(
                serial.measurement.central_hop_messages,
                run.measurement.central_hop_messages
            );
        }
    }

    #[test]
    fn empirical_alpha_near_model_for_clean_rounds() {
        // Clean rounds: every child interval aggregates; per the paper's
        // model (aggregates = d·α·per-child-intervals) this measures
        // α ≈ 1/d.
        let run = run_paired(quick_cfg());
        let alpha = run.measurement.empirical_alpha;
        assert!((alpha - 0.5).abs() < 0.15, "α̂ = {alpha}");
    }
}
