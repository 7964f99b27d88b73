//! Metric tables and the small statistics the bench reports with.
//!
//! The two tables below are the single source of the metric names: the
//! workloads fill values by name, the printer walks the tables (so a run
//! always prints every metric, `0` where a layer is not on the workload's
//! path), and a unit test holds `BENCHMARK.json` to them.

/// Direction in which a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: reported by every workload from the untraced
/// run, never 0, with the relative worsening of the median that counts as
/// a regression.
///
/// Every bound is at the contract's ceiling of a quarter. One bound has
/// to serve all six workloads, and on the box the bench was written on
/// the same binary's single-threaded `mem_dense` throughput ranged
/// 57 k–78 k intervals/s between runs minutes apart (README, "Sanity
/// ranges"): a tighter bound would reject changes for the neighbours'
/// behaviour.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// A per-layer metric, from the traced run. `exact` marks counts that
/// repeat bit-for-bit for a fixed seed: `--compare` requires them to be
/// identical, while timed per-layer values are informational.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "intervals_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "detect_lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
];

const fn timed(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: true,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    // The paper's own units (§IV) and the fault-tolerance headline. They
    // repeat exactly for a fixed seed, so a change that moves one did so
    // on purpose.
    exact("billed_cmp_per_interval", "count", Lower),
    exact("peak_resident_intervals", "count", Lower),
    exact("wire_bytes_per_interval", "B", Lower),
    exact("msgs_per_interval", "count", Lower),
    exact("sim_detect_lat_p50_us", "sim-us", Lower),
    exact("sim_detect_lat_p90_us", "sim-us", Lower),
    exact("sim_recovery_us", "sim-us", Lower),
    exact("failed_share", "ratio", Lower),
    // vclock
    timed("vclock.compare_ns", "ns/call", Lower),
    exact("vclock.clone_deep", "count", Lower),
    exact("vclock.clone_logical", "count", Lower),
    // intervals
    timed("intervals.bank.enqueue_ns", "ns/call", Lower),
    exact("intervals.bank.gate_attempts", "count", Higher),
    exact("intervals.bank.gate_hit_ratio", "ratio", Higher),
    exact("intervals.bank.swept", "count", Lower),
    exact("intervals.bank.pruned", "count", Lower),
    exact("intervals.bank.solutions", "count", Higher),
    timed("intervals.aggregate_ns", "ns/call", Lower),
    exact("intervals.codec.bytes_stateful", "B/interval", Lower),
    exact("intervals.codec.bytes_standalone", "B/interval", Lower),
    // core
    timed("core.engine.leaf_ns", "ns/call", Lower),
    timed("core.engine.inner_ns", "ns/call", Lower),
    timed("core.engine.root_ns", "ns/call", Lower),
    timed("core.hier.feed_ns", "ns/feed", Lower),
    timed("core.hier.self_ns", "ns/feed", Lower),
    timed("core.monitor.observe_local_ns", "ns/call", Lower),
    timed("core.monitor.on_message_ns", "ns/call", Lower),
    exact("core.monitor.msgs_out", "count", Lower),
    exact("core.membership.re_report_msgs", "count", Lower),
    exact("core.membership.re_report_bytes", "B", Lower),
    timed("core.registry.ingest_ns", "ns/event", Lower),
    exact("core.registry.touch_ratio", "ratio", Lower),
    timed("core.registry.build_s", "s", Lower),
    // simnet
    exact("simnet.sends", "count", Lower),
    exact("simnet.delivered", "count", Lower),
    exact("simnet.hop_messages", "count", Lower),
    exact("simnet.lost", "count", Lower),
    timed("simnet.deliveries_per_wall_s", "1/s", Higher),
    exact("simnet.peak_queue_len", "count", Lower),
    // tree, workload
    timed("tree.build_us", "us", Lower),
    timed("workload.build_s", "s", Lower),
    // net
    timed("net.wire.encode_ns", "ns/msg", Lower),
    timed("net.wire.decode_ns", "ns/msg", Lower),
    timed("net.frame.roundtrip_ns", "ns/frame", Lower),
    timed("net.client.send_event_ns", "ns/call", Lower),
    timed("net.node.syscalls_per_interval", "count", Lower),
    exact("net.node.interval_frames", "count", Lower),
    exact("net.node.standalone_frames", "count", Lower),
    exact("net.node.reconnects", "count", Lower),
    // Not exact: a node does not count the bytes of the read that also
    // finds the peer closed, and whether `Fin` and the close arrive in one
    // read is timing.
    timed("net.node.bytes_received", "B", Lower),
    timed("net.node.residual_us", "us", Lower),
    timed("net.node.spawn_connect_s", "s", Lower),
    // tails of the end-to-end latency samples: they do not repeat within a
    // tenth on a shared box, so they carry no bound
    timed("tail.detect_lat_p90_us", "us", Lower),
    timed("tail.detect_lat_p99_us", "us", Lower),
    timed("tail.detect_lat_max_us", "us", Lower),
    exact("tail.sim_detect_lat_p99_us", "sim-us", Lower),
    exact("tail.sim_detect_lat_max_us", "sim-us", Lower),
    // validity of the run itself
    timed("harness.samples", "count", Higher),
    timed("harness.passes", "count", Higher),
    timed("harness.pass_iqr_pct", "%", Lower),
    timed("harness.window_iqr_pct", "%", Lower),
    timed("harness.cores", "count", Higher),
    timed("harness.trace_overhead_pct", "%", Lower),
];

/// `(name, unit)` of every end-to-end metric, in table order.
pub fn end_to_end_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    END_TO_END.iter().map(|m| (m.name, m.unit))
}

/// `(name, unit)` of every per-layer metric, in table order.
pub fn per_layer_units() -> impl Iterator<Item = (&'static str, &'static str)> {
    PER_LAYER.iter().map(|m| (m.name, m.unit))
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median with the mean of the middle pair for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles of Python's `statistics.quantiles(v, n=4)`
/// (the rule the benchmark is accepted by). 0 for fewer than two values.
pub fn quartile_spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let s = sorted(values.to_vec());
    let m = s.len();
    let q = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    let med = median(&s);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 20 000 samples: p90 is the 18 000th smallest.
        let big: Vec<f64> = (0..20_000).map(f64::from).collect();
        assert_eq!(percentile(&big, 90.0), 17_999.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[5.0]), 0.0);
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in end_to_end_units().chain(per_layer_units()) {
            assert!(ok_name(name), "bad metric name {name}");
            assert!(ok_unit(unit), "bad unit {unit} of {name}");
            assert!(seen.insert(name), "duplicate metric {name}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and workloads this binary prints. Skipped when the file is
    /// not where a checkout has it (the test then has nothing to hold).
    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let Ok(text) = std::fs::read_to_string(path) else {
            return;
        };
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("name")
                        .to_string()
                })
                .collect()
        };
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(names("workloads"), crate::workloads::NAMES);
        for (why, j) in crate::workloads::WHY
            .iter()
            .zip(doc.get("workloads").and_then(Json::as_arr).expect("array"))
        {
            assert_eq!(j.get("why").and_then(Json::as_str), Some(*why));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert_eq!(
            doc.get("paths").and_then(Json::as_arr).map(<[Json]>::len),
            Some(1),
            "the bench is one directory"
        );
        for (m, j) in END_TO_END
            .iter()
            .zip(doc.get("end_to_end").and_then(Json::as_arr).expect("array"))
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        for (m, j) in PER_LAYER
            .iter()
            .zip(doc.get("per_layer").and_then(Json::as_arr).expect("array"))
        {
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
        }
    }
}
