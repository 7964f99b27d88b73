//! `--compare A.json B.json`: did B get worse than A?
//!
//! Works on two `--out` reports. Per (workload, metric) present in both:
//!
//! * an end-to-end metric is `worse` when B's value is worse than A's by
//!   more than the metric's bound, `unresolved` when the values are
//!   within it but either run's own spread is wider than that bound — the
//!   run cannot tell — and `ok` otherwise. The spread of
//!   `intervals_per_s` is the one between passes
//!   (`harness.pass_iqr_pct`), that of `detect_lat_p50_us` the one between
//!   latency windows (`harness.window_iqr_pct`);
//! * an exact per-layer metric (a count that repeats for a fixed seed) is
//!   `worse` when it moved in its worse direction at all;
//! * a timed per-layer metric is `info`: printed with its change, never
//!   judged, because it comes from one traced run.
//!
//! More failed operations in B than in A is `worse` whatever the metrics
//! say.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, PER_LAYER};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "info",
        }
    }
}

/// By how much `b` is worse than `a`, as a share of `a` (negative when
/// `b` is better).
pub fn worsening(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if a == b {
            0.0
        } else {
            f64::INFINITY.copysign(b - a) * direction(better)
        };
    }
    (b - a) / a.abs() * direction(better)
}

fn direction(better: Better) -> f64 {
    match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    }
}

/// The rule for a metric with a bound. `spread` is the wider of the two
/// runs' own spreads of that metric, as a share.
pub fn judge_bounded(a: f64, b: f64, better: Better, bound: f64, spread: f64) -> Verdict {
    if worsening(a, b, better) > bound {
        Verdict::Worse
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The rule for a count that must repeat exactly.
pub fn judge_exact(a: f64, b: f64, better: Better) -> Verdict {
    if worsening(a, b, better) > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// The `harness.*` metric that holds a run's own spread of an end-to-end
/// metric. Set-up is timed per repetition and its spread is not in the
/// report, so it is never `unresolved`.
pub fn spread_metric(end_to_end: &str) -> Option<&'static str> {
    match end_to_end {
        "intervals_per_s" => Some("harness.pass_iqr_pct"),
        "detect_lat_p50_us" => Some("harness.window_iqr_pct"),
        _ => None,
    }
}

fn metric_value(workload: &Json, name: &str) -> Option<f64> {
    workload.get("metrics")?.get(name)?.get("value")?.as_f64()
}

/// Compares two reports; prints one line per (workload, metric) and
/// returns whether anything got worse.
pub fn compare(a: &Json, b: &Json) -> Result<bool, String> {
    let workloads = |doc: &Json| -> Result<Vec<Json>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("report has no \"workloads\" array")?
            .to_vec())
    };
    for key in ["seed", "seconds", "traced"] {
        if a.get(key) != b.get(key) {
            println!(
                "note: the reports differ in {key} ({} vs {}): exact metrics are expected to differ",
                a.get(key).map_or("?".into(), Json::render),
                b.get(key).map_or("?".into(), Json::render),
            );
        }
    }
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut any_worse = false;
    println!(
        "{:<12} {:<34} {:>16} {:>16} {:>9}  verdict",
        "workload", "metric", "A", "B", "worse by"
    );
    for a_w in &wa {
        let Some(name) = a_w.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(b_w) = wb
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        let mut row = |metric: &str, va: f64, vb: f64, change: f64, verdict: Verdict| {
            any_worse |= verdict == Verdict::Worse;
            println!(
                "{name:<12} {metric:<34} {va:>16.4} {vb:>16.4} {:>+8.2}%  {}",
                100.0 * change,
                verdict.as_str()
            );
        };
        let failed_verdict = if failed(b_w) > failed(a_w) {
            Verdict::Worse
        } else {
            Verdict::Ok
        };
        row("failed", failed(a_w), failed(b_w), 0.0, failed_verdict);
        let spread_of = |metric: &str| {
            [a_w, b_w]
                .iter()
                .filter_map(|w| metric_value(w, spread_metric(metric)?))
                .fold(0.0, f64::max)
                / 100.0
        };
        for m in END_TO_END {
            if let (Some(va), Some(vb)) = (metric_value(a_w, m.name), metric_value(b_w, m.name)) {
                let spread = spread_of(m.name);
                let verdict = judge_bounded(va, vb, m.better, m.bound, spread);
                row(m.name, va, vb, worsening(va, vb, m.better), verdict);
            }
        }
        for m in PER_LAYER {
            if let (Some(va), Some(vb)) = (metric_value(a_w, m.name), metric_value(b_w, m.name)) {
                let verdict = if m.exact {
                    judge_exact(va, vb, m.better)
                } else {
                    Verdict::Info
                };
                row(m.name, va, vb, worsening(va, vb, m.better), verdict);
            }
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_metrics_get_their_bound_and_the_spread_decides_unresolved() {
        // lower is better, bound 10 %
        assert_eq!(
            judge_bounded(100.0, 109.0, Better::Lower, 0.10, 0.02),
            Verdict::Ok
        );
        assert_eq!(
            judge_bounded(100.0, 111.0, Better::Lower, 0.10, 0.02),
            Verdict::Worse
        );
        assert_eq!(
            judge_bounded(100.0, 50.0, Better::Lower, 0.10, 0.02),
            Verdict::Ok
        );
        // higher is better: a drop is the worsening
        assert_eq!(
            judge_bounded(1000.0, 880.0, Better::Higher, 0.10, 0.0),
            Verdict::Worse
        );
        assert_eq!(
            judge_bounded(1000.0, 1500.0, Better::Higher, 0.10, 0.0),
            Verdict::Ok
        );
        // passes spread wider than the bound: within the bound is not proof
        assert_eq!(
            judge_bounded(100.0, 105.0, Better::Lower, 0.10, 0.15),
            Verdict::Unresolved
        );
        // … but beyond the bound is still worse
        assert_eq!(
            judge_bounded(100.0, 130.0, Better::Lower, 0.10, 0.15),
            Verdict::Worse
        );
    }

    #[test]
    fn every_end_to_end_metric_but_set_up_has_a_spread_in_the_report() {
        for m in END_TO_END {
            let spread = spread_metric(m.name);
            assert_eq!(spread.is_none(), m.name == "setup_s", "{}", m.name);
            if let Some(name) = spread {
                assert!(PER_LAYER.iter().any(|p| p.name == name), "{name}");
            }
        }
    }

    #[test]
    fn exact_metrics_may_not_move_in_their_worse_direction_at_all() {
        assert_eq!(judge_exact(3102.0, 3102.0, Better::Lower), Verdict::Ok);
        assert_eq!(judge_exact(3102.0, 3103.0, Better::Lower), Verdict::Worse);
        assert_eq!(judge_exact(3102.0, 2900.0, Better::Lower), Verdict::Ok);
        assert_eq!(judge_exact(0.0, 1.0, Better::Lower), Verdict::Worse);
        assert_eq!(judge_exact(0.0, 0.0, Better::Lower), Verdict::Ok);
        assert_eq!(judge_exact(0.5, 0.4, Better::Higher), Verdict::Worse);
    }
}
