//! Post-hoc invariant checking for faulty runs.
//!
//! Fault-injection tests need more than "it didn't crash": after a run
//! under a [`FaultPlan`](ftscp_simnet::FaultPlan) they assert that
//!
//! 1. **safety survived the faults** — every detection emitted anywhere,
//!    by any (possibly since-promoted or since-crashed) root, still
//!    satisfies pairwise `overlap` (Eq. 2) over the concrete *local*
//!    intervals it claims to cover ([`verify_detections`]);
//! 2. **no interval was silently dropped** — a monitor that stayed alive
//!    observed its entire local schedule and holds no forever-unacked
//!    reports ([`verify_no_silent_drops`]);
//! 3. **the run was deterministic** — two runs with the same seed and the
//!    same plan produce byte-identical detection sequences, compared via
//!    [`detection_fingerprint`].

use crate::deploy::Deployment;
use crate::report::GlobalDetection;
use ftscp_intervals::Interval;
use ftscp_vclock::ProcessId;
use ftscp_workload::Execution;

/// Checks every detection against the ground-truth execution: each
/// coverage ref must name a real local interval, and the referenced local
/// intervals must pairwise satisfy `overlap` (Eq. 2) — the Theorem 1
/// safety property, which no amount of crashing, partitioning,
/// duplication or reordering may violate. Returns all violations (empty =
/// pass).
pub fn verify_detections(exec: &Execution, detections: &[GlobalDetection]) -> Vec<String> {
    let lookup = |p: ProcessId, seq: u64| -> Option<Interval> {
        exec.intervals
            .get(p.index())
            .and_then(|ivs| ivs.get(seq as usize))
            .cloned()
    };
    let mut violations = Vec::new();
    for (i, det) in detections.iter().enumerate() {
        let mut members = Vec::new();
        let mut bad_ref = false;
        for r in &det.coverage {
            match lookup(r.process, r.seq) {
                Some(iv) => members.push(iv),
                None => {
                    violations.push(format!(
                        "detection #{i} at {} covers unknown interval {r:?}",
                        det.at_node
                    ));
                    bad_ref = true;
                }
            }
        }
        if bad_ref {
            continue;
        }
        if !ftscp_intervals::definitely_holds(&members) {
            violations.push(format!(
                "detection #{i} at {} (t={:?}) covering {:?} violates overlap",
                det.at_node, det.time, det.coverage
            ));
        }
    }
    violations
}

/// Checks that no currently-alive monitor silently lost work: its local
/// interval schedule must be fully drained (every interval the process
/// produced was observed and fed to the engine) and its unacked buffer
/// empty (everything it reported reached — and was acknowledged by — a
/// parent, or it is a root with nothing pending). Run this only after the
/// deployment has fully drained. Returns all violations (empty = pass).
pub fn verify_no_silent_drops(dep: &Deployment) -> Vec<String> {
    let mut violations = Vec::new();
    for p in ProcessId::all(dep.len()) {
        if !dep.is_alive(p) {
            continue; // a crashed node's losses are expected, not silent
        }
        let app = dep.app(p);
        if app.pending_schedule_len() > 0 {
            violations.push(format!(
                "{p}: {} scheduled local intervals never observed",
                app.pending_schedule_len()
            ));
        }
        if app.unacked_count() > 0 {
            violations.push(format!(
                "{p}: {} reported intervals never acknowledged",
                app.unacked_count()
            ));
        }
    }
    violations
}

/// FNV-1a fingerprint of a detection sequence: order, reporting node,
/// simulated time, solution index, and full coverage all contribute.
/// Identical seed + identical fault plan ⇒ identical fingerprint; any
/// divergence in what was detected, where, or when changes it.
pub fn detection_fingerprint(detections: &[GlobalDetection]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for det in detections {
        mix(u64::from(det.at_node.0));
        mix(det.time.0);
        mix(det.solution.index);
        mix(det.coverage.len() as u64);
        for r in &det.coverage {
            mix(u64::from(r.process.0));
            mix(r.seq);
        }
    }
    h
}

/// Time-blind variant of [`detection_fingerprint`]: order, reporting
/// node, solution index, and full coverage contribute — detection *times*
/// do not. This is the cross-backend anchor: a simulated run and a real
/// TCP run of the same workload detect the same solutions in the same
/// per-root order (the queue bank is confluent — see
/// `crates/intervals/tests/exhaustive.rs`), but their clocks are
/// incomparable (`SimTime` vs wall time), so the differential test in
/// `ftscp-net` compares this fingerprint.
pub fn solution_fingerprint(detections: &[GlobalDetection]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    };
    for det in detections {
        mix(u64::from(det.at_node.0));
        mix(det.solution.index);
        mix(det.coverage.len() as u64);
        for r in &det.coverage {
            mix(u64::from(r.process.0));
            mix(r.seq);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_intervals::Solution;
    use ftscp_simnet::SimTime;
    use ftscp_vclock::VectorClock;

    fn iv(p: u32, seq: u64, lo: Vec<u32>, hi: Vec<u32>) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo),
            VectorClock::from_components(hi),
        )
    }

    fn exec_two_overlapping() -> Execution {
        // Two processes, one interval each, mutually overlapping (each
        // interval's min precedes the other's max).
        let a = iv(0, 0, vec![1, 1], vec![3, 1]);
        let b = iv(1, 0, vec![1, 1], vec![1, 3]);
        Execution {
            n: 2,
            intervals: vec![vec![a], vec![b]],
            completion_order: vec![(ProcessId(0), 0), (ProcessId(1), 0)],
            ..Default::default()
        }
    }

    fn detection_over(exec: &Execution, refs: &[(u32, u64)]) -> GlobalDetection {
        let members: Vec<Interval> = refs
            .iter()
            .map(|&(p, s)| exec.intervals[p as usize][s as usize].clone())
            .collect();
        GlobalDetection::new(
            ProcessId(0),
            Solution {
                intervals: members,
                index: 0,
            },
            SimTime(7),
        )
    }

    #[test]
    fn valid_detection_passes() {
        let exec = exec_two_overlapping();
        let det = detection_over(&exec, &[(0, 0), (1, 0)]);
        assert!(verify_detections(&exec, &[det]).is_empty());
    }

    #[test]
    fn unknown_coverage_is_reported() {
        let exec = exec_two_overlapping();
        let mut det = detection_over(&exec, &[(0, 0)]);
        det.coverage[0].seq = 99;
        let violations = verify_detections(&exec, &[det]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("unknown interval"));
    }

    #[test]
    fn non_overlapping_coverage_is_reported() {
        // x entirely precedes y: no overlap, Definitely must not hold.
        let x = iv(0, 0, vec![1, 0], vec![2, 0]);
        let y = iv(1, 0, vec![3, 3], vec![3, 5]);
        let exec = Execution {
            n: 2,
            intervals: vec![vec![x], vec![y]],
            completion_order: vec![(ProcessId(0), 0), (ProcessId(1), 0)],
            ..Default::default()
        };
        let det = detection_over(&exec, &[(0, 0), (1, 0)]);
        let violations = verify_detections(&exec, &[det]);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("violates overlap"));
    }

    #[test]
    fn solution_fingerprint_ignores_time_only() {
        let exec = exec_two_overlapping();
        let d1 = detection_over(&exec, &[(0, 0), (1, 0)]);
        let mut d1_later = d1.clone();
        d1_later.time = SimTime::from_secs(99);
        // Same solution at a different time: time-blind equal, full not.
        assert_eq!(
            solution_fingerprint(&[d1.clone()]),
            solution_fingerprint(&[d1_later.clone()])
        );
        assert_ne!(
            detection_fingerprint(&[d1.clone()]),
            detection_fingerprint(&[d1_later])
        );
        // Different coverage still changes the time-blind fingerprint.
        let d2 = detection_over(&exec, &[(0, 0)]);
        assert_ne!(solution_fingerprint(&[d1]), solution_fingerprint(&[d2]));
    }

    #[test]
    fn fingerprint_is_order_and_content_sensitive() {
        let exec = exec_two_overlapping();
        let d1 = detection_over(&exec, &[(0, 0)]);
        let d2 = detection_over(&exec, &[(1, 0)]);
        assert_eq!(
            detection_fingerprint(&[d1.clone(), d2.clone()]),
            detection_fingerprint(&[d1.clone(), d2.clone()])
        );
        assert_ne!(
            detection_fingerprint(&[d1.clone(), d2.clone()]),
            detection_fingerprint(&[d2, d1])
        );
        assert_ne!(detection_fingerprint(&[]), 0, "FNV offset basis");
    }
}
