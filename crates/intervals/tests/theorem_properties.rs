//! Property tests: the paper's theorems hold for arbitrary well-formed
//! interval data, and the on-line bank agrees with the offline reference.
//!
//! Arbitrary clock data need not come from any execution, so the bank
//! tests run it on a [`SweepMode::Full`] bank, whose `n`-wide order
//! assumes nothing about it; their twins feed the default engine, which
//! decides overlap on the heads' coverage, intervals of generated
//! executions.

use ftscp_intervals::offline::OfflineDetector;
use ftscp_intervals::prune::{approximate_removals, exact_removals};
use ftscp_intervals::{
    theorems, Interval, IntervalRef, PruneRule, QueueBank, SlotId, Solution, SweepMode,
};
use ftscp_vclock::{OpCounter, ProcessId, VectorClock};
use ftscp_workload::RandomExecution;
use proptest::prelude::*;

const WIDTH: usize = 5;

/// A random well-formed interval: lo is random, hi = lo + non-negative
/// deltas (with at least one strictly positive).
fn interval_strategy(p: u32) -> impl Strategy<Value = Interval> {
    (
        proptest::collection::vec(0u32..12, WIDTH),
        proptest::collection::vec(0u32..6, WIDTH),
        0u32..WIDTH as u32,
    )
        .prop_map(move |(lo, deltas, bump)| {
            let hi: Vec<u32> = lo
                .iter()
                .zip(&deltas)
                .enumerate()
                .map(|(i, (l, d))| l + d + u32::from(i as u32 == bump))
                .collect();
            Interval::local(
                ProcessId(p),
                0,
                VectorClock::from_components(lo),
                VectorClock::from_components(hi),
            )
        })
}

fn interval_set(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Interval>> {
    len.prop_flat_map(|n| {
        (0..n)
            .map(|i| interval_strategy(i as u32))
            .collect::<Vec<_>>()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorem 1: overlap(X ∪ Y) ⇔ overlap(X) ∧ overlap(Y) ∧ overlap(⊓X, ⊓Y).
    #[test]
    fn theorem1(x in interval_set(1..4), y in interval_set(1..4)) {
        let (lhs, rhs) = theorems::theorem1_sides(&x, &y);
        prop_assert_eq!(lhs, rhs);
    }

    /// Lemma 1: the d-way generalization.
    #[test]
    fn lemma1(sets in proptest::collection::vec(interval_set(1..3), 1..5)) {
        let (lhs, rhs) = theorems::lemma1_sides(&sets);
        prop_assert_eq!(lhs, rhs);
    }

    /// Eq. (7): aggregation of aggregations equals aggregation of the union.
    #[test]
    fn eq7(x in interval_set(1..4), y in interval_set(1..4)) {
        prop_assert!(theorems::eq7_holds(&x, &y));
    }

    /// Theorem 2 (first half): aggregations of overlapping sets are
    /// well-formed intervals.
    #[test]
    fn theorem2_well_formed(x in interval_set(1..5)) {
        prop_assert!(theorems::theorem2_well_formed(&x));
    }

    /// Safety (Theorem 3) via the offline detector: every emitted solution
    /// satisfies Definitely, regardless of prune rule.
    #[test]
    fn all_solutions_valid(
        seqs in proptest::collection::vec(
            proptest::collection::vec(interval_strategy(0), 0..5), 1..4),
        exact in proptest::bool::ANY,
    ) {
        // Re-sequence: each queue's intervals must be totally ordered
        // (max(x) < min(succ(x))); enforce by cumulative shifting.
        let seqs = sequence_queues(seqs);
        let rule = if exact { PruneRule::ExactWithHindsight } else { PruneRule::Approximate };
        let out = OfflineDetector::new(seqs, rule).run();
        for s in &out.solutions {
            prop_assert!(s.is_valid());
        }
    }

    /// The on-line QueueBank and the offline reference find identical
    /// solution sequences when fed queue-by-queue in any interleaving that
    /// respects queue order.
    #[test]
    fn bank_matches_offline(
        seqs in proptest::collection::vec(
            proptest::collection::vec(interval_strategy(0), 0..5), 1..4),
        seed in 0u64..1000,
    ) {
        let seqs = sequence_queues(seqs);
        let offline = OfflineDetector::new(seqs.clone(), PruneRule::Approximate).run();
        let bank = QueueBank::new(seqs.len()).with_sweep_mode(SweepMode::Full);
        let online = feed_interleaved(bank, &seqs, seed);
        prop_assert_eq!(coverages(&online), coverages(&offline.solutions));
    }

    /// The default engine and the offline reference find identical
    /// solution sequences on the per-process interval streams of generated
    /// executions — dense or with skips and solos, with noise messages —
    /// fed in any interleaving that respects queue order. Sinks of more than
    /// 8 processes take the coverage-restricted row on some visits and the
    /// `⊓`-gate on others.
    #[test]
    fn bank_matches_offline_on_executions(
        n in 2usize..41,
        rounds in 1usize..6,
        (skip, solo, noise) in (0u32..4, 0u32..3, 0u32..6),
        seed in 0u64..1000,
    ) {
        let seqs = execution_queues(n, rounds, (skip, solo, noise), seed);
        let offline = OfflineDetector::new(seqs.clone(), PruneRule::Approximate).run();
        let online = feed_interleaved(QueueBank::new(n), &seqs, seed);
        prop_assert_eq!(coverages(&online), coverages(&offline.solutions));
    }

    /// Prune soundness: the approximate on-line rule Eq. (10) never
    /// removes a head the exact rule Eq. (9) would keep, whenever the
    /// successors obey the per-queue causal order `max(x) < min(succ(x))`
    /// (Theorem 2). Approximate removals ⊆ exact removals.
    #[test]
    fn approximate_prune_subsumed_by_exact(
        members in proptest::collection::vec(
            (interval_strategy(0), proptest::collection::vec(0u32..5, WIDTH)), 2..6),
    ) {
        // Each member's successor low: strictly above its own hi in every
        // component, as causally ordered interval queues guarantee.
        let pairs: Vec<(Interval, VectorClock)> = members
            .into_iter()
            .map(|(iv, gap)| {
                let succ_lo: Vec<u32> = iv
                    .hi
                    .components()
                    .iter()
                    .zip(&gap)
                    .map(|(h, g)| h + g + 1)
                    .collect();
                (iv, VectorClock::from_components(succ_lo))
            })
            .collect();
        let solution: Vec<&Interval> = pairs.iter().map(|(iv, _)| iv).collect();
        let succ_lows: Vec<Option<&VectorClock>> =
            pairs.iter().map(|(_, lo)| Some(lo)).collect();
        let ops = OpCounter::new();
        let approx = approximate_removals(&solution, &ops);
        let exact = exact_removals(&solution, &succ_lows, &ops);
        prop_assert!(!approx.is_empty(), "Theorem 4: at least one removal");
        for i in &approx {
            prop_assert!(
                exact.contains(i),
                "Eq. (10) removed head {} which Eq. (9) keeps", i
            );
        }
    }
}

/// Rewrites queue contents so that successive intervals in the same queue
/// are causally ordered (`max(x) < min(succ(x))`), as real per-process and
/// per-subtree interval streams are (Theorem 2).
fn sequence_queues(seqs: Vec<Vec<Interval>>) -> Vec<Vec<Interval>> {
    seqs.into_iter()
        .enumerate()
        .map(|(q, seq)| {
            let mut shifted = Vec::with_capacity(seq.len());
            let mut base = vec![0u32; WIDTH];
            for (s, iv) in seq.into_iter().enumerate() {
                let lo: Vec<u32> = iv
                    .lo
                    .components()
                    .iter()
                    .zip(&base)
                    .map(|(c, b)| c + b + 1)
                    .collect();
                let hi: Vec<u32> = iv
                    .hi
                    .components()
                    .iter()
                    .zip(&base)
                    .map(|(c, b)| c + b + 1)
                    .collect();
                base = hi.clone();
                shifted.push(Interval::local(
                    ProcessId(q as u32),
                    s as u64,
                    VectorClock::from_components(lo),
                    VectorClock::from_components(hi),
                ));
            }
            shifted
        })
        .collect()
}

/// The solutions of `bank` fed `seqs` in a deterministic pseudo-random
/// interleaving (from `seed`) that respects each queue's order.
fn feed_interleaved(mut bank: QueueBank, seqs: &[Vec<Interval>], seed: u64) -> Vec<Solution> {
    let mut cursors = vec![0usize; seqs.len()];
    let mut online = Vec::new();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    loop {
        let pending: Vec<usize> = (0..seqs.len())
            .filter(|&q| cursors[q] < seqs[q].len())
            .collect();
        if pending.is_empty() {
            break;
        }
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let q = pending[(state >> 33) as usize % pending.len()];
        let iv = seqs[q][cursors[q]].clone();
        cursors[q] += 1;
        online.extend(bank.enqueue(SlotId(q as u32), iv));
    }
    online
}

fn coverages(solutions: &[Solution]) -> Vec<Vec<IntervalRef>> {
    solutions.iter().map(Solution::coverage).collect()
}

/// The per-process interval streams of a generated `n`-process execution,
/// with skip, solo and noise-message probabilities in tenths.
fn execution_queues(
    n: usize,
    rounds: usize,
    (skip, solo, noise): (u32, u32, u32),
    seed: u64,
) -> Vec<Vec<Interval>> {
    let exec = RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .skip_prob(f64::from(skip) * 0.1)
        .solo_prob(f64::from(solo) * 0.1)
        .noise_msg_prob(f64::from(noise) * 0.1)
        .seed(seed)
        .build();
    ProcessId::all(n)
        .map(|p| exec.intervals_of(p).to_vec())
        .collect()
}

/// Feeds `seqs` to a fresh `mode` bank in ten random interleavings that
/// respect queue order and asserts each finds the same solutions.
fn assert_interleaving_invariant(
    seqs: &[Vec<Interval>],
    mode: SweepMode,
    rng: &mut impl rand::Rng,
) {
    use rand::seq::SliceRandom;

    let mut reference: Option<Vec<Vec<IntervalRef>>> = None;
    for trial in 0..10 {
        let mut bank = QueueBank::new(seqs.len()).with_sweep_mode(mode);
        let mut feed: Vec<(usize, Interval)> = Vec::new();
        for (q, seq) in seqs.iter().enumerate() {
            for iv in seq {
                feed.push((q, iv.clone()));
            }
        }
        // Random interleaving that preserves per-queue order: shuffle, then
        // repeatedly take the first interval that is its queue's next.
        feed.shuffle(rng);
        let mut next = vec![0usize; seqs.len()];
        let mut ordered = Vec::new();
        while !feed.is_empty() {
            let pos = feed
                .iter()
                .position(|(q, iv)| seqs[*q][next[*q]].seq == iv.seq)
                .expect("some queue head must be feedable");
            let (q, iv) = feed.remove(pos);
            next[q] += 1;
            ordered.push((q, iv));
        }
        let mut solutions = Vec::new();
        for (q, iv) in ordered {
            solutions.extend(bank.enqueue(SlotId(q as u32), iv));
        }
        let coverages = coverages(&solutions);
        match &reference {
            None => reference = Some(coverages),
            Some(r) => assert_eq!(r, &coverages, "trial {trial} diverged"),
        }
    }
}

/// Interleaving order must not matter for the *set* of solutions: the bank
/// is deterministic given per-queue sequences.
#[test]
fn bank_interleaving_invariance() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(7);
    // Build 3 queues of causally ordered intervals with random gaps.
    let mut seqs: Vec<Vec<Interval>> = Vec::new();
    #[allow(clippy::needless_range_loop)]
    for q in 0..3u32 {
        let mut seq = Vec::new();
        let mut base = vec![0u32; WIDTH];
        for s in 0..6u64 {
            let lo: Vec<u32> = base.iter().map(|b| b + rng.gen_range(1..4)).collect();
            let hi: Vec<u32> = lo.iter().map(|l| l + rng.gen_range(0..5)).collect();
            let mut hi = hi;
            hi[q as usize] += 1; // ensure strictness somewhere
            base = hi.clone();
            seq.push(Interval::local(
                ProcessId(q),
                s,
                VectorClock::from_components(lo),
                VectorClock::from_components(hi),
            ));
        }
        seqs.push(seq);
    }
    assert_interleaving_invariant(&seqs, SweepMode::Full, &mut rng);
}

/// The default engine is interleaving-invariant on generated executions:
/// dense, sparse and noisy streams at sinks that take both the restricted
/// row and the `⊓`-gate.
#[test]
fn bank_interleaving_invariance_on_executions() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    let mut rng = StdRng::seed_from_u64(7);
    for (n, shape) in [
        (3, (0, 0, 2)),
        (8, (3, 2, 5)),
        (24, (0, 0, 5)),
        (40, (3, 2, 2)),
    ] {
        for seed in 0..3 {
            let seqs = execution_queues(n, 5, shape, seed);
            assert_interleaving_invariant(&seqs, SweepMode::default(), &mut rng);
        }
    }
}
