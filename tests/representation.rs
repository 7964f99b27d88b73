//! Representation invariance: changing how intervals are *represented* —
//! cold vs per-connection delta wire encoding, full vs aggregate sweep
//! scheduling —
//! must not change *what is detected*. Each property pushes
//! a random execution through multiple representations and demands
//! byte-identical [`detection_fingerprint`]s, identical solution
//! sequences, and identical per-bank deletion decisions.

use ftscp::core::faultcheck::detection_fingerprint;
use ftscp::core::{ConnCodec, HierarchicalDetector};
use ftscp::intervals::codec::{decode_interval_delta, interval_to_bytes_delta, Reader};
use ftscp::intervals::{Interval, QueueBank, SweepMode};
use ftscp::tree::SpanningTree;
use ftscp::workload::{Execution, RandomExecution};
use proptest::prelude::*;
use std::collections::BTreeMap;

type Coverages = Vec<Vec<(u32, u64)>>;

/// One detector run's observable outcome: everything that must be
/// representation-invariant, plus the billed comparison count.
#[derive(Debug, PartialEq)]
struct Outcome {
    fingerprint: u64,
    coverages: Coverages,
    /// Deletion decisions summed over every node's queue bank: heads
    /// discarded by the sweep (lines 12/14/16) and heads removed by the
    /// Eq. (10) prune (lines 23–33). The aggregate gate may only *skip
    /// redundant comparisons*, never change which heads get deleted.
    swept: u64,
    pruned: u64,
}

/// Runs the hierarchical detector over `intervals` and returns its
/// outcome and the clock-comparison ops billed.
fn detect(exec: &Execution, intervals: &[Interval], mode: SweepMode) -> (Outcome, u64) {
    let tree = SpanningTree::balanced_dary(exec.n, 3);
    let mut det = HierarchicalDetector::new(&tree).with_sweep_mode(mode);
    for iv in intervals {
        det.feed(iv.clone());
    }
    let coverages = det
        .root_solutions()
        .iter()
        .map(|d| d.coverage.iter().map(|r| (r.process.0, r.seq)).collect())
        .collect();
    let stats = det.bank_stats_total();
    (
        Outcome {
            fingerprint: detection_fingerprint(det.root_solutions()),
            coverages,
            swept: stats.swept,
            pruned: stats.pruned,
        },
        det.ops().get(),
    )
}

fn random_exec(n: usize, rounds: usize, skip: u32, noise: u32, seed: u64) -> Execution {
    RandomExecution::builder(n)
        .intervals_per_process(rounds)
        .skip_prob(f64::from(skip) * 0.1)
        .noise_msg_prob(f64::from(noise) * 0.1)
        .seed(seed)
        .build()
}

/// Round-trips every interval through the cold path: each one a
/// standalone frame, decoded with no connection state at all.
fn via_cold_frames(intervals: &[Interval]) -> Vec<Interval> {
    intervals
        .iter()
        .map(|iv| {
            decode_interval_delta(&mut Reader::new(&interval_to_bytes_delta(iv)), None)
                .expect("cold roundtrip")
        })
        .collect()
}

/// Round-trips every interval through per-source [`ConnCodec`] streams —
/// one encoder/decoder pair per originating process, frames decoded in
/// FIFO order, exactly as a tree edge would carry them. Returns the
/// decoded stream and the total encoded payload bytes.
fn via_delta_streams(intervals: &[Interval]) -> (Vec<Interval>, usize) {
    let mut conns: BTreeMap<u32, (ConnCodec, ConnCodec)> = BTreeMap::new();
    let mut total = 0usize;
    let decoded = intervals
        .iter()
        .map(|iv| {
            let (tx, rx) = conns.entry(iv.source.0).or_default();
            let mut buf = Vec::new();
            tx.encode(iv, &mut buf);
            total += buf.len();
            rx.decode(&mut Reader::new(&buf)).expect("delta roundtrip")
        })
        .collect();
    (decoded, total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Standalone frames and per-connection delta streams are
    /// interchangeable: the decoded streams are identical
    /// interval-for-interval, and detection over either stream produces
    /// byte-identical fingerprints and the same solution sequence.
    #[test]
    fn codec_choice_never_changes_detection(
        (n, rounds) in (2usize..9, 1usize..7),
        (skip, noise) in (0u32..4, 0u32..5),
        seed in 0u64..10_000,
    ) {
        let exec = random_exec(n, rounds, skip, noise, seed);
        let original: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
        let cold = via_cold_frames(&original);
        let (delta, _) = via_delta_streams(&original);
        prop_assert_eq!(&cold, &original, "standalone frames are the identity");
        prop_assert_eq!(&delta, &original, "delta streams are the identity");

        let (out_cold, _) = detect(&exec, &cold, SweepMode::default());
        let (out_delta, _) = detect(&exec, &delta, SweepMode::default());
        prop_assert_eq!(out_cold, out_delta, "detection outcome diverged across codecs");
    }

    /// The `⊓`-summary-gated aggregate engine every deployment runs
    /// detects exactly what the paper-unit `Full` reference detects: same
    /// fingerprint, same solution sequences, and the same deletion (sweep
    /// + Eq. (10) prune) decisions at every node, while billing no more
    /// clock-comparison work.
    #[test]
    fn sweep_mode_never_changes_detection(
        (n, rounds) in (2usize..9, 2usize..7),
        (skip, noise) in (0u32..4, 0u32..5),
        seed in 0u64..10_000,
    ) {
        let exec = random_exec(n, rounds, skip, noise, seed);
        let original: Vec<Interval> = exec.intervals_interleaved().into_iter().cloned().collect();
        let (out_full, ops_full) = detect(&exec, &original, SweepMode::Full);
        let (out_agg, ops_agg) = detect(&exec, &original, SweepMode::Aggregate);
        prop_assert_eq!(&out_agg, &out_full, "aggregate sweep outcome diverged");
        // `≤`, not `<`: on a two-queue bank of width-2 clocks a gate miss
        // plus its one-word fallback can bill exactly the reference's
        // early-exit total. The strict saving is pinned where it is real —
        // `ftscp_sim`'s grid and the bank's own differential test.
        prop_assert!(
            ops_agg <= ops_full,
            "aggregate sweep billed more ops ({} > {})", ops_agg, ops_full
        );
    }
}

/// "The default has a gate": a default-constructed bank runs the aggregate
/// engine, and a default-constructed detector over a tree with ≥ 3-queue
/// banks actually consults the `⊓`-summary gate.
#[test]
fn default_engine_is_the_gated_aggregate_sweep() {
    assert_eq!(QueueBank::new(3).sweep_mode(), SweepMode::Aggregate);

    let exec = random_exec(13, 4, 0, 0, 7);
    let tree = SpanningTree::balanced_dary(exec.n, 3);
    let mut det = HierarchicalDetector::new(&tree);
    for iv in exec.intervals_interleaved() {
        det.feed(iv.clone());
    }
    let stats = det.bank_stats_total();
    assert!(
        stats.gate_hits + stats.gate_misses > 0,
        "default sweep mode never consulted the summary gate"
    );
}

/// The default engine decides each overlap test on what its `min` side
/// covers and takes, per visit, the restricted row or the `⊓`-gate,
/// whichever bills less; either way it detects exactly what the `n`-wide
/// `Full` reference detects. Over a 4-ary tree and a central sink at
/// n ∈ {16, 64, 256}, dense and sparse, with noise messages: equal
/// fingerprints and solution sequences, the sink's wide bank consulting
/// the gate on dense rounds, and — once a gate pass bills more than a leaf's parent's
/// rows read (n ≥ 64) — some leaf's parent never consulting it.
#[test]
fn restricted_rows_and_the_gate_detect_like_full() {
    use ftscp::baselines::CentralizedDetector;
    use ftscp::intervals::SlotId;

    for n in [16usize, 64, 256] {
        for (skip, solo) in [(0.0, 0.0), (0.3, 0.2)] {
            let exec = RandomExecution::builder(n)
                .intervals_per_process(4)
                .skip_prob(skip)
                .solo_prob(solo)
                .noise_msg_prob(0.4)
                .seed(n as u64)
                .build();
            let what = format!("n = {n}, skip {skip}, solo {solo}");
            let intervals: Vec<Interval> =
                exec.intervals_interleaved().into_iter().cloned().collect();

            let tree = SpanningTree::balanced_dary(n, 4);
            let run = |mode| {
                let mut det = HierarchicalDetector::new(&tree).with_sweep_mode(mode);
                for iv in &intervals {
                    det.feed(iv.clone());
                }
                det
            };
            let (full, agg) = (run(SweepMode::Full), run(SweepMode::default()));
            assert_eq!(
                detection_fingerprint(agg.root_solutions()),
                detection_fingerprint(full.root_solutions()),
                "tree, {what}"
            );
            assert_eq!(agg.solution_counts(), full.solution_counts(), "{what}");
            let (fs, gs) = (full.bank_stats_total(), agg.bank_stats_total());
            assert_eq!((fs.swept, fs.pruned), (gs.swept, gs.pruned), "{what}");
            if n >= 64 {
                let gateless_parent = tree.nodes().into_iter().any(|node| {
                    tree.children(node)
                        .iter()
                        .any(|&c| tree.children(c).is_empty())
                        && {
                            let s = agg.checkpoint_node(node).expect("alive").bank_stats();
                            s.gate_hits + s.gate_misses == 0 && s.enqueued > 0
                        }
                });
                assert!(gateless_parent, "no leaf's parent took rows only, {what}");
            }

            let mut sink = CentralizedDetector::new(n);
            let mut reference = QueueBank::new(n).with_sweep_mode(SweepMode::Full);
            let mut expected = Vec::new();
            for iv in &intervals {
                sink.feed(iv.clone());
                expected.extend(reference.enqueue(SlotId(iv.source.0), iv.clone()));
            }
            assert_eq!(sink.solutions(), &expected[..], "sink, {what}");
            if skip == 0.0 {
                // Sparse rounds leave too few live heads for the gate to
                // pay at n = 256; dense ones fill the sink.
                assert!(sink.stats().gate_hits > 0, "the sink never gated, {what}");
            }
            assert_eq!(
                (sink.stats().swept, sink.stats().pruned),
                (reference.stats().swept, reference.stats().pruned),
                "{what}"
            );
        }
    }
}
