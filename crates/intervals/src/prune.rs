//! Repeated-detection prune rules (Eqs. (9) and (10), Theorems 3–4).
//!
//! After a solution set `X = {x_0 .. x_l}` is detected, at least one head
//! must be removed from its queue or the detector would report the same
//! solution forever. The *exact* rule (Eq. (9)) removes `x_i` iff no other
//! member's successor can still overlap it:
//!
//! ```text
//! remove x_i  iff  ∀ x_j ∈ X (j ≠ i): min(succ(x_j)) ≮ max(x_i)
//! ```
//!
//! but `min(succ(x_j))` is unknown until the successor arrives. The paper
//! therefore prunes with the on-line approximation (Eq. (10)):
//!
//! ```text
//! remove x_i  iff  ∀ x_j ∈ X (j ≠ i): max(x_j) ≮ max(x_i)
//! ```
//!
//! which is **safe** (Theorem 3: `max(x_j) < min(succ(x_j))`, so Eq. (10)
//! implies Eq. (9)) and **live** (Theorem 4: the heads' `max` cuts cannot
//! form a `<`-cycle, so at least one head always qualifies).
//!
//! The bank's engine evaluates Eq. (10) as
//! [`approximate_removals_aggregate`], which uses the same observation the
//! other way round: a member whose `max` is strictly the largest value of
//! some component can disqualify no one, so on a wide solution only the
//! few members that lead nothing are compared against. A local member's
//! `max` is an event, and one component places an event against any cut,
//! so a local disqualifier is compared on its own process's component.

use crate::interval::{Interval, IntervalKind};
use ftscp_vclock::{order, OpCounter, VectorClock};

/// Which prune rule a detector uses after each solution.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PruneRule {
    /// Eq. (10): `∀ j≠i: max(x_j) ≮ max(x_i)`. The paper's on-line rule.
    #[default]
    Approximate,
    /// Eq. (9) evaluated with hindsight: requires successor knowledge, so it
    /// is only usable by the offline/ablation detectors in
    /// [`crate::offline`].
    ExactWithHindsight,
}

/// Indices (into `solution`) of the heads Eq. (10) removes.
///
/// Guaranteed non-empty for any non-empty solution set (Theorem 4); every
/// returned index is safe to remove (Theorem 3).
pub fn approximate_removals(solution: &[&Interval], ops: &OpCounter) -> Vec<usize> {
    let mut removable = Vec::new();
    for (i, x) in solution.iter().enumerate() {
        let mut qualifies = true;
        for (j, y) in solution.iter().enumerate() {
            if i == j {
                continue;
            }
            // max(x_j) < max(x_i) disqualifies x_i.
            if order::strictly_less_counted(&y.hi, &x.hi, ops) {
                qualifies = false;
                break;
            }
        }
        if qualifies {
            removable.push(i);
        }
    }
    removable
}

/// Solution sizes below this skip the strict-leader pass inside
/// [`approximate_removals_aggregate`] and run the full chunked pairwise
/// row. The pass costs a fold over every member's `max` and a
/// `⌈n/8⌉`-word scan whatever `k` is; the row it shortens costs at most
/// `k(k−1)` comparisons, most of which settle in their first word because
/// the max-cuts of a solution are mostly concurrent. The pass pays off on
/// wide banks — a tenant that watches many processes, and above all the
/// centralized sink, where `k = n` — and the threshold keeps every narrower
/// bank (each node of a hierarchy of fan-out ≤ 7) billing the plain row.
pub const PRUNE_GATE_MIN_MEMBERS: usize = 9;

/// [`approximate_removals`] with the disqualifiers that cannot disqualify
/// anyone struck out first — **identical removal decisions**, different
/// cost.
///
/// A member whose `max` is strictly the largest value of some component
/// `c` disqualifies no one: `max(x_j)[c] > max(x_i)[c]` for every other
/// `i`, so `max(x_j) ≮ max(x_i)` (the idea behind Theorem 4). From
/// `k ≥` [`PRUNE_GATE_MIN_MEMBERS`] members on, the per-component top two
/// of the members' `max` clocks are folded once (merge work, unbilled
/// exactly like interval aggregation), one billed scan of one unit per
/// [`CHUNK_WIDTH`](ftscp_vclock::order::CHUNK_WIDTH)-component word marks
/// every member that strictly leads some component, and each member's
/// Eq. (10) row then runs against the unmarked members only. On a wide
/// solution nearly every member leads its own process's component, so the
/// `k(k−1)` row shrinks to a handful of comparisons. Smaller solutions run
/// the full row.
///
/// A test of the row whose disqualifier is a local interval reads that
/// process's component of both `max` clocks and bills one unit for it;
/// the rest, and a tie the one component cannot settle, run the
/// word-chunked comparator.
///
/// The indices are appended to `removable`, ascending; `buffers` holds the
/// strict-leader pass's rows, so a caller that keeps both allocates
/// nothing once they have grown to its widest solution.
pub fn approximate_removals_aggregate(
    solution: &[&Interval],
    ops: &OpCounter,
    buffers: &mut PruneBuffers,
    removable: &mut Vec<usize>,
) {
    let gated = solution.len() >= PRUNE_GATE_MIN_MEMBERS;
    if gated {
        buffers.strict_leaders(solution, ops);
    }
    let may_disqualify = |j: usize| !gated || !buffers.leads[j];
    // The own-component reads' bill, added to the shared counter once.
    let mut bill = 0;
    removable.extend((0..solution.len()).filter(|&i| {
        let x = solution[i];
        !solution
            .iter()
            .enumerate()
            .any(|(j, y)| j != i && may_disqualify(j) && max_less(y, x, ops, &mut bill))
    }));
    if bill > 0 {
        ops.add(bill);
    }
}

/// The process whose event `max(x)` is, when `x` is a local interval of a
/// process inside the clock's width: the one component that places it.
fn own_component(x: &Interval) -> Option<usize> {
    match (x.kind, &x.coverage[..]) {
        (IntervalKind::Local, [r]) if r.process.index() < x.hi.len() => Some(r.process.index()),
        _ => None,
    }
}

/// Eq. (10)'s test `max(y) < max(x)` read on one component, when one
/// decides it; `None` leaves it to the `n`-wide order.
///
/// When `y` is local at process `p`, `max(y)` is the timestamp of `p`'s
/// event `f_y`, and every `max(x)` is a consistent cut (an event's
/// timestamp or a meet of such), which contains `f_y` iff its `p`-th
/// component reaches `max(y)[p]` (Fidge–Mattern). So the test is `<` at
/// `p`; on a tie it is strict iff `x` is local at another process (a
/// different event, after `f_y`), and a tie with an aggregated `x` is left
/// open. The rule holds for the clocks of a vector-clocked execution and
/// their `⊓`s, not for arbitrary clock data (`docs/ALGORITHM.md`).
pub(crate) fn own_component_less(y: &Interval, x: &Interval) -> Option<bool> {
    let p = own_component(y)?;
    let (a, b) = (y.hi.get(p), x.hi.get(p));
    if a != b {
        return Some(a < b);
    }
    own_component(x).map(|q| q != p)
}

/// Eq. (10)'s test `max(y) < max(x)`: [`own_component_less`], adding one
/// unit to `bill` for its one component, or else the word-chunked
/// comparator, billed to `ops` — never more than the comparator bills for
/// the same test. Debug builds check every verdict against the `n`-wide
/// order.
fn max_less(y: &Interval, x: &Interval, ops: &OpCounter, bill: &mut u64) -> bool {
    let strict = match own_component_less(y, x) {
        Some(strict) => {
            *bill += 1;
            strict
        }
        None => order::strictly_less_chunked_counted(&y.hi, &x.hi, ops),
    };
    debug_assert_eq!(
        strict,
        order::strictly_less(&y.hi, &x.hi),
        "own-component verdict diverged for {y:?} against {x:?}: \
         max(y) is not an event's timestamp or max(x) not a cut"
    );
    strict
}

/// The rows of [`approximate_removals_aggregate`]'s strict-leader pass,
/// kept by the caller from call to call.
#[derive(Clone, Debug, Default)]
pub struct PruneBuffers {
    /// Per component: (top, owner of top, second).
    top: Vec<(u32, usize, u32)>,
    /// Per member: whether it strictly leads some component.
    leads: Vec<bool>,
}

impl PruneBuffers {
    /// Sets `leads[j]` iff `max(x_j)` is strictly the largest value of some
    /// component. The per-component top two are folded unbilled (a tie for
    /// the top lands in the second place, so a tied component leads no
    /// one); the scan that reads them off bills one unit per 8-component
    /// word.
    fn strict_leaders(&mut self, solution: &[&Interval], ops: &OpCounter) {
        use ftscp_vclock::order::CHUNK_WIDTH;

        // Zero is a safe floor for the second place once two members are
        // folded, and a column of zeros leads no one.
        let width = solution[0].hi.len();
        self.top.clear();
        self.top.resize(width, (0u32, usize::MAX, 0u32));
        for (j, y) in solution.iter().enumerate() {
            for (t, &v) in self.top.iter_mut().zip(y.hi.components()) {
                if v > t.0 {
                    *t = (v, j, t.0);
                } else if v > t.2 {
                    t.2 = v;
                }
            }
        }
        ops.add(width.div_ceil(CHUNK_WIDTH) as u64);
        self.leads.clear();
        self.leads.resize(solution.len(), false);
        for &(first, owner, second) in &self.top {
            if first > second {
                self.leads[owner] = true;
            }
        }
    }
}

/// Eq. (9) with hindsight: given each member's successor's low bound (where
/// known), remove `x_i` iff `∀ j≠i: min(succ(x_j)) ≮ max(x_i)`. A member
/// whose successor is not yet known (`None`) conservatively counts as "its
/// successor might overlap anything" only if treat_unknown_as_blocking is
/// the caller's policy; here an unknown successor **blocks** removal of all
/// other members, matching the information available on-line.
pub fn exact_removals(
    solution: &[&Interval],
    successor_lows: &[Option<&VectorClock>],
    ops: &OpCounter,
) -> Vec<usize> {
    assert_eq!(solution.len(), successor_lows.len());
    let mut removable = Vec::new();
    for (i, x) in solution.iter().enumerate() {
        let mut qualifies = true;
        for (j, _) in solution.iter().enumerate() {
            if i == j {
                continue;
            }
            match successor_lows[j] {
                Some(succ_lo) => {
                    // min(succ(x_j)) < max(x_i) means x_i could still pair
                    // with x_j's successor — keep it.
                    if order::strictly_less_counted(succ_lo, &x.hi, ops) {
                        qualifies = false;
                        break;
                    }
                }
                None => {
                    // Successor unknown: it could still overlap x_i.
                    qualifies = false;
                    break;
                }
            }
        }
        if qualifies {
            removable.push(i);
        }
    }
    removable
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftscp_vclock::ProcessId;

    /// [`approximate_removals_aggregate`] on fresh buffers.
    fn aggregate_removals(solution: &[&Interval], ops: &OpCounter) -> Vec<usize> {
        let mut removable = Vec::new();
        approximate_removals_aggregate(solution, ops, &mut PruneBuffers::default(), &mut removable);
        removable
    }

    fn iv(p: u32, seq: u64, lo: &[u32], hi: &[u32]) -> Interval {
        Interval::local(
            ProcessId(p),
            seq,
            VectorClock::from_components(lo.to_vec()),
            VectorClock::from_components(hi.to_vec()),
        )
    }

    #[test]
    fn at_least_one_removal_from_any_solution() {
        // Heads with mutually concurrent max cuts: all qualify.
        let a = iv(0, 0, &[1, 0], &[5, 2]);
        let b = iv(1, 0, &[0, 1], &[2, 5]);
        let ops = OpCounter::new();
        let rm = approximate_removals(&[&a, &b], &ops);
        assert_eq!(rm, vec![0, 1], "concurrent maxes: both removable");
    }

    #[test]
    fn dominated_max_is_kept() {
        // max(a) < max(b): a's queue may hold a successor that pairs with b,
        // so b must be kept; a is removable.
        let a = iv(0, 0, &[1, 0], &[2, 1]);
        let b = iv(1, 0, &[1, 1], &[3, 4]);
        let ops = OpCounter::new();
        let rm = approximate_removals(&[&a, &b], &ops);
        assert_eq!(rm, vec![0], "only the <-minimal max is removed");
    }

    #[test]
    fn singleton_solution_always_removable() {
        let a = iv(0, 0, &[1], &[2]);
        let ops = OpCounter::new();
        assert_eq!(approximate_removals(&[&a], &ops), vec![0]);
    }

    #[test]
    fn exact_rule_with_known_successors_can_remove_more() {
        // max(a) < max(b), so Eq. (10) keeps b. But if a's successor starts
        // causally after b ends, Eq. (9) also removes b.
        let a = iv(0, 0, &[1, 0], &[2, 1]);
        let b = iv(1, 0, &[1, 1], &[3, 4]);
        let succ_a_lo = VectorClock::from_components(vec![5, 6]);
        let ops = OpCounter::new();
        let rm = exact_removals(&[&a, &b], &[Some(&succ_a_lo), None], &ops);
        // b removable: succ(a) does not start before b's end... check:
        // min(succ(a)) = [5,6] ≮ max(b) = [3,4]  → b qualifies.
        // a not removable: succ(b) unknown.
        assert_eq!(rm, vec![1]);
    }

    #[test]
    fn exact_rule_unknown_successors_block_everything() {
        let a = iv(0, 0, &[1, 0], &[5, 2]);
        let b = iv(1, 0, &[0, 1], &[2, 5]);
        let ops = OpCounter::new();
        let rm = exact_removals(&[&a, &b], &[None, None], &ops);
        assert!(rm.is_empty());
    }

    /// An execution's intervals in arrival order, as this crate's
    /// `Interval` (the workload crate links its own build of it).
    fn interleaved(exec: &ftscp_workload::Execution) -> Vec<Interval> {
        exec.intervals_interleaved()
            .into_iter()
            .map(|x| Interval::local(x.source, x.seq, x.lo.clone(), x.hi.clone()))
            .collect()
    }

    /// The summary-gated prune must make *identical* removal decisions to
    /// the pairwise rule — below, at, and above the gate threshold —
    /// across pseudo-random solution sets. Their members are intervals of
    /// random executions, at distinct processes and of random rounds, a
    /// quarter of them aggregated with another process's interval: the
    /// maxes are event timestamps and meets of them, as the row requires,
    /// in every order relation a draw can give.
    #[test]
    fn aggregate_removals_equal_pairwise_removals() {
        use ftscp_workload::RandomExecution;

        let mut state = 0xD1B54A32D192ED03u64;
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let execs: Vec<_> = (1..=20)
            .map(|n| {
                let exec = RandomExecution::builder(n)
                    .intervals_per_process(6)
                    .noise_msg_prob(0.5)
                    .seed(n as u64)
                    .build();
                interleaved(&exec)
            })
            .collect();
        // One set of buffers across every round, as a bank keeps them:
        // rows left by a wider or longer solution must not leak into the
        // next one.
        let (mut buffers, mut reused) = (PruneBuffers::default(), Vec::new());
        for round in 0..300 {
            let n = 1 + (rng() % 20) as usize;
            let k = 1 + (rng() % 14) as usize % n; // spans the gate threshold
            let exec = &execs[n - 1];
            // Process `p`'s interval of a random round.
            let pick = |p: usize, r: u64| {
                let of: Vec<_> = exec.iter().filter(|x| x.source.index() == p).collect();
                of[r as usize % of.len()].clone()
            };
            let members: Vec<Interval> = (0..k)
                .map(|p| match rng() % 4 {
                    0 if n > 1 => {
                        let other = pick((p + 1 + rng() as usize % (n - 1)) % n, rng());
                        let set = [pick(p, rng()), other];
                        crate::aggregate::aggregate(&set, ProcessId(p as u32), 0, 1)
                    }
                    _ => pick(p, rng()),
                })
                .collect();
            let refs: Vec<&Interval> = members.iter().collect();
            let ops = OpCounter::new();
            reused.clear();
            approximate_removals_aggregate(&refs, &ops, &mut buffers, &mut reused);
            assert_eq!(
                reused,
                approximate_removals(&refs, &ops),
                "divergence in round {round} (k = {k}, n = {n})"
            );
        }
    }

    /// The one-component verdict equals the `n`-wide order on every
    /// ordered pair of a local `y` and a local or aggregated `x`, over
    /// executions dense, sparse (skip 0.3 / solo 0.2) and noisy, from 2 to
    /// 40 processes. The aggregates are `⊓` of real solutions — each whole
    /// and each half — of a bank over all the processes.
    #[test]
    fn own_component_verdicts_equal_the_n_wide_order_on_executions() {
        use crate::aggregate::aggregate;
        use crate::bank::{QueueBank, SlotId};
        use ftscp_workload::RandomExecution;

        // Verdicts read on the one component: decided by it, by the tie
        // with another process's local max, and left to the n-wide order.
        let (mut decided, mut tied, mut open) = (0, 0, 0);
        let shapes = [(0.0, 0.0, 0.0), (0.3, 0.2, 0.0), (0.0, 0.0, 0.6)];
        for n in [2usize, 3, 5, 9, 16, 40] {
            for (shape, (skip, solo, noise)) in shapes.into_iter().enumerate() {
                let exec = RandomExecution::builder(n)
                    .intervals_per_process(8)
                    .skip_prob(skip)
                    .solo_prob(solo)
                    .noise_events(2)
                    .noise_msg_prob(noise)
                    .seed(7 * n as u64 + shape as u64)
                    .build();
                let locals = interleaved(&exec);
                let mut aggregates = Vec::new();
                let mut bank = QueueBank::new(n);
                for x in &locals {
                    for s in bank.enqueue(SlotId(x.source.0), x.clone()) {
                        let (a, b) = s.intervals.split_at(s.intervals.len() / 2);
                        for part in [&s.intervals[..], a, b] {
                            if !part.is_empty() {
                                aggregates.push(aggregate(part, ProcessId(0), 0, 1));
                            }
                        }
                    }
                }
                assert!(skip > 0.0 || !aggregates.is_empty(), "n = {n}: no solution");
                for y in &locals {
                    for x in locals.iter().chain(&aggregates) {
                        let verdict = own_component_less(y, x);
                        assert_eq!(
                            verdict.unwrap_or_else(|| order::strictly_less(&y.hi, &x.hi)),
                            order::strictly_less(&y.hi, &x.hi),
                            "n = {n}, shape {shape}: {y:?} against {x:?}"
                        );
                        match verdict {
                            Some(_) if y.hi.get(y.source.index()) == x.hi.get(y.source.index()) => {
                                tied += 1
                            }
                            Some(_) => decided += 1,
                            None => open += 1,
                        }
                    }
                }
            }
        }
        assert!(
            decided > 0 && tied > 0 && open > 0,
            "{decided} / {tied} / {open}"
        );
    }

    /// Solution sets of real executions — dense, sparse (skip 0.3 / solo
    /// 0.2) and with noise messages — over banks of `k ∈ 9..=16` of the
    /// `n` processes and over all of them: the strict-leader pass must
    /// make the pairwise row's decisions on every one. A sparse execution
    /// rarely yields a solution that wide (all its members must join one
    /// round: 1 in 2⁹ at `k = 9`), so every shape also contributes, per
    /// `r`, the set of the members' `r`-th intervals; Eq. (10) reads only
    /// the maxes, so the two rules must agree on those too.
    #[test]
    fn aggregate_removals_equal_pairwise_on_random_executions() {
        use crate::bank::{QueueBank, SlotId};
        use ftscp_workload::RandomExecution;

        let agree = |set: &[Interval], what: &str| {
            let refs: Vec<&Interval> = set.iter().collect();
            let ops = OpCounter::new();
            assert_eq!(
                aggregate_removals(&refs, &ops),
                approximate_removals(&refs, &ops),
                "{what}"
            );
        };
        let n = 24;
        let shapes = [(0.0, 0.0, 0.0), (0.3, 0.2, 0.0), (0.0, 0.0, 0.6)];
        for (shape, (skip, solo, noise)) in shapes.into_iter().enumerate() {
            let exec = RandomExecution::builder(n)
                .intervals_per_process(12)
                .skip_prob(skip)
                .solo_prob(solo)
                .noise_events(2)
                .noise_msg_prob(noise)
                .seed(shape as u64 + 1)
                .build();
            let mut solutions = 0;
            for k in (9..=16).chain([n]) {
                let mut bank = QueueBank::new(k);
                for x in exec.intervals_interleaved() {
                    if x.source.index() < k {
                        let x = Interval::local(x.source, x.seq, x.lo.clone(), x.hi.clone());
                        for s in bank.enqueue(SlotId(x.source.0), x) {
                            agree(
                                &s.intervals,
                                &format!("shape {shape}, k = {k}, #{}", s.index),
                            );
                            solutions += 1;
                        }
                    }
                }
                for r in 0.. {
                    let set: Vec<Interval> = ProcessId::all(k)
                        .filter_map(|p| exec.intervals_of(p).get(r))
                        .map(|x| Interval::local(x.source, x.seq, x.lo.clone(), x.hi.clone()))
                        .collect();
                    if set.is_empty() {
                        break;
                    }
                    agree(&set, &format!("shape {shape}, k = {k}, r = {r}"));
                }
            }
            assert!(
                skip > 0.0 || solutions > 0,
                "shape {shape}: no solution drawn"
            );
        }
    }

    /// Two members tie for the top of every component, so no member
    /// strictly leads anything: the pass marks no one and every member
    /// runs the whole pairwise row. The two are aggregates whose `max` is
    /// the cut `⟨5, …, 5⟩` that holds every other member's end, which is
    /// its process's fifth event, having heard each other process's first.
    #[test]
    fn tied_maxes_fall_back_to_the_pairwise_row() {
        let k = PRUNE_GATE_MIN_MEMBERS;
        let members: Vec<Interval> = (0..k)
            .map(|p| {
                let mut hi = vec![1u32; k];
                hi[p] = 5;
                let x = iv(p as u32, 0, &vec![0u32; k], &hi);
                if p < 2 {
                    Interval {
                        hi: VectorClock::from_components(vec![5u32; k]),
                        kind: IntervalKind::Aggregated { level: 1 },
                        ..x
                    }
                } else {
                    x
                }
            })
            .collect();
        let refs: Vec<&Interval> = members.iter().collect();
        let ops = OpCounter::new();
        let rm = aggregate_removals(&refs, &ops);
        assert_eq!(rm, approximate_removals(&refs, &OpCounter::new()));
        assert_eq!(rm, (2..k).collect::<Vec<_>>(), "the tied tops are kept");
        // Nine components are two words. The scan bills them once. Each
        // tied top tests the other (equal: both words) and then a local
        // member, which precedes it (both words): 4 each. Each local
        // member tests both tops (greater: both words each) and the other
        // six local members on their own components (one each): 10 each.
        assert_eq!(ops.get(), 2 + 2 * 4 + (k as u64 - 2) * 10);
    }

    /// A dense solution whose members each strictly lead their own
    /// process's component: the pass marks every member, so the prune
    /// bills the scan's `⌈n/8⌉` words and compares no pair.
    #[test]
    fn aggregate_removals_gate_engages_on_wide_solutions() {
        let k = 2 * PRUNE_GATE_MIN_MEMBERS - 1;
        let members: Vec<Interval> = (0..k)
            .map(|p| {
                let mut lo = vec![0u32; k];
                let mut hi = vec![1u32; k];
                lo[p] = 1;
                hi[p] = 9;
                iv(p as u32, 0, &lo, &hi)
            })
            .collect();
        let refs: Vec<&Interval> = members.iter().collect();
        let ops = OpCounter::new();
        let rm = aggregate_removals(&refs, &ops);
        assert_eq!(
            rm,
            (0..k).collect::<Vec<_>>(),
            "all concurrent: all removable"
        );
        assert_eq!(ops.get(), k.div_ceil(8) as u64);
        // The pairwise rule bills k−1 comparisons per member instead.
        let pair_ops = OpCounter::new();
        approximate_removals(&refs, &pair_ops);
        assert!(
            ops.get() < pair_ops.get(),
            "gated prune ({}) must beat pairwise ({}) at k = {k}",
            ops.get(),
            pair_ops.get()
        );
    }

    /// Theorem 3 (safety), spot check: every Eq. (10) removal also satisfies
    /// Eq. (9) whenever successors are known and consistent with Theorem 2
    /// (max(x) < min(succ(x))).
    #[test]
    fn approximate_subset_of_exact() {
        let a = iv(0, 0, &[2, 1], &[4, 2]);
        let b = iv(1, 0, &[1, 2], &[2, 4]);
        let succ_a_lo = VectorClock::from_components(vec![5, 3]);
        let succ_b_lo = VectorClock::from_components(vec![3, 5]);
        let ops = OpCounter::new();
        let approx = approximate_removals(&[&a, &b], &ops);
        let exact = exact_removals(&[&a, &b], &[Some(&succ_a_lo), Some(&succ_b_lo)], &ops);
        for idx in &approx {
            assert!(exact.contains(idx), "Eq.10 removal {idx} must satisfy Eq.9");
        }
    }
}
