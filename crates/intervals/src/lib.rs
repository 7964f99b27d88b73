//! # ftscp-intervals — intervals, overlap, aggregation, repeated detection
//!
//! This crate implements the theoretical machinery of the paper:
//!
//! * [`Interval`] — a span of a process's execution in which its local
//!   predicate holds, identified by the vector timestamps of its first and
//!   last events (`min(x)` / `max(x)`, here [`Interval::lo`] /
//!   [`Interval::hi`]). Aggregated intervals (whose bounds are *cuts*, not
//!   events) use the same type.
//! * [`overlap()`](overlap::overlap) — the pairwise condition
//!   `min(x) < max(y) ∧ min(y) < max(x)` whose closure over a set `X` is
//!   exactly `Definitely(Φ)` restricted to the processes covered by `X`
//!   (Eq. (2) of the paper, after Garg–Waldecker).
//! * [`aggregate()`](aggregate::aggregate) — the aggregation function `⊓` of Eqs. (5)/(6):
//!   component-wise max of lows, component-wise min of highs. Theorem 1 /
//!   Lemma 1 (machine-checkable via [`theorems`]) justify substituting
//!   `⊓(X)` for the whole set `X` one level up the hierarchy.
//! * [`QueueBank`] — the queue-based repeated-detection engine shared by
//!   every node of the hierarchical algorithm *and* by the centralized
//!   baseline: Algorithm 1's lines (1)–(17) (pairwise pruning to a mutually
//!   overlapping set of queue heads), lines (18)–(22) (solution emission),
//!   and lines (23)–(33) (the Eq. (10) prune that makes detection
//!   *repeated*).
//! * [`InOrder`] — one sender's interval stream put back in sequence
//!   order, for the tree monitor and the centralized sink.
//! * [`prune`] — the prune rules as pure functions: the implementable
//!   approximation Eq. (10) and the exact-with-hindsight rule Eq. (9), used
//!   by the ablation benchmarks.
//!
//! Everything is instrumented with [`ftscp_vclock::OpCounter`] so the
//! benchmark harness can reproduce the paper's `O(n)`-per-comparison time
//! accounting (§IV-C).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bank;
pub mod codec;
pub mod in_order;
pub mod interval;
pub mod offline;
pub mod overlap;
pub mod prune;
pub mod solution;
pub mod summary;
pub mod theorems;

pub use aggregate::aggregate;
pub use bank::{render_trace, BankEvent, BankStats, QueueBank, SlotId, SweepMode, TraceId};
pub use in_order::InOrder;
pub use interval::{Interval, IntervalKind, IntervalRef};
pub use overlap::{definitely_holds, overlap, possibly_holds};
pub use prune::PruneRule;
pub use solution::Solution;
pub use summary::SweepSummary;
