//! # ftscp-vclock — vector clocks and the happens-before partial order
//!
//! This crate provides the logical-time substrate used by every other crate
//! in the `ftscp` workspace: [`VectorClock`] (Fidge/Mattern vector clocks),
//! the [`ClockOrd`] partial order induced by Lamport's *happens-before*
//! relation, and [`ProcessId`] identifiers.
//!
//! ## Model
//!
//! A distributed system has `n` processes `P_0 .. P_{n-1}` communicating
//! asynchronously over (possibly non-FIFO) channels. Each process maintains a
//! vector `V` of `n` counters updated by the classic rules:
//!
//! 1. before an internal event at `P_i`: `V[i] += 1`;
//! 2. before sending a message: `V[i] += 1`, then piggyback `V` on the
//!    message;
//! 3. on receiving a message stamped `U`: `V = max(V, U)` component-wise,
//!    then `V[i] += 1`, then deliver.
//!
//! Two events `e`, `f` satisfy `e ≺ f` (happens-before) iff
//! `V(e) < V(f)` where `<` is the strict component order: every component of
//! `V(e)` is `≤` the matching component of `V(f)` and at least one is
//! strictly smaller.
//!
//! Detection algorithms in the parent crates also manipulate vector
//! timestamps that identify *cuts* of the execution rather than events
//! (the bounds of aggregated intervals, Theorem 1 of the paper). Cuts use the
//! same representation and the same order, so no separate type is needed.
//!
//! ## Instrumentation
//!
//! The paper's time-complexity analysis (§IV-C) counts vector-clock
//! *component comparisons* as the unit of work: comparing two length-`n`
//! vectors costs `O(n)`. [`OpCounter`] is a cheap shared counter that the
//! comparison entry points in [`order`] bump once per component inspected,
//! letting the benchmark harness reproduce Table I's time column with the
//! same cost model the paper uses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod counter;
pub mod order;
pub mod pool;
pub mod process;

pub use clock::VectorClock;
pub use counter::OpCounter;
pub use order::{concurrent, strictly_less, ClockOrd};
pub use pool::{clone_stats, reset_clone_stats};
pub use process::ProcessId;
