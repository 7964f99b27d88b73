//! # ftscp-workload — synthetic distributed executions
//!
//! The paper's evaluation is parameterized by `n` (processes), `p`
//! (intervals per process) and `α` (the probability that intervals from `d`
//! children can be aggregated one level up). There is no public trace
//! dataset for such executions, so this crate generates them:
//!
//! * [`ExecutionBuilder`] — an explicit event-level DSL (internal events,
//!   predicate toggles, message send/receive) that computes vector clocks
//!   with the textbook rules. Used to encode the paper's worked examples
//!   (Figure 2, Figure 3) *as real executions* and to hand-craft edge
//!   cases in tests.
//! * [`RandomExecution`] — seeded random executions with a round/pulse
//!   structure: each round, a random subset of processes raises its local
//!   predicate and gossips through a round coordinator, which guarantees
//!   the overlap condition among participants; skipped or "solo" (non-
//!   communicating) intervals inject rounds where `Definitely(Φ)` fails.
//!   Participation/solo probabilities steer the effective `α`.
//! * [`scenarios`] — ready-made executions for the paper's figures.
//!
//! The output type [`Execution`] carries the per-process interval
//! sequences (what the detection algorithms consume), a causally
//! consistent interleaving order for feeding on-line detectors, and the
//! execution's events as a log of [`Step`]s: process, kind (tick, send or
//! receive) and the predicate after it, with no clock. The interval bounds
//! are the only clocks it stores, as the paper's cost model (§IV) charges
//! one timestamp per interval rather than per event.
//! [`Execution::events`] replays the per-process event histories with
//! their stamps for the consumers that need them: the brute-force lattice
//! oracle in `ftscp-baselines` and the [`diagram`] renderer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod diagram;
pub mod execution;
pub mod random;
pub mod scenarios;
pub mod threshold;

pub use builder::ExecutionBuilder;
pub use execution::{EventRecord, Execution, Step, StepKind};
pub use random::RandomExecution;
pub use threshold::{GossipPattern, SensorFleet};
