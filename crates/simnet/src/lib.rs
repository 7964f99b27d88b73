//! # ftscp-simnet — deterministic asynchronous network simulation
//!
//! The paper targets "large-scale networks such as WSNs and modular
//! robotics" — real deployments we substitute with a deterministic
//! discrete-event simulator that preserves the paper's system model
//! (§II-A):
//!
//! * processes communicate **asynchronously** by message passing;
//! * channels are **reliable but non-FIFO** — every message samples its own
//!   per-hop delay, so later messages routinely overtake earlier ones;
//! * the network is an arbitrary **multi-hop topology** (not a complete
//!   graph): a message between distant nodes occupies one channel per hop,
//!   which is exactly how the paper charges message complexity for the
//!   centralized baseline (§IV-A);
//! * nodes may **crash** (crash-stop) at scheduled times;
//! * richer failure scenarios — crash-restart, network partitions,
//!   message duplication, reordering bursts, timer skew — are scripted
//!   through a deterministic, replayable [`FaultPlan`] (see [`fault`]).
//!
//! Determinism: all randomness comes from one seeded RNG, and simultaneous
//! events tie-break on a monotone sequence number, so a `(topology, apps,
//! seed)` triple always replays the identical execution — the property the
//! test-suite leans on.
//!
//! The crate is application-agnostic: [`Application`] is the behaviour
//! interface (init / message / timer callbacks), [`Simulation`] the driver,
//! [`Topology`] the graph substrate, and [`NetMetrics`] the message/hop/byte
//! accounting used to reproduce Figures 4–5.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod fault;
pub mod metrics;
mod route;
pub mod sim;
pub mod time;
pub mod topology;

pub use event::TimerToken;
pub use fault::{ActiveFaults, FaultOp, FaultPlan};
pub use metrics::{NetMetrics, NodeMetrics};
pub use sim::{Application, Ctx, LinkModel, SimConfig, Simulation};
pub use time::SimTime;
pub use topology::Topology;

/// A node of the network is a process of the system model (§II-A), so its id
/// is the logical-clock layer's [`ftscp_vclock::ProcessId`]; `NodeId` is this
/// crate's (and `ftscp-tree`'s) spelling of it.
pub use ftscp_vclock::ProcessId as NodeId;
