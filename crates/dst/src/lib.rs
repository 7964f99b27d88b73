//! Deterministic simulation testing (DST) for the fault-tolerant
//! detector.
//!
//! Three tools, one goal — finding protocol bugs that scripted suites
//! never reach:
//!
//! * [`campaign`] derives thousands of `(workload, topology, fault
//!   plan)` cases from seeds, runs each through the full deployment
//!   twice, and re-verifies every run with `ftscp_core::faultcheck`.
//!   A seed is a complete bug report: the entire case is a pure
//!   function of it.
//! * [`shrink`] reduces a failing case to a minimal one by a greedy
//!   delete/narrow fixpoint and renders it as a ready-to-paste
//!   regression test.
//! * [`mod@explore`] runs a handful of real `MonitorCore`s under every
//!   delivery and timer order and a small fault budget, checking what the
//!   randomized campaign cannot observe: that detections cover every live
//!   attached process, that stale adoption acks are fenced, and that the
//!   tree settles whole.
//!
//! See `docs/DST.md` for usage and the campaign/explorer split of
//! responsibilities.

pub mod campaign;
pub mod explore;
pub mod shrink;

pub use campaign::{
    run_campaign, run_case, CampaignCase, CampaignSummary, CaseReport, ViolationHook,
};
pub use explore::{explore, Class, Report, Row, MATRIX};
pub use shrink::{render_regression, shrink_case};
