//! # ftscp-baselines — the algorithms the paper compares against
//!
//! Three families of comparators, all implemented from scratch:
//!
//! * [`centralized`] — the **centralized repeated detection algorithm**
//!   \[12\] (Kshemkalyani, *Repeated detection of conjunctive predicates in
//!   distributed executions*, IPL 111(9), 2011): a sink maintains `n`
//!   queues, every process ships every local interval to the sink
//!   (multi-hop over the spanning tree), and the sink runs the same
//!   sweep/solve/prune loop. This is the paper's Table I / Figures 4–5
//!   comparator — equivalent in detections, centralized in cost, and not
//!   fault-tolerant (a sink failure kills the monitoring).
//! * [`garg_waldecker`] — the classic **one-shot** detectors:
//!   `Definitely(Φ)` \[7\] and `Possibly(Φ)` \[8\]. They stop after the
//!   first detection ("will hang after the initial detection", §I), which
//!   is exactly the deficiency Figure 2 exhibits — reproduced in tests.
//! * [`lattice`] — a brute-force **global-state-lattice oracle**: exact
//!   `Possibly`/`Definitely` decided by exhaustive consistent-cut
//!   enumeration. Exponential, only usable for small executions, and
//!   therefore the perfect independent ground truth for the test suite
//!   (it shares no code with the interval-based detectors).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod centralized;
pub mod garg_waldecker;
pub mod lattice;

pub use centralized::{CentralizedDeployment, CentralizedDetector};
pub use garg_waldecker::{OneShotDefinitely, OneShotPossibly};
pub use lattice::LatticeOracle;
