//! # ftscp-bench — reproduction harness
//!
//! One binary per table/figure of the paper. Per-operation time (clock
//! compare, `⊓`, bank enqueue, engine step, wire encode/decode) is
//! measured on real workload inputs by `ftscp_bench`'s `per_layer`
//! metrics, not here. Run everything with:
//!
//! ```text
//! cargo run -p ftscp-bench --release --bin repro_table1
//! cargo run -p ftscp-bench --release --bin repro_fig4
//! cargo run -p ftscp-bench --release --bin repro_examples
//! ```
//!
//! | target | reproduces |
//! |---|---|
//! | `repro_table1` | Table I (complexity comparison), analytic + measured, its time column as wall-clock, and the Eq. (9) vs Eq. (10) prune-rule ablation |
//! | `repro_fig4` | Figures 4 and 5 (messages vs `h`, `p = 20`, `α ∈ {0.1, 0.45}`; `d = 2`, then `d = 4`) |
//! | `repro_examples` | Figures 1–3 (worked examples as real executions) |

#![forbid(unsafe_code)]
