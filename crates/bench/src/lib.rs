//! # ftscp-bench — reproduction harness
//!
//! One binary per table/figure of the paper plus the three criterion
//! comparisons `EXPERIMENTS.md` reports. Per-operation time (clock
//! compare, `⊓`, bank enqueue, engine step, wire encode/decode) is
//! measured on real workload inputs by `ftscp_bench`'s `per_layer`
//! metrics, not here. Run everything with:
//!
//! ```text
//! cargo run -p ftscp-bench --release --bin repro_table1
//! cargo run -p ftscp-bench --release --bin repro_fig4
//! cargo run -p ftscp-bench --release --bin repro_examples
//! cargo bench -p ftscp-bench
//! ```
//!
//! | target | reproduces |
//! |---|---|
//! | `repro_table1` | Table I (complexity comparison), analytic + measured |
//! | `repro_fig4` | Figures 4 and 5 (messages vs `h`, `p = 20`, `α ∈ {0.1, 0.45}`; `d = 2`, then `d = 4`) |
//! | `repro_examples` | Figures 1–3 (worked examples as real executions) |
//! | bench `table1_time` | Table I's time column as wall-clock |
//! | bench `ablation_prune` | Eq. (9) vs Eq. (10) prune-rule ablation |
//! | bench `deployment_e2e` | hierarchical vs centralized deployments end to end |

#![forbid(unsafe_code)]
