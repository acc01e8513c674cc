//! # pax-bench — regenerating every table and figure of the paper
//!
//! This crate holds the evaluation harness:
//!
//! * [`catalog`] — the 16 trained models of Table I (4 datasets × 4
//!   families; the two Pendigits regressors are trained but, as in the
//!   paper, not implemented in hardware because their accuracy is
//!   useless), with fixed seeds and per-model hyper-parameters;
//! * [`table1`], [`table2`], [`table3`] — the paper's tables;
//! * [`fig1`], [`fig2`], [`fig3`] — the paper's figures as CSV series
//!   plus terminal summaries;
//! * [`proxy`] — the §III-B area-proxy validation (Pearson correlation
//!   between `Σ AREA(BM)` and synthesized weighted-sum area over 1000
//!   random weighted sums);
//! * [`studies`] — shared runner executing the cross-layer framework on
//!   every hardware-feasible model;
//! * [`explore`] — exhaustive-grid versus evolutionary search at
//!   matched evaluation budgets (the `BENCH_explore.json` study);
//! * [`obs`] — a journalled NSGA-II study plus read-back verification
//!   of the `pax_obs` search journal and evaluation-phase spans;
//! * [`prune_eval`] — rebuild-pipeline versus overlay candidate
//!   evaluation throughput (the `BENCH_prune_eval.json` study);
//! * [`delta_eval`] — one chained delta session versus a new session
//!   per candidate at steady state (the `BENCH_delta_eval.json` study);
//! * [`coeff_eval`] — stacked coefficient+pruning overlay versus the
//!   rebuild oracle on the joint graded-gene grid (the
//!   `BENCH_coeff_eval.json` study);
//! * [`fabric_eval`] — in-process evaluation versus evaluation routed
//!   through a serve-engine tenant on the shared worker pool (the
//!   `BENCH_fabric_eval.json` study);
//! * [`paired`] — what those studies share: bit-identity checks and
//!   paired timing with a median ratio and its interquartile range.
//!
//! The `paper` binary exposes all of it:
//!
//! ```text
//! cargo run -p pax-bench --release --bin paper -- table1
//! cargo run -p pax-bench --release --bin paper -- all --out results/
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod coeff_eval;
pub mod delta_eval;
pub mod explore;
pub mod fabric_eval;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod obs;
pub mod paired;
pub mod proxy;
pub mod prune_eval;
pub mod quantsweep;
pub mod studies;
pub mod table1;
pub mod table2;
pub mod table3;
