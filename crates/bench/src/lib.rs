//! Experiment harness reproducing every table and figure of the paper's
//! evaluation (§7), plus the two summarized unit experiments.
//!
//! Each experiment is a function in [`experiments`] with a thin binary
//! wrapper (`cargo run -p aggcache-bench --release --bin table1`, …).
//! Shared infrastructure:
//!
//! * [`rig`] — builds the APB-1 dataset and cache managers;
//! * [`stream`] — runs a query stream against a manager configuration and
//!   collects the paper's metrics;
//! * [`report`] — plain-text table formatting and outcome tallies;
//! * [`sweep`] — the one `main` of the six `fig_*` sweep binaries.
//!
//! Run everything at once with `--bin repro_all` (writes a combined
//! summary).

#![warn(missing_docs)]

pub mod args;
pub mod experiments;
pub mod report;
pub mod rig;
pub mod stream;
pub mod sweep;
pub mod trace;
