//! # rim-bench
//!
//! The experiment harness reproducing the RIM paper's evaluation: one
//! module (and one binary) per figure of §6, shared workload builders, and
//! text reporting of paper-vs-measured results. System cost (§6.2.9) is
//! measured by the repository benchmark, `perfbench/`.
//!
//! Run a single figure:
//! ```sh
//! cargo run --release -p rim-bench --bin fig11_distance_accuracy
//! ```
//! or everything (writes the EXPERIMENTS.md data):
//! ```sh
//! cargo run --release -p rim-bench --bin all_figures
//! ```
//! Set `RIM_FAST=1` to run reduced workloads.

#![forbid(unsafe_code)]

pub mod env;
pub mod figs;
pub mod fusion;
pub mod kernel;
pub mod latency;
pub mod obs;
pub mod report;
pub mod scenarios;
pub mod serve;

/// True when the `RIM_FAST` environment variable asks for reduced
/// workloads.
pub fn fast_mode() -> bool {
    std::env::var_os("RIM_FAST").is_some()
}
