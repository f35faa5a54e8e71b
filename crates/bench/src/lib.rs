//! # rim-bench
//!
//! The experiment harness reproducing the RIM paper's evaluation: one
//! module per figure of §6, shared workload builders, and text reporting
//! of paper-vs-measured results. System cost (§6.2.9) is measured by the
//! repository benchmark, `perfbench/`.
//!
//! Run every figure (the EXPERIMENTS.md data), or name some:
//! ```sh
//! cargo run --release -p rim-bench --bin figures
//! cargo run --release -p rim-bench --bin figures -- fig11 fig12
//! ```
//! Set `RIM_FAST=1` to run reduced workloads.

#![forbid(unsafe_code)]

pub mod env;
pub mod figs;
#[cfg(test)]
mod fusion;
pub mod report;
#[cfg(test)]
mod scenarios;

/// True when the `RIM_FAST` environment variable asks for reduced
/// workloads.
pub fn fast_mode() -> bool {
    std::env::var_os("RIM_FAST").is_some()
}
