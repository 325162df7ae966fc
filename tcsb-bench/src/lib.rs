//! # tcsb-bench — the repository's benchmark
//!
//! Four workloads drive the simulator the way its users do (crawl
//! campaign, request replay, sharded stress slice, what-if recovery), each
//! in a process of its own, timed from outside through public functions
//! only. An untraced run reports the end-to-end metrics; a separate traced
//! run reports the per-layer ones: engine, protocol and analysis counts of
//! the workload, host time per layer call from harness spans, and
//! fixed-count kernels over single layers. See `README.md` beside this
//! crate for the tables and how the metrics are expected to interact.

pub mod actors;
pub mod calib;
pub mod compare;
pub mod host;
pub mod json;
pub mod kernels;
pub mod metrics;
pub mod report;
pub mod run;
pub mod span;
pub mod stats;
pub mod workloads;
