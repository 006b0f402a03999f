//! The repo benchmark: five pinned single-core workloads, four
//! end-to-end metrics measured through each workload's front door, and
//! a traced run that times every layer beneath that door from outside.
//!
//! See `README.md` beside this crate for the workloads, the metrics
//! and their bounds, and how to run it.

pub mod host;
pub mod inputs;
pub mod measure;
pub mod probes;
pub mod rng;
pub mod spans;
pub mod stats;
pub mod workloads;
