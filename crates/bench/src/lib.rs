//! Experiment implementations shared by the `report` binary and the
//! workspace integration tests, plus the perf-gate harness behind the
//! `gate` binary.
//!
//! One function per paper artifact — see `DESIGN.md` §3 for the full
//! experiment index and `EXPERIMENTS.md` for paper-vs-measured results.

pub mod alloc_track;
pub mod calib;
pub mod experiments;
pub mod harness;
pub mod workload;

pub use experiments::*;
