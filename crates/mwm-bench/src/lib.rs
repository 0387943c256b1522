//! Experiment harness for experiments E1–E15.
//!
//! The paper (SPAA 2015) contains no empirical tables — its claims are
//! theorems. Each experiment here measures one of those claims on synthetic
//! workloads. Experiments drive the solvers through the engine API
//! (`mwm_core::MatchingSolver`) and return structured
//! [`ExperimentReport`] values; the `experiments` binary renders them as
//! aligned text tables and the Criterion benches in `benches/` time the
//! underlying kernels.

pub mod experiments;
pub mod json;
pub mod report;
pub mod workloads;

pub use experiments::{run_experiment, EXPERIMENT_IDS};
pub use report::ExperimentReport;
