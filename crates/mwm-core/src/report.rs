//! The unified result type of the engine API.
//!
//! Every [`crate::MatchingSolver`] — the dual-primal algorithm, the baselines,
//! the offline substrates — returns the same [`SolveReport`]: the matching,
//! its weight, the resource ledger of the run, and a flat list of named
//! solver-specific statistics (e.g. the dual bound `beta` of the dual-primal
//! solver). This is what lets the bench harness and examples drive any solver
//! generically while still surfacing algorithm-specific telemetry. The
//! dual-primal solver's final dual point is not part of the report: only a
//! warm start reads it, so [`crate::DualPrimalSolver::solve_warm`] returns it
//! beside the report and a report kept for its numbers holds no dual point.

use mwm_graph::BMatching;
use mwm_mapreduce::ResourceTracker;
use std::fmt;

/// The unified output of one solve, common to every solver in the workspace.
#[derive(Clone, Debug)]
pub struct SolveReport {
    /// Name of the solver that produced the report (registry name).
    pub solver: String,
    /// The feasible b-matching found (for `b ≡ 1`, a plain matching).
    pub matching: BMatching,
    /// Total weight of [`SolveReport::matching`] in the original weight scale.
    pub weight: f64,
    /// Oracle iterations performed (dual updates without data access);
    /// 0 for solvers without an oracle loop.
    pub oracle_iterations: usize,
    /// The full resource ledger of the run. Rounds and peak space are read
    /// through [`SolveReport::rounds`]/[`SolveReport::peak_central_space`] so
    /// they can never disagree with the ledger.
    pub tracker: ResourceTracker,
    /// Named solver-specific scalars (`("beta", 41.3)`, ...).
    stats: Vec<(&'static str, f64)>,
}

impl SolveReport {
    /// Creates a report from a matching and the run's resource ledger; the
    /// weight is derived from the matching.
    pub fn new(solver: impl Into<String>, matching: BMatching, tracker: ResourceTracker) -> Self {
        let weight = matching.weight();
        SolveReport {
            solver: solver.into(),
            matching,
            weight,
            oracle_iterations: 0,
            tracker,
            stats: Vec::new(),
        }
    }

    /// Rounds of data access consumed (MapReduce rounds / streaming passes).
    pub fn rounds(&self) -> usize {
        self.tracker.rounds()
    }

    /// Peak central space (items) held between rounds.
    pub fn peak_central_space(&self) -> usize {
        self.tracker.peak_central_space()
    }

    /// Sets the oracle-iteration count (builder style).
    pub fn with_oracle_iterations(mut self, iterations: usize) -> Self {
        self.oracle_iterations = iterations;
        self
    }

    /// Attaches a named solver-specific statistic (builder style).
    pub fn with_stat(mut self, name: &'static str, value: f64) -> Self {
        self.stats.push((name, value));
        self
    }

    /// Looks up a solver-specific statistic by name.
    pub fn stat(&self, name: &str) -> Option<f64> {
        self.stats.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// All solver-specific statistics, in insertion order.
    pub fn stats(&self) -> &[(&'static str, f64)] {
        &self.stats
    }
}

impl fmt::Display for SolveReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: weight {:.3}, {} edges, rounds {}, oracle iters {}, peak space {}",
            self.solver,
            self.weight,
            self.matching.num_edges(),
            self.rounds(),
            self.oracle_iterations,
            self.peak_central_space()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::{Edge, Graph};

    fn report() -> SolveReport {
        let mut g = Graph::new(2);
        let id = g.add_edge(0, 1, 2.5);
        let mut bm = BMatching::new();
        bm.add(id, Edge::new(0, 1, 2.5), 1);
        let mut t = ResourceTracker::new();
        t.charge_round();
        t.allocate_central(7);
        SolveReport::new("test-solver", bm, t)
    }

    #[test]
    fn derived_fields_match_the_inputs() {
        let r = report();
        assert_eq!(r.solver, "test-solver");
        assert!((r.weight - 2.5).abs() < 1e-12);
        assert_eq!(r.rounds(), 1);
        assert_eq!(r.peak_central_space(), 7);
        assert_eq!(r.oracle_iterations, 0);
    }

    #[test]
    fn stats_round_trip() {
        let r = report().with_stat("beta", 1.25).with_oracle_iterations(9);
        assert_eq!(r.stat("beta"), Some(1.25));
        assert_eq!(r.stat("missing"), None);
        assert_eq!(r.oracle_iterations, 9);
        assert_eq!(r.stats().len(), 1);
    }

    #[test]
    fn display_is_informative() {
        let s = report().to_string();
        assert!(s.contains("test-solver") && s.contains("rounds 1"));
    }
}
