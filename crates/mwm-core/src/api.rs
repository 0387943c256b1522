//! The `MatchingSolver` trait: the one entry point every algorithm implements.
//!
//! The workspace grew several entry points with incompatible shapes — the
//! dual-primal solver, two baselines, and the offline substrates. This trait
//! unifies them behind a single fallible, budget-aware signature so the bench
//! harness, the examples and future backends (sharded, async, multi-machine)
//! can drive any of them as a `Box<dyn MatchingSolver>`:
//!
//! ```
//! use mwm_core::{DualPrimalSolver, MatchingSolver, ResourceBudget};
//! use mwm_graph::Graph;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1, 3.0);
//! g.add_edge(2, 3, 1.0);
//!
//! let solver: Box<dyn MatchingSolver> = Box::new(DualPrimalSolver::default());
//! let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
//! assert!(report.matching.is_valid(&g));
//! ```

use crate::budget::ResourceBudget;
use crate::error::MwmError;
use crate::report::SolveReport;
use mwm_graph::{BMatching, Graph};
use mwm_lp::DualSnapshot;

/// A weighted b-matching solver under the paper's resource model.
///
/// Implementations must return a *feasible* b-matching (validated by
/// `report.matching.is_valid(graph)`) or an error; they must never panic on
/// any well-formed [`Graph`]. Resource consumption is recorded in the
/// report's [`mwm_mapreduce::ResourceTracker`] and checked against `budget` —
/// exceeding a limit is reported as [`MwmError::BudgetExceeded`].
pub trait MatchingSolver {
    /// Stable, human-readable identifier used by the solver registry
    /// (`"dual-primal"`, `"streaming-greedy"`, ...).
    fn name(&self) -> &str;

    /// Solves weighted b-matching on `graph` within `budget`.
    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError>;
}

/// The state a warm start resumes from: the previous epoch's exported dual
/// point plus a feasible primal hint (the repaired previous matching).
///
/// This is the seam the dynamic matching subsystem plugs into: epoch `t`'s
/// [`crate::DualPrimalSolver::solve_warm`] returns its final duals beside the
/// report, and epoch `t+1` feeds them back through the same call.
///
/// Both halves are advisory. The duals seed the covering loop so it starts
/// near feasibility instead of from zero (skipping the `O(p)` sampling rounds
/// of a cold initial solution); the hint seeds the primal bound β. A solver
/// must produce a correct result for *any* warm state — stale duals and an
/// infeasible hint may cost rounds, never correctness.
#[derive(Clone, Debug, Default)]
pub struct WarmStartState {
    /// The dual point exported by the previous solve (the second half of
    /// [`crate::DualPrimalSolver::solve_warm`]'s result).
    pub duals: DualSnapshot,
    /// A b-matching believed feasible on the current graph (the dynamic
    /// matcher passes the previous matching with dead edges dropped). Solvers
    /// validate it and ignore it when infeasible.
    pub hint: BMatching,
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::BMatching;
    use mwm_mapreduce::ResourceTracker;

    /// A trivial solver proving the trait is object safe and implementable
    /// outside the built-in set.
    struct EmptySolver;

    impl MatchingSolver for EmptySolver {
        fn name(&self) -> &str {
            "empty"
        }

        fn solve(&self, _graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
            let tracker = ResourceTracker::new();
            budget.check_tracker(&tracker)?;
            Ok(SolveReport::new(self.name(), BMatching::new(), tracker))
        }
    }

    #[test]
    fn trait_objects_work() {
        let solver: Box<dyn MatchingSolver> = Box::new(EmptySolver);
        let g = Graph::new(3);
        let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(report.solver, "empty");
        assert!(report.matching.is_empty());
    }
}
