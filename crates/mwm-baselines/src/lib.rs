//! Baseline algorithms the paper compares against (Section 1, Related Work).
//!
//! * [`lattanzi`] — the SPAA 2011 filtering algorithm of Lattanzi, Moseley,
//!   Suri and Vassilvitskii \[25\]: `O(p)` rounds, `O(n^{1+1/p})` space, `O(1)`
//!   approximation (1/2 for unweighted maximal matching per weight class,
//!   1/8-ish for weighted via geometric grouping). This is the algorithm whose
//!   approximation gap motivates the paper's question ("is a `(1-ε)`
//!   approximation achievable without storing the entire graph?").
//! * [`streaming_greedy`] — the classical one-pass semi-streaming weighted
//!   matching with replacement (Feigenbaum et al. \[16\] / McGregor \[29\]):
//!   1 pass, `O(n)` memory, constant approximation.
//!
//! Both run through the `mwm-mapreduce` simulators so that experiment E5 can
//! compare rounds, space and quality against the dual-primal solver under the
//! same accounting.
//!
//! Both baselines implement the engine API's
//! [`MatchingSolver`](mwm_core::MatchingSolver) trait via the
//! [`LattanziFiltering`] and [`StreamingGreedy`] solver types, so they are
//! selectable through the umbrella crate's `SolverRegistry` and drivable as
//! `Box<dyn MatchingSolver>` next to the dual-primal solver. The free
//! functions remain available for callers that want the algorithm-specific
//! result structs.

pub mod lattanzi;
pub mod streaming_greedy;

pub use lattanzi::{lattanzi_filtering, LattanziFiltering, LattanziResult};
pub use streaming_greedy::{streaming_greedy_matching, StreamingGreedy, StreamingGreedyResult};

#[cfg(test)]
mod trait_tests {
    use super::*;
    use mwm_core::{MatchingSolver, MwmError, ResourceBudget};
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn both_baselines_work_as_trait_objects() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(60, 300, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let solvers: Vec<Box<dyn MatchingSolver>> =
            vec![Box::new(LattanziFiltering::default()), Box::new(StreamingGreedy::default())];
        for solver in solvers {
            let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
            assert!(report.matching.is_valid(&g), "{}", solver.name());
            assert!(report.weight > 0.0, "{}", solver.name());
            assert_eq!(report.solver, solver.name());
        }
    }

    #[test]
    fn constructors_reject_invalid_parameters() {
        assert!(matches!(
            LattanziFiltering::new(0.5, 0.2, 1),
            Err(MwmError::InvalidConfig { param: "p", .. })
        ));
        assert!(matches!(
            LattanziFiltering::new(2.0, 1.5, 1),
            Err(MwmError::InvalidConfig { param: "eps", .. })
        ));
        assert!(matches!(
            StreamingGreedy::new(-0.1),
            Err(MwmError::InvalidConfig { param: "gamma_improve", .. })
        ));
        assert!(matches!(StreamingGreedy::new(f64::NAN), Err(MwmError::InvalidConfig { .. })));
    }

    #[test]
    fn budgets_are_enforced_for_baselines() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnm(60, 300, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let err = LattanziFiltering::default()
            .solve(&g, &ResourceBudget::unlimited().with_max_rounds(0))
            .unwrap_err();
        assert!(matches!(err, MwmError::BudgetExceeded { resource: "rounds", .. }));
    }
}
