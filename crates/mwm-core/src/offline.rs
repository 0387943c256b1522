//! Offline substrates behind the [`MatchingSolver`] trait.
//!
//! The offline solvers of [`mwm_matching`] are free functions (they predate
//! the engine API and `mwm-matching` sits below `mwm-core` in the dependency
//! order, so it cannot implement the trait itself). [`OfflineSolver`] adapts
//! them: it models "download the whole edge list in one round, solve in
//! memory" — the resource-unconstrained baseline the paper's algorithm is
//! measured against. One round is charged and the full edge list is charged
//! as central space, so budgets smaller than `m` correctly reject it.

use crate::api::MatchingSolver;
use crate::budget::ResourceBudget;
use crate::certificate::offline_b_matching;
use crate::error::MwmError;
use crate::report::SolveReport;
use mwm_graph::Graph;
use mwm_mapreduce::ResourceTracker;
use mwm_matching::exact::MAX_DP_VERTICES;
use mwm_matching::{
    exact_max_weight_matching, greedy_b_matching, greedy_matching, improve_matching,
    try_max_weight_bipartite_matching,
};

/// Which offline algorithm [`OfflineSolver`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfflineStrategy {
    /// Exact optimum: the bitmask DP as far as it reaches
    /// ([`MAX_DP_VERTICES`], beyond the 18 vertices of
    /// [`mwm_matching::try_exact_matching`]), else the bipartite solver at any
    /// size. A larger non-bipartite graph is [`MwmError::Unsupported`]. Unit
    /// capacities only.
    Exact,
    /// Greedy by weight: ½-approximation, works for arbitrary capacities.
    Greedy,
    /// Greedy followed by 2-swap/augmentation local search (≥ 2/3·OPT,
    /// exact on trees). Unit capacities only.
    LocalSearch,
    /// The workspace's best offline strategy for the instance
    /// ([`mwm_matching::best_offline_matching`] / greedy b-matching).
    Auto,
}

impl OfflineStrategy {
    /// The registry name of this strategy.
    pub fn name(&self) -> &'static str {
        match self {
            OfflineStrategy::Exact => "offline-exact",
            OfflineStrategy::Greedy => "offline-greedy",
            OfflineStrategy::LocalSearch => "offline-local-search",
            OfflineStrategy::Auto => "offline-auto",
        }
    }
}

/// Adapter running an offline substrate through the engine API.
#[derive(Clone, Copy, Debug)]
pub struct OfflineSolver {
    strategy: OfflineStrategy,
}

impl OfflineSolver {
    /// Creates an adapter for the given strategy.
    pub fn new(strategy: OfflineStrategy) -> Self {
        OfflineSolver { strategy }
    }

    /// The strategy this adapter runs.
    pub fn strategy(&self) -> OfflineStrategy {
        self.strategy
    }

    fn require_unit_capacities(&self, graph: &Graph) -> Result<(), MwmError> {
        if graph.has_unit_capacities() {
            Ok(())
        } else {
            Err(MwmError::Unsupported {
                solver: self.name().to_string(),
                reason: "requires unit capacities (b ≡ 1); use offline-greedy or offline-auto"
                    .to_string(),
            })
        }
    }
}

impl MatchingSolver for OfflineSolver {
    fn name(&self) -> &str {
        self.strategy.name()
    }

    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
        // Resource model: one round that downloads the entire edge list. The
        // whole ledger is known from the instance size alone, so budgets are
        // checked before paying for the (possibly expensive) offline solve.
        let mut tracker = ResourceTracker::new();
        tracker.charge_round();
        tracker.charge_stream(graph.num_edges());
        tracker.allocate_central(graph.num_edges());
        budget.check_tracker(&tracker)?;
        let bm = match self.strategy {
            OfflineStrategy::Exact => {
                self.require_unit_capacities(graph)?;
                let n = graph.num_vertices();
                let exact = if n <= MAX_DP_VERTICES {
                    Some(exact_max_weight_matching(graph))
                } else {
                    try_max_weight_bipartite_matching(graph)
                };
                exact
                    .ok_or_else(|| MwmError::Unsupported {
                        solver: self.name().to_string(),
                        reason: format!(
                            "no exact substrate for a non-bipartite graph with n = {n} \
                             (DP limit {MAX_DP_VERTICES})"
                        ),
                    })?
                    .to_b_matching()
            }
            OfflineStrategy::Greedy => greedy_b_matching(graph),
            OfflineStrategy::LocalSearch => {
                self.require_unit_capacities(graph)?;
                improve_matching(graph, greedy_matching(graph)).to_b_matching()
            }
            OfflineStrategy::Auto => offline_b_matching(graph),
        };
        Ok(SolveReport::new(self.name(), bm, tracker))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn small_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm(14, 40, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    #[test]
    fn every_strategy_is_feasible_on_small_graphs() {
        let g = small_graph(1);
        for strategy in [
            OfflineStrategy::Exact,
            OfflineStrategy::Greedy,
            OfflineStrategy::LocalSearch,
            OfflineStrategy::Auto,
        ] {
            let report = OfflineSolver::new(strategy)
                .solve(&g, &ResourceBudget::unlimited())
                .unwrap_or_else(|e| panic!("{}: {e}", strategy.name()));
            assert!(report.matching.is_valid(&g), "{}", strategy.name());
            assert_eq!(report.rounds(), 1);
        }
    }

    #[test]
    fn exact_matches_the_dp_ground_truth() {
        let g = small_graph(2);
        let report = OfflineSolver::new(OfflineStrategy::Exact)
            .solve(&g, &ResourceBudget::unlimited())
            .unwrap();
        let opt = exact_max_weight_matching(&g).weight();
        assert!((report.weight - opt).abs() < 1e-9);
    }

    #[test]
    fn exact_refuses_large_nonbipartite_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(80, 400, WeightModel::Uniform(1.0, 5.0), &mut rng);
        if g.bipartition().is_none() {
            let err = OfflineSolver::new(OfflineStrategy::Exact)
                .solve(&g, &ResourceBudget::unlimited())
                .unwrap_err();
            assert!(matches!(err, MwmError::Unsupported { .. }));
        }
    }

    #[test]
    fn exact_accepts_large_bipartite_graphs() {
        let mut rng = StdRng::seed_from_u64(6);
        let g =
            generators::random_bipartite(500, 500, 0.004, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let report = OfflineSolver::new(OfflineStrategy::Exact)
            .solve(&g, &ResourceBudget::unlimited())
            .unwrap();
        assert!(report.matching.is_valid(&g));
        let opt = try_max_weight_bipartite_matching(&g).unwrap().weight();
        assert!((report.weight - opt).abs() < 1e-9);
    }

    #[test]
    fn local_search_refuses_b_matchings() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut g = small_graph(4);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        if (0..g.num_vertices()).any(|v| g.b(v as u32) > 1) {
            let err = OfflineSolver::new(OfflineStrategy::LocalSearch)
                .solve(&g, &ResourceBudget::unlimited())
                .unwrap_err();
            assert!(matches!(err, MwmError::Unsupported { .. }));
            // The capacity-aware strategies handle the same instance.
            let report = OfflineSolver::new(OfflineStrategy::Auto)
                .solve(&g, &ResourceBudget::unlimited())
                .unwrap();
            assert!(report.matching.is_valid(&g));
        }
    }

    #[test]
    fn space_budget_below_m_rejects_offline_solvers() {
        let g = small_graph(5);
        let budget = ResourceBudget::unlimited().with_max_central_space(g.num_edges() / 2);
        let err = OfflineSolver::new(OfflineStrategy::Greedy).solve(&g, &budget).unwrap_err();
        assert!(matches!(err, MwmError::BudgetExceeded { resource: "central space", .. }));
    }
}
