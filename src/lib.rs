//! # dual-primal-matching
//!
//! Umbrella crate for the reproduction of *Ahn & Guha, "Access to Data and
//! Number of Iterations: Dual Primal Algorithms for Maximum Matching under
//! Resource Constraints" (SPAA 2015)*.
//!
//! ## The engine API
//!
//! Every algorithm in the workspace — the paper's dual-primal `(1-ε)` solver,
//! the two comparison baselines, and the offline substrates — implements one
//! trait, [`engine::MatchingSolver`]:
//!
//! ```text
//! fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError>
//! ```
//!
//! Solvers are selected by name through the [`engine::SolverRegistry`]:
//!
//! ```
//! use dual_primal_matching::engine::{ResourceBudget, SolverRegistry};
//! use dual_primal_matching::graph::Graph;
//!
//! let mut g = Graph::new(4);
//! g.add_edge(0, 1, 3.0);
//! g.add_edge(1, 2, 1.0);
//! g.add_edge(2, 3, 2.0);
//!
//! let registry = SolverRegistry::default();
//! let solver = registry.create("dual-primal").unwrap();
//! let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
//! assert!(report.matching.is_valid(&g));
//!
//! // Unknown names are typed errors, not panics.
//! assert!(registry.create("no-such-solver").is_err());
//! ```
//!
//! Configured instances are built directly and used through the same trait:
//!
//! ```
//! use dual_primal_matching::engine::{MatchingSolver, ResourceBudget};
//! use dual_primal_matching::prelude::*;
//!
//! let config = DualPrimalConfig::builder().eps(0.25).p(2.0).seed(7).build().unwrap();
//! let solver = DualPrimalSolver::new(config).unwrap();
//! let mut g = Graph::new(2);
//! g.add_edge(0, 1, 1.0);
//! let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
//! assert!(report.weight > 0.0);
//! ```
//!
//! ## Workspace layout
//!
//! The workspace crates are re-exported under stable module names:
//!
//! * [`graph`] — graphs, generators, weight levels, matchings ([`mwm_graph`]).
//! * [`sparsify`] — cut sparsifiers and deferred sparsifiers ([`mwm_sparsify`]).
//! * [`lp`] — the multiplicative-weights step rule of Theorem 5, the
//!   fractional covering solver and the portable dual snapshot format
//!   ([`mwm_lp`]).
//! * [`matching`] — offline matching substrates ([`mwm_matching`]).
//! * [`mapreduce`] — the sharded pass engine, the resource ledger with the
//!   central-space budget, and congested-clique accounting ([`mwm_mapreduce`]).
//! * [`external`] — out-of-core spilled edge storage and the out-of-core
//!   matching pass over it ([`mwm_external`]).
//! * [`persist`] — session hibernation: checksummed session images, the
//!   session store with write-ahead journals ([`mwm_persist`]).
//! * [`solver`] — the paper's contribution: the resource-constrained
//!   `(1-ε)`-approximate weighted b-matching solver, plus the engine API's
//!   trait, error, budget and report types ([`mwm_core`]).
//! * [`baselines`] — Lattanzi-et-al filtering and streaming greedy baselines
//!   ([`mwm_baselines`]).
//! * [`engine`] — the solver registry and re-exports of the engine API.
//!
//! See `README.md` for a quickstart, the workspace layout and the experiments.

pub use mwm_baselines as baselines;
pub use mwm_core as solver;
pub use mwm_dynamic as dynamic;
pub use mwm_external as external;
pub use mwm_graph as graph;
pub use mwm_lp as lp;
pub use mwm_mapreduce as mapreduce;
pub use mwm_matching as matching;
pub use mwm_obs as obs;
pub use mwm_persist as persist;
pub use mwm_serve as serve;
pub use mwm_sparsify as sparsify;

/// The engine facade: solver selection by name plus the engine API types.
pub mod engine {
    pub use mwm_baselines::{LattanziFiltering, StreamingGreedy};
    pub use mwm_core::{
        MatchingSolver, MwmError, MwmResult, OfflineSolver, OfflineStrategy, ResourceBudget,
        SolveReport, WarmStartState,
    };
    pub use mwm_dynamic::{
        CommittedSnapshot, CommittedView, DynamicConfig, DynamicMatcher, EpochDecision, EpochStats,
    };
    pub use mwm_obs::{MetricsSnapshot, Registry};
    pub use mwm_persist::{PersistError, SessionImage, SessionStore, WalRecord};
    pub use mwm_serve::{
        MatchingService, NetClient, Request, Response, ServeError, ServiceConfig, SessionStats,
        SocketServer, Ticket,
    };

    use mwm_core::DualPrimalSolver;
    use mwm_graph::Graph;
    use std::collections::BTreeMap;

    /// A factory builds a configured solver.
    type SolverFactory = Box<dyn Fn() -> Result<Box<dyn MatchingSolver>, MwmError> + Send + Sync>;

    /// A registry of named solver factories.
    ///
    /// [`SolverRegistry::default`] knows every built-in solver; custom
    /// backends register factories under new names and are then selectable
    /// exactly like the built-ins — the seam all multi-backend work (sharded,
    /// async, remote) plugs into. The pass-engine worker count is not a
    /// solver setting: `registry.solve(name, &g, &budget.with_parallelism(8))`
    /// hands it to the solver on the budget.
    pub struct SolverRegistry {
        factories: BTreeMap<String, SolverFactory>,
    }

    impl SolverRegistry {
        /// A registry with no solvers registered.
        pub fn empty() -> Self {
            SolverRegistry { factories: BTreeMap::new() }
        }

        /// A registry with every built-in solver under its canonical name.
        pub fn with_default_solvers() -> Self {
            let mut reg = SolverRegistry::empty();
            reg.register("dual-primal", || {
                Ok(Box::new(DualPrimalSolver::default()) as Box<dyn MatchingSolver>)
            });
            reg.register("streaming-greedy", || {
                Ok(Box::new(StreamingGreedy::default()) as Box<dyn MatchingSolver>)
            });
            reg.register("lattanzi-filtering", || {
                Ok(Box::new(LattanziFiltering::default()) as Box<dyn MatchingSolver>)
            });
            for strategy in [
                OfflineStrategy::Auto,
                OfflineStrategy::Greedy,
                OfflineStrategy::LocalSearch,
                OfflineStrategy::Exact,
            ] {
                reg.register(strategy.name(), move || {
                    Ok(Box::new(OfflineSolver::new(strategy)) as Box<dyn MatchingSolver>)
                });
            }
            reg
        }

        /// Registers (or replaces) a factory under `name`.
        pub fn register<F>(&mut self, name: impl Into<String>, factory: F)
        where
            F: Fn() -> Result<Box<dyn MatchingSolver>, MwmError> + Send + Sync + 'static,
        {
            self.factories.insert(name.into(), Box::new(factory));
        }

        /// Instantiates the solver registered under `name`.
        pub fn create(&self, name: &str) -> Result<Box<dyn MatchingSolver>, MwmError> {
            match self.factories.get(name) {
                Some(factory) => factory(),
                None => {
                    Err(MwmError::UnknownSolver { name: name.to_string(), available: self.names() })
                }
            }
        }

        /// True if a factory is registered under `name`.
        pub fn contains(&self, name: &str) -> bool {
            self.factories.contains_key(name)
        }

        /// The registered names, sorted.
        pub fn names(&self) -> Vec<String> {
            self.factories.keys().cloned().collect()
        }

        /// Convenience: instantiate `name` and solve `graph` within `budget`.
        /// The budget's `with_parallelism(..)` sets the solver's pass-engine
        /// worker count.
        pub fn solve(
            &self,
            name: &str,
            graph: &Graph,
            budget: &ResourceBudget,
        ) -> Result<SolveReport, MwmError> {
            self.create(name)?.solve(graph, budget)
        }
    }

    impl Default for SolverRegistry {
        fn default() -> Self {
            SolverRegistry::with_default_solvers()
        }
    }
}

/// Convenience prelude bringing the most common types into scope.
pub mod prelude {
    pub use crate::engine::SolverRegistry;
    pub use mwm_baselines::{LattanziFiltering, StreamingGreedy};
    pub use mwm_core::{
        DualPrimalConfig, DualPrimalSolver, MatchingSolver, MwmError, MwmResult, OfflineSolver,
        OfflineStrategy, ResourceBudget, SolveReport, WarmStartState,
    };
    pub use mwm_dynamic::{
        CommittedSnapshot, CommittedView, DynamicConfig, DynamicMatcher, EpochDecision,
        EpochReport, EpochStats,
    };
    pub use mwm_external::{out_of_core_matching, SpillWriter, SpilledShards};
    pub use mwm_graph::{
        generators, BMatching, Edge, Graph, GraphOverlay, GraphUpdate, Matching, WeightLevels,
    };
    pub use mwm_mapreduce::ResourceTracker;
    pub use mwm_obs::{MetricsSnapshot, Registry};
    pub use mwm_persist::{SessionImage, SessionStore};
    pub use mwm_serve::{
        MatchingService, NetClient, Request, Response, ServeError, ServiceConfig, SessionStats,
        SocketServer,
    };
}

#[cfg(test)]
mod tests {
    use crate::engine::{MwmError, ResourceBudget, SolverRegistry};
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn default_registry_contains_the_acceptance_set() {
        let reg = SolverRegistry::default();
        for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering", "offline-auto"] {
            assert!(reg.contains(name), "missing {name}");
        }
        assert!(reg.names().len() >= 7);
    }

    #[test]
    fn every_registered_solver_solves_a_small_instance() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(16, 50, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let reg = SolverRegistry::default();
        for name in reg.names() {
            let report = reg
                .solve(&name, &g, &ResourceBudget::unlimited())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(report.matching.is_valid(&g), "{name} returned an infeasible matching");
            assert_eq!(report.solver, name);
        }
    }

    #[test]
    fn unknown_names_are_typed_errors() {
        let reg = SolverRegistry::default();
        match reg.create("warp-drive") {
            Err(MwmError::UnknownSolver { name, available }) => {
                assert_eq!(name, "warp-drive");
                assert!(available.contains(&"dual-primal".to_string()));
            }
            other => {
                panic!("expected UnknownSolver, got {:?}", other.map(|s| s.name().to_string()))
            }
        }
    }

    #[test]
    fn custom_factories_are_selectable() {
        let mut reg = SolverRegistry::empty();
        reg.register("custom-greedy", || {
            Ok(Box::new(crate::engine::OfflineSolver::new(crate::engine::OfflineStrategy::Greedy))
                as _)
        });
        assert!(reg.contains("custom-greedy"));
        let g = mwm_graph::Graph::new(2);
        assert!(reg.solve("custom-greedy", &g, &ResourceBudget::unlimited()).is_ok());
    }

    #[test]
    fn parallelism_reaches_factories_through_the_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(30, 150, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let reg = SolverRegistry::default();
        let budget1 = ResourceBudget::unlimited().with_parallelism(1);
        for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering"] {
            let a = reg.solve(name, &g, &budget1).unwrap();
            // 0 asks for no workers; the engine runs it as 1.
            for workers in [0, 8] {
                let budget = ResourceBudget::unlimited().with_parallelism(workers);
                let b = reg.solve(name, &g, &budget).unwrap();
                assert_eq!(
                    a.weight.to_bits(),
                    b.weight.to_bits(),
                    "{name}: {workers} workers changed the result"
                );
                assert_eq!(a.rounds(), b.rounds(), "{name}: {workers} workers changed the passes");
            }
        }
    }
}
