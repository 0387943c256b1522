//! Integration tests for the engine API: trait-object usability, the solver
//! registry, config-builder validation, budget enforcement, and a property
//! test asserting every registered solver returns a feasible matching on
//! random `gnm` graphs.

use dual_primal_matching::engine::{MatchingSolver, MwmError, ResourceBudget, SolverRegistry};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::Graph;
use dual_primal_matching::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn gnm(seed: u64, n: usize, m: usize) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(n.max(2), m, WeightModel::Uniform(1.0, 10.0), &mut rng)
}

#[test]
fn heterogeneous_trait_objects_share_one_driver() {
    // The acceptance scenario: the paper's solver, both baselines and an
    // offline substrate, all behind `Box<dyn MatchingSolver>`.
    let solvers: Vec<Box<dyn MatchingSolver>> = vec![
        Box::new(DualPrimalSolver::default()),
        Box::new(StreamingGreedy::default()),
        Box::new(LattanziFiltering::default()),
        Box::new(OfflineSolver::new(OfflineStrategy::Auto)),
    ];
    let g = gnm(1, 40, 200);
    for solver in &solvers {
        let report = solver
            .solve(&g, &ResourceBudget::unlimited())
            .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
        assert!(report.matching.is_valid(&g), "{}", solver.name());
        assert!(report.weight > 0.0, "{}", solver.name());
        assert_eq!(report.solver, solver.name());
    }
}

#[test]
fn registry_selects_the_acceptance_solvers_by_name() {
    let registry = SolverRegistry::default();
    let g = gnm(2, 30, 120);
    for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering", "offline-auto"] {
        let solver: Box<dyn MatchingSolver> = registry.create(name).unwrap();
        let report = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
        assert!(report.matching.is_valid(&g), "{name}");
    }
    match registry.create("does-not-exist") {
        Err(MwmError::UnknownSolver { available, .. }) => {
            assert!(available.len() >= 4);
        }
        other => panic!("expected UnknownSolver, got {:?}", other.map(|s| s.name().to_string())),
    }
}

#[test]
fn config_builder_rejects_invalid_parameters() {
    // eps outside (0, 1/2).
    for bad_eps in [0.0, 0.5, 0.7, -0.1, f64::NAN, f64::INFINITY] {
        let err = DualPrimalConfig::builder().eps(bad_eps).build().unwrap_err();
        assert!(
            matches!(err, MwmError::InvalidConfig { param: "eps", .. }),
            "eps {bad_eps}: {err}"
        );
    }
    // p must exceed 1.
    for bad_p in [1.0, 0.5, f64::NAN] {
        let err = DualPrimalConfig::builder().p(bad_p).build().unwrap_err();
        assert!(matches!(err, MwmError::InvalidConfig { param: "p", .. }), "p {bad_p}: {err}");
    }
    // Structural overrides must be non-zero.
    let err = DualPrimalConfig::builder().max_rounds(0).build().unwrap_err();
    assert!(matches!(err, MwmError::InvalidConfig { param: "max_rounds", .. }));

    // The same validation guards the direct constructor.
    let err =
        DualPrimalSolver::new(DualPrimalConfig { eps: 0.9, ..Default::default() }).unwrap_err();
    assert!(matches!(err, MwmError::InvalidConfig { param: "eps", .. }));

    // A valid chain builds and the values stick.
    let config = DualPrimalConfig::builder().eps(0.3).p(3.0).seed(5).max_rounds(7).build().unwrap();
    assert_eq!(config.eps, 0.3);
    assert_eq!(config.p, 3.0);
    assert_eq!(config.max_rounds, Some(7));
}

#[test]
fn budgets_turn_overruns_into_typed_errors() {
    let g = gnm(3, 80, 500);
    // One round is never enough for the dual-primal solver's initial phase.
    let err = DualPrimalSolver::default()
        .solve(&g, &ResourceBudget::unlimited().with_max_rounds(1))
        .unwrap_err();
    assert!(matches!(err, MwmError::BudgetExceeded { resource: "rounds", .. }), "{err}");

    // A generous budget passes.
    let report = DualPrimalSolver::default()
        .solve(
            &g,
            &ResourceBudget::unlimited().with_max_rounds(1000).with_max_central_space(1_000_000),
        )
        .unwrap();
    assert!(report.matching.is_valid(&g));

    // Offline solvers hold the whole edge list, so sub-m space budgets reject them.
    let err = OfflineSolver::new(OfflineStrategy::Greedy)
        .solve(&g, &ResourceBudget::unlimited().with_max_central_space(g.num_edges() - 1))
        .unwrap_err();
    assert!(matches!(err, MwmError::BudgetExceeded { resource: "central space", .. }));
}

#[test]
fn round_and_oracle_limits_stop_the_solve_before_the_work_they_cannot_pay() {
    let stat = |report: &SolveReport, name: &str| report.stat(name).unwrap() as usize;
    // At p = 3 the sampling rounds hold 4·n^{4/3} ≈ 1,380 edges, fewer than
    // m, so the initial phase needs more than one round; four main rounds
    // are enough to see where each limit stops the solve.
    let g = gnm(3, 80, 2000);
    let config = DualPrimalConfig::builder().p(3.0).max_rounds(4).build().unwrap();
    let solver = DualPrimalSolver::new(config).unwrap();
    let full = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
    let (initial, main) = (stat(&full, "initial_rounds"), stat(&full, "main_rounds"));
    assert!(initial >= 2 && main > 2, "initial {initial}, main {main}");
    assert!(full.oracle_iterations > 3);

    // The sampling rounds count against the limit, so the third main round
    // is the first one the ledger cannot pay for; the solve stops before it
    // instead of running the whole capped main loop first.
    let limit = initial + 2;
    match solver.solve(&g, &ResourceBudget::unlimited().with_max_rounds(limit)) {
        Err(MwmError::BudgetExceeded { resource: "rounds", used, limit: l }) => {
            assert_eq!((used, l), (limit + 1, limit));
        }
        other => panic!("expected a rounds overrun, got {other:?}"),
    }
    // The same holds for the oracle: the fourth call is refused.
    match solver.solve(&g, &ResourceBudget::unlimited().with_max_oracle_iterations(3)) {
        Err(MwmError::BudgetExceeded { resource: "oracle iterations", used: 4, limit: 3 }) => {}
        other => panic!("expected an oracle-iteration overrun, got {other:?}"),
    }
}

#[test]
fn reports_expose_solver_specific_stats() {
    let g = gnm(4, 50, 250);
    let report = DualPrimalSolver::default().solve(&g, &ResourceBudget::unlimited()).unwrap();
    for stat in ["beta", "lambda", "eps", "p", "main_rounds", "adaptivity_ratio"] {
        assert!(report.stat(stat).is_some(), "missing stat {stat}");
    }
    assert_eq!(report.stat("eps"), Some(0.2));
}

#[test]
fn one_ledger_carries_the_initial_phase_and_every_main_round() {
    // A solve charges everything to one ledger: the initial phase's sampling
    // rounds and every main-loop pass, each pass one full stream of the m edges.
    let stat = |report: &SolveReport, name: &str| report.stat(name).unwrap() as usize;
    let g = gnm(5, 60, 400);
    let solver = DualPrimalSolver::default();
    let cold = solver.solve(&g, &ResourceBudget::unlimited()).unwrap();
    let (initial, main) = (stat(&cold, "initial_rounds"), stat(&cold, "main_rounds"));
    assert!(initial > 0 && main > 0, "initial {initial}, main {main}");
    assert_eq!(cold.rounds(), initial + main);
    assert!(
        cold.tracker.items_streamed() > main * g.num_edges(),
        "the sampling rounds stream edges too"
    );
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Every solver in the default registry returns a feasible matching on
    /// random gnm graphs — the engine-wide safety property.
    #[test]
    fn every_registered_solver_is_feasible_on_random_graphs(
        seed in 0u64..300,
        n in 8usize..40,
        deg in 2usize..8,
    ) {
        let g = gnm(seed, n, n * deg / 2);
        let registry = SolverRegistry::default();
        for name in registry.names() {
            match registry.solve(&name, &g, &ResourceBudget::unlimited()) {
                Ok(report) => {
                    prop_assert!(report.matching.is_valid(&g), "{name} returned infeasible matching");
                    let ub = dual_primal_matching::matching::bounds::matching_weight_upper_bound(&g)
                        .max(1e-12);
                    // b ≡ 1 here, so the unit-capacity upper bound applies to all solvers.
                    prop_assert!(
                        report.weight <= ub * (1.0 + 1e-9),
                        "{name} exceeded the certified bound: {} > {ub}",
                        report.weight
                    );
                }
                // Documented capability limits are acceptable; anything else fails.
                Err(MwmError::Unsupported { .. }) => {}
                Err(other) => prop_assert!(false, "{name} failed: {other}"),
            }
        }
    }
}
