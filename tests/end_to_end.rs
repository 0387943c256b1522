//! Cross-crate integration tests: the full dual-primal pipeline against the
//! offline substrates, the baselines and the resource model, all driven
//! through the engine API (`MatchingSolver` + `SolveReport`).

use dual_primal_matching::engine::{MatchingSolver, ResourceBudget};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::Graph;
use dual_primal_matching::matching::{bounds, exact_max_weight_matching, max_cardinality_matching};
use dual_primal_matching::prelude::*;
use dual_primal_matching::solver::certify_b_matching;

use rand::rngs::StdRng;
use rand::SeedableRng;

fn solve(graph: &Graph, eps: f64, p: f64, seed: u64) -> SolveReport {
    let config = DualPrimalConfig::builder().eps(eps).p(p).seed(seed).build().unwrap();
    DualPrimalSolver::new(config).unwrap().solve(graph, &ResourceBudget::unlimited()).unwrap()
}

#[test]
fn solver_is_feasible_and_certified_across_families() {
    let mut rng = StdRng::seed_from_u64(1);
    let families: Vec<(&str, Graph)> = vec![
        ("gnm", generators::gnm(120, 700, WeightModel::Uniform(1.0, 10.0), &mut rng)),
        (
            "power_law",
            generators::power_law(120, 2.5, 8.0, WeightModel::Exponential(4.0), &mut rng),
        ),
        (
            "bipartite",
            generators::random_bipartite(60, 60, 0.15, WeightModel::Uniform(1.0, 8.0), &mut rng),
        ),
        (
            "geometric",
            generators::random_geometric(120, 0.18, WeightModel::Uniform(1.0, 5.0), &mut rng),
        ),
    ];
    for (name, g) in families {
        let res = solve(&g, 0.2, 2.0, 3);
        let cert = certify_b_matching(&g, &res.matching);
        assert!(cert.feasible, "{name}: infeasible output");
        assert!(res.weight > 0.0, "{name}: empty matching");
        assert!(
            cert.ratio_vs_upper_bound >= 0.45,
            "{name}: ratio vs upper bound too low: {}",
            cert.ratio_vs_upper_bound
        );
    }
}

#[test]
fn near_optimal_on_exactly_solvable_instances() {
    // Bipartite weighted (Hungarian gives the exact optimum).
    let mut rng = StdRng::seed_from_u64(2);
    let g = generators::random_bipartite(40, 40, 0.2, WeightModel::Uniform(1.0, 9.0), &mut rng);
    let res = solve(&g, 0.15, 2.0, 5);
    let cert = certify_b_matching(&g, &res.matching);
    let ratio = cert.ratio_vs_exact.expect("bipartite instances are certified exactly");
    assert!(ratio >= 0.85, "bipartite ratio {ratio}");

    // Unweighted non-bipartite (blossom gives the exact optimum).
    let g2 = generators::gnm(80, 320, WeightModel::Unit, &mut rng);
    let res2 = solve(&g2, 0.15, 2.0, 5);
    let opt = max_cardinality_matching(&g2).len() as f64;
    assert!(res2.weight / opt >= 0.85, "unweighted ratio {}", res2.weight / opt);

    // Tiny weighted non-bipartite (DP exact).
    let g3 = generators::gnm(14, 44, WeightModel::Uniform(1.0, 10.0), &mut rng);
    let res3 = solve(&g3, 0.15, 2.0, 5);
    let opt3 = exact_max_weight_matching(&g3).weight();
    assert!(res3.weight / opt3 >= 0.8, "tiny ratio {}", res3.weight / opt3);
}

#[test]
fn dual_primal_beats_or_matches_the_constant_factor_baselines() {
    let mut rng = StdRng::seed_from_u64(3);
    let g = generators::gnm(150, 900, WeightModel::Uniform(1.0, 12.0), &mut rng);
    let dp = solve(&g, 0.2, 2.0, 7);
    let latt =
        LattanziFiltering::new(2.0, 0.2).unwrap().solve(&g, &ResourceBudget::unlimited()).unwrap();
    let sg = StreamingGreedy::new(0.414).unwrap().solve(&g, &ResourceBudget::unlimited()).unwrap();
    // The (1-eps) algorithm should not lose to the O(1)-approximation baselines
    // by more than a whisker on this workload.
    assert!(dp.weight >= 0.95 * latt.weight, "dp {} vs lattanzi {}", dp.weight, latt.weight);
    assert!(dp.weight >= 0.95 * sg.weight, "dp {} vs streaming greedy {}", dp.weight, sg.weight);
}

#[test]
fn rounds_and_space_respect_the_model() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::gnp(200, 0.25, WeightModel::Uniform(1.0, 6.0), &mut rng);
    let eps = 0.25;
    let p = 2.0;
    let res = solve(&g, eps, p, 9);
    // Rounds: initial O(p) + main <= ceil(2p/eps), generous slack for the initial phase.
    assert!(res.rounds() <= (2.0 * p / eps).ceil() as usize + 16, "rounds {}", res.rounds());
    // Space: peak central space sublinear in m (the whole point), with the
    // Theorem 15 budget shape n^{1+1/p} * log B * constant.
    let n = g.num_vertices() as f64;
    let budget = 40.0 * n.powf(1.0 + 1.0 / p) * (g.total_capacity() as f64).ln().max(1.0);
    assert!(
        (res.peak_central_space() as f64) <= budget,
        "space {} budget {budget}",
        res.peak_central_space()
    );
    // The same run satisfies an explicit ResourceBudget with those limits.
    let budget_typed = ResourceBudget::unlimited()
        .with_max_rounds((2.0 * p / eps).ceil() as usize + 16)
        .with_max_central_space(budget as usize);
    assert!(budget_typed.check_tracker(&res.tracker).is_ok());
}

#[test]
fn adaptivity_separation_is_visible() {
    let mut rng = StdRng::seed_from_u64(5);
    let g = generators::gnm(200, 1200, WeightModel::Uniform(1.0, 10.0), &mut rng);
    let res = solve(&g, 0.2, 2.0, 11);
    // If the main loop ran, several oracle iterations happened per data-access round.
    let main_rounds = res.stat("main_rounds").expect("dual-primal reports main_rounds") as usize;
    if main_rounds > 0 && res.oracle_iterations > 0 {
        assert!(
            res.oracle_iterations >= main_rounds,
            "oracle iterations {} < main rounds {main_rounds}",
            res.oracle_iterations
        );
    }
    // The result is a valid matching regardless.
    assert!(res.matching.is_valid(&g));
}

#[test]
fn b_matching_end_to_end() {
    let mut rng = StdRng::seed_from_u64(6);
    let mut g = generators::gnm(100, 600, WeightModel::Uniform(1.0, 10.0), &mut rng);
    generators::randomize_capacities(&mut g, 5, &mut rng);
    let res = solve(&g, 0.25, 2.0, 13);
    assert!(res.matching.is_valid(&g), "capacities violated");
    let ub = bounds::b_matching_weight_upper_bound(&g);
    assert!(res.weight / ub >= 0.45, "b-matching ratio {}", res.weight / ub);
    // Larger capacities should allow at least as much weight as b=1 on the same graph.
    let mut g_unit = g.clone();
    for v in 0..g_unit.num_vertices() {
        g_unit.set_b(v as u32, 1);
    }
    let res_unit = solve(&g_unit, 0.25, 2.0, 13);
    assert!(res.weight >= res_unit.weight * 0.95);
}

#[test]
fn triangle_gadget_requires_odd_sets_and_is_solved() {
    // For gadget eps < 0.1 the two light edges weigh 10·eps < 1, so the integral
    // optimum is exactly the single heavy edge (weight 1) while the bipartite
    // relaxation is worth (1 + 20·eps)/2 > 1 — odd sets are required.
    for eps in [0.02, 0.05, 0.08] {
        let g = generators::triangle_gadget(eps, 1.0);
        let res = solve(&g, 0.1, 2.0, 1);
        assert!((res.weight - 1.0).abs() < 1e-9, "eps {eps}: weight {}", res.weight);
        let exact = exact_max_weight_matching(&g).weight();
        assert!((res.weight - exact).abs() < 1e-9);
    }
}
