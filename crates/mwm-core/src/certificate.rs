//! Approximation certificates for solver outputs.
//!
//! The experiments need a defensible approximation ratio for every run:
//! against the *exact* optimum whenever one of the exact substrates applies
//! (see [`exact_optimum`]), and against the certified upper bounds of
//! [`mwm_matching::bounds`] otherwise (in which case the reported ratio is a
//! lower bound on the true ratio).

use mwm_graph::{BMatching, Graph};
use mwm_matching::{
    best_offline_matching, bounds, greedy_b_matching, max_cardinality_matching, try_exact_matching,
};

/// A certificate for one solve.
#[derive(Clone, Debug)]
pub struct SolutionCertificate {
    /// Weight of the solver's matching.
    pub weight: f64,
    /// Whether the matching satisfies all capacity constraints.
    pub feasible: bool,
    /// A certified upper bound on the optimum.
    pub upper_bound: f64,
    /// `weight / upper_bound` — a lower bound on the true approximation ratio.
    pub ratio_vs_upper_bound: f64,
    /// The exact optimum, when an exact substrate applies.
    pub exact_optimum: Option<f64>,
    /// `weight / exact_optimum`, when available.
    pub ratio_vs_exact: Option<f64>,
}

/// How large an instance the cardinality blossom takes on (it is only used
/// for certification, so the cut-off is conservative).
const BLOSSOM_LIMIT: usize = 400;

/// Computes the exact optimum of the (unit-capacity) matching problem when one
/// of the exact substrates applies; `None` otherwise. These are the exact
/// routes of [`best_offline_matching`]'s rule ([`try_exact_matching`]), plus
/// the cardinality blossom on unit-weight graphs up to 400 vertices.
pub fn exact_optimum(graph: &Graph) -> Option<f64> {
    if !graph.has_unit_capacities() {
        return None;
    }
    if let Some(m) = try_exact_matching(graph) {
        return Some(m.weight());
    }
    let unit_weights = graph.edges().iter().all(|e| (e.w - 1.0).abs() < 1e-12);
    if graph.num_vertices() <= BLOSSOM_LIMIT && unit_weights {
        return Some(max_cardinality_matching(graph).len() as f64);
    }
    None
}

/// Certifies an arbitrary b-matching against `graph`.
pub fn certify_b_matching(graph: &Graph, bm: &BMatching) -> SolutionCertificate {
    let weight = bm.weight();
    let feasible = bm.is_valid(graph);
    let upper_bound = bounds::b_matching_weight_upper_bound(graph).max(1e-12);
    let exact = exact_optimum(graph);
    let ratio_vs_upper_bound = (weight / upper_bound).min(1.0);
    let ratio_vs_exact = exact.map(|opt| if opt > 0.0 { (weight / opt).min(1.0) } else { 1.0 });
    SolutionCertificate {
        weight,
        feasible,
        upper_bound,
        ratio_vs_upper_bound,
        exact_optimum: exact,
        ratio_vs_exact,
    }
}

/// The offline b-matching substrate used by the solver on in-memory subgraphs:
/// [`best_offline_matching`] when all capacities are 1, greedy b-matching
/// otherwise.
pub fn offline_b_matching(graph: &Graph) -> BMatching {
    if graph.has_unit_capacities() {
        best_offline_matching(graph).to_b_matching()
    } else {
        greedy_b_matching(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_matching::exact_max_weight_matching;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn exact_optimum_uses_dp_on_tiny_graphs() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(10, 25, WeightModel::Uniform(1.0, 5.0), &mut rng);
        assert!(exact_optimum(&g).is_some());
    }

    #[test]
    fn exact_optimum_covers_bipartite_graphs_of_any_size() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::random_bipartite(30, 30, 0.3, WeightModel::Uniform(1.0, 5.0), &mut rng);
        assert!(exact_optimum(&g).is_some());
        let g =
            generators::random_bipartite(300, 300, 0.01, WeightModel::Uniform(1.0, 5.0), &mut rng);
        assert!(exact_optimum(&g).is_some());
    }

    #[test]
    fn exact_optimum_uses_blossom_on_unit_weights() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(60, 200, WeightModel::Unit, &mut rng);
        let opt = exact_optimum(&g).unwrap();
        assert!(opt >= 1.0);
    }

    #[test]
    fn exact_optimum_absent_for_general_weighted_nonbipartite() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnm(60, 300, WeightModel::Uniform(1.0, 5.0), &mut rng);
        // Non-bipartite with high probability at this density, weighted, too large for DP.
        if g.bipartition().is_none() {
            assert!(exact_optimum(&g).is_none());
        }
    }

    #[test]
    fn certificate_of_a_good_matching_has_high_ratio() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(12, 30, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let exact = exact_max_weight_matching(&g);
        let cert = certify_b_matching(&g, &exact.to_b_matching());
        assert!(cert.feasible);
        assert_eq!(cert.ratio_vs_exact, Some(1.0));
        assert!(cert.ratio_vs_upper_bound > 0.4);
    }

    #[test]
    fn certificate_flags_infeasible_b_matchings() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        let mut bm = BMatching::new();
        bm.add(0, g.edge(0), 1);
        bm.add(1, g.edge(1), 1);
        let cert = certify_b_matching(&g, &bm);
        assert!(!cert.feasible);
    }

    #[test]
    fn offline_b_matching_respects_capacities() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = generators::gnm(30, 120, WeightModel::Uniform(1.0, 4.0), &mut rng);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let bm = offline_b_matching(&g);
        assert!(bm.is_valid(&g));
    }
}
