//! Upper/lower bounds and validity certificates for (b-)matchings.
//!
//! Exact optima are only available for small or structured instances; the
//! experiments on larger graphs report approximation ratios against these
//! certified bounds instead:
//!
//! * `OPT ≤ 2 · w(greedy)` — greedy is a ½-approximation for unit capacities,
//!   so twice its weight is a valid upper bound on any matching.
//! * `OPT ≤ ½ Σ_i b_i · (mean of the b_i heaviest incident weights)` — the
//!   fractional degree-constraint ("vertex cover by halves") bound.
//! * feasibility checkers for matchings, b-matchings and small odd sets.

use crate::greedy::greedy_matching;
use mwm_graph::odd_sets::violated_small_odd_sets;
use mwm_graph::{BMatching, Graph, Matching, VertexId};

/// Outcome of verifying a matching against a graph.
#[derive(Clone, Debug, PartialEq)]
pub struct MatchingVerification {
    /// Whether the matching uses each vertex at most once and only real edges.
    pub feasible: bool,
    /// Total weight.
    pub weight: f64,
    /// Number of edges in the matching.
    pub size: usize,
}

/// Verifies a matching: every edge must exist in the graph with the stated
/// endpoints and no vertex may be used twice.
pub fn verify_matching(graph: &Graph, matching: &Matching) -> MatchingVerification {
    let n = graph.num_vertices();
    let mut used = vec![false; n];
    let mut feasible = true;
    for &(id, e) in matching.edges() {
        if id >= graph.num_edges() {
            feasible = false;
            break;
        }
        let ge = graph.edge(id);
        if ge.key() != e.key() || (ge.w - e.w).abs() > 1e-9 {
            feasible = false;
            break;
        }
        if used[e.u as usize] || used[e.v as usize] {
            feasible = false;
            break;
        }
        used[e.u as usize] = true;
        used[e.v as usize] = true;
    }
    MatchingVerification { feasible, weight: matching.weight(), size: matching.len() }
}

/// Verifies a b-matching: degree constraints plus all small odd-set constraints
/// up to `max_odd_set` vertices (exhaustive, so keep `max_odd_set` small).
pub fn verify_b_matching(graph: &Graph, bm: &BMatching, max_odd_set: usize) -> bool {
    if !bm.is_valid(graph) {
        return false;
    }
    violated_small_odd_sets(graph, bm, max_odd_set).is_empty()
}

/// An upper bound on the maximum-weight matching: `min` of the doubling bound
/// and the fractional vertex bound.
pub fn matching_weight_upper_bound(graph: &Graph) -> f64 {
    let doubling = 2.0 * greedy_matching(graph).weight();
    let fractional = fractional_vertex_bound(graph);
    doubling.min(fractional)
}

/// An upper bound on the maximum-weight b-matching.
///
/// Unlike the unit-capacity case, the saturating greedy of
/// [`greedy_b_matching`](crate::greedy::greedy_b_matching) has no ½-approximation guarantee, so only the
/// fractional degree bound is used here (always valid: it dominates the LP1
/// degree constraints relaxed to halves).
pub fn b_matching_weight_upper_bound(graph: &Graph) -> f64 {
    fractional_vertex_bound(graph)
}

/// The fractional degree bound: every unit of an edge's multiplicity charges
/// half of its weight to each endpoint, a vertex `v` absorbs at most `b_v`
/// half-charges in total, and an edge can be used at most `min(b_u, b_v)`
/// times — so the bound greedily fills each vertex's capacity from the
/// multiset of incident weights with those multiplicities.
pub fn fractional_vertex_bound(graph: &Graph) -> f64 {
    let n = graph.num_vertices();
    // (weight, max multiplicity) pairs incident to each vertex.
    let mut incident: Vec<Vec<(f64, u64)>> = vec![Vec::new(); n];
    for e in graph.edges() {
        let mult = graph.b(e.u).min(graph.b(e.v));
        incident[e.u as usize].push((e.w, mult));
        incident[e.v as usize].push((e.w, mult));
    }
    let mut total = 0.0;
    for (v, ws) in incident.iter_mut().enumerate() {
        ws.sort_by(|a, b| b.0.total_cmp(&a.0));
        let mut capacity = graph.b(v as VertexId);
        for &(w, mult) in ws.iter() {
            if capacity == 0 {
                break;
            }
            let take = capacity.min(mult);
            total += w * take as f64;
            capacity -= take;
        }
    }
    total / 2.0
}

/// Approximation ratio of `value` against the best available upper bound; the
/// returned ratio is a *lower bound* on the true ratio vs OPT.
pub fn certified_ratio(graph: &Graph, value: f64) -> f64 {
    let ub = matching_weight_upper_bound(graph);
    if ub <= 0.0 {
        1.0
    } else {
        (value / ub).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_weight_matching;
    use crate::greedy::{greedy_b_matching, greedy_matching};
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn upper_bound_dominates_exact_optimum() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(12, 30, WeightModel::Uniform(1.0, 10.0), &mut rng);
            let opt = exact_max_weight_matching(&g).weight();
            let ub = matching_weight_upper_bound(&g);
            assert!(ub >= opt - 1e-9, "seed {seed}: ub {ub} < opt {opt}");
        }
    }

    #[test]
    fn fractional_bound_is_tight_on_a_star() {
        // Star K_{1,4}: OPT = heaviest edge; fractional bound = (w_max + sum)/2 may be loose,
        // but the doubling bound is 2*w_max; ensure both dominate OPT.
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 4.0);
        g.add_edge(0, 2, 3.0);
        g.add_edge(0, 3, 2.0);
        g.add_edge(0, 4, 1.0);
        let opt = exact_max_weight_matching(&g).weight();
        assert!((opt - 4.0).abs() < 1e-12);
        assert!(matching_weight_upper_bound(&g) >= 4.0);
    }

    #[test]
    fn verify_detects_fabricated_edges() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        let mut m = Matching::new();
        m.push(0, g.edge(0));
        assert!(verify_matching(&g, &m).feasible);

        let mut fake = Matching::new();
        fake.push(0, mwm_graph::Edge::new(2, 3, 1.0));
        assert!(!verify_matching(&g, &fake).feasible);
    }

    #[test]
    fn verify_b_matching_catches_odd_set_violation() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        let mut bm = BMatching::new();
        bm.add(0, g.edge(0), 1);
        assert!(verify_b_matching(&g, &bm, 3));
        bm.add(1, g.edge(1), 1);
        // Degree constraint at vertex 1 is already violated.
        assert!(!verify_b_matching(&g, &bm, 3));
    }

    #[test]
    fn certified_ratio_for_greedy_is_at_least_half() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnm(60, 300, WeightModel::Uniform(1.0, 7.0), &mut rng);
        let greedy = greedy_matching(&g).weight();
        let ratio = certified_ratio(&g, greedy);
        assert!(ratio >= 0.5 - 1e-9);
        assert!(ratio <= 1.0 + 1e-9);
    }

    #[test]
    fn b_matching_bound_dominates_greedy_b_matching() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 5.0), &mut rng);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let greedy = greedy_b_matching(&g).weight();
        assert!(b_matching_weight_upper_bound(&g) >= greedy - 1e-9);
    }
}
