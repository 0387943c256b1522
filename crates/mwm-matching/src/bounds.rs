//! Upper bounds on the optimum (b-)matching weight.
//!
//! Exact optima are only available for small or structured instances; the
//! experiments on larger graphs report approximation ratios against these
//! certified bounds instead:
//!
//! * `OPT ≤ 2 · w(greedy)` — greedy is a ½-approximation, so twice its weight
//!   is a valid upper bound. This holds for b-matchings too: counted by unit
//!   copies (an edge used `k` times is `k` elements) they form a 2-extendible
//!   system, on which greedy by weight is a ½-approximation (Mestre 2006).
//!   [`matching_weight_upper_bound`] uses it; [`b_matching_weight_upper_bound`]
//!   does not (see there).
//! * `OPT ≤ ½ Σ_i b_i · (mean of the b_i heaviest incident weights)` — the
//!   fractional degree-constraint ("vertex cover by halves") bound.
//!
//! Feasibility is [`BMatching::is_valid`](mwm_graph::BMatching::is_valid) and
//! [`Matching::is_valid`](mwm_graph::Matching::is_valid): integral loads within
//! every `b_v` already keep the multiplicity inside any vertex set `U` to
//! `⌊‖U‖_b / 2⌋`, so no odd-set check can fail on a valid b-matching.

use crate::greedy::greedy_matching;
use mwm_graph::{Graph, VertexId};

/// An upper bound on the maximum-weight matching: `min` of the doubling bound
/// and the fractional vertex bound.
pub fn matching_weight_upper_bound(graph: &Graph) -> f64 {
    let doubling = 2.0 * greedy_matching(graph).weight();
    let fractional = fractional_vertex_bound(graph);
    doubling.min(fractional)
}

/// An upper bound on the maximum-weight b-matching: the fractional degree
/// bound (always valid: it dominates the LP1 degree constraints relaxed to
/// halves).
///
/// The saturating greedy of
/// [`greedy_b_matching`](crate::greedy::greedy_b_matching) is a
/// ½-approximation here as well (b-matchings counted by unit copies are
/// 2-extendible), so `2 · w(greedy)` is a second valid bound. It is not taken
/// here: the minimum with it would move every ratio certified against this
/// bound.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_weight_matching;
    use crate::greedy::greedy_b_matching;
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
    fn b_matching_bound_dominates_greedy_b_matching() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 5.0), &mut rng);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let greedy = greedy_b_matching(&g).weight();
        assert!(b_matching_weight_upper_bound(&g) >= greedy - 1e-9);
    }
}
