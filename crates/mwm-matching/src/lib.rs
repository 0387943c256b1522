//! Offline matching substrates.
//!
//! The dual-primal driver repeatedly needs an *offline* matching solver on the
//! small in-memory subgraphs assembled from deferred sparsifiers (Algorithm 2,
//! Step 5, and Lemma 13), plus exact solvers to validate approximation ratios
//! in tests and experiments. This crate collects all of them:
//!
//! * [`greedy`] — greedy weighted matching and greedy b-matching (both
//!   ½-approximations; greedy b-matching is maximal).
//! * [`exact`] — exact maximum-weight matching by bitmask DP (tiny graphs).
//! * [`hungarian`] — exact maximum-weight bipartite matching (assignment) by
//!   successive shortest paths over the graph's edges.
//! * [`blossom`] — exact maximum-*cardinality* matching on general graphs.
//! * [`local_search`] — augmentation/local-improvement heuristics lifting the
//!   greedy solution towards `(1-ε)` quality; the workspace's substitute for
//!   the near-linear-time solvers [2, 13] cited by the paper on non-bipartite
//!   graphs.
//! * [`odd_set_finder`] — detection of dense small odd sets, the substitute
//!   for the Padberg–Rao / Gomory–Hu machinery of Lemma 25.
//! * [`bounds`] — upper bounds on the optimum, which the experiments certify
//!   ratios against.

pub mod blossom;
pub mod bounds;
pub mod exact;
pub mod greedy;
pub mod hungarian;
pub mod local_search;
pub mod odd_set_finder;

pub use blossom::max_cardinality_matching;
pub use bounds::matching_weight_upper_bound;
pub use exact::exact_max_weight_matching;
pub use greedy::{greedy_b_matching, greedy_matching};
pub use hungarian::try_max_weight_bipartite_matching;
pub use local_search::improve_matching;
pub use odd_set_finder::{find_dense_odd_sets, DenseOddSetConfig};

use mwm_graph::{Graph, Matching};

/// The exact routes of the offline substrate: the bitmask DP
/// ([`exact_max_weight_matching`]) up to 18 vertices, else exact successive
/// shortest paths on a bipartite graph of any size
/// ([`try_max_weight_bipartite_matching`]). `None` for a larger
/// non-bipartite graph. All `b_i` are treated as 1.
pub fn try_exact_matching(graph: &Graph) -> Option<Matching> {
    if graph.num_vertices() <= 18 {
        return Some(exact_max_weight_matching(graph));
    }
    try_max_weight_bipartite_matching(graph)
}

/// The workspace's best offline weighted matching solver, used on the small
/// in-memory subgraphs of Algorithm 2 Step 5.
///
/// This is the workspace's one routing rule for the offline substrate: the
/// exact routes of [`try_exact_matching`], otherwise greedy + local-search
/// improvements (2-swaps and short augmentations), which is exact on trees
/// and ≥ 2/3·OPT in general. The paper assumes a near-linear-time `(1-ε)`
/// solver here (Duan–Pettie).
pub fn best_offline_matching(graph: &Graph) -> Matching {
    try_exact_matching(graph).unwrap_or_else(|| improve_matching(graph, greedy_matching(graph)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn best_offline_is_exact_on_tiny_graphs() {
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::gnm(10, 20, WeightModel::Uniform(1.0, 5.0), &mut r);
            let best = best_offline_matching(&g);
            let exact = exact_max_weight_matching(&g);
            assert!((best.weight() - exact.weight()).abs() < 1e-9);
            assert!(best.is_valid(g.num_vertices()));
        }
    }

    #[test]
    fn best_offline_never_below_greedy() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnm(80, 400, WeightModel::Uniform(1.0, 10.0), &mut rng);
        let m = best_offline_matching(&g);
        assert!(m.is_valid(g.num_vertices()));
        let greedy = greedy_matching(&g);
        assert!(m.weight() >= greedy.weight() - 1e-9);
    }

    #[test]
    fn best_offline_is_exact_on_bipartite_graphs() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_bipartite(11, 11, 0.5, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let best = best_offline_matching(&g);
        // 22 vertices: above the DP route, still within the DP's reach.
        let exact = exact_max_weight_matching(&g);
        assert!((best.weight() - exact.weight()).abs() < 1e-9);
    }

    #[test]
    fn best_offline_is_exact_on_a_large_bipartite_union() {
        // An n = 800 sliding-window-shaped union (the E12 size): 240 sparse
        // cross edges, which greedy + local search does not solve exactly.
        let mut rng = StdRng::seed_from_u64(800);
        let mut g = Graph::new(800);
        for _ in 0..240 {
            let l = 2 * rng.gen_range(0..400u32);
            let r = 2 * rng.gen_range(0..400u32) + 1;
            g.add_edge(l, r, rng.gen_range(1.0..10.0));
        }
        let best = best_offline_matching(&g);
        let exact = try_max_weight_bipartite_matching(&g).expect("bipartite by construction");
        assert_eq!(best.weight(), exact.weight());
        let local = improve_matching(&g, greedy_matching(&g));
        assert!(best.weight() > local.weight() + 1e-9);
    }
}
