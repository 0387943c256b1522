//! Exact maximum-weight matching on tiny graphs by bitmask dynamic programming.
//!
//! `dp[S]` = maximum weight of a matching inside the induced subgraph on the
//! vertex subset `S`. Runs in `O(2^n · n)` time and `O(2^n)` space, so it is
//! limited to `n ≤ ~22`; we use it as ground truth in tests and experiments.

use mwm_graph::{Graph, Matching};

/// Maximum number of vertices accepted by the DP.
pub const MAX_DP_VERTICES: usize = 22;

/// Exact maximum-weight matching (all `b_i` treated as 1).
///
/// Panics if the graph has more than [`MAX_DP_VERTICES`] vertices.
pub fn exact_max_weight_matching(graph: &Graph) -> Matching {
    let n = graph.num_vertices();
    assert!(n <= MAX_DP_VERTICES, "exact DP limited to {MAX_DP_VERTICES} vertices, got {n}");
    if n == 0 {
        return Matching::new();
    }
    // adjacency[v] = list of (other endpoint, edge id, weight)
    let mut adj: Vec<Vec<(usize, usize, f64)>> = vec![Vec::new(); n];
    for (id, e) in graph.edge_iter() {
        adj[e.u as usize].push((e.v as usize, id, e.w));
        adj[e.v as usize].push((e.u as usize, id, e.w));
    }
    let full = 1usize << n;
    // dp[s] = best weight using only vertices in s; choice[s] = edge id used for
    // the lowest set vertex (or usize::MAX if it stays unmatched).
    let mut dp = vec![0.0f64; full];
    let mut choice = vec![usize::MAX; full];
    for s in 1..full {
        let v = s.trailing_zeros() as usize;
        let without = s & !(1 << v);
        // Option 1: leave v unmatched.
        dp[s] = dp[without];
        choice[s] = usize::MAX;
        // Option 2: match v with a neighbour inside s.
        for &(u, id, w) in &adj[v] {
            if u != v && (s >> u) & 1 == 1 {
                let rest = without & !(1 << u);
                let cand = dp[rest] + w;
                if cand > dp[s] {
                    dp[s] = cand;
                    choice[s] = id;
                }
            }
        }
    }
    // Reconstruct.
    let mut m = Matching::new();
    let mut s = full - 1;
    while s != 0 {
        let v = s.trailing_zeros() as usize;
        let id = choice[s];
        if id == usize::MAX {
            s &= !(1 << v);
        } else {
            let e = graph.edge(id);
            m.push(id, e);
            s &= !(1 << e.u as usize);
            s &= !(1 << e.v as usize);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// Brute force over all subsets of edges (very small graphs only).
    fn brute_force(graph: &Graph) -> f64 {
        let m = graph.num_edges();
        assert!(m <= 20);
        let mut best = 0.0f64;
        for mask in 0..(1u32 << m) {
            let mut used = vec![false; graph.num_vertices()];
            let mut ok = true;
            let mut w = 0.0;
            for id in 0..m {
                if (mask >> id) & 1 == 1 {
                    let e = graph.edge(id);
                    if used[e.u as usize] || used[e.v as usize] {
                        ok = false;
                        break;
                    }
                    used[e.u as usize] = true;
                    used[e.v as usize] = true;
                    w += e.w;
                }
            }
            if ok {
                best = best.max(w);
            }
        }
        best
    }

    #[test]
    fn matches_brute_force_on_random_small_graphs() {
        for seed in 0..15u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(8, 14, WeightModel::Uniform(1.0, 10.0), &mut rng);
            let dp = exact_max_weight_matching(&g);
            assert!(dp.is_valid(8));
            let bf = brute_force(&g);
            assert!(
                (dp.weight() - bf).abs() < 1e-9,
                "seed {seed}: dp {} vs brute {}",
                dp.weight(),
                bf
            );
        }
    }

    #[test]
    fn triangle_picks_single_heaviest_edge() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 3.0);
        let m = exact_max_weight_matching(&g);
        assert_eq!(m.len(), 1);
        assert!((m.weight() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_matching_on_even_cycle() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::cycle(8, WeightModel::Unit, &mut rng);
        let m = exact_max_weight_matching(&g);
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn odd_cycle_leaves_one_vertex_unmatched() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::cycle(7, WeightModel::Unit, &mut rng);
        let m = exact_max_weight_matching(&g);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn empty_graph_gives_empty_matching() {
        let g = Graph::new(5);
        let m = exact_max_weight_matching(&g);
        assert!(m.is_empty());
    }

    #[test]
    #[should_panic]
    fn too_large_graph_panics() {
        let g = Graph::new(MAX_DP_VERTICES + 1);
        exact_max_weight_matching(&g);
    }
}
