//! The semi-streaming sparsifier construction of Algorithm 6.
//!
//! One pass over the edge list. Conceptually `G_0 = G` and `G_i` keeps each
//! edge of `G_{i-1}` with probability 1/2 (implemented by hashing the edge to
//! a geometric level). For every level `i` we maintain `k` union-find
//! structures `UF^i_1 … UF^i_k`; an arriving edge is inserted into the first
//! forest in which its endpoints are not yet connected. At the end, an edge of
//! forest `F^·_j`, `j < k`, is written to the sparsifier with weight
//! `w_e · 2^{i'}` where `i'` is the smallest level whose *k-th* union-find
//! still separates its endpoints — i.e. the level at which the edge's local
//! connectivity drops below `k`, which is exactly the inverse sampling rate.

use crate::benczur_karger::SparsifiedGraph;
use crate::hashing::PairwiseHash;
use mwm_graph::{Edge, EdgeId, Graph, UnionFind};

/// Per-level state: `k` union-find structures and the edges retained in forests.
struct LevelState {
    forests: Vec<UnionFind>,
    /// Edges kept at this level: (edge id, edge, forest index j).
    kept: Vec<(EdgeId, Edge, usize)>,
}

/// Runs Algorithm 6 in a single pass over `graph.edges()`.
///
/// * `k` — number of forests per level (`O(ξ^{-2} log² n)` in the paper).
/// * `seed` — randomness for the geometric subsampling.
pub fn streaming_sparsify(graph: &Graph, k: usize, seed: u64) -> SparsifiedGraph {
    assert!(k >= 1);
    let n = graph.num_vertices();
    let m = graph.num_edges();
    if m == 0 {
        return SparsifiedGraph { n, edges: Vec::new() };
    }
    let num_levels = ((m as f64).log2().ceil() as usize + 1).max(1);
    let hash = PairwiseHash::new(seed, 0);
    let mut levels: Vec<LevelState> =
        (0..num_levels).map(|_| LevelState { forests: Vec::new(), kept: Vec::new() }).collect();

    // Single pass over the stream.
    for (id, e) in graph.edge_iter() {
        // The edge survives to levels 0..=lvl where lvl is geometric.
        let lvl = (hash.level(id as u64) as usize).min(num_levels - 1);
        for state in levels.iter_mut().take(lvl + 1) {
            // Insert into the first forest where endpoints are unconnected.
            let mut placed = false;
            for (j, uf) in state.forests.iter_mut().enumerate() {
                if !uf.connected(e.u as usize, e.v as usize) {
                    uf.union(e.u as usize, e.v as usize);
                    if j < k {
                        state.kept.push((id, e, j));
                    }
                    placed = true;
                    break;
                }
            }
            if !placed && state.forests.len() < k {
                let mut uf = UnionFind::new(n);
                uf.union(e.u as usize, e.v as usize);
                state.kept.push((id, e, state.forests.len()));
                state.forests.push(uf);
            } else if !placed {
                // All k forests already connect the endpoints: edge is dropped at
                // this level (it is k-connected here, sampling handles it deeper).
            }
        }
    }

    // Post-processing: each edge kept at level 0 forests is emitted once with
    // weight w_e * 2^{i'} where i' is the smallest level at which the k-th
    // union-find does NOT connect its endpoints (i.e. the edge's connectivity
    // falls below k); edges that are k-connected at every level they reached
    // are dropped, matching the sampling rate 2^{-i'}.
    // Determinism audit (PR 4): this used to be a `HashSet`. Insert-only
    // dedup never observes iteration order, but an id-indexed bitmap is both
    // obviously order-free and cheaper on the hot path; the remaining hash
    // containers in mwm-sparsify live in `#[cfg(test)]` code.
    let mut out = Vec::new();
    let mut emitted = vec![false; m];
    for state in &levels {
        for &(id, e, _) in &state.kept {
            if std::mem::replace(&mut emitted[id], true) {
                continue;
            }
            // Find smallest level i' where the endpoints are separated in the
            // last (k-th) forest, i.e. local connectivity < k.
            let mut i_prime = None;
            for (i, lvl_state) in levels.iter().enumerate() {
                let separated = match lvl_state.forests.last() {
                    None => true,
                    Some(uf) => uf.find_immutable(e.u as usize) != uf.find_immutable(e.v as usize),
                } || lvl_state.forests.len() < k;
                if separated {
                    i_prime = Some(i);
                    break;
                }
            }
            if let Some(i) = i_prime {
                out.push((id, e, e.w * (1u64 << i.min(62)) as f64));
            }
        }
    }
    SparsifiedGraph { n, edges: out }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::cut_quality_report;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;

    #[test]
    fn connectivity_is_preserved() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(60, 400, WeightModel::Unit, &mut rng);
        let s = streaming_sparsify(&g, 8, 3);
        let sg = s.to_support_graph();
        let (_, c_orig) = g.connected_components();
        let (_, c_sparse) = sg.connected_components();
        assert_eq!(c_orig, c_sparse, "sparsifier must preserve connectivity (forest 1 is kept)");
    }

    #[test]
    fn sparse_graphs_pass_through() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::path(40, WeightModel::Uniform(1.0, 2.0), &mut rng);
        let s = streaming_sparsify(&g, 4, 7);
        assert_eq!(s.num_edges(), g.num_edges());
        // Path edges are 1-connected: they are never subsampled, weight unchanged.
        for &(_, e, w) in &s.edges {
            assert!((w - e.w).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_graph_is_compressed() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::complete(100, WeightModel::Unit, &mut rng);
        let s = streaming_sparsify(&g, 30, 11);
        assert!(
            s.num_edges() < g.num_edges(),
            "K_100 with k=30 should drop some edges: kept {} of {}",
            s.num_edges(),
            g.num_edges()
        );
    }

    #[test]
    fn cuts_roughly_preserved_with_large_k() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(80, 0.4, WeightModel::Unit, &mut rng);
        let s = streaming_sparsify(&g, 60, 13);
        let report = cut_quality_report(&g, &s, 40, 5);
        assert!(report.max_relative_error < 0.5, "cut error too large: {report:?}");
    }

    #[test]
    fn empty_graph_handled() {
        let g = Graph::new(5);
        let s = streaming_sparsify(&g, 4, 1);
        assert_eq!(s.num_edges(), 0);
    }
}
