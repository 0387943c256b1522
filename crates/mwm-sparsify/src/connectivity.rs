//! Edge-connectivity (strength) estimates via Nagamochi–Ibaraki forest
//! decompositions.
//!
//! The sparsification survey cited by the paper (Fung et al.) shows that
//! sampling each edge with probability inversely proportional to *any* of
//! several connectivity-like quantities yields a cut sparsifier; the classical
//! and cheapest such quantity is the index of the Nagamochi–Ibaraki forest an
//! edge falls into: partition `E` into forests `F_1, F_2, …` where `F_j` is a
//! spanning forest of `E ∖ (F_1 ∪ … ∪ F_{j-1})`. If an edge lands in forest
//! `F_j` then its endpoints are at least `j`-edge-connected in `F_1 ∪ … ∪ F_j`,
//! so `j` is a valid lower bound on the edge's connectivity.

use mwm_graph::UnionFind;

/// Computes the Nagamochi–Ibaraki forest index of every edge of a list of
/// `(u, v)` endpoint pairs on `n` vertices.
///
/// Returns `forest_index[pos] ∈ {1, 2, …}` for the edge at position `pos`:
/// edges are placed in list order into the first forest in which their
/// endpoints are not yet connected. Larger index = better connected = safe to
/// sample more aggressively.
pub fn forest_decomposition_of_edges(n: usize, edges: &[(u32, u32)]) -> Vec<usize> {
    let mut index = vec![0usize; edges.len()];
    // Lazily grown list of union-find structures, one per forest.
    let mut forests: Vec<UnionFind> = Vec::new();
    for (pos, &(u, v)) in edges.iter().enumerate() {
        let (u, v) = (u as usize, v as usize);
        // Find the first forest in which u and v are not yet connected.
        let mut placed = false;
        for (j, uf) in forests.iter_mut().enumerate() {
            if !uf.connected(u, v) {
                uf.union(u, v);
                index[pos] = j + 1;
                placed = true;
                break;
            }
        }
        if !placed {
            let mut uf = UnionFind::new(n);
            uf.union(u, v);
            forests.push(uf);
            index[pos] = forests.len();
        }
    }
    index
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;

    fn forest_indices(g: &Graph) -> Vec<usize> {
        let pairs: Vec<(u32, u32)> = g.edge_iter().map(|(_, e)| (e.u, e.v)).collect();
        forest_decomposition_of_edges(g.num_vertices(), &pairs)
    }

    #[test]
    fn tree_edges_all_in_first_forest() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::path(20, WeightModel::Unit, &mut rng);
        let idx = forest_indices(&g);
        assert!(idx.iter().all(|&i| i == 1));
    }

    #[test]
    fn parallel_structure_raises_index() {
        // Two triangles sharing all vertices => some edge must land in forest 2.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        let idx = forest_indices(&g);
        assert_eq!(idx.iter().filter(|&&i| i == 1).count(), 2);
        assert_eq!(idx.iter().filter(|&&i| i == 2).count(), 1);
    }

    #[test]
    fn complete_graph_has_high_indices() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::complete(12, WeightModel::Unit, &mut rng);
        let max = forest_indices(&g).into_iter().max().unwrap_or(0);
        // K_12 has 66 edges and only 11 can fit per forest.
        assert!(max >= 6, "max forest index {max} too small for K_12");
    }

    #[test]
    fn forest_index_at_most_degree() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(40, 200, WeightModel::Unit, &mut rng);
        let mut degree = vec![0usize; g.num_vertices()];
        for e in g.edges() {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let idx = forest_indices(&g);
        for (id, e) in g.edge_iter() {
            let d = degree[e.u as usize].min(degree[e.v as usize]);
            assert!(idx[id] <= d, "forest index cannot exceed the min endpoint degree");
        }
    }
}
