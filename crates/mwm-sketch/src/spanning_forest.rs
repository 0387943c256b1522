//! Spanning forest and connectivity recovery from AGM sketches.
//!
//! This is the post-processing half of the "compute sketches in one round, use
//! them in `O(log n)` sequential steps" pattern that the paper generalizes
//! (Section 1: "the linear sketches were computed in parallel in 1 round but
//! used sequentially in O(log n) steps of postprocessing to produce a spanning
//! tree"). Borůvka peeling: in each round every component samples one outgoing
//! edge from the merged sketches of its members; sampled edges merge
//! components; a fresh independent sketch copy is used per round.

use crate::graph_sketch::GraphSketcher;
use mwm_graph::{Graph, UnionFind, VertexId};

/// Result of recovering a spanning forest from sketches.
#[derive(Clone, Debug)]
pub struct SketchForestResult {
    /// The recovered forest edges (endpoints only; weights are not sketched).
    pub forest: Vec<(VertexId, VertexId)>,
    /// Component label per vertex after recovery.
    pub components: Vec<usize>,
    /// Number of connected components found.
    pub num_components: usize,
    /// Number of Borůvka rounds (sequential post-processing steps) used.
    pub rounds: usize,
}

/// Recovers a spanning forest of `graph` using only its linear sketches.
///
/// `copies` independent sketch copies bound the number of Borůvka rounds; for
/// an `n`-vertex graph `⌈log2 n⌉ + 2` copies suffice with high probability.
/// The graph is only used to *build* the sketches (one pass); recovery never
/// looks at the edge list again.
pub fn sketch_spanning_forest(graph: &Graph, seed: u64) -> SketchForestResult {
    let n = graph.num_vertices();
    let copies = ((n.max(2) as f64).log2().ceil() as usize + 2).max(3);
    let sketcher = GraphSketcher::sketch_graph(graph, copies, seed);
    recover_forest(&sketcher)
}

/// Recovers a spanning forest from pre-computed sketches.
pub fn recover_forest(sketcher: &GraphSketcher) -> SketchForestResult {
    let n = sketcher.num_vertices();
    let mut uf = UnionFind::new(n);
    let mut forest: Vec<(VertexId, VertexId)> = Vec::new();
    let mut rounds = 0usize;
    for c in 0..sketcher.num_copies() {
        if uf.num_components() == 1 || n == 0 {
            break;
        }
        rounds += 1;
        let groups = uf.groups();
        let mut progressed = false;
        for group in groups {
            let set: Vec<VertexId> = group.iter().map(|&x| x as VertexId).collect();
            if let Some(e) = sketcher.sample_cut_edge(c, &set) {
                if uf.union(e.u as usize, e.v as usize) {
                    forest.push((e.u, e.v));
                    progressed = true;
                }
            }
        }
        if !progressed {
            // Every remaining component has an empty boundary: we are done.
            break;
        }
    }
    let (components, num_components) = uf.component_labels();
    SketchForestResult { forest, components, num_components, rounds }
}

/// Connected components from sketches alone (convenience wrapper).
pub fn sketch_connected_components(graph: &Graph, seed: u64) -> (Vec<usize>, usize) {
    let r = sketch_spanning_forest(graph, seed);
    (r.components, r.num_components)
}

/// Recovers up to `k` edge-disjoint spanning forests (the k-connectivity
/// certificate of AGM used for sparsification): forest `F_1` is recovered from
/// the sketches, its edges are subtracted (by linearity), `F_2` is recovered
/// from the residual, and so on. Returns the union of the forests.
pub fn sketch_k_forests(graph: &Graph, k: usize, seed: u64) -> Vec<Vec<(VertexId, VertexId)>> {
    let n = graph.num_vertices();
    let mut residual = graph.clone();
    let mut forests = Vec::with_capacity(k);
    for round in 0..k {
        if residual.num_edges() == 0 {
            break;
        }
        // Each peel uses fresh randomness; by linearity we could subtract the
        // recovered forest from the original sketches, but re-sketching the
        // residual is equivalent and keeps this reference implementation simple
        // (the sketch space is the same either way).
        let result = sketch_spanning_forest(&residual, seed.wrapping_add(round as u64 * 7919));
        if result.forest.is_empty() {
            break;
        }
        let forest_set: std::collections::HashSet<(u32, u32)> =
            result.forest.iter().map(|&(u, v)| if u < v { (u, v) } else { (v, u) }).collect();
        let remaining = residual.edge_subgraph(|_, e| !forest_set.contains(&e.key()));
        forests.push(result.forest);
        residual = remaining;
        let _ = n;
    }
    forests
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;

    #[test]
    fn forest_on_connected_graph_spans() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(30, 200, WeightModel::Unit, &mut rng);
        let (_, true_components) = g.connected_components();
        let r = sketch_spanning_forest(&g, 99);
        assert_eq!(r.num_components, true_components);
        assert_eq!(r.forest.len(), 30 - true_components);
    }

    #[test]
    fn components_match_exact_on_disconnected_graph() {
        let mut g = Graph::new(9);
        // Three triangles.
        for base in [0u32, 3, 6] {
            g.add_edge(base, base + 1, 1.0);
            g.add_edge(base + 1, base + 2, 1.0);
            g.add_edge(base, base + 2, 1.0);
        }
        let (labels, count) = sketch_connected_components(&g, 5);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[3]);
        assert_ne!(labels[3], labels[6]);
    }

    #[test]
    fn forest_edges_are_real_edges() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::power_law(60, 2.5, 3.0, WeightModel::Unit, &mut rng);
        let edge_set: std::collections::HashSet<(u32, u32)> =
            g.edges().iter().map(|e| e.key()).collect();
        let r = sketch_spanning_forest(&g, 17);
        for &(u, v) in &r.forest {
            let key = if u < v { (u, v) } else { (v, u) };
            assert!(edge_set.contains(&key));
        }
    }

    #[test]
    fn rounds_are_logarithmic() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(128, 1000, WeightModel::Unit, &mut rng);
        let r = sketch_spanning_forest(&g, 23);
        assert!(
            r.rounds <= 10,
            "Boruvka over 128 vertices should need <= ~log n rounds, got {}",
            r.rounds
        );
    }

    #[test]
    fn k_forests_increase_edge_count() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnm(25, 150, WeightModel::Unit, &mut rng);
        let forests = sketch_k_forests(&g, 3, 31);
        assert!(!forests.is_empty());
        let total: usize = forests.iter().map(|f| f.len()).sum();
        assert!(total > forests[0].len(), "additional forests should add edges");
        // Forests are edge-disjoint.
        let mut seen = std::collections::HashSet::new();
        for f in &forests {
            for &(u, v) in f {
                let key = if u < v { (u, v) } else { (v, u) };
                assert!(seen.insert(key), "forests must be edge-disjoint");
            }
        }
    }

    #[test]
    fn empty_graph_handled() {
        let g = Graph::new(5);
        let r = sketch_spanning_forest(&g, 1);
        assert_eq!(r.num_components, 5);
        assert!(r.forest.is_empty());
    }
}
