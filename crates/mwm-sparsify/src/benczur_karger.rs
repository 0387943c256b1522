//! Offline weighted cut sparsification by importance sampling
//! (Benczúr–Karger / Fung et al., as used in the proof of Lemma 17).
//!
//! Each edge is sampled with probability inversely proportional to a
//! connectivity estimate of its endpoints (its Nagamochi–Ibaraki forest
//! index), computed separately for every geometric weight class
//! `[2^ℓ, 2^{ℓ+1})`, and kept edges are reweighted by `w_e / p_e` so that
//! every cut is preserved in expectation. The union of per-class sparsifiers
//! is a sparsifier of the union (the "sum of sparsifiers" observation in the
//! proof of Lemma 17).
//!
//! The construction has two parts. A sampling table holds every edge's
//! probability; it needs the weight classes and a forest decomposition per
//! class, so it is the expensive part, and it depends only on the weights. A
//! draw walks the table once with its own seeded RNG. One table therefore
//! serves any number of independent samples, which is how a round's deferred
//! sparsifiers share one set-up
//! ([`crate::deferred::DeferredSparsifier::build_round`]).

use crate::connectivity::forest_decomposition_of_edges;
use mwm_graph::{Edge, EdgeId, Graph};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Tuning knobs of the sparsifier.
#[derive(Clone, Copy, Debug)]
pub struct SparsifierConfig {
    /// Target cut accuracy `ξ` (relative error of every cut).
    pub xi: f64,
    /// Oversampling constant `C` in the probability `min(1, C·ln n / (ξ²·k_e))`.
    pub oversample: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SparsifierConfig {
    fn default() -> Self {
        SparsifierConfig { xi: 0.1, oversample: 6.0, seed: 0xC0FFEE }
    }
}

/// A sparsified graph: a subset of the original edges with new weights, plus
/// bookkeeping about which original edge each kept edge came from.
#[derive(Clone, Debug)]
pub struct SparsifiedGraph {
    /// Number of vertices (same vertex set as the original graph).
    pub n: usize,
    /// Kept edges: `(original_edge_id, endpoints/original weight, sparsifier weight)`.
    pub edges: Vec<(EdgeId, Edge, f64)>,
}

impl SparsifiedGraph {
    /// Number of kept edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Materializes the subgraph of kept edges carrying their *original* weights.
    pub fn to_support_graph(&self) -> Graph {
        let mut g = Graph::new(self.n);
        for &(_, e, _) in &self.edges {
            g.add_edge(e.u, e.v, e.w);
        }
        g
    }

    /// Value of a cut in the sparsifier (using sparsifier weights).
    pub fn cut_value(&self, in_u: &[bool]) -> f64 {
        self.edges
            .iter()
            .filter(|(_, e, _)| in_u[e.u as usize] != in_u[e.v as usize])
            .map(|&(_, _, w)| w)
            .sum()
    }
}

/// The sampling probabilities of one Benczúr–Karger sparsifier, computed
/// once and shared by every draw.
///
/// Entries are listed in sampling order: `⌊log₂ w⌋` classes ascending, input
/// order within a class. Entry `e` carries
/// `p_e = min(1, C·ln n / (ξ²·k_e))`, where `k_e` is the edge's forest index
/// among the edges of its class.
#[derive(Debug)]
pub(crate) struct SamplingTable {
    entries: Vec<(EdgeId, f64)>,
}

impl SamplingTable {
    /// Builds the table over `edges`, `(id, edge)` pairs of an `n`-vertex
    /// graph whose `edge.w` is the weight the sampling classes by. `xi` and
    /// `oversample` are `ξ` and `C`.
    pub(crate) fn new(
        n: usize,
        edges: impl IntoIterator<Item = (EdgeId, Edge)>,
        xi: f64,
        oversample: f64,
    ) -> Self {
        // Group edges into geometric weight classes [2^l, 2^{l+1}); the sort
        // is stable, so a class keeps the input order.
        let mut classed: Vec<(i32, EdgeId, u32, u32)> = edges
            .into_iter()
            .map(|(id, e)| {
                assert!(
                    e.w.is_finite() && e.w > 0.0,
                    "sampling weights must be positive and finite"
                );
                (e.w.log2().floor() as i32, id, e.u, e.v)
            })
            .collect();
        classed.sort_by_key(|&(class, ..)| class);
        let ln_n = (n.max(2) as f64).ln();
        let base_rate = oversample * ln_n / (xi * xi);
        let mut entries = Vec::with_capacity(classed.len());
        for class_edges in classed.chunk_by(|a, b| a.0 == b.0) {
            // Connectivity estimates within the class (unweighted).
            let pairs: Vec<(u32, u32)> = class_edges.iter().map(|&(_, _, u, v)| (u, v)).collect();
            let ks = forest_decomposition_of_edges(n, &pairs);
            for (&(_, id, _, _), &k) in class_edges.iter().zip(&ks) {
                let k_e = k.max(1) as f64;
                entries.push((id, (base_rate / k_e).min(1.0)));
            }
        }
        SamplingTable { entries }
    }

    /// One independent sample: the kept `(id, p)` entries in table order.
    /// Only an entry with `p < 1` consumes randomness, one Bernoulli trial
    /// from an RNG seeded with `seed`.
    pub(crate) fn draw(&self, seed: u64) -> impl Iterator<Item = (EdgeId, f64)> + '_ {
        let mut rng = StdRng::seed_from_u64(seed);
        self.entries.iter().copied().filter(move |&(_, p)| p >= 1.0 || rng.gen_bool(p))
    }
}

/// Builds a `(1±ξ)` cut sparsifier of `graph`: one sampling table and one
/// draw with `config.seed`.
pub fn sparsify(graph: &Graph, config: &SparsifierConfig) -> SparsifiedGraph {
    let n = graph.num_vertices();
    let table = SamplingTable::new(n, graph.edge_iter(), config.xi, config.oversample);
    let edges = table
        .draw(config.seed)
        .map(|(id, p)| {
            let e = graph.edge(id);
            (id, e, e.w / p)
        })
        .collect();
    SparsifiedGraph { n, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::cut_quality_report;
    use mwm_graph::generators::{self, WeightModel};

    #[test]
    fn sparse_graph_is_kept_entirely() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::path(50, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let s = sparsify(&g, &SparsifierConfig::default());
        // Trees have connectivity 1 per edge; probability is 1 → nothing dropped.
        assert_eq!(s.num_edges(), g.num_edges());
        for &(_, e, w) in &s.edges {
            assert!((w - e.w).abs() < 1e-12);
        }
    }

    #[test]
    fn dense_graph_is_compressed() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::complete(120, WeightModel::Unit, &mut rng);
        let s = sparsify(&g, &SparsifierConfig { xi: 0.5, oversample: 0.5, seed: 9 });
        assert!(
            s.num_edges() < g.num_edges() * 2 / 3,
            "K_120 should compress: kept {} of {}",
            s.num_edges(),
            g.num_edges()
        );
    }

    #[test]
    fn degree_cuts_preserved_on_dense_graph() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnp(100, 0.4, WeightModel::Unit, &mut rng);
        let s = sparsify(&g, &SparsifierConfig { xi: 0.15, oversample: 8.0, seed: 3 });
        let report = cut_quality_report(&g, &s, 50, 11);
        assert!(report.max_relative_error < 0.35, "cut error too large: {:?}", report);
    }

    #[test]
    fn expected_total_weight_is_preserved() {
        // Reweighting by 1/p keeps the total weight right in expectation; check
        // it is within a loose factor on one draw.
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnp(90, 0.5, WeightModel::Unit, &mut rng);
        let s = sparsify(&g, &SparsifierConfig { xi: 0.2, oversample: 6.0, seed: 17 });
        let total_s: f64 = s.edges.iter().map(|&(_, _, w)| w).sum();
        let total_g = g.total_weight();
        assert!((total_s - total_g).abs() / total_g < 0.25, "{total_s} vs {total_g}");
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(10);
        let s = sparsify(&g, &SparsifierConfig::default());
        assert_eq!(s.num_edges(), 0);
        assert_eq!(s.to_support_graph().num_vertices(), 10);
    }
}
