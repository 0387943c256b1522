//! Deferred cut sparsifiers (Definition 4, Lemma 17).
//!
//! The problem: we must *decide which edges to store* knowing only promise
//! values `ς_e` with `ς_e/χ ≤ u_e ≤ ς_e·χ`, and only afterwards are the true
//! weights `u_e` of the stored edges revealed. The paper's observation is that
//! running the standard importance-sampling construction on the `ς` values and
//! inflating every sampling probability by `χ²` guarantees that each edge is
//! stored with at least the probability the *true* weights would have demanded;
//! revealing the weights then yields a genuine `(1±ξ)` sparsifier of the
//! `u`-weighted graph.
//!
//! In the dual-primal algorithm the `u_e` are the exponential multipliers of
//! the covering solver: they change by a factor at most `(1+ε)` per oracle
//! call, so over `ε^{-1} ln γ` calls they stay within `γ` of the value at
//! sampling time — the sampling round sets `ς_e` to the current multiplier and
//! `χ = γ`, and the `ln γ` deferred sparsifiers of one round are *refined*
//! sequentially (Figure 1, right) without touching the input again.
//!
//! A round's structures share one promise vector, so they share one
//! Benczúr–Karger sampling table ([`crate::benczur_karger`]):
//! [`DeferredSparsifier::build_round`] classes the promises and decomposes
//! each class into forests once, then draws one independent sample per seed.
//! [`DeferredSparsifier::build`] is its one-seed case.

use crate::benczur_karger::{SamplingTable, SparsifiedGraph};
use mwm_graph::{Edge, EdgeId, Graph};

/// An edge stored by the deferred structure: its id and the probability its
/// draw used. Endpoints come from the graph and the promise from the promise
/// vector the structure was built from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PromisedEdge {
    /// Original edge id.
    pub id: EdgeId,
    /// Probability with which the edge was stored (after `χ²` inflation).
    pub probability: f64,
}

/// The data structure `D` of Definition 4: a set of stored edge indices chosen
/// from promise values, which can later be turned into a weighted sparsifier
/// once the exact multiplier values of the stored edges are revealed.
#[derive(Clone, Debug)]
pub struct DeferredSparsifier {
    stored: Vec<PromisedEdge>,
    chi: f64,
    xi: f64,
}

impl DeferredSparsifier {
    /// Builds one deferred structure: [`DeferredSparsifier::build_round`]
    /// with the single seed `seed`.
    pub fn build(graph: &Graph, promise: &[f64], chi: f64, xi: f64, seed: u64) -> Self {
        let mut one = Self::build_round(graph, promise, chi, xi, &[seed]);
        one.pop().expect("one seed builds one structure")
    }

    /// Builds one deferred structure per seed from one sampling table.
    ///
    /// * `graph` — the underlying graph (supplies endpoints; its weights are
    ///   the matching weights, not the multipliers).
    /// * `promise` — `ς_e` per edge id (must be positive for edges that may
    ///   carry a nonzero multiplier; edges with `ς_e = 0` are never stored).
    /// * `chi` — the promise ratio `χ ≥ 1`.
    /// * `xi` — target cut accuracy of the final sparsifier.
    /// * `seeds` — the sampling randomness, one independent draw per seed.
    pub fn build_round(
        graph: &Graph,
        promise: &[f64],
        chi: f64,
        xi: f64,
        seeds: &[u64],
    ) -> Vec<Self> {
        assert_eq!(promise.len(), graph.num_edges());
        assert!(chi >= 1.0 && xi > 0.0);
        // The promise-weighted edges; edges with zero promise are dropped
        // entirely (they may not carry weight later per the promise).
        let promised = graph
            .edge_iter()
            .filter(|&(id, _)| promise[id] > 0.0)
            .map(|(id, e)| (id, Edge::new(e.u, e.v, promise[id])));
        // Oversample by chi^2: the probability computed from promise values is
        // inflated so it dominates the probability the true weights would need.
        let table = SamplingTable::new(graph.num_vertices(), promised, xi, 6.0 * chi * chi);
        seeds
            .iter()
            .map(|&seed| DeferredSparsifier {
                stored: table
                    .draw(seed)
                    .map(|(id, probability)| PromisedEdge { id, probability })
                    .collect(),
                chi,
                xi,
            })
            .collect()
    }

    /// Number of stored edge indices (`n˜_s` of Definition 4).
    pub fn num_stored(&self) -> usize {
        self.stored.len()
    }

    /// The stored edges.
    pub fn stored_edges(&self) -> &[PromisedEdge] {
        &self.stored
    }

    /// The promise ratio χ the structure was built with.
    pub fn chi(&self) -> f64 {
        self.chi
    }

    /// The cut accuracy ξ the structure was built with.
    pub fn xi(&self) -> f64 {
        self.xi
    }

    /// Reveals the true multiplier values and produces the weighted sparsifier
    /// `u^s` of `graph`, the graph the structure was built on: stored edge `e`
    /// receives value `u_e / p_e`, all other edges 0.
    ///
    /// `reveal(id)` must return the *current* multiplier `u_e` of edge `id`; it
    /// is only invoked for stored edges (that is the whole point of deferral).
    pub fn reveal(&self, graph: &Graph, mut reveal: impl FnMut(EdgeId) -> f64) -> SparsifiedGraph {
        let edges = self
            .stored
            .iter()
            .filter_map(|pe| {
                let u = reveal(pe.id);
                if u <= 0.0 {
                    None
                } else {
                    let e = graph.edge(pe.id);
                    Some((pe.id, Edge::new(e.u, e.v, u), u / pe.probability))
                }
            })
            .collect();
        SparsifiedGraph { n: graph.num_vertices(), edges }
    }

    /// Checks the promise `ς/χ ≤ u ≤ ς·χ` for the stored edges against the
    /// revealed values, where `promise` is the vector the structure was built
    /// from; returns the ids of violating edges (diagnostics).
    pub fn promise_violations(
        &self,
        promise: &[f64],
        mut reveal: impl FnMut(EdgeId) -> f64,
    ) -> Vec<EdgeId> {
        self.stored
            .iter()
            .filter_map(|pe| {
                let u = reveal(pe.id);
                if u <= 0.0 {
                    return None;
                }
                let lo = promise[pe.id] / self.chi - 1e-12;
                let hi = promise[pe.id] * self.chi + 1e-12;
                if u < lo || u > hi {
                    Some(pe.id)
                } else {
                    None
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::forest_decomposition_of_edges;
    use crate::quality::cut_quality_report;
    use mwm_graph::generators::{self, WeightModel};
    use proptest::prelude::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use std::collections::BTreeMap;

    /// The per-seed construction the round constructor replaced, kept as the
    /// reference it must reproduce: a promise graph, its weight classes and
    /// their forest decompositions built for one seed, then one draw.
    fn reference_build(
        graph: &Graph,
        promise: &[f64],
        chi: f64,
        xi: f64,
        seed: u64,
    ) -> Vec<PromisedEdge> {
        let mut promise_graph = Graph::with_capacities(graph.capacities().to_vec());
        let mut back_map = Vec::new();
        for (id, e) in graph.edge_iter() {
            if promise[id] > 0.0 {
                promise_graph.add_edge(e.u, e.v, promise[id]);
                back_map.push(id);
            }
        }
        let n = promise_graph.num_vertices();
        let mut rng = StdRng::seed_from_u64(seed);
        let base_rate = 6.0 * chi * chi * (n.max(2) as f64).ln() / (xi * xi);
        let mut classes: BTreeMap<i32, Vec<(EdgeId, Edge)>> = BTreeMap::new();
        for (id, e) in promise_graph.edge_iter() {
            classes.entry(e.w.log2().floor() as i32).or_default().push((id, e));
        }
        let mut kept = Vec::new();
        for (_, class_edges) in classes {
            let pairs: Vec<(u32, u32)> = class_edges.iter().map(|&(_, e)| (e.u, e.v)).collect();
            let ks = forest_decomposition_of_edges(n, &pairs);
            for (pos, &(local_id, _)) in class_edges.iter().enumerate() {
                let p = (base_rate / ks[pos].max(1) as f64).min(1.0);
                if p >= 1.0 || rng.gen_bool(p) {
                    kept.push(PromisedEdge { id: back_map[local_id], probability: p });
                }
            }
        }
        kept
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        /// A round's draws equal the per-seed reference draws, seed by seed:
        /// the same ids, in the same order, with the same probabilities. At
        /// n ≤ 60 and χ = 1 a probability falls below 1 only once
        /// 6·ln n/ξ² is below the forest index, so ξ ∈ [2, 4) puts about
        /// 58% of the probabilities below 1 and most tables mix both kinds;
        /// ξ ≤ 1 would leave every probability at 1 and draw nothing.
        #[test]
        fn a_round_draws_what_per_seed_builds_drew(
            shape in (2usize..61, 0.0f64..1.0, 0u64..u64::MAX),
            xi in 2.0f64..4.0,
            seeds in proptest::collection::vec(0u64..u64::MAX, 1..8),
        ) {
            let (n, density, graph_seed) = shape;
            let mut rng = StdRng::seed_from_u64(graph_seed);
            let m = ((n * (n - 1) / 2) as f64 * density).ceil() as usize;
            let g = generators::gnm(n, m, WeightModel::Unit, &mut rng);
            // Positive promises over two weight classes, with a few zeros so
            // that dropped edges shift the ids.
            let promise: Vec<f64> = (0..g.num_edges())
                .map(|_| if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.5..2.0) })
                .collect();
            let round = DeferredSparsifier::build_round(&g, &promise, 1.0, xi, &seeds);
            prop_assert_eq!(round.len(), seeds.len());
            for (d, &seed) in round.iter().zip(&seeds) {
                let reference = reference_build(&g, &promise, 1.0, xi, seed);
                prop_assert_eq!(d.stored_edges(), &reference[..], "seed {}", seed);
                let single = DeferredSparsifier::build(&g, &promise, 1.0, xi, seed);
                prop_assert_eq!(single.stored_edges(), d.stored_edges(), "seed {}", seed);
            }
        }
    }

    /// Builds a multiplier-weighted graph to compare cuts against.
    fn multiplier_graph(g: &Graph, u: &[f64]) -> Graph {
        let mut mg = Graph::new(g.num_vertices());
        for (id, e) in g.edge_iter() {
            if u[id] > 0.0 {
                mg.add_edge(e.u, e.v, u[id]);
            }
        }
        mg
    }

    #[test]
    fn exact_promise_behaves_like_plain_sparsifier() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnp(70, 0.4, WeightModel::Unit, &mut rng);
        let u: Vec<f64> = (0..g.num_edges()).map(|_| rng.gen_range(0.5..2.0)).collect();
        let d = DeferredSparsifier::build(&g, &u, 1.0, 0.2, 7);
        let s = d.reveal(&g, |id| u[id]);
        let mg = multiplier_graph(&g, &u);
        let report = cut_quality_report(&mg, &s, 30, 3);
        assert!(report.max_relative_error < 0.45, "report {report:?}");
        assert!(d.promise_violations(&u, |id| u[id]).is_empty());
    }

    #[test]
    fn perturbed_weights_within_chi_still_good() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp(70, 0.4, WeightModel::Unit, &mut rng);
        let promise: Vec<f64> = (0..g.num_edges()).map(|_| rng.gen_range(0.5..2.0)).collect();
        let chi = 1.5;
        // True multipliers drift within the promise band.
        let actual: Vec<f64> = promise.iter().map(|&s| s * rng.gen_range(1.0 / chi..chi)).collect();
        let d = DeferredSparsifier::build(&g, &promise, chi, 0.2, 11);
        assert!(d.promise_violations(&promise, |id| actual[id]).is_empty());
        let s = d.reveal(&g, |id| actual[id]);
        let mg = multiplier_graph(&g, &actual);
        let report = cut_quality_report(&mg, &s, 30, 5);
        assert!(report.max_relative_error < 0.5, "report {report:?}");
    }

    #[test]
    fn zero_promise_edges_never_stored() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(40, 200, WeightModel::Unit, &mut rng);
        let mut promise = vec![0.0; g.num_edges()];
        let half = g.num_edges() / 2;
        for p in promise.iter_mut().take(half) {
            *p = 1.0;
        }
        let d = DeferredSparsifier::build(&g, &promise, 2.0, 0.3, 13);
        for pe in d.stored_edges() {
            assert!(pe.id < g.num_edges() / 2, "edge with zero promise was stored");
        }
    }

    #[test]
    fn larger_chi_stores_more_edges() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::complete(80, WeightModel::Unit, &mut rng);
        let promise: Vec<f64> = vec![1.0; g.num_edges()];
        let small = DeferredSparsifier::build(&g, &promise, 1.0, 0.3, 17);
        let large = DeferredSparsifier::build(&g, &promise, 3.0, 0.3, 17);
        assert!(
            large.num_stored() >= small.num_stored(),
            "chi=3 stored {} < chi=1 stored {}",
            large.num_stored(),
            small.num_stored()
        );
    }

    #[test]
    fn reveal_drops_zeroed_multipliers() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::gnm(30, 100, WeightModel::Unit, &mut rng);
        let promise = vec![1.0; g.num_edges()];
        let d = DeferredSparsifier::build(&g, &promise, 2.0, 0.3, 19);
        let s = d.reveal(&g, |_| 0.0);
        assert_eq!(s.num_edges(), 0);
    }

    #[test]
    fn violations_detected() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = generators::gnm(20, 60, WeightModel::Unit, &mut rng);
        let promise = vec![1.0; g.num_edges()];
        let d = DeferredSparsifier::build(&g, &promise, 1.2, 0.3, 23);
        if d.num_stored() > 0 {
            let bad = d.promise_violations(&promise, |_| 100.0);
            assert_eq!(bad.len(), d.num_stored());
        }
    }
}
