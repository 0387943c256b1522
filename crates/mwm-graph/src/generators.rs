//! Synthetic workload generators.
//!
//! The paper's intro motivates MapReduce-scale graphs (social networks, web
//! graphs); since the evaluation is analytical we generate the standard
//! synthetic families used in the streaming-matching literature: Erdős–Rényi,
//! power-law (Chung–Lu), random geometric, random bipartite, plus structured
//! instances (paths, cycles, complete graphs, hard gadget from p.5 of the
//! paper). All generators take an explicit RNG so experiments are reproducible.

use crate::graph::{Graph, VertexId};
use rand::prelude::*;

/// Weight distribution attached to generated edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightModel {
    /// Every edge has weight exactly 1 (cardinality matching).
    Unit,
    /// Uniform in `[lo, hi]`.
    Uniform(f64, f64),
    /// Exponentially distributed with the given mean (heavy-ish tail).
    Exponential(f64),
    /// Power-law: `w = lo · u^{-1/(alpha-1)}` for uniform `u`, truncated at `hi`.
    PowerLaw { lo: f64, hi: f64, alpha: f64 },
}

impl WeightModel {
    /// Samples one weight.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            WeightModel::Unit => 1.0,
            WeightModel::Uniform(lo, hi) => rng.gen_range(lo..=hi),
            WeightModel::Exponential(mean) => {
                let u: f64 = rng.gen_range(1e-12..1.0);
                -mean * u.ln()
            }
            WeightModel::PowerLaw { lo, hi, alpha } => {
                let u: f64 = rng.gen_range(1e-12..1.0);
                (lo * u.powf(-1.0 / (alpha - 1.0))).min(hi)
            }
        }
    }
}

/// Erdős–Rényi `G(n, m)`: exactly `m` distinct uniformly random edges.
pub fn gnm<R: Rng + ?Sized>(n: usize, m: usize, weights: WeightModel, rng: &mut R) -> Graph {
    assert!(n >= 2, "need at least two vertices");
    let max_edges = n * (n - 1) / 2;
    let m = m.min(max_edges);
    let mut g = Graph::new(n);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    while g.num_edges() < m {
        let u = rng.gen_range(0..n) as VertexId;
        let v = rng.gen_range(0..n) as VertexId;
        if u == v {
            continue;
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if seen.insert(key) {
            g.add_edge(u, v, weights.sample(rng));
        }
    }
    g
}

/// Erdős–Rényi `G(n, p)`: each pair independently with probability `p`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, weights: WeightModel, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p));
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(p) {
                g.add_edge(u as VertexId, v as VertexId, weights.sample(rng));
            }
        }
    }
    g
}

/// Chung–Lu power-law graph: vertex `i` gets expected degree `∝ (i+1)^{-1/(beta-1)}`,
/// edges appear independently with probability `min(1, d_u d_v / Σd)`.
pub fn power_law<R: Rng + ?Sized>(
    n: usize,
    beta: f64,
    avg_degree: f64,
    weights: WeightModel,
    rng: &mut R,
) -> Graph {
    assert!(beta > 2.0, "Chung-Lu requires beta > 2 for bounded expected degrees");
    let mut d: Vec<f64> = (0..n).map(|i| ((i + 1) as f64).powf(-1.0 / (beta - 1.0))).collect();
    let sum: f64 = d.iter().sum();
    let scale = avg_degree * n as f64 / sum;
    for x in &mut d {
        *x *= scale;
    }
    let total: f64 = d.iter().sum();
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            let p = (d[u] * d[v] / total).min(1.0);
            if p > 0.0 && rng.gen_bool(p) {
                g.add_edge(u as VertexId, v as VertexId, weights.sample(rng));
            }
        }
    }
    g
}

/// Random geometric graph on the unit square: vertices at random points,
/// edge when the Euclidean distance is below `radius`; weight can optionally
/// be overridden by the model (otherwise distance-based weights are natural,
/// we use the model for consistency with the other generators).
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    weights: WeightModel,
    rng: &mut R,
) -> Graph {
    let pts: Vec<(f64, f64)> = (0..n).map(|_| (rng.gen::<f64>(), rng.gen::<f64>())).collect();
    let mut g = Graph::new(n);
    let r2 = radius * radius;
    for u in 0..n {
        for v in (u + 1)..n {
            let dx = pts[u].0 - pts[v].0;
            let dy = pts[u].1 - pts[v].1;
            if dx * dx + dy * dy <= r2 {
                g.add_edge(u as VertexId, v as VertexId, weights.sample(rng));
            }
        }
    }
    g
}

/// Random bipartite graph with sides of size `left` and `right`; each cross
/// pair appears with probability `p`. Left vertices are `0..left`, right are
/// `left..left+right`.
pub fn random_bipartite<R: Rng + ?Sized>(
    left: usize,
    right: usize,
    p: f64,
    weights: WeightModel,
    rng: &mut R,
) -> Graph {
    let n = left + right;
    let mut g = Graph::new(n);
    for u in 0..left {
        for v in 0..right {
            if rng.gen_bool(p) {
                g.add_edge(u as VertexId, (left + v) as VertexId, weights.sample(rng));
            }
        }
    }
    g
}

/// Path on `n` vertices with the given weights.
pub fn path<R: Rng + ?Sized>(n: usize, weights: WeightModel, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n.saturating_sub(1) {
        g.add_edge(i as VertexId, (i + 1) as VertexId, weights.sample(rng));
    }
    g
}

/// Cycle on `n ≥ 3` vertices.
pub fn cycle<R: Rng + ?Sized>(n: usize, weights: WeightModel, rng: &mut R) -> Graph {
    assert!(n >= 3);
    let mut g = path(n, weights, rng);
    g.add_edge((n - 1) as VertexId, 0, weights.sample(rng));
    g
}

/// Complete graph `K_n`.
pub fn complete<R: Rng + ?Sized>(n: usize, weights: WeightModel, rng: &mut R) -> Graph {
    let mut g = Graph::new(n);
    for u in 0..n {
        for v in (u + 1)..n {
            g.add_edge(u as VertexId, v as VertexId, weights.sample(rng));
        }
    }
    g
}

/// The triangle gadget from page 5 of the paper: a triangle where two edges
/// have weight 1 and the third has weight `10ε` relative to them, scaled by
/// `base`. With all `b_i = 1` the bipartite relaxation has value `1 + 5ε·base`
/// while the integral optimum is `1·base` — demonstrating that odd-set
/// constraints are necessary for a `(1-ε)` approximation.
pub fn triangle_gadget(eps: f64, base: f64) -> Graph {
    assert!(eps > 0.0 && eps < 1.0);
    assert!(base > 0.0);
    let mut g = Graph::new(3);
    // Vertex 2 is the "apex" of the paper's figure.
    g.add_edge(0, 1, base);
    g.add_edge(0, 2, 10.0 * eps * base);
    g.add_edge(1, 2, 10.0 * eps * base);
    g
}

/// Assigns uniformly random integral capacities `b_i ∈ [1, max_b]` to every vertex.
pub fn randomize_capacities<R: Rng + ?Sized>(graph: &mut Graph, max_b: u64, rng: &mut R) {
    assert!(max_b >= 1);
    for v in 0..graph.num_vertices() {
        graph.set_b(v as VertexId, rng.gen_range(1..=max_b));
    }
}

/// A "hard for greedy" layered instance: a path where weights strictly
/// increase so that greedy by arrival order makes maximally bad choices.
pub fn greedy_adversarial_path(n: usize, ratio: f64) -> Graph {
    assert!(n >= 2 && ratio > 1.0);
    let mut g = Graph::new(n);
    let mut w = 1.0;
    for i in 0..n - 1 {
        g.add_edge(i as VertexId, (i + 1) as VertexId, w);
        w *= ratio;
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gnm_has_exact_edge_count() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = gnm(50, 200, WeightModel::Unit, &mut rng);
        assert_eq!(g.num_edges(), 200);
        assert_eq!(g.num_vertices(), 50);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnm(5, 1000, WeightModel::Unit, &mut rng);
        assert_eq!(g.num_edges(), 10);
    }

    #[test]
    fn gnp_monotone_in_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let sparse = gnp(60, 0.05, WeightModel::Unit, &mut rng);
        let mut rng = StdRng::seed_from_u64(3);
        let dense = gnp(60, 0.5, WeightModel::Unit, &mut rng);
        assert!(dense.num_edges() > sparse.num_edges());
    }

    #[test]
    fn bipartite_generator_is_bipartite() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = random_bipartite(20, 30, 0.2, WeightModel::Uniform(1.0, 5.0), &mut rng);
        assert!(g.bipartition().is_some());
        for e in g.edges() {
            assert!((e.u < 20) != (e.v < 20));
        }
    }

    #[test]
    fn power_law_has_skewed_degrees() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = power_law(300, 2.5, 4.0, WeightModel::Unit, &mut rng);
        let mut degree = vec![0usize; g.num_vertices()];
        for e in g.edges() {
            degree[e.u as usize] += 1;
            degree[e.v as usize] += 1;
        }
        let max_deg = degree.into_iter().max().unwrap_or(0);
        let avg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 2.0 * avg,
            "power-law should have a hub: max={max_deg}, avg={avg}"
        );
    }

    #[test]
    fn geometric_graph_edges_are_local() {
        let mut rng = StdRng::seed_from_u64(6);
        let g = random_geometric(100, 0.15, WeightModel::Unit, &mut rng);
        // Sanity: should be far from complete.
        assert!(g.num_edges() < 100 * 99 / 4);
    }

    #[test]
    fn structured_generators() {
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(path(10, WeightModel::Unit, &mut rng).num_edges(), 9);
        assert_eq!(cycle(10, WeightModel::Unit, &mut rng).num_edges(), 10);
        assert_eq!(complete(6, WeightModel::Unit, &mut rng).num_edges(), 15);
    }

    #[test]
    fn triangle_gadget_weights() {
        let g = triangle_gadget(0.05, 1.0);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.num_vertices(), 3);
        let heavy = g.edges().iter().filter(|e| (e.w - 1.0).abs() < 1e-12).count();
        let light = g.edges().iter().filter(|e| (e.w - 0.5).abs() < 1e-12).count();
        assert_eq!(heavy, 1);
        assert_eq!(light, 2);
    }

    #[test]
    fn weight_models_produce_positive_weights() {
        let mut rng = StdRng::seed_from_u64(8);
        for model in [
            WeightModel::Unit,
            WeightModel::Uniform(0.5, 2.0),
            WeightModel::Exponential(3.0),
            WeightModel::PowerLaw { lo: 1.0, hi: 100.0, alpha: 2.2 },
        ] {
            for _ in 0..200 {
                let w = model.sample(&mut rng);
                assert!(w > 0.0 && w.is_finite());
            }
        }
    }

    #[test]
    fn capacities_randomized_in_range() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = gnm(30, 60, WeightModel::Unit, &mut rng);
        randomize_capacities(&mut g, 5, &mut rng);
        for v in 0..30u32 {
            assert!((1..=5).contains(&g.b(v)));
        }
    }

    #[test]
    fn adversarial_path_increasing() {
        let g = greedy_adversarial_path(6, 2.0);
        let ws: Vec<f64> = g.edges().iter().map(|e| e.w).collect();
        for i in 1..ws.len() {
            assert!(ws[i] > ws[i - 1]);
        }
    }
}
