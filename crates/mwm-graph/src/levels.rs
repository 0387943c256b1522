//! Weight discretization into levels `ŵ_k = (1+ε)^k` (Definitions 2–3).
//!
//! The paper rescales all weights by `B / W*` and then snaps each edge weight
//! `w_ij` to the largest power `ŵ_k = (1+ε)^k` with `(W*/B)·ŵ_k ≤ w_ij`, i.e.
//! each edge belongs to exactly one weight class `Ê_k`. Edges whose rescaled
//! weight falls below 1 (i.e. below `W*/B`) are dropped — they cannot matter
//! for a `(1-ε)` approximation because even taking all of them is dominated by
//! a single heaviest edge (Observation 1).

use crate::graph::Graph;

/// The weight-class table of Definitions 2–3: class `k` holds the weights
/// whose rescaled value `w · scale` lies in `[(1+ε)^k, (1+ε)^{k+1})`, and its
/// discretized weight is `ŵ_k = (1+ε)^k`.
///
/// The table lists `ŵ_0 = 1, ŵ_1, …` until one entry strictly exceeds the
/// largest rescaled weight it must cover, so a class lookup is one multiply
/// plus a `partition_point` — no per-edge `ln` or `powi`. The solver's
/// levels ([`WeightLevels::classes`]), its batch passes and Lattanzi's
/// bucketing all classify through this one table.
#[derive(Clone, Debug)]
pub struct WeightClasses {
    /// Rescale factor applied to a weight before classification.
    scale: f64,
    /// `weights[k] = (1+ε)^k`, strictly increasing.
    weights: Vec<f64>,
}

impl WeightClasses {
    /// Builds the table for ratio `1+eps` under rescale factor `scale`,
    /// covering rescaled weights up to `max_scaled`: entries `(1+eps)^k` for
    /// `k = 0, 1, …` until one strictly exceeds `max_scaled`.
    pub fn new(eps: f64, scale: f64, max_scaled: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(scale > 0.0 && scale.is_finite(), "scale must be positive and finite");
        assert!(max_scaled.is_finite(), "max_scaled must be finite");
        let mut weights = Vec::new();
        let mut k = 0i32;
        loop {
            let w = (1.0 + eps).powi(k);
            weights.push(w);
            if w > max_scaled {
                break;
            }
            k += 1;
        }
        WeightClasses { scale, weights }
    }

    /// Number of classes in the table.
    pub fn num_classes(&self) -> usize {
        self.weights.len()
    }

    /// The class of an original-scale weight: the largest `k` with
    /// `(1+ε)^k ≤ w · scale`. `None` when the weight rescales below 1 (a
    /// dropped edge) or the table is empty; weights above the table land in
    /// the top class.
    #[inline]
    pub fn class_of(&self, w: f64) -> Option<usize> {
        let scaled = w * self.scale;
        // `weights[0] = 1`, so no entry is `≤ scaled` exactly when
        // `scaled < 1`.
        self.weights.partition_point(|&b| b <= scaled).checked_sub(1)
    }

    /// [`WeightClasses::class_of`] for a weight held as its IEEE-754 bit
    /// pattern, the form the batch passes' weight columns store.
    #[inline]
    pub fn class_of_bits(&self, w_bits: u64) -> Option<usize> {
        self.class_of(f64::from_bits(w_bits))
    }

    /// The discretized (rescaled) class weight `ŵ_k = (1+ε)^k`.
    #[inline]
    pub fn weight(&self, k: usize) -> f64 {
        self.weights[k]
    }
}

/// The weight-level decomposition of a graph (Definition 3): the class table
/// plus the counts of one classification scan. It holds no edge; the edges of
/// level `k` are those whose weight `classes().class_of(w)` puts in class `k`.
#[derive(Clone, Debug)]
pub struct WeightLevels {
    eps: f64,
    /// The class table under the rescale factor `B / W*`. It ends one class
    /// above the heaviest level, so every edge of the construction graph
    /// classifies inside it.
    classes: WeightClasses,
    /// Number of levels: one past the heaviest edge's class.
    num_levels: usize,
    /// Number of edges with a level.
    kept: usize,
    /// Number of edges dropped because their rescaled weight was below 1.
    dropped: usize,
}

impl WeightLevels {
    /// Builds the decomposition for accuracy parameter `eps ∈ (0, 1)`.
    pub fn new(graph: &Graph, eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        let w_star = graph.max_weight().unwrap_or(0.0);
        if w_star <= 0.0 {
            return WeightLevels {
                eps,
                classes: WeightClasses { scale: 1.0, weights: Vec::new() },
                num_levels: 0,
                kept: 0,
                dropped: 0,
            };
        }
        let b_total = graph.total_capacity().max(1) as f64;
        let scale = b_total / w_star;
        // The largest scaled weight is exactly w_star * scale (weights are
        // positive and multiplication by a positive scale is monotone).
        let classes = WeightClasses::new(eps, scale, w_star * scale);
        let (mut num_levels, mut kept, mut dropped) = (0, 0, 0);
        for edge in graph.edges() {
            match classes.class_of(edge.w) {
                None => dropped += 1,
                Some(k) => {
                    kept += 1;
                    num_levels = num_levels.max(k + 1);
                }
            }
        }
        WeightLevels { eps, classes, num_levels, kept, dropped }
    }

    /// The accuracy parameter used for discretization.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The rescale factor `B / W*`.
    pub fn scale(&self) -> f64 {
        self.classes.scale
    }

    /// The class table the levels were built from.
    pub fn classes(&self) -> &WeightClasses {
        &self.classes
    }

    /// Number of levels `L + 1` (zero for an empty graph).
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Number of edges dropped during rescaling.
    pub fn dropped_edges(&self) -> usize {
        self.dropped
    }

    /// Number of kept (levelled) edges.
    pub fn num_kept_edges(&self) -> usize {
        self.kept
    }

    /// The discretized (rescaled) weight `ŵ_k = (1+ε)^k` of level `k`.
    pub fn level_weight(&self, k: usize) -> f64 {
        self.classes.weight(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn sample_graph() -> Graph {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 4.0);
        g.add_edge(3, 4, 8.0);
        g.add_edge(4, 5, 16.0);
        g
    }

    #[test]
    fn levels_cover_all_heavy_edges() {
        let g = sample_graph();
        let levels = WeightLevels::new(&g, 0.25);
        // B = 6, W* = 16 → scale = 6/16; the two lightest edges rescale below 1 and are dropped.
        assert_eq!(levels.dropped_edges(), 2);
        assert_eq!(levels.num_kept_edges(), 3);
        assert!(levels.num_levels() >= 1);
    }

    #[test]
    fn discretized_weight_within_one_plus_eps() {
        let g = sample_graph();
        let eps = 0.2;
        let levels = WeightLevels::new(&g, eps);
        for edge in g.edges() {
            let Some(k) = levels.classes().class_of(edge.w) else { continue };
            let scaled = edge.w * levels.scale();
            let disc = levels.level_weight(k);
            assert!(disc <= scaled + 1e-9, "discretized weight must not exceed the scaled weight");
            assert!(scaled <= disc * (1.0 + eps) + 1e-9, "discretization loses at most (1+eps)");
        }
    }

    #[test]
    fn class_lookup_matches_the_counts() {
        let g = sample_graph();
        let levels = WeightLevels::new(&g, 0.3);
        let classes = levels.classes();
        let ks: Vec<Option<usize>> = g.edges().iter().map(|e| classes.class_of(e.w)).collect();
        for (e, &k) in g.edges().iter().zip(&ks) {
            assert_eq!(classes.class_of_bits(e.w.to_bits()), k);
        }
        assert_eq!(ks.iter().flatten().count(), levels.num_kept_edges());
        assert_eq!(ks.iter().filter(|k| k.is_none()).count(), levels.dropped_edges());
    }

    #[test]
    fn num_levels_is_one_past_the_heaviest_class() {
        let g = sample_graph();
        let levels = WeightLevels::new(&g, 0.1);
        let top = levels.classes().class_of(16.0).expect("the heaviest edge is never dropped");
        assert_eq!(levels.num_levels(), top + 1);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(4);
        let levels = WeightLevels::new(&g, 0.2);
        assert_eq!(levels.num_levels(), 0);
        assert_eq!(levels.num_kept_edges(), 0);
    }

    #[test]
    fn empty_graph_table_drops_everything() {
        let levels = WeightLevels::new(&Graph::new(3), 0.2);
        assert_eq!(levels.classes().num_classes(), 0);
        assert_eq!(levels.classes().class_of(5.0), None);
    }

    #[test]
    fn class_table_ends_one_class_above_the_heaviest_level() {
        let g = sample_graph();
        let eps = 0.2;
        let levels = WeightLevels::new(&g, eps);
        let classes = levels.classes();
        assert_eq!(classes.weight(0), 1.0, "class 0 starts at scaled weight 1");
        assert_eq!(classes.num_classes(), levels.num_levels() + 1);
        let top = classes.num_classes() - 1;
        assert!(classes.weight(top) > 16.0 * levels.scale(), "table must cover the heaviest edge");
        for (id, edge) in g.edge_iter() {
            if let Some(k) = classes.class_of(edge.w) {
                let scaled = edge.w * levels.scale();
                assert!(levels.level_weight(k) <= scaled, "edge {id}");
                assert!(scaled < levels.level_weight(k + 1), "edge {id}");
            }
        }
        // Weights heavier than the table share its top class.
        assert_eq!(classes.class_of(1e9), Some(top));
    }

    #[test]
    fn level_count_is_logarithmic_in_b() {
        // L = O(ln(B)/eps): with uniform weights everything lands in a few levels.
        let mut g = Graph::new(100);
        for i in 0..99u32 {
            g.add_edge(i, i + 1, 5.0);
        }
        let levels = WeightLevels::new(&g, 0.5);
        let bound = ((g.total_capacity() as f64).ln() / 0.5).ceil() as usize + 2;
        assert!(levels.num_levels() <= bound);
    }
}
