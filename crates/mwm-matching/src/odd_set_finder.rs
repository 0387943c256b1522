//! Detection of dense small odd sets (the substitute for Lemma 24 / Lemma 25).
//!
//! Lemma 24 of the paper asks for a maximal collection `L` of mutually
//! disjoint odd sets `U` that are *dense* with respect to edge charges `q_ij`
//! and vertex budgets `q̂_i`:
//!
//! ```text
//!   (i)  Σ_{(i,j)⊆U} q_ij ≥ ½ (Σ_{i∈U} q̂_i − 1)            for every U ∈ L,
//!   (ii) any other small odd set either intersects L or satisfies
//!        Σ_{(i,j)⊆U} q_ij ≤ ½ (Σ_{i∈U} q̂_i − (1−ε)).
//! ```
//!
//! The paper achieves this with minimum-odd-cut machinery (Padberg–Rao on an
//! approximate Gomory–Hu tree). We substitute a candidate-generation +
//! greedy-selection procedure that (a) only ever returns sets certified to
//! satisfy (i) — the certificate is checked exactly — and (b) explores the
//! natural candidate families (heavy-edge components, balls around heavy
//! vertices, and exhaustive tiny sets on small graphs). Condition (ii) is then
//! guaranteed with respect to the explored families only. The MicroOracle
//! only relies on returned sets being genuine (condition (i)) plus
//! disjointness — both are exact here.

use mwm_graph::{Graph, VertexId};

/// Configuration of the dense-odd-set search.
#[derive(Clone, Copy, Debug)]
pub struct DenseOddSetConfig {
    /// Maximum `||U||_b` of a returned set (the paper uses `4/ε`).
    pub max_capacity: u64,
    /// The slack constant `C ≥ 1` of condition (A1) (returned sets must have
    /// `Σ q_ij ≥ ½(Σ q̂_i − C)`); the paper's Lemma 16 uses `C = 1`.
    pub slack: f64,
    /// If the number of candidate vertices is at most this, run the exhaustive
    /// enumeration over subsets of size ≤ 7 as an extra candidate family.
    pub exhaustive_below: usize,
}

impl Default for DenseOddSetConfig {
    fn default() -> Self {
        DenseOddSetConfig { max_capacity: 16, slack: 1.0, exhaustive_below: 14 }
    }
}

/// A dense odd set found by the search.
#[derive(Clone, Debug)]
pub struct DenseOddSet {
    /// Sorted member vertices.
    pub vertices: Vec<VertexId>,
    /// `Σ_{(i,j)⊆U} q_ij`.
    pub internal_charge: f64,
    /// `Σ_{i∈U} q̂_i`.
    pub budget: f64,
    /// `||U||_b`.
    pub capacity: u64,
}

/// Finds a collection of mutually disjoint dense small odd sets.
///
/// * `graph` supplies endpoints and the capacities `b_i`.
/// * `q(edge_id) = q_ij ≥ 0` are the edge charges.
/// * `q_hat(v) = q̂_i ≥ 0` are the vertex budgets.
pub fn find_dense_odd_sets(
    graph: &Graph,
    q: &dyn Fn(usize) -> f64,
    q_hat: &dyn Fn(VertexId) -> f64,
    config: &DenseOddSetConfig,
) -> Vec<DenseOddSet> {
    let n = graph.num_vertices();
    // Active vertices: incident to at least one positively charged edge.
    let mut active = vec![false; n];
    let mut charged_edges: Vec<(usize, VertexId, VertexId, f64)> = Vec::new();
    for (id, e) in graph.edge_iter() {
        let qe = q(id);
        if qe > 0.0 {
            active[e.u as usize] = true;
            active[e.v as usize] = true;
            charged_edges.push((id, e.u, e.v, qe));
        }
    }
    if charged_edges.is_empty() {
        return Vec::new();
    }

    // --- Candidate generation -------------------------------------------------
    let mut candidates: Vec<Vec<VertexId>> = Vec::new();

    // (a) Connected components of the subgraph of edges with charge above a set
    //     of geometric thresholds, truncated by capacity.
    let max_q = charged_edges.iter().map(|&(_, _, _, q)| q).fold(0.0f64, f64::max);
    let mut threshold = max_q;
    for _ in 0..12 {
        let mut uf = mwm_graph::UnionFind::new(n);
        for &(_, u, v, qe) in &charged_edges {
            if qe >= threshold {
                uf.union(u as usize, v as usize);
            }
        }
        for group in uf.groups() {
            if group.len() >= 3 {
                candidates.push(group.iter().map(|&x| x as VertexId).collect());
            }
        }
        threshold /= 2.0;
        if threshold < max_q * 1e-4 {
            break;
        }
    }

    // (b) Balls of radius 1 around every active vertex (vertex + charged neighbours,
    //     heaviest first), at several prefix sizes.
    let mut nbrs: Vec<Vec<(VertexId, f64)>> = vec![Vec::new(); n];
    for &(_, u, v, qe) in &charged_edges {
        nbrs[u as usize].push((v, qe));
        nbrs[v as usize].push((u, qe));
    }
    for v in 0..n {
        if !active[v] {
            continue;
        }
        let mut ns = nbrs[v].clone();
        ns.sort_by(|a, b| b.1.total_cmp(&a.1));
        for take in 2..=ns.len().min(8) {
            let mut set: Vec<VertexId> = ns[..take].iter().map(|&(u, _)| u).collect();
            set.push(v as VertexId);
            candidates.push(set);
        }
    }

    // (c) Exhaustive tiny subsets when the active-vertex count is small.
    let active_list: Vec<VertexId> = (0..n as u32).filter(|&v| active[v as usize]).collect();
    if active_list.len() <= config.exhaustive_below {
        let k = active_list.len();
        for mask in 1u32..(1 << k) {
            if mask.count_ones() >= 3 && mask.count_ones() <= 7 {
                let set: Vec<VertexId> =
                    (0..k).filter(|&i| (mask >> i) & 1 == 1).map(|i| active_list[i]).collect();
                candidates.push(set);
            }
        }
    }

    // --- Evaluation & greedy disjoint selection --------------------------------
    let evaluate = |set: &[VertexId]| -> Option<DenseOddSet> {
        if set.len() < 3 {
            return None;
        }
        let mut sorted = set.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let capacity: u64 = sorted.iter().map(|&v| graph.b(v)).sum();
        if capacity.is_multiple_of(2) || capacity > config.max_capacity {
            return None;
        }
        let member = |x: VertexId| sorted.binary_search(&x).is_ok();
        let internal: f64 = charged_edges
            .iter()
            .filter(|&&(_, u, v, _)| member(u) && member(v))
            .map(|&(_, _, _, qe)| qe)
            .sum();
        let budget: f64 = sorted.iter().map(|&v| q_hat(v)).sum();
        if internal >= 0.5 * (budget - config.slack) && internal > 0.0 {
            Some(DenseOddSet { vertices: sorted, internal_charge: internal, budget, capacity })
        } else {
            None
        }
    };

    let mut valid: Vec<DenseOddSet> = candidates.iter().filter_map(|s| evaluate(s)).collect();
    // Prefer densest sets first (largest surplus over the requirement).
    valid.sort_by(|a, b| {
        let sa = a.internal_charge - 0.5 * (a.budget - config.slack);
        let sb = b.internal_charge - 0.5 * (b.budget - config.slack);
        sb.total_cmp(&sa)
    });
    let mut taken = vec![false; n];
    let mut out = Vec::new();
    for cand in valid {
        if cand.vertices.iter().any(|&v| taken[v as usize]) {
            continue;
        }
        for &v in &cand.vertices {
            taken[v as usize] = true;
        }
        out.push(cand);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// A triangle with heavy internal charges is the canonical dense odd set.
    #[test]
    fn finds_overloaded_triangle() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(3, 4, 1.0);
        // Edge charges: each triangle edge carries 0.5 (fractional overload),
        // the far edge carries almost nothing.
        let q = |id: usize| if id < 3 { 0.5 } else { 0.01 };
        let q_hat = |_v: VertexId| 1.0;
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &DenseOddSetConfig::default());
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].vertices, vec![0, 1, 2]);
        // Certificate: 1.5 >= 0.5 * (3 - 1) = 1.
        assert!(sets[0].internal_charge >= 0.5 * (sets[0].budget - 1.0));
    }

    #[test]
    fn returns_nothing_when_charges_are_light() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(20, 60, WeightModel::Unit, &mut rng);
        let q = |_id: usize| 0.01;
        let q_hat = |_v: VertexId| 1.0;
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &DenseOddSetConfig::default());
        assert!(sets.is_empty());
    }

    #[test]
    fn returned_sets_are_disjoint_and_odd() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnp(24, 0.3, WeightModel::Unit, &mut rng);
        let q = |_id: usize| 0.6;
        let q_hat = |_v: VertexId| 1.0;
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &DenseOddSetConfig::default());
        let mut seen = std::collections::HashSet::new();
        for s in &sets {
            assert_eq!(s.capacity % 2, 1, "capacity must be odd");
            assert!(s.capacity <= 16);
            for &v in &s.vertices {
                assert!(seen.insert(v), "sets must be mutually disjoint");
            }
            // Condition (i) certified exactly.
            assert!(s.internal_charge >= 0.5 * (s.budget - 1.0) - 1e-12);
        }
    }

    #[test]
    fn respects_capacity_limit() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::complete(11, WeightModel::Unit, &mut rng);
        let q = |_id: usize| 1.0;
        let q_hat = |_v: VertexId| 1.0;
        let cfg = DenseOddSetConfig { max_capacity: 5, ..Default::default() };
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &cfg);
        for s in &sets {
            assert!(s.capacity <= 5);
        }
    }

    #[test]
    fn two_separate_triangles_both_found() {
        let mut g = Graph::new(6);
        for base in [0u32, 3] {
            g.add_edge(base, base + 1, 1.0);
            g.add_edge(base + 1, base + 2, 1.0);
            g.add_edge(base, base + 2, 1.0);
        }
        let q = |_id: usize| 0.5;
        let q_hat = |_v: VertexId| 1.0;
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &DenseOddSetConfig::default());
        assert_eq!(sets.len(), 2);
    }

    #[test]
    fn b_capacities_affect_parity() {
        // With b = (2,1,1,1) the 4-set {0,1,2,3} has odd capacity 5 and can be dense.
        let mut g = Graph::new(4);
        g.set_b(0, 2);
        for u in 0..4u32 {
            for v in (u + 1)..4 {
                g.add_edge(u, v, 1.0);
            }
        }
        let q = |_id: usize| 1.0;
        let q_hat = |v: VertexId| if v == 0 { 2.0 } else { 1.0 };
        let cfg = DenseOddSetConfig { max_capacity: 9, ..Default::default() };
        let sets = find_dense_odd_sets(&g, &q, &q_hat, &cfg);
        assert!(!sets.is_empty());
        assert!(sets.iter().all(|s| s.capacity % 2 == 1));
    }
}
