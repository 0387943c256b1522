//! Matching and b-matching containers with feasibility checks.
//!
//! A [`Matching`] is the special case of a [`BMatching`] with all capacities 1
//! and all multiplicities 1; we keep a dedicated type because most validation
//! logic and all baselines operate on plain matchings.

use crate::graph::{Edge, EdgeId, Graph, VertexId};
use std::collections::BTreeMap;

/// A set of edges no two of which share a vertex.
#[derive(Clone, Debug, Default)]
pub struct Matching {
    edges: Vec<(EdgeId, Edge)>,
}

impl Matching {
    /// Creates an empty matching.
    pub fn new() -> Self {
        Matching { edges: Vec::new() }
    }

    /// Adds an edge without checking feasibility (use [`Matching::is_valid`]
    /// afterwards).
    pub fn push(&mut self, id: EdgeId, edge: Edge) {
        self.edges.push((id, edge));
    }

    /// Number of matched edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True if no edge is matched.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total weight of the matching.
    pub fn weight(&self) -> f64 {
        self.edges.iter().map(|(_, e)| e.w).sum()
    }

    /// The matched edges.
    pub fn edges(&self) -> &[(EdgeId, Edge)] {
        &self.edges
    }

    /// Set of matched vertices.
    pub fn matched_vertices(&self) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = self.edges.iter().flat_map(|(_, e)| [e.u, e.v]).collect();
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// True if no vertex appears in more than one matched edge.
    pub fn is_valid(&self, n: usize) -> bool {
        let mut used = vec![false; n];
        for (_, e) in &self.edges {
            let (u, v) = (e.u as usize, e.v as usize);
            if u >= n || v >= n || used[u] || used[v] {
                return false;
            }
            used[u] = true;
            used[v] = true;
        }
        true
    }

    /// Converts to a b-matching (every edge with multiplicity 1).
    pub fn to_b_matching(&self) -> BMatching {
        let mut bm = BMatching::new();
        for &(id, e) in &self.edges {
            bm.add(id, e, 1);
        }
        bm
    }
}

/// A b-matching: edges with integral multiplicities such that the multiplicities
/// of edges incident to each vertex `i` sum to at most `b_i` (LP1 constraints).
#[derive(Clone, Debug, Default)]
pub struct BMatching {
    /// Edge id → (edge, multiplicity). A `BTreeMap` keeps iteration (and
    /// therefore floating-point weight sums) deterministic across processes.
    edges: BTreeMap<EdgeId, (Edge, u64)>,
}

impl BMatching {
    /// Creates an empty b-matching.
    pub fn new() -> Self {
        BMatching { edges: BTreeMap::new() }
    }

    /// Adds `mult` copies of an edge (accumulating with any existing multiplicity).
    pub fn add(&mut self, id: EdgeId, edge: Edge, mult: u64) {
        if mult == 0 {
            return;
        }
        self.edges.entry(id).and_modify(|(_, m)| *m += mult).or_insert((edge, mult));
    }

    /// Number of distinct edges used.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Sum of multiplicities.
    pub fn total_multiplicity(&self) -> u64 {
        self.edges.values().map(|(_, m)| m).sum()
    }

    /// True if no edge is used.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total weight `Σ w_ij · y_ij`.
    pub fn weight(&self) -> f64 {
        self.edges.values().map(|(e, m)| e.w * *m as f64).sum()
    }

    /// Iterator over `(edge_id, edge, multiplicity)`.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, Edge, u64)> + '_ {
        self.edges.iter().map(|(&id, &(e, m))| (id, e, m))
    }

    /// Multiplicity of a specific edge (0 if absent).
    pub fn multiplicity(&self, id: EdgeId) -> u64 {
        self.edges.get(&id).map(|&(_, m)| m).unwrap_or(0)
    }

    /// Load of each vertex (sum of multiplicities of incident edges).
    pub fn vertex_loads(&self, n: usize) -> Vec<u64> {
        let mut load = vec![0u64; n];
        for (e, m) in self.edges.values() {
            load[e.u as usize] += m;
            load[e.v as usize] += m;
        }
        load
    }

    /// True if all degree constraints `Σ_j y_ij ≤ b_i` hold for `graph`.
    pub fn is_valid(&self, graph: &Graph) -> bool {
        let load = self.vertex_loads(graph.num_vertices());
        load.iter().enumerate().all(|(v, &l)| l <= graph.b(v as VertexId))
    }

    /// Residual capacity of vertex `v` w.r.t. `graph`.
    pub fn residual(&self, graph: &Graph, v: VertexId) -> u64 {
        let load: u64 = self.edges.values().filter(|(e, _)| e.is_incident(v)).map(|(_, m)| m).sum();
        graph.b(v).saturating_sub(load)
    }

    /// Extracts a plain matching (only edges with multiplicity ≥ 1, at most one
    /// per vertex, greedily by weight); useful when all `b_i = 1`.
    pub fn to_matching(&self, n: usize) -> Matching {
        let mut edges: Vec<(EdgeId, Edge)> =
            self.edges.iter().map(|(&id, &(e, _))| (id, e)).collect();
        edges.sort_by(|a, b| b.1.w.total_cmp(&a.1.w));
        let mut used = vec![false; n];
        let mut m = Matching::new();
        for (id, e) in edges {
            if !used[e.u as usize] && !used[e.v as usize] {
                used[e.u as usize] = true;
                used[e.v as usize] = true;
                m.push(id, e);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    fn path_graph() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 3, 5.0);
        g
    }

    #[test]
    fn matching_validity() {
        let g = path_graph();
        let mut m = Matching::new();
        m.push(0, g.edge(0));
        m.push(2, g.edge(2));
        assert!(m.is_valid(4));
        assert_eq!(m.len(), 2);
        assert!((m.weight() - 7.0).abs() < 1e-12);
        assert_eq!(m.matched_vertices(), vec![0, 1, 2, 3]);

        let mut bad = Matching::new();
        bad.push(0, g.edge(0));
        bad.push(1, g.edge(1));
        assert!(!bad.is_valid(4));
    }

    #[test]
    fn b_matching_respects_capacities() {
        let mut g = path_graph();
        g.set_b(1, 2);
        g.set_b(2, 2);
        let mut bm = BMatching::new();
        bm.add(0, g.edge(0), 1);
        bm.add(1, g.edge(1), 1);
        bm.add(2, g.edge(2), 1);
        assert!(bm.is_valid(&g));
        assert!((bm.weight() - 10.0).abs() < 1e-12);
        assert_eq!(bm.total_multiplicity(), 3);

        bm.add(1, g.edge(1), 5);
        assert!(!bm.is_valid(&g));
    }

    #[test]
    fn residual_capacity() {
        let mut g = path_graph();
        g.set_b(1, 3);
        let mut bm = BMatching::new();
        bm.add(0, g.edge(0), 2);
        assert_eq!(bm.residual(&g, 1), 1);
        assert_eq!(bm.residual(&g, 0), 0);
        assert_eq!(bm.residual(&g, 3), 1);
    }

    #[test]
    fn b_matching_to_matching_is_valid() {
        let g = path_graph();
        let mut bm = BMatching::new();
        bm.add(0, g.edge(0), 1);
        bm.add(1, g.edge(1), 1);
        bm.add(2, g.edge(2), 1);
        let m = bm.to_matching(4);
        assert!(m.is_valid(4));
        // Greedy by weight picks the 5.0 and the 2.0 edge.
        assert!((m.weight() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn matching_round_trip() {
        let g = path_graph();
        let mut m = Matching::new();
        m.push(2, g.edge(2));
        let bm = m.to_b_matching();
        assert_eq!(bm.multiplicity(2), 1);
        assert_eq!(bm.num_edges(), 1);
        assert!(bm.is_valid(&g));
    }
}
