//! Weighted undirected graphs with per-vertex b-matching capacities.
//!
//! The representation is a flat edge list plus the capacities. All
//! algorithms in the workspace treat the edge list as the canonical
//! "read-only input" of the paper's model (passes stream over it); an offline
//! substrate that needs adjacency (the exact DP, the bipartite solver, the
//! cardinality blossom) builds its own from the list.

use std::fmt;

/// Vertex identifier. Kept at `u32` to halve the memory traffic of the large
/// edge lists used in the resource-scaling experiments.
pub type VertexId = u32;

/// Edge identifier: index into [`Graph::edges`].
pub type EdgeId = usize;

/// A weighted undirected edge `{u, v}` with weight `w > 0`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Edge {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// Edge weight (the `w_ij` of LP1). Must be positive and finite.
    pub w: f64,
}

impl Edge {
    /// Creates a new edge; panics on non-positive or non-finite weight in debug builds.
    pub fn new(u: VertexId, v: VertexId, w: f64) -> Self {
        debug_assert!(w.is_finite() && w > 0.0, "edge weight must be positive and finite");
        Edge { u, v, w }
    }

    /// Returns the endpoint different from `x`; panics if `x` is not an endpoint.
    pub fn other(&self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else {
            debug_assert_eq!(x, self.v, "vertex is not an endpoint of this edge");
            self.u
        }
    }

    /// True if `x` is one of the endpoints.
    pub fn is_incident(&self, x: VertexId) -> bool {
        self.u == x || self.v == x
    }

    /// Endpoints in canonical (min, max) order.
    pub fn key(&self) -> (VertexId, VertexId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

/// A weighted undirected graph with per-vertex capacities `b_i`.
///
/// For standard matching all `b_i = 1` (the default of [`Graph::new`]).
#[derive(Clone, Debug, Default)]
pub struct Graph {
    n: usize,
    edges: Vec<Edge>,
    b: Vec<u64>,
}

impl Graph {
    /// Creates an empty graph on `n` vertices with all capacities `b_i = 1`.
    pub fn new(n: usize) -> Self {
        Graph::with_capacities(vec![1; n])
    }

    /// Creates an empty graph with explicit capacities.
    pub fn with_capacities(b: Vec<u64>) -> Self {
        Graph { n: b.len(), edges: Vec::new(), b }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The b-matching capacity of vertex `v`.
    pub fn b(&self, v: VertexId) -> u64 {
        self.b[v as usize]
    }

    /// Sets the capacity of vertex `v`.
    pub fn set_b(&mut self, v: VertexId, b: u64) {
        assert!(b >= 1, "capacities must be at least 1");
        self.b[v as usize] = b;
    }

    /// Sum of all capacities, `B = Σ_i b_i`.
    pub fn total_capacity(&self) -> u64 {
        self.b.iter().sum()
    }

    /// Slice of all capacities, indexed by vertex id.
    pub fn capacities(&self) -> &[u64] {
        &self.b
    }

    /// True if every capacity is 1: a b-matching of the graph is a matching.
    pub fn has_unit_capacities(&self) -> bool {
        self.b.iter().all(|&b| b == 1)
    }

    /// Adds an undirected edge and returns its id. Self-loops are rejected.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> EdgeId {
        assert!(u != v, "self-loops are not allowed in a matching instance");
        assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        assert!(w.is_finite() && w > 0.0, "edge weight must be positive and finite");
        let id = self.edges.len();
        self.edges.push(Edge::new(u, v, w));
        id
    }

    /// The edge with the given id.
    pub fn edge(&self, id: EdgeId) -> Edge {
        self.edges[id]
    }

    /// Canonical read-only edge list (the "input stream" of the model).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterator over `(EdgeId, Edge)` pairs.
    pub fn edge_iter(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().copied().enumerate()
    }

    /// Maximum edge weight `W* = max_{(i,j)} w_ij`; `None` on an empty graph.
    pub fn max_weight(&self) -> Option<f64> {
        self.edges.iter().map(|e| e.w).fold(None, |acc, w| match acc {
            None => Some(w),
            Some(a) => Some(a.max(w)),
        })
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Value of the cut `(U, V \ U)`: total weight of edges with exactly one
    /// endpoint in `U`. `in_u[v]` marks membership.
    pub fn cut_value(&self, in_u: &[bool]) -> f64 {
        assert_eq!(in_u.len(), self.n);
        self.edges.iter().filter(|e| in_u[e.u as usize] != in_u[e.v as usize]).map(|e| e.w).sum()
    }

    /// Connected components; returns a component id per vertex and the count.
    pub fn connected_components(&self) -> (Vec<usize>, usize) {
        let mut uf = crate::union_find::UnionFind::new(self.n);
        for e in &self.edges {
            uf.union(e.u as usize, e.v as usize);
        }
        uf.component_labels()
    }

    /// True if the graph is bipartite; if so also returns a 2-coloring.
    pub fn bipartition(&self) -> Option<Vec<bool>> {
        let mut color = vec![None; self.n];
        let mut adj: Vec<Vec<VertexId>> = vec![Vec::new(); self.n];
        for e in &self.edges {
            adj[e.u as usize].push(e.v);
            adj[e.v as usize].push(e.u);
        }
        let mut stack = Vec::new();
        for s in 0..self.n {
            if color[s].is_some() {
                continue;
            }
            color[s] = Some(false);
            stack.push(s);
            while let Some(v) = stack.pop() {
                // Invariant: a vertex is only pushed after being colored, so
                // this unwrap cannot fail.
                let cv = color[v].unwrap();
                for &w in &adj[v] {
                    match color[w as usize] {
                        None => {
                            color[w as usize] = Some(!cv);
                            stack.push(w as usize);
                        }
                        Some(cw) if cw == cv => return None,
                        Some(_) => {}
                    }
                }
            }
        }
        Some(color.into_iter().map(|c| c.unwrap_or(false)).collect())
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Graph(n={}, m={}, B={}, W*={:.4})",
            self.n,
            self.edges.len(),
            self.total_capacity(),
            self.max_weight().unwrap_or(0.0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(0, 2, 3.0);
        g
    }

    #[test]
    fn edge_other_and_incident() {
        let e = Edge::new(3, 7, 1.5);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
        assert!(e.is_incident(3) && e.is_incident(7) && !e.is_incident(5));
        assert_eq!(e.key(), (3, 7));
        assert_eq!(Edge::new(7, 3, 1.0).key(), (3, 7));
    }

    #[test]
    fn basic_counts_and_weights() {
        let mut g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_weight(), Some(3.0));
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
        assert_eq!(g.total_capacity(), 3);
        assert!(g.has_unit_capacities());
        g.set_b(2, 2);
        assert!(!g.has_unit_capacities());
    }

    #[test]
    fn cut_values() {
        let g = triangle();
        let in_u = vec![true, false, false];
        assert!((g.cut_value(&in_u) - 4.0).abs() < 1e-12);
        let in_u = vec![true, true, false];
        assert!((g.cut_value(&in_u) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn components_and_bipartite() {
        let mut g = Graph::new(5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(2, 3, 1.0);
        let (labels, count) = g.connected_components();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_ne!(labels[0], labels[2]);
        assert!(g.bipartition().is_some());

        let tri = triangle();
        assert!(tri.bipartition().is_none());
    }

    #[test]
    #[should_panic]
    fn rejects_self_loops() {
        let mut g = Graph::new(2);
        g.add_edge(1, 1, 1.0);
    }

    #[test]
    #[should_panic]
    fn rejects_nonpositive_weight() {
        let mut g = Graph::new(2);
        g.add_edge(0, 1, 0.0);
    }
}
