//! Weighted undirected graphs with per-vertex b-matching capacities.
//!
//! The representation is deliberately simple and cache friendly: a flat edge
//! list plus a CSR-style adjacency index. All algorithms in the workspace
//! treat the edge list as the canonical "read-only input" of the paper's model
//! (passes and simulators stream over it), while the adjacency index is a
//! convenience for the offline substrates that are allowed random access.

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

    /// True if the edge is a self-loop. Self-loops are rejected by [`Graph`].
    pub fn is_loop(&self) -> bool {
        self.u == self.v
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
    /// CSR offsets: `adj_off[v]..adj_off[v+1]` indexes into `adj_edges`.
    adj_off: Vec<usize>,
    /// Edge ids sorted by incident vertex.
    adj_edges: Vec<EdgeId>,
    adj_dirty: bool,
}

impl Graph {
    /// Creates an empty graph on `n` vertices with all capacities `b_i = 1`.
    pub fn new(n: usize) -> Self {
        Graph {
            n,
            edges: Vec::new(),
            b: vec![1; n],
            adj_off: vec![0; n + 1],
            adj_edges: Vec::new(),
            adj_dirty: false,
        }
    }

    /// Creates an empty graph with explicit capacities.
    pub fn with_capacities(b: Vec<u64>) -> Self {
        let n = b.len();
        Graph {
            n,
            edges: Vec::new(),
            b,
            adj_off: vec![0; n + 1],
            adj_edges: Vec::new(),
            adj_dirty: false,
        }
    }

    /// Builds a graph from an edge list.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = Edge>) -> Self {
        let mut g = Graph::new(n);
        for e in edges {
            g.add_edge(e.u, e.v, e.w);
        }
        g
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

    /// `||U||_b = Σ_{i∈U} b_i` for a set of vertices.
    pub fn set_capacity(&self, set: &[VertexId]) -> u64 {
        set.iter().map(|&v| self.b(v)).sum()
    }

    /// Slice of all capacities, indexed by vertex id.
    pub fn capacities(&self) -> &[u64] {
        &self.b
    }

    /// Adds an undirected edge and returns its id. Self-loops are rejected.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId, w: f64) -> EdgeId {
        assert!(u != v, "self-loops are not allowed in a matching instance");
        assert!((u as usize) < self.n && (v as usize) < self.n, "endpoint out of range");
        assert!(w.is_finite() && w > 0.0, "edge weight must be positive and finite");
        let id = self.edges.len();
        self.edges.push(Edge::new(u, v, w));
        self.adj_dirty = true;
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

    /// Minimum edge weight; `None` on an empty graph.
    pub fn min_weight(&self) -> Option<f64> {
        self.edges.iter().map(|e| e.w).fold(None, |acc, w| match acc {
            None => Some(w),
            Some(a) => Some(a.min(w)),
        })
    }

    /// Total weight of all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges.iter().map(|e| e.w).sum()
    }

    /// Rebuilds the adjacency index if edges were added since the last build.
    pub fn ensure_adjacency(&mut self) {
        if !self.adj_dirty && self.adj_off.len() == self.n + 1 {
            return;
        }
        let mut deg = vec![0usize; self.n];
        for e in &self.edges {
            deg[e.u as usize] += 1;
            deg[e.v as usize] += 1;
        }
        let mut off = vec![0usize; self.n + 1];
        for v in 0..self.n {
            off[v + 1] = off[v] + deg[v];
        }
        let mut pos = off.clone();
        let mut adj = vec![0usize; 2 * self.edges.len()];
        for (id, e) in self.edges.iter().enumerate() {
            adj[pos[e.u as usize]] = id;
            pos[e.u as usize] += 1;
            adj[pos[e.v as usize]] = id;
            pos[e.v as usize] += 1;
        }
        self.adj_off = off;
        self.adj_edges = adj;
        self.adj_dirty = false;
    }

    /// Edge ids incident to `v`. Requires a non-dirty adjacency index
    /// (call [`Graph::ensure_adjacency`] after the last `add_edge`).
    pub fn incident_edges(&self, v: VertexId) -> &[EdgeId] {
        assert!(!self.adj_dirty, "call ensure_adjacency() after adding edges");
        &self.adj_edges[self.adj_off[v as usize]..self.adj_off[v as usize + 1]]
    }

    /// Degree of `v` (number of incident edges, counting parallel edges).
    pub fn degree(&self, v: VertexId) -> usize {
        assert!(!self.adj_dirty, "call ensure_adjacency() after adding edges");
        self.adj_off[v as usize + 1] - self.adj_off[v as usize]
    }

    /// Maximum degree over all vertices.
    pub fn max_degree(&mut self) -> usize {
        self.ensure_adjacency();
        (0..self.n).map(|v| self.degree(v as VertexId)).max().unwrap_or(0)
    }

    /// Weighted degree of `v` (sum of incident edge weights).
    pub fn weighted_degree(&self, v: VertexId) -> f64 {
        self.incident_edges(v).iter().map(|&id| self.edges[id].w).sum()
    }

    /// Returns the subgraph induced by keeping exactly the edges whose id
    /// satisfies the predicate. Vertex set and capacities are preserved.
    pub fn edge_subgraph(&self, mut keep: impl FnMut(EdgeId, Edge) -> bool) -> Graph {
        let mut g = Graph::with_capacities(self.b.clone());
        for (id, e) in self.edge_iter() {
            if keep(id, e) {
                g.add_edge(e.u, e.v, e.w);
            }
        }
        g
    }

    /// Value of the cut `(U, V \ U)`: total weight of edges with exactly one
    /// endpoint in `U`. `in_u[v]` marks membership.
    pub fn cut_value(&self, in_u: &[bool]) -> f64 {
        assert_eq!(in_u.len(), self.n);
        self.edges.iter().filter(|e| in_u[e.u as usize] != in_u[e.v as usize]).map(|e| e.w).sum()
    }

    /// Unweighted cut size of `(U, V \ U)`.
    pub fn cut_size(&self, in_u: &[bool]) -> usize {
        assert_eq!(in_u.len(), self.n);
        self.edges.iter().filter(|e| in_u[e.u as usize] != in_u[e.v as usize]).count()
    }

    /// Total weight of edges with *both* endpoints inside `U`.
    pub fn internal_weight(&self, in_u: &[bool]) -> f64 {
        assert_eq!(in_u.len(), self.n);
        self.edges.iter().filter(|e| in_u[e.u as usize] && in_u[e.v as usize]).map(|e| e.w).sum()
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
        // Build a lightweight adjacency on the fly to stay independent of the CSR state.
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

    /// Rescales every weight by `scale` (used by the `W*/B` rescaling of Observation 1).
    pub fn rescale_weights(&mut self, scale: f64) {
        assert!(scale.is_finite() && scale > 0.0);
        for e in &mut self.edges {
            e.w *= scale;
        }
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
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.max_weight(), Some(3.0));
        assert_eq!(g.min_weight(), Some(1.0));
        assert!((g.total_weight() - 6.0).abs() < 1e-12);
        assert_eq!(g.total_capacity(), 3);
    }

    #[test]
    fn adjacency_and_degrees() {
        let mut g = triangle();
        g.ensure_adjacency();
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 2);
        assert_eq!(g.max_degree(), 2);
        assert!((g.weighted_degree(0) - 4.0).abs() < 1e-12);
        let ids = g.incident_edges(1).to_vec();
        assert_eq!(ids.len(), 2);
        for id in ids {
            assert!(g.edge(id).is_incident(1));
        }
    }

    #[test]
    fn cut_values() {
        let g = triangle();
        let in_u = vec![true, false, false];
        assert!((g.cut_value(&in_u) - 4.0).abs() < 1e-12);
        assert_eq!(g.cut_size(&in_u), 2);
        let in_u = vec![true, true, false];
        assert!((g.cut_value(&in_u) - 5.0).abs() < 1e-12);
        assert!((g.internal_weight(&in_u) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn subgraph_keeps_capacities() {
        let mut g = triangle();
        g.set_b(1, 4);
        let sub = g.edge_subgraph(|_, e| e.w >= 2.0);
        assert_eq!(sub.num_edges(), 2);
        assert_eq!(sub.b(1), 4);
        assert_eq!(sub.num_vertices(), 3);
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
    fn rescale() {
        let mut g = triangle();
        g.rescale_weights(0.5);
        assert_eq!(g.max_weight(), Some(1.5));
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
