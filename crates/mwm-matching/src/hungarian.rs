//! Exact maximum-weight bipartite matching by successive shortest paths.
//!
//! The assignment problem is solved as a min-cost flow with cost `-w` per
//! edge: one Dijkstra search with potentials per left vertex (Tomizawa 1971,
//! Edmonds–Karp 1972), each ending at the first free column it settles. Every
//! left vertex owns a private zero-cost "stay unmatched" column, so leaving a
//! vertex unmatched is always allowed and no search can fail. The searches run
//! over a CSR adjacency of the vertices that carry edges, so each costs time in
//! the edges it reaches rather than in `n` (`O(n·m log n)` overall in the worst
//! case). [`crate::best_offline_matching`] states when the workspace uses it.

use mwm_graph::{EdgeId, Graph, Matching};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const NONE: usize = usize::MAX;

/// Maximum-weight bipartite matching, or `None` if the graph is not bipartite.
///
/// Exact at any size. Parallel edges keep the heaviest copy (the lowest id on
/// ties). The edges are listed by ascending vertex of the right side, the
/// `true` color of [`Graph::bipartition`].
pub fn try_max_weight_bipartite_matching(graph: &Graph) -> Option<Matching> {
    let coloring = graph.bipartition()?;
    Some(Assignment::new(graph, &coloring).solve(graph))
}

/// One arc of the CSR adjacency: a left row's edge into a column.
#[derive(Clone, Copy)]
struct Arc {
    col: usize,
    cost: f64,
    edge: EdgeId,
}

/// A column with its tentative distance; the heap pops the smallest distance
/// first and, on ties, the lowest column index.
#[derive(PartialEq)]
struct Entry {
    dist: f64,
    col: usize,
}

impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.dist.total_cmp(&self.dist).then(other.col.cmp(&self.col))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// The assignment instance over the vertices that carry edges: rows are left
/// vertices, columns `0..num_right` are right vertices (both in ascending
/// vertex order) and column `num_right + i` is row `i`'s private column.
struct Assignment {
    /// Row `i`'s arcs are `arcs[start[i]..start[i + 1]]`, in edge-id order,
    /// its private column last.
    start: Vec<usize>,
    arcs: Vec<Arc>,
    num_right: usize,
}

impl Assignment {
    fn new(graph: &Graph, coloring: &[bool]) -> Self {
        // Each vertex that carries an edge gets the next index on its side.
        let mut index = vec![NONE; graph.num_vertices()];
        for e in graph.edges() {
            index[e.u as usize] = 0;
            index[e.v as usize] = 0;
        }
        let (mut rows, mut num_right) = (0, 0);
        for (v, slot) in index.iter_mut().enumerate() {
            if *slot != NONE {
                let side = if coloring[v] { &mut num_right } else { &mut rows };
                *slot = *side;
                *side += 1;
            }
        }
        let left_right = |u: usize, v: usize| if coloring[u] { (v, u) } else { (u, v) };
        let mut start = vec![0; rows + 1];
        for e in graph.edges() {
            let (l, _) = left_right(e.u as usize, e.v as usize);
            start[index[l] + 1] += 1;
        }
        for i in 0..rows {
            start[i + 1] += start[i] + 1;
        }
        let mut next = start.clone();
        let mut arcs = vec![Arc { col: NONE, cost: 0.0, edge: NONE }; start[rows]];
        for (id, e) in graph.edge_iter() {
            let (l, r) = left_right(e.u as usize, e.v as usize);
            let row = index[l];
            arcs[next[row]] = Arc { col: index[r], cost: -e.w, edge: id };
            next[row] += 1;
        }
        for (i, &end) in start[1..].iter().enumerate() {
            arcs[end - 1] = Arc { col: num_right + i, cost: 0.0, edge: NONE };
        }
        Assignment { start, arcs, num_right }
    }

    /// Assigns the rows in order, each along a shortest augmenting path in
    /// reduced costs `cost - u[i] - v[j]`, which the potentials keep
    /// non-negative on every arc of an assigned row and zero on its own pair.
    /// Only the arcs out of the row being assigned may be negative; every path
    /// starts with one of them, so Dijkstra stays exact.
    fn solve(&self, graph: &Graph) -> Matching {
        let rows = self.start.len() - 1;
        let cols = self.num_right + rows;
        let (mut u, mut v) = (vec![0.0; rows], vec![0.0; cols]);
        let (mut row_of, mut col_of) = (vec![NONE; cols], vec![NONE; rows]);
        let (mut dist, mut pred) = (vec![f64::INFINITY; cols], vec![NONE; cols]);
        let mut settled = vec![false; cols];
        // Columns given a finite distance by the current search.
        let mut touched = Vec::new();
        let mut heap = BinaryHeap::new();
        for s in 0..rows {
            let (mut i, mut reached) = (s, 0.0);
            let sink = loop {
                for arc in &self.arcs[self.start[i]..self.start[i + 1]] {
                    let j = arc.col;
                    let d = reached + arc.cost - u[i] - v[j];
                    if !settled[j] && d < dist[j] {
                        if dist[j] == f64::INFINITY {
                            touched.push(j);
                        }
                        dist[j] = d;
                        pred[j] = i;
                        heap.push(Entry { dist: d, col: j });
                    }
                }
                // A column's newest entry holds its smallest distance and pops
                // before any stale one, so only settled columns are skipped.
                let j = loop {
                    let entry = heap.pop().expect("row s's private column is free and reachable");
                    if !settled[entry.col] {
                        break entry.col;
                    }
                };
                settled[j] = true;
                reached = dist[j];
                match row_of[j] {
                    NONE => break j,
                    next => i = next,
                }
            };
            // Every row in the search tree was reached through the settled
            // column it is assigned to; the sink's shift is zero.
            u[s] += reached;
            for &j in &touched {
                if settled[j] {
                    let shift = reached - dist[j];
                    v[j] -= shift;
                    if row_of[j] != NONE {
                        u[row_of[j]] += shift;
                    }
                }
                dist[j] = f64::INFINITY;
                settled[j] = false;
            }
            touched.clear();
            heap.clear();
            let mut j = sink;
            loop {
                let r = pred[j];
                row_of[j] = r;
                let previous = std::mem::replace(&mut col_of[r], j);
                if r == s {
                    break;
                }
                j = previous;
            }
        }
        let mut m = Matching::new();
        for (j, &i) in row_of[..self.num_right].iter().enumerate() {
            if i == NONE {
                continue;
            }
            let best = self.arcs[self.start[i]..self.start[i + 1]]
                .iter()
                .filter(|a| a.col == j)
                .reduce(|best, a| if a.cost < best.cost { a } else { best })
                .expect("a matched column is adjacent to its row");
            m.push(best.edge, graph.edge(best.edge));
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_weight_matching;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn solve(g: &Graph) -> Matching {
        try_max_weight_bipartite_matching(g).expect("bipartite test graph")
    }

    #[test]
    fn simple_assignment() {
        // Left {0,1}, right {2,3}; optimal picks 0-3 (5) and 1-2 (4) = 9.
        let mut g = Graph::new(4);
        g.add_edge(0, 2, 3.0);
        g.add_edge(0, 3, 5.0);
        g.add_edge(1, 2, 4.0);
        g.add_edge(1, 3, 1.0);
        let m = solve(&g);
        assert!(m.is_valid(4));
        assert!((m.weight() - 9.0).abs() < 1e-9);
    }

    #[test]
    fn matches_dp_on_small_random_bipartite_graphs() {
        for seed in 0..12u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g =
                generators::random_bipartite(6, 6, 0.5, WeightModel::Uniform(1.0, 9.0), &mut rng);
            let h = solve(&g);
            let e = exact_max_weight_matching(&g);
            assert!(h.is_valid(12));
            assert!(
                (h.weight() - e.weight()).abs() < 1e-9,
                "seed {seed}: sparse {} vs dp {}",
                h.weight(),
                e.weight()
            );
        }
    }

    #[test]
    fn unbalanced_sides() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::random_bipartite(3, 10, 0.6, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let m = solve(&g);
        assert!(m.is_valid(13));
        assert!(m.len() <= 3);
    }

    #[test]
    fn prefers_leaving_vertices_unmatched_over_negative_profit() {
        // All-zero profits produce an empty matching (weights must be > 0 in Graph,
        // so just use a graph with a single light edge and many isolated vertices).
        let mut g = Graph::new(6);
        g.add_edge(0, 5, 0.5);
        let m = solve(&g);
        assert_eq!(m.len(), 1);
        assert!((m.weight() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn parallel_edges_keep_the_heaviest_lowest_id_copy() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        let heavy = g.add_edge(1, 0, 7.0);
        g.add_edge(0, 1, 7.0);
        g.add_edge(2, 3, 1.0);
        let m = solve(&g);
        assert_eq!(m.edges().iter().map(|&(id, _)| id).collect::<Vec<_>>(), vec![heavy, 3]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(4);
        let m = solve(&g);
        assert!(m.is_empty());
    }

    #[test]
    fn non_bipartite_is_none() {
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        assert!(try_max_weight_bipartite_matching(&g).is_none());
    }

    /// Optimality without a reference solver: in the min-cost-flow formulation
    /// (source → left, left → right at cost `-w`, right → sink, and a free
    /// sink → source arc) a matching is a maximum-weight one exactly when the
    /// residual graph of its flow has no negative cycle. Bellman–Ford from a
    /// virtual root at distance 0 everywhere finds one if it exists.
    fn has_negative_residual_cycle(g: &Graph, coloring: &[bool], m: &Matching) -> bool {
        let n = g.num_vertices();
        let (source, sink) = (n, n + 1);
        let mut in_matching = vec![false; g.num_edges()];
        let mut matched = vec![false; n];
        for &(id, e) in m.edges() {
            in_matching[id] = true;
            matched[e.u as usize] = true;
            matched[e.v as usize] = true;
        }
        let mut arcs: Vec<(usize, usize, f64)> = Vec::new();
        for (id, e) in g.edge_iter() {
            let (l, r) = if coloring[e.u as usize] { (e.v, e.u) } else { (e.u, e.v) };
            let (l, r) = (l as usize, r as usize);
            if in_matching[id] {
                arcs.push((r, l, e.w));
            } else {
                arcs.push((l, r, -e.w));
            }
        }
        for v in 0..n {
            let (from, to) = if coloring[v] { (v, sink) } else { (source, v) };
            if matched[v] {
                arcs.push((to, from, 0.0));
            } else {
                arcs.push((from, to, 0.0));
            }
        }
        arcs.push((sink, source, 0.0));
        if !m.is_empty() {
            arcs.push((source, sink, 0.0));
        }
        let mut dist = vec![0.0f64; n + 2];
        for _ in 0..=n + 2 {
            let mut relaxed = false;
            for &(a, b, c) in &arcs {
                if dist[a] + c < dist[b] - 1e-9 {
                    dist[b] = dist[a] + c;
                    relaxed = true;
                }
            }
            if !relaxed {
                return false;
            }
        }
        true
    }

    #[test]
    fn sliding_window_sized_graph_has_no_negative_residual_cycle() {
        // n = 2000 with 1500 random cross edges (average degree 1.5): sparse
        // like a sliding-window union, with about a fifth of the vertices
        // isolated.
        let n = 2000u32;
        let mut rng = StdRng::seed_from_u64(2000);
        let mut g = Graph::new(n as usize);
        for _ in 0..1500 {
            let l = 2 * rng.gen_range(0..n / 2);
            let r = 2 * rng.gen_range(0..n / 2) + 1;
            g.add_edge(l, r, rng.gen_range(1.0..10.0));
        }
        let coloring = g.bipartition().expect("edges join even to odd vertices");
        let m = solve(&g);
        assert!(m.is_valid(g.num_vertices()));
        assert!(!has_negative_residual_cycle(&g, &coloring, &m));
        // The check has teeth: dropping the lightest matched edge leaves an
        // augmenting cycle through the free sink → source arc.
        let mut worse = Matching::new();
        let lightest = m
            .edges()
            .iter()
            .min_by(|a, b| a.1.w.total_cmp(&b.1.w))
            .map(|&(id, _)| id)
            .expect("non-empty matching");
        for &(id, e) in m.edges().iter().filter(|&&(id, _)| id != lightest) {
            worse.push(id, e);
        }
        assert!(has_negative_residual_cycle(&g, &coloring, &worse));
    }
}
