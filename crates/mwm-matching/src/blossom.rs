//! Exact maximum-cardinality matching on general graphs (Edmonds' blossom
//! algorithm, `O(V³)`).
//!
//! Weighted blossom is out of scope (non-bipartite weighted unions take the
//! local-search route of [`crate::best_offline_matching`]);
//! the cardinality version is enough to (a) validate the unweighted
//! experiments exactly on non-bipartite graphs and (b) provide the exact
//! optimum for the `w ≡ 1` rows of experiment E3.

use mwm_graph::{Graph, Matching};
use std::collections::VecDeque;

const NONE: usize = usize::MAX;

struct Blossom<'a> {
    n: usize,
    adj: Vec<Vec<usize>>,
    mate: Vec<usize>,
    p: Vec<usize>,
    base: Vec<usize>,
    used: Vec<bool>,
    blossom: Vec<bool>,
    graph: &'a Graph,
}

impl<'a> Blossom<'a> {
    fn new(graph: &'a Graph) -> Self {
        let n = graph.num_vertices();
        let mut adj = vec![Vec::new(); n];
        for e in graph.edges() {
            adj[e.u as usize].push(e.v as usize);
            adj[e.v as usize].push(e.u as usize);
        }
        Blossom {
            n,
            adj,
            mate: vec![NONE; n],
            p: vec![NONE; n],
            base: (0..n).collect(),
            used: vec![false; n],
            blossom: vec![false; n],
            graph,
        }
    }

    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        let mut used_path = vec![false; self.n];
        loop {
            a = self.base[a];
            used_path[a] = true;
            if self.mate[a] == NONE {
                break;
            }
            a = self.p[self.mate[a]];
        }
        loop {
            b = self.base[b];
            if used_path[b] {
                return b;
            }
            b = self.p[self.mate[b]];
        }
    }

    fn mark_path(&mut self, mut v: usize, b: usize, mut child: usize) {
        while self.base[v] != b {
            self.blossom[self.base[v]] = true;
            self.blossom[self.base[self.mate[v]]] = true;
            self.p[v] = child;
            child = self.mate[v];
            v = self.p[self.mate[v]];
        }
    }

    /// Attempts to find an augmenting path from `root`; returns true on success.
    fn try_augment(&mut self, root: usize) -> bool {
        self.used.iter_mut().for_each(|x| *x = false);
        self.p.iter_mut().for_each(|x| *x = NONE);
        for i in 0..self.n {
            self.base[i] = i;
        }
        self.used[root] = true;
        let mut q = VecDeque::new();
        q.push_back(root);
        while let Some(v) = q.pop_front() {
            for idx in 0..self.adj[v].len() {
                let to = self.adj[v][idx];
                if self.base[v] == self.base[to] || self.mate[v] == to {
                    continue;
                }
                if to == root || (self.mate[to] != NONE && self.p[self.mate[to]] != NONE) {
                    // A blossom is formed; contract it.
                    let curbase = self.lca(v, to);
                    self.blossom.iter_mut().for_each(|x| *x = false);
                    self.mark_path(v, curbase, to);
                    self.mark_path(to, curbase, v);
                    for i in 0..self.n {
                        if self.blossom[self.base[i]] {
                            self.base[i] = curbase;
                            if !self.used[i] {
                                self.used[i] = true;
                                q.push_back(i);
                            }
                        }
                    }
                } else if self.p[to] == NONE {
                    self.p[to] = v;
                    if self.mate[to] == NONE {
                        // Augment along the path ending at `to`.
                        let mut u = to;
                        while u != NONE {
                            let pv = self.p[u];
                            let ppv = self.mate[pv];
                            self.mate[u] = pv;
                            self.mate[pv] = u;
                            u = ppv;
                        }
                        return true;
                    } else {
                        self.used[self.mate[to]] = true;
                        q.push_back(self.mate[to]);
                    }
                }
            }
        }
        false
    }

    fn run(mut self) -> Matching {
        for v in 0..self.n {
            if self.mate[v] == NONE {
                self.try_augment(v);
            }
        }
        // Build the Matching from mate pointers, picking an arbitrary edge id for
        // each matched pair (the heaviest parallel edge, for determinism).
        let mut m = Matching::new();
        let mut done = vec![false; self.n];
        for v in 0..self.n {
            let w = self.mate[v];
            if w == NONE || done[v] || done[w] {
                continue;
            }
            // Find the edge realizing this pair.
            let mut best: Option<(usize, f64)> = None;
            for (id, e) in self.graph.edge_iter() {
                if ((e.u as usize == v && e.v as usize == w)
                    || (e.u as usize == w && e.v as usize == v))
                    && best.is_none_or(|(_, bw)| e.w > bw)
                {
                    best = Some((id, e.w));
                }
            }
            if let Some((id, _)) = best {
                m.push(id, self.graph.edge(id));
                done[v] = true;
                done[w] = true;
            }
        }
        m
    }
}

/// Computes a maximum-cardinality matching (ignoring weights).
pub fn max_cardinality_matching(graph: &Graph) -> Matching {
    Blossom::new(graph).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_weight_matching;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn odd_cycle_matches_floor_half() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 5, 7, 9, 11] {
            let g = generators::cycle(n, WeightModel::Unit, &mut rng);
            let m = max_cardinality_matching(&g);
            assert!(m.is_valid(n));
            assert_eq!(m.len(), n / 2, "cycle C_{n}");
        }
    }

    #[test]
    fn petersen_graph_has_perfect_matching() {
        // The Petersen graph: outer 5-cycle, inner 5-star, spokes.
        let mut g = Graph::new(10);
        for i in 0..5u32 {
            g.add_edge(i, (i + 1) % 5, 1.0); // outer cycle
            g.add_edge(5 + i, 5 + (i + 2) % 5, 1.0); // inner pentagram
            g.add_edge(i, 5 + i, 1.0); // spokes
        }
        let m = max_cardinality_matching(&g);
        assert_eq!(m.len(), 5);
        assert!(m.is_valid(10));
    }

    #[test]
    fn blossom_beats_greedy_on_contrived_instance() {
        // Two triangles joined by a path: needs blossom reasoning to find 3 edges.
        let mut g = Graph::new(7);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 5, 1.0);
        g.add_edge(5, 6, 1.0);
        g.add_edge(4, 6, 1.0);
        let m = max_cardinality_matching(&g);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn matches_dp_cardinality_on_unit_weight_graphs() {
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(12, 24, WeightModel::Unit, &mut rng);
            let blossom = max_cardinality_matching(&g);
            let dp = exact_max_weight_matching(&g);
            // With unit weights, max-weight == max-cardinality.
            assert_eq!(blossom.len(), dp.len(), "seed {seed}");
            assert!(blossom.is_valid(12));
        }
    }

    #[test]
    fn empty_and_single_edge() {
        let g = Graph::new(4);
        assert_eq!(max_cardinality_matching(&g).len(), 0);
        let mut g2 = Graph::new(2);
        g2.add_edge(0, 1, 3.0);
        let m = max_cardinality_matching(&g2);
        assert_eq!(m.len(), 1);
    }
}
