//! Local-search improvement of weighted matchings.
//!
//! This is the workspace's stand-in for the near-linear-time `(1-ε)` weighted
//! matching algorithms the paper invokes offline ([13] Duan–Pettie, [2]
//! Ahn–Guha), which the workspace does not implement. Starting from any valid
//! matching (typically the greedy ½-approximation) we repeatedly apply:
//!
//! 1. **additions** — an edge whose both endpoints are free,
//! 2. **2-swaps** — replace the (at most two) matched edges conflicting with an
//!    unmatched edge when that strictly increases total weight,
//! 3. **rotate-augmentations** — length-3 alternating paths `a–b, b–c matched,
//!    c–d` that free a heavier combination.
//!
//! Each pass is `O(m)`; passes repeat until no improvement or an iteration cap
//! is hit. The result is never worse than the input and is exact on paths and
//! trees in practice; its role in the algorithm only requires *some*
//! `(1-a₃)`-approximation on the (small) sampled subgraph.

use mwm_graph::{EdgeId, Graph, Matching, VertexId};

/// Improves `initial` by local search; returns a matching of weight ≥ the input.
pub fn improve_matching(graph: &Graph, initial: Matching) -> Matching {
    let n = graph.num_vertices();
    // matched_edge[v] = Some(edge id) of the matching edge covering v.
    let mut matched_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut in_matching = vec![false; graph.num_edges()];
    for &(id, e) in initial.edges() {
        matched_edge[e.u as usize] = Some(id);
        matched_edge[e.v as usize] = Some(id);
        in_matching[id] = true;
    }

    let max_passes = 12usize;
    for _ in 0..max_passes {
        let mut improved = false;
        for (id, e) in graph.edge_iter() {
            if in_matching[id] {
                continue;
            }
            let mu = matched_edge[e.u as usize];
            let mv = matched_edge[e.v as usize];
            match (mu, mv) {
                (None, None) => {
                    // Free addition.
                    matched_edge[e.u as usize] = Some(id);
                    matched_edge[e.v as usize] = Some(id);
                    in_matching[id] = true;
                    improved = true;
                }
                _ => {
                    // 2-swap: drop the conflicting matched edges if the new edge is heavier.
                    let mut conflict_weight = 0.0;
                    let mut conflicts: Vec<EdgeId> = Vec::new();
                    if let Some(cid) = mu {
                        conflict_weight += graph.edge(cid).w;
                        conflicts.push(cid);
                    }
                    if let Some(cid) = mv {
                        if Some(cid) != mu {
                            conflict_weight += graph.edge(cid).w;
                            conflicts.push(cid);
                        }
                    }
                    if e.w > conflict_weight + 1e-12 {
                        for cid in conflicts {
                            let ce = graph.edge(cid);
                            matched_edge[ce.u as usize] = None;
                            matched_edge[ce.v as usize] = None;
                            in_matching[cid] = false;
                        }
                        matched_edge[e.u as usize] = Some(id);
                        matched_edge[e.v as usize] = Some(id);
                        in_matching[id] = true;
                        improved = true;
                    }
                }
            }
        }
        // Rotate-augmentations: for each matched edge (b,c) look for free a adj b
        // and free d adj c with w(ab)+w(cd) > w(bc).
        improved |= rotate_pass(graph, &mut matched_edge, &mut in_matching);
        if !improved {
            break;
        }
    }

    // Each matched edge is emitted at its first endpoint, clearing its bit so
    // the second endpoint skips it.
    let mut out = Matching::new();
    for &id in matched_edge.iter().flatten() {
        if std::mem::take(&mut in_matching[id]) {
            out.push(id, graph.edge(id));
        }
    }
    debug_assert!(out.is_valid(n));
    out
}

/// One pass of length-3 alternating-path augmentations. Returns true if any
/// augmentation was applied.
fn rotate_pass(
    graph: &Graph,
    matched_edge: &mut [Option<EdgeId>],
    in_matching: &mut [bool],
) -> bool {
    let n = graph.num_vertices();
    // Best free neighbour edge for every vertex.
    let mut best_free: Vec<Option<(EdgeId, f64, VertexId)>> = vec![None; n];
    for (id, e) in graph.edge_iter() {
        if in_matching[id] {
            continue;
        }
        // Edge is usable from u's side if v is free, and vice versa.
        if matched_edge[e.v as usize].is_none() {
            let entry = &mut best_free[e.u as usize];
            if entry.is_none_or(|(_, w, _)| e.w > w) {
                *entry = Some((id, e.w, e.v));
            }
        }
        if matched_edge[e.u as usize].is_none() {
            let entry = &mut best_free[e.v as usize];
            if entry.is_none_or(|(_, w, _)| e.w > w) {
                *entry = Some((id, e.w, e.u));
            }
        }
    }
    // The rotate augmentations are order-sensitive: walk the edges matched at
    // the start of the pass in ascending id order.
    let matched_ids: Vec<EdgeId> = (0..in_matching.len()).filter(|&id| in_matching[id]).collect();
    let mut improved = false;
    for id in matched_ids {
        if !in_matching[id] {
            continue;
        }
        let e = graph.edge(id);
        let (b, c) = (e.u as usize, e.v as usize);
        let left = best_free[b];
        let right = best_free[c];
        if let (Some((lid, lw, la)), Some((rid, rw, rd))) = (left, right) {
            // Re-validate against the *current* state: earlier applications in this
            // pass may have matched the cached endpoints or edges.
            let still_valid = !in_matching[lid]
                && !in_matching[rid]
                && matched_edge[la as usize].is_none()
                && matched_edge[rd as usize].is_none()
                && matched_edge[b] == Some(id)
                && matched_edge[c] == Some(id);
            // The two replacement edges must not collide on a vertex.
            if still_valid
                && lid != rid
                && la != rd
                && la as usize != c
                && rd as usize != b
                && lw + rw > e.w + 1e-12
            {
                // Apply: remove (b,c), add the two free edges.
                matched_edge[b] = None;
                matched_edge[c] = None;
                in_matching[id] = false;
                let le = graph.edge(lid);
                let re = graph.edge(rid);
                matched_edge[le.u as usize] = Some(lid);
                matched_edge[le.v as usize] = Some(lid);
                matched_edge[re.u as usize] = Some(rid);
                matched_edge[re.v as usize] = Some(rid);
                in_matching[lid] = true;
                in_matching[rid] = true;
                improved = true;
            }
        }
    }
    improved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_max_weight_matching;
    use crate::greedy::greedy_matching;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Graph;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn never_decreases_weight() {
        for seed in 0..10u64 {
            let mut r = StdRng::seed_from_u64(seed);
            let g = generators::gnm(60, 250, WeightModel::Uniform(1.0, 9.0), &mut r);
            let greedy = greedy_matching(&g);
            let gw = greedy.weight();
            let improved = improve_matching(&g, greedy);
            assert!(improved.weight() >= gw - 1e-9);
            assert!(improved.is_valid(60));
        }
    }

    #[test]
    fn fixes_the_classic_greedy_trap() {
        // Path 1.0 — 1.01 — 1.0: greedy takes the middle; local search must
        // recover the two outer edges (total 2.0).
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.01);
        g.add_edge(2, 3, 1.0);
        let improved = improve_matching(&g, greedy_matching(&g));
        assert!((improved.weight() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn close_to_exact_on_small_random_graphs() {
        let mut total_ratio = 0.0;
        let trials = 12;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let g = generators::gnm(14, 40, WeightModel::Uniform(1.0, 10.0), &mut rng);
            let opt = exact_max_weight_matching(&g).weight();
            if opt == 0.0 {
                total_ratio += 1.0;
                continue;
            }
            let got = improve_matching(&g, greedy_matching(&g)).weight();
            let ratio = got / opt;
            assert!(ratio >= 0.66, "seed {seed}: ratio {ratio}");
            total_ratio += ratio;
        }
        assert!(total_ratio / trials as f64 > 0.9, "average ratio should be high");
    }

    #[test]
    fn handles_adversarial_increasing_path() {
        let g = generators::greedy_adversarial_path(10, 1.5);
        let improved = improve_matching(&g, greedy_matching(&g));
        let opt = exact_max_weight_matching(&g).weight();
        assert!(improved.weight() / opt >= 0.75);
    }

    #[test]
    fn starting_from_empty_matching_works() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnm(30, 90, WeightModel::Uniform(1.0, 3.0), &mut rng);
        let improved = improve_matching(&g, Matching::new());
        assert!(improved.weight() > 0.0);
        assert!(improved.is_valid(30));
    }
}
