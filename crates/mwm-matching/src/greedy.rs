//! Greedy matchings.
//!
//! * [`greedy_matching`]: process edges in non-increasing weight order, take an
//!   edge whenever both endpoints are free — the classical ½-approximation.
//! * [`greedy_b_matching`]: the same order over a b-matching, each edge taken
//!   with the residual `min(b_u, b_v)`, which saturates at least one endpoint;
//!   the result is a maximal b-matching.

use mwm_graph::{BMatching, Graph, Matching};

/// Greedy maximum-weight matching: ½-approximation of the optimum.
pub fn greedy_matching(graph: &Graph) -> Matching {
    let mut order: Vec<usize> = (0..graph.num_edges()).collect();
    order.sort_by(|&a, &b| graph.edge(b).w.total_cmp(&graph.edge(a).w));
    let mut used = vec![false; graph.num_vertices()];
    let mut m = Matching::new();
    for id in order {
        let e = graph.edge(id);
        if !used[e.u as usize] && !used[e.v as usize] {
            used[e.u as usize] = true;
            used[e.v as usize] = true;
            m.push(id, e);
        }
    }
    m
}

/// Greedy weighted b-matching: edges in non-increasing weight order, each
/// taken with the residual `min(b_u, b_v)` of its endpoints, which saturates
/// at least one of them — so the result is a maximal b-matching that admits
/// no further edge. ½-approximation for b-matching.
pub fn greedy_b_matching(graph: &Graph) -> BMatching {
    let mut order: Vec<usize> = (0..graph.num_edges()).collect();
    order.sort_by(|&a, &b| graph.edge(b).w.total_cmp(&graph.edge(a).w));
    let mut residual: Vec<u64> = graph.capacities().to_vec();
    let mut bm = BMatching::new();
    for id in order {
        let e = graph.edge(id);
        let (u, v) = (e.u as usize, e.v as usize);
        let take = residual[u].min(residual[v]);
        if take > 0 {
            residual[u] -= take;
            residual[v] -= take;
            bm.add(id, e, take);
        }
    }
    bm
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn greedy_is_valid_and_at_least_half_on_paths() {
        // Path with weights 1, 2, 1: optimum is 2 (middle edge), greedy takes it.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 1.0);
        let m = greedy_matching(&g);
        assert!(m.is_valid(4));
        assert!((m.weight() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_half_approximation_bound() {
        // Worst case for greedy: middle edge slightly heavier.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.01);
        g.add_edge(2, 3, 1.0);
        let m = greedy_matching(&g);
        assert!((m.weight() - 1.01).abs() < 1e-12);
        // OPT = 2.0; greedy >= OPT/2 holds.
        assert!(m.weight() >= 2.0 / 2.0 - 1e-12);
    }

    #[test]
    fn maximal_b_matching_saturates_an_endpoint_per_edge() {
        let mut g = Graph::new(4);
        g.set_b(0, 3);
        g.set_b(1, 2);
        g.set_b(2, 5);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        // Equal weights: greedy's stable sort keeps the id order.
        let bm = greedy_b_matching(&g);
        assert!(bm.is_valid(&g));
        // Edge (0,1) gets multiplicity 2 (saturating 1), edge (0,2) gets 1 (saturating 0).
        assert_eq!(bm.multiplicity(0), 2);
        assert_eq!(bm.multiplicity(2), 1);
        // No edge can be added: every edge has a saturated endpoint.
        let loads = bm.vertex_loads(4);
        for e in g.edges() {
            assert!(
                loads[e.u as usize] == g.b(e.u) || loads[e.v as usize] == g.b(e.v),
                "b-matching is not maximal"
            );
        }
    }

    #[test]
    fn greedy_b_matching_respects_capacities_randomized() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = generators::gnm(40, 300, WeightModel::Uniform(1.0, 9.0), &mut rng);
        generators::randomize_capacities(&mut g, 4, &mut rng);
        let bm = greedy_b_matching(&g);
        assert!(bm.is_valid(&g));
        assert!(bm.weight() > 0.0);
    }

    #[test]
    fn unit_capacity_b_matching_equals_matching_semantics() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(30, 100, WeightModel::Uniform(1.0, 2.0), &mut rng);
        let bm = greedy_b_matching(&g);
        // With all b=1 each multiplicity must be exactly 1 and loads <= 1.
        for (_, _, mult) in bm.iter() {
            assert_eq!(mult, 1);
        }
        assert!(bm.is_valid(&g));
    }
}
