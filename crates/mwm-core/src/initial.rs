//! The initial dual solution (Section 5: Lemmas 12, 20, 21).
//!
//! For every weight level `k` a *maximal* b-matching `M_k` of `Ê_k` is found by
//! iterated sampling ("filtering" in the style of Lattanzi et al., which the
//! paper adapts in Lemma 20): in each round a uniform sample of the remaining
//! level-`k` edges is drawn (one sampling round for all levels together), the
//! maximal b-matching is extended greedily on the sample, and edges incident to
//! saturated vertices are filtered out. After `O(p)` rounds every level is
//! exhausted with high probability.
//!
//! Lemma 21 then turns `{M_k}` into a dual point: with `r = ε/256`, every
//! vertex `i` that is saturated in `M_k` receives `x_i(k) = r·ŵ_k`; by
//! maximality every edge of `Ê_k` has a saturated endpoint, so every edge
//! constraint is covered to at least `r·ŵ_k = (1-ε₀)·ŵ_k` with
//! `ε₀ = 1 - ε/256`, and `β*/a ≤ β₀ = Σ_i b_i·x_i ≤ β*/2` for `a = O(ε⁻²)`.
//! The union of the `M_k` (merged greedily, heaviest level first) additionally
//! provides the solver's first feasible primal b-matching.

use crate::relaxation::DualState;
use mwm_graph::{BMatching, Graph, VertexId, WeightLevels};
use mwm_mapreduce::{central_space_budget, ResourceTracker};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The output of the initial-solution phase.
#[derive(Clone, Debug)]
pub struct InitialSolution {
    /// Dual point `x⁰` (only vertex variables; all `z = 0`).
    pub dual: DualState,
    /// `β₀ = Σ_i b_i·x_i⁰`.
    pub beta0: f64,
    /// Per-level maximal b-matchings `M_k` as `(level, matching)` pairs.
    pub per_level: Vec<(usize, BMatching)>,
    /// A feasible combined b-matching (greedy merge, heaviest level first).
    pub combined: BMatching,
    /// Rounds of sampling used.
    pub rounds_used: usize,
}

/// Builds the initial solution for round/space exponent `p`, charging its
/// `O(p)` sampling rounds and their `O(n^{1+1/p})` central space to
/// `tracker`. `levels` must come from `graph`: each edge's level is its
/// class in `levels.classes()`.
pub fn build_initial_solution(
    graph: &Graph,
    levels: &WeightLevels,
    p: f64,
    tracker: &mut ResourceTracker,
    seed: u64,
) -> InitialSolution {
    let n = graph.num_vertices();
    let num_levels = levels.num_levels();
    let mut rng = StdRng::seed_from_u64(seed);
    let eps = levels.eps();

    // Remaining (unfiltered) edges per level, in input order, and the
    // growing maximal b-matchings.
    let classes = levels.classes();
    let mut remaining: Vec<Vec<usize>> = vec![Vec::new(); num_levels];
    for (id, e) in graph.edge_iter() {
        if let Some(k) = classes.class_of(e.w) {
            remaining[k].push(id);
        }
    }
    let mut residual: Vec<Vec<u64>> =
        (0..num_levels).map(|_| (0..n).map(|v| graph.b(v as VertexId)).collect()).collect();
    let mut matchings: Vec<BMatching> = (0..num_levels).map(|_| BMatching::new()).collect();

    let space_budget = central_space_budget(n, p);
    let per_round_budget = space_budget.max(64.0) as usize;
    let mut rounds_used = 0usize;
    // O(p) rounds suffice in theory; the cap below is a generous safety net for
    // adversarial random draws on tiny instances.
    let max_rounds = (4.0 * space_budget.log2().max(2.0)) as usize + 8;

    while rounds_used < max_rounds {
        let total_remaining: usize = remaining.iter().map(|r| r.len()).sum();
        if total_remaining == 0 {
            break;
        }
        rounds_used += 1;
        // Budget shared between non-empty levels.
        let active_levels = remaining.iter().filter(|r| !r.is_empty()).count().max(1);
        let budget_per_level = (per_round_budget / active_levels).max(16);
        let mut sampled_total = 0usize;

        for k in 0..num_levels {
            if remaining[k].is_empty() {
                continue;
            }
            // Uniform sample of the remaining level-k edges (or all of them if few).
            let take_all = remaining[k].len() <= budget_per_level;
            let sample: Vec<usize> = if take_all {
                remaining[k].clone()
            } else {
                let p = budget_per_level as f64 / remaining[k].len() as f64;
                remaining[k].iter().copied().filter(|_| rng.gen_bool(p.min(1.0))).collect()
            };
            sampled_total += sample.len();
            // Extend the maximal b-matching greedily on the sample (Lemma 20:
            // whenever an edge is usable, saturate one endpoint).
            for id in sample {
                let e = graph.edge(id);
                let (u, v) = (e.u as usize, e.v as usize);
                let take = residual[k][u].min(residual[k][v]);
                if take > 0 {
                    residual[k][u] -= take;
                    residual[k][v] -= take;
                    matchings[k].add(id, e, take);
                }
            }
            // Filter: drop edges with a saturated endpoint (done by next round's mappers).
            remaining[k].retain(|&id| {
                let e = graph.edge(id);
                residual[k][e.u as usize] > 0 && residual[k][e.v as usize] > 0
            });
        }
        tracker.charge_sample_round(total_remaining, sampled_total);
    }

    // Lemma 21: build the dual point from saturation.
    let r = eps / 256.0;
    let mut dual = DualState::new(n, num_levels.max(1), eps);
    for (k, matching) in matchings.iter().enumerate() {
        // An empty matching saturates no vertex.
        if matching.is_empty() {
            continue;
        }
        let w_k = levels.level_weight(k);
        let loads = matching.vertex_loads(n);
        for (v, &load) in loads.iter().enumerate() {
            if load >= graph.b(v as VertexId) && graph.b(v as VertexId) > 0 {
                dual.set_x(v as VertexId, k, r * w_k);
            }
        }
    }
    let beta0 = dual.objective(graph);

    // Combined feasible b-matching: merge per-level matchings, heaviest level first.
    let mut combined = BMatching::new();
    let mut combined_residual: Vec<u64> = (0..n).map(|v| graph.b(v as VertexId)).collect();
    for k in (0..num_levels).rev() {
        for (id, e, mult) in matchings[k].iter() {
            let (u, v) = (e.u as usize, e.v as usize);
            let take = mult.min(combined_residual[u]).min(combined_residual[v]);
            if take > 0 {
                combined_residual[u] -= take;
                combined_residual[v] -= take;
                combined.add(id, e, take);
            }
        }
    }

    let per_level = matchings.into_iter().enumerate().filter(|(_, m)| !m.is_empty()).collect();
    InitialSolution { dual, beta0, per_level, combined, rounds_used }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};

    fn setup(seed: u64, n: usize, m: usize) -> (Graph, WeightLevels) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm(n, m, WeightModel::Uniform(1.0, 16.0), &mut rng);
        let levels = WeightLevels::new(&g, 0.2);
        (g, levels)
    }

    #[test]
    fn per_level_matchings_are_maximal_and_feasible() {
        let (g, levels) = setup(1, 60, 400);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 7);
        for (k, bm) in &init.per_level {
            assert!(bm.is_valid(&g), "level {k} b-matching violates capacities");
            // Maximality: every level-k edge has a saturated endpoint.
            let loads = bm.vertex_loads(g.num_vertices());
            for e in g.edges().iter().filter(|e| levels.classes().class_of(e.w) == Some(*k)) {
                assert!(
                    loads[e.u as usize] >= g.b(e.u) || loads[e.v as usize] >= g.b(e.v),
                    "level {k} matching is not maximal"
                );
            }
        }
    }

    #[test]
    fn dual_point_covers_every_levelled_edge() {
        let (g, levels) = setup(2, 50, 300);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 11);
        let r = levels.eps() / 256.0;
        for e in g.edges() {
            let Some(k) = levels.classes().class_of(e.w) else { continue };
            let cov = init.dual.edge_coverage(e.u, e.v, k);
            let need = r * levels.level_weight(k);
            assert!(cov >= need - 1e-12, "edge at level {k} undercovered: {cov} < {need}");
        }
    }

    #[test]
    fn beta0_is_positive_and_below_fractional_bound() {
        let (g, levels) = setup(3, 70, 500);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 13);
        assert!(init.beta0 > 0.0);
        // beta0 <= beta^b/4 <= (3/2) beta_hat / 4 is hard to check exactly; use the
        // loose sanity bound beta0 <= total rescaled weight.
        let total: f64 = g
            .edges()
            .iter()
            .filter_map(|e| levels.classes().class_of(e.w))
            .map(|k| levels.level_weight(k))
            .sum();
        assert!(init.beta0 <= total);
    }

    #[test]
    fn combined_matching_is_feasible_and_nonempty() {
        let (g, levels) = setup(4, 40, 200);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 17);
        assert!(init.combined.is_valid(&g));
        assert!(!init.combined.is_empty());
    }

    #[test]
    fn rounds_are_bounded_and_charged_to_the_tracker() {
        let (g, levels) = setup(5, 80, 800);
        let mut tracker = ResourceTracker::new();
        let init = build_initial_solution(&g, &levels, 2.0, &mut tracker, 19);
        assert!(init.rounds_used >= 1);
        assert_eq!(tracker.rounds(), init.rounds_used);
        // With p=2 the space budget is ~ 4 * 80^{1.5} ≈ 2862 > m, so very few rounds.
        assert!(init.rounds_used <= 6, "rounds_used = {}", init.rounds_used);
    }

    #[test]
    fn works_with_b_capacities() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut g = generators::gnm(40, 300, WeightModel::Uniform(1.0, 8.0), &mut rng);
        generators::randomize_capacities(&mut g, 4, &mut rng);
        let levels = WeightLevels::new(&g, 0.25);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 23);
        assert!(init.combined.is_valid(&g));
        for (_, bm) in &init.per_level {
            assert!(bm.is_valid(&g));
        }
    }

    #[test]
    fn empty_graph_is_handled() {
        let g = Graph::new(10);
        let levels = WeightLevels::new(&g, 0.2);
        let init = build_initial_solution(&g, &levels, 2.0, &mut ResourceTracker::new(), 29);
        assert_eq!(init.beta0, 0.0);
        assert!(init.combined.is_empty());
        assert!(init.per_level.is_empty());
    }
}
