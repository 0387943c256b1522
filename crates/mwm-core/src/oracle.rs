//! The MicroOracle (Algorithm 5, Lemmas 14 and 16).
//!
//! Given the revealed multiplier values `u^s_{ijk}` of the edges stored by a
//! deferred sparsifier and the current dual objective bound `β`, the oracle
//! returns one of:
//!
//! * **a dual update** (condition (ii)) — either *vertex mass* (`x_i(ℓ)`
//!   values placed on vertices whose multiplier degree violates the
//!   `γ·b_i·ŵ_ℓ/β` threshold; Step 6 of Algorithm 5) or *odd-set mass*
//!   (`z_{U,ℓ}` values on a disjoint collection of dense small odd sets;
//!   Step 17), each normalised so that the multiplier-weighted coverage of the
//!   update is at least `(1-ε/16)·γ`; or
//! * **a primal certificate** (condition (i)) — neither family of violated
//!   constraints carries enough mass, which (Lemma 14 → Lemma 13) means the
//!   sparsifier support itself contains a b-matching of weight `≥ (1-2ε)β`;
//!   the solver then runs the offline matching substrate on the support.
//!
//! Specialisation notes: the `ζ`/`ϱ` Lagrangian smoothing of Lemma 10 is only
//! needed to bound the *inner* iteration count of the theoretical analysis;
//! operationally we invoke the oracle with `ζ = 0`, and the dense-odd-set
//! collection `K(ℓ)` is produced by the candidate-search substitute of
//! `mwm_matching::find_dense_odd_sets` instead of Padberg–Rao minimum odd cuts.

use crate::relaxation::DualState;
use mwm_graph::{EdgeId, Graph, VertexId, WeightLevels};
use mwm_matching::{find_dense_odd_sets, DenseOddSetConfig};
use std::collections::HashMap;

/// One stored-and-revealed sparsifier edge handed to the oracle.
#[derive(Clone, Copy, Debug)]
pub struct SupportEdge {
    /// Original edge id.
    pub id: EdgeId,
    /// Endpoints.
    pub u: VertexId,
    /// Endpoints.
    pub v: VertexId,
    /// Weight level `k` of the edge.
    pub level: usize,
    /// Revealed multiplier value `u^s_{ijk} ≥ 0`.
    pub us: f64,
}

/// Which kind of progress the oracle made.
#[derive(Clone, Debug)]
pub enum OracleDecision {
    /// Condition (ii): a dual candidate to mix into the current dual point.
    DualUpdate {
        /// The candidate dual variables (a valid `x̃` of `LagInner`).
        update: DualState,
        /// True if the mass went on vertices, false if on odd sets.
        vertex_mass: bool,
        /// The multiplier total `γ` the update was normalised against.
        gamma: f64,
    },
    /// Condition (i): the support contains a matching of weight `≥ (1-2ε)β`.
    PrimalCertificate {
        /// The multiplier total `γ` observed.
        gamma: f64,
        /// Fractional `y` scale `(1-ε/4)β / ((1+ε/2)γ)` from Step 21 of Algorithm 5.
        y_scale: f64,
    },
}

/// The MicroOracle, bound to a graph, its weight levels and an accuracy ε.
pub struct MicroOracle<'a> {
    graph: &'a Graph,
    levels: &'a WeightLevels,
    eps: f64,
}

impl<'a> MicroOracle<'a> {
    /// Creates the oracle.
    pub fn new(graph: &'a Graph, levels: &'a WeightLevels) -> Self {
        MicroOracle { graph, levels, eps: levels.eps() }
    }

    /// Maximum odd-set capacity `4/ε` considered by the relaxation.
    pub fn max_odd_set_capacity(&self) -> u64 {
        (4.0 / self.eps).ceil() as u64
    }

    /// Runs Algorithm 5 (with `ζ = 0`) on the given support.
    pub fn decide(&self, support: &[SupportEdge], beta: f64) -> OracleDecision {
        let eps = self.eps;
        let n = self.graph.num_vertices();
        let num_levels = self.levels.num_levels().max(1);
        // Step 1: gamma.
        let gamma: f64 = support.iter().map(|se| self.levels.level_weight(se.level) * se.us).sum();
        if gamma <= 0.0 || beta <= 0.0 {
            return OracleDecision::DualUpdate {
                update: DualState::new(n, num_levels, eps),
                vertex_mass: true,
                gamma: 0.0,
            };
        }

        // Multiplier degree per (vertex, level).
        let mut deg: Vec<HashMap<usize, f64>> = vec![HashMap::new(); n];
        for se in support {
            if se.us <= 0.0 {
                continue;
            }
            *deg[se.u as usize].entry(se.level).or_insert(0.0) += se.us;
            *deg[se.v as usize].entry(se.level).or_insert(0.0) += se.us;
        }

        // Steps 2–4: Delta(i, l), k*_i, Viol(V), Gamma(V).
        let mut viol: Vec<(VertexId, usize, Vec<usize>)> = Vec::new(); // (vertex, k*, Pos(i))
        let mut gamma_v = 0.0f64;
        for (v, deg_v) in deg.iter().enumerate() {
            if deg_v.is_empty() {
                continue;
            }
            let mut pos: Vec<usize> = deg_v.keys().copied().collect();
            pos.sort_unstable();
            let b_v = self.graph.b(v as VertexId) as f64;
            let mut best: Option<(usize, f64)> = None;
            for &l in &pos {
                let w_l = self.levels.level_weight(l);
                let delta: f64 = pos
                    .iter()
                    .map(|&k| {
                        let d = deg_v[&k];
                        if k <= l {
                            self.levels.level_weight(k) * d
                        } else {
                            w_l * d
                        }
                    })
                    .sum();
                if delta > gamma * b_v * w_l / beta {
                    // Keep the largest such level (argmax over qualifying l).
                    best = Some((l, delta));
                }
            }
            if let Some((k_star, delta)) = best {
                gamma_v += delta;
                viol.push((v as VertexId, k_star, pos));
            }
        }

        // Step 5–7: vertex-mass dual update.
        if gamma_v >= eps * gamma / 24.0 {
            let mut update = DualState::new(n, num_levels, eps);
            for (v, k_star, pos) in &viol {
                for &l in pos {
                    let w = self.levels.level_weight(l.min(*k_star));
                    update.set_x(*v, l, gamma * w / gamma_v);
                }
            }
            return OracleDecision::DualUpdate { update, vertex_mass: true, gamma };
        }

        // Steps 11–19: dense small odd sets per level (K(l)).
        let mut present_levels: Vec<usize> = support.iter().map(|se| se.level).collect();
        present_levels.sort_unstable();
        present_levels.dedup();
        let scale = (1.0 - eps / 4.0) * beta / gamma;
        let cfg = DenseOddSetConfig {
            max_capacity: self.max_odd_set_capacity(),
            slack: 1.0,
            exhaustive_below: 12,
        };
        // Edge charge lookup by id (a support edge is counted at level l iff its
        // own level is >= l; with zeta = 0 the vertex budget is exactly b_i).
        let us_by_id: HashMap<EdgeId, (usize, f64)> =
            support.iter().map(|se| (se.id, (se.level, se.us))).collect();
        let mut odd_update = DualState::new(n, num_levels, eps);
        let mut gamma_os = 0.0f64;
        let mut placed_any = false;
        for &l in present_levels.iter().rev() {
            let q = |id: usize| -> f64 {
                match us_by_id.get(&id) {
                    Some(&(k, us)) if k >= l => scale * us,
                    _ => 0.0,
                }
            };
            let q_hat = |v: VertexId| self.graph.b(v) as f64;
            let sets = find_dense_odd_sets(self.graph, &q, &q_hat, &cfg);
            if sets.is_empty() {
                continue;
            }
            let w_l = self.levels.level_weight(l);
            for s in sets {
                // Only insert if no member already carries a set at this level (the
                // finder returns disjoint sets per call, so this guards across calls).
                if s.vertices.iter().any(|&v| odd_update.has_odd_set_at(l, v)) {
                    continue;
                }
                // Raw (unscaled) internal multiplier mass of the set at levels >= l.
                let delta_u_l = s.internal_charge / scale;
                gamma_os += w_l * delta_u_l;
                // Provisional value; final normalisation by Gamma(Os) happens below.
                odd_update.add_odd_set(l, s.vertices.clone(), w_l * delta_u_l);
                placed_any = true;
            }
        }
        if placed_any && gamma_os >= eps * gamma / 24.0 {
            // Normalise: z_{U,l} = gamma * w_l * Delta(U,l) / Gamma(Os)  — achieved by
            // scaling the provisional values (w_l * Delta) by gamma / Gamma(Os).
            odd_update.scale(gamma / gamma_os);
            return OracleDecision::DualUpdate { update: odd_update, vertex_mass: false, gamma };
        }

        // Step 21: primal certificate.
        let y_scale = (1.0 - eps / 4.0) * beta / ((1.0 + eps / 2.0) * gamma);
        OracleDecision::PrimalCertificate { gamma, y_scale }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn make_support(_graph: &Graph, levels: &WeightLevels, us: f64) -> Vec<SupportEdge> {
        levels
            .all_edges()
            .map(|le| SupportEdge { id: le.id, u: le.edge.u, v: le.edge.v, level: le.level, us })
            .collect()
    }

    #[test]
    fn zero_multipliers_give_trivial_dual_update() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(20, 60, WeightModel::Unit, &mut rng);
        let levels = WeightLevels::new(&g, 0.2);
        let oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 0.0);
        match oracle.decide(&support, 10.0) {
            OracleDecision::DualUpdate { gamma, .. } => assert_eq!(gamma, 0.0),
            other => panic!("expected trivial dual update, got {other:?}"),
        }
    }

    #[test]
    fn tiny_beta_triggers_vertex_mass_update() {
        // With beta much smaller than the multiplier mass, the vertex thresholds
        // gamma*b_i*w_l/beta are huge... actually small beta makes the threshold
        // large; a *large* multiplier concentration relative to beta*deg makes
        // vertices violate. Use beta small so gamma/beta is large => thresholds
        // large; instead use beta LARGE so thresholds are small and every vertex
        // violates -> vertex mass update.
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnm(30, 200, WeightModel::Unit, &mut rng);
        let levels = WeightLevels::new(&g, 0.2);
        let oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 1.0);
        match oracle.decide(&support, 1e9) {
            OracleDecision::DualUpdate { vertex_mass, gamma, update } => {
                assert!(vertex_mass);
                assert!(gamma > 0.0);
                // The update places mass on at least one vertex.
                let any_mass = (0..30u32).any(|v| update.x_max(v) > 0.0);
                assert!(any_mass);
            }
            other => panic!("expected vertex-mass dual update, got {other:?}"),
        }
    }

    #[test]
    fn balanced_instance_returns_primal_certificate() {
        // A perfect matching (disjoint edges): multiplier degrees are tiny relative
        // to beta ~ the matching weight, and no odd set is dense, so the oracle
        // must certify the primal side.
        let mut g = Graph::new(20);
        for i in 0..10u32 {
            g.add_edge(2 * i, 2 * i + 1, 4.0);
        }
        let levels = WeightLevels::new(&g, 0.2);
        let oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 1.0);
        // beta equal to (roughly) the true optimum.
        let beta = levels.all_edges().map(|le| levels.level_weight(le.level)).sum::<f64>();
        match oracle.decide(&support, beta) {
            OracleDecision::PrimalCertificate { gamma, y_scale } => {
                assert!(gamma > 0.0);
                assert!(y_scale > 0.0);
            }
            other => panic!("expected primal certificate, got {other:?}"),
        }
    }

    #[test]
    fn triangle_overload_produces_odd_set_or_vertex_progress() {
        // A single unit-weight triangle with beta set to the *bipartite* optimum 1.5:
        // the dual cannot certify 1.5 with vertex variables alone, and the fractional
        // overload concentrates multiplier mass inside the triangle.
        let g = generators::triangle_gadget(0.2, 1.0);
        let levels = WeightLevels::new(&g, 0.2);
        let oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 1.0);
        // Small beta relative to multiplier mass => progress must be possible.
        let decision = oracle.decide(&support, 0.4);
        match decision {
            OracleDecision::DualUpdate { gamma, .. } => assert!(gamma > 0.0),
            OracleDecision::PrimalCertificate { .. } => {
                // Acceptable: the support (3 edges) indeed contains the optimum.
            }
        }
    }

    #[test]
    fn dual_update_respects_level_bounds() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(25, 0.4, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let levels = WeightLevels::new(&g, 0.25);
        let oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 0.7);
        if let OracleDecision::DualUpdate { update, .. } = oracle.decide(&support, 1e8) {
            // x_i(l) <= 24 w_l / eps (inner width bound of LP8).
            for v in 0..25u32 {
                for l in 0..levels.num_levels() {
                    let bound = 24.0 * levels.level_weight(l) / 0.25 + 1e-9;
                    assert!(
                        update.x(v, l) <= bound,
                        "x_{v}({l}) = {} exceeds {bound}",
                        update.x(v, l)
                    );
                }
            }
        }
    }
}
