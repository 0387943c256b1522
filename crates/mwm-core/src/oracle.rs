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

use crate::relaxation::DualUpdate;
use mwm_graph::{EdgeId, Graph, VertexId, WeightLevels};
use mwm_matching::{find_dense_odd_sets, DenseOddSetConfig};
use std::ops::Range;

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
        update: DualUpdate,
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

/// A multiplier degree entry `(vertex, level, u^s)`.
type DegreeEntry = (VertexId, usize, f64);

/// The multiplier degrees of a support, summed in an `n·L` table that one
/// oracle reuses across its calls (all zero between calls).
struct DegreeTable {
    num_levels: usize,
    /// `sums[v·L + ℓ]`: the degree of `v` at level `ℓ` during a call.
    sums: Vec<f64>,
    /// Vertices with a nonzero row during a call.
    touched: Vec<bool>,
    /// The last call's `(vertex, level, degree)` entries.
    entries: Vec<DegreeEntry>,
}

impl DegreeTable {
    fn new(n: usize, num_levels: usize) -> Self {
        DegreeTable {
            num_levels,
            sums: vec![0.0; n * num_levels],
            touched: vec![false; n],
            entries: Vec::new(),
        }
    }

    /// Fills `entries` with each positive degree by ascending (vertex,
    /// level). A degree is a left fold of its endpoints' `u^s > 0` in
    /// support order: a zeroed slot adds the first term exactly, so every
    /// sum has the bits of a stable sort by (vertex, level) whose runs are
    /// summed in order. Reading a row out zeroes it again.
    fn fill(&mut self, support: &[SupportEdge]) {
        let l = self.num_levels;
        for se in support.iter().filter(|se| se.us > 0.0) {
            for v in [se.u as usize, se.v as usize] {
                self.sums[v * l..(v + 1) * l][se.level] += se.us;
                self.touched[v] = true;
            }
        }
        self.entries.clear();
        for (v, touched) in self.touched.iter_mut().enumerate() {
            if std::mem::take(touched) {
                for (k, sum) in self.sums[v * l..(v + 1) * l].iter_mut().enumerate() {
                    if *sum > 0.0 {
                        self.entries.push((v as VertexId, k, std::mem::take(sum)));
                    }
                }
            }
        }
    }
}

/// The MicroOracle, bound to a graph, its weight levels and an accuracy ε.
pub struct MicroOracle<'a> {
    graph: &'a Graph,
    levels: &'a WeightLevels,
    eps: f64,
    degrees: DegreeTable,
    /// `(k*_i, Pos(i))` of each violating vertex `i` during a call, as a
    /// range of `degrees.entries`.
    viol: Vec<(usize, Range<usize>)>,
}

impl<'a> MicroOracle<'a> {
    /// Creates the oracle, with a degree table sized for `graph` and `levels`.
    pub fn new(graph: &'a Graph, levels: &'a WeightLevels) -> Self {
        MicroOracle {
            graph,
            levels,
            eps: levels.eps(),
            degrees: DegreeTable::new(graph.num_vertices(), levels.num_levels()),
            viol: Vec::new(),
        }
    }

    /// Maximum odd-set capacity `4/ε` considered by the relaxation.
    pub fn max_odd_set_capacity(&self) -> u64 {
        (4.0 / self.eps).ceil() as u64
    }

    /// Runs Algorithm 5 (with `ζ = 0`) on the given support.
    pub fn decide(&mut self, support: &[SupportEdge], beta: f64) -> OracleDecision {
        let eps = self.eps;
        // Step 1: gamma.
        let gamma: f64 = support.iter().map(|se| self.levels.level_weight(se.level) * se.us).sum();
        if gamma <= 0.0 || beta <= 0.0 {
            return OracleDecision::DualUpdate {
                update: DualUpdate::default(),
                vertex_mass: true,
                gamma: 0.0,
            };
        }

        // Multiplier degree per (vertex, level), summed in support order in
        // the table, read out by ascending (vertex, level).
        self.degrees.fill(support);
        let deg = &self.degrees.entries;

        // Steps 2–4: Delta(i, l), k*_i, Viol(V), Gamma(V). A vertex's run of
        // `deg` is its Pos(i), by ascending level.
        self.viol.clear();
        let mut gamma_v = 0.0f64;
        let mut start = 0;
        for pos in deg.chunk_by(|a, b| a.0 == b.0) {
            let run = start..start + pos.len();
            start = run.end;
            let b_v = self.graph.b(pos[0].0) as f64;
            let mut best: Option<(usize, f64)> = None;
            for &(_, l, _) in pos {
                let w_l = self.levels.level_weight(l);
                let delta: f64 = pos
                    .iter()
                    .map(
                        |&(_, k, d)| if k <= l { self.levels.level_weight(k) * d } else { w_l * d },
                    )
                    .sum();
                if delta > gamma * b_v * w_l / beta {
                    // Keep the largest such level (argmax over qualifying l).
                    best = Some((l, delta));
                }
            }
            if let Some((k_star, delta)) = best {
                gamma_v += delta;
                self.viol.push((k_star, run));
            }
        }

        // Step 5–7: vertex-mass dual update.
        if gamma_v >= eps * gamma / 24.0 {
            let levels = self.levels;
            let vertices = self
                .viol
                .iter()
                .flat_map(|(k_star, run)| {
                    deg[run.clone()].iter().map(move |&(v, l, _)| {
                        (v, l, gamma * levels.level_weight(l.min(*k_star)) / gamma_v)
                    })
                })
                .collect();
            let update = DualUpdate { vertices, odd_sets: Vec::new() };
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
        let mut us_by_id: Vec<Option<(usize, f64)>> = vec![None; self.graph.num_edges()];
        for se in support {
            us_by_id[se.id] = Some((se.level, se.us));
        }
        // Each level is searched once and the finder returns disjoint sets,
        // so the sets of one level never overlap.
        let mut odd_sets: Vec<(usize, Vec<VertexId>, f64)> = Vec::new();
        let mut gamma_os = 0.0f64;
        for &l in present_levels.iter().rev() {
            let q = |id: usize| -> f64 {
                match us_by_id[id] {
                    Some((k, us)) if k >= l => scale * us,
                    _ => 0.0,
                }
            };
            let q_hat = |v: VertexId| self.graph.b(v) as f64;
            let w_l = self.levels.level_weight(l);
            for s in find_dense_odd_sets(self.graph, &q, &q_hat, &cfg) {
                // Raw (unscaled) internal multiplier mass of the set at levels >= l.
                let delta_u_l = s.internal_charge / scale;
                gamma_os += w_l * delta_u_l;
                // Provisional value; final normalisation by Gamma(Os) happens below.
                odd_sets.push((l, s.vertices, w_l * delta_u_l));
            }
        }
        if !odd_sets.is_empty() && gamma_os >= eps * gamma / 24.0 {
            // Normalise: z_{U,l} = gamma * w_l * Delta(U,l) / Gamma(Os)  — achieved by
            // scaling the provisional values (w_l * Delta) by gamma / Gamma(Os).
            let factor = gamma / gamma_os;
            for set in &mut odd_sets {
                set.2 *= factor;
            }
            // Ascending level, finder order within a level (a stable sort).
            odd_sets.sort_by_key(|set| set.0);
            let update = DualUpdate { vertices: Vec::new(), odd_sets };
            return OracleDecision::DualUpdate { update, vertex_mass: false, gamma };
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

    /// Every kept edge of `graph` with multiplier `us`, grouped by level
    /// ascending and in input order within a level.
    fn make_support(graph: &Graph, levels: &WeightLevels, us: f64) -> Vec<SupportEdge> {
        let mut support: Vec<SupportEdge> = graph
            .edge_iter()
            .filter_map(|(id, e)| {
                let level = levels.classes().class_of(e.w)?;
                Some(SupportEdge { id, u: e.u, v: e.v, level, us })
            })
            .collect();
        support.sort_by_key(|se| se.level);
        support
    }

    /// The degree table as it was built before the `n·L` table: every
    /// endpoint's entry in a stable sort by (vertex, level), each run summed
    /// in support order.
    fn sorted_degrees(support: &[SupportEdge]) -> Vec<DegreeEntry> {
        let mut deg: Vec<DegreeEntry> = Vec::with_capacity(2 * support.len());
        for se in support.iter().filter(|se| se.us > 0.0) {
            deg.push((se.u, se.level, se.us));
            deg.push((se.v, se.level, se.us));
        }
        deg.sort_by_key(|&(v, l, _)| (v, l));
        deg.dedup_by(|later, kept| {
            let same = (later.0, later.1) == (kept.0, kept.1);
            if same {
                kept.2 += later.2;
            }
            same
        });
        deg
    }

    /// Steps 1–7 of `decide` over [`sorted_degrees`]: the vertex-mass
    /// candidate, or `None` where `decide` must not return vertex mass.
    fn reference_vertex_mass(
        g: &Graph,
        levels: &WeightLevels,
        support: &[SupportEdge],
        beta: f64,
    ) -> Option<Vec<(VertexId, usize, f64)>> {
        let w = |l: usize| levels.level_weight(l);
        let gamma: f64 = support.iter().map(|se| w(se.level) * se.us).sum();
        if gamma <= 0.0 || beta <= 0.0 {
            return None;
        }
        let deg = sorted_degrees(support);
        let mut viol = Vec::new();
        let mut gamma_v = 0.0f64;
        for pos in deg.chunk_by(|a, b| a.0 == b.0) {
            let b_v = g.b(pos[0].0) as f64;
            let mut best = None;
            for &(_, l, _) in pos {
                let delta: f64 =
                    pos.iter().map(|&(_, k, d)| if k <= l { w(k) * d } else { w(l) * d }).sum();
                if delta > gamma * b_v * w(l) / beta {
                    best = Some((l, delta));
                }
            }
            if let Some((k_star, delta)) = best {
                gamma_v += delta;
                viol.push((k_star, pos));
            }
        }
        (gamma_v >= levels.eps() * gamma / 24.0).then(|| {
            viol.iter()
                .flat_map(|&(k_star, pos)| {
                    pos.iter().map(move |&(v, l, _)| (v, l, gamma * w(l.min(k_star)) / gamma_v))
                })
                .collect()
        })
    }

    fn entry_bits(entries: &[DegreeEntry]) -> Vec<(VertexId, usize, u64)> {
        entries.iter().map(|&(v, l, x)| (v, l, x.to_bits())).collect()
    }

    /// Random supports against the sort-and-merge reference, several calls
    /// per oracle so every call starts from a table the last one zeroed:
    /// repeated endpoints, parallel edges, several levels, zero multipliers,
    /// multipliers from 1e-300 to 1e3 and capacities up to 3. The degree
    /// list and the vertex-mass candidate must match bit for bit, in order.
    #[test]
    fn degree_table_matches_the_sorted_merge() {
        let mut vertex_mass_calls = 0;
        for case in 0..300u64 {
            let mut rng = StdRng::seed_from_u64(case);
            let n = rng.gen_range(2..12usize);
            let mut g = Graph::with_capacities((0..n).map(|_| rng.gen_range(1..=3)).collect());
            for _ in 0..rng.gen_range(1..3 * n) {
                let u = rng.gen_range(0..n as VertexId);
                let v = (u + rng.gen_range(1..n as VertexId)) % n as VertexId;
                g.add_edge(u, v, rng.gen_range(1.0..50.0));
            }
            let levels = WeightLevels::new(&g, 0.2);
            let num_levels = levels.num_levels();
            let mut oracle = MicroOracle::new(&g, &levels);
            for call in 0..4 {
                let support: Vec<SupportEdge> = (0..rng.gen_range(0..4 * n))
                    .map(|_| {
                        let id = rng.gen_range(0..g.num_edges());
                        let e = g.edge(id);
                        // A few levels per support, so (vertex, level) runs repeat.
                        let level = num_levels - 1 - rng.gen_range(0..num_levels.min(3));
                        let us = match rng.gen_range(0..5) {
                            0 => 0.0,
                            _ => 10f64.powf(rng.gen_range(-300.0..3.0)),
                        };
                        SupportEdge { id, u: e.u, v: e.v, level, us }
                    })
                    .collect();
                oracle.degrees.fill(&support);
                assert_eq!(
                    entry_bits(&oracle.degrees.entries),
                    entry_bits(&sorted_degrees(&support)),
                    "case {case}, call {call}"
                );
                let beta = 10f64.powf(rng.gen_range(-3.0..6.0));
                let want = reference_vertex_mass(&g, &levels, &support, beta);
                match (oracle.decide(&support, beta), want) {
                    (
                        OracleDecision::DualUpdate { update, vertex_mass: true, gamma },
                        Some(want),
                    ) if gamma > 0.0 => {
                        assert_eq!(entry_bits(&update.vertices), entry_bits(&want), "case {case}");
                        vertex_mass_calls += 1;
                    }
                    (OracleDecision::DualUpdate { vertex_mass: true, gamma, .. }, None)
                        if gamma > 0.0 =>
                    {
                        panic!("case {case}, call {call}: unexpected vertex mass")
                    }
                    (_, Some(_)) => panic!("case {case}, call {call}: vertex mass missing"),
                    _ => {}
                }
            }
        }
        assert!(vertex_mass_calls > 100, "only {vertex_mass_calls} vertex-mass calls");
    }

    #[test]
    fn zero_multipliers_give_trivial_dual_update() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(20, 60, WeightModel::Unit, &mut rng);
        let levels = WeightLevels::new(&g, 0.2);
        let mut oracle = MicroOracle::new(&g, &levels);
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
        let mut oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 1.0);
        match oracle.decide(&support, 1e9) {
            OracleDecision::DualUpdate { vertex_mass, gamma, update } => {
                assert!(vertex_mass);
                assert!(gamma > 0.0);
                // The update places mass on at least one vertex, and on no odd set.
                assert!(update.vertices.iter().any(|&(_, _, x)| x > 0.0));
                assert!(update.odd_sets.is_empty());
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
        let mut oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 1.0);
        // beta equal to (roughly) the true optimum.
        let beta = support.iter().map(|se| levels.level_weight(se.level)).sum::<f64>();
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
        let mut oracle = MicroOracle::new(&g, &levels);
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
        let mut oracle = MicroOracle::new(&g, &levels);
        let support = make_support(&g, &levels, 0.7);
        if let OracleDecision::DualUpdate { update, .. } = oracle.decide(&support, 1e8) {
            // x_i(l) <= 24 w_l / eps (inner width bound of LP8).
            for &(v, l, x) in &update.vertices {
                let bound = 24.0 * levels.level_weight(l) / 0.25 + 1e-9;
                assert!(x <= bound, "x_{v}({l}) = {x} exceeds {bound}");
            }
        }
    }

    #[test]
    fn vertex_update_follows_the_min_level_rule() {
        // Weights 2 and 1 rescale (B/W* = 4/2) to 4 and 2: levels 7 and 3 at
        // ε = 0.2. Vertex 0's support entries span both levels and
        // interleave with vertex 1's.
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(0, 2, 1.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(0, 3, 2.0);
        let levels = WeightLevels::new(&g, 0.2);
        assert_eq!(
            (levels.classes().class_of(2.0), levels.classes().class_of(1.0)),
            (Some(7), Some(3))
        );
        let (w3, w7) = (levels.level_weight(3), levels.level_weight(7));
        // In edge-id order, so vertex 0's levels arrive as 7, 3, 7.
        let support: Vec<SupportEdge> = g
            .edge_iter()
            .map(|(id, e)| {
                let level = levels.classes().class_of(e.w).unwrap();
                SupportEdge { id, u: e.u, v: e.v, level, us: 1.0 }
            })
            .collect();
        let gamma = 2.0 * (w7 + w3);
        // At β = 6 the threshold γ·ŵ_l/β is 3.06 at l = 3 and 6.34 at l = 7.
        // Vertex 0 (degrees 1 at level 3, 2 at level 7) beats both:
        // Δ(0,3) = 3ŵ_3 = 5.18 and Δ(0,7) = ŵ_3 + 2ŵ_7 = 8.89, so k* = 7.
        // Vertices 1 and 3 (degree 1 at each level) beat only level 3:
        // Δ(·,3) = 2ŵ_3 = 3.46 and Δ(·,7) = ŵ_3 + ŵ_7 = 5.31, so k* = 3.
        // Vertex 2 (Δ(2,3) = ŵ_3 = 1.73) violates nothing.
        let gamma_v = (w3 + 2.0 * w7) + 2.0 * (2.0 * w3);
        let expected = [
            (0, 3, w3),
            (0, 7, w7),
            (1, 3, w3),
            (1, 7, w3), // ŵ_{min(7, k* = 3)}
            (3, 3, w3),
            (3, 7, w3),
        ];
        match MicroOracle::new(&g, &levels).decide(&support, 6.0) {
            OracleDecision::DualUpdate { update, vertex_mass: true, gamma: g_out } => {
                assert!((g_out - gamma).abs() < 1e-12 * gamma);
                assert!(update.odd_sets.is_empty());
                assert_eq!(update.vertices.len(), expected.len());
                for (&(v, l, x), &(ev, el, w)) in update.vertices.iter().zip(&expected) {
                    assert_eq!((v, l), (ev, el));
                    let want = gamma * w / gamma_v;
                    assert!((x - want).abs() < 1e-12 * want, "x~_{v}({l}) = {x}, want {want}");
                }
            }
            other => panic!("expected a vertex-mass update, got {other:?}"),
        }
    }

    #[test]
    fn dense_triangle_takes_the_odd_set_branch() {
        // A unit triangle rescales (B/W* = 3) to weight 3: level 6 at ε = 0.2.
        // With every edge at u^s = 1 and β = 1.35·ŵ_6, each vertex's degree
        // 2ŵ_6 stays under its threshold γ·ŵ_6/β = ŵ_6·3/1.35, so no vertex
        // violates, while the triangle's charge 3·(1-ε/4)·β/γ ≈ 1.28 exceeds
        // ⌊3/2⌋ = 1: the one dense odd set gets all of γ.
        let mut g = Graph::new(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(0, 2, 1.0);
        let levels = WeightLevels::new(&g, 0.2);
        let l = levels.classes().class_of(1.0).unwrap();
        assert_eq!(l, 6);
        let support = make_support(&g, &levels, 1.0);
        let beta = 1.35 * levels.level_weight(l);
        match MicroOracle::new(&g, &levels).decide(&support, beta) {
            OracleDecision::DualUpdate { update, vertex_mass, gamma } => {
                assert!(!vertex_mass);
                assert!((gamma - 3.0 * levels.level_weight(l)).abs() < 1e-12);
                assert!(update.vertices.is_empty());
                assert_eq!(update.odd_sets.len(), 1);
                let (level, members, value) = &update.odd_sets[0];
                assert_eq!((*level, members.as_slice()), (l, &[0u32, 1, 2][..]));
                assert!((value - gamma).abs() < 1e-12 * gamma, "z = {value}, γ = {gamma}");
            }
            other => panic!("expected an odd-set update, got {other:?}"),
        }
    }
}
