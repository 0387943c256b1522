//! The penalty (layered) relaxation LP5/LP10 and its dual state.
//!
//! Variables (Section 3): `x_i(k)` — the cost vertex `i` pays at weight level
//! `k`; `x_i = max_k x_i(k)` — its contribution to the objective; `z_{U,ℓ}` —
//! the cost of small odd set `U` at level `ℓ` (contributions of a set are
//! additive across levels). An edge `(i,j) ∈ Ê_k` is *covered* when
//!
//! ```text
//!   x_i(k) + x_j(k) + Σ_{ℓ≤k} Σ_{U∈O_s: i,j∈U} z_{U,ℓ}  ≥  ŵ_k .
//! ```
//!
//! The point of the penalty formulation is the width bound: subject to the
//! packing side constraints `2x_i(k) + Σ_{ℓ≤k} Σ_{U∋i} z_{U,ℓ} ≤ 3ŵ_k`, the
//! coverage of any edge is at most `6ŵ_k` — an absolute constant multiple of
//! the requirement, independent of `n`, `B` or `1/ε` (compare the `Ω(n)`
//! width of LP2). [`RelaxationWidths`] measures both, for experiment E7.
//!
//! [`DualState`] holds the solve loop's dual point in flat arrays: `x` in one
//! `n·L` vector indexed `v·L + k`, and per level the disjoint odd sets with a
//! vertex → set table. The MicroOracle proposes a candidate `x̃` as a
//! [`DualUpdate`] (plain lists of vertex and odd-set entries), and
//! [`DualState::step`] is the one Theorem 5 step `x ← (1-σ)·x + σ·x̃`.

use mwm_graph::{Graph, VertexId};
use std::ops::Range;

/// Membership-table entry of a vertex that belongs to no odd set of a level.
const NO_SET: u32 = u32::MAX;

/// A dual candidate `x̃` in list form: what the MicroOracle proposes and
/// [`DualState::step`] mixes into the dual point.
#[derive(Clone, Debug, Default)]
pub struct DualUpdate {
    /// `(v, k, x̃_v(k))` entries.
    pub vertices: Vec<(VertexId, usize, f64)>,
    /// `(ℓ, U, z̃_{U,ℓ})` entries by ascending level (finder order within a
    /// level), members sorted.
    pub odd_sets: Vec<(usize, Vec<VertexId>, f64)>,
}

/// Dual variables of the layered penalty relaxation, stored flat.
///
/// `x` is one `n·L` array (`L` = number of weight levels) indexed `v·L + k`,
/// where 0 means the variable is unset. Each level keeps its disjoint odd sets
/// and a vertex → set table that stays empty until the level holds a set.
/// Sets are only ever added, so the state keeps the lowest level holding one,
/// and the odd-set sums of coverage and load start their level walk there:
/// with no set, an edge's coverage reads only `x_u(k)` and `x_v(k)`.
/// [`DualState::x`] and [`DualState::set_x`] panic on a level `k ≥ L`: every
/// caller classifies edges of the graph the state was sized for.
#[derive(Clone, Debug)]
pub struct DualState {
    eps: f64,
    n: usize,
    num_levels: usize,
    /// `x[v·L + k] = x_v(k)`.
    x: Vec<f64>,
    /// Per level ℓ: disjoint odd sets with their `z_{U,ℓ}` values. Each entry is
    /// `(members, value)`; members are sorted.
    z: Vec<Vec<(Vec<VertexId>, f64)>>,
    /// Per level ℓ: `z_assign[ℓ][v]` is the index into `z[ℓ]` of the set
    /// holding `v`, or [`NO_SET`]; empty until the level holds a set.
    z_assign: Vec<Vec<u32>>,
    /// The lowest level holding an odd set (`L` while none does).
    first_odd_level: usize,
}

/// The index of the set holding `v` in one level's membership table.
fn set_holding(assign: &[u32], v: VertexId) -> Option<usize> {
    assign.get(v as usize).filter(|&&s| s != NO_SET).map(|&s| s as usize)
}

impl DualState {
    /// Creates the all-zero dual state for a graph with `num_levels` weight levels.
    pub fn new(n: usize, num_levels: usize, eps: f64) -> Self {
        DualState {
            eps,
            n,
            num_levels,
            x: vec![0.0; n * num_levels],
            z: vec![Vec::new(); num_levels],
            z_assign: vec![Vec::new(); num_levels],
            first_odd_level: num_levels,
        }
    }

    /// Accuracy parameter the state was built with.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Number of weight levels.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The flat index of `x_v(k)`.
    fn slot(&self, v: VertexId, k: usize) -> usize {
        assert!(k < self.num_levels, "level {k} out of range ({} levels)", self.num_levels);
        v as usize * self.num_levels + k
    }

    /// `x_v(k)`. Panics if `k ≥` [`DualState::num_levels`].
    pub fn x(&self, v: VertexId, k: usize) -> f64 {
        self.x[self.slot(v, k)]
    }

    /// Sets `x_v(k)`; a value that is not positive is stored as 0 (unset).
    /// Panics if `k ≥` [`DualState::num_levels`].
    pub fn set_x(&mut self, v: VertexId, k: usize, value: f64) {
        let slot = self.slot(v, k);
        self.x[slot] = if value > 0.0 { value } else { 0.0 };
    }

    /// `x_v(0), …, x_v(L-1)`.
    fn row(&self, v: VertexId) -> &[f64] {
        let start = v as usize * self.num_levels;
        &self.x[start..start + self.num_levels]
    }

    /// `x_v = max_k x_v(k)` — the objective contribution of vertex `v`.
    pub fn x_max(&self, v: VertexId) -> f64 {
        self.row(v).iter().copied().fold(0.0, f64::max)
    }

    /// Adds an odd set with value `z_{U,ℓ}` at level `ℓ`. Panics if the set
    /// overlaps an existing set of the same level (the paper's `K(ℓ)` families
    /// are disjoint within a level).
    pub fn add_odd_set(&mut self, level: usize, mut members: Vec<VertexId>, value: f64) {
        assert!(level < self.num_levels);
        members.sort_unstable();
        members.dedup();
        assert!(members.len() >= 3, "odd sets have at least 3 vertices");
        let assign = &mut self.z_assign[level];
        if assign.is_empty() {
            *assign = vec![NO_SET; self.n];
        }
        for &v in &members {
            assert!(assign[v as usize] == NO_SET, "odd sets within a level must be disjoint");
        }
        let idx = self.z[level].len() as u32;
        for &v in &members {
            assign[v as usize] = idx;
        }
        self.z[level].push((members, value));
        self.first_odd_level = self.first_odd_level.min(level);
    }

    /// The levels `ℓ ≤ k` that may hold an odd set.
    fn odd_levels_upto(&self, k: usize) -> Range<usize> {
        self.first_odd_level..k.saturating_add(1).min(self.num_levels)
    }

    /// Adds `value` to `z_{U,ℓ}`, keeping the level's sets disjoint: the mass
    /// goes to the set that already holds a member of `U` (the first such
    /// member in `members` order decides), or to `U` as a new set. Folding
    /// overlapping mass into an existing set only strengthens coverage.
    fn add_odd_mass(&mut self, level: usize, members: &[VertexId], value: f64) {
        match members.iter().find_map(|&v| set_holding(&self.z_assign[level], v)) {
            Some(existing) => self.z[level][existing].1 += value,
            None => self.add_odd_set(level, members.to_vec(), value),
        }
    }

    /// Sum of `z_{U,ℓ}` over levels `ℓ ≤ k` and sets containing **both** `i` and `j`.
    pub fn z_pair_sum(&self, i: VertexId, j: VertexId, k: usize) -> f64 {
        let mut total = 0.0;
        for level in self.odd_levels_upto(k) {
            let assign = &self.z_assign[level];
            if let (Some(si), Some(sj)) = (set_holding(assign, i), set_holding(assign, j)) {
                if si == sj {
                    total += self.z[level][si].1;
                }
            }
        }
        total
    }

    /// Sum of `z_{U,ℓ}` over levels `ℓ ≤ k` and sets containing vertex `i`.
    pub fn z_vertex_sum(&self, i: VertexId, k: usize) -> f64 {
        let mut total = 0.0;
        for level in self.odd_levels_upto(k) {
            if let Some(si) = set_holding(&self.z_assign[level], i) {
                total += self.z[level][si].1;
            }
        }
        total
    }

    /// The coverage of an edge constraint: LHS of the covering row for an edge
    /// of level `k` with endpoints `i, j`.
    pub fn edge_coverage(&self, i: VertexId, j: VertexId, k: usize) -> f64 {
        self.x(i, k) + self.x(j, k) + self.z_pair_sum(i, j, k)
    }

    /// The packing load of the side constraint for vertex `i` at level `k`:
    /// `2x_i(k) + Σ_{ℓ≤k} Σ_{U∋i} z_{U,ℓ}` (must stay `≤ 3ŵ_k` for the outer
    /// width and `≤ (24/ε + 24/ε²)·ŵ_k` for the inner width).
    pub fn vertex_load(&self, i: VertexId, k: usize) -> f64 {
        2.0 * self.x(i, k) + self.z_vertex_sum(i, k)
    }

    /// Objective value `Σ_i b_i·x_i + Σ_{U,ℓ} ⌊||U||_b/2⌋·z_{U,ℓ}` of LP10.
    pub fn objective(&self, graph: &Graph) -> f64 {
        let mut total = 0.0;
        for v in 0..graph.num_vertices() {
            total += graph.b(v as VertexId) as f64 * self.x_max(v as VertexId);
        }
        for level in &self.z {
            for (members, value) in level {
                let cap: u64 = members.iter().map(|&v| graph.b(v)).sum();
                total += (cap / 2) as f64 * value;
            }
        }
        total
    }

    /// One Theorem 5 step, the convex combination `x ← (1-σ)·x + σ·x̃` of the
    /// covering framework: every variable is scaled by `1-σ`, then the
    /// update's vertex entries are added in list order and its odd sets are
    /// folded in by the disjointness rule of `add_odd_mass`.
    pub fn step(&mut self, update: &DualUpdate, sigma: f64) {
        let keep = 1.0 - sigma;
        assert!(keep >= 0.0);
        for val in &mut self.x {
            *val *= keep;
        }
        for level in &mut self.z {
            for (_, val) in level.iter_mut() {
                *val *= keep;
            }
        }
        for &(v, k, value) in &update.vertices {
            let cur = self.x(v, k);
            self.set_x(v, k, cur + sigma * value);
        }
        for (level, members, value) in &update.odd_sets {
            let add = sigma * value;
            if add > 0.0 {
                self.add_odd_mass(*level, members, add);
            }
        }
    }

    /// The number of odd sets with nonzero value across all levels.
    pub fn num_active_odd_sets(&self) -> usize {
        self.z.iter().map(|lvl| lvl.iter().filter(|(_, v)| *v > 0.0).count()).sum()
    }

    /// Extracts a classical (LP11-style) dual: `x_i = max_k x_i(k)/(1-3ε)`,
    /// `z_U = Σ_ℓ z_{U,ℓ}/(1-3ε)` — the transformation used in Section 3 to
    /// prove condition (d1). The odd-set list is sorted by member set so the
    /// extraction is deterministic; each set's values are summed by
    /// ascending level.
    pub fn to_classical_dual(&self) -> (Vec<f64>, Vec<(Vec<VertexId>, f64)>) {
        let scale = 1.0 / (1.0 - 3.0 * self.eps);
        let xs: Vec<f64> = (0..self.n).map(|v| self.x_max(v as VertexId) * scale).collect();
        let mut zs: Vec<(Vec<VertexId>, f64)> = self
            .z
            .iter()
            .flatten()
            .map(|(members, value)| (members.clone(), value * scale))
            .collect();
        zs.sort_by(|a, b| a.0.cmp(&b.0));
        zs.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                kept.1 += later.1;
            }
            same
        });
        (xs, zs)
    }
}

/// Width measurements comparing the classical dual LP2 with the penalty
/// relaxation LP4/LP5 (experiment E7).
#[derive(Clone, Copy, Debug)]
pub struct RelaxationWidths {
    /// Width of the classical dual LP2: the coverage of an edge can be as large
    /// as `max_i (b_i·x_i + Σ_U z_U)` allows — for LP2 the natural bound is the
    /// objective scale divided by the smallest requirement, which grows with n;
    /// we report the paper's lower bound `n_active` (number of non-isolated
    /// vertices), since `z_V` alone can cover an edge `Θ(n)`-fold.
    pub classical_width: f64,
    /// Width of the penalty relaxation: coverage / requirement is at most 6
    /// under the outer packing constraints (independent of every parameter).
    pub penalty_width: f64,
    /// Inner width `ρ_i = O(ε⁻²)` of the inner packing constraints.
    pub penalty_inner_width: f64,
}

/// Computes the width comparison for a concrete graph and accuracy ε.
pub fn relaxation_widths(graph: &Graph, eps: f64) -> RelaxationWidths {
    let mut active = vec![false; graph.num_vertices()];
    for e in graph.edges() {
        active[e.u as usize] = true;
        active[e.v as usize] = true;
    }
    let n_active = active.iter().filter(|&&a| a).count();
    RelaxationWidths {
        classical_width: n_active as f64,
        penalty_width: 6.0,
        penalty_inner_width: 24.0 / eps + 24.0 / (eps * eps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn coverage_accumulates_x_and_z() {
        let mut d = DualState::new(5, 3, 0.1);
        d.set_x(0, 1, 2.0);
        d.set_x(1, 1, 1.0);
        assert!((d.edge_coverage(0, 1, 1) - 3.0).abs() < 1e-12);
        // Odd set {0,1,2} at level 0 contributes to every edge inside it at levels >= 0.
        d.add_odd_set(0, vec![0, 1, 2], 0.5);
        assert!((d.edge_coverage(0, 1, 1) - 3.5).abs() < 1e-12);
        assert!((d.edge_coverage(0, 1, 0) - 0.5).abs() < 1e-12);
        // Edge (0,3) is not inside the set: only x_0(1) = 2 covers it at level 1.
        assert!((d.edge_coverage(0, 3, 1) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn vertex_load_counts_z_once_per_level() {
        let mut d = DualState::new(4, 2, 0.1);
        d.set_x(2, 0, 1.0);
        d.add_odd_set(0, vec![1, 2, 3], 0.4);
        d.add_odd_set(1, vec![1, 2, 3], 0.6);
        assert!((d.vertex_load(2, 0) - (2.0 + 0.4)).abs() < 1e-12);
        assert!((d.vertex_load(2, 1) - (0.4 + 0.6)).abs() < 1e-12);
    }

    #[test]
    fn objective_uses_x_max_and_floor_capacity() {
        let mut g = Graph::new(4);
        g.set_b(0, 2);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        let mut d = DualState::new(4, 2, 0.1);
        d.set_x(0, 0, 1.0);
        d.set_x(0, 1, 3.0); // x_0 = 3, b_0 = 2 → contributes 6
        d.add_odd_set(0, vec![1, 2, 3], 2.0); // ||U||_b = 3 → floor 1 → contributes 2
        assert!((d.objective(&g) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn step_is_a_convex_combination() {
        let mut a = DualState::new(3, 1, 0.1);
        a.set_x(0, 0, 2.0);
        a.add_odd_set(0, vec![0, 1, 2], 1.0);
        let update = DualUpdate {
            vertices: vec![(0, 0, 4.0), (1, 0, 8.0)],
            odd_sets: vec![(0, vec![0, 1, 2], 3.0)],
        };
        a.step(&update, 0.25);
        // x ← 0.75·x + 0.25·x̃, on vertex and odd-set variables alike.
        assert!((a.x(0, 0) - 2.5).abs() < 1e-12);
        assert!((a.x(1, 0) - 2.0).abs() < 1e-12);
        assert!((a.z_pair_sum(0, 1, 0) - (0.75 + 0.75)).abs() < 1e-12);
        assert_eq!(a.num_active_odd_sets(), 1, "the same set gains mass, no copy is added");
    }

    #[test]
    fn overlapping_odd_set_mass_is_folded() {
        let mut a = DualState::new(5, 1, 0.1);
        a.add_odd_set(0, vec![0, 1, 2], 1.0);
        // Overlaps {0,1,2} on vertex 2.
        let update = DualUpdate { vertices: Vec::new(), odd_sets: vec![(0, vec![2, 3, 4], 2.0)] };
        a.step(&update, 0.5);
        // The mass lands on the existing set; disjointness within the level holds.
        assert_eq!(a.num_active_odd_sets(), 1);
        assert!((a.z_pair_sum(0, 1, 0) - 1.5).abs() < 1e-12);
        assert_eq!(a.z_pair_sum(3, 4, 0), 0.0, "no set was added over {{2,3,4}}");
    }

    #[test]
    #[should_panic]
    fn overlapping_sets_in_a_level_panic_on_direct_insert() {
        let mut d = DualState::new(5, 1, 0.1);
        d.add_odd_set(0, vec![0, 1, 2], 1.0);
        d.add_odd_set(0, vec![2, 3, 4], 1.0);
    }

    #[test]
    fn classical_dual_extraction_scales_by_one_minus_three_eps() {
        let mut d = DualState::new(3, 2, 0.1);
        d.set_x(1, 0, 0.7);
        d.set_x(1, 1, 0.9);
        d.add_odd_set(0, vec![0, 1, 2], 0.5);
        d.add_odd_set(1, vec![0, 1, 2], 0.25);
        let (xs, zs) = d.to_classical_dual();
        assert!((xs[1] - 0.9 / 0.7_f64.mul_add(0.0, 1.0 - 0.3)).abs() < 1e-9);
        assert_eq!(zs.len(), 1);
        assert!((zs[0].1 - 0.75 / (1.0 - 0.3)).abs() < 1e-9);
    }

    #[test]
    fn widths_match_paper_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let small = generators::gnm(50, 200, WeightModel::Unit, &mut rng);
        let large = generators::gnm(500, 2000, WeightModel::Unit, &mut rng);
        let w_small = relaxation_widths(&small, 0.1);
        let w_large = relaxation_widths(&large, 0.1);
        // Classical width grows with n; penalty width is the constant 6.
        assert!(w_large.classical_width > w_small.classical_width);
        assert_eq!(w_small.penalty_width, 6.0);
        assert_eq!(w_large.penalty_width, 6.0);
        assert!(w_small.penalty_inner_width > 6.0);
    }
}
