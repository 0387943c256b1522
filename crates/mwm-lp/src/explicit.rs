//! Explicit sparse covering instances over box-with-budget polytopes.
//!
//! These instances back the solver unit tests and experiment E10 (substrate
//! sanity: iteration counts versus width). The polytope is
//! `P = {x : 0 ≤ x_j ≤ upper_j, Σ_j cost_j·x_j ≤ budget}`, for which exact
//! linear optimization (the oracle problem `max uᵀAx`) is a
//! fractional-knapsack greedy.

use crate::covering::{CoveringInstance, OracleCandidate};

/// `P = {x : 0 ≤ x ≤ upper, costᵀx ≤ budget}`.
#[derive(Clone, Debug)]
pub struct BoxBudgetPolytope {
    /// Upper bound per variable.
    pub upper: Vec<f64>,
    /// Budget coefficient per variable (must be positive).
    pub cost: Vec<f64>,
    /// Total budget.
    pub budget: f64,
}

impl BoxBudgetPolytope {
    /// Maximizes `scoreᵀx` over the polytope (fractional knapsack greedy).
    /// Returns the chosen `x` as sparse `(index, value)` pairs.
    pub fn maximize(&self, score: &[f64]) -> Vec<(usize, f64)> {
        let n = self.upper.len();
        assert_eq!(score.len(), n);
        let mut order: Vec<usize> = (0..n).filter(|&j| score[j] > 0.0).collect();
        order.sort_by(|&a, &b| {
            let ra = score[a] / self.cost[a];
            let rb = score[b] / self.cost[b];
            rb.total_cmp(&ra)
        });
        let mut remaining = self.budget;
        let mut x = Vec::new();
        for j in order {
            if remaining <= 0.0 {
                break;
            }
            let amount = self.upper[j].min(remaining / self.cost[j]);
            if amount > 0.0 {
                x.push((j, amount));
                remaining -= amount * self.cost[j];
            }
        }
        x
    }

    /// Maximum feasible value of `x_j` alone (used for width computations).
    pub fn max_single(&self, j: usize) -> f64 {
        self.upper[j].min(self.budget / self.cost[j])
    }
}

/// Explicit covering instance: `∃? x ∈ P : Ax ≥ c`.
#[derive(Clone, Debug)]
pub struct ExplicitCovering {
    /// Rows of `A`: `rows[ℓ] = [(j, A_{ℓj}), …]` with non-negative entries.
    pub rows: Vec<Vec<(usize, f64)>>,
    /// Right-hand sides `c_ℓ > 0`.
    pub c: Vec<f64>,
    /// The polytope `P`.
    pub polytope: BoxBudgetPolytope,
    cached_width: f64,
}

impl ExplicitCovering {
    /// Builds an instance (and pre-computes its width).
    pub fn new(rows: Vec<Vec<(usize, f64)>>, c: Vec<f64>, polytope: BoxBudgetPolytope) -> Self {
        assert_eq!(rows.len(), c.len());
        let cached_width = width(&rows, &c, &polytope);
        ExplicitCovering { rows, c, polytope, cached_width }
    }

    /// Number of variables (inferred from the polytope).
    pub fn num_variables(&self) -> usize {
        self.polytope.upper.len()
    }

    /// Evaluates `A x` for a sparse `x`.
    pub fn coverage_of(&self, x: &[(usize, f64)]) -> Vec<f64> {
        let mut dense = vec![0.0; self.num_variables()];
        for &(j, v) in x {
            dense[j] += v;
        }
        self.rows.iter().map(|row| row.iter().map(|&(j, a)| a * dense[j]).sum()).collect()
    }
}

impl CoveringInstance for ExplicitCovering {
    /// Payload: the sparse `x̃` chosen by the oracle.
    type Payload = Vec<(usize, f64)>;

    fn num_constraints(&self) -> usize {
        self.c.len()
    }

    fn rhs(&self, l: usize) -> f64 {
        self.c[l]
    }

    fn width(&self) -> f64 {
        self.cached_width
    }

    fn oracle(&mut self, u: &[f64], eps: f64) -> Option<OracleCandidate<Self::Payload>> {
        // score_j = Σ_ℓ u_ℓ A_{ℓj}
        let n = self.num_variables();
        let mut score = vec![0.0f64; n];
        for (l, row) in self.rows.iter().enumerate() {
            for &(j, a) in row {
                score[j] += u[l] * a;
            }
        }
        let x = self.polytope.maximize(&score);
        // Check the Corollary 6 requirement: uᵀAx̃ ≥ (1-ε/2)·uᵀc.
        let ax = self.coverage_of(&x);
        let lhs: f64 = ax.iter().zip(u).map(|(a, w)| a * w).sum();
        let rhs: f64 = self.c.iter().zip(u).map(|(c, w)| c * w).sum();
        if lhs + 1e-15 < (1.0 - eps / 2.0) * rhs {
            return None;
        }
        let coverage: Vec<(usize, f64)> =
            ax.into_iter().enumerate().filter(|&(_, v)| v > 0.0).collect();
        Some(OracleCandidate { coverage, payload: x })
    }
}

/// The width `ρ = max_{x∈P} max_ℓ (Ax)_ℓ/c_ℓ`, which sets the step size of
/// the covering solver (Theorem 5), bounded from above: each row pushes
/// every variable to the largest value the box and budget allow
/// *individually* and sums. Floored at 1.
fn width(rows: &[Vec<(usize, f64)>], c: &[f64], polytope: &BoxBudgetPolytope) -> f64 {
    let mut width: f64 = 0.0;
    for (l, row) in rows.iter().enumerate() {
        let mut numer = 0.0;
        for &(j, a) in row {
            numer += a * polytope.max_single(j);
        }
        width = width.max(numer / c[l]);
    }
    width.max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knapsack_oracle_prefers_best_ratio() {
        let p = BoxBudgetPolytope {
            upper: vec![1.0, 1.0, 1.0],
            cost: vec![1.0, 2.0, 1.0],
            budget: 2.0,
        };
        // Scores: variable 2 has the best ratio, then variable 0.
        let x = p.maximize(&[1.0, 1.5, 2.0]);
        let dense: std::collections::HashMap<usize, f64> = x.into_iter().collect();
        assert_eq!(dense.get(&2), Some(&1.0));
        assert_eq!(dense.get(&0), Some(&1.0));
        assert!(!dense.contains_key(&1));
    }

    #[test]
    fn knapsack_respects_budget_fractionally() {
        let p = BoxBudgetPolytope { upper: vec![5.0, 5.0], cost: vec![1.0, 1.0], budget: 3.0 };
        let x = p.maximize(&[2.0, 1.0]);
        let total: f64 = x.iter().map(|&(_, v)| v).sum();
        assert!((total - 3.0).abs() < 1e-12);
        // Best-ratio variable saturates first.
        assert_eq!(x[0], (0, 3.0));
    }

    #[test]
    fn coverage_of_matches_manual_computation() {
        let rows = vec![vec![(0, 2.0), (1, 1.0)], vec![(1, 3.0)]];
        let inst = ExplicitCovering::new(
            rows,
            vec![1.0, 1.0],
            BoxBudgetPolytope { upper: vec![1.0, 1.0], cost: vec![1.0, 1.0], budget: 10.0 },
        );
        let cov = inst.coverage_of(&[(0, 0.5), (1, 1.0)]);
        assert!((cov[0] - 2.0).abs() < 1e-12);
        assert!((cov[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn width_scales_with_box_upper_bounds() {
        let make = |upper: f64| {
            ExplicitCovering::new(
                vec![vec![(0, 1.0), (1, 1.0)]],
                vec![1.0],
                BoxBudgetPolytope { upper: vec![upper, upper], cost: vec![1.0, 1.0], budget: 1e9 },
            )
        };
        assert!((make(1.0).width() - 2.0).abs() < 1e-12);
        assert!((make(10.0).width() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn budget_caps_the_width() {
        let inst = ExplicitCovering::new(
            vec![vec![(0, 1.0)]],
            vec![1.0],
            BoxBudgetPolytope { upper: vec![100.0], cost: vec![1.0], budget: 5.0 },
        );
        assert!((inst.width() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn width_is_at_least_one() {
        let inst = ExplicitCovering::new(
            vec![vec![(0, 0.001)]],
            vec![1.0],
            BoxBudgetPolytope { upper: vec![1.0], cost: vec![1.0], budget: 1.0 },
        );
        assert!(inst.width() >= 1.0);
    }

    #[test]
    fn explicit_width_is_positive_and_finite() {
        let rows = vec![vec![(0, 1.0)], vec![(0, 2.0), (1, 1.0)]];
        let inst = ExplicitCovering::new(
            rows,
            vec![1.0, 2.0],
            BoxBudgetPolytope { upper: vec![2.0, 3.0], cost: vec![1.0, 1.0], budget: 4.0 },
        );
        let w = CoveringInstance::width(&inst);
        assert!(w.is_finite() && w > 0.0);
    }
}
