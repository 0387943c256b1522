//! The fractional covering framework (Theorem 5, Corollary 6).
//!
//! We solve the decision problem `∃? x ∈ P : Ax ≥ c` for a packing-style
//! polytope `P` with `0 ≤ Ax ≤ ρ·c` for all `x ∈ P`. The algorithm maintains a
//! point `x ∈ P` (implicitly, as a convex combination of oracle answers),
//! tracks the coverage vector `(Ax)_ℓ / c_ℓ`, and repeatedly asks an oracle to
//! (approximately) maximize `uᵀAx̃` over `P` for the exponential multipliers
//! `u_ℓ = exp(-α·(Ax)_ℓ/c_ℓ)/c_ℓ`. Corollary 6 allows the relaxed guarantee
//! `uᵀAx̃ ≥ (1-ε/2)·uᵀc`; if no such `x̃` exists the multipliers themselves are
//! an infeasibility certificate (`yᵀAx < yᵀc` for all `x ∈ P`).
//!
//! [`solve_covering`] is generic over an oracle; the explicit LPs of
//! experiment E10 drive it. The dual-primal solver of `mwm-core` runs its own
//! loop — its oracle answers come from deferred sparsifiers built in rounds
//! of data access (Figure 1) — but both loops take every step through the one
//! [`StepRule`], so a change to the step size lands in both.

/// The multiplicative-weights step rule of Theorem 5: the phase parameter
/// `α = ln(M/ε)/(λε)`, the multipliers `u = exp(-α(r-λ))/c`, the step
/// `σ = ε/(2αρ)` and the stopping test `λ ≥ 1-3ε`, for `M` covering
/// constraints of width `ρ`.
///
/// Theorem 5 asks for `α = O(λ⁻¹ε⁻¹ ln(M/ε))`; the constant in front only
/// affects the convergence rate, never the validity of the output
/// (feasibility is certified by the `λ` test, infeasibility by the oracle's
/// failure), so the rule uses 1.
#[derive(Clone, Copy, Debug)]
pub struct StepRule {
    eps: f64,
    rho: f64,
    /// `ln(M/ε)`, with `M` floored at 2.
    ln_m_over_eps: f64,
}

impl StepRule {
    /// The rule for accuracy `eps`, width `rho` and `num_constraints`
    /// covering constraints.
    pub fn new(eps: f64, rho: f64, num_constraints: usize) -> Self {
        StepRule { eps, rho, ln_m_over_eps: ((num_constraints.max(2) as f64) / eps).ln() }
    }

    /// True once `λ ≥ 1-3ε`: the maintained point covers every constraint
    /// well enough to stop.
    #[inline]
    pub fn done(&self, lambda: f64) -> bool {
        lambda >= 1.0 - 3.0 * self.eps
    }

    /// The phase parameter `α = ln(M/ε)/(λε)`, with `λ` floored at `10⁻⁶`.
    #[inline]
    pub fn alpha(&self, lambda: f64) -> f64 {
        self.ln_m_over_eps / (lambda.max(1e-6) * self.eps)
    }

    /// The multiplier `exp(-α(ratio-λ))/c` of a constraint with coverage
    /// ratio `ratio` and right-hand side `c`. Shifting the exponent by
    /// `λ = min ratio` keeps it `≤ 0` (scaling every multiplier by one
    /// positive constant does not change the oracle's problem), and the clamp
    /// to `±700` keeps `exp` finite.
    #[inline]
    pub fn multiplier(alpha: f64, ratio: f64, lambda: f64, c: f64) -> f64 {
        (-(alpha * (ratio - lambda))).clamp(-700.0, 700.0).exp() / c
    }

    /// The step `σ = ε/(2αρ)`, capped at 1: the weight the next oracle answer
    /// gets in the convex combination `x ← (1-σ)x + σx̃`.
    #[inline]
    pub fn sigma(&self, alpha: f64) -> f64 {
        (self.eps / (2.0 * alpha * self.rho)).min(1.0)
    }
}

/// A candidate returned by a covering oracle.
#[derive(Clone, Debug)]
pub struct OracleCandidate<T> {
    /// The nonzero entries of `A x̃`, as `(constraint index, value)` pairs.
    pub coverage: Vec<(usize, f64)>,
    /// Caller-defined payload describing `x̃` (e.g. the sparse solution itself),
    /// so the final answer can be reconstructed as a convex combination.
    pub payload: T,
}

/// A problem instance consumed by [`solve_covering`].
pub trait CoveringInstance {
    /// Payload type attached to oracle candidates.
    type Payload;

    /// Number of covering constraints `M`.
    fn num_constraints(&self) -> usize;

    /// Right-hand side `c_ℓ > 0`.
    fn rhs(&self, l: usize) -> f64;

    /// Width bound `ρ ≥ max_{x∈P} max_ℓ (Ax)_ℓ/c_ℓ` (used for the step size).
    fn width(&self) -> f64;

    /// The (relaxed) oracle of Corollary 6: given multipliers `u ≥ 0` return a
    /// candidate with `uᵀAx̃ ≥ (1-ε/2)·uᵀc`, or `None` if no point of `P`
    /// achieves it (which certifies infeasibility of the covering system).
    fn oracle(&mut self, u: &[f64], eps: f64) -> Option<OracleCandidate<Self::Payload>>;
}

/// Parameters of the covering solver.
#[derive(Clone, Copy, Debug)]
pub struct CoveringParams {
    /// Target accuracy ε: the solver stops when `λ ≥ 1-3ε`.
    pub eps: f64,
    /// Hard cap on oracle invocations (a safety net over the Theorem 5 bound).
    pub max_iterations: usize,
}

impl Default for CoveringParams {
    fn default() -> Self {
        CoveringParams { eps: 0.1, max_iterations: 100_000 }
    }
}

/// Why the solver stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoveringOutcome {
    /// `λ ≥ 1-3ε`: the maintained `x` is an approximately feasible covering point.
    Feasible,
    /// The oracle failed: the final multipliers certify infeasibility.
    Infeasible,
    /// The iteration cap was reached before either of the above.
    IterationLimit,
}

/// The result of a covering run.
#[derive(Clone, Debug)]
pub struct CoveringSolution<T> {
    /// Termination reason.
    pub outcome: CoveringOutcome,
    /// Final `λ = min_ℓ (Ax)_ℓ/c_ℓ`.
    pub lambda: f64,
    /// Final coverage ratios `(Ax)_ℓ/c_ℓ` per constraint.
    pub coverage_ratio: Vec<f64>,
    /// The convex combination defining `x`: `(σ_t, payload_t)` of every
    /// accepted oracle answer plus the initial payload at index 0 (weight of
    /// the initial point is `1 - Σ σ_t` applied multiplicatively).
    pub steps: Vec<(f64, T)>,
    /// Number of oracle invocations that returned a candidate.
    pub iterations: usize,
    /// The multipliers at termination (infeasibility certificate when
    /// `outcome == Infeasible`).
    pub final_multipliers: Vec<f64>,
}

/// Runs the fractional covering framework.
///
/// * `initial_coverage` — the vector `A x₀` of an initial point `x₀ ∈ P`
///   satisfying `A x₀ ≥ (1-ε₀)c` for some `ε₀ < 1` (condition (d5)).
/// * `initial_payload` — payload describing `x₀`.
pub fn solve_covering<I: CoveringInstance>(
    instance: &mut I,
    initial_coverage: Vec<f64>,
    initial_payload: I::Payload,
    params: &CoveringParams,
) -> CoveringSolution<I::Payload>
where
    I::Payload: Clone,
{
    let m = instance.num_constraints();
    assert_eq!(initial_coverage.len(), m, "initial coverage must have one entry per constraint");
    let eps = params.eps;
    assert!(eps > 0.0 && eps < 0.5);
    let rule = StepRule::new(eps, instance.width().max(1.0), m);

    // Coverage ratios (Ax)_l / c_l, maintained incrementally.
    let mut ratio: Vec<f64> = (0..m)
        .map(|l| {
            let c = instance.rhs(l);
            assert!(c > 0.0, "covering RHS must be positive");
            initial_coverage[l] / c
        })
        .collect();
    let mut steps: Vec<(f64, I::Payload)> = vec![(1.0, initial_payload)];
    let mut u = vec![0.0f64; m];
    let mut iterations = 0usize;

    let lambda_of = |ratio: &[f64]| ratio.iter().copied().fold(f64::INFINITY, f64::min);
    let mut lambda = lambda_of(&ratio);

    loop {
        if rule.done(lambda) {
            return CoveringSolution {
                outcome: CoveringOutcome::Feasible,
                lambda,
                coverage_ratio: ratio,
                steps,
                iterations,
                final_multipliers: u,
            };
        }
        if iterations >= params.max_iterations {
            return CoveringSolution {
                outcome: CoveringOutcome::IterationLimit,
                lambda,
                coverage_ratio: ratio,
                steps,
                iterations,
                final_multipliers: u,
            };
        }
        let alpha = rule.alpha(lambda);
        for l in 0..m {
            u[l] = StepRule::multiplier(alpha, ratio[l], lambda, instance.rhs(l));
        }
        match instance.oracle(&u, eps) {
            None => {
                return CoveringSolution {
                    outcome: CoveringOutcome::Infeasible,
                    lambda,
                    coverage_ratio: ratio,
                    steps,
                    iterations,
                    final_multipliers: u,
                };
            }
            Some(cand) => {
                iterations += 1;
                let sigma = rule.sigma(alpha);
                // x <- (1-sigma) x + sigma x_tilde, applied to the coverage ratios.
                for r in ratio.iter_mut() {
                    *r *= 1.0 - sigma;
                }
                for &(l, v) in &cand.coverage {
                    ratio[l] += sigma * v / instance.rhs(l);
                }
                // Record the step; earlier steps implicitly shrink by (1-sigma).
                for (w, _) in steps.iter_mut() {
                    *w *= 1.0 - sigma;
                }
                steps.push((sigma, cand.payload));
                lambda = lambda_of(&ratio);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::{BoxBudgetPolytope, ExplicitCovering};

    #[test]
    fn step_rule_follows_theorem_5() {
        let rule = StepRule::new(0.1, 6.0, 1000);
        let ln = (1000.0f64 / 0.1).ln();
        assert_eq!(rule.alpha(0.5).to_bits(), (ln / (0.5 * 0.1)).to_bits());
        // λ is floored at 1e-6, so α stays finite at λ = 0.
        assert_eq!(rule.alpha(0.0).to_bits(), rule.alpha(1e-6).to_bits());
        // Fewer than two constraints count as two.
        assert_eq!(StepRule::new(0.1, 6.0, 0).alpha(1.0), (2.0f64 / 0.1).ln() / 0.1);
        let alpha = rule.alpha(0.5);
        assert_eq!(rule.sigma(alpha), 0.1 / (2.0 * alpha * 6.0));
        assert_eq!(StepRule::new(0.1, 1e-9, 2).sigma(1e-3), 1.0, "σ is capped at 1");
        assert_eq!(StepRule::multiplier(alpha, 0.5, 0.5, 4.0), 0.25);
        assert_eq!(StepRule::multiplier(1.0, 2.0, 1.0, 2.0), (-1.0f64).exp() / 2.0);
        // The exponent is clamped, so huge gaps give exp(-700), not 0.
        assert_eq!(StepRule::multiplier(1e6, 1.0, 0.0, 1.0), (-700.0f64).exp());
        assert!(rule.done(0.7) && !rule.done(0.69));
    }

    /// Feasible toy instance: cover two elements with two sets.
    #[test]
    fn simple_feasible_cover() {
        // Constraints: x1 >= 1, x2 >= 1; polytope: 0 <= x <= 1 (budget loose).
        let rows = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let mut inst = ExplicitCovering::new(
            rows,
            vec![1.0, 1.0],
            BoxBudgetPolytope { upper: vec![1.0, 1.0], cost: vec![1.0, 1.0], budget: 10.0 },
        );
        let init = vec![0.5, 0.5]; // x0 = (0.5, 0.5)
        let sol = solve_covering(
            &mut inst,
            init,
            vec![(0, 0.5), (1, 0.5)],
            &CoveringParams { eps: 0.05, max_iterations: 60_000 },
        );
        assert_eq!(sol.outcome, CoveringOutcome::Feasible);
        assert!(sol.lambda >= 1.0 - 0.15);
    }

    #[test]
    fn infeasible_system_is_detected() {
        // Constraint x1 + x2 >= 10 but the box only allows x <= 1 each.
        let rows = vec![vec![(0, 1.0), (1, 1.0)]];
        let mut inst = ExplicitCovering::new(
            rows,
            vec![10.0],
            BoxBudgetPolytope { upper: vec![1.0, 1.0], cost: vec![1.0, 1.0], budget: 10.0 },
        );
        let sol = solve_covering(
            &mut inst,
            vec![1.0],
            vec![(0, 0.5), (1, 0.5)],
            &CoveringParams { eps: 0.1, max_iterations: 10_000 },
        );
        assert_eq!(sol.outcome, CoveringOutcome::Infeasible);
    }

    #[test]
    fn budget_constrained_cover_requires_large_enough_budget() {
        // Covering 3 elements each needing its own variable, but the budget only
        // pays for 1.5 units => infeasible; with budget 3 => feasible.
        let rows = vec![vec![(0, 1.0)], vec![(1, 1.0)], vec![(2, 1.0)]];
        let c = vec![1.0, 1.0, 1.0];
        let tight = BoxBudgetPolytope { upper: vec![1.0; 3], cost: vec![1.0; 3], budget: 1.5 };
        let loose = BoxBudgetPolytope { upper: vec![1.0; 3], cost: vec![1.0; 3], budget: 3.0 };
        let mut inst_tight = ExplicitCovering::new(rows.clone(), c.clone(), tight);
        let mut inst_loose = ExplicitCovering::new(rows, c, loose);
        let sol_tight = solve_covering(
            &mut inst_tight,
            vec![0.5, 0.5, 0.5],
            vec![],
            &CoveringParams { eps: 0.05, max_iterations: 60_000 },
        );
        assert_ne!(sol_tight.outcome, CoveringOutcome::Feasible);
        let sol_loose = solve_covering(
            &mut inst_loose,
            vec![0.5, 0.5, 0.5],
            vec![],
            &CoveringParams { eps: 0.05, max_iterations: 60_000 },
        );
        assert_eq!(sol_loose.outcome, CoveringOutcome::Feasible);
    }

    #[test]
    fn step_weights_form_a_convex_combination() {
        let rows = vec![vec![(0, 1.0), (1, 0.5)], vec![(1, 1.0)]];
        let mut inst = ExplicitCovering::new(
            rows,
            vec![1.0, 1.0],
            BoxBudgetPolytope { upper: vec![1.0, 1.0], cost: vec![1.0, 1.0], budget: 5.0 },
        );
        let sol = solve_covering(
            &mut inst,
            vec![0.3, 0.3],
            vec![(0, 0.3), (1, 0.3)],
            &CoveringParams { eps: 0.08, max_iterations: 60_000 },
        );
        assert_eq!(sol.outcome, CoveringOutcome::Feasible);
        let total: f64 = sol.steps.iter().map(|(w, _)| w).sum();
        assert!((total - 1.0).abs() < 1e-6, "step weights sum to {total}");
        assert!(sol.steps.iter().all(|&(w, _)| w >= 0.0));
    }

    #[test]
    fn iteration_count_grows_with_width() {
        // The wide instance has one constraint whose coverage per oracle answer
        // can be 10x its requirement, which caps the step size at sigma ~ 1/rho
        // and slows progress on the *other* (bottleneck) constraint.
        let narrow_rows = vec![vec![(0, 1.0)], vec![(1, 1.0)]];
        let wide_rows = vec![vec![(0, 10.0)], vec![(1, 1.0)]];
        let polytope =
            BoxBudgetPolytope { upper: vec![1.0, 1.0], cost: vec![1.0, 1.0], budget: 1e6 };
        let params = CoveringParams { eps: 0.1, max_iterations: 400_000 };
        let mut narrow = ExplicitCovering::new(narrow_rows, vec![1.0, 1.0], polytope.clone());
        let mut wide = ExplicitCovering::new(wide_rows, vec![1.0, 1.0], polytope);
        let sol_narrow = solve_covering(&mut narrow, vec![0.2, 0.2], vec![], &params);
        let sol_wide = solve_covering(&mut wide, vec![2.0, 0.2], vec![], &params);
        assert_eq!(sol_narrow.outcome, CoveringOutcome::Feasible);
        assert_eq!(sol_wide.outcome, CoveringOutcome::Feasible);
        assert!(
            sol_wide.iterations > sol_narrow.iterations,
            "wide {} vs narrow {}",
            sol_wide.iterations,
            sol_narrow.iterations
        );
    }
}
