//! Fractional covering machinery (the Plotkin–Shmoys–Tardos style
//! multiplicative-weights framework the paper builds on).
//!
//! * [`covering`] — the multiplicative-weights [`StepRule`] of Theorem 5
//!   (the dual-primal solver of `mwm-core` takes every step through it) and
//!   the generic fractional *covering* solver with the relaxed oracle of
//!   Corollary 6: exponential multipliers `u_ℓ = exp(-α (Ax)_ℓ / c_ℓ)/c_ℓ`,
//!   convex-combination updates, early stopping at `λ ≥ 1-3ε`, and
//!   infeasibility certificates.
//! * [`explicit`] — explicit sparse-matrix covering instances over
//!   box-with-budget polytopes, with built-in exact linear-maximization
//!   oracles; these are the workloads of experiment E10 and the unit tests of
//!   the covering solver.

pub mod covering;
pub mod explicit;

pub use covering::{
    solve_covering, CoveringInstance, CoveringOutcome, CoveringParams, CoveringSolution,
    OracleCandidate, StepRule,
};
pub use explicit::{BoxBudgetPolytope, ExplicitCovering};
