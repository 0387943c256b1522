//! Resource budgets for solver runs.
//!
//! The paper's model charges algorithms for rounds of data access, central
//! space held between rounds, and oracle iterations. [`ResourceBudget`]
//! expresses caller-side limits on those resources: a solver receiving a
//! budget must stay within it or return [`MwmError::BudgetExceeded`].
//! `ResourceBudget::unlimited()` (the [`Default`]) imposes nothing.

use crate::error::MwmError;
use mwm_mapreduce::{PassBudget, ResourceTracker};

/// Caller-imposed limits on the resources of one solve.
///
/// All limits are optional; an absent limit is unconstrained. Budgets are
/// plain values — build them with the `with_*` combinators:
///
/// ```
/// use mwm_core::ResourceBudget;
/// let budget = ResourceBudget::unlimited()
///     .with_max_rounds(40)
///     .with_max_central_space(100_000)
///     .with_parallelism(4);
/// assert_eq!(budget.max_rounds(), Some(40));
/// assert_eq!(budget.parallelism(), Some(4));
/// ```
///
/// Besides limits, a budget carries the **parallelism** knob: how many worker
/// threads the solver's `PassEngine` may use per pass. The budget is the only
/// place a solver or a dynamic session reads it from, and a budget that does
/// not set it runs one worker. It changes wall-clock speed only, never
/// results (pass results merge in shard order).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceBudget {
    max_rounds: Option<usize>,
    max_central_space: Option<usize>,
    max_oracle_iterations: Option<usize>,
    max_streamed_items: Option<usize>,
    parallelism: Option<usize>,
}

impl ResourceBudget {
    /// A budget with no limits (the default).
    pub const fn unlimited() -> Self {
        ResourceBudget {
            max_rounds: None,
            max_central_space: None,
            max_oracle_iterations: None,
            max_streamed_items: None,
            parallelism: None,
        }
    }

    /// Caps the rounds of data access (MapReduce rounds / streaming passes).
    pub const fn with_max_rounds(mut self, limit: usize) -> Self {
        self.max_rounds = Some(limit);
        self
    }

    /// Caps the peak central space held between rounds, in items.
    pub const fn with_max_central_space(mut self, limit: usize) -> Self {
        self.max_central_space = Some(limit);
        self
    }

    /// Caps the oracle iterations (multiplier updates without data access).
    pub const fn with_max_oracle_iterations(mut self, limit: usize) -> Self {
        self.max_oracle_iterations = Some(limit);
        self
    }

    /// Caps the total input items streamed across all passes. Unlike the
    /// other limits this one is enforced **during** the pass: an exhausted
    /// stream budget interrupts the pass mid-shard and the solver returns
    /// [`MwmError::BudgetExceeded`] instead of a result.
    pub const fn with_max_streamed_items(mut self, limit: usize) -> Self {
        self.max_streamed_items = Some(limit);
        self
    }

    /// Sets the number of pass-engine worker threads for this solve or epoch
    /// (1 when unset; 0 runs as 1). Not a limit: results are bit-identical
    /// for every parallelism, only wall-clock time changes.
    pub const fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = Some(workers);
        self
    }

    /// The round limit, if any.
    pub const fn max_rounds(&self) -> Option<usize> {
        self.max_rounds
    }

    /// The central-space limit, if any.
    pub const fn max_central_space(&self) -> Option<usize> {
        self.max_central_space
    }

    /// The oracle-iteration limit, if any.
    pub const fn max_oracle_iterations(&self) -> Option<usize> {
        self.max_oracle_iterations
    }

    /// The streamed-items limit, if any.
    pub const fn max_streamed_items(&self) -> Option<usize> {
        self.max_streamed_items
    }

    /// The worker count set by [`ResourceBudget::with_parallelism`], if any.
    pub const fn parallelism(&self) -> Option<usize> {
        self.parallelism
    }

    /// The pointwise intersection of two budgets: every limit is the tighter
    /// of the two (a limit present on either side is enforced), and the
    /// parallelism knob keeps `self`'s override, falling back to `other`'s.
    ///
    /// This is the admission-control combinator of the serving layer: a
    /// service combines its per-epoch policy budget with the budget derived
    /// from its shared resource pool, and the result is at least as strict as
    /// both.
    ///
    /// ```
    /// use mwm_core::ResourceBudget;
    /// let policy = ResourceBudget::unlimited().with_max_rounds(40);
    /// let pool = ResourceBudget::unlimited().with_max_streamed_items(10_000);
    /// let effective = policy.intersect(&pool);
    /// assert_eq!(effective.max_rounds(), Some(40));
    /// assert_eq!(effective.max_streamed_items(), Some(10_000));
    /// ```
    pub fn intersect(&self, other: &ResourceBudget) -> ResourceBudget {
        fn tighter(a: Option<usize>, b: Option<usize>) -> Option<usize> {
            match (a, b) {
                (Some(x), Some(y)) => Some(x.min(y)),
                (x, None) => x,
                (None, y) => y,
            }
        }
        ResourceBudget {
            max_rounds: tighter(self.max_rounds, other.max_rounds),
            max_central_space: tighter(self.max_central_space, other.max_central_space),
            max_oracle_iterations: tighter(self.max_oracle_iterations, other.max_oracle_iterations),
            max_streamed_items: tighter(self.max_streamed_items, other.max_streamed_items),
            parallelism: self.parallelism.or(other.parallelism),
        }
    }

    /// The in-pass portion of this budget, for a `PassEngine` that has
    /// `already_streamed` items charged outside the engine.
    pub fn pass_budget(&self, already_streamed: usize) -> PassBudget {
        PassBudget {
            max_items_streamed: self
                .max_streamed_items
                .map(|limit| limit.saturating_sub(already_streamed)),
        }
    }

    /// True if no limit is set (the parallelism knob is not a limit).
    pub const fn is_unlimited(&self) -> bool {
        self.max_rounds.is_none()
            && self.max_central_space.is_none()
            && self.max_oracle_iterations.is_none()
            && self.max_streamed_items.is_none()
    }

    /// Verifies a finished run's resource ledger against the budget.
    pub fn check_tracker(&self, tracker: &ResourceTracker) -> Result<(), MwmError> {
        self.check_rounds(tracker.rounds())?;
        if let Some(limit) = self.max_central_space {
            if tracker.peak_central_space() > limit {
                return Err(MwmError::BudgetExceeded {
                    resource: "central space",
                    used: tracker.peak_central_space(),
                    limit,
                });
            }
        }
        if let Some(limit) = self.max_streamed_items {
            if tracker.items_streamed() > limit {
                return Err(MwmError::BudgetExceeded {
                    resource: "streamed items",
                    used: tracker.items_streamed(),
                    limit,
                });
            }
        }
        Ok(())
    }

    /// Verifies a round count against the budget.
    pub(crate) fn check_rounds(&self, used: usize) -> Result<(), MwmError> {
        match self.max_rounds {
            Some(limit) if used > limit => {
                Err(MwmError::BudgetExceeded { resource: "rounds", used, limit })
            }
            _ => Ok(()),
        }
    }

    /// Verifies an oracle-iteration count against the budget.
    pub fn check_oracle_iterations(&self, used: usize) -> Result<(), MwmError> {
        match self.max_oracle_iterations {
            Some(limit) if used > limit => {
                Err(MwmError::BudgetExceeded { resource: "oracle iterations", used, limit })
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_accepts_anything() {
        let mut t = ResourceTracker::new();
        t.charge_round();
        t.allocate_central(1_000_000);
        let b = ResourceBudget::unlimited();
        assert!(b.is_unlimited());
        assert!(b.check_tracker(&t).is_ok());
        assert!(b.check_oracle_iterations(usize::MAX).is_ok());
    }

    #[test]
    fn round_limit_is_enforced() {
        let mut t = ResourceTracker::new();
        t.charge_round();
        t.charge_round();
        let b = ResourceBudget::unlimited().with_max_rounds(1);
        match b.check_tracker(&t) {
            Err(MwmError::BudgetExceeded { resource: "rounds", used: 2, limit: 1 }) => {}
            other => panic!("expected rounds violation, got {other:?}"),
        }
    }

    #[test]
    fn space_limit_is_enforced_on_the_peak() {
        let mut t = ResourceTracker::new();
        t.allocate_central(500);
        t.release_central(500);
        let b = ResourceBudget::unlimited().with_max_central_space(100);
        assert!(b.check_tracker(&t).is_err(), "peak, not current, space is charged");
    }

    #[test]
    fn oracle_iteration_limit_is_enforced() {
        let b = ResourceBudget::unlimited().with_max_oracle_iterations(10);
        assert!(b.check_oracle_iterations(10).is_ok());
        assert!(b.check_oracle_iterations(11).is_err());
    }

    #[test]
    fn streamed_items_limit_is_enforced() {
        let mut t = ResourceTracker::new();
        t.charge_stream(500);
        let b = ResourceBudget::unlimited().with_max_streamed_items(400);
        assert!(matches!(
            b.check_tracker(&t),
            Err(MwmError::BudgetExceeded { resource: "streamed items", used: 500, limit: 400 })
        ));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn parallelism_is_a_knob_not_a_limit() {
        let b = ResourceBudget::unlimited().with_parallelism(8);
        assert_eq!(b.parallelism(), Some(8));
        assert!(b.is_unlimited(), "parallelism alone must not count as a limit");
        let t = ResourceTracker::new();
        assert!(b.check_tracker(&t).is_ok());
    }

    #[test]
    fn intersect_takes_the_tighter_limit_per_resource() {
        let a = ResourceBudget::unlimited()
            .with_max_rounds(10)
            .with_max_streamed_items(500)
            .with_parallelism(4);
        let b = ResourceBudget::unlimited()
            .with_max_rounds(20)
            .with_max_central_space(1_000)
            .with_max_streamed_items(200);
        let c = a.intersect(&b);
        assert_eq!(c.max_rounds(), Some(10));
        assert_eq!(c.max_central_space(), Some(1_000));
        assert_eq!(c.max_streamed_items(), Some(200));
        assert_eq!(c.max_oracle_iterations(), None);
        assert_eq!(c.parallelism(), Some(4), "self's parallelism override wins");
        // Commutative on limits, left-biased on the knob.
        let d = b.intersect(&a);
        assert_eq!(d.max_rounds(), c.max_rounds());
        assert_eq!(d.max_streamed_items(), c.max_streamed_items());
        assert_eq!(d.parallelism(), Some(4), "falls back to other's knob");
        // Unlimited is the identity.
        assert_eq!(a.intersect(&ResourceBudget::unlimited()), a);
    }

    #[test]
    fn pass_budget_subtracts_already_streamed_items() {
        let b = ResourceBudget::unlimited().with_max_streamed_items(100);
        assert_eq!(b.pass_budget(30).max_items_streamed, Some(70));
        assert_eq!(b.pass_budget(200).max_items_streamed, Some(0));
        assert_eq!(ResourceBudget::unlimited().pass_budget(30).max_items_streamed, None);
    }
}
