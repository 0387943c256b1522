//! The typed error hierarchy of the engine API.
//!
//! Library code reports recoverable failures through [`MwmError`] instead of
//! panicking: invalid configurations surface at construction time, capability
//! limits surface as [`MwmError::Unsupported`], and resource-budget violations
//! surface as [`MwmError::BudgetExceeded`] so that a caller driving many
//! solvers can degrade gracefully. Panics remain only for programming errors
//! (violated internal invariants), each documented at its site.

use std::fmt;

/// Convenience alias for results produced by the engine API.
pub type MwmResult<T> = Result<T, MwmError>;

/// Every recoverable failure mode of the workspace.
#[derive(Clone, Debug, PartialEq)]
pub enum MwmError {
    /// A configuration parameter failed validation at construction time.
    InvalidConfig {
        /// Name of the offending parameter (e.g. `"eps"`).
        param: &'static str,
        /// The rejected value, rendered for the message.
        value: String,
        /// What the parameter must satisfy (e.g. `"must lie in (0, 1/2)"`).
        requirement: &'static str,
    },
    /// The input instance violates a precondition of the chosen solver.
    InvalidInput {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A [`crate::ResourceBudget`] limit was exceeded by a finished run.
    BudgetExceeded {
        /// Which resource overflowed (`"rounds"`, `"central space"`, ...).
        resource: &'static str,
        /// Amount actually consumed.
        used: usize,
        /// The configured limit.
        limit: usize,
    },
    /// No solver is registered under the requested name.
    UnknownSolver {
        /// The name that failed to resolve.
        name: String,
        /// The names that would have resolved, for the error message.
        available: Vec<String>,
    },
    /// The solver cannot handle this instance class (a documented capability
    /// limit, e.g. the exact DP refusing graphs beyond its vertex cap).
    Unsupported {
        /// Name of the refusing solver.
        solver: String,
        /// Why the instance is out of scope.
        reason: String,
    },
    /// No experiment with the requested id exists in the harness.
    UnknownExperiment {
        /// The id that failed to resolve.
        id: String,
        /// The ids that would have resolved, for the error message.
        available: Vec<String>,
    },
    /// The execution substrate failed: a spilled shard could not be read or
    /// written. Distinct from [`MwmError::BudgetExceeded`] — the algorithm
    /// was fine, the machinery running it was not.
    Execution {
        /// What failed, as reported by the pass engine.
        reason: String,
    },
}

impl fmt::Display for MwmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MwmError::InvalidConfig { param, value, requirement } => {
                write!(f, "invalid config: {param} = {value} {requirement}")
            }
            MwmError::InvalidInput { reason } => write!(f, "invalid input: {reason}"),
            MwmError::BudgetExceeded { resource, used, limit } => {
                write!(f, "budget exceeded: {resource} used {used} > limit {limit}")
            }
            MwmError::UnknownSolver { name, available } => {
                write!(f, "unknown solver {name:?}; available: {}", available.join(", "))
            }
            MwmError::Unsupported { solver, reason } => {
                write!(f, "solver {solver:?} cannot handle this instance: {reason}")
            }
            MwmError::UnknownExperiment { id, available } => {
                write!(f, "unknown experiment id {id:?}; available: {}", available.join(", "))
            }
            MwmError::Execution { reason } => write!(f, "execution failure: {reason}"),
        }
    }
}

impl std::error::Error for MwmError {}

impl From<mwm_mapreduce::PassError> for MwmError {
    /// A pass interrupted by the `PassEngine`'s in-pass budget becomes the
    /// engine API's budget error (`used` carries the engine's exact ledger
    /// count at the moment the pass stopped); a spill I/O failure becomes
    /// [`MwmError::Execution`] with the pass-level detail preserved in the
    /// message.
    fn from(err: mwm_mapreduce::PassError) -> Self {
        match err {
            mwm_mapreduce::PassError::BudgetExceeded { resource, used, limit } => {
                MwmError::BudgetExceeded { resource, used, limit }
            }
            io @ mwm_mapreduce::PassError::Io { .. } => {
                MwmError::Execution { reason: io.to_string() }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_the_offending_parameter() {
        let e = MwmError::InvalidConfig {
            param: "eps",
            value: "0.9".to_string(),
            requirement: "must lie in (0, 1/2)",
        };
        let s = e.to_string();
        assert!(s.contains("eps") && s.contains("0.9"));
    }

    #[test]
    fn display_lists_available_solvers() {
        let e = MwmError::UnknownSolver {
            name: "nope".to_string(),
            available: vec!["dual-primal".to_string(), "streaming-greedy".to_string()],
        };
        let s = e.to_string();
        assert!(s.contains("nope") && s.contains("dual-primal"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_error<E: std::error::Error>(_: &E) {}
        assert_error(&MwmError::InvalidInput { reason: "x".to_string() });
    }
}
