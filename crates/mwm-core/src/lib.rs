//! The paper's contribution: a `(1-ε)`-approximation for weighted
//! non-bipartite b-matching under resource constraints (Ahn & Guha, SPAA 2015).
//!
//! The solver combines every substrate in the workspace:
//!
//! 1. Edge weights are discretized into levels `ŵ_k = (1+ε)^k`
//!    ([`mwm_graph::WeightLevels`], Definitions 2–3).
//! 2. An initial dual solution is built from per-level maximal b-matchings
//!    found by iterated sampling ([`initial`], Lemmas 12/20/21) in `O(p)`
//!    sampling rounds, each sized by the central-space budget.
//! 3. The dual of the **penalty relaxation** LP5/LP10 ([`relaxation`]) is
//!    attacked with the multiplicative-weights covering machinery of
//!    Theorem 5; the crucial property is its *constant width*, versus the
//!    `Ω(n)` width of the classical dual LP2 (experiment E7).
//! 4. Each round of data access builds a batch of **deferred cut sparsifiers**
//!    from one sampling table over the current multipliers
//!    ([`mwm_sparsify::DeferredSparsifier`], Definition 4/Lemma 17); the multipliers are then refined and re-used
//!    `O(ε⁻¹ log γ)` times *without touching the input again* (Figure 1).
//! 5. The **MicroOracle** ([`oracle`], Algorithm 5 + Lemma 16) either makes
//!    progress on the dual (returning vertex- or odd-set-mass updates) or
//!    certifies that the sampled subgraph carries a large matching, which is
//!    then extracted by the offline substrate ([`mwm_matching`]).
//! 6. Every resource of a solve — the initial phase's sampling rounds, the
//!    main loop's passes and its central space — is charged to one ledger,
//!    the pass engine's [`mwm_mapreduce::ResourceTracker`]; the report counts
//!    the main loop's rounds and oracle iterations beside it, so the
//!    experiments can verify the `O(p/ε)`-rounds / `O(n^{1+1/p} log B)`-space
//!    claim of Theorem 15.

//! ## The engine API
//!
//! Alongside the algorithm itself, this crate defines the workspace's engine
//! API: the [`MatchingSolver`] trait every solver implements, the typed
//! [`MwmError`] hierarchy, caller-imposed [`ResourceBudget`]s, and the
//! unified [`SolveReport`]. The baselines (`mwm-baselines`) and the offline
//! substrates ([`offline`]) implement the same trait, and the umbrella
//! crate's `SolverRegistry` selects between them by name.

pub mod api;
pub mod budget;
pub mod certificate;
pub mod error;
pub mod initial;
pub mod offline;
pub mod oracle;
pub mod relaxation;
pub mod report;
pub mod solver;

pub use api::MatchingSolver;
pub use budget::ResourceBudget;
pub use certificate::{certify_b_matching, SolutionCertificate};
pub use error::{MwmError, MwmResult};
pub use initial::{build_initial_solution, InitialSolution};
pub use offline::{OfflineSolver, OfflineStrategy};
pub use oracle::{MicroOracle, OracleDecision};
pub use relaxation::{relaxation_widths, DualState, DualUpdate, RelaxationWidths};
pub use report::SolveReport;
pub use solver::{DualPrimalConfig, DualPrimalConfigBuilder, DualPrimalSolver};
