//! The top-level dual-primal solver (Algorithms 1, 2 and 4; Theorem 15).
//!
//! The solve loop mirrors Algorithm 2:
//!
//! 1. Build the initial dual point and per-level maximal b-matchings
//!    (`O(p)` sampling rounds, [`crate::initial`]).
//! 2. While `λ = min_edge coverage/ŵ_k < 1-3ε` and the round budget `O(p/ε)`
//!    is not exhausted, perform **one round of data access**: compute the
//!    exponential multipliers of every edge from the current dual point and
//!    build `⌈ε⁻¹ ln γ⌉` deferred sparsifiers from them (`γ = n^{1/(2p)}` is
//!    the promise ratio the multipliers can drift by before the next round).
//! 3. Run the offline matching substrate on the union of the stored edges
//!    (Algorithm 2 Step 5); if its value beats the current `β`, raise `β`
//!    (Step 6) and remember the matching.
//! 4. Use the sparsifiers **sequentially** (Figure 1, right): reveal the
//!    current multiplier values of each sparsifier's stored edges, invoke the
//!    [`MicroOracle`], and either mix the returned dual candidate into the
//!    dual point (a Theorem 5 step with the constant penalty width `ρ_o = 6`)
//!    or record a primal certificate and raise `β`.
//!
//! Every data access is charged to the MapReduce simulator; every oracle call
//! is charged to the adaptivity ledger, so the round/iteration separation the
//! paper is about is measured, not assumed.

use crate::api::{MatchingSolver, WarmStart, WarmStartState};
use crate::budget::ResourceBudget;
use crate::certificate::offline_b_matching;
use crate::error::MwmError;
use crate::initial::build_initial_solution;
use crate::oracle::{MicroOracle, OracleDecision, SupportEdge};
use crate::relaxation::DualState;
use crate::report::SolveReport;
use mwm_graph::{BMatching, Graph, WeightLevels};
use mwm_lp::{AdaptivityLedger, DualSnapshot, FixedLattice};
use mwm_mapreduce::{
    EdgeSource, GraphSource, MapReduceConfig, MapReduceSim, PassEngine, PassError, ResourceTracker,
};
use mwm_sparsify::DeferredSparsifier;

/// How a [`WarmStart::solve_warm`] call treats the warm state it receives
/// (the `resume` hook of [`DualPrimalConfig`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ResumePolicy {
    /// Ignore the warm state entirely: `solve_warm` behaves exactly like a
    /// cold [`MatchingSolver::solve`] (useful to A/B the warm path).
    Restart,
    /// Import the warm duals, scale them by `dual_decay`, and skip the cold
    /// `O(p)`-round initial sampling phase. `dual_decay < 1` discounts stale
    /// dual mass when the graph has drifted since the duals were exported;
    /// `1.0` resumes them verbatim.
    Resume {
        /// Multiplier in `(0, 1]` applied to every imported dual value.
        dual_decay: f64,
    },
}

impl Default for ResumePolicy {
    fn default() -> Self {
        ResumePolicy::Resume { dual_decay: 1.0 }
    }
}

/// Configuration of the solver.
///
/// Build one with [`DualPrimalConfig::builder`], which validates every
/// parameter at construction time, or use `Default` (always valid).
#[derive(Clone, Copy, Debug)]
pub struct DualPrimalConfig {
    /// Accuracy parameter ε ∈ (0, 1/2).
    pub eps: f64,
    /// Round/space trade-off exponent `p > 1` (space budget `O(n^{1+1/p})`).
    pub p: f64,
    /// RNG seed (sampling, sparsifiers).
    pub seed: u64,
    /// Override for the number of adaptive rounds (default `⌈2p/ε⌉`).
    pub max_rounds: Option<usize>,
    /// Override for deferred sparsifiers per round (default `⌈ε⁻¹ ln γ⌉`).
    pub sparsifiers_per_round: Option<usize>,
    /// Constant in the central-space budget.
    pub space_constant: f64,
    /// Worker threads the pass engine may use per streaming pass (≥ 1).
    /// Results are bit-identical for every value — per-shard partial results
    /// merge in shard order — so this is purely a wall-clock knob. A
    /// `ResourceBudget::with_parallelism` override takes precedence per solve.
    pub parallelism: usize,
    /// How [`WarmStart::solve_warm`] treats imported duals (the resume hook).
    /// Irrelevant to cold [`MatchingSolver::solve`] calls.
    pub resume: ResumePolicy,
}

impl Default for DualPrimalConfig {
    fn default() -> Self {
        DualPrimalConfig {
            eps: 0.2,
            p: 2.0,
            seed: 0xDA17,
            max_rounds: None,
            sparsifiers_per_round: None,
            space_constant: 4.0,
            parallelism: 1,
            resume: ResumePolicy::default(),
        }
    }
}

impl DualPrimalConfig {
    /// Starts a validated builder from the default configuration.
    pub fn builder() -> DualPrimalConfigBuilder {
        DualPrimalConfigBuilder { config: DualPrimalConfig::default() }
    }

    /// Validates every parameter, returning the first violation.
    pub fn validate(&self) -> Result<(), MwmError> {
        if !self.eps.is_finite() || self.eps <= 0.0 || self.eps >= 0.5 {
            return Err(MwmError::InvalidConfig {
                param: "eps",
                value: format!("{}", self.eps),
                requirement: "must lie in (0, 1/2)",
            });
        }
        if !self.p.is_finite() || self.p <= 1.0 {
            return Err(MwmError::InvalidConfig {
                param: "p",
                value: format!("{}", self.p),
                requirement: "must exceed 1",
            });
        }
        if !self.space_constant.is_finite() || self.space_constant <= 0.0 {
            return Err(MwmError::InvalidConfig {
                param: "space_constant",
                value: format!("{}", self.space_constant),
                requirement: "must be positive and finite",
            });
        }
        if self.max_rounds == Some(0) {
            return Err(MwmError::InvalidConfig {
                param: "max_rounds",
                value: "0".to_string(),
                requirement: "must be at least 1 when set",
            });
        }
        if self.sparsifiers_per_round == Some(0) {
            return Err(MwmError::InvalidConfig {
                param: "sparsifiers_per_round",
                value: "0".to_string(),
                requirement: "must be at least 1 when set",
            });
        }
        if self.parallelism == 0 {
            return Err(MwmError::InvalidConfig {
                param: "parallelism",
                value: "0".to_string(),
                requirement: "must be at least 1",
            });
        }
        if let ResumePolicy::Resume { dual_decay } = self.resume {
            if !dual_decay.is_finite() || dual_decay <= 0.0 || dual_decay > 1.0 {
                return Err(MwmError::InvalidConfig {
                    param: "resume.dual_decay",
                    value: format!("{dual_decay}"),
                    requirement: "must lie in (0, 1]",
                });
            }
        }
        Ok(())
    }
}

/// Builder for [`DualPrimalConfig`]; [`DualPrimalConfigBuilder::build`]
/// validates the assembled configuration so invalid parameters surface at
/// construction instead of mid-solve.
#[derive(Clone, Copy, Debug)]
pub struct DualPrimalConfigBuilder {
    config: DualPrimalConfig,
}

impl DualPrimalConfigBuilder {
    /// Sets the accuracy parameter ε ∈ (0, 1/2).
    pub fn eps(mut self, eps: f64) -> Self {
        self.config.eps = eps;
        self
    }

    /// Sets the round/space trade-off exponent `p > 1`.
    pub fn p(mut self, p: f64) -> Self {
        self.config.p = p;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Overrides the number of adaptive rounds (default `⌈2p/ε⌉`).
    pub fn max_rounds(mut self, rounds: usize) -> Self {
        self.config.max_rounds = Some(rounds);
        self
    }

    /// Overrides the number of deferred sparsifiers per round.
    pub fn sparsifiers_per_round(mut self, count: usize) -> Self {
        self.config.sparsifiers_per_round = Some(count);
        self
    }

    /// Sets the constant in the central-space budget.
    pub fn space_constant(mut self, constant: f64) -> Self {
        self.config.space_constant = constant;
        self
    }

    /// Sets the pass-engine worker-thread cap (≥ 1).
    pub fn parallelism(mut self, workers: usize) -> Self {
        self.config.parallelism = workers;
        self
    }

    /// Sets the warm-start resume policy (how `solve_warm` treats imported
    /// duals; `Resume { dual_decay }` requires `dual_decay ∈ (0, 1]`).
    pub fn resume(mut self, policy: ResumePolicy) -> Self {
        self.config.resume = policy;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<DualPrimalConfig, MwmError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The output of one solve.
#[derive(Clone, Debug)]
pub struct SolveResult {
    /// The best feasible b-matching found (integral; for `b ≡ 1` a matching).
    pub matching: BMatching,
    /// Its weight (original weight scale).
    pub weight: f64,
    /// Final dual objective bound β (rescaled weight scale).
    pub beta: f64,
    /// Final covering feasibility `λ = min_edge coverage/ŵ_k`.
    pub lambda: f64,
    /// Adaptive rounds of data access used (including the initial solution).
    pub rounds: usize,
    /// Oracle iterations performed (multiplier updates without data access).
    pub oracle_iterations: usize,
    /// Peak central space (items) held between rounds.
    pub peak_central_space: usize,
    /// Total edges stored across all deferred sparsifiers of the last round.
    pub sparsifier_edges_last_round: usize,
    /// Adaptivity ledger (rounds vs iterations vs sparsifiers vs β raises).
    pub ledger: AdaptivityLedger,
    /// The MapReduce resource ledger.
    pub tracker: ResourceTracker,
    /// Rounds used by the initial solution alone.
    pub initial_rounds: usize,
    /// Number of weight levels `L+1`.
    pub num_levels: usize,
    /// How many oracle calls ended in a primal certificate.
    pub primal_certificates: usize,
    /// How many oracle calls returned vertex-mass dual updates.
    pub vertex_updates: usize,
    /// How many oracle calls returned odd-set dual updates.
    pub odd_set_updates: usize,
    /// The ε the solver ran with.
    pub eps: f64,
    /// The p the solver ran with.
    pub p: f64,
    /// The final dual point, exported for warm-start chaining.
    pub final_duals: DualSnapshot,
    /// True if this run resumed from imported duals (skipping the cold
    /// initial sampling phase).
    pub warm_started: bool,
}

impl SolveResult {
    /// Converts the detailed result into the unified [`SolveReport`] of the
    /// engine API, preserving the algorithm-specific telemetry as named stats.
    pub fn into_report(self) -> SolveReport {
        let adaptivity_ratio = self.ledger.adaptivity_ratio();
        let main_rounds = self.ledger.rounds();
        let sparsifiers_built = self.ledger.sparsifiers_built();
        SolveReport::new("dual-primal", self.matching, self.tracker)
            .with_oracle_iterations(self.oracle_iterations)
            .with_final_duals(self.final_duals)
            .with_stat("warm_started", if self.warm_started { 1.0 } else { 0.0 })
            .with_stat("beta", self.beta)
            .with_stat("lambda", self.lambda)
            .with_stat("eps", self.eps)
            .with_stat("p", self.p)
            .with_stat("initial_rounds", self.initial_rounds as f64)
            .with_stat("main_rounds", main_rounds as f64)
            .with_stat("num_levels", self.num_levels as f64)
            .with_stat("primal_certificates", self.primal_certificates as f64)
            .with_stat("vertex_updates", self.vertex_updates as f64)
            .with_stat("odd_set_updates", self.odd_set_updates as f64)
            .with_stat("sparsifier_edges_last_round", self.sparsifier_edges_last_round as f64)
            .with_stat("sparsifiers_built", sparsifiers_built as f64)
            .with_stat("adaptivity_ratio", adaptivity_ratio)
    }
}

/// The dual-primal matching solver.
#[derive(Clone, Debug, Default)]
pub struct DualPrimalSolver {
    config: DualPrimalConfig,
}

impl DualPrimalSolver {
    /// Creates a solver with the given configuration, validating it first.
    pub fn new(config: DualPrimalConfig) -> Result<Self, MwmError> {
        config.validate()?;
        Ok(DualPrimalSolver { config })
    }

    /// The configuration.
    pub fn config(&self) -> &DualPrimalConfig {
        &self.config
    }

    /// Solves the weighted (non-bipartite) b-matching problem on `graph`,
    /// returning the full algorithm-specific [`SolveResult`].
    ///
    /// This is the detailed entry point; generic callers should go through
    /// [`MatchingSolver::solve`], which additionally enforces a
    /// [`ResourceBudget`] and returns the unified [`SolveReport`].
    pub fn solve_detailed(&self, graph: &Graph) -> SolveResult {
        self.run(graph, &ResourceBudget::unlimited(), None)
            .expect("an unlimited budget cannot interrupt a solve")
    }

    /// [`DualPrimalSolver::solve_detailed`] resumed from a warm state: the
    /// detailed counterpart of [`WarmStart::solve_warm`].
    pub fn solve_detailed_warm(&self, graph: &Graph, warm: &WarmStartState) -> SolveResult {
        self.run(graph, &ResourceBudget::unlimited(), Some(warm))
            .expect("an unlimited budget cannot interrupt a solve")
    }

    /// The fallible solve loop: every per-pass edge consumption of the main
    /// loop goes through a [`PassEngine`] over a sharded view of the graph,
    /// with `config.parallelism` workers and the budget's streamed-items
    /// limit enforced mid-pass. Returns [`MwmError::BudgetExceeded`] when a
    /// pass is interrupted — never a torn matching.
    ///
    /// With `warm` present (and the config's [`ResumePolicy`] not `Restart`),
    /// phase 1 — the `O(p)` sampling rounds of the cold initial solution — is
    /// replaced by importing the warm duals and seeding β from the feasible
    /// part of the warm primal hint: the round savings the dynamic matching
    /// subsystem's epoch ledger measures.
    fn run(
        &self,
        graph: &Graph,
        budget: &ResourceBudget,
        warm: Option<&WarmStartState>,
    ) -> Result<SolveResult, MwmError> {
        let cfg = &self.config;
        let eps = cfg.eps;
        let n = graph.num_vertices();
        let _span = mwm_obs::span!("solve", vertices = n, edges = graph.num_edges());
        let levels = WeightLevels::new(graph, eps);
        let sim_cfg = MapReduceConfig {
            p: cfg.p,
            space_constant: cfg.space_constant,
            reducers: 4,
            seed: cfg.seed,
        };
        let mut sim = MapReduceSim::new(graph, sim_cfg);
        let mut ledger = AdaptivityLedger::new();

        if levels.num_kept_edges() == 0 {
            return Ok(self.empty_result(graph, &levels, sim, ledger));
        }

        let warm = match cfg.resume {
            ResumePolicy::Restart => None,
            ResumePolicy::Resume { .. } => warm,
        };

        // Phase 1: initial solution — cold sampling (Lemmas 12/20/21), or a
        // warm resume from the previous epoch's exported duals.
        let warm_started = warm.is_some();
        let (mut dual, mut best, mut beta, initial_rounds) = match warm {
            Some(state) => {
                let mut snap = state.duals.clone();
                if let ResumePolicy::Resume { dual_decay } = cfg.resume {
                    if dual_decay != 1.0 {
                        snap.decay(dual_decay);
                    }
                }
                let dual = DualState::from_snapshot(n, &levels, &snap);
                let best = if hint_is_usable(graph, &state.hint) {
                    state.hint.clone()
                } else {
                    BMatching::new()
                };
                let beta = rescaled_weight(&best, &levels).max(1e-12);
                (dual, best, beta, 0usize)
            }
            None => {
                let init = build_initial_solution(graph, &levels, &mut sim, cfg.seed ^ 0x1357);
                let dual = init.dual.clone();
                let best: BMatching = init.combined.clone();
                let mut beta = init.beta0.max(1e-12);
                // The combined initial b-matching is itself a lower bound on β*.
                let init_weight_rescaled = rescaled_weight(&best, &levels);
                if init_weight_rescaled > beta {
                    beta = init_weight_rescaled;
                }
                (dual, best, beta, init.rounds_used)
            }
        };

        // The sharded stream the main loop reads through. Sharding depends
        // only on the edge count — never on the worker count — so per-shard
        // partial results merge in a fixed order and every parallelism level
        // produces bit-identical output.
        let source = GraphSource::auto(graph);
        let mut engine = PassEngine::new(cfg.parallelism)
            .with_budget(budget.pass_budget(sim.tracker().items_streamed()));

        // Parameters of the main loop.
        let gamma_param = (n.max(2) as f64).powf(1.0 / (2.0 * cfg.p)).max(1.25);
        let t_sparsifiers = cfg
            .sparsifiers_per_round
            .unwrap_or_else(|| ((1.0 / eps) * gamma_param.ln()).ceil().max(1.0) as usize)
            .max(1);
        let max_rounds =
            cfg.max_rounds.unwrap_or_else(|| (2.0 * cfg.p / eps).ceil() as usize).max(1);
        let rho_outer = 6.0; // constant width of the penalty relaxation (LP4/LP5).
        let a3 = eps / 2.0; // offline solver approximation slack in Step 5/6.
        let m_constraints = levels.num_kept_edges().max(2) as f64;
        let oracle = MicroOracle::new(graph, &levels);
        // The fixed-point weight lattice the slice kernels classify against:
        // same boundary table as `levels`, class weights precomputed once.
        let lattice = FixedLattice::from_levels(&levels);

        let mut lambda = sharded_lambda(&engine, &source, &lattice, &dual);
        let mut primal_certificates = 0usize;
        let mut vertex_updates = 0usize;
        let mut odd_set_updates = 0usize;
        let mut sparsifier_edges_last_round = 0usize;
        let mut pass_error: Option<PassError> = None;

        for round in 0..max_rounds {
            if lambda >= 1.0 - 3.0 * eps {
                break;
            }
            // ---- One round of data access: multipliers -> t deferred sparsifiers ----
            // The exponential multipliers are computed by one sharded pass:
            // each shard batches its (edge id, multiplier) pairs locally so
            // the hot loop stays cache-friendly, and the batches are merged
            // in shard order afterwards.
            ledger.record_round();
            let alpha = (m_constraints / eps).ln() / (lambda.max(1e-6) * eps);
            let promise =
                match sharded_multipliers(&mut engine, &source, &lattice, &dual, alpha, lambda) {
                    Ok(promise) => promise,
                    Err(err) => {
                        pass_error = Some(err);
                        break;
                    }
                };
            let mut sparsifiers: Vec<DeferredSparsifier> = Vec::with_capacity(t_sparsifiers);
            let mut stored_total = 0usize;
            for q in 0..t_sparsifiers {
                let seed =
                    cfg.seed.wrapping_add(round as u64 * 1_000_003).wrapping_add(q as u64 * 7919);
                let d = DeferredSparsifier::build(graph, &promise, gamma_param, eps / 4.0, seed);
                stored_total += d.num_stored();
                ledger.record_sparsifier();
                sparsifiers.push(d);
            }
            sim.tracker_mut().allocate_central(stored_total);
            sparsifier_edges_last_round = stored_total;

            // ---- Algorithm 2 Step 5: offline matching on the union of stored edges ----
            let union_candidate = offline_on_union(graph, &sparsifiers);
            let cand_rescaled = rescaled_weight(&union_candidate, &levels);
            if union_candidate.weight() > best.weight() {
                best = union_candidate;
            }
            // Step 6: raise beta when the offline value certifies it.
            if cand_rescaled > beta * (1.0 - a3) / (1.0 + eps) {
                beta = cand_rescaled * (1.0 + eps) / (1.0 - a3);
                ledger.record_beta_raise();
            }

            // ---- Sequential use of the sparsifiers (Figure 1, right) ----
            for d in &sparsifiers {
                if lambda >= 1.0 - 3.0 * eps {
                    break;
                }
                ledger.record_oracle_iteration();
                let alpha = (m_constraints / eps).ln() / (lambda.max(1e-6) * eps);
                let support = reveal_support(graph, &levels, &dual, d, alpha, lambda);
                match oracle.decide(&support, beta) {
                    OracleDecision::DualUpdate { update, vertex_mass, gamma } => {
                        if gamma <= 0.0 {
                            continue;
                        }
                        if vertex_mass {
                            vertex_updates += 1;
                        } else {
                            odd_set_updates += 1;
                        }
                        let sigma = (eps / (2.0 * alpha * rho_outer)).min(1.0);
                        dual.scale(1.0 - sigma);
                        dual.add_scaled(&update, sigma);
                        // Uncharged refinement scan: the multipliers live in
                        // central memory, no fresh data access happens.
                        lambda = sharded_lambda(&engine, &source, &lattice, &dual);
                    }
                    OracleDecision::PrimalCertificate { .. } => {
                        primal_certificates += 1;
                        // Lemma 14 → Lemma 13: the support holds a matching of value
                        // ≥ (1-2ε)β, so the current β is not yet tight; raise it and
                        // keep going (Algorithm 4, Step 8(b)).
                        beta *= 1.0 + eps;
                        ledger.record_beta_raise();
                    }
                }
            }

            // The model allows discarding the per-round sample before the next round.
            sim.tracker_mut().release_central(stored_total);
        }

        // One ledger for the whole run: the sampling phase's charges (sim)
        // plus the pass engine's (rounds, streamed items).
        let mut tracker = sim.tracker().clone();
        tracker.merge(&engine.into_tracker());

        if let Some(PassError::BudgetExceeded { resource, .. }) = pass_error {
            mwm_obs::counter!("solver_budget_aborts_total").inc();
            // The partial ledger is accurate — `used` counts exactly the
            // items streamed before the interrupt — and no matching is
            // returned, so a caller can never observe a torn result.
            return Err(MwmError::BudgetExceeded {
                resource,
                used: tracker.items_streamed(),
                limit: budget.max_streamed_items().unwrap_or(usize::MAX),
            });
        }

        // Write-only taps: nothing read back, so outputs are bit-identical
        // with the registry enabled or disabled.
        if warm_started {
            mwm_obs::counter!("solver_solves_total{warm=true}").inc();
        } else {
            mwm_obs::counter!("solver_solves_total{warm=false}").inc();
        }
        mwm_obs::counter!("solver_rounds_total").add(tracker.rounds() as u64);
        mwm_obs::counter!("solver_oracle_iterations_total").add(ledger.oracle_iterations() as u64);

        let weight = best.weight();
        let final_duals = dual.snapshot(&levels);
        Ok(SolveResult {
            matching: best,
            weight,
            beta,
            lambda,
            rounds: tracker.rounds(),
            oracle_iterations: ledger.oracle_iterations(),
            peak_central_space: tracker.peak_central_space(),
            sparsifier_edges_last_round,
            tracker,
            initial_rounds,
            num_levels: levels.num_levels(),
            primal_certificates,
            vertex_updates,
            odd_set_updates,
            eps,
            p: cfg.p,
            final_duals,
            warm_started,
            ledger,
        })
    }

    fn empty_result(
        &self,
        _graph: &Graph,
        levels: &WeightLevels,
        sim: MapReduceSim<'_>,
        ledger: AdaptivityLedger,
    ) -> SolveResult {
        SolveResult {
            matching: BMatching::new(),
            weight: 0.0,
            beta: 0.0,
            lambda: 1.0,
            rounds: sim.tracker().rounds(),
            oracle_iterations: 0,
            peak_central_space: sim.tracker().peak_central_space(),
            sparsifier_edges_last_round: 0,
            tracker: sim.tracker().clone(),
            initial_rounds: 0,
            num_levels: levels.num_levels(),
            primal_certificates: 0,
            vertex_updates: 0,
            odd_set_updates: 0,
            eps: self.config.eps,
            p: self.config.p,
            final_duals: DualSnapshot::empty(self.config.eps, levels.num_levels()),
            warm_started: false,
            ledger,
        }
    }
}

impl MatchingSolver for DualPrimalSolver {
    fn name(&self) -> &str {
        "dual-primal"
    }

    /// Runs the dual-primal algorithm within `budget`.
    ///
    /// A round budget caps the adaptive main loop up front (the initial
    /// solution's `O(p)` sampling rounds are charged against the same limit
    /// and checked after the run); a streamed-items budget is enforced
    /// mid-pass by the pass engine; space and oracle-iteration budgets are
    /// verified against the run's ledger. A `with_parallelism` override
    /// replaces the configured worker count for this solve.
    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
        self.solve_with(graph, budget, None)
    }
}

impl DualPrimalSolver {
    /// The shared budget-aware entry point behind both [`MatchingSolver::solve`]
    /// and [`WarmStart::solve_warm`].
    fn solve_with(
        &self,
        graph: &Graph,
        budget: &ResourceBudget,
        warm: Option<&WarmStartState>,
    ) -> Result<SolveReport, MwmError> {
        let mut config = self.config;
        if let Some(limit) = budget.max_rounds() {
            let default_rounds =
                config.max_rounds.unwrap_or_else(|| (2.0 * config.p / config.eps).ceil() as usize);
            config.max_rounds = Some(default_rounds.min(limit).max(1));
        }
        if let Some(workers) = budget.parallelism() {
            config.parallelism = workers.max(1);
        }
        let result = DualPrimalSolver { config }.run(graph, budget, warm)?;
        budget.check_tracker(&result.tracker)?;
        budget.check_oracle_iterations(result.oracle_iterations)?;
        Ok(result.into_report())
    }
}

impl WarmStart for DualPrimalSolver {
    /// Resumes from the previous epoch's duals per the config's
    /// [`ResumePolicy`], skipping the cold initial sampling rounds. Budget
    /// semantics are identical to [`MatchingSolver::solve`].
    fn solve_warm(
        &self,
        graph: &Graph,
        budget: &ResourceBudget,
        warm: &WarmStartState,
    ) -> Result<SolveReport, MwmError> {
        self.solve_with(graph, budget, Some(warm))
    }
}

/// True if a warm primal hint can seed β on `graph`: every edge id exists and
/// matches the graph's endpoints/weight, and the capacity constraints hold.
/// A stale hint (edges deleted or reweighted since it was built) is simply
/// ignored — correctness never depends on the hint.
fn hint_is_usable(graph: &Graph, hint: &BMatching) -> bool {
    if hint.is_empty() {
        return false;
    }
    let n = graph.num_vertices();
    for (id, e, _) in hint.iter() {
        if id >= graph.num_edges() {
            return false;
        }
        let ge = graph.edge(id);
        if (e.u, e.v) != (ge.u, ge.v) || e.w.to_bits() != ge.w.to_bits() {
            return false;
        }
        if (e.u as usize) >= n || (e.v as usize) >= n {
            return false;
        }
    }
    hint.is_valid(graph)
}

/// `λ = min` over levelled edges of `coverage / ŵ_k`, computed as an
/// uncharged sharded **batch** scan: the fold consumes whole shard slices in
/// struct-of-arrays form, classifying weights through the precomputed
/// [`FixedLattice`] (the same boundary table the level construction used, so
/// class assignment is bit-identical to the per-edge path). Per-shard minima
/// merge in shard order; `min` is exact over floats, so the result is
/// identical for any worker count.
fn sharded_lambda(
    engine: &PassEngine,
    source: &GraphSource<'_>,
    lattice: &FixedLattice,
    dual: &DualState,
) -> f64 {
    let mins = engine.scan_batches(
        source,
        |_| f64::INFINITY,
        |acc: &mut f64, b| {
            for i in 0..b.len() {
                if let Some(level) = lattice.class_of_key(b.w[i]) {
                    let cov = dual.edge_coverage(b.u[i], b.v[i], level);
                    let ratio = cov / lattice.class_weight(level);
                    if ratio < *acc {
                        *acc = ratio;
                    }
                }
            }
        },
    );
    let lambda = mins.into_iter().fold(f64::INFINITY, f64::min);
    if lambda.is_finite() {
        lambda
    } else {
        1.0
    }
}

/// The exponential multipliers `u_{ijk} = exp(-α(cov/ŵ_k - λ))/ŵ_k` for every
/// edge of the graph (0 for edges dropped by the weight discretization),
/// computed as **one charged batch pass**: each shard's slice fold pushes its
/// `(id, value)` pairs locally with class weights read from the
/// [`FixedLattice`] (no per-edge `ln`/`powi`), and the per-shard vectors are
/// scattered out in shard order. Every multiplier depends only on its own
/// edge and the per-edge arithmetic is unchanged, so the vector is
/// bit-identical to the per-edge path at any worker count.
fn sharded_multipliers(
    engine: &mut PassEngine,
    source: &GraphSource<'_>,
    lattice: &FixedLattice,
    dual: &DualState,
    alpha: f64,
    lambda: f64,
) -> Result<Vec<f64>, PassError> {
    let batches = engine.pass_batches(
        source,
        |shard| Vec::with_capacity(source.shard_len(shard)),
        |acc: &mut Vec<(usize, f64)>, b| {
            for i in 0..b.len() {
                if let Some(level) = lattice.class_of_key(b.w[i]) {
                    let w_k = lattice.class_weight(level);
                    let cov = dual.edge_coverage(b.u[i], b.v[i], level);
                    let exponent = (-(alpha * (cov / w_k - lambda))).clamp(-700.0, 700.0);
                    acc.push((b.ids[i], exponent.exp() / w_k));
                }
            }
        },
    )?;
    let mut out = vec![0.0f64; source.num_edges()];
    for batch in batches {
        for (id, us) in batch {
            out[id] = us;
        }
    }
    Ok(out)
}

/// Reveals the *current* multiplier values of a sparsifier's stored edges
/// (Definition 4: the exact values of stored entries are revealed after `D` is
/// fixed), producing the oracle's support.
fn reveal_support(
    graph: &Graph,
    levels: &WeightLevels,
    dual: &DualState,
    sparsifier: &DeferredSparsifier,
    alpha: f64,
    lambda: f64,
) -> Vec<SupportEdge> {
    let _ = graph;
    sparsifier
        .stored_edges()
        .iter()
        .filter_map(|pe| {
            let level = levels.level_of_weight(pe.edge.w)?;
            let w_k = levels.level_weight(level);
            let cov = dual.edge_coverage(pe.edge.u, pe.edge.v, level);
            let exponent = (-(alpha * (cov / w_k - lambda))).clamp(-700.0, 700.0);
            let us = exponent.exp() / w_k;
            Some(SupportEdge { id: pe.id, u: pe.edge.u, v: pe.edge.v, level, us })
        })
        .collect()
}

/// Runs the offline b-matching substrate on the union of the edges stored by a
/// batch of deferred sparsifiers, returning a b-matching expressed in the
/// *original* graph's edge ids.
fn offline_on_union(graph: &Graph, sparsifiers: &[DeferredSparsifier]) -> BMatching {
    let mut union_ids: Vec<usize> =
        sparsifiers.iter().flat_map(|d| d.stored_edges().iter().map(|pe| pe.id)).collect();
    union_ids.sort_unstable();
    union_ids.dedup();
    if union_ids.is_empty() {
        return BMatching::new();
    }
    // Build the union subgraph, remembering the original edge ids.
    let mut sub = Graph::with_capacities(graph.capacities().to_vec());
    let mut back: Vec<usize> = Vec::with_capacity(union_ids.len());
    for &id in &union_ids {
        let e = graph.edge(id);
        sub.add_edge(e.u, e.v, e.w);
        back.push(id);
    }
    let local = offline_b_matching(&sub);
    // Remap to original edge ids.
    let mut out = BMatching::new();
    for (local_id, _e, mult) in local.iter() {
        let orig = back[local_id];
        out.add(orig, graph.edge(orig), mult);
    }
    out
}

/// Weight of a b-matching measured in the rescaled/discretized scale used by β.
fn rescaled_weight(bm: &BMatching, levels: &WeightLevels) -> f64 {
    bm.iter()
        .map(|(_, e, mult)| match levels.level_of_weight(e.w) {
            Some(k) => levels.level_weight(k) * mult as f64,
            None => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_matching::exact_max_weight_matching;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn solver(eps: f64, p: f64, seed: u64) -> DualPrimalSolver {
        DualPrimalSolver::new(DualPrimalConfig { eps, p, seed, ..Default::default() })
            .expect("test config is valid")
    }

    #[test]
    fn result_is_always_a_feasible_b_matching() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 9.0), &mut rng);
            let res = solver(0.25, 2.0, seed).solve_detailed(&g);
            assert!(res.matching.is_valid(&g), "seed {seed}");
            assert!(res.weight > 0.0);
        }
    }

    #[test]
    fn near_optimal_on_small_graphs() {
        let mut ratios = Vec::new();
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let g = generators::gnm(14, 40, WeightModel::Uniform(1.0, 10.0), &mut rng);
            let opt = exact_max_weight_matching(&g).weight();
            if opt <= 0.0 {
                continue;
            }
            let res = solver(0.2, 2.0, seed).solve_detailed(&g);
            let ratio = res.weight / opt;
            assert!(ratio >= 0.75, "seed {seed}: ratio {ratio}");
            ratios.push(ratio);
        }
        let avg: f64 = ratios.iter().sum::<f64>() / ratios.len() as f64;
        assert!(avg >= 0.9, "average ratio {avg}");
    }

    #[test]
    fn rounds_are_within_the_p_over_eps_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = generators::gnm(80, 600, WeightModel::Uniform(1.0, 5.0), &mut rng);
        let eps = 0.25;
        let p = 2.0;
        let res = solver(eps, p, 3).solve_detailed(&g);
        // initial rounds + main rounds; main rounds ≤ ceil(2p/eps), initial ≤ O(p).
        let budget = (2.0 * p / eps).ceil() as usize + 12;
        assert!(res.rounds <= budget, "rounds {} > budget {budget}", res.rounds);
        assert!(res.oracle_iterations >= res.ledger.rounds().saturating_sub(res.initial_rounds));
    }

    #[test]
    fn adaptivity_ratio_exceeds_one_when_dual_work_happens() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(60, 0.2, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let res = solver(0.2, 3.0, 5).solve_detailed(&g);
        // Several oracle iterations happen per adaptive round whenever the main
        // loop executes at all.
        if res.ledger.rounds() > res.initial_rounds {
            assert!(res.oracle_iterations > 0);
        }
    }

    #[test]
    fn triangle_gadget_is_solved_optimally() {
        // The paper's p.5 gadget: optimum is the single heavy edge.
        let g = generators::triangle_gadget(0.1, 1.0);
        let res = solver(0.1, 2.0, 1).solve_detailed(&g);
        assert!(res.matching.is_valid(&g));
        assert!((res.weight - 1.0).abs() < 1e-9, "weight {}", res.weight);
    }

    #[test]
    fn b_matching_capacities_are_respected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = generators::gnm(30, 150, WeightModel::Uniform(1.0, 6.0), &mut rng);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let res = solver(0.25, 2.0, 2).solve_detailed(&g);
        assert!(res.matching.is_valid(&g));
        assert!(res.weight > 0.0);
    }

    #[test]
    fn empty_graph_returns_empty_result() {
        let g = Graph::new(12);
        let res = solver(0.2, 2.0, 1).solve_detailed(&g);
        assert_eq!(res.weight, 0.0);
        assert!(res.matching.is_empty());
        assert_eq!(res.lambda, 1.0);
    }

    type ResultFingerprint = (Vec<(usize, u64)>, u64, usize, usize);

    #[test]
    fn parallelism_levels_produce_bit_identical_results() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnm(60, 400, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let mut reference: Option<ResultFingerprint> = None;
        for workers in [1usize, 2, 8] {
            let config = DualPrimalConfig { parallelism: workers, ..Default::default() };
            let res = DualPrimalSolver::new(config).unwrap().solve_detailed(&g);
            let mut edges: Vec<(usize, u64)> =
                res.matching.iter().map(|(id, _, mult)| (id, mult)).collect();
            edges.sort_unstable();
            let fingerprint = (edges, res.weight.to_bits(), res.rounds, res.oracle_iterations);
            match &reference {
                None => reference = Some(fingerprint),
                Some(r) => assert_eq!(r, &fingerprint, "parallelism {workers} diverged"),
            }
        }
    }

    #[test]
    fn warm_start_skips_initial_rounds_and_stays_feasible() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = generators::gnm(50, 300, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let solver = solver(0.25, 2.0, 4);
        let cold = solver.solve_detailed(&g);
        assert!(!cold.warm_started);
        assert!(cold.initial_rounds > 0);
        assert!(!cold.final_duals.is_empty(), "a nonzero solve must export dual mass");

        let warm_state =
            WarmStartState { duals: cold.final_duals.clone(), hint: cold.matching.clone() };
        let warm = solver.solve_detailed_warm(&g, &warm_state);
        assert!(warm.warm_started);
        assert_eq!(warm.initial_rounds, 0, "warm start must skip the sampling phase");
        assert!(warm.rounds < cold.rounds, "warm {} !< cold {}", warm.rounds, cold.rounds);
        assert!(warm.matching.is_valid(&g));
        // Resuming from a converged dual point + the previous matching can
        // never lose weight: the hint seeds β and `best`.
        assert!(warm.weight >= cold.weight - 1e-9);
    }

    #[test]
    fn warm_start_is_bit_identical_across_parallelism() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::gnm(60, 400, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let cold = solver(0.2, 2.0, 9).solve_detailed(&g);
        let warm_state = WarmStartState { duals: cold.final_duals, hint: cold.matching };
        let mut reference: Option<(u64, usize)> = None;
        for workers in [1usize, 4] {
            let config = DualPrimalConfig { parallelism: workers, ..Default::default() };
            let res = DualPrimalSolver::new(config).unwrap().solve_detailed_warm(&g, &warm_state);
            let fp = (res.weight.to_bits(), res.rounds);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "parallelism {workers} diverged on warm start"),
            }
        }
    }

    #[test]
    fn restart_policy_ignores_the_warm_state() {
        let mut rng = StdRng::seed_from_u64(35);
        let g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 6.0), &mut rng);
        let cold = solver(0.25, 2.0, 7).solve_detailed(&g);
        let warm_state = WarmStartState { duals: cold.final_duals, hint: cold.matching };
        let config = DualPrimalConfig { resume: ResumePolicy::Restart, ..Default::default() };
        let restarted = DualPrimalSolver::new(config).unwrap().solve_detailed_warm(&g, &warm_state);
        assert!(!restarted.warm_started);
        assert!(restarted.initial_rounds > 0, "Restart must pay the cold sampling rounds");
    }

    #[test]
    fn stale_hints_are_rejected_not_trusted() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 2.0);
        g.add_edge(2, 3, 3.0);
        let mut hint = BMatching::new();
        // Wrong weight for edge 0: the graph changed since the hint was built.
        hint.add(0, mwm_graph::Edge::new(0, 1, 9.0), 1);
        assert!(!hint_is_usable(&g, &hint));
        let mut stale_id = BMatching::new();
        stale_id.add(7, mwm_graph::Edge::new(0, 1, 2.0), 1);
        assert!(!hint_is_usable(&g, &stale_id));
        let mut good = BMatching::new();
        good.add(0, g.edge(0), 1);
        assert!(hint_is_usable(&g, &good));
        assert!(!hint_is_usable(&g, &BMatching::new()), "empty hints carry no information");
    }

    #[test]
    fn invalid_dual_decay_is_rejected_at_construction() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let config = DualPrimalConfig {
                resume: ResumePolicy::Resume { dual_decay: bad },
                ..Default::default()
            };
            assert!(DualPrimalSolver::new(config).is_err(), "dual_decay {bad} must be rejected");
        }
        let ok =
            DualPrimalConfig::builder().resume(ResumePolicy::Resume { dual_decay: 0.8 }).build();
        assert!(ok.is_ok());
    }

    #[test]
    fn space_stays_within_budget_for_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        // Dense graph: m ~ 3000 edges over 120 vertices, n^{1.5} ≈ 1315.
        let g = generators::gnp(120, 0.45, WeightModel::Uniform(1.0, 3.0), &mut rng);
        let res = solver(0.3, 2.0, 4).solve_detailed(&g);
        // peak central space stays well below m (the whole point of the model);
        // allow the polylog/constant slack of Theorem 15.
        let n = g.num_vertices() as f64;
        let budget = 40.0 * n.powf(1.5) * (g.total_capacity() as f64).ln().max(1.0);
        assert!(
            (res.peak_central_space as f64) <= budget,
            "peak space {} exceeds budget {budget}",
            res.peak_central_space
        );
    }
}
