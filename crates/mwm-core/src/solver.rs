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
//!    The sparsifiers share one promise vector, so one
//!    [`DeferredSparsifier::build_round`] call builds them: one sampling
//!    table (weight classes and forest decomposition) per round, then one
//!    independent draw per sparsifier.
//! 3. Run the offline matching substrate on the union of the stored edges
//!    (Algorithm 2 Step 5); if its value beats the current `β`, raise `β`
//!    (Step 6) and remember the matching.
//! 4. Use the sparsifiers **sequentially** (Figure 1, right): reveal the
//!    current multiplier values of each sparsifier's stored edges, invoke the
//!    [`MicroOracle`], and either mix the returned candidate (a
//!    [`DualUpdate`](crate::relaxation::DualUpdate): vertex and odd-set
//!    entries) into the dual point with one [`DualState::step`] (a Theorem 5
//!    step with the constant penalty width `ρ_o = 6`) or record a primal
//!    certificate and raise `β`.
//!
//! A solve keeps one ledger, the [`PassEngine`]'s [`ResourceTracker`]: the
//! initial phase's sampling rounds, the main loop's passes and the central
//! space the loop holds are all charged to it. Beside it the report counts
//! the main loop's rounds of data access and the oracle iterations between
//! them, so the round/iteration separation the paper is about is measured,
//! not assumed.

use crate::api::MatchingSolver;
use crate::budget::ResourceBudget;
use crate::certificate::offline_b_matching;
use crate::error::MwmError;
use crate::initial::{build_initial_solution, InitialSolution};
use crate::oracle::{MicroOracle, OracleDecision, SupportEdge};
use crate::relaxation::DualState;
use crate::report::SolveReport;
use mwm_graph::{BMatching, Graph, WeightClasses, WeightLevels};
use mwm_lp::StepRule;
use mwm_mapreduce::{EdgeSource, GraphSource, PassEngine, PassError, ResourceTracker};
use mwm_sparsify::DeferredSparsifier;

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
}

impl Default for DualPrimalConfig {
    fn default() -> Self {
        DualPrimalConfig { eps: 0.2, p: 2.0, seed: 0xDA17, max_rounds: None }
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
        if self.max_rounds == Some(0) {
            return Err(MwmError::InvalidConfig {
                param: "max_rounds",
                value: "0".to_string(),
                requirement: "must be at least 1 when set",
            });
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

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<DualPrimalConfig, MwmError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// The dual-primal matching solver.
#[derive(Clone, Debug, Default)]
pub struct DualPrimalSolver {
    config: DualPrimalConfig,
}

/// The scalars one run reports as named stats (ε and p come from the config).
#[derive(Default)]
struct RunStats {
    beta: f64,
    lambda: f64,
    initial_rounds: usize,
    main_rounds: usize,
    num_levels: usize,
    oracle_iterations: usize,
    primal_certificates: usize,
    vertex_updates: usize,
    odd_set_updates: usize,
    sparsifier_edges_last_round: usize,
    sparsifiers_built: usize,
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

    /// Solves on `graph` within `budget`, starting from `seed`: a b-matching
    /// believed feasible on `graph` (a dynamic session passes the previous
    /// epoch's surviving edges). An empty seed is [`MatchingSolver::solve`].
    ///
    /// Every solve runs the initial phase of Lemmas 12/20/21, the `O(p)`
    /// sampling rounds that give the dual point λ grows from. A seed whose
    /// every edge matches `graph` and whose loads fit the capacities replaces
    /// that phase's matching as the starting best, and β starts from the
    /// heavier of it and the phase's bound; any other seed is ignored, so a
    /// stale seed costs nothing but its check. The returned matching is
    /// never lighter than a usable seed.
    ///
    /// Every per-pass edge consumption of the main loop goes through a
    /// [`PassEngine`] over a sharded view of the graph, with the budget's
    /// streamed-items limit enforced mid-pass: an interrupted pass returns
    /// [`MwmError::BudgetExceeded`] — never a torn matching. The round and
    /// oracle-iteration limits are checked before each main round and each
    /// oracle call, and the ledger is checked against the whole budget when
    /// the run ends. Results are bit-identical across parallelism levels.
    pub fn solve_seeded(
        &self,
        graph: &Graph,
        budget: &ResourceBudget,
        seed: &BMatching,
    ) -> Result<SolveReport, MwmError> {
        let cfg = &self.config;
        let eps = cfg.eps;
        let n = graph.num_vertices();
        let _span = mwm_obs::span!("solve", vertices = n, edges = graph.num_edges());
        let levels = WeightLevels::new(graph, eps);
        // The solve's one ledger. The stream gate counts every item this
        // tracker has charged, the initial phase's sampling rounds included.
        let mut engine =
            PassEngine::new(budget.parallelism().unwrap_or(1)).with_budget(budget.pass_budget(0));

        if levels.num_kept_edges() == 0 {
            let stats =
                RunStats { lambda: 1.0, num_levels: levels.num_levels(), ..RunStats::default() };
            return self.finish(budget, BMatching::new(), engine.into_tracker(), stats);
        }

        // Phase 1: initial solution (Lemmas 12/20/21).
        let InitialSolution { mut dual, beta0, combined, rounds_used: initial_rounds, .. } =
            build_initial_solution(graph, &levels, cfg.p, engine.tracker_mut(), cfg.seed ^ 0x1357);
        let mut best = if seed_is_usable(graph, seed) { seed.clone() } else { combined };
        // The starting b-matching is itself a lower bound on β*.
        let mut beta = beta0.max(1e-12).max(rescaled_weight(&best, &levels));

        // The sharded stream the main loop reads through. Sharding depends
        // only on the edge count — never on the worker count — so per-shard
        // partial results merge in a fixed order and every parallelism level
        // produces bit-identical output.
        let source = GraphSource::auto(graph);

        // Parameters of the main loop.
        let gamma_param = (n.max(2) as f64).powf(1.0 / (2.0 * cfg.p)).max(1.25);
        let t_sparsifiers = ((1.0 / eps) * gamma_param.ln()).ceil().max(1.0) as usize;
        let default_rounds = cfg.max_rounds.unwrap_or_else(|| (2.0 * cfg.p / eps).ceil() as usize);
        let max_rounds =
            budget.max_rounds().map_or(default_rounds, |limit| default_rounds.min(limit)).max(1);
        // Theorem 5 steps over the levelled edges, at the constant width
        // ρ = 6 of the penalty relaxation (LP4/LP5).
        let rule = StepRule::new(eps, 6.0, levels.num_kept_edges());
        let a3 = eps / 2.0; // offline solver approximation slack in Step 5/6.
        let mut oracle = MicroOracle::new(graph, &levels);
        let classes = levels.classes();
        // One support buffer for every oracle call of the solve.
        let mut support = Vec::new();

        let mut lambda = sharded_lambda(&engine, &source, classes, &dual);
        let mut main_rounds = 0usize;
        let mut oracle_iterations = 0usize;
        let mut primal_certificates = 0usize;
        let mut vertex_updates = 0usize;
        let mut odd_set_updates = 0usize;
        let mut sparsifier_edges_last_round = 0usize;

        for round in 0..max_rounds {
            if rule.done(lambda) {
                break;
            }
            // ---- One round of data access: multipliers -> t deferred sparsifiers ----
            // The exponential multipliers are computed by one sharded pass:
            // each shard batches its (edge id, multiplier) pairs locally so
            // the hot loop stays cache-friendly, and the batches are merged
            // in shard order afterwards. An interrupted pass ends the solve:
            // the ledger counts exactly the items streamed before the
            // interrupt, and no matching is returned. A round the budget
            // cannot pay for ends the solve before its work starts.
            budget.check_rounds(engine.tracker().rounds() + 1)?;
            main_rounds += 1;
            let alpha = rule.alpha(lambda);
            let promise = sharded_multipliers(&mut engine, &source, classes, &dual, alpha, lambda)
                .inspect_err(|_| mwm_obs::counter!("solver_budget_aborts_total").inc())?;
            // One sampling table per round, one draw per sparsifier.
            let seeds: Vec<u64> = (0..t_sparsifiers)
                .map(|q| {
                    cfg.seed.wrapping_add(round as u64 * 1_000_003).wrapping_add(q as u64 * 7919)
                })
                .collect();
            let sparsifiers =
                DeferredSparsifier::build_round(graph, &promise, gamma_param, eps / 4.0, &seeds);
            let stored_total: usize = sparsifiers.iter().map(DeferredSparsifier::num_stored).sum();
            engine.tracker_mut().allocate_central(stored_total);
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
            }

            // ---- Sequential use of the sparsifiers (Figure 1, right) ----
            for d in &sparsifiers {
                if rule.done(lambda) {
                    break;
                }
                budget.check_oracle_iterations(oracle_iterations + 1)?;
                oracle_iterations += 1;
                let alpha = rule.alpha(lambda);
                reveal_support(graph, classes, &dual, d, alpha, lambda, &mut support);
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
                        dual.step(&update, rule.sigma(alpha));
                        // Uncharged refinement scan: the multipliers live in
                        // central memory, no fresh data access happens.
                        lambda = sharded_lambda(&engine, &source, classes, &dual);
                    }
                    OracleDecision::PrimalCertificate { .. } => {
                        primal_certificates += 1;
                        // Lemma 14 → Lemma 13: the support holds a matching of value
                        // ≥ (1-2ε)β, so the current β is not yet tight; raise it and
                        // keep going (Algorithm 4, Step 8(b)).
                        beta *= 1.0 + eps;
                    }
                }
            }

            // The model allows discarding the per-round sample before the next round.
            engine.tracker_mut().release_central(stored_total);
        }

        let tracker = engine.into_tracker();
        // Write-only taps: nothing read back, so outputs are bit-identical
        // with the registry enabled or disabled.
        mwm_obs::counter!("solver_solves_total").inc();
        mwm_obs::counter!("solver_rounds_total").add(tracker.rounds() as u64);
        mwm_obs::counter!("solver_oracle_iterations_total").add(oracle_iterations as u64);

        let stats = RunStats {
            beta,
            lambda,
            initial_rounds,
            main_rounds,
            num_levels: levels.num_levels(),
            oracle_iterations,
            primal_certificates,
            vertex_updates,
            odd_set_updates,
            sparsifier_edges_last_round,
            sparsifiers_built: main_rounds * t_sparsifiers,
        };
        self.finish(budget, best, tracker, stats)
    }

    /// Both exits of [`DualPrimalSolver::solve_seeded`] end here: the run's
    /// ledger and oracle iterations are checked against `budget`, then the
    /// report lists the solver-specific stats.
    fn finish(
        &self,
        budget: &ResourceBudget,
        matching: BMatching,
        tracker: ResourceTracker,
        s: RunStats,
    ) -> Result<SolveReport, MwmError> {
        budget.check_tracker(&tracker)?;
        budget.check_oracle_iterations(s.oracle_iterations)?;
        // Oracle iterations per round of data access: the factor by which the
        // deferred sparsifiers cut data access relative to a naive
        // primal-dual loop that needs one round per iteration.
        let adaptivity_ratio = if s.main_rounds == 0 {
            0.0
        } else {
            s.oracle_iterations as f64 / s.main_rounds as f64
        };
        let report = SolveReport::new("dual-primal", matching, tracker)
            .with_oracle_iterations(s.oracle_iterations)
            .with_stat("beta", s.beta)
            .with_stat("lambda", s.lambda)
            .with_stat("eps", self.config.eps)
            .with_stat("p", self.config.p)
            .with_stat("initial_rounds", s.initial_rounds as f64)
            .with_stat("main_rounds", s.main_rounds as f64)
            .with_stat("num_levels", s.num_levels as f64)
            .with_stat("primal_certificates", s.primal_certificates as f64)
            .with_stat("vertex_updates", s.vertex_updates as f64)
            .with_stat("odd_set_updates", s.odd_set_updates as f64)
            .with_stat("sparsifier_edges_last_round", s.sparsifier_edges_last_round as f64)
            .with_stat("sparsifiers_built", s.sparsifiers_built as f64)
            .with_stat("adaptivity_ratio", adaptivity_ratio);
        Ok(report)
    }
}

impl MatchingSolver for DualPrimalSolver {
    fn name(&self) -> &str {
        "dual-primal"
    }

    /// Runs the dual-primal algorithm within `budget`.
    ///
    /// A round budget caps the adaptive main loop, and the initial
    /// solution's `O(p)` sampling rounds count against the same limit: a
    /// main round that would take the ledger past it fails the solve with
    /// [`MwmError::BudgetExceeded`] before the round's work starts. An
    /// oracle-iteration budget is checked the same way before each oracle
    /// call. A streamed-items budget is enforced mid-pass by the pass engine,
    /// and a space budget is verified against the run's ledger at the end.
    /// The budget's `with_parallelism` sets the pass engine's worker count (1
    /// when unset); it changes wall-clock time only.
    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
        self.solve_seeded(graph, budget, &BMatching::new())
    }
}

/// True if `seed` can start a solve on `graph`: it is nonempty, every edge id
/// exists and matches the graph's endpoints/weight, and the capacity
/// constraints hold. A stale seed (edges deleted or reweighted since it was
/// built) is simply ignored — correctness never depends on the seed.
fn seed_is_usable(graph: &Graph, seed: &BMatching) -> bool {
    if seed.is_empty() {
        return false;
    }
    let n = graph.num_vertices();
    for (id, e, _) in seed.iter() {
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
    seed.is_valid(graph)
}

/// `λ = min` over levelled edges of `coverage / ŵ_k`, computed as an
/// uncharged sharded **batch** scan: the fold consumes whole shard slices in
/// struct-of-arrays form, classifying weights through the levels' class
/// table. Per-shard minima merge in shard order; `min` is exact over floats,
/// so the result is identical for any worker count.
fn sharded_lambda(
    engine: &PassEngine,
    source: &GraphSource<'_>,
    classes: &WeightClasses,
    dual: &DualState,
) -> f64 {
    let mins = engine.scan_batches(
        source,
        |_| f64::INFINITY,
        |acc: &mut f64, b| {
            for i in 0..b.len() {
                if let Some(level) = classes.class_of_bits(b.w[i]) {
                    let cov = dual.edge_coverage(b.u[i], b.v[i], level);
                    let ratio = cov / classes.weight(level);
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
/// `(id, value)` pairs locally with class weights read from the class table
/// (no per-edge `ln`/`powi`), and the per-shard vectors are scattered out in
/// shard order. Every multiplier depends only on its own edge, so the vector
/// is bit-identical at any worker count.
fn sharded_multipliers(
    engine: &mut PassEngine,
    source: &GraphSource<'_>,
    classes: &WeightClasses,
    dual: &DualState,
    alpha: f64,
    lambda: f64,
) -> Result<Vec<f64>, PassError> {
    let batches = engine.pass_batches(
        source,
        |shard| Vec::with_capacity(source.shard_len(shard)),
        |acc: &mut Vec<(usize, f64)>, b| {
            for i in 0..b.len() {
                if let Some(level) = classes.class_of_bits(b.w[i]) {
                    let w_k = classes.weight(level);
                    let cov = dual.edge_coverage(b.u[i], b.v[i], level);
                    acc.push((b.ids[i], StepRule::multiplier(alpha, cov / w_k, lambda, w_k)));
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
/// fixed) into `support`, the oracle's input, replacing its contents.
fn reveal_support(
    graph: &Graph,
    classes: &WeightClasses,
    dual: &DualState,
    sparsifier: &DeferredSparsifier,
    alpha: f64,
    lambda: f64,
    support: &mut Vec<SupportEdge>,
) {
    support.clear();
    support.extend(sparsifier.stored_edges().iter().filter_map(|pe| {
        let e = graph.edge(pe.id);
        let level = classes.class_of(e.w)?;
        let w_k = classes.weight(level);
        let cov = dual.edge_coverage(e.u, e.v, level);
        let us = StepRule::multiplier(alpha, cov / w_k, lambda, w_k);
        Some(SupportEdge { id: pe.id, u: e.u, v: e.v, level, us })
    }));
}

/// Runs the offline b-matching substrate on the union of the edges stored by a
/// batch of deferred sparsifiers, returning a b-matching expressed in the
/// *original* graph's edge ids.
fn offline_on_union(graph: &Graph, sparsifiers: &[DeferredSparsifier]) -> BMatching {
    let mut in_union = vec![false; graph.num_edges()];
    for pe in sparsifiers.iter().flat_map(DeferredSparsifier::stored_edges) {
        in_union[pe.id] = true;
    }
    // Build the union subgraph in ascending id order, remembering the
    // original edge ids.
    let mut sub = Graph::with_capacities(graph.capacities().to_vec());
    let mut back: Vec<usize> = Vec::new();
    for (id, e) in graph.edge_iter().filter(|&(id, _)| in_union[id]) {
        sub.add_edge(e.u, e.v, e.w);
        back.push(id);
    }
    if back.is_empty() {
        return BMatching::new();
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
    let classes = levels.classes();
    bm.iter()
        .map(|(_, e, mult)| match classes.class_of(e.w) {
            Some(k) => classes.weight(k) * mult as f64,
            None => 0.0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::Edge;
    use mwm_matching::exact_max_weight_matching;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn solver(eps: f64, p: f64, seed: u64) -> DualPrimalSolver {
        DualPrimalSolver::new(DualPrimalConfig { eps, p, seed, ..Default::default() })
            .expect("test config is valid")
    }

    fn solve(solver: &DualPrimalSolver, g: &Graph) -> SolveReport {
        solver.solve(g, &ResourceBudget::unlimited()).expect("an unlimited budget cannot interrupt")
    }

    fn solve_seeded(solver: &DualPrimalSolver, g: &Graph, seed: &BMatching) -> SolveReport {
        solver
            .solve_seeded(g, &ResourceBudget::unlimited(), seed)
            .expect("an unlimited budget cannot interrupt")
    }

    fn stat(report: &SolveReport, name: &str) -> f64 {
        report.stat(name).unwrap_or_else(|| panic!("missing stat {name}"))
    }

    #[test]
    fn result_is_always_a_feasible_b_matching() {
        for seed in 0..5u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 9.0), &mut rng);
            let res = solve(&solver(0.25, 2.0, seed), &g);
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
            let res = solve(&solver(0.2, 2.0, seed), &g);
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
        let res = solve(&solver(eps, p, 3), &g);
        // initial rounds + main rounds; main rounds ≤ ceil(2p/eps), initial ≤ O(p).
        let budget = (2.0 * p / eps).ceil() as usize + 12;
        assert!(res.rounds() <= budget, "rounds {} > budget {budget}", res.rounds());
        let main_rounds = stat(&res, "main_rounds") as usize;
        let initial_rounds = stat(&res, "initial_rounds") as usize;
        assert!(res.oracle_iterations >= main_rounds.saturating_sub(initial_rounds));
    }

    #[test]
    fn adaptivity_ratio_exceeds_one_when_dual_work_happens() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(60, 0.2, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let res = solve(&solver(0.2, 3.0, 5), &g);
        // Several oracle iterations happen per adaptive round whenever the main
        // loop executes at all.
        if stat(&res, "main_rounds") > stat(&res, "initial_rounds") {
            assert!(res.oracle_iterations > 0);
        }
    }

    #[test]
    fn triangle_gadget_is_solved_optimally() {
        // The paper's p.5 gadget: optimum is the single heavy edge.
        let g = generators::triangle_gadget(0.1, 1.0);
        let res = solve(&solver(0.1, 2.0, 1), &g);
        assert!(res.matching.is_valid(&g));
        assert!((res.weight - 1.0).abs() < 1e-9, "weight {}", res.weight);
    }

    #[test]
    fn b_matching_capacities_are_respected() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = generators::gnm(30, 150, WeightModel::Uniform(1.0, 6.0), &mut rng);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let res = solve(&solver(0.25, 2.0, 2), &g);
        assert!(res.matching.is_valid(&g));
        assert!(res.weight > 0.0);
    }

    #[test]
    fn empty_graph_returns_empty_result() {
        let g = Graph::new(12);
        let res = solve(&solver(0.2, 2.0, 1), &g);
        assert_eq!(res.weight, 0.0);
        assert!(res.matching.is_empty());
        assert_eq!(stat(&res, "lambda"), 1.0);
        assert_eq!(stat(&res, "adaptivity_ratio"), 0.0, "no round, no ratio");
    }

    type ResultFingerprint = (Vec<(usize, u64)>, u64, usize, usize);

    /// The matching, the weight's bits, the rounds and the oracle iterations.
    fn fingerprint(r: &SolveReport) -> ResultFingerprint {
        let mut edges: Vec<(usize, u64)> = r.matching.iter().map(|(id, _, m)| (id, m)).collect();
        edges.sort_unstable();
        (edges, r.weight.to_bits(), r.rounds(), r.oracle_iterations)
    }

    #[test]
    fn parallelism_levels_produce_bit_identical_results() {
        let mut rng = StdRng::seed_from_u64(21);
        let g = generators::gnm(60, 400, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let mut reference: Option<ResultFingerprint> = None;
        for workers in [1usize, 2, 8] {
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let fp = fingerprint(&DualPrimalSolver::default().solve(&g, &budget).unwrap());
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "parallelism {workers} diverged"),
            }
        }
    }

    /// Every stat's name and value bits.
    fn stat_bits(r: &SolveReport) -> Vec<(&'static str, u64)> {
        r.stats().iter().map(|&(n, v)| (n, v.to_bits())).collect()
    }

    #[test]
    fn solve_is_solve_seeded_with_an_empty_seed() {
        let mut rng = StdRng::seed_from_u64(41);
        let mut b_graph = generators::gnm(30, 150, WeightModel::Uniform(1.0, 6.0), &mut rng);
        generators::randomize_capacities(&mut b_graph, 3, &mut rng);
        let graphs = [
            generators::gnm(50, 300, WeightModel::Uniform(1.0, 8.0), &mut rng),
            b_graph,
            generators::triangle_gadget(0.1, 1.0),
            Graph::new(6),
        ];
        for (i, g) in graphs.iter().enumerate() {
            let solver = solver(0.2, 2.0, i as u64);
            let report = solve(&solver, g);
            let seeded = solve_seeded(&solver, g, &BMatching::new());
            assert_eq!(fingerprint(&report), fingerprint(&seeded), "graph {i}");
            assert_eq!(stat_bits(&report), stat_bits(&seeded), "graph {i}");
            assert_eq!(report.solver, seeded.solver);
            assert_eq!(report.tracker.counters(), seeded.tracker.counters(), "graph {i}");
        }
    }

    #[test]
    fn a_usable_seed_is_never_lost() {
        // Edges lighter than W*/B = 1 are dropped by the weight
        // discretization, so no round sees the three light edges; a seed
        // holding them is heavier than anything the solve finds itself.
        let mut g = Graph::new(8);
        g.add_edge(0, 1, 8.0);
        for v in [2, 4, 6] {
            g.add_edge(v, v + 1, 0.9);
        }
        let mut seed = BMatching::new();
        for (id, e) in g.edge_iter() {
            seed.add(id, e, 1);
        }
        let solver = solver(0.2, 2.0, 3);
        assert!(solve(&solver, &g).weight < seed.weight());
        let mut reference = None;
        for workers in [1usize, 4] {
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let res = solver.solve_seeded(&g, &budget, &seed).unwrap();
            assert!(res.weight >= seed.weight(), "weight {} < seed {}", res.weight, seed.weight());
            assert!(stat(&res, "initial_rounds") >= 1.0, "a seeded solve runs the initial phase");
            let fp = fingerprint(&res);
            match &reference {
                None => reference = Some(fp),
                Some(r) => assert_eq!(r, &fp, "parallelism {workers} diverged on a seeded solve"),
            }
        }
    }

    #[test]
    fn a_stale_seed_is_ignored() {
        let mut rng = StdRng::seed_from_u64(33);
        let g = generators::gnm(40, 200, WeightModel::Uniform(1.0, 8.0), &mut rng);
        let solver = solver(0.2, 2.0, 9);
        let cold = solve(&solver, &g);
        let e = g.edge(0);
        // Reweighted since the seed was built, an id the graph lacks, and a
        // multiplicity the capacity cannot hold.
        let stale: [(usize, Edge, u64); 3] =
            [(0, Edge::new(e.u, e.v, e.w + 1.0), 1), (g.num_edges(), e, 1), (0, e, 2)];
        for (i, &(id, edge, mult)) in stale.iter().enumerate() {
            let mut seed = BMatching::new();
            seed.add(id, edge, mult);
            let res = solve_seeded(&solver, &g, &seed);
            assert_eq!(fingerprint(&res), fingerprint(&cold), "stale seed {i}");
            assert_eq!(stat_bits(&res), stat_bits(&cold), "stale seed {i}");
        }
    }

    #[test]
    fn space_stays_within_budget_for_dense_graphs() {
        let mut rng = StdRng::seed_from_u64(13);
        // Dense graph: m ~ 3000 edges over 120 vertices, n^{1.5} ≈ 1315.
        let g = generators::gnp(120, 0.45, WeightModel::Uniform(1.0, 3.0), &mut rng);
        let res = solve(&solver(0.3, 2.0, 4), &g);
        // peak central space stays well below m (the whole point of the model);
        // allow the polylog/constant slack of Theorem 15.
        let n = g.num_vertices() as f64;
        let budget = 40.0 * n.powf(1.5) * (g.total_capacity() as f64).ln().max(1.0);
        assert!(
            (res.peak_central_space() as f64) <= budget,
            "peak space {} exceeds budget {budget}",
            res.peak_central_space()
        );
    }
}
