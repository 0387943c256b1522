//! The experiment implementations E1–E15.
//!
//! Every experiment returns a structured [`ExperimentReport`] (id, title,
//! columns, raw cells) instead of pre-formatted strings, so integration tests
//! assert on values and the CLI renders the aligned tables. All experiments
//! drive the solvers through the engine API ([`MatchingSolver`]) and are
//! fallible: configuration or solve errors propagate as [`MwmError`] instead
//! of panicking. Sizes are chosen so the full suite (`--exp all`) completes
//! in a few minutes on a laptop in release mode.

use crate::report::ExperimentReport;
use crate::workloads;
use mwm_baselines::{LattanziFiltering, StreamingGreedy};
use mwm_core::{
    certify_b_matching, relaxation_widths, DualPrimalConfig, DualPrimalSolver, MatchingSolver,
    MwmError, ResourceBudget, SolveReport,
};
use mwm_graph::generators;
use mwm_graph::Graph;
use mwm_lp::{
    solve_covering, BoxBudgetPolytope, CoveringOutcome, CoveringParams, ExplicitCovering, StepRule,
};
use mwm_mapreduce::CongestedCliqueSim;
use mwm_matching::bounds;
use mwm_sparsify::{cut_quality_report, DeferredSparsifier};
use rand::prelude::*;
use rand::rngs::StdRng;

/// All experiment ids, in run order.
pub const EXPERIMENT_IDS: [&str; 15] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
];

/// Runs one experiment by id (`"e1"` … `"e15"`), or every experiment for
/// `"all"`. Unknown ids are [`MwmError::UnknownExperiment`].
pub fn run_experiment(id: &str) -> Result<Vec<ExperimentReport>, MwmError> {
    match id {
        "e1" => Ok(vec![e1_adaptivity()?]),
        "e2" => Ok(vec![e2_triangle_gadget()?]),
        "e3" => Ok(vec![e3_approximation()?]),
        "e4" => Ok(vec![e4_resources()?]),
        "e5" => Ok(vec![e5_baselines()?]),
        "e6" => Ok(vec![e6_sparsifier()?]),
        "e7" => Ok(vec![e7_width()?]),
        "e8" => Ok(vec![e8_b_matching()?]),
        "e9" => Ok(vec![e9_congested_clique()?]),
        "e10" => Ok(vec![e10_lp_substrate()?]),
        "e11" => Ok(vec![e11_pass_throughput()?]),
        "e12" => Ok(vec![e12_dynamic_stream()?]),
        "e13" => Ok(vec![e13_serving()?]),
        "e14" => Ok(vec![e14_out_of_core()?]),
        "e15" => Ok(vec![e15_hibernation()?]),
        "all" => {
            let mut all = Vec::with_capacity(EXPERIMENT_IDS.len());
            for e in EXPERIMENT_IDS {
                all.extend(run_experiment(e)?);
            }
            Ok(all)
        }
        other => Err(MwmError::UnknownExperiment {
            id: other.to_string(),
            available: EXPERIMENT_IDS
                .iter()
                .map(|s| s.to_string())
                .chain(["all".to_string()])
                .collect(),
        }),
    }
}

/// A validated dual-primal solver for the experiments' parameter grid.
fn dual_primal(eps: f64, p: f64, seed: u64) -> Result<DualPrimalSolver, MwmError> {
    DualPrimalSolver::new(DualPrimalConfig { eps, p, seed, ..Default::default() })
}

/// Solves through the engine API with no budget (experiments measure, they
/// don't constrain).
fn solve_dp(g: &Graph, eps: f64, p: f64, seed: u64) -> Result<SolveReport, MwmError> {
    dual_primal(eps, p, seed)?.solve(g, &ResourceBudget::unlimited())
}

/// A named solver-specific statistic that the dual-primal report always
/// carries; missing stats indicate a report from the wrong solver.
fn stat(report: &SolveReport, name: &str) -> Result<f64, MwmError> {
    report.stat(name).ok_or_else(|| MwmError::InvalidInput {
        reason: format!("report from {} lacks stat {name:?}", report.solver),
    })
}

/// E1 — Figure 1: rounds of data access vs oracle iterations.
pub fn e1_adaptivity() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e1",
        "adaptivity (rounds of data access vs oracle iterations; Figure 1)",
        vec!["workload", "eps", "p", "rounds", "oracle_iter", "iters/round", "sparsifiers"],
    );
    for &(n, eps, p) in &[(200usize, 0.2, 2.0), (200, 0.3, 2.0), (400, 0.2, 3.0)] {
        let g = workloads::scaling_graph(n, 8, 42);
        let res = solve_dp(&g, eps, p, 1)?;
        rep.push_row(vec![
            format!("gnm(n={n})"),
            format!("{eps:.2}"),
            format!("{p:.1}"),
            format!("{}", res.rounds()),
            format!("{}", res.oracle_iterations),
            format!("{:.2}", stat(&res, "adaptivity_ratio")?),
            format!("{}", stat(&res, "sparsifiers_built")? as usize),
        ]);
    }
    Ok(rep)
}

/// E2 — the p.5 triangle gadget: bipartite relaxation gap vs integral optimum.
pub fn e2_triangle_gadget() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e2",
        "triangle gadget (p.5): bipartite relaxation vs integral optimum",
        vec!["eps", "integral", "bipartite_lp", "solver", "solver_ratio"],
    );
    for &eps in &[0.05, 0.1, 0.2] {
        let g = generators::triangle_gadget(eps, 1.0);
        // Integral optimum (exact DP): the heavy edge for eps < 0.1, a light edge beyond.
        let integral = mwm_matching::exact_max_weight_matching(&g).weight();
        // Bipartite (odd-set-free) fractional optimum: 1/2 on every edge.
        let bipartite_lp: f64 = g.edges().iter().map(|e| e.w).sum::<f64>() / 2.0;
        let res = solve_dp(&g, eps.clamp(0.05, 0.3), 2.0, 3)?;
        rep.push_row(vec![
            format!("{eps:.2}"),
            format!("{integral:.4}"),
            format!("{bipartite_lp:.4}"),
            format!("{:.4}", res.weight),
            format!("{:.4}", res.weight / integral),
        ]);
    }
    Ok(rep)
}

/// E3 — Theorem 15: approximation quality across graph families.
pub fn e3_approximation() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e3",
        "approximation quality (Theorem 15)",
        vec!["workload", "eps", "solver_w", "bound", "ratio", "kind"],
    );
    for w in workloads::standard_suite(160, 11) {
        for &eps in &[0.1, 0.2] {
            let res = solve_dp(&w.graph, eps, 2.0, 5)?;
            let cert = certify_b_matching(&w.graph, &res.matching);
            let (bound, ratio, kind) = match (cert.exact_optimum, cert.ratio_vs_exact) {
                (Some(opt), Some(r)) => (opt, r, "exact"),
                _ => (cert.upper_bound, cert.ratio_vs_upper_bound, "upper-bound"),
            };
            rep.push_row(vec![
                w.name.clone(),
                format!("{eps:.2}"),
                format!("{:.2}", res.weight),
                format!("{bound:.2}"),
                format!("{ratio:.3}"),
                kind.to_string(),
            ]);
        }
    }
    Ok(rep)
}

/// E4 — Theorem 15 resources: rounds and central space vs n, p, eps.
pub fn e4_resources() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e4",
        "resources (rounds O(p/eps), space O(n^{1+1/p} log B))",
        vec!["n", "eps", "p", "m", "rounds", "peak_space", "space_budget", "within"],
    );
    for &(n, eps, p) in &[
        (200usize, 0.2, 2.0),
        (400, 0.2, 2.0),
        (800, 0.2, 2.0),
        (400, 0.1, 2.0),
        (400, 0.3, 2.0),
        (400, 0.2, 3.0),
        (400, 0.2, 4.0),
    ] {
        let g = workloads::scaling_graph(n, 10, 7);
        let res = solve_dp(&g, eps, p, 2)?;
        let budget =
            40.0 * (n as f64).powf(1.0 + 1.0 / p) * (g.total_capacity().max(2) as f64).ln();
        rep.push_row(vec![
            format!("{n}"),
            format!("{eps:.2}"),
            format!("{p:.1}"),
            format!("{}", g.num_edges()),
            format!("{}", res.rounds()),
            format!("{}", res.peak_central_space()),
            format!("{budget:.0}"),
            format!("{}", (res.peak_central_space() as f64) <= budget),
        ]);
    }
    Ok(rep)
}

/// E5 — comparison against the Lattanzi et al. filtering baseline and
/// one-pass streaming greedy, all driven through the engine API.
pub fn e5_baselines() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e5",
        "dual-primal (1-eps) vs Lattanzi filtering vs streaming greedy",
        vec!["workload", "solver", "weight", "rounds", "peak_space"],
    );
    let solvers: Vec<Box<dyn MatchingSolver>> = vec![
        Box::new(dual_primal(0.2, 2.0, 9)?),
        Box::new(LattanziFiltering::new(2.0, 0.2)?),
        Box::new(StreamingGreedy::new(0.414)?),
    ];
    for w in workloads::standard_suite(200, 23) {
        for solver in &solvers {
            let res = solver.solve(&w.graph, &ResourceBudget::unlimited())?;
            rep.push_row(vec![
                w.name.clone(),
                res.solver.clone(),
                format!("{:.2}", res.weight),
                format!("{}", res.rounds()),
                format!("{}", res.peak_central_space()),
            ]);
        }
    }
    Ok(rep)
}

/// E6 — Lemma 17: deferred sparsifier size and cut quality.
pub fn e6_sparsifier() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e6",
        "deferred sparsifier size & cut quality (Lemma 17 / Algorithm 6)",
        vec!["n", "m", "chi", "xi", "stored", "max_cut_err", "mean_cut_err"],
    );
    let mut rng = StdRng::seed_from_u64(31);
    for &(n, dens) in &[(300usize, 0.5), (500, 0.5)] {
        let g = workloads::dense_graph(n, dens, 13);
        let promise: Vec<f64> = (0..g.num_edges()).map(|_| rng.gen_range(0.5..2.0)).collect();
        for &chi in &[1.0, 2.0] {
            for &xi in &[0.3, 0.75] {
                let d = DeferredSparsifier::build(&g, &promise, chi, xi, 5);
                // Actual multipliers drift within the chi band.
                let actual: Vec<f64> = promise
                    .iter()
                    .map(|&s| s * rng.gen_range(1.0 / chi..chi.max(1.0 + 1e-9)))
                    .collect();
                let sp = d.reveal(&g, |id| actual[id]);
                let mut mg = Graph::new(g.num_vertices());
                for (id, e) in g.edge_iter() {
                    if actual[id] > 0.0 {
                        mg.add_edge(e.u, e.v, actual[id]);
                    }
                }
                let quality = cut_quality_report(&mg, &sp, 40, 3);
                rep.push_row(vec![
                    format!("{n}"),
                    format!("{}", g.num_edges()),
                    format!("{chi:.1}"),
                    format!("{xi:.2}"),
                    format!("{}", d.num_stored()),
                    format!("{:.3}", quality.max_relative_error),
                    format!("{:.3}", quality.mean_relative_error),
                ]);
            }
        }
    }
    Ok(rep)
}

/// E7 — width of the classical dual LP2 vs the penalty relaxations LP4/LP5.
pub fn e7_width() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e7",
        "width of LP2 (grows with n) vs penalty relaxation LP4/LP5 (constant)",
        vec!["n", "m", "classical_width", "penalty_width", "penalty_inner"],
    );
    for &n in &[100usize, 200, 400, 800] {
        let g = workloads::scaling_graph(n, 8, 3);
        let w = relaxation_widths(&g, 0.2);
        rep.push_row(vec![
            format!("{n}"),
            format!("{}", g.num_edges()),
            format!("{:.0}", w.classical_width),
            format!("{:.0}", w.penalty_width),
            format!("{:.0}", w.penalty_inner_width),
        ]);
    }
    Ok(rep)
}

/// E8 — b-matching generalisation: quality and space vs B.
pub fn e8_b_matching() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e8",
        "b-matching (capacities > 1)",
        vec!["n", "max_b", "B", "solver_w", "upper_bound", "ratio_lb", "rounds"],
    );
    for &max_b in &[1u64, 3, 8] {
        let g = workloads::b_matching_graph(150, 8, max_b, 17);
        let res = solve_dp(&g, 0.2, 2.0, 3)?;
        let ub = bounds::b_matching_weight_upper_bound(&g);
        rep.push_row(vec![
            "150".to_string(),
            format!("{max_b}"),
            format!("{}", g.total_capacity()),
            format!("{:.2}", res.weight),
            format!("{ub:.2}"),
            format!("{:.3}", res.weight / ub),
            format!("{}", res.rounds()),
        ]);
    }
    Ok(rep)
}

/// E9 — congested-clique corollary: per-vertex message volume per round.
pub fn e9_congested_clique() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e9",
        "congested clique (per-vertex message size O(n^{1/p} polylog))",
        vec!["n", "p", "rounds", "max_msg/vtx/round", "budget", "within"],
    );
    for &(n, p) in &[(128usize, 2.0), (256, 2.0), (256, 4.0)] {
        // Per round every vertex ships one sketch of its neighbourhood: the sketch
        // has O(n^{1/p}) cells by construction (copies scaled accordingly).
        let copies = ((n as f64).powf(1.0 / p).ceil() as usize).max(1);
        let mut cc = CongestedCliqueSim::new(n);
        let rounds = ((2.0 * p) / 0.2).ceil() as usize;
        for _ in 0..rounds {
            cc.begin_round();
            cc.charge_all(copies);
        }
        let budget = 4.0 * (n as f64).powf(1.0 / p) * (n as f64).ln();
        rep.push_row(vec![
            format!("{n}"),
            format!("{p:.1}"),
            format!("{}", cc.num_rounds()),
            format!("{}", cc.max_message_per_vertex_round()),
            format!("{budget:.0}"),
            format!("{}", cc.within_message_budget(p, 4.0, (n as f64).ln())),
        ]);
    }
    Ok(rep)
}

/// E10 — LP substrate sanity: covering solver accuracy and iteration scaling.
pub fn e10_lp_substrate() -> Result<ExperimentReport, MwmError> {
    let mut rep = ExperimentReport::new(
        "e10",
        "covering solver substrate (Theorem 5)",
        vec!["instance", "eps", "outcome", "lambda", "iterations"],
    );
    let mut rng = StdRng::seed_from_u64(41);
    for &(vars, cons) in &[(20usize, 10usize), (50, 25)] {
        // Random feasible covering instance: A random 0/1-ish, c scaled so that the
        // all-upper point covers everything comfortably.
        let rows_a: Vec<Vec<(usize, f64)>> = (0..cons)
            .map(|_| {
                let mut r = Vec::new();
                for j in 0..vars {
                    if rng.gen_bool(0.3) {
                        r.push((j, rng.gen_range(0.5..2.0)));
                    }
                }
                if r.is_empty() {
                    r.push((0, 1.0));
                }
                r
            })
            .collect();
        let c: Vec<f64> =
            rows_a.iter().map(|r| 0.5 * r.iter().map(|&(_, a)| a).sum::<f64>()).collect();
        let polytope = BoxBudgetPolytope {
            upper: vec![1.0; vars],
            cost: vec![1.0; vars],
            budget: vars as f64,
        };
        for &eps in &[0.05, 0.1] {
            let mut inst = ExplicitCovering::new(rows_a.clone(), c.clone(), polytope.clone());
            let init: Vec<f64> = c.iter().map(|ci| 0.4 * ci).collect();
            let sol = solve_covering(
                &mut inst,
                init,
                Vec::new(),
                &CoveringParams { eps, max_iterations: 2_000_000 },
            );
            rep.push_row(vec![
                format!("random({vars}v,{cons}c)"),
                format!("{eps:.2}"),
                match sol.outcome {
                    CoveringOutcome::Feasible => "feasible",
                    CoveringOutcome::Infeasible => "infeasible",
                    CoveringOutcome::IterationLimit => "limit",
                }
                .to_string(),
                format!("{:.4}", sol.lambda),
                format!("{}", sol.iterations),
            ]);
        }
    }
    Ok(rep)
}

/// E11 — pass-engine throughput: multiplier-style **batch (SoA slice)**
/// passes over the largest bench workload (the `2^20`-edge synthetic stream,
/// materialized once into CSR/SoA shard columns outside the timed region) at
/// 1/2/4/8 workers.
///
/// The fold applies the solver's multiplier ([`StepRule::multiplier`]),
/// element by element over each slice, so the result bits are identical to
/// the historical per-edge rows. The `checksum` column
/// combines the per-shard partial sums **in shard order**, so equal checksums
/// across rows prove the engine merges bit-identically at every worker count;
/// `speedup` is wall-clock pass throughput relative to the single-worker row
/// (it can only exceed 1 where the host actually has spare cores — the
/// `cores` column records what the host offered).
pub fn e11_pass_throughput() -> Result<ExperimentReport, MwmError> {
    use mwm_mapreduce::{EdgeSource, PassEngine, SoaShards};
    use std::time::Instant;

    let mut rep = ExperimentReport::new(
        "e11",
        "pass-engine throughput (sharded multiplier passes, 1/2/4/8 workers)",
        vec![
            "workers",
            "cores",
            "shards",
            "edges/pass",
            "passes",
            "medges/s",
            "speedup",
            "checksum",
        ],
    );
    let stream = workloads::pass_throughput_stream(1, 0xE11);
    // Materialize the stream into flat CSR/SoA columns ONCE, outside the
    // timed region: the experiment measures pass throughput over resident
    // shard storage, not the generator.
    let soa = SoaShards::from_source(&stream)?;
    let passes = 3usize;
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
    let mut base_throughput = None;
    for &workers in &[1usize, 2, 4, 8] {
        let mut engine = PassEngine::new(workers);
        let mut checksum = 0u64;
        let start = Instant::now();
        for pass in 0..passes {
            // The solver's multiplier (`StepRule::multiplier`) per edge,
            // seeded per pass so no pass can be optimized away.
            let alpha = 1.0 + pass as f64 * 0.25;
            let sums = engine
                .pass_batches(
                    &soa,
                    |_| 0.0f64,
                    |acc: &mut f64, b| {
                        for i in 0..b.len() {
                            let w = b.weight(i);
                            let cov = ((b.ids[i] % 97) as f64) / 97.0;
                            *acc += StepRule::multiplier(alpha, cov / w, 0.5, w);
                        }
                    },
                )
                .expect("an unbudgeted engine cannot interrupt a pass");
            for s in sums {
                checksum = checksum.rotate_left(7) ^ s.to_bits();
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let throughput = (stream.num_edges() * passes) as f64 / secs / 1e6;
        let speedup = throughput / *base_throughput.get_or_insert(throughput);
        rep.push_row(vec![
            format!("{workers}"),
            format!("{cores}"),
            format!("{}", stream.num_shards()),
            format!("{}", stream.num_edges()),
            format!("{passes}"),
            format!("{throughput:.1}"),
            format!("{speedup:.2}"),
            format!("{checksum:016x}"),
        ]);
    }
    Ok(rep)
}

/// E12 — dynamic matching over a sliding-window update stream: epochs/sec
/// and weight-vs-oracle at 1/2/4/8 workers.
///
/// One session per worker count replays the same deterministic stream; the
/// `checksum` column fingerprints the final matching, so equal checksums
/// prove the whole *session* (damage passes, repairs, warm re-solves) is
/// bit-identical at every parallelism. `avg_warm_rounds` vs `cold_rounds`
/// shows the warm-start saving: warm epochs skip the `O(p)` sampling rounds
/// a cold solve pays, so the column pair is the round-count reduction the
/// subsystem exists for.
pub fn e12_dynamic_stream() -> Result<ExperimentReport, MwmError> {
    use mwm_dynamic::{DynamicConfig, DynamicMatcher, EpochDecision};
    use mwm_graph::GraphOverlay;
    use std::time::Instant;

    let mut rep = ExperimentReport::new(
        "e12",
        "dynamic matching (sliding-window stream, warm-started epochs, 1/2/4/8 workers)",
        vec![
            "workers",
            "epochs",
            "repair",
            "warm",
            "rebuild",
            "epochs/s",
            "avg_warm_rounds",
            "cold_rounds",
            "weight",
            "w/oracle",
            "journal_bytes",
            "checksum",
        ],
    );
    let (n, per_epoch, window, epochs) = (800usize, 60usize, 4usize, 12usize);
    let wl = workloads::sliding_window_stream(n, per_epoch, window, epochs, 0xE12);
    let config = DynamicConfig { eps: 0.2, p: 2.0, seed: 5 };

    // The oracle: replay the stream without matching work, then cold-solve
    // the final graph once.
    let mut oracle_overlay = GraphOverlay::new(&wl.initial);
    for batch in &wl.batches {
        for update in batch {
            let _ = oracle_overlay.apply(update);
        }
    }
    let (final_graph, _) = oracle_overlay.materialize();
    let cold = dual_primal(config.eps, config.p, config.seed)?
        .solve(&final_graph, &ResourceBudget::unlimited())?;

    for &workers in &[1usize, 2, 4, 8] {
        let mut dm = DynamicMatcher::new(&wl.initial, config)?;
        let budget = ResourceBudget::unlimited().with_parallelism(workers);
        let start = Instant::now();
        let (mut repairs, mut warms, mut rebuilds) = (0usize, 0usize, 0usize);
        let mut warm_rounds = 0usize;
        for batch in &wl.batches {
            let r = dm.apply_epoch(batch, &budget)?;
            match r.stats.decision {
                EpochDecision::Repair => repairs += 1,
                EpochDecision::WarmResolve => {
                    warms += 1;
                    warm_rounds += r.stats.solver_rounds;
                }
                EpochDecision::Rebuild => rebuilds += 1,
            }
        }
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        let avg_warm_rounds = if warms > 0 { warm_rounds as f64 / warms as f64 } else { f64::NAN };
        let checksum =
            session_checksum(dm.weight(), dm.matching().iter().map(|(id, _, m)| (id, m)));
        let last = dm.ledger().last().expect("the stream has epochs");
        rep.push_row(vec![
            format!("{workers}"),
            format!("{}", wl.batches.len()),
            format!("{repairs}"),
            format!("{warms}"),
            format!("{rebuilds}"),
            format!("{:.1}", wl.batches.len() as f64 / secs),
            format!("{avg_warm_rounds:.1}"),
            format!("{}", cold.rounds()),
            format!("{:.2}", dm.weight()),
            format!("{:.3}", dm.weight() / cold.weight.max(1e-12)),
            format!("{}", last.journal_bytes),
            format!("{checksum:016x}"),
        ]);
    }
    Ok(rep)
}

/// Fingerprint of one session's final state: weight bits folded with the
/// matching's (stable id, multiplicity) pairs — the checksum E12/E13 use to
/// prove sessions bit-identical across worker counts and vs serial replay.
fn session_checksum(weight: f64, matching: impl Iterator<Item = (usize, u64)>) -> u64 {
    let mut checksum = weight.to_bits();
    for (id, mult) in matching {
        checksum = checksum.rotate_left(7) ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mult;
    }
    checksum
}

/// E13 — the serving layer: N sessions × sliding-window streams through a
/// `MatchingService` at 1/2/4/8 service workers.
///
/// One client thread per session submits that session's epochs in order (so
/// per-session request order is fixed) while the service's worker pool
/// interleaves sessions freely. Reported per worker count: requests/sec,
/// p50/p99 epoch latency, and the combined per-session `checksum` — the fold
/// of every session's final-state fingerprint — with `=serial` confirming
/// each session is **bit-identical** to a serial `DynamicMatcher` replay of
/// the same stream. Equal checksums across rows prove worker count and
/// cross-session interleaving change wall-clock behavior only, never
/// results.
pub fn e13_serving() -> Result<ExperimentReport, MwmError> {
    e13_with(6, 200, 24, 3, 8)
}

/// E13 at explicit scale (the unit test runs a miniature instance).
fn e13_with(
    sessions: usize,
    n: usize,
    per_epoch: usize,
    window: usize,
    epochs: usize,
) -> Result<ExperimentReport, MwmError> {
    use mwm_dynamic::{DynamicConfig, DynamicMatcher};
    use mwm_serve::{MatchingService, ServeError, ServiceConfig};
    use std::time::Instant;

    fn serve_err(e: ServeError) -> MwmError {
        match e {
            ServeError::Engine(inner) => inner,
            other => MwmError::InvalidInput { reason: other.to_string() },
        }
    }

    let mut rep = ExperimentReport::new(
        "e13",
        "serving layer (N sessions x sliding-window streams, 1/2/4/8 service workers)",
        vec![
            "service_workers",
            "sessions",
            "epochs",
            "requests",
            "req/s",
            "p50_ms",
            "p99_ms",
            "weight_sum",
            "checksum",
            "=serial",
        ],
    );
    let dyn_config = DynamicConfig { eps: 0.2, p: 2.0, seed: 5 };
    let wls: Vec<workloads::TemporalWorkload> = (0..sessions)
        .map(|s| workloads::sliding_window_stream(n, per_epoch, window, epochs, 0xE13 + s as u64))
        .collect();

    // The serial oracle: each session replayed directly on a DynamicMatcher,
    // no service in the way.
    let mut serial: Vec<(f64, u64)> = Vec::with_capacity(sessions);
    for wl in &wls {
        let mut dm = DynamicMatcher::new(&wl.initial, dyn_config)?;
        for batch in &wl.batches {
            dm.apply_epoch(batch, &ResourceBudget::unlimited())?;
        }
        let checksum =
            session_checksum(dm.weight(), dm.matching().iter().map(|(id, _, m)| (id, m)));
        serial.push((dm.weight(), checksum));
    }

    for &workers in &[1usize, 2, 4, 8] {
        let service = MatchingService::start(ServiceConfig {
            workers,
            session_defaults: dyn_config,
            ..Default::default()
        })?;
        for (s, wl) in wls.iter().enumerate() {
            service.create_session(&format!("session-{s}"), &wl.initial).map_err(serve_err)?;
        }
        // One client thread per session; the service interleaves sessions
        // across its worker pool while each session's epochs stay FIFO.
        let start = Instant::now();
        let per_session: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..sessions)
                .map(|s| {
                    let service = &service;
                    let wl = &wls[s];
                    scope.spawn(move || {
                        let name = format!("session-{s}");
                        let mut latencies = Vec::with_capacity(wl.batches.len());
                        for batch in &wl.batches {
                            let t0 = Instant::now();
                            service.submit_batch(&name, batch.clone())?;
                            latencies.push(t0.elapsed().as_secs_f64() * 1e3);
                        }
                        Ok::<_, ServeError>(latencies)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(serve_err)?;
        let secs = start.elapsed().as_secs_f64().max(1e-9);

        let mut latencies: Vec<f64> = per_session.into_iter().flatten().collect();
        latencies.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx]
        };
        let requests = sessions * epochs;

        let mut combined = 0u64;
        let mut weight_sum = 0.0;
        let mut matches_serial = true;
        for (s, &(serial_weight, serial_checksum)) in serial.iter().enumerate() {
            let snap = service.matching(&format!("session-{s}")).map_err(serve_err)?;
            let checksum =
                session_checksum(snap.weight, snap.matching.iter().map(|(id, _, m)| (id, m)));
            matches_serial &=
                checksum == serial_checksum && snap.weight.to_bits() == serial_weight.to_bits();
            combined = combined.rotate_left(9) ^ checksum;
            weight_sum += snap.weight;
        }
        service.shutdown();

        rep.push_row(vec![
            format!("{workers}"),
            format!("{sessions}"),
            format!("{epochs}"),
            format!("{requests}"),
            format!("{:.1}", requests as f64 / secs),
            format!("{:.2}", quantile(0.50)),
            format!("{:.2}", quantile(0.99)),
            format!("{weight_sum:.2}"),
            format!("{combined:016x}"),
            if matches_serial { "yes" } else { "no" }.to_string(),
        ]);
    }
    Ok(rep)
}

/// E14 — out-of-core solve: a `2^27`-edge synthetic stream spilled to disk
/// and solved under a fixed resident-edge budget.
///
/// Two rows. `memory` consumes the stream straight from its generator;
/// `spill` writes it to disk shard by shard, then streams the shard files
/// back batch-at-a-time, so the stream never materializes in memory. The
/// budget is a [`ResourceBudget`] central-space cap far below the stream
/// size, enforced against the engine's ledger (readback buffers and the
/// coordinator's candidate working set are both charged), so a row only
/// appears if the solve genuinely stayed within it. The `checksum` column
/// must be equal on both rows — spilling changes no output bit. Each row
/// times its pass five times on fresh engines: `medges/s` is the
/// median and `spread` the min–max, and every repeat must return the same
/// checksum and weight.
///
/// `MWM_E14_EDGES_LOG2` overrides the stream size (CI smoke uses a small
/// value; the committed `BENCH_6.json` records the full 2^27 run).
pub fn e14_out_of_core() -> Result<ExperimentReport, MwmError> {
    let log2 = std::env::var("MWM_E14_EDGES_LOG2")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .unwrap_or(27)
        .clamp(12, 30);
    e14_with(1usize << log2)
}

/// Timed passes per E14 row.
const E14_REPEATS: usize = 5;

/// Runs `out_of_core_matching` over `source` [`E14_REPEATS`] times, each on a
/// fresh engine from `engine`, and fails unless every repeat returns the
/// same checksum and weight. Returns the last engine and result with the
/// median, min and max throughput in medges/s.
fn e14_timed<S: mwm_mapreduce::EdgeSource + ?Sized>(
    mode: &str,
    source: &S,
    gamma: f64,
    engine: impl Fn() -> mwm_mapreduce::PassEngine,
) -> Result<(mwm_mapreduce::PassEngine, mwm_external::OutOfCoreMatching, [f64; 3]), MwmError> {
    use mwm_external::{out_of_core_matching, OutOfCoreMatching};
    use std::time::Instant;
    let mut rates = Vec::with_capacity(E14_REPEATS);
    let mut last: Option<(_, OutOfCoreMatching)> = None;
    for repeat in 0..E14_REPEATS {
        let mut eng = engine();
        let start = Instant::now();
        let out = out_of_core_matching(&mut eng, source, gamma)?;
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        rates.push(source.num_edges() as f64 / secs / 1e6);
        if let Some((_, prev)) = &last {
            if (out.checksum(), out.weight.to_bits()) != (prev.checksum(), prev.weight.to_bits()) {
                return Err(MwmError::Execution {
                    reason: format!("E14 {mode} repeat {repeat} returned another matching"),
                });
            }
        }
        last = Some((eng, out));
    }
    rates.sort_by(f64::total_cmp);
    let (eng, out) = last.expect("E14 times at least one pass");
    Ok((eng, out, [rates[E14_REPEATS / 2], rates[0], rates[E14_REPEATS - 1]]))
}

/// The parameterized E14 body (the unit test runs a miniature stream).
fn e14_with(m: usize) -> Result<ExperimentReport, MwmError> {
    use mwm_external::SpillWriter;
    use mwm_mapreduce::{PassEngine, SyntheticStream};

    let n = (m >> 11).max(64);
    let shards = 64usize;
    let gamma = 0.05;
    let parallelism = 2usize;
    // The resident-edge ceiling: ~3% of the stream. Everything held in memory
    // during a spilled solve — readback buffers and the coordinator's
    // candidate set — is charged against it and verified by the ledger. The
    // floor keeps miniature (test/smoke) streams solvable: two readers' 8192-
    // edge readback batches plus the candidate set must fit even when m/32 is
    // tiny.
    let resident_budget_edges = (m / 32).max(1 << 15);
    let budget = ResourceBudget::unlimited().with_max_central_space(resident_budget_edges);
    let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);

    let mut rep = ExperimentReport::new(
        "e14",
        format!(
            "out-of-core solve ({m} edges spilled, resident budget {resident_budget_edges} \
             edges)"
        ),
        vec![
            "mode",
            "cores",
            "edges",
            "spill_mb",
            "peak_resident",
            "medges/s",
            "spread",
            "weight",
            "checksum",
            "=memory",
        ],
    );
    let stream = SyntheticStream::with_shards(n, m, 0xE14, shards);

    // Reference row: the whole stream consumed in memory.
    let (engine, reference, [rate, lo, hi]) =
        e14_timed("memory", &stream, gamma, || PassEngine::new(parallelism))?;
    budget.check_tracker(engine.tracker())?;
    rep.push_row(vec![
        "memory".to_string(),
        format!("{cores}"),
        format!("{m}"),
        "0.0".to_string(),
        format!("{}", engine.tracker().peak_central_space()),
        format!("{rate:.1}"),
        format!("{lo:.1}-{hi:.1}"),
        format!("{:.2}", reference.weight),
        format!("{:016x}", reference.checksum()),
        "yes".to_string(),
    ]);

    let dir = std::env::temp_dir().join(format!("mwm-e14-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spill_result = (|| -> Result<(), MwmError> {
        let spilled = SpillWriter::spill_edge_source(&dir, &stream)
            .map_err(mwm_mapreduce::PassError::from)?;
        let spill_mb = spilled.bytes_on_disk() as f64 / (1 << 20) as f64;
        let (mut engine, m14, [rate, lo, hi]) = e14_timed("spill", &spilled, gamma, || {
            PassEngine::new(parallelism).with_budget(budget.pass_budget(0))
        })?;
        spilled.charge_io(engine.tracker_mut());
        budget.check_tracker(engine.tracker())?;
        let identical = m14.checksum() == reference.checksum()
            && m14.weight.to_bits() == reference.weight.to_bits();
        rep.push_row(vec![
            "spill".to_string(),
            format!("{cores}"),
            format!("{m}"),
            format!("{spill_mb:.1}"),
            format!("{}", engine.tracker().peak_central_space()),
            format!("{rate:.1}"),
            format!("{lo:.1}-{hi:.1}"),
            format!("{:.2}", m14.weight),
            format!("{:016x}", m14.checksum()),
            if identical { "yes" } else { "no" }.to_string(),
        ]);
        Ok(())
    })();
    let _ = std::fs::remove_dir_all(&dir);
    spill_result.map(|()| rep)
}

/// E15 — hibernation at scale: many named sessions under a resident cap far
/// below the session count, Zipf-skewed activity, transparent revive.
///
/// Two rows over the identical Zipf(1.0) request schedule: `resident` keeps
/// every session in memory (no store — the oracle), `capped` runs the same
/// schedule with a session store and `max_resident_sessions` far below the
/// session count, so the service must hibernate LRU overflow to disk and
/// revive sessions on demand. The `checksum` column folds every session's
/// final matching fingerprint with its dual-vector fingerprint; `=resident`
/// confirms each capped session finishes **bit-identical** (weight bits,
/// matching, duals) to the always-resident run. Revives and their p50/p99
/// latency are sampled during the request phase only — the verification
/// sweep at the end (which itself revives every hibernated session) is
/// excluded, so the columns describe steady-state serving.
///
/// `MWM_E15_SESSIONS` / `MWM_E15_REQUESTS` / `MWM_E15_CAP` override the
/// scale (CI smoke shrinks all three so eviction still happens; the
/// committed `BENCH_7.json` records the full 10k-session run).
pub fn e15_hibernation() -> Result<ExperimentReport, MwmError> {
    let env = |key: &str, default: usize| {
        std::env::var(key).ok().and_then(|s| s.parse::<usize>().ok()).unwrap_or(default)
    };
    let sessions = env("MWM_E15_SESSIONS", 10_000).max(2);
    let requests = env("MWM_E15_REQUESTS", 30_000).max(1);
    let cap = env("MWM_E15_CAP", 256).max(1);
    e15_with(sessions, requests, cap)
}

/// The parameterized E15 body (the unit test runs a miniature instance).
fn e15_with(sessions: usize, requests: usize, cap: usize) -> Result<ExperimentReport, MwmError> {
    use mwm_dynamic::DynamicConfig;
    use mwm_serve::{MatchingService, ServeError, ServiceConfig};
    use std::path::PathBuf;
    use std::time::Instant;

    fn serve_err(e: ServeError) -> MwmError {
        match e {
            ServeError::Engine(inner) => inner,
            other => MwmError::InvalidInput { reason: other.to_string() },
        }
    }

    struct E15Run {
        /// Per session: (weight bits, matching checksum, duals checksum).
        per_session: Vec<(u64, u64, u64)>,
        weight_sum: f64,
        req_s: f64,
        revives: usize,
        revive_p50_ms: f64,
        revive_p99_ms: f64,
    }

    // The Zipf(1.0) request schedule, shared verbatim by both rows: session i
    // is drawn with probability proportional to 1/(i+1) (inverse CDF over the
    // cumulative harmonic weights). Hot sessions stay resident under the cap;
    // the long tail hibernates and must revive on its next request.
    let mut rng = StdRng::seed_from_u64(0xE15);
    let mut cumulative = Vec::with_capacity(sessions);
    let mut total = 0.0f64;
    for i in 0..sessions {
        total += 1.0 / (i + 1) as f64;
        cumulative.push(total);
    }
    let schedule: Vec<usize> = (0..requests)
        .map(|_| {
            let u = rng.gen::<f64>() * total;
            cumulative.partition_point(|&c| c < u).min(sessions - 1)
        })
        .collect();
    let mut counts = vec![0usize; sessions];
    for &s in &schedule {
        counts[s] += 1;
    }

    // Tiny per-session graphs (the experiment stresses session *count*, not
    // per-session size) with exactly as many batches as the schedule draws.
    let wls: Vec<workloads::TemporalWorkload> = counts
        .iter()
        .enumerate()
        .map(|(s, &c)| workloads::sliding_window_stream(12, 4, 3, c, 0xE15_0000 + s as u64))
        .collect();

    let dyn_config = DynamicConfig { eps: 0.2, p: 2.0, seed: 15 };
    let client_threads = 4usize;
    let workers = 4usize;

    let run = |store_dir: Option<PathBuf>| -> Result<E15Run, MwmError> {
        let capped = store_dir.is_some();
        let service = MatchingService::start(ServiceConfig {
            workers,
            session_defaults: dyn_config,
            max_resident_sessions: capped.then_some(cap),
            store_dir,
            ..Default::default()
        })?;
        for (s, wl) in wls.iter().enumerate() {
            service.create_session(&format!("s-{s}"), &wl.initial).map_err(serve_err)?;
        }

        // Client threads partition sessions by index, so each session's
        // batches arrive in schedule order while threads race freely.
        let start = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..client_threads)
                .map(|t| {
                    let service = &service;
                    let (schedule, wls) = (&schedule, &wls);
                    scope.spawn(move || {
                        let mut next = vec![0usize; sessions];
                        for &s in schedule.iter().filter(|&&s| s % client_threads == t) {
                            let batch = wls[s].batches[next[s]].clone();
                            next[s] += 1;
                            service.submit_batch(&format!("s-{s}"), batch)?;
                        }
                        Ok::<_, ServeError>(())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect::<Result<Vec<_>, _>>()
        })
        .map_err(serve_err)?;
        let secs = start.elapsed().as_secs_f64().max(1e-9);

        // Steady-state revive stats, captured before the verification sweep
        // below revives every hibernated session once more.
        let revives = service.revives();
        let mut revive_ms = service.revive_latencies_ms();
        revive_ms.sort_by(f64::total_cmp);
        let quantile = |q: f64| -> f64 {
            if revive_ms.is_empty() {
                return f64::NAN;
            }
            revive_ms[((revive_ms.len() - 1) as f64 * q).round() as usize]
        };
        let (revive_p50_ms, revive_p99_ms) = (quantile(0.50), quantile(0.99));

        let mut per_session = Vec::with_capacity(sessions);
        let mut weight_sum = 0.0;
        for s in 0..sessions {
            let name = format!("s-{s}");
            let snap = service.matching(&name).map_err(serve_err)?;
            let stats = service.session_stats(&name).map_err(serve_err)?;
            let checksum =
                session_checksum(snap.weight, snap.matching.iter().map(|(id, _, m)| (id, m)));
            per_session.push((snap.weight.to_bits(), checksum, stats.duals_checksum));
            weight_sum += snap.weight;
        }
        service.shutdown();
        Ok(E15Run {
            per_session,
            weight_sum,
            req_s: requests as f64 / secs,
            revives,
            revive_p50_ms,
            revive_p99_ms,
        })
    };

    let mut rep = ExperimentReport::new(
        "e15",
        format!(
            "session hibernation ({sessions} sessions, Zipf(1.0) activity, resident cap {cap})"
        ),
        vec![
            "mode",
            "sessions",
            "resident_cap",
            "requests",
            "req/s",
            "revives",
            "revive_p50_ms",
            "revive_p99_ms",
            "weight_sum",
            "checksum",
            "=resident",
        ],
    );

    let fold = |r: &E15Run| -> u64 {
        r.per_session
            .iter()
            .fold(0u64, |acc, &(_, cs, duals)| (acc.rotate_left(9) ^ cs).rotate_left(9) ^ duals)
    };
    let mut push = |mode: &str, resident_cap: usize, r: &E15Run, identical: bool| {
        rep.push_row(vec![
            mode.to_string(),
            format!("{sessions}"),
            format!("{resident_cap}"),
            format!("{requests}"),
            format!("{:.1}", r.req_s),
            format!("{}", r.revives),
            format!("{:.2}", r.revive_p50_ms),
            format!("{:.2}", r.revive_p99_ms),
            format!("{:.2}", r.weight_sum),
            format!("{:016x}", fold(r)),
            if identical { "yes" } else { "no" }.to_string(),
        ]);
    };

    // Reference row: every session resident for the whole run, no store.
    let resident = run(None)?;
    push("resident", sessions, &resident, true);

    // Capped row: same schedule under the cap; the store directory is torn
    // down afterwards whatever happened.
    let dir = std::env::temp_dir().join(format!("mwm-e15-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let capped = run(Some(dir.clone()));
    let _ = std::fs::remove_dir_all(&dir);
    let capped = capped?;
    let identical = capped.per_session == resident.per_session;
    push("capped", cap, &capped, identical);
    Ok(rep)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_sessions_are_bit_identical_to_serial_replay_at_every_worker_count() {
        let rep = e13_with(3, 80, 12, 2, 5).unwrap();
        assert_eq!(rep.rows.len(), 4, "one row per service worker count");
        let reference = rep.cell(0, "checksum").unwrap().to_string();
        for row in 0..rep.rows.len() {
            assert_eq!(rep.cell(row, "=serial"), Some("yes"), "row {row} diverged from serial");
            assert_eq!(
                rep.cell(row, "checksum"),
                Some(reference.as_str()),
                "row {row}: worker count changed a session result"
            );
        }
    }

    #[test]
    fn e15_capped_sessions_match_the_always_resident_run() {
        // 24 sessions over 4 workers with a service-wide cap of 4 → per-worker
        // cap 1, so eviction and transparent revive both genuinely happen.
        let rep = e15_with(24, 200, 4).unwrap();
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.cell(0, "mode"), Some("resident"));
        assert_eq!(rep.cell(1, "mode"), Some("capped"));
        let revives: usize = rep.cell(1, "revives").unwrap().parse().unwrap();
        assert!(revives > 0, "the resident cap must actually evict and revive");
        assert_eq!(
            rep.cell(1, "=resident"),
            Some("yes"),
            "a hibernated/revived session diverged from the always-resident oracle"
        );
        assert_eq!(rep.cell(0, "checksum"), rep.cell(1, "checksum"));
    }

    #[test]
    fn e14_spilled_row_matches_the_in_memory_checksum() {
        let rep = e14_with(1 << 14).unwrap();
        assert_eq!(rep.rows.len(), 2);
        assert_eq!(rep.cell(0, "mode"), Some("memory"));
        assert_eq!(rep.cell(1, "mode"), Some("spill"));
        let reference = rep.cell(0, "checksum").unwrap().to_string();
        for row in 0..2 {
            assert_eq!(rep.cell(row, "=memory"), Some("yes"), "row {row}");
            assert_eq!(rep.cell(row, "checksum"), Some(reference.as_str()), "row {row}");
        }
    }

    #[test]
    fn experiment_ids_dispatch() {
        let reports = run_experiment("e7").unwrap();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].id, "e7");
        assert!(reports[0].rows.len() >= 2);
        let err = run_experiment("e99").unwrap_err();
        assert!(matches!(err, MwmError::UnknownExperiment { .. }));
    }

    #[test]
    fn triangle_gadget_report_has_expected_shape() {
        let rep = e2_triangle_gadget().unwrap();
        assert_eq!(rep.rows.len(), 3);
        assert_eq!(rep.columns.len(), 5);
        // For tiny eps the solver matches the integral optimum exactly.
        assert_eq!(rep.cell(0, "solver_ratio"), Some("1.0000"));
    }

    #[test]
    fn e10_covering_reaches_the_theorem_5_stopping_point() {
        let rep = e10_lp_substrate().unwrap();
        assert_eq!(rep.rows.len(), 4);
        for row in 0..rep.rows.len() {
            assert_eq!(rep.cell(row, "outcome"), Some("feasible"), "row {row}");
            let eps: f64 = rep.cell(row, "eps").unwrap().parse().unwrap();
            let lambda: f64 = rep.cell(row, "lambda").unwrap().parse().unwrap();
            assert!(lambda >= 1.0 - 3.0 * eps, "row {row}: lambda {lambda} below 1-3eps");
            let iterations: usize = rep.cell(row, "iterations").unwrap().parse().unwrap();
            assert!(iterations > 0, "row {row}: the start point is below the target");
        }
    }

    #[test]
    fn width_experiment_shows_constant_penalty_width() {
        let rep = e7_width().unwrap();
        for row in 0..rep.rows.len() {
            assert_eq!(rep.cell(row, "penalty_width"), Some("6"), "row {row}");
        }
    }

    #[test]
    fn e5_covers_all_three_solvers_per_workload() {
        let rep = e5_baselines().unwrap();
        assert_eq!(rep.rows.len() % 3, 0);
        let solvers: Vec<_> = (0..3).filter_map(|r| rep.cell(r, "solver")).collect();
        assert_eq!(solvers, vec!["dual-primal", "lattanzi-filtering", "streaming-greedy"]);
    }

    /// Best multi-worker speedup of one E11 run, asserting the checksum
    /// column is identical across all worker counts.
    fn e11_best_speedup() -> f64 {
        let rep = e11_pass_throughput().unwrap();
        assert_eq!(rep.rows.len(), 4);
        let checksum0 = rep.cell(0, "checksum").unwrap().to_string();
        for row in 1..rep.rows.len() {
            assert_eq!(
                rep.cell(row, "checksum"),
                Some(checksum0.as_str()),
                "row {row}: multi-worker pass diverged from single-worker"
            );
        }
        (1..rep.rows.len())
            .filter_map(|r| rep.cell(r, "speedup"))
            .filter_map(|s| s.parse().ok())
            .fold(0.0, f64::max)
    }

    #[test]
    fn e12_sessions_are_bit_identical_and_warm_epochs_save_rounds() {
        let rep = e12_dynamic_stream().unwrap();
        assert_eq!(rep.rows.len(), 4);
        let checksum0 = rep.cell(0, "checksum").unwrap().to_string();
        for row in 1..rep.rows.len() {
            assert_eq!(
                rep.cell(row, "checksum"),
                Some(checksum0.as_str()),
                "row {row}: dynamic session diverged across worker counts"
            );
        }
        let warm_epochs: usize = rep.cell(0, "warm").unwrap().parse().unwrap();
        assert!(warm_epochs >= 2, "the stream must exercise the warm band");
        let repairs: usize = rep.cell(0, "repair").unwrap().parse().unwrap();
        assert!(repairs >= 1, "quiet epochs must exercise the repair band");
        let avg_warm: f64 = rep.cell(0, "avg_warm_rounds").unwrap().parse().unwrap();
        let cold: f64 = rep.cell(0, "cold_rounds").unwrap().parse().unwrap();
        assert!(
            avg_warm > 0.0 && avg_warm < cold,
            "warm epochs must use fewer rounds than a cold solve ({avg_warm} vs {cold})"
        );
        let ratio: f64 = rep.cell(0, "w/oracle").unwrap().parse().unwrap();
        assert!(ratio >= 0.6, "weight-vs-oracle ratio {ratio} below floor");
    }

    #[test]
    fn observability_does_not_change_experiment_checksums() {
        // The hard requirement of the metrics layer: every tap is
        // write-only, so enabling the registry (plus the recording span
        // subscriber) must not change a single output bit. E11 exercises
        // the pass engine, E12 the dynamic session (damage passes, repairs,
        // warm re-solves), E13 the full serving tier.
        fn checksums(rep: &ExperimentReport) -> Vec<String> {
            (0..rep.rows.len())
                .map(|row| rep.cell(row, "checksum").expect("checksum column").to_string())
                .collect()
        }
        fn run_all() -> Vec<String> {
            let mut out = checksums(&e11_pass_throughput().unwrap());
            out.extend(checksums(&e12_dynamic_stream().unwrap()));
            out.extend(checksums(&e13_with(2, 60, 10, 2, 4).unwrap()));
            out
        }
        mwm_obs::set_enabled(false);
        let disabled = run_all();
        mwm_obs::set_enabled(true);
        mwm_obs::install_recording_subscriber();
        let enabled = run_all();
        mwm_obs::set_enabled(false);
        assert!(!disabled.is_empty());
        assert_eq!(
            disabled, enabled,
            "enabling the metrics registry changed an experiment checksum"
        );
        // The enabled run must actually have recorded engine activity.
        let snap = mwm_obs::snapshot();
        assert!(snap.counter_family("pass_total") > 0, "enabled run recorded no passes");
    }

    #[test]
    fn e11_is_bit_identical_across_worker_counts_and_scales_with_cores() {
        let mut best = e11_best_speedup();
        // Wall-clock speedup needs actual spare cores; on multi-core hosts
        // (CI runners included) the best multi-worker row must clear 1.5×.
        // Timing is load-sensitive on shared runners, so retry once before
        // declaring a regression — a genuine serialization bug fails both.
        let cores = std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1);
        let threshold = if cores >= 4 {
            1.5
        } else if cores >= 2 {
            1.1
        } else {
            return; // single-core host: no spare cores, nothing to measure
        };
        if best < threshold {
            best = best.max(e11_best_speedup());
        }
        assert!(
            best >= threshold,
            "best multi-worker speedup {best} < {threshold} on {cores} cores"
        );
    }
}
