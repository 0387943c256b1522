//! `solve_dense`: closed-loop batch solves of dense gnm graphs on one thread.
//!
//! m = 8000 on n = 150 is about 4.4·n^{1.5}, the paper's m ≫ n^{1+1/p}
//! setting (p = 2). Sparsifier builds, support reveal, the oracle and the
//! passes do the work; the offline substrate takes its local-search route
//! and only a few percent of a solve. This is the workload a change to the
//! dual-primal loop or to sparsification moves, and one that a change to
//! the offline substrate's Hungarian route should leave alone.

use crate::common::{self, mix, ms, quantile, repeat_setup, Args, Outcome, WeightRatio};
use crate::layers::{Layers, Window};
use mwm_core::{DualPrimalConfig, DualPrimalSolver, MatchingSolver, ResourceBudget};
use mwm_graph::generators::{self, WeightModel};
use mwm_graph::Graph;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const N: usize = 150;
const M: usize = 8000;

pub fn run(args: &Args) -> Result<Outcome, String> {
    // Enough distinct graphs that one is never solved twice in a run on a
    // machine up to about three times faster than this workload was sized on.
    let pool = (args.seconds * 3.0).ceil() as usize + 8;
    let (graphs, setup_s) = repeat_setup(|| {
        Ok((0..pool)
            .map(|i| {
                let mut rng = StdRng::seed_from_u64(mix(args.seed, 0x501E + i as u64));
                generators::gnm(N, M, WeightModel::Uniform(1.0, 10.0), &mut rng)
            })
            .collect::<Vec<Graph>>())
    })?;
    let config = DualPrimalConfig::default();
    let solver = DualPrimalSolver::new(config).map_err(|e| e.to_string())?;
    let budget = ResourceBudget::unlimited();

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    let mut reports = Vec::new();
    let window = args.trace.then(Window::open);
    let start = Instant::now();
    let deadline = start + args.duration();
    while Instant::now() < deadline {
        let i = reports.len();
        let graph = &graphs[i % graphs.len()];
        out.attempted += 1;
        let _span = mwm_obs::span!("bench.solve", op = i);
        let clock = Instant::now();
        let result = solver.solve(graph, &budget);
        latencies.push(ms(clock.elapsed()));
        match result {
            Ok(report) => reports.push((i % graphs.len(), report)),
            Err(e) => {
                out.violation(format!("solve {i}: {e}"));
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let recorded = window.map(Window::close);

    let mut ratio = WeightRatio::default();
    for (g, report) in &reports {
        match common::check_matching(&graphs[*g], &report.matching) {
            Ok((w, ub)) if w.to_bits() == report.weight.to_bits() => {
                ratio.add(&mut out, || format!("solve on graph {g}"), w, ub)
            }
            Ok((w, _)) => {
                out.violation(format!("report weight {} != matching weight {w}", report.weight))
            }
            Err(e) => {
                out.violation(format!("solve on graph {g}: {e}"));
            }
        }
    }
    let rounds: Vec<f64> = reports.iter().map(|(_, r)| r.rounds() as f64).collect();

    out.metric("setup_s", setup_s);
    out.metric("ops_per_s", reports.len() as f64 / elapsed);
    out.metric("latency_p50_ms", quantile(&latencies, 0.5));
    out.metric("latency_p90_ms", quantile(&latencies, 0.9));
    out.metric("weight_ratio", ratio.ratio());
    out.metric("rounds_per_op", common::mean(&rounds));
    out.metric("peak_rss_mb", common::peak_rss_mb());

    if let Some(rec) = recorded {
        let mut layers = Layers::default();
        let mut probed = vec![false; graphs.len()];
        for (g, report) in &reports {
            layers.solve(report, &graphs[*g], !probed[*g]);
            layers.space(report.peak_central_space());
            layers.input(&graphs[*g], config.p);
            probed[*g] = true;
        }
        layers.emit(&mut out, &rec, reports.len(), latencies.iter().sum());
    }
    Ok(out)
}
