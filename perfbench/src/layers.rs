//! Per-layer metrics of a traced run, measured from outside the program:
//! solver statistics from the returned reports, spans and registry counters
//! recorded during the timed phase, and probes that time single layers'
//! public functions on the graphs the timed phase solved.

use crate::common::{self, mean, ms, quantile, touched_share, Outcome};
use crate::trace::{self, SpanRec};
use mwm_bench::workloads::TemporalWorkload;
use mwm_core::certificate::offline_b_matching;
use mwm_core::{ResourceBudget, SolveReport};
use mwm_dynamic::{DynamicConfig, DynamicMatcher, EpochDecision, EpochReport};
use mwm_graph::Graph;
use mwm_obs::MetricsSnapshot;
use mwm_sparsify::DeferredSparsifier;
use std::time::Instant;

/// Span, counter and registry state at the start of the timed phase.
pub struct Window {
    from: u64,
    registry: MetricsSnapshot,
}

/// What the engine recorded between [`Window::open`] and [`Window::close`].
pub struct Recorded {
    spans: Vec<SpanRec>,
    from: u64,
    to: u64,
    passes: u64,
    pass_edges: u64,
}

impl Window {
    pub fn open() -> Window {
        Window { from: trace::now(), registry: mwm_obs::snapshot() }
    }

    pub fn close(self) -> Recorded {
        let to = trace::now();
        let after = mwm_obs::snapshot();
        let before = &self.registry;
        Recorded {
            spans: trace::spans(),
            from: self.from,
            to,
            passes: after.counter_family("pass_total{") - before.counter_family("pass_total{"),
            pass_edges: after.counter("pass_edges_total") - before.counter("pass_edges_total"),
        }
    }
}

impl Recorded {
    pub fn named(&self, name: &str) -> Vec<SpanRec> {
        trace::named(&self.spans, name, self.from, self.to)
    }
}

/// Accumulates solver statistics, layer probes and input properties.
#[derive(Default)]
pub struct Layers {
    solves: usize,
    warm: usize,
    capped: usize,
    main_rounds: Vec<f64>,
    lambda: Vec<f64>,
    oracle_iters: Vec<f64>,
    primal_certificates: Vec<f64>,
    odd_set_updates: Vec<f64>,
    builds: Vec<f64>,
    stored: f64,
    stored_capacity: f64,
    /// Offline-substrate probe time times the solve's main rounds, per probed solve.
    offline_per_solve_ms: Vec<f64>,
    offline_call_ms: Vec<f64>,
    build_ms: Vec<f64>,
    space: Vec<f64>,
    vertices: Vec<f64>,
    edges: Vec<f64>,
    density: Vec<f64>,
    bipartite: Vec<f64>,
    touched: Vec<f64>,
}

impl Layers {
    /// Records one solve of the timed phase; `probe` also times the offline
    /// substrate and a deferred-sparsifier build on the solved graph.
    pub fn solve(&mut self, report: &SolveReport, graph: &Graph, probe: bool) {
        let stat = |name: &str| report.stat(name).unwrap_or(0.0);
        let main_rounds = stat("main_rounds");
        self.solves += 1;
        self.warm += usize::from(stat("warm_started") > 0.5);
        self.main_rounds.push(main_rounds);
        self.lambda.push(stat("lambda"));
        self.oracle_iters.push(report.oracle_iterations as f64);
        self.primal_certificates.push(stat("primal_certificates"));
        self.odd_set_updates.push(stat("odd_set_updates"));
        self.builds.push(stat("sparsifiers_built"));
        let (eps, p) = (stat("eps"), stat("p"));
        if eps > 0.0 && main_rounds >= (2.0 * p / eps).ceil() {
            self.capped += 1;
        }
        if main_rounds > 0.0 {
            let per_round = stat("sparsifiers_built") / main_rounds;
            self.stored += stat("sparsifier_edges_last_round");
            self.stored_capacity += per_round * graph.num_edges() as f64;
        }
        if probe && main_rounds > 0.0 {
            let clock = Instant::now();
            std::hint::black_box(offline_b_matching(std::hint::black_box(graph)));
            let call_ms = clock.elapsed().as_secs_f64() * 1e3;
            self.offline_call_ms.push(call_ms);
            self.offline_per_solve_ms.push(call_ms * main_rounds);
            // The solver's own parameters: chi = n^{1/(2p)} (at least 1.25),
            // xi = eps/4. A uniform promise stores what the solver's does
            // while every sampling probability is clamped to 1.
            let chi = (graph.num_vertices().max(2) as f64).powf(1.0 / (2.0 * p)).max(1.25);
            let promise = vec![1.0; graph.num_edges()];
            let clock = Instant::now();
            std::hint::black_box(DeferredSparsifier::build(graph, &promise, chi, eps / 4.0, 7));
            self.build_ms.push(clock.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// Records the peak central space of one solve or one session.
    pub fn space(&mut self, items: usize) {
        self.space.push(items as f64);
    }

    /// Records the input properties of the graph one op works on.
    pub fn input(&mut self, graph: &Graph, p: f64) {
        let n = graph.num_vertices() as f64;
        self.vertices.push(n);
        self.edges.push(graph.num_edges() as f64);
        self.density.push(graph.num_edges() as f64 / n.max(1.0).powf(1.0 + 1.0 / p));
        self.bipartite.push(if graph.bipartition().is_some() { 1.0 } else { 0.0 });
        self.touched.push(touched_share(graph));
    }

    /// Emits the core, sparsify, matching, mapreduce and input metrics.
    /// `op_ms` is the total latency of the timed phase's ops.
    pub fn emit(&self, out: &mut Outcome, rec: &Recorded, ops: usize, op_ms: f64) {
        let solve_spans = rec.named("solve");
        let solve_ms: Vec<f64> = solve_spans.iter().map(|s| s.nanos() as f64 / 1e6).collect();
        let share = |part: f64| if op_ms > 0.0 { part / op_ms } else { 0.0 };
        let per_solve =
            |n: usize| if self.solves > 0 { n as f64 / self.solves as f64 } else { 0.0 };
        out.metric("core.solve_p50_ms", quantile(&solve_ms, 0.5));
        out.metric("core.solve_share", share(trace::total_ms(&solve_spans)));
        out.metric("core.warm_share", per_solve(self.warm));
        out.metric("core.main_rounds", mean(&self.main_rounds));
        out.metric("core.round_cap_share", per_solve(self.capped));
        out.metric("core.lambda_final", mean(&self.lambda));
        out.metric("core.oracle_iters", mean(&self.oracle_iters));
        out.metric("core.primal_certificates", mean(&self.primal_certificates));
        out.metric("core.odd_set_updates", mean(&self.odd_set_updates));
        out.metric("core.space_peak_items", mean(&self.space));

        let stored_share =
            if self.stored_capacity > 0.0 { self.stored / self.stored_capacity } else { 0.0 };
        out.metric("sparsify.builds_per_solve", mean(&self.builds));
        out.metric("sparsify.build_ms", mean(&self.build_ms));
        out.metric("sparsify.stored_share", stored_share);

        out.metric("matching.offline_ms", mean(&self.offline_call_ms));
        out.metric("matching.offline_calls", mean(&self.main_rounds));
        // Only while every sparsifier stores every edge is the solver's
        // Step-5 union exactly the probed graph.
        if (stored_share - 1.0).abs() < 1e-12 {
            let estimated = mean(&self.offline_per_solve_ms) * self.solves as f64;
            out.metric("matching.offline_share", share(estimated));
        } else {
            println!("n/a: matching.offline_share (sparsify.stored_share = {stored_share:.4})");
        }

        let per_op = |n: u64| if ops > 0 { n as f64 / ops as f64 } else { 0.0 };
        out.metric("mapreduce.passes", per_op(rec.passes));
        out.metric("mapreduce.pass_edges", per_op(rec.pass_edges));
        out.metric("mapreduce.pass_share", share(trace::total_ms(&rec.named("pass"))));

        out.metric("input.vertices", mean(&self.vertices));
        out.metric("input.edges", mean(&self.edges));
        out.metric("input.density", mean(&self.density));
        out.metric("input.bipartite_share", mean(&self.bipartite));
        out.metric("input.touched_share", mean(&self.touched));
    }
}

/// Emits the dynamic-layer span metrics: the share of epoch time spent
/// outside solves.
pub fn emit_epoch_self_share(out: &mut Outcome, rec: &Recorded) {
    let epochs = rec.named("epoch");
    let total = trace::total_ms(&epochs);
    let own = trace::self_ms(&epochs, &rec.named("solve"));
    out.metric("dynamic.self_share", if total > 0.0 { own / total } else { 0.0 });
}

/// The dynamic layer's metrics over a set of epochs and their
/// `apply_epoch` latencies (timed directly, or in a serial replay).
pub fn emit_dynamic<'a>(
    out: &mut Outcome,
    epoch_ms: &[f64],
    reports: impl Iterator<Item = &'a EpochReport>,
) {
    let (mut repair, mut warm, mut rebuild, mut count) = (0usize, 0usize, 0usize, 0usize);
    let mut journal = Vec::new();
    for r in reports {
        count += 1;
        match r.stats.decision {
            EpochDecision::Repair => repair += 1,
            EpochDecision::WarmResolve => warm += 1,
            EpochDecision::Rebuild => rebuild += 1,
        }
        journal.push(r.stats.journal_bytes as f64);
    }
    let share = |k: usize| if count > 0 { k as f64 / count as f64 } else { 0.0 };
    out.metric("dynamic.epoch_p50_ms", quantile(epoch_ms, 0.5));
    out.metric("dynamic.epoch_p90_ms", quantile(epoch_ms, 0.9));
    out.metric("dynamic.repair_share", share(repair));
    out.metric("dynamic.warm_share", share(warm));
    out.metric("dynamic.rebuild_share", share(rebuild));
    out.metric("dynamic.journal_bytes", mean(&journal));
}

/// The serial replay of served sessions.
pub struct Replay {
    /// Per session, the `apply_epoch` time of each timed epoch, in order.
    pub epoch_ms: Vec<Vec<f64>>,
    /// The timed epochs' reports, session by session.
    pub reports: Vec<EpochReport>,
    /// The replayed sessions in their final state.
    pub sessions: Vec<DynamicMatcher>,
}

impl Replay {
    pub fn checksum(&self, s: usize) -> u64 {
        let dm = &self.sessions[s];
        common::session_checksum(dm.weight(), dm.matching())
    }
}

/// Replays every served session serially through `DynamicMatcher`: the
/// set-up's bootstrap epoch untimed, then `timed[s]` epochs timed one by
/// one. Each timed epoch's live graph feeds the layer probes.
pub fn replay_sessions(
    streams: &[TemporalWorkload],
    timed: &[usize],
    config: DynamicConfig,
    layers: &mut Layers,
) -> Result<Replay, String> {
    let budget = ResourceBudget::unlimited();
    let mut replay = Replay { epoch_ms: Vec::new(), reports: Vec::new(), sessions: Vec::new() };
    for (stream, &epochs) in streams.iter().zip(timed) {
        let mut dm = DynamicMatcher::new(&stream.initial, config).map_err(|e| e.to_string())?;
        dm.apply_epoch(&stream.batches[0], &budget).map_err(|e| e.to_string())?;
        let mut times = Vec::with_capacity(epochs);
        for batch in &stream.batches[1..=epochs] {
            let _span = mwm_obs::span!("bench.replay", op = replay.reports.len());
            let clock = Instant::now();
            let report = dm.apply_epoch(batch, &budget).map_err(|e| e.to_string())?;
            times.push(ms(clock.elapsed()));
            let graph = dm.current_graph();
            if let Some(solve) = &report.solve {
                layers.solve(solve, &graph, true);
            }
            layers.input(&graph, config.p);
            replay.reports.push(report);
        }
        layers.space(dm.tracker().peak_central_space());
        replay.epoch_ms.push(times);
        replay.sessions.push(dm);
    }
    Ok(replay)
}
