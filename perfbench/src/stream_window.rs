//! `stream_window`: sliding-window sessions driven epoch by epoch through
//! `DynamicMatcher::apply_epoch` on one thread, with no serving tier.
//!
//! E12's stream shape: n = 800, 60 inserts per epoch, a window of 4 full
//! epochs, 12 epochs per session, sessions run back to back. The live
//! unions are sparse with n > 600, so the offline substrate takes its
//! greedy + local-search route and stays a small share of each epoch. A
//! change that speeds up `serve_window`'s dense Hungarian route by routing
//! these unions there too would show up here as slower epochs.

use crate::common::{self, mix, ms, quantile, repeat_setup, Args, Outcome, WeightRatio};
use crate::layers::{self, emit_dynamic, Layers, Window};
use mwm_bench::workloads::{sliding_window_stream, TemporalWorkload};
use mwm_core::ResourceBudget;
use mwm_dynamic::{DynamicConfig, DynamicMatcher, EpochReport};
use mwm_graph::GraphOverlay;
use std::time::Instant;

const N: usize = 800;
const PER_EPOCH: usize = 60;
const WINDOW: usize = 4;
const EPOCHS: usize = 12;

pub fn run(args: &Args) -> Result<Outcome, String> {
    let config = DynamicConfig { eps: 0.2, p: 2.0, seed: 5, ..Default::default() };
    let budget = ResourceBudget::unlimited();
    // About two sessions' worth of timed epochs per second here; the pool
    // leaves room for a machine about 1.4 times as fast before it runs out.
    let pool = (args.seconds * 3.0).ceil() as usize + 4;
    let (mut sessions, setup_s) = repeat_setup(|| {
        (0..pool)
            .map(|s| {
                let stream =
                    sliding_window_stream(N, PER_EPOCH, WINDOW, EPOCHS, mix(args.seed, s as u64));
                let mut dm =
                    DynamicMatcher::new(&stream.initial, config).map_err(|e| e.to_string())?;
                dm.apply_epoch(&stream.batches[0], &budget).map_err(|e| e.to_string())?;
                Ok((stream, dm))
            })
            .collect::<Result<Vec<(TemporalWorkload, DynamicMatcher)>, String>>()
    })?;

    let mut out = Outcome::default();
    let mut latencies = Vec::new();
    // (session, epoch index, report) of every timed epoch. Untraced runs
    // drop the solver report, so peak memory does not grow with speed.
    let mut epochs: Vec<(usize, usize, EpochReport)> = Vec::new();
    let mut applied = vec![1usize; sessions.len()];
    let window = args.trace.then(Window::open);
    let start = Instant::now();
    let deadline = start + args.duration();
    'sessions: for (s, (stream, dm)) in sessions.iter_mut().enumerate() {
        for (e, batch) in stream.batches.iter().enumerate().skip(1) {
            if Instant::now() >= deadline {
                break 'sessions;
            }
            out.attempted += 1;
            let _span = mwm_obs::span!("bench.epoch", op = epochs.len());
            let clock = Instant::now();
            let result = dm.apply_epoch(batch, &budget);
            latencies.push(ms(clock.elapsed()));
            match result {
                Ok(mut report) => {
                    applied[s] = e + 1;
                    if !args.trace {
                        report.solve = None;
                    }
                    epochs.push((s, e, report));
                }
                Err(err) => {
                    out.violation(format!("session {s} epoch {e}: {err}"));
                    break;
                }
            }
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let recorded = window.map(Window::close);
    let touched = epochs.last().map_or(0, |&(s, _, _)| s + 1);

    let mut bounds = Vec::with_capacity(touched);
    for (s, (stream, dm)) in sessions.iter().enumerate().take(touched) {
        let overlay = common::replay_overlay(&stream.initial, &stream.batches[..applied[s]]);
        if let Err(e) = common::check_session(&overlay, dm.matching()) {
            out.violation(format!("session {s}: {e}"));
        }
        bounds.push(common::epoch_bounds(&stream.initial, &stream.batches, 1, applied[s]));
    }
    let mut ratio = WeightRatio::default();
    for (s, e, report) in &epochs {
        ratio.add(
            &mut out,
            || format!("session {s} epoch {e}"),
            report.stats.weight,
            bounds[*s][e - 1],
        );
    }
    let rounds: Vec<f64> = epochs.iter().map(|(_, _, r)| r.stats.epoch_rounds as f64).collect();

    out.metric("setup_s", setup_s);
    out.metric("ops_per_s", epochs.len() as f64 / elapsed);
    out.metric("latency_p50_ms", quantile(&latencies, 0.5));
    out.metric("latency_p90_ms", quantile(&latencies, 0.9));
    out.metric("weight_ratio", ratio.ratio());
    out.metric("rounds_per_op", common::mean(&rounds));
    out.metric("peak_rss_mb", common::peak_rss_mb());

    if let Some(rec) = recorded {
        let mut layers = Layers::default();
        let mut overlays: Vec<Option<GraphOverlay>> = vec![None; touched];
        for (s, e, report) in &epochs {
            let stream = &sessions[*s].0;
            let overlay = overlays[*s].get_or_insert_with(|| {
                common::replay_overlay(&stream.initial, &stream.batches[..1])
            });
            for update in &stream.batches[*e] {
                let _ = overlay.apply(update);
            }
            let (graph, _) = overlay.materialize();
            if let Some(solve) = &report.solve {
                layers.solve(solve, &graph, true);
            }
            layers.input(&graph, config.p);
        }
        for (_, dm) in sessions.iter().take(touched) {
            layers.space(dm.tracker().peak_central_space());
        }
        layers.emit(&mut out, &rec, epochs.len(), latencies.iter().sum());
        emit_dynamic(&mut out, &latencies, epochs.iter().map(|(_, _, r)| r));
        layers::emit_epoch_self_share(&mut out, &rec);
    }
    Ok(out)
}
