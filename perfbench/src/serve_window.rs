//! `serve_window`: closed-loop traffic into a `MatchingService` with one
//! worker, 8 sessions of E13-shaped sliding windows (n = 80, 10 inserts per
//! epoch, a window of 3). Each step of the loop sends a write to one session
//! and, right behind it, a `QueryWeight` read of a session drawn on its own,
//! then waits for both. The worker is busy for the whole run: an open loop that left it
//! idle between requests (one twentieth busy) woke it cold for each one,
//! and on a shared 2-vCPU host its write median then moved by up to a third
//! between runs of the same code.
//!
//! The service keeps a session store with no resident cap: every committed
//! epoch is appended to its session's journal, and each session's image is
//! written when it is created and again at shutdown. No session hibernates
//! during the timed phase. With half the sessions resident, each revive and
//! its eviction sweep's synced image write put the shared virtual disk on
//! the served path: `ops_per_s` on one seed then ranged from 117 to 156
//! between runs, against 139 to 153 without a store. The store lives in a
//! scratch directory inside the working directory, unique per run and
//! removed on every exit path.
//!
//! The sessions and the order of steps are drawn from the seed. The windows
//! are sparse bipartite unions with n ≤ 600, which the offline substrate
//! sends to its dense Hungarian solver sized over all n vertices: that
//! substrate takes about 0.6 of each write's latency here. The reads queued behind
//! writes show the head-of-line wait a slower write imposes.

use crate::common::{
    self, mix, ms, quantile, repeat_setup, Args, Outcome, ScratchDir, WeightRatio,
};
use crate::layers::{self, emit_dynamic, replay_sessions, Layers, Window};
use mwm_bench::workloads::{sliding_window_stream, TemporalWorkload};
use mwm_dynamic::{DynamicConfig, DynamicMatcher};
use mwm_persist::SessionStore;
use mwm_serve::{MatchingService, Request, Response, ServiceConfig, Ticket};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

const N: usize = 80;
const PER_EPOCH: usize = 10;
const WINDOW: usize = 3;
const SESSIONS: usize = 8;
/// Times each replayed session is saved and loaded by the persistence probe.
const PERSIST_REPS: usize = 5;
/// Steps drawn per second of the run: about three times the rate this
/// workload reaches, so the schedule outlasts the run.
const MAX_STEPS_PER_S: f64 = 200.0;

/// One step of the closed loop: a write, then a read queued behind it.
#[derive(Clone, Copy)]
struct Step {
    /// The written session and the epoch `k` (k ≥ 1) the write commits.
    write: (usize, usize),
    /// The read session and the number of epochs it has committed by then.
    read: (usize, usize),
}

struct Setup {
    schedule: Vec<Step>,
    streams: Vec<TemporalWorkload>,
    bootstrap_weights: Vec<f64>,
    // Declared before `dir`: the service checkpoints on shutdown, then the
    // store directory goes.
    service: MatchingService,
    dir: ScratchDir,
}

fn name(s: usize) -> String {
    format!("window-{s}")
}

fn config() -> DynamicConfig {
    DynamicConfig { eps: 0.2, p: 2.0, seed: 5, ..Default::default() }
}

fn setup(args: &Args) -> Result<Setup, String> {
    let mut rng = StdRng::seed_from_u64(mix(args.seed, 0x5E5));
    let steps = (MAX_STEPS_PER_S * args.seconds).ceil() as usize;
    let mut committed = [1usize; SESSIONS];
    let schedule: Vec<Step> = (0..steps)
        .map(|_| {
            let w = rng.gen_range(0..SESSIONS);
            committed[w] += 1;
            let r = rng.gen_range(0..SESSIONS);
            Step { write: (w, committed[w] - 1), read: (r, committed[r]) }
        })
        .collect();
    let streams: Vec<TemporalWorkload> = (0..SESSIONS)
        .map(|s| {
            sliding_window_stream(
                N,
                PER_EPOCH,
                WINDOW,
                committed[s],
                mix(args.seed, 0x5E55 + s as u64),
            )
        })
        .collect();

    let dir = ScratchDir::new("serve_window")?;
    let service = MatchingService::start(ServiceConfig {
        workers: 1,
        parallelism: 1,
        session_defaults: config(),
        store_dir: Some(dir.path().to_path_buf()),
        ..Default::default()
    })
    .map_err(|e| e.to_string())?;
    let mut bootstrap_weights = Vec::with_capacity(SESSIONS);
    for (s, stream) in streams.iter().enumerate() {
        service.create_session(&name(s), &stream.initial).map_err(|e| e.to_string())?;
        let stats =
            service.submit_batch(&name(s), stream.batches[0].clone()).map_err(|e| e.to_string())?;
        bootstrap_weights.push(stats.weight);
    }
    Ok(Setup { schedule, streams, bootstrap_weights, service, dir })
}

/// What the timed phase observed.
#[derive(Default)]
struct Observed {
    /// (session, k, latency ms, committed weight) of every committed write.
    writes: Vec<(usize, usize, f64, f64)>,
    write_rounds: Vec<f64>,
    reads_ms: Vec<f64>,
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let (setup, setup_s) = repeat_setup(|| setup(args))?;
    let Setup { schedule, streams, bootstrap_weights, service, dir } = setup;

    let mut out = Outcome::default();
    let mut seen = Observed::default();
    let mut last_weight = bootstrap_weights;
    let window = args.trace.then(Window::open);
    let start = Instant::now();
    let deadline = start + args.duration();
    for (i, step) in schedule.iter().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let ((w, k), (r, epochs)) = (step.write, step.read);
        let write =
            Request::SubmitBatch { session: name(w), updates: streams[w].batches[k].clone() };
        let read = Request::QueryWeight { session: name(r) };
        out.attempted += 2;
        // Both ops are timed from one instant before either is sent: once
        // the worker wakes, it may run on the client's CPU before the read
        // goes out.
        let write_span = mwm_obs::span!("bench.write", op = 2 * i);
        let read_span = mwm_obs::span!("bench.read", op = 2 * i + 1);
        let sent = Instant::now();
        let write = service.try_submit(write);
        let read = service.try_submit(read);

        let result = write.and_then(Ticket::wait);
        let latency = ms(sent.elapsed());
        drop(write_span);
        match result {
            Ok(Response::EpochApplied { stats }) if stats.epoch == k => {
                last_weight[w] = stats.weight;
                seen.writes.push((w, k, latency, stats.weight));
                seen.write_rounds.push(stats.epoch_rounds as f64);
            }
            other => out.violation(format!("write {k} to session {w}: {other:?}")),
        }
        let result = read.and_then(Ticket::wait);
        let latency = ms(sent.elapsed());
        drop(read_span);
        match result {
            Ok(Response::Weight { epoch, weight, .. })
                if epoch == epochs && weight.to_bits() == last_weight[r].to_bits() =>
            {
                seen.reads_ms.push(latency);
            }
            other => out.violation(format!("read of session {r}: {other:?}")),
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    let recorded = window.map(Window::close);
    let completed = seen.writes.len() + seen.reads_ms.len();

    let writes_per_session: Vec<usize> =
        (0..SESSIONS).map(|s| seen.writes.iter().filter(|w| w.0 == s).count()).collect();
    let mut served = Vec::with_capacity(SESSIONS);
    let mut bounds = Vec::with_capacity(SESSIONS);
    for (s, stream) in streams.iter().enumerate() {
        let committed = 1 + writes_per_session[s];
        bounds.push(common::epoch_bounds(&stream.initial, &stream.batches, 1, committed));
        // The committed view, read beside the worker's queue.
        match service.view(&name(s)).map(|v| v.load()) {
            Some(snap) if snap.epoch == committed => {
                let overlay = common::replay_overlay(&stream.initial, &stream.batches[..committed]);
                if let Err(e) = common::check_session(&overlay, &snap.matching) {
                    out.violation(format!("session {s}: {e}"));
                }
                served.push(common::session_checksum(snap.weight, &snap.matching));
            }
            other => {
                out.violation(format!("session {s}: final snapshot {:?}", other.map(|s| s.epoch)));
                served.push(0);
            }
        }
    }
    let mut ratio = WeightRatio::default();
    for &(s, k, _, weight) in &seen.writes {
        ratio.add(&mut out, || format!("session {s} epoch {k}"), weight, bounds[s][k - 1]);
    }
    let write_ms: Vec<f64> = seen.writes.iter().map(|w| w.2).collect();

    out.metric("setup_s", setup_s);
    out.metric("ops_per_s", completed as f64 / elapsed);
    out.metric("latency_p50_ms", quantile(&write_ms, 0.5));
    out.metric("latency_p90_ms", quantile(&write_ms, 0.9));
    out.metric("weight_ratio", ratio.ratio());
    out.metric("rounds_per_op", common::mean(&seen.write_rounds));
    out.metric("peak_rss_mb", common::peak_rss_mb());
    out.metric("serve.read_p50_ms", quantile(&seen.reads_ms, 0.5));
    out.metric("serve.read_p90_ms", quantile(&seen.reads_ms, 0.9));

    if let Some(rec) = recorded {
        let store = SessionStore::open(dir.path()).map_err(|e| e.to_string())?;
        let mut wal_records = 0usize;
        for s in 0..SESSIONS {
            wal_records += store.journal(&name(s)).map_err(|e| e.to_string())?.len();
        }
        out.metric("persist.store_bytes", dir.bytes() as f64);
        out.metric("persist.wal_records", wal_records as f64);

        let mut layers = Layers::default();
        let replay = replay_sessions(&streams, &writes_per_session, config(), &mut layers)?;
        for (s, &checksum) in served.iter().enumerate() {
            if replay.checksum(s) != checksum {
                out.violation(format!("session {s} differs from its serial replay"));
            }
        }
        let overhead: Vec<f64> = seen
            .writes
            .iter()
            .map(|&(s, k, latency, _)| latency - replay.epoch_ms[s][k - 1])
            .collect();
        out.metric("serve.overhead_p50_ms", quantile(&overhead, 0.5));
        out.metric("serve.overhead_p90_ms", quantile(&overhead, 0.9));
        layers.emit(&mut out, &rec, seen.writes.len(), write_ms.iter().sum());
        let flat: Vec<f64> = replay.epoch_ms.iter().flatten().copied().collect();
        emit_dynamic(&mut out, &flat, replay.reports.iter());
        layers::emit_epoch_self_share(&mut out, &rec);
        persist_probe(&mut out, &replay.sessions)?;
    }
    service.shutdown();
    drop(dir);
    Ok(out)
}

/// Times `SessionStore::save` and `load` on every replayed session, in a
/// store of its own, and checks each load revives the saved state bit for
/// bit.
fn persist_probe(out: &mut Outcome, sessions: &[DynamicMatcher]) -> Result<(), String> {
    let dir = ScratchDir::new("persist_probe")?;
    let mut store = SessionStore::open(dir.path()).map_err(|e| e.to_string())?;
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    for _ in 0..PERSIST_REPS {
        for (s, dm) in sessions.iter().enumerate() {
            let _span = mwm_obs::span!("bench.persist", op = s);
            let clock = Instant::now();
            store.save(&name(s), dm).map_err(|e| e.to_string())?;
            save_ms.push(ms(clock.elapsed()));
            let clock = Instant::now();
            let (loaded, _) = store.load(&name(s)).map_err(|e| e.to_string())?;
            load_ms.push(ms(clock.elapsed()));
            let saved = common::session_checksum(dm.weight(), dm.matching());
            if common::session_checksum(loaded.weight(), loaded.matching()) != saved {
                out.violation(format!("session {s} changed across save and load"));
            }
        }
    }
    out.metric("persist.save_p50_ms", quantile(&save_ms, 0.5));
    out.metric("persist.load_p50_ms", quantile(&load_ms, 0.5));
    Ok(())
}
