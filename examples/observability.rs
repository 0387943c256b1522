//! The observability layer end to end: metrics registry, span tracing, and
//! the `Metrics` wire request.
//!
//! Enables the global `mwm_obs` registry plus the recording span subscriber,
//! drives a dynamic session and a served deployment, and scrapes the
//! process-wide counters twice — once in-process, once over a live socket
//! through `NetClient::metrics` (the request every worker-saturated server
//! still answers, because the connection thread serves it directly).
//!
//! Metrics are write-only taps: the final assertion replays the same stream
//! with the registry disabled and checks the session weight is bit-identical.
//!
//! ```bash
//! cargo run --release --example observability
//! ```

use dual_primal_matching::engine::{MatchingService, NetClient, ServiceConfig, SocketServer};
use dual_primal_matching::obs;
use dual_primal_matching::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::Arc;

const N: usize = 60;
const M: usize = 200;

fn base_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(N, M, generators::WeightModel::Uniform(1.0, 9.0), &mut rng)
}

/// Deterministic per-round update batch.
fn batch(round: usize) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(900 + round as u64);
    (0..12)
        .map(|_| {
            if rng.gen_bool(0.7) {
                GraphUpdate::InsertEdge {
                    u: rng.gen_range(0..N as u32),
                    v: rng.gen_range(0..N as u32),
                    w: rng.gen_range(1.0..9.0),
                }
            } else {
                GraphUpdate::ReweightEdge { id: rng.gen_range(0..M), w: rng.gen_range(1.0..9.0) }
            }
        })
        .filter(|u| !matches!(u, GraphUpdate::InsertEdge { u, v, .. } if u == v))
        .collect()
}

fn run_session() -> Result<f64, MwmError> {
    let config = DynamicConfig { eps: 0.2, p: 2.0, seed: 21 };
    let mut dm = DynamicMatcher::new(&base_graph(7), config)?;
    for round in 0..5 {
        dm.apply_epoch(&batch(round), &ResourceBudget::unlimited())?;
    }
    Ok(dm.weight())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. Switch the process-wide registry (and span recording) on ---
    obs::set_enabled(true);
    obs::install_recording_subscriber();

    // --- 2. Drive a dynamic session; the engine records itself ---
    let weight_observed = run_session()?;
    let snap = obs::snapshot();
    println!("after 5 epochs (weight {weight_observed:.3}):");
    println!("  passes        {}", snap.counter_family("pass_total"));
    println!("  edges streamed {}", snap.counter("pass_edges_total"));
    println!("  epochs         {}", snap.counter_family("dynamic_epochs_total"));
    assert!(snap.counter_family("pass_total") > 0, "the epochs must have run engine passes");
    assert!(snap.counter_family("dynamic_epochs_total") >= 5);

    // --- 3. A served deployment scraped over a live socket ---
    let service = Arc::new(MatchingService::start(ServiceConfig {
        workers: 2,
        session_defaults: DynamicConfig { eps: 0.2, p: 2.0, seed: 21 },
        ..Default::default()
    })?);
    let path = std::env::temp_dir().join(format!("mwm-obs-{}.sock", std::process::id()));
    let server = SocketServer::bind_uds(Arc::clone(&service), &path)?;
    let mut client = NetClient::connect_uds(&path)?;
    client.create_session("obs-demo", &base_graph(7))?;
    for round in 0..3 {
        client.submit_batch("obs-demo", &batch(round))?;
    }
    service.publish_metrics(obs::global());

    let wire = client.metrics()?;
    println!("\nscraped {} metrics over the socket:", wire.len());
    for line in wire.render_text().lines() {
        if line.starts_with("serve_") || line.starts_with("net_") {
            println!("  {line}");
        }
    }
    assert!(wire.counter("net_requests_total") > 0);
    assert!(wire.counter("serve_requests_total") > 0);
    assert_eq!(wire.gauge("serve_sessions"), 1);
    drop(client);
    server.shutdown();
    std::fs::remove_file(&path).ok();

    // --- 4. Metrics are write-only: disabling them changes no output bit ---
    obs::set_enabled(false);
    let weight_dark = run_session()?;
    assert_eq!(
        weight_observed.to_bits(),
        weight_dark.to_bits(),
        "the registry must never feed back into the solver"
    );
    println!("\nreplayed the stream with metrics off: weight bit-identical ✓");
    Ok(())
}
