//! Multi-session serving over `MatchingService`.
//!
//! Demonstrates the serving layer: a worker pool multiplexing several named
//! matching sessions, concurrent client threads submitting update batches,
//! queue-bypassing snapshot reads through `CommittedView`, per-session
//! statistics, and the service-wide streamed-items admission pool.
//!
//! ```bash
//! cargo run --release --example serving
//! ```

use dual_primal_matching::engine::{MatchingService, ServeError, ServiceConfig};
use dual_primal_matching::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn update_batch(rng: &mut StdRng, n: usize, next_id: usize, size: usize) -> Vec<GraphUpdate> {
    (0..size)
        .map(|_| {
            if rng.gen_bool(0.6) {
                GraphUpdate::InsertEdge {
                    u: rng.gen_range(0..n as u32),
                    v: rng.gen_range(0..n as u32),
                    w: rng.gen_range(1.0..9.0),
                }
            } else {
                GraphUpdate::DeleteEdge { id: rng.gen_range(0..next_id.max(1)) }
            }
        })
        .collect()
}

fn main() {
    // --- 1. A service: 4 workers, sessions sharded by name ---
    let config = ServiceConfig {
        workers: 4,
        session_defaults: DynamicConfig { eps: 0.2, p: 2.0, seed: 7 },
        ..Default::default()
    };
    let service = MatchingService::start(config).expect("valid service config");
    println!("service up: {} workers, bounded queues, session-affinity sharding", 4);

    // Three tenants, each with its own evolving graph.
    let tenants = ["ads", "rides", "swipes"];
    let mut rng = StdRng::seed_from_u64(42);
    for name in tenants {
        let base = generators::gnm(120, 480, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
        service.create_session(name, &base).expect("fresh session name");
    }

    // --- 2. Concurrent clients: one thread per tenant, plus a reader ---
    // The reader polls committed views the whole time; it never waits behind
    // a submit and never sees a mid-epoch state.
    let stop = Arc::new(AtomicBool::new(false));
    let reader = {
        let views: Vec<_> =
            tenants.iter().map(|t| (*t, service.view(t).expect("registered view"))).collect();
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut loads = 0usize;
            while !stop.load(Ordering::Relaxed) {
                for (_, view) in &views {
                    let snap = view.load();
                    // Internal consistency of every observed snapshot.
                    assert_eq!(snap.weight.to_bits(), snap.matching.weight().to_bits());
                    loads += 1;
                }
            }
            loads
        })
    };

    std::thread::scope(|scope| {
        for (i, name) in tenants.iter().enumerate() {
            let service = &service;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1000 + i as u64);
                let mut next_id = 480usize;
                // Bootstrap, then a stream of epochs.
                service.submit_batch(name, Vec::new()).expect("bootstrap epoch");
                for _ in 0..5 {
                    let batch = update_batch(&mut rng, 120, next_id, 24);
                    next_id += batch
                        .iter()
                        .filter(|u| matches!(u, GraphUpdate::InsertEdge { .. }))
                        .count();
                    service.submit_batch(name, batch).expect("epoch");
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);
    let loads = reader.join().expect("reader thread");

    // --- 3. Per-session statistics ---
    println!("\nper-session state after the streams ({loads} concurrent snapshot reads):");
    let mut total_items = 0usize;
    for name in tenants {
        let s = service.session_stats(name).expect("live session");
        total_items += s.items_streamed;
        println!(
            "  {:>6}: epochs {:>2} | weight {:>8.2} | edges {:>3} | repair/warm/rebuild {}/{}/{} \
             | items {:>7}",
            s.session,
            s.epochs,
            s.weight,
            s.matching_edges,
            s.repairs,
            s.warm_resolves,
            s.rebuilds,
            s.items_streamed,
        );
    }
    println!(
        "service totals: {} requests served, {total_items} items streamed across sessions",
        service.requests_served(),
    );
    service.shutdown();

    // --- 4. Admission control: a service-wide streamed-items pool ---
    let pooled = MatchingService::start(ServiceConfig {
        workers: 2,
        max_streamed_items: Some(200_000),
        session_defaults: DynamicConfig { eps: 0.2, p: 2.0, seed: 7 },
        ..Default::default()
    })
    .expect("valid service config");
    let base = generators::gnm(150, 700, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
    pooled.create_session("tenant-a", &base).expect("session");
    pooled.create_session("tenant-b", &base).expect("session");
    let mut rng2 = StdRng::seed_from_u64(9);
    let mut accepted = 0usize;
    'outer: for round in 0..200 {
        for tenant in ["tenant-a", "tenant-b"] {
            match pooled.submit_batch(tenant, update_batch(&mut rng2, 150, 700, 40)) {
                Ok(_) => accepted += 1,
                Err(ServeError::Engine(_)) => { /* pool interrupt: epoch rolled back */ }
                Err(ServeError::AdmissionDenied { used, limit }) => {
                    println!(
                        "\nadmission pool: {accepted} epochs accepted over both tenants, then \
                         denied at round {round} ({used} of {limit} items used)"
                    );
                    break 'outer;
                }
                Err(other) => panic!("unexpected serve error: {other}"),
            }
        }
    }
    assert!(pooled.pool_limit().is_some());
    pooled.shutdown();
}
