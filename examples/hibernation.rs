//! Session hibernation, crash recovery, and the socket front door.
//!
//! Demonstrates the persistence layer end to end: explicit hibernate →
//! revive through a checksummed `SessionImage`, a `MatchingService` holding
//! far more named sessions than its resident cap (LRU overflow hibernates to
//! disk and revives transparently on the next request), crash recovery from
//! checkpoint + write-ahead journal, and a Unix-domain `SocketServer` /
//! `NetClient` pair speaking the length-prefixed wire protocol.
//!
//! ```bash
//! cargo run --release --example hibernation
//! ```

use dual_primal_matching::engine::{
    MatchingService, NetClient, ServeError, ServiceConfig, SessionImage, SocketServer,
};
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

fn session_config() -> DynamicConfig {
    DynamicConfig { eps: 0.2, p: 2.0, seed: 21 }
}

/// Deterministic per-(session, round) update batch.
fn batch(session: usize, round: usize) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(500 + 97 * session as u64 + round as u64);
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
        .collect()
}

fn main() {
    let dir = std::env::temp_dir().join(format!("mwm-hibernation-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // --- 1. A session image: hibernate, inspect, revive, bit-identical ---
    let mut dm = DynamicMatcher::new(&base_graph(1), session_config()).expect("valid config");
    for round in 0..4 {
        dm.apply_epoch(&batch(0, round), &ResourceBudget::unlimited()).expect("epoch");
    }
    let image = SessionImage::from_session(&dm).expect("session fits the image codec");
    println!(
        "session image: {} payload bytes, checksum {:016x}",
        image.payload_len(),
        image.checksum()
    );
    let revived = image.restore().expect("revive");
    assert_eq!(revived.weight().to_bits(), dm.weight().to_bits());
    println!(
        "revived session: weight {:.3} (bit-identical), {} epochs\n",
        revived.weight(),
        revived.epochs()
    );

    // --- 2. More sessions than memory: a resident cap with LRU eviction ---
    // 12 sessions, at most 4 resident: the service checkpoints every session
    // at birth and transparently revives hibernated ones on their next
    // request. No caller ever sees the difference.
    let config = || ServiceConfig {
        workers: 2,
        session_defaults: session_config(),
        store_dir: Some(dir.clone()),
        max_resident_sessions: Some(4),
        ..Default::default()
    };
    let service = MatchingService::start(config()).expect("valid service config");
    let sessions = 12usize;
    for s in 0..sessions {
        service.create_session(&format!("tenant-{s}"), &base_graph(s as u64)).expect("create");
    }
    for round in 0..3 {
        for s in 0..sessions {
            service.submit_batch(&format!("tenant-{s}"), batch(s, round)).expect("epoch");
        }
    }
    let latencies = service.revive_latencies_ms();
    let avg = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    println!(
        "capped service: {} sessions, cap 4, {} revives (avg {:.3} ms) — every query still \
         answers from full session state",
        sessions,
        service.revives(),
        avg
    );
    // Spot-check one tenant against a serial replay that never hibernated.
    let mut oracle = DynamicMatcher::new(&base_graph(5), session_config()).expect("oracle");
    for round in 0..3 {
        oracle.apply_epoch(&batch(5, round), &ResourceBudget::unlimited()).expect("oracle epoch");
    }
    let snap = service.matching("tenant-5").expect("query");
    assert_eq!(snap.weight.to_bits(), oracle.weight().to_bits());
    println!("tenant-5 weight {:.3} == always-resident replay (bit-identical)\n", snap.weight);

    // --- 3. Crash recovery: checkpoint + write-ahead journal ---
    // Leak the service (no shutdown, no parting checkpoints) and recover a
    // fresh one from the store: every committed epoch survives because
    // batches are journaled after they commit.
    let weights_before: Vec<u64> = (0..sessions)
        .map(|s| service.weight(&format!("tenant-{s}")).expect("query").2.to_bits())
        .collect();
    std::mem::forget(service);
    let recovered = MatchingService::recover(config()).expect("recovery");
    for (s, &bits) in weights_before.iter().enumerate() {
        let (_, _, weight) = recovered.weight(&format!("tenant-{s}")).expect("query");
        assert_eq!(weight.to_bits(), bits);
    }
    println!(
        "crash recovery: {} sessions revived from images + journals, all weights bit-identical",
        recovered.sessions().len()
    );

    // --- 4. The socket front door: UDS server + typed wire errors ---
    let mut service = Arc::new(recovered);
    let socket = dir.join("mwm.sock");
    let server = SocketServer::bind_uds(Arc::clone(&service), &socket).expect("bind");
    let mut client = NetClient::connect_uds(&socket).expect("connect");
    let stats = client.submit_batch("tenant-0", &batch(0, 3)).expect("remote epoch");
    println!(
        "socket front door: remote epoch {} committed over UDS, weight {:.3}",
        stats.epoch, stats.weight
    );
    match client.weight("no-such-tenant") {
        Err(ServeError::UnknownSession { session }) => {
            println!("typed wire error survives the socket: unknown session {session:?}")
        }
        other => panic!("expected UnknownSession, got {other:?}"),
    }
    drop(client);
    server.shutdown();
    // Connection threads notice the shutdown flag within their poll interval
    // and release their service handles.
    let service = loop {
        match Arc::try_unwrap(service) {
            Ok(service) => break service,
            Err(still_shared) => {
                service = still_shared;
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
        }
    };
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
