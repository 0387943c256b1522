//! Stress/property tests for the serving layer.
//!
//! K sessions are driven through a `MatchingService` by multiple client
//! threads (submits interleaved with queries) while observer threads hammer
//! the queue-bypassing `CommittedView`s. The assertions:
//!
//! 1. **Serial equivalence.** Every session's epoch-by-epoch history and
//!    final matching are *bit-identical* to a serial `DynamicMatcher` replay
//!    of the same request script — session-affinity sharding means
//!    concurrency can never reorder or interleave one session's epochs.
//! 2. **No torn reads.** Every state an observer thread sees (version,
//!    weight bits, matching fingerprint, all taken from one snapshot) equals
//!    some fully committed state of the serial replay — never a mix of two
//!    epochs, never a mid-epoch or rolled-back state.
//! 3. **Worker-count invariance.** Rerunning the whole stress with a
//!    different worker-pool size reproduces the same final fingerprints.

use dual_primal_matching::engine::{MatchingService, ServiceConfig};
use dual_primal_matching::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const SESSIONS: usize = 6;
const BATCHES: usize = 5;
const N: usize = 40;
const M: usize = 150;

fn base_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(N, M, generators::WeightModel::Uniform(1.0, 9.0), &mut rng)
}

fn session_config() -> DynamicConfig {
    DynamicConfig { eps: 0.25, p: 2.0, seed: 11 }
}

/// Deterministic update batch for (session, round); ids stay inside the
/// overlay's live id range via `next_id`.
fn batch(next_id: usize, session: usize, round: usize, size: usize) -> Vec<GraphUpdate> {
    let mut rng = StdRng::seed_from_u64(7_000 + 131 * session as u64 + round as u64);
    (0..size)
        .map(|_| match rng.gen_range(0..3u32) {
            0 => GraphUpdate::InsertEdge {
                u: rng.gen_range(0..N as u32),
                v: rng.gen_range(0..N as u32),
                w: rng.gen_range(1.0..9.0),
            },
            1 => GraphUpdate::DeleteEdge { id: rng.gen_range(0..next_id.max(1)) },
            _ => GraphUpdate::ReweightEdge {
                id: rng.gen_range(0..next_id.max(1)),
                w: rng.gen_range(1.0..9.0),
            },
        })
        .collect()
}

/// The per-session batch scripts, precomputed so the serial replay and every
/// service run consume identical inputs. Insert counts advance `next_id`
/// exactly like the overlay will.
fn scripts() -> Vec<Vec<Vec<GraphUpdate>>> {
    (0..SESSIONS)
        .map(|s| {
            let mut next_id = M;
            (0..BATCHES)
                .map(|round| {
                    let b = batch(next_id, s, round, 12);
                    next_id +=
                        b.iter().filter(|u| matches!(u, GraphUpdate::InsertEdge { .. })).count();
                    b
                })
                .collect()
        })
        .collect()
}

/// One committed state, fully fingerprinted: any torn combination of two
/// states changes at least one component.
type Fingerprint = (usize, u64, u64, u64);

fn fingerprint_snapshot(
    epoch: usize,
    version: u64,
    weight: f64,
    matching: &BMatching,
) -> Fingerprint {
    let mut checksum = 0u64;
    for (id, e, mult) in matching.iter() {
        checksum = checksum.rotate_left(7)
            ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ e.w.to_bits().rotate_left(17)
            ^ mult;
    }
    (epoch, version, weight.to_bits(), checksum)
}

/// Serial oracle for one session: replay bootstrap + batches on a bare
/// `DynamicMatcher`, recording the fingerprint of every committed state in
/// order.
fn serial_history(session: usize, script: &[Vec<GraphUpdate>]) -> Vec<Fingerprint> {
    let base = base_graph(session as u64);
    let mut dm = DynamicMatcher::new(&base, session_config()).expect("valid config");
    let fp = |dm: &DynamicMatcher| {
        fingerprint_snapshot(dm.epochs(), dm.overlay().version(), dm.weight(), dm.matching())
    };
    let mut history = vec![fp(&dm)];
    dm.apply_epoch(&[], &ResourceBudget::unlimited()).expect("bootstrap");
    history.push(fp(&dm));
    for b in script {
        dm.apply_epoch(b, &ResourceBudget::unlimited()).expect("epoch");
        history.push(fp(&dm));
    }
    history
}

/// Runs the full concurrent stress against a service with `workers` workers
/// and returns each session's final fingerprint. Panics on any divergence
/// from the serial histories.
fn run_stress(workers: usize, histories: &[Vec<Fingerprint>]) -> Vec<Fingerprint> {
    let all_scripts = scripts();
    let service = MatchingService::start(ServiceConfig {
        workers,
        session_defaults: session_config(),
        ..Default::default()
    })
    .expect("valid service config");
    for s in 0..SESSIONS {
        service.create_session(&format!("s{s}"), &base_graph(s as u64)).expect("create");
    }

    // Observer threads: spin on the committed views for the whole run,
    // recording every state they see.
    let stop = Arc::new(AtomicBool::new(false));
    let observers: Vec<_> = (0..2)
        .map(|_| {
            let views: Vec<CommittedView> =
                (0..SESSIONS).map(|s| service.view(&format!("s{s}")).expect("view")).collect();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                // Distinct states only: the spin loop would otherwise record
                // millions of identical observations.
                let mut seen: HashSet<(usize, Fingerprint)> = HashSet::new();
                while !stop.load(Ordering::Relaxed) {
                    for (s, view) in views.iter().enumerate() {
                        let snap = view.load();
                        seen.insert((
                            s,
                            fingerprint_snapshot(
                                snap.epoch,
                                snap.version,
                                snap.weight,
                                &snap.matching,
                            ),
                        ));
                    }
                }
                seen
            })
        })
        .collect();

    // Client threads: thread t owns sessions {t, t + 3}, alternating between
    // them so submits and queries from different sessions interleave on the
    // service side. Each session's own requests stay strictly ordered.
    std::thread::scope(|scope| {
        for t in 0..3usize {
            let service = &service;
            let all_scripts = &all_scripts;
            let histories = &histories;
            scope.spawn(move || {
                let owned = [t, t + 3];
                // Bootstrap both sessions, checking read-your-writes.
                for &s in &owned {
                    let name = format!("s{s}");
                    service.submit_batch(&name, Vec::new()).expect("bootstrap");
                    let (epoch, version, weight) = service.weight(&name).expect("query");
                    assert_eq!(
                        (epoch, version, weight.to_bits()),
                        (histories[s][1].0, histories[s][1].1, histories[s][1].2),
                        "s{s}: bootstrap diverged from serial replay"
                    );
                }
                for round in 0..BATCHES {
                    for &s in &owned {
                        let name = format!("s{s}");
                        let stats = service
                            .submit_batch(&name, all_scripts[s][round].clone())
                            .expect("epoch");
                        assert_eq!(stats.epoch + 1, round + 2, "s{s}: epochs applied in order");
                        // FIFO read-your-writes: the post-batch state is
                        // exactly the serial state at this sequence point.
                        let expected = &histories[s][round + 2];
                        let (epoch, version, weight) = service.weight(&name).expect("query");
                        assert_eq!(
                            (epoch, version, weight.to_bits()),
                            (expected.0, expected.1, expected.2),
                            "s{s} round {round}: state diverged from serial replay"
                        );
                    }
                }
            });
        }
    });
    stop.store(true, Ordering::Relaxed);

    // Every observed state must be a committed serial state — no torn reads.
    let valid: HashSet<(usize, Fingerprint)> =
        histories.iter().enumerate().flat_map(|(s, h)| h.iter().map(move |fp| (s, *fp))).collect();
    let mut observations = 0usize;
    for observer in observers {
        for obs in observer.join().expect("observer thread panicked") {
            assert!(
                valid.contains(&obs),
                "torn read: session s{} observed state {:?} which no committed serial state \
                 matches",
                obs.0,
                obs.1
            );
            observations += 1;
        }
    }
    assert!(observations > 0, "observers must actually observe");

    // Final states, bit-identical to the end of each serial history.
    let finals: Vec<Fingerprint> = (0..SESSIONS)
        .map(|s| {
            let snap = service.matching(&format!("s{s}")).expect("query");
            let got = fingerprint_snapshot(snap.epoch, snap.version, snap.weight, &snap.matching);
            assert_eq!(
                &got,
                histories[s].last().unwrap(),
                "s{s}: final state diverged from serial replay"
            );
            got
        })
        .collect();
    service.shutdown();
    finals
}

#[test]
fn concurrent_sessions_are_bit_identical_to_serial_replay() {
    let all_scripts = scripts();
    let histories: Vec<Vec<Fingerprint>> =
        (0..SESSIONS).map(|s| serial_history(s, &all_scripts[s])).collect();
    // Sanity: each history is the fresh state, the bootstrap and BATCHES
    // epochs.
    for h in &histories {
        assert_eq!(h.len(), BATCHES + 2);
    }
    let finals_4 = run_stress(4, &histories);
    let finals_1 = run_stress(1, &histories);
    assert_eq!(
        finals_1, finals_4,
        "service worker count changed a session result (must be wall-clock only)"
    );
}
