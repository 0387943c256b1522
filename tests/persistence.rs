//! Persistence & recovery: image-codec fixed points, hibernate → revive
//! bit-identity (duals included), and crash recovery checked against a
//! serial replay oracle.
//!
//! The contract under test is the one the serving layer leans on: a session
//! that round-trips through a [`SessionImage`] — whether explicitly, via LRU
//! eviction, or via crash recovery from checkpoint + write-ahead journal —
//! must be **bit-identical** to one that stayed resident: same weight bits,
//! same matching, same committed `DualSnapshot`, and the same results for
//! every subsequent epoch.

use dual_primal_matching::engine::{
    MatchingService, PersistError, ServeError, ServiceConfig, SessionImage,
};
use dual_primal_matching::prelude::*;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;
use std::path::PathBuf;

const N: usize = 30;
const M: usize = 90;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dpm-persistence-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn session_config(seed: u64) -> DynamicConfig {
    DynamicConfig { eps: 0.25, p: 2.0, seed }
}

fn base_graph(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(N, M, generators::WeightModel::Uniform(1.0, 9.0), &mut rng)
}

/// A deterministic script of update batches; inserts advance the stable-id
/// frontier exactly like the overlay will, so deletes/reweights stay in
/// range.
fn script(rounds: usize, seed: u64) -> Vec<Vec<GraphUpdate>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut next_id = M;
    (0..rounds)
        .map(|_| {
            let batch: Vec<GraphUpdate> = (0..10)
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
                .collect();
            next_id += batch.iter().filter(|u| matches!(u, GraphUpdate::InsertEdge { .. })).count();
            batch
        })
        .collect()
}

/// Order-independent fingerprint of a matching (stable ids, weight bits,
/// multiplicities folded together).
fn matching_fingerprint(m: &BMatching) -> u64 {
    let mut checksum = 0u64;
    for (id, e, mult) in m.iter() {
        checksum = checksum.rotate_left(7)
            ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ e.w.to_bits().rotate_left(17)
            ^ mult;
    }
    checksum
}

/// The full bit-sensitive state of a session: weight bits, matching
/// fingerprint, duals fingerprint (0 if no duals are committed).
fn session_state(dm: &DynamicMatcher) -> (u64, u64, u64) {
    (
        dm.weight().to_bits(),
        matching_fingerprint(dm.matching()),
        dm.duals().map(|d| d.fingerprint()).unwrap_or(0),
    )
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// `to_bytes → from_bytes → to_bytes` and `write → open → write` are
    /// fixed points: re-encoding a decoded image reproduces the original
    /// bytes exactly, so images can be copied, verified, and re-persisted
    /// without drift. The revived session is bit-identical, duals included.
    #[test]
    fn image_roundtrip_is_a_byte_level_fixed_point(
        seed in 0u64..300,
        rounds in 0usize..5,
    ) {
        let mut dm = DynamicMatcher::new(&base_graph(seed), session_config(seed)).unwrap();
        for batch in script(rounds, seed ^ 0x9E37) {
            dm.apply_epoch(&batch, &ResourceBudget::unlimited()).unwrap();
        }

        let image = SessionImage::from_session(&dm).unwrap();
        let bytes = image.to_bytes();
        let reread = SessionImage::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&bytes, &reread.to_bytes(), "from_bytes -> to_bytes drifted");
        prop_assert_eq!(image.checksum(), reread.checksum());

        let dir = temp_dir("fixed-point");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.img"), dir.join("b.img"));
        image.write(&a).unwrap();
        SessionImage::open(&a).unwrap().write(&b).unwrap();
        let identical = std::fs::read(&a).unwrap() == std::fs::read(&b).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        prop_assert!(identical, "write -> open -> write changed the on-disk bytes");

        let revived = image.restore().unwrap();
        prop_assert_eq!(session_state(&revived), session_state(&dm));
    }

    /// Hibernating mid-stream and continuing is invisible: the revived
    /// session applies the remaining epochs to exactly the same weight bits,
    /// matching and duals as the session that never left memory.
    #[test]
    fn revive_then_continue_matches_staying_resident(
        seed in 0u64..300,
        cut in 1usize..4,
    ) {
        let batches = script(cut + 2, seed ^ 0x51AB);
        let mut resident = DynamicMatcher::new(&base_graph(seed), session_config(seed)).unwrap();
        for batch in &batches[..cut] {
            resident.apply_epoch(batch, &ResourceBudget::unlimited()).unwrap();
        }

        let mut revived = SessionImage::from_session(&resident).unwrap().restore().unwrap();
        for batch in &batches[cut..] {
            resident.apply_epoch(batch, &ResourceBudget::unlimited()).unwrap();
            revived.apply_epoch(batch, &ResourceBudget::unlimited()).unwrap();
        }
        prop_assert_eq!(session_state(&revived), session_state(&resident));
        prop_assert_eq!(revived.epochs(), resident.epochs());
    }
}

/// Kill a persistent service mid-stream (no shutdown, no final checkpoints),
/// `recover()` from its store, finish the stream, and check every session
/// against a serial replay of the full script on a bare `DynamicMatcher`.
#[test]
fn crash_recovery_matches_serial_replay() {
    const SESSIONS: usize = 3;
    const ROUNDS: usize = 5;
    const CRASH_AFTER: usize = 3;

    let dir = temp_dir("crash");
    let scripts: Vec<Vec<Vec<GraphUpdate>>> =
        (0..SESSIONS).map(|s| script(ROUNDS, 0xC0DE + s as u64)).collect();
    let config = || ServiceConfig {
        workers: 2,
        session_defaults: session_config(7),
        store_dir: Some(dir.clone()),
        ..Default::default()
    };

    let service = MatchingService::start(config()).expect("valid persistent config");
    for s in 0..SESSIONS {
        service.create_session(&format!("s{s}"), &base_graph(s as u64)).expect("create");
    }
    for (s, script) in scripts.iter().enumerate() {
        for batch in &script[..CRASH_AFTER] {
            service.submit_batch(&format!("s{s}"), batch.clone()).expect("epoch");
        }
    }
    // Simulated crash: the service is leaked, so nothing runs its shutdown
    // checkpoints — recovery has only birth checkpoints + journal tails.
    std::mem::forget(service);

    let service = MatchingService::recover(config()).expect("recovery from the store");
    let mut names = service.sessions();
    names.sort();
    assert_eq!(names, (0..SESSIONS).map(|s| format!("s{s}")).collect::<Vec<_>>());
    for (s, script) in scripts.iter().enumerate() {
        for batch in &script[CRASH_AFTER..] {
            service.submit_batch(&format!("s{s}"), batch.clone()).expect("epoch");
        }
    }

    for (s, script) in scripts.iter().enumerate() {
        let mut oracle =
            DynamicMatcher::new(&base_graph(s as u64), session_config(7)).expect("oracle");
        for batch in script {
            oracle.apply_epoch(batch, &ResourceBudget::unlimited()).expect("oracle epoch");
        }
        let (weight_bits, fingerprint, duals) = session_state(&oracle);

        let name = format!("s{s}");
        let snap = service.matching(&name).expect("query");
        let stats = service.session_stats(&name).expect("stats");
        assert_eq!(snap.weight.to_bits(), weight_bits, "{name}: weight diverged after recovery");
        assert_eq!(
            matching_fingerprint(&snap.matching),
            fingerprint,
            "{name}: matching diverged after recovery"
        );
        assert_eq!(stats.duals_checksum, duals, "{name}: duals diverged after recovery");
        assert_eq!(stats.epochs, oracle.epochs(), "{name}: epoch count diverged");
    }
    service.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte anywhere in a stored image surfaces as a typed corruption
/// error from both the image codec and service recovery — never a panic,
/// never a silently wrong session.
#[test]
fn corrupt_images_surface_as_typed_errors() {
    let dir = temp_dir("corrupt");
    let config = || ServiceConfig {
        workers: 1,
        session_defaults: session_config(3),
        store_dir: Some(dir.clone()),
        ..Default::default()
    };
    let service = MatchingService::start(config()).expect("valid persistent config");
    service.create_session("victim", &base_graph(9)).expect("create");
    service.submit_batch("victim", script(1, 17)[0].clone()).expect("epoch");
    service.shutdown();

    let image_path = std::fs::read_dir(&dir)
        .expect("store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "img"))
        .expect("the store holds an image");
    let mut bytes = std::fs::read(&image_path).expect("read image");
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&image_path, &bytes).expect("write corrupted image");

    match SessionImage::open(&image_path) {
        Err(PersistError::Corrupt { context }) => {
            assert!(context.contains("checksum"), "unexpected context: {context}")
        }
        other => panic!("expected a corrupt-image error, got {other:?}"),
    }
    match MatchingService::recover(config()).map(|_| ()) {
        Err(ServeError::Corrupt { context }) => {
            assert!(context.contains("checksum"), "unexpected context: {context}")
        }
        Err(other) => panic!("expected ServeError::Corrupt, got {other}"),
        Ok(()) => panic!("recovery accepted a corrupt image"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}
