//! Property tests for the dynamic matching subsystem: any update sequence
//! applied through `DynamicMatcher` must (a) be bit-identical across
//! parallelism levels, (b) end in a certified-feasible matching whose weight
//! is within the solver's approximation floor of a from-scratch solve on the
//! final graph, and (c) survive a hibernate → revive cycle as a bit-identical
//! fixed point that continues the stream in step with the original session.
//! After every epoch the overlay holds exactly the live edges.

use dual_primal_matching::engine::EpochDecision;
use dual_primal_matching::prelude::*;
use dual_primal_matching::solver::certify_b_matching;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Repair epochs bottom out at localized 2-swap repair over a greedy safety
/// net, so the session never drops below the local-search floor (≥ 2/3 of
/// the optimum, hence ≥ 2/3 of any from-scratch approximation).
const APPROX_FLOOR: f64 = 0.66;

/// One proptest-generated update: `(op, a, b, w)`, decoded by `decode_update`.
type RawUpdate = (u32, u64, u64, f64);

/// Decodes one proptest tuple into a valid-by-construction update against the
/// current overlay state (ids wrap into the assigned id range, weights are
/// positive), so almost every generated update applies. Op 4 is mass expiry:
/// a half-open window over recent stable ids (already-dead ids in the window
/// are no-ops).
fn decode_update(overlay_edges: usize, n: usize, op: u32, a: u64, b: u64, w: f64) -> GraphUpdate {
    match op {
        0 | 1 => {
            let u = (a % n as u64) as u32;
            let mut v = (b % (n as u64 - 1)) as u32;
            if v >= u {
                v += 1;
            }
            GraphUpdate::InsertEdge { u, v, w }
        }
        2 => GraphUpdate::DeleteEdge { id: (a as usize) % overlay_edges.max(1) },
        3 => GraphUpdate::ReweightEdge { id: (a as usize) % overlay_edges.max(1), w },
        _ => {
            let lo = (a as usize) % overlay_edges.max(1);
            GraphUpdate::ExpireWindow { lo, hi: lo + 1 + (b as usize) % 8 }
        }
    }
}

/// Decodes one batch against the session's current overlay.
fn decode_batch(dm: &DynamicMatcher, n: usize, raw: &[RawUpdate]) -> Vec<GraphUpdate> {
    raw.iter()
        .map(|&(op, a, b, w)| decode_update(dm.overlay().next_edge_id(), n, op, a, b, w))
        .collect()
}

/// Runs one full session (bootstrap + one epoch per batch) at the given
/// parallelism and returns a complete fingerprint of its observable history.
#[allow(clippy::type_complexity)]
fn run_session(
    base: &Graph,
    batches: &[Vec<RawUpdate>],
    config: DynamicConfig,
    workers: usize,
) -> (DynamicMatcher, Vec<(EpochDecision, u64, usize)>, Vec<(usize, u64)>) {
    let n = base.num_vertices();
    let mut dm = DynamicMatcher::new(base, config).expect("valid config");
    let budget = ResourceBudget::unlimited().with_parallelism(workers);
    let mut history = Vec::new();
    let r0 = dm.apply_epoch(&[], &budget).expect("bootstrap epoch");
    history.push((r0.stats.decision, r0.stats.weight.to_bits(), r0.stats.touched_vertices));
    for raw in batches {
        let updates = decode_batch(&dm, n, raw);
        let r = dm.apply_epoch(&updates, &budget).expect("unbudgeted epoch cannot fail");
        history.push((r.stats.decision, r.stats.weight.to_bits(), r.stats.touched_vertices));
        // The exported journal holds exactly the live edges.
        let journal = dm.overlay().export_state();
        assert_eq!(journal.edges.len(), dm.overlay().num_live_edges(), "dead edges were kept");
        assert!(journal.edges.iter().all(|&(id, e)| dm.overlay().live_edge(id) == Some(e)));
    }
    let mut edges: Vec<(usize, u64)> = dm.matching().iter().map(|(id, _, m)| (id, m)).collect();
    edges.sort_unstable();
    (dm, history, edges)
}

/// Checks clauses (a)–(c) on one session over `base` and `batches`.
fn check_session(base: &Graph, batches: &[Vec<RawUpdate>], config: DynamicConfig) {
    // (a) Parallelism is invisible.
    let (dm, history_1, edges_1) = run_session(base, batches, config, 1);
    let (_, history_4, edges_4) = run_session(base, batches, config, 4);
    prop_assert_eq!(&history_1, &history_4, "epoch history diverged across parallelism");
    prop_assert_eq!(&edges_1, &edges_4, "final matching diverged across parallelism");

    // (b) Certified feasibility on the final graph, within the approximation
    // floor of a from-scratch solve.
    let (final_graph, back) = dm.overlay().materialize();
    let mut fwd = vec![usize::MAX; dm.overlay().next_edge_id()];
    for (mid, &oid) in back.iter().enumerate() {
        fwd[oid] = mid;
    }
    let mut ours = BMatching::new();
    for (oid, _, mult) in dm.matching().iter() {
        prop_assert!(fwd[oid] != usize::MAX, "matching references a dead edge");
        ours.add(fwd[oid], final_graph.edge(fwd[oid]), mult);
    }
    let cert = certify_b_matching(&final_graph, &ours);
    prop_assert!(cert.feasible, "final matching failed the feasibility certificate");
    let cold = DualPrimalSolver::new(DualPrimalConfig {
        eps: config.eps,
        p: config.p,
        seed: config.seed,
        ..Default::default()
    })
    .unwrap()
    .solve(&final_graph, &ResourceBudget::unlimited())
    .unwrap();
    prop_assert!(
        dm.weight() >= APPROX_FLOOR * cold.weight - 1e-9,
        "dynamic weight {} below {} of cold weight {}",
        dm.weight(),
        APPROX_FLOOR,
        cold.weight
    );

    // (c) Hibernate → revive is a fixed point that continues in step.
    let image = SessionImage::from_session(&dm).unwrap();
    let mut revived = image.restore().expect("valid image");
    prop_assert_eq!(
        SessionImage::from_session(&revived).unwrap(),
        image,
        "revive must be a bit-identical fixed point"
    );
    let mut original = dm;
    let next =
        decode_batch(&original, base.num_vertices(), batches.last().expect("at least one batch"));
    let budget = ResourceBudget::unlimited();
    let ra = original.apply_epoch(&next, &budget).expect("epoch on original");
    let rb = revived.apply_epoch(&next, &budget).expect("epoch on revived");
    prop_assert_eq!(
        ra.stats.weight.to_bits(),
        rb.stats.weight.to_bits(),
        "revived session diverged from the original on the next epoch"
    );
    prop_assert_eq!(ra.stats.journal_bytes, rb.stats.journal_bytes);
    prop_assert_eq!(
        original.overlay().export_state(),
        revived.overlay().export_state(),
        "revived journal diverged from the original on the next epoch"
    );
    let a: Vec<(usize, u64)> = original.matching().iter().map(|(id, _, m)| (id, m)).collect();
    let b: Vec<(usize, u64)> = revived.matching().iter().map(|(id, _, m)| (id, m)).collect();
    prop_assert_eq!(a, b, "revived matching diverged from the original on the next epoch");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 20, ..ProptestConfig::default() })]

    /// The acceptance property of the dynamic subsystem: for a random base
    /// graph and a random stream of insert/delete/reweight/expiry batches,
    /// the final matching is certified feasible, within the approximation
    /// floor of a cold solve on the final graph, the whole session history is
    /// bit-identical for parallelism ∈ {1, 4}, and a hibernated session
    /// revives bit-identically and stays in step with the original.
    #[test]
    fn dynamic_sessions_match_cold_solves_and_parallelism_is_invisible(
        graph_seed in 0u64..200,
        raw_updates in proptest::collection::vec((0u32..5, 0u64..100_000, 0u64..100_000, 1.0f64..9.0), 4..28),
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let base = generators::gnm(24, 70, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
        let batches: Vec<Vec<RawUpdate>> = raw_updates.chunks(7).map(|c| c.to_vec()).collect();
        check_session(&base, &batches, DynamicConfig { eps: 0.25, p: 2.0, seed: 11 });
    }

    /// The same three clauses on a sparser base graph (50 edges) with shorter
    /// batches, so an expiry window of up to 8 ids covers a larger share of
    /// the live graph; the cold solve runs at a coarser ε.
    #[test]
    fn expiring_sessions_are_invariant_feasible_and_revivable(
        graph_seed in 0u64..200,
        raw_updates in proptest::collection::vec((0u32..5, 0u64..100_000, 0u64..100_000, 1.0f64..9.0), 4..24),
    ) {
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let base = generators::gnm(20, 50, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
        let batches: Vec<Vec<RawUpdate>> = raw_updates.chunks(6).map(|c| c.to_vec()).collect();
        check_session(&base, &batches, DynamicConfig { eps: 0.3, p: 2.0, seed: 13 });
    }
}

/// Repair and warm epochs keep what survived: the committed weight never
/// falls below the previous matching's weight over its still-live edges
/// (b ≡ 1 and no reweights, so every survivor fits). A rebuild takes no seed
/// and is exempt. Every solving epoch runs the paper's initial phase.
#[test]
fn solving_epochs_keep_their_survivors() {
    let mut rng = StdRng::seed_from_u64(99);
    let base = generators::gnm(200, 700, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
    let config = DynamicConfig { eps: 0.25, p: 2.0, seed: 3 };
    let mut dm = DynamicMatcher::new(&base, config).unwrap();
    let budget = ResourceBudget::unlimited();
    let mut reports = vec![dm.apply_epoch(&[], &budget).unwrap()];

    for round in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(1000 + round);
        let updates: Vec<GraphUpdate> = (0..24)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    GraphUpdate::InsertEdge {
                        u: rng.gen_range(0..200),
                        v: rng.gen_range(0..200),
                        w: rng.gen_range(1.0..9.0),
                    }
                } else {
                    GraphUpdate::DeleteEdge { id: rng.gen_range(0..dm.overlay().next_edge_id()) }
                }
            })
            .collect();
        let previous = dm.matching().clone();
        let r = dm.apply_epoch(&updates, &budget).unwrap();
        if r.stats.decision != EpochDecision::Rebuild {
            let mut survivors = BMatching::new();
            for (id, _, mult) in previous.iter() {
                if let Some(e) = dm.overlay().live_edge(id) {
                    survivors.add(id, e, mult);
                }
            }
            assert!(
                dm.weight() >= survivors.weight(),
                "{} epoch {} committed {} below its survivors' {}",
                r.stats.decision,
                r.stats.epoch,
                dm.weight(),
                survivors.weight()
            );
        }
        reports.push(r);
    }
    assert!(
        reports.iter().any(|r| r.stats.decision == EpochDecision::WarmResolve),
        "the stream must trigger at least one warm re-solve"
    );
    for r in reports.iter().filter(|r| r.solve.is_some()) {
        let initial = r.solve.as_ref().and_then(|s| s.stat("initial_rounds"));
        assert!(initial >= Some(1.0), "epoch {} ran {initial:?} initial rounds", r.stats.epoch);
    }
}
