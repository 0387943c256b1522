//! Budget-interruption suite: a pass stopped mid-shard by an exhausted
//! `ResourceBudget` must surface as `MwmError::BudgetExceeded` with an
//! accurate partial ledger — never a panic, never a torn matching.

use dual_primal_matching::engine::{MwmError, ResourceBudget, SolverRegistry};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::mapreduce::{EdgeSource, GraphSource, PassBudget, PassEngine, PassError};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Large enough that the default batch granularity (1024 edges) checks the
/// budget many times inside every shard, and that the stream clears
/// `MIN_PARALLEL_ITEMS` so multi-worker runs genuinely spawn threads.
fn big_graph(seed: u64) -> dual_primal_matching::graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(200, 12_000, WeightModel::Uniform(1.0, 9.0), &mut rng)
}

#[test]
fn engine_interrupt_leaves_an_accurate_partial_ledger() {
    let g = big_graph(1);
    let src = GraphSource::auto(&g);
    for workers in [1usize, 2, 8] {
        let limit = 2000;
        let mut engine =
            PassEngine::new(workers).with_budget(PassBudget { max_items_streamed: Some(limit) });
        let err = engine.pass_shards(&src, |_| 0usize, |acc, _, _| *acc += 1).unwrap_err();
        let PassError::BudgetExceeded { resource, used, limit: reported } = err else {
            panic!("workers={workers}: expected a budget interrupt, got {err:?}");
        };
        assert_eq!(resource, "streamed items");
        assert_eq!(reported, limit);
        assert_eq!(
            used,
            engine.tracker().items_streamed(),
            "workers={workers}: the error and the ledger must agree exactly"
        );
        assert!(used >= limit, "workers={workers}: stopped before the limit");
        assert!(used < g.num_edges(), "workers={workers}: the pass was not interrupted mid-stream");
        assert_eq!(engine.passes(), 1, "an interrupted pass still counts as one round");
    }
}

#[test]
fn batch_passes_interrupt_with_the_per_edge_ledger_at_mid_slice_limits() {
    // Both passes gate the budget once per slice, at in-shard offsets that
    // are multiples of the engine batch. A limit landing mid-slice must
    // therefore interrupt both with the SAME charged ledger at workers=1 —
    // the slice in flight completes, then the gate trips.
    let g = big_graph(6);
    let src = GraphSource::auto(&g);
    let batch = 64usize;
    // Limits straddling slice boundaries: mid-slice, one short of a boundary,
    // exactly on a boundary, one past it.
    for limit in [1usize, 37, batch - 1, batch, batch + 1, 10 * batch + 13, 2000] {
        let run_per_edge = |workers: usize| {
            let mut engine = PassEngine::new(workers)
                .with_batch_size(batch)
                .with_budget(PassBudget { max_items_streamed: Some(limit) });
            let err = engine.pass_shards(&src, |_| 0usize, |acc, _, _| *acc += 1).unwrap_err();
            match err {
                PassError::BudgetExceeded { used, .. } => used,
                other => panic!("limit {limit}: expected BudgetExceeded, got {other:?}"),
            }
        };
        let run_batch = |workers: usize| {
            let mut engine = PassEngine::new(workers)
                .with_batch_size(batch)
                .with_budget(PassBudget { max_items_streamed: Some(limit) });
            let err = engine.pass_batches(&src, |_| 0usize, |acc, b| *acc += b.len()).unwrap_err();
            match err {
                PassError::BudgetExceeded { used, limit: reported, .. } => {
                    assert_eq!(reported, limit);
                    assert_eq!(
                        used,
                        engine.tracker().items_streamed(),
                        "limit {limit}: error and ledger must agree exactly"
                    );
                    used
                }
                other => panic!("limit {limit}: expected BudgetExceeded, got {other:?}"),
            }
        };
        // The reference ledger at workers=1, from the shard lengths alone:
        // the first slice end at or past the limit, slices being cut at
        // multiples of the batch inside each shard.
        let expected = (0..src.num_shards())
            .flat_map(|shard| {
                let len = src.shard_len(shard);
                (0..len.div_ceil(batch)).map(move |k| ((k + 1) * batch).min(len) - k * batch)
            })
            .scan(0, |streamed, slice| {
                *streamed += slice;
                Some(*streamed)
            })
            .find(|&streamed| streamed >= limit)
            .expect("every limit lies inside the stream");
        assert_eq!(run_per_edge(1), expected, "limit {limit}: per-edge ledger at workers=1");
        assert_eq!(run_batch(1), expected, "limit {limit}: batch ledger at workers=1");
        for workers in [2usize, 8] {
            let used = run_batch(workers);
            assert!(used >= limit, "workers={workers} limit {limit}: stopped early");
            assert!(
                used <= limit + workers * batch + workers,
                "workers={workers} limit {limit}: used {used} overshoots more than one \
                 slice per worker"
            );
        }
    }
}

#[test]
fn every_streaming_solver_returns_a_typed_error_not_a_panic() {
    let g = big_graph(2);
    let registry = SolverRegistry::default();
    let budget = ResourceBudget::unlimited().with_max_streamed_items(500);
    for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering"] {
        match registry.solve(name, &g, &budget) {
            Err(MwmError::BudgetExceeded { resource, used, limit }) => {
                assert_eq!(resource, "streamed items", "{name}");
                assert_eq!(limit, 500, "{name}");
                assert!(used >= limit, "{name}: error reported before the limit tripped");
            }
            Ok(_) => panic!("{name}: a 500-item budget cannot cover a 12,000-edge pass"),
            Err(other) => panic!("{name}: expected BudgetExceeded, got {other}"),
        }
    }
}

#[test]
fn the_error_path_never_yields_a_torn_matching() {
    // The engine API returns `Result<SolveReport, _>`: an interrupted run has
    // no report at all, so "torn matching" is structurally impossible — but
    // the solver must also not panic on the way out, across a sweep of
    // limits straddling shard and batch boundaries.
    let g = big_graph(3);
    let registry = SolverRegistry::default();
    for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering"] {
        for limit in [0usize, 1, 1023, 1024, 4096, 7999] {
            let budget = ResourceBudget::unlimited().with_max_streamed_items(limit);
            match registry.solve(name, &g, &budget) {
                Err(MwmError::BudgetExceeded { used, .. }) => {
                    assert!(used >= limit, "{name} limit {limit}: used {used} below limit");
                }
                Ok(report) => {
                    // A budget that happens to suffice must behave exactly
                    // like no budget at all.
                    let unlimited = registry.solve(name, &g, &ResourceBudget::unlimited()).unwrap();
                    assert_eq!(report.weight.to_bits(), unlimited.weight.to_bits(), "{name}");
                }
                Err(other) => panic!("{name} limit {limit}: unexpected error {other}"),
            }
        }
    }
}

#[test]
fn a_sufficient_stream_budget_does_not_perturb_the_result() {
    let g = big_graph(4);
    let registry = SolverRegistry::default();
    for name in ["dual-primal", "streaming-greedy", "lattanzi-filtering"] {
        let unlimited = registry.solve(name, &g, &ResourceBudget::unlimited()).unwrap();
        let generous = ResourceBudget::unlimited()
            .with_max_streamed_items(unlimited.tracker.items_streamed() + 1);
        let bounded = registry.solve(name, &g, &generous).unwrap();
        assert_eq!(
            unlimited.weight.to_bits(),
            bounded.weight.to_bits(),
            "{name}: an unused budget changed the result"
        );
        assert_eq!(unlimited.rounds(), bounded.rounds(), "{name}");
    }
}

#[test]
fn round_budgets_still_work_alongside_stream_budgets() {
    // The pre-existing post-hoc checks must compose with the new mid-pass
    // enforcement: a round cap trips as before, and combining both limits
    // reports whichever is violated.
    let g = big_graph(5);
    let registry = SolverRegistry::default();
    let err = registry
        .solve("dual-primal", &g, &ResourceBudget::unlimited().with_max_rounds(1))
        .unwrap_err();
    assert!(matches!(err, MwmError::BudgetExceeded { resource: "rounds", .. }), "{err}");

    let err = registry
        .solve(
            "dual-primal",
            &g,
            &ResourceBudget::unlimited().with_max_rounds(1).with_max_streamed_items(100),
        )
        .unwrap_err();
    assert!(matches!(err, MwmError::BudgetExceeded { .. }), "{err}");
}
