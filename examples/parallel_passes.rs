//! Sharded multi-threaded passes with the `PassEngine`.
//!
//! Demonstrates the three `EdgeSource` flavours, the deterministic
//! shard-order merge (bit-identical results at every worker count), the
//! `parallelism` knob threading through the `SolverRegistry`, and a pass
//! interrupted mid-shard by a streamed-items budget.
//!
//! ```bash
//! cargo run --release --example parallel_passes
//! ```

use dual_primal_matching::engine::{MwmError, ResourceBudget, SolverRegistry};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::mapreduce::{
    EdgeSource, GraphSource, PassBudget, PassEngine, ShardedEdgeList, SyntheticStream,
};
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let graph = generators::gnm(500, 20_000, WeightModel::Uniform(1.0, 9.0), &mut rng);

    // --- 1. One charged pass over an in-memory graph, three worker counts ---
    let source = GraphSource::auto(&graph);
    println!("graph stream: {} edges in {} shards", source.num_edges(), source.num_shards());
    let mut checksums = Vec::new();
    for workers in [1usize, 2, 8] {
        let mut engine = PassEngine::new(workers);
        let sums = engine
            .pass_shards(&source, |_| 0.0f64, |acc, _, e| *acc += (e.w * 0.1).exp())
            .expect("unbudgeted pass cannot fail");
        // Per-shard sums arrive in shard order: fold them the same way at
        // every worker count and the result is bit-identical.
        let total: f64 = sums.iter().sum();
        checksums.push(total.to_bits());
        println!("  workers={workers}: shard-merged total = {total:.6}");
    }
    assert!(checksums.windows(2).all(|w| w[0] == w[1]), "merges must be bit-identical");

    // --- 2. A pre-partitioned stream and a generator-backed stream ---
    let sharded = ShardedEdgeList::from_graph(&graph, 8);
    let synthetic = SyntheticStream::new(10_000, 500_000, 42);
    let mut engine = PassEngine::new(4);
    let edges: usize = engine
        .pass_shards(&sharded, |_| 0usize, |acc, _, _| *acc += 1)
        .expect("unbudgeted pass cannot fail")
        .iter()
        .sum();
    let synth_edges: usize = engine
        .pass_shards(&synthetic, |_| 0usize, |acc, _, _| *acc += 1)
        .expect("unbudgeted pass cannot fail")
        .iter()
        .sum();
    println!(
        "pre-partitioned stream: {edges} edges; synthetic stream: {synth_edges} edges \
         (never materialized); engine ledger: {}",
        engine.tracker()
    );

    // --- 3. The parallelism knob through the registry ---
    let registry = SolverRegistry::default();
    for workers in [1usize, 4] {
        let budget = ResourceBudget::unlimited().with_parallelism(workers);
        let report = registry.solve("dual-primal", &graph, &budget).expect("solve succeeds");
        println!(
            "  dual-primal @ {workers} workers: weight {:.2}, {} passes, peak space {}",
            report.weight,
            report.rounds(),
            report.peak_central_space()
        );
    }

    // --- 4. A budget interrupting a pass mid-shard ---
    let mut engine = PassEngine::new(2)
        .with_budget(PassBudget { max_items_streamed: Some(5_000) })
        .with_batch_size(256);
    match engine.pass_shards(&source, |_| 0usize, |acc, _, _| *acc += 1) {
        Err(err) => println!("interrupted as expected: {err}"),
        Ok(_) => unreachable!("a 5k budget cannot cover a 20k-edge pass"),
    }

    // The same interruption through the engine API is a typed error.
    let tight = ResourceBudget::unlimited().with_max_streamed_items(1_000);
    match registry.solve("streaming-greedy", &graph, &tight) {
        Err(MwmError::BudgetExceeded { resource, used, limit }) => {
            println!("solver interrupted: {resource} used {used} > limit {limit}");
        }
        other => unreachable!("expected BudgetExceeded, got {other:?}"),
    }
}
