//! Determinism suite for the sharded pass engine: the same seed must produce
//! *bit-identical* `SolveReport`s — matching, weight bits, pass counts,
//! oracle iterations — for every `parallelism` setting, and identical reports
//! across repeated runs at the same parallelism.

use dual_primal_matching::engine::{ResourceBudget, SolverRegistry};
use dual_primal_matching::external::SpillWriter;
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::{Edge, EdgeId, Graph};
use dual_primal_matching::mapreduce::{EdgeBatch, GraphSource, PassEngine, SoaShards};
use dual_primal_matching::solver::SolveReport;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// The comparable essence of a report: matching as sorted (edge id,
/// multiplicity) pairs, the weight's exact bits, and the pass accounting.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    edges: Vec<(usize, u64)>,
    weight_bits: u64,
    rounds: usize,
    oracle_iterations: usize,
    items_streamed: usize,
}

fn fingerprint(report: &SolveReport) -> Fingerprint {
    let mut edges: Vec<(usize, u64)> =
        report.matching.iter().map(|(id, _, mult)| (id, mult)).collect();
    edges.sort_unstable();
    Fingerprint {
        edges,
        weight_bits: report.weight.to_bits(),
        rounds: report.rounds(),
        oracle_iterations: report.oracle_iterations,
        items_streamed: report.tracker.items_streamed(),
    }
}

fn workload(seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    // Big enough that GraphSource::auto splits into several shards AND the
    // stream clears MIN_PARALLEL_ITEMS, so multi-worker runs genuinely spawn
    // threads and interleave.
    generators::gnm(200, 12_000, WeightModel::Uniform(1.0, 9.0), &mut rng)
}

const STREAMING_SOLVERS: [&str; 3] = ["dual-primal", "streaming-greedy", "lattanzi-filtering"];

#[test]
fn reports_are_bit_identical_for_parallelism_1_2_8() {
    let g = workload(42);
    let registry = SolverRegistry::default();
    for name in STREAMING_SOLVERS {
        let mut reference: Option<Fingerprint> = None;
        for workers in [1usize, 2, 8] {
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let report = registry.solve(name, &g, &budget).unwrap();
            let fp = fingerprint(&report);
            match &reference {
                None => reference = Some(fp),
                Some(r) => {
                    assert_eq!(r, &fp, "{name}: parallelism {workers} diverged from parallelism 1")
                }
            }
        }
    }
}

#[test]
fn repeated_runs_at_the_same_parallelism_are_identical() {
    let g = workload(43);
    let registry = SolverRegistry::default();
    for name in STREAMING_SOLVERS {
        for workers in [2usize, 8] {
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let first = fingerprint(&registry.solve(name, &g, &budget).unwrap());
            let second = fingerprint(&registry.solve(name, &g, &budget).unwrap());
            assert_eq!(first, second, "{name} at parallelism {workers} is not reproducible");
        }
    }
}

#[test]
fn pass_counts_are_independent_of_parallelism() {
    // Sharper than the fingerprint: the *model-level* accounting (passes over
    // the stream, items streamed) must not depend on how many threads
    // consumed the shards — parallelism is a wall-clock knob, not a model
    // change.
    let g = workload(44);
    let registry = SolverRegistry::default();
    for name in STREAMING_SOLVERS {
        let base =
            registry.solve(name, &g, &ResourceBudget::unlimited().with_parallelism(1)).unwrap();
        for workers in [2usize, 8] {
            let rep = registry
                .solve(name, &g, &ResourceBudget::unlimited().with_parallelism(workers))
                .unwrap();
            assert_eq!(base.rounds(), rep.rounds(), "{name}: pass count changed");
            assert_eq!(
                base.tracker.items_streamed(),
                rep.tracker.items_streamed(),
                "{name}: stream accounting changed"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The batch (SoA slice) walk folds to exactly the bits of the per-edge
    /// walk — over the original source, over the CSR/SoA copy, and over the
    /// spilled on-disk form — at parallelism 1 and 4, with slice and I/O
    /// sizes chosen to be mutually misaligned.
    #[test]
    fn batch_walks_are_bit_identical_to_per_edge_walks(
        seed in 0u64..10_000,
        n in 8usize..80,
        deg in 2usize..9,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm(n, n * deg, WeightModel::Uniform(0.5, 50.0), &mut rng);
        let src = GraphSource::auto(&g);
        let soa = SoaShards::from_source(&src);
        let dir = std::env::temp_dir()
            .join(format!("mwm-det-soa-{}-{seed}-{n}-{deg}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spilled = SpillWriter::spill_edge_source(&dir, &src).unwrap().with_io_batch(97);
        // Order-sensitive fold: any reordering or duplicated edge changes the bits.
        let per_edge = |acc: &mut f64, id: EdgeId, e: Edge| {
            *acc = 0.5 * *acc + (e.w + (id % 13) as f64).sqrt();
        };
        let per_batch = |acc: &mut f64, b: EdgeBatch<'_>| {
            for i in 0..b.len() {
                *acc = 0.5 * *acc + (b.weight(i) + (b.ids[i] % 13) as f64).sqrt();
            }
        };
        let bits = |accs: Vec<f64>| accs.iter().map(|a| a.to_bits()).collect::<Vec<u64>>();
        for workers in [1usize, 4] {
            let mut engine = PassEngine::new(workers).with_batch_size(57);
            let reference = bits(engine.pass_shards(&src, |_| 0.0f64, per_edge).unwrap());
            let from_src = bits(engine.scan_batches(&src, |_| 0.0f64, per_batch));
            let from_soa = bits(engine.scan_batches(&soa, |_| 0.0f64, per_batch));
            let from_disk = bits(engine.scan_batches(&spilled, |_| 0.0f64, per_batch));
            prop_assert_eq!(&reference, &from_src, "batched source walk diverged (workers {})", workers);
            prop_assert_eq!(&reference, &from_soa, "CSR/SoA walk diverged (workers {})", workers);
            prop_assert_eq!(&reference, &from_disk, "spilled walk diverged (workers {})", workers);
        }
        spilled.check().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn configured_parallelism_matches_budget_override() {
    // The two ways of threading the knob — solver config vs budget override —
    // must agree bit-for-bit.
    use dual_primal_matching::prelude::*;
    let g = workload(45);
    let configured =
        DualPrimalSolver::new(DualPrimalConfig::builder().parallelism(4).build().unwrap())
            .unwrap()
            .solve(&g, &ResourceBudget::unlimited())
            .unwrap();
    let overridden = DualPrimalSolver::default()
        .solve(&g, &ResourceBudget::unlimited().with_parallelism(4))
        .unwrap();
    assert_eq!(fingerprint(&configured), fingerprint(&overridden));
}
