//! Criterion bench for the sharded pass engine (experiment E11's companion):
//! one multiplier-style pass over the largest bench workload at different
//! worker counts — per-edge vs batch (SoA slice) form — plus the dual-primal
//! solver end-to-end at 1 vs 4 workers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_bench::workloads;
use mwm_core::{DualPrimalConfig, DualPrimalSolver, MatchingSolver, ResourceBudget};
use mwm_lp::StepRule;
use mwm_mapreduce::{PassEngine, SoaShards};

fn bench_pass_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pass_engine");
    group.sample_size(10);
    let stream = workloads::pass_throughput_stream(1, 42);
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("multiplier_pass", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut engine = PassEngine::new(workers);
                    engine
                        .pass_shards(
                            &stream,
                            |_| 0.0f64,
                            |acc, id, e| {
                                let cov = ((id % 97) as f64) / 97.0;
                                *acc += StepRule::multiplier(1.0, cov / e.w, 0.5, e.w);
                            },
                        )
                        .expect("unbudgeted pass cannot fail")
                })
            },
        );
    }
    group.finish();
}

fn bench_batch_pass_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("pass_engine_batch");
    group.sample_size(10);
    let stream = workloads::pass_throughput_stream(1, 42);
    // CSR/SoA materialization happens once, outside the measured closure:
    // the bench compares the slice kernel against the per-edge fold above.
    let soa = SoaShards::from_source(&stream).expect("a generated stream cannot fail a read");
    for &workers in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("multiplier_batch_pass", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut engine = PassEngine::new(workers);
                    engine
                        .pass_batches(
                            &soa,
                            |_| 0.0f64,
                            |acc, batch| {
                                for i in 0..batch.len() {
                                    let w = batch.weight(i);
                                    let cov = ((batch.ids[i] % 97) as f64) / 97.0;
                                    *acc += StepRule::multiplier(1.0, cov / w, 0.5, w);
                                }
                            },
                        )
                        .expect("unbudgeted pass cannot fail")
                })
            },
        );
    }
    group.finish();
}

fn bench_solver_parallelism(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_parallelism");
    group.sample_size(10);
    let g = workloads::scaling_graph(400, 10, 11);
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("dual_primal_n400", workers),
            &workers,
            |b, &workers| {
                let solver = DualPrimalSolver::new(DualPrimalConfig {
                    eps: 0.2,
                    p: 2.0,
                    seed: 2,
                    ..Default::default()
                })
                .expect("bench config is valid");
                let budget = ResourceBudget::unlimited().with_parallelism(workers);
                b.iter(|| solver.solve(&g, &budget))
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pass_throughput,
    bench_batch_pass_throughput,
    bench_solver_parallelism
);
criterion_main!(benches);
