//! Criterion bench for experiment E5: dual-primal solver vs the Lattanzi
//! filtering baseline vs one-pass streaming greedy, same workload.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_baselines::{LattanziFiltering, StreamingGreedy};
use mwm_bench::workloads;
use mwm_core::{DualPrimalConfig, DualPrimalSolver, MatchingSolver, ResourceBudget};
use mwm_matching::greedy_matching;

fn bench_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("baselines");
    group.sample_size(10);
    let g = workloads::scaling_graph(200, 10, 3);
    group.bench_with_input(BenchmarkId::new("dual_primal", "n200"), &g, |b, g| {
        let solver = DualPrimalSolver::new(DualPrimalConfig {
            eps: 0.25,
            p: 2.0,
            seed: 1,
            ..Default::default()
        })
        .expect("bench config is valid");
        b.iter(|| solver.solve(g, &ResourceBudget::unlimited()))
    });
    group.bench_with_input(BenchmarkId::new("lattanzi_filtering", "n200"), &g, |b, g| {
        let solver = LattanziFiltering::new(2.0, 0.25).expect("bench parameters are valid");
        b.iter(|| solver.solve(g, &ResourceBudget::unlimited()))
    });
    group.bench_with_input(BenchmarkId::new("streaming_greedy", "n200"), &g, |b, g| {
        let solver = StreamingGreedy::new(0.414).expect("bench parameters are valid");
        b.iter(|| solver.solve(g, &ResourceBudget::unlimited()))
    });
    group.bench_with_input(BenchmarkId::new("offline_greedy", "n200"), &g, |b, g| {
        b.iter(|| greedy_matching(g))
    });
    group.finish();
}

criterion_group!(benches, bench_baselines);
criterion_main!(benches);
