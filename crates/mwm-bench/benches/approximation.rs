//! Criterion bench for experiment E3: end-to-end dual-primal solves across
//! graph families and ε values.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_bench::workloads;
use mwm_core::{DualPrimalConfig, DualPrimalSolver, MatchingSolver, ResourceBudget};

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("approximation");
    group.sample_size(10);
    for w in workloads::standard_suite(120, 5) {
        for &eps in &[0.2, 0.3] {
            let solver = DualPrimalSolver::new(DualPrimalConfig {
                eps,
                p: 2.0,
                seed: 1,
                ..Default::default()
            })
            .expect("bench config is valid");
            group.bench_with_input(
                BenchmarkId::new(w.name.clone(), format!("eps{eps}")),
                &w.graph,
                |b, g| b.iter(|| solver.solve(g, &ResourceBudget::unlimited())),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_solver);
criterion_main!(benches);
