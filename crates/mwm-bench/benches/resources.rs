//! Criterion bench for experiment E4/E1: solver scaling in n and p (rounds and
//! space are reported by the `experiments` binary; this bench times the same
//! configurations).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_bench::workloads;
use mwm_core::{DualPrimalConfig, DualPrimalSolver, MatchingSolver, ResourceBudget};

fn bench_resources(c: &mut Criterion) {
    let mut group = c.benchmark_group("resources");
    group.sample_size(10);
    for &n in &[100usize, 200, 400] {
        let g = workloads::scaling_graph(n, 8, 11);
        group.bench_with_input(BenchmarkId::new("solve_p2_eps02", n), &g, |b, g| {
            let solver = DualPrimalSolver::new(DualPrimalConfig {
                eps: 0.2,
                p: 2.0,
                seed: 2,
                ..Default::default()
            })
            .expect("bench config is valid");
            b.iter(|| solver.solve(g, &ResourceBudget::unlimited()))
        });
    }
    for &p in &[2.0f64, 3.0, 4.0] {
        let g = workloads::scaling_graph(200, 8, 11);
        group.bench_with_input(BenchmarkId::new("solve_n200_eps02_p", p as u64), &g, |b, g| {
            let solver = DualPrimalSolver::new(DualPrimalConfig {
                eps: 0.2,
                p,
                seed: 2,
                ..Default::default()
            })
            .expect("bench config is valid");
            b.iter(|| solver.solve(g, &ResourceBudget::unlimited()))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_resources);
criterion_main!(benches);
