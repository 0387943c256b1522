//! Criterion bench for experiment E10: the fractional covering substrate.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_lp::{solve_covering, BoxBudgetPolytope, CoveringParams, ExplicitCovering};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_covering(vars: usize, cons: usize, seed: u64) -> (Vec<Vec<(usize, f64)>>, Vec<f64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..cons)
        .map(|_| {
            let mut r: Vec<(usize, f64)> = Vec::new();
            for j in 0..vars {
                if rng.gen_bool(0.3) {
                    r.push((j, rng.gen_range(0.5..2.0)));
                }
            }
            if r.is_empty() {
                r.push((0, 1.0));
            }
            r
        })
        .collect();
    let c: Vec<f64> = rows.iter().map(|r| 0.5 * r.iter().map(|&(_, a)| a).sum::<f64>()).collect();
    (rows, c)
}

fn bench_lp(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_solvers");
    group.sample_size(10);
    for &(vars, cons) in &[(20usize, 10usize), (60, 30)] {
        let (rows, rhs) = random_covering(vars, cons, 3);
        let polytope = BoxBudgetPolytope {
            upper: vec![1.0; vars],
            cost: vec![1.0; vars],
            budget: vars as f64,
        };
        group.bench_with_input(
            BenchmarkId::new("covering", format!("{vars}v_{cons}c")),
            &(rows, rhs, polytope),
            |b, (rows, rhs, poly)| {
                b.iter(|| {
                    let mut inst = ExplicitCovering::new(rows.clone(), rhs.clone(), poly.clone());
                    let init: Vec<f64> = rhs.iter().map(|x| 0.4 * x).collect();
                    solve_covering(
                        &mut inst,
                        init,
                        Vec::new(),
                        &CoveringParams { eps: 0.1, max_iterations: 500_000 },
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_lp);
criterion_main!(benches);
