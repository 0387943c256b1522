//! Criterion bench for the dynamic matching subsystem: full sliding-window
//! sessions (bootstrap + repair + warm epochs) at 1 vs 4 workers, and the
//! sharded update-ingestion pass in isolation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mwm_bench::workloads;
use mwm_core::ResourceBudget;
use mwm_dynamic::{DynamicConfig, DynamicMatcher};
use mwm_mapreduce::PassEngine;

fn bench_dynamic_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic_updates");
    group.sample_size(10);
    let wl = workloads::sliding_window_stream(400, 40, 3, 8, 0xBE12);
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("sliding_window_session", workers),
            &workers,
            |b, &workers| {
                let budget = ResourceBudget::unlimited().with_parallelism(workers);
                b.iter(|| {
                    let config = DynamicConfig { eps: 0.25, p: 2.0, seed: 3 };
                    let mut dm =
                        DynamicMatcher::new(&wl.initial, config).expect("bench config is valid");
                    for batch in &wl.batches {
                        dm.apply_epoch(batch, &budget).expect("unbudgeted epoch cannot fail");
                    }
                    dm.weight()
                })
            },
        );
    }
    group.finish();
}

fn bench_update_ingestion(c: &mut Criterion) {
    let mut group = c.benchmark_group("update_ingestion");
    group.sample_size(10);
    // One big flattened batch, streamed through the engine like E12 does.
    let wl = workloads::sliding_window_stream(1 << 14, 20_000, 2, 6, 0xFEED);
    let updates: Vec<_> = wl.batches.into_iter().flatten().collect();
    for &workers in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("damage_pass", workers),
            &workers,
            |b, &workers| {
                b.iter(|| {
                    let mut engine = PassEngine::new(workers);
                    engine
                        .pass_items(&updates, |_| 0usize, |acc, _| *acc += 1)
                        .expect("unbudgeted pass cannot fail")
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_dynamic_session, bench_update_ingestion);
criterion_main!(benches);
