//! Shared synthetic workloads for the experiments and benches.

use mwm_graph::generators::{self, WeightModel};
use mwm_graph::{Graph, GraphUpdate, VertexId};
use mwm_mapreduce::SyntheticStream;
use rand::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A named workload (graph family + parameters).
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name used in tables.
    pub name: String,
    /// The graph.
    pub graph: Graph,
}

/// The standard workload suite used by the quality experiments: one graph per
/// family at roughly comparable size.
pub fn standard_suite(n: usize, seed: u64) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let avg_deg = 8usize;
    let m = n * avg_deg / 2;
    vec![
        Workload {
            name: format!("gnm-uniform(n={n})"),
            graph: generators::gnm(n, m, WeightModel::Uniform(1.0, 10.0), &mut rng),
        },
        Workload {
            name: format!("gnm-unit(n={n})"),
            graph: generators::gnm(n, m, WeightModel::Unit, &mut rng),
        },
        Workload {
            name: format!("powerlaw(n={n})"),
            graph: generators::power_law(
                n,
                2.5,
                avg_deg as f64,
                WeightModel::Exponential(3.0),
                &mut rng,
            ),
        },
        Workload {
            name: format!("bipartite(n={n})"),
            graph: generators::random_bipartite(
                n / 2,
                n / 2,
                (avg_deg as f64) / (n as f64 / 2.0),
                WeightModel::Uniform(1.0, 10.0),
                &mut rng,
            ),
        },
        Workload {
            name: format!("geometric(n={n})"),
            graph: generators::random_geometric(
                n,
                (avg_deg as f64 / (std::f64::consts::PI * n as f64)).sqrt(),
                WeightModel::Uniform(1.0, 5.0),
                &mut rng,
            ),
        },
    ]
}

/// A single medium random graph for resource-scaling experiments.
pub fn scaling_graph(n: usize, avg_deg: usize, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(n, n * avg_deg / 2, WeightModel::Uniform(1.0, 10.0), &mut rng)
}

/// A dense graph for sparsifier experiments.
pub fn dense_graph(n: usize, p: f64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnp(n, p, WeightModel::Uniform(1.0, 4.0), &mut rng)
}

/// The largest bench workload: a generator-backed synthetic edge stream for
/// the pass-throughput experiment (E11) and the pass-engine benches. At
/// `scale = 1` the stream holds `2^20` edges over `2^16` vertices; edges are
/// derived on the fly from the seed, so the stream costs no memory and can be
/// scaled far past what an in-memory `Graph` could hold.
pub fn pass_throughput_stream(scale: usize, seed: u64) -> SyntheticStream {
    let scale = scale.max(1);
    SyntheticStream::new(scale * (1 << 16), scale * (1 << 20), seed)
}

/// A temporal workload: an initial graph plus per-epoch update batches for
/// the dynamic matching subsystem (experiment E12, the `dynamic_updates`
/// bench and the dynamic example).
#[derive(Clone, Debug)]
pub struct TemporalWorkload {
    /// The graph the session starts from.
    pub initial: Graph,
    /// One update batch per epoch, in arrival order.
    pub batches: Vec<Vec<GraphUpdate>>,
}

/// A sliding-window edge stream: every epoch inserts `per_epoch` fresh random
/// edges and expires (deletes) the edges inserted `window` epochs earlier, so
/// the live edge set is a moving window over the stream — the canonical
/// serving-shaped workload. Every fourth epoch is a *quiet* epoch (two
/// reweights of recent edges instead of a full batch), exercising the
/// incremental-repair band of the damage policy.
///
/// Insert ids are arithmetic: the overlay assigns consecutive stable ids
/// starting at `initial.num_edges()`, so the generator can emit the matching
/// deletes without observing the session. Fully deterministic in `seed`.
pub fn sliding_window_stream(
    n: usize,
    per_epoch: usize,
    window: usize,
    epochs: usize,
    seed: u64,
) -> TemporalWorkload {
    assert!(n >= 2 && per_epoch >= 1 && window >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let initial = Graph::new(n);
    let base = initial.num_edges();
    let mut batches = Vec::with_capacity(epochs);
    // Stable id of the first edge inserted by full epoch `k` (quiet epochs
    // insert nothing, so full epochs are numbered separately).
    let mut full_epoch = 0usize;
    let mut epoch_base = vec![0usize; 0];
    for e in 0..epochs {
        let quiet = e % 4 == 3 && full_epoch > 0;
        let mut batch = Vec::new();
        if quiet {
            // Reweight two edges of the most recent full batch.
            let last_base = base + (full_epoch - 1) * per_epoch;
            for j in 0..2usize.min(per_epoch) {
                batch.push(GraphUpdate::ReweightEdge {
                    id: last_base + j,
                    w: rng.gen_range(1.0..10.0),
                });
            }
        } else {
            epoch_base.push(base + full_epoch * per_epoch);
            for _ in 0..per_epoch {
                let u = rng.gen_range(0..n as u32);
                let mut v = rng.gen_range(0..(n - 1) as u32);
                if v >= u {
                    v += 1;
                }
                batch.push(GraphUpdate::InsertEdge {
                    u: u as VertexId,
                    v: v as VertexId,
                    w: rng.gen_range(1.0..10.0),
                });
            }
            if full_epoch >= window {
                let expired = epoch_base[full_epoch - window];
                for j in 0..per_epoch {
                    batch.push(GraphUpdate::DeleteEdge { id: expired + j });
                }
            }
            full_epoch += 1;
        }
        batches.push(batch);
    }
    TemporalWorkload { initial, batches }
}

/// A b-matching workload with random capacities in `1..=max_b`.
pub fn b_matching_graph(n: usize, avg_deg: usize, max_b: u64, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = generators::gnm(n, n * avg_deg / 2, WeightModel::Uniform(1.0, 10.0), &mut rng);
    generators::randomize_capacities(&mut g, max_b, &mut rng);
    g
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_contains_all_families() {
        let suite = standard_suite(100, 1);
        assert_eq!(suite.len(), 5);
        for w in &suite {
            assert_eq!(w.graph.num_vertices() % 2, 0);
            assert!(w.graph.num_edges() > 0, "{} is empty", w.name);
        }
    }

    #[test]
    fn generators_are_deterministic_in_seed() {
        let a = scaling_graph(80, 6, 7);
        let b = scaling_graph(80, 6, 7);
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.edges()[0].key(), b.edges()[0].key());
    }

    #[test]
    fn b_matching_workload_has_capacities() {
        let g = b_matching_graph(50, 6, 4, 3);
        assert!(g.total_capacity() > 50);
    }

    #[test]
    fn sliding_window_stream_replays_cleanly() {
        let wl = sliding_window_stream(100, 10, 2, 8, 3);
        assert_eq!(wl.batches.len(), 8);
        let mut ov = mwm_graph::GraphOverlay::new(&wl.initial);
        for batch in &wl.batches {
            for u in batch {
                ov.apply(u).expect("generated updates must reference live ids");
            }
        }
        // Full epochs at e = 0,1,2,4,5,6 (3 and 7 are quiet); the window of 2
        // keeps exactly the last two full batches alive.
        assert_eq!(ov.num_live_edges(), 2 * 10);
        let again = sliding_window_stream(100, 10, 2, 8, 3);
        assert_eq!(wl.batches, again.batches, "generator must be deterministic in the seed");
    }

    #[test]
    fn pass_throughput_stream_is_seed_deterministic() {
        use mwm_mapreduce::EdgeSource;
        let a = pass_throughput_stream(1, 7);
        let b = pass_throughput_stream(1, 7);
        assert_eq!(a.num_edges(), 1 << 20);
        assert_eq!(a.num_vertices(), 1 << 16);
        for id in [0usize, 12345, (1 << 20) - 1] {
            let ea = a.edge_at(id);
            let eb = b.edge_at(id);
            assert_eq!((ea.u, ea.v, ea.w.to_bits()), (eb.u, eb.v, eb.w.to_bits()));
        }
    }
}
