//! The filtering algorithm of Lattanzi et al. (SPAA 2011), reference \[25\].
//!
//! Unweighted core loop (their Section 3, reused by Lemma 20 of the paper):
//! while edges remain, sample `O(n^{1+1/p})` of them uniformly in one round,
//! extend a maximal matching greedily on the sample, and *filter out* every
//! edge with a matched endpoint; with high probability the remaining edge count
//! drops by a factor `n^{1/p}` per round, so `O(p)` rounds suffice.
//!
//! Weighted version: edges are grouped into geometric weight classes and the
//! classes are processed from heaviest to lightest, running the unweighted
//! filtering within each class on the vertices still unmatched — the classical
//! way to turn a maximal-matching primitive into an `O(1)` (but not `1-ε`)
//! approximation for weighted matching, which is exactly the gap the
//! dual-primal algorithm closes.

use mwm_core::{MatchingSolver, MwmError, ResourceBudget, SolveReport};
use mwm_graph::{EdgeId, Graph, Matching, WeightLevels};
use mwm_mapreduce::{
    EdgeSource, GraphSource, MapReduceConfig, MapReduceSim, PassEngine, ResourceTracker,
};

/// The filtering algorithm behind the engine API: an `O(p)`-round,
/// `O(n^{1+1/p})`-space, `O(1)`-approximation [`MatchingSolver`].
///
/// Construct with [`LattanziFiltering::new`], which validates the parameters;
/// [`Default`] uses the paper's comparison setting (`p = 2`, `eps = 0.2`).
#[derive(Clone, Debug)]
pub struct LattanziFiltering {
    p: f64,
    eps: f64,
    seed: u64,
    parallelism: usize,
}

impl LattanziFiltering {
    /// Creates a filtering solver, validating `p > 1` and `eps ∈ (0, 1)`.
    pub fn new(p: f64, eps: f64, seed: u64) -> Result<Self, MwmError> {
        if !p.is_finite() || p <= 1.0 {
            return Err(MwmError::InvalidConfig {
                param: "p",
                value: format!("{p}"),
                requirement: "must exceed 1",
            });
        }
        if !eps.is_finite() || eps <= 0.0 || eps >= 1.0 {
            return Err(MwmError::InvalidConfig {
                param: "eps",
                value: format!("{eps}"),
                requirement: "must lie in (0, 1)",
            });
        }
        Ok(LattanziFiltering { p, eps, seed, parallelism: 1 })
    }

    /// Sets the pass-engine worker cap used by the weight-class bucketing
    /// pass (builder style). Per-shard buckets merge in shard order, so the
    /// matching is identical at every setting.
    pub fn with_parallelism(mut self, workers: usize) -> Self {
        self.parallelism = workers.max(1);
        self
    }
}

impl Default for LattanziFiltering {
    fn default() -> Self {
        LattanziFiltering { p: 2.0, eps: 0.2, seed: 0x1A77, parallelism: 1 }
    }
}

impl MatchingSolver for LattanziFiltering {
    fn name(&self) -> &str {
        "lattanzi-filtering"
    }

    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
        let workers = budget.parallelism().unwrap_or(self.parallelism);
        let res = run_filtering(graph, self.p, self.eps, self.seed, workers, budget)?;
        budget.check_tracker(&res.tracker)?;
        Ok(SolveReport::new(self.name(), res.matching.to_b_matching(), res.tracker)
            .with_stat("p", self.p)
            .with_stat("eps", self.eps))
    }
}

/// Result of a filtering run.
#[derive(Clone, Debug)]
pub struct LattanziResult {
    /// The matching found.
    pub matching: Matching,
    /// Its weight.
    pub weight: f64,
    /// Rounds of sampling used.
    pub rounds: usize,
    /// Peak central space (sampled edges held at once).
    pub peak_central_space: usize,
    /// The full resource ledger.
    pub tracker: ResourceTracker,
}

/// Runs weighted filtering with exponent `p` and accuracy `eps` for the weight
/// classes (`eps` only controls the class granularity, not the quality bound).
///
/// # Panics
/// If `p ≤ 1`. [`LattanziFiltering::new`] validates the parameter and returns
/// a typed error instead.
pub fn lattanzi_filtering(graph: &Graph, p: f64, eps: f64, seed: u64) -> LattanziResult {
    assert!(p > 1.0);
    run_filtering(graph, p, eps, seed, 1, &ResourceBudget::unlimited())
        .expect("an unlimited budget cannot interrupt the bucketing pass")
}

/// The engine-driven filtering run shared by the free function and the trait
/// impl: one charged [`PassEngine`] **batch** pass precomputes every edge's
/// class index over SoA shard slices, a per-shard counting sort scatters the
/// ids into weight-class runs (stable, merged in shard order, so edge-id
/// order — and therefore the matching — is identical for every worker
/// count), then the per-class sampling rounds run against the MapReduce
/// simulator as before.
fn run_filtering(
    graph: &Graph,
    p: f64,
    eps: f64,
    seed: u64,
    workers: usize,
    res_budget: &ResourceBudget,
) -> Result<LattanziResult, MwmError> {
    let n = graph.num_vertices();
    let levels = WeightLevels::new(graph, eps.clamp(0.05, 0.9));
    let config = MapReduceConfig { p, space_constant: 4.0, reducers: 4, seed };
    let mut sim = MapReduceSim::new(graph, config);
    let mut matched = vec![false; n];
    let mut matching = Matching::new();

    // One pass over the sharded stream splits it into weight classes.
    let source = GraphSource::auto(graph);
    let mut engine = PassEngine::new(workers).with_budget(res_budget.pass_budget(0));
    let num_levels = levels.num_levels();
    let mut buckets: Vec<Vec<EdgeId>> = vec![Vec::new(); num_levels];
    if num_levels > 0 {
        // Batch pass over SoA shard slices: each edge's class index is
        // precomputed from its weight bits (one multiply + boundary-table
        // search, no logarithm), collected as `(class, id)` pairs in stream
        // order alongside per-class counts.
        let shard_classes = engine.pass_batches(
            &source,
            |shard| (vec![0u32; num_levels], Vec::with_capacity(source.shard_len(shard))),
            |acc: &mut (Vec<u32>, Vec<(u32, EdgeId)>), b| {
                for i in 0..b.len() {
                    if let Some(k) = levels.level_of_bits(b.w[i]) {
                        acc.0[k] += 1;
                        acc.1.push((k as u32, b.ids[i]));
                    }
                }
            },
        )?;
        // Counting sort per shard: prefix-sum the class counts into offsets
        // and scatter the stream-order pairs into contiguous per-class runs.
        // The scatter is stable, so each run lists its ids in stream order —
        // exactly what the old per-class pushes produced — and shards append
        // in shard order, keeping the matching identical bit for bit.
        for (counts, pairs) in shard_classes {
            let mut offsets = vec![0usize; num_levels + 1];
            for (k, &c) in counts.iter().enumerate() {
                offsets[k + 1] = offsets[k] + c as usize;
            }
            let mut sorted = vec![0 as EdgeId; pairs.len()];
            let mut cursor = offsets.clone();
            for &(k, id) in &pairs {
                sorted[cursor[k as usize]] = id;
                cursor[k as usize] += 1;
            }
            for k in 0..num_levels {
                buckets[k].extend_from_slice(&sorted[offsets[k]..offsets[k + 1]]);
            }
        }
    }

    // Heaviest class first.
    let mut class_ids: Vec<usize> = (0..num_levels).filter(|&k| !buckets[k].is_empty()).collect();
    class_ids.sort_unstable_by(|a, b| b.cmp(a));

    for k in class_ids {
        // Remaining edges of this class whose endpoints are both unmatched.
        let mut remaining: Vec<usize> = buckets[k]
            .iter()
            .copied()
            .filter(|&id| {
                let e = graph.edge(id);
                !matched[e.u as usize] && !matched[e.v as usize]
            })
            .collect();
        let budget = sim.space_budget().max(32.0) as usize;
        // O(p) rounds per class in theory; cap generously.
        let mut guard = 0usize;
        while !remaining.is_empty() && guard < 64 {
            guard += 1;
            sim.tracker_mut().charge_round();
            sim.tracker_mut().charge_stream(remaining.len());
            let sample: Vec<usize> = if remaining.len() <= budget {
                remaining.clone()
            } else {
                // Uniform subsample of ~budget edges via the simulator's RNG-free
                // deterministic stride (adequate for the baseline's accounting).
                let stride = remaining.len().div_ceil(budget);
                remaining.iter().copied().step_by(stride.max(1)).collect()
            };
            sim.tracker_mut().charge_shuffle(sample.len());
            sim.tracker_mut().allocate_central(sample.len());
            // Greedy maximal matching on the sample among unmatched vertices.
            for id in &sample {
                let e = graph.edge(*id);
                if !matched[e.u as usize] && !matched[e.v as usize] {
                    matched[e.u as usize] = true;
                    matched[e.v as usize] = true;
                    matching.push(*id, e);
                }
            }
            sim.tracker_mut().release_central(sample.len());
            // Filter: drop edges with a matched endpoint.
            let before = remaining.len();
            remaining.retain(|&id| {
                let e = graph.edge(id);
                !matched[e.u as usize] && !matched[e.v as usize]
            });
            // If the sample was the whole residual, we are done with this class.
            if before <= budget {
                break;
            }
        }
    }

    let weight = matching.weight();
    let mut tracker = sim.tracker().clone();
    tracker.merge(&engine.into_tracker());
    Ok(LattanziResult {
        matching,
        weight,
        rounds: tracker.rounds(),
        peak_central_space: tracker.peak_central_space(),
        tracker,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_matching::{exact_max_weight_matching, greedy_matching};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    #[test]
    fn produces_a_valid_matching() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(80, 600, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let res = lattanzi_filtering(&g, 2.0, 0.2, 7);
        assert!(res.matching.is_valid(80));
        assert!(res.weight > 0.0);
        assert!(res.rounds >= 1);
    }

    #[test]
    fn matching_is_maximal_per_heavy_class_and_constant_factor() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = generators::gnm(60, 400, WeightModel::Uniform(1.0, 4.0), &mut rng);
        let res = lattanzi_filtering(&g, 2.0, 0.2, 11);
        // Constant-factor sanity: at least 1/8 of the greedy weight (in practice much more).
        let greedy = greedy_matching(&g).weight();
        assert!(res.weight >= greedy / 8.0);
    }

    #[test]
    fn unweighted_quality_is_at_least_half_of_optimum() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::gnm(16, 60, WeightModel::Unit, &mut rng);
        let res = lattanzi_filtering(&g, 2.0, 0.2, 13);
        let opt = exact_max_weight_matching(&g).weight();
        assert!(res.weight >= opt / 2.0 - 1e-9, "weight {} vs opt {opt}", res.weight);
    }

    #[test]
    fn space_stays_within_the_sampling_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let g = generators::gnp(150, 0.4, WeightModel::Unit, &mut rng);
        // p = 4 gives a space budget of ~4·150^{1.25} ≈ 2100, well below m ≈ 4500.
        let res = lattanzi_filtering(&g, 4.0, 0.3, 17);
        let budget = 4.0 * (150f64).powf(1.25) + 1.0;
        assert!(
            (res.peak_central_space as f64) <= budget,
            "peak {} exceeds {budget}",
            res.peak_central_space
        );
        // The graph has ~4500 edges, far more than what is held at once.
        assert!(res.peak_central_space < g.num_edges());
    }

    #[test]
    fn rounds_grow_slowly_with_density() {
        let mut rng = StdRng::seed_from_u64(5);
        let sparse = generators::gnm(100, 300, WeightModel::Unit, &mut rng);
        let dense = generators::gnp(100, 0.5, WeightModel::Unit, &mut rng);
        let r_sparse = lattanzi_filtering(&sparse, 2.0, 0.3, 19);
        let r_dense = lattanzi_filtering(&dense, 2.0, 0.3, 19);
        assert!(r_sparse.rounds <= r_dense.rounds + 4);
        assert!(r_dense.rounds <= 40, "rounds {}", r_dense.rounds);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(5);
        let res = lattanzi_filtering(&g, 2.0, 0.2, 23);
        assert!(res.matching.is_empty());
        assert_eq!(res.weight, 0.0);
    }
}
