//! One-pass semi-streaming weighted matching with replacement
//! (Feigenbaum et al. \[16\] / McGregor \[29\] style).
//!
//! The algorithm keeps a matching `M` in memory. When an edge `e` arrives it
//! collects the (at most two) conflicting matched edges `C`; if
//! `w(e) > (1+γ)·w(C)` it evicts `C` and inserts `e`. One pass, `O(n)` memory,
//! approximation factor `1/(3+2√2) ≈ 0.17` for `γ = √2 - 1` against the
//! optimum (and much better in practice) — the classical baseline whose gap to
//! `(1-ε)` the paper addresses.
//!
//! The pass itself is consumed through the [`PassEngine`]'s sequential mode:
//! replacement is inherently order-dependent, so the engine visits the shards
//! in index order on the calling thread while still providing its resource
//! accounting and mid-pass budget enforcement. The pass has no thread
//! fan-out, so the solver takes no parallelism setting.

use mwm_core::{MatchingSolver, MwmError, ResourceBudget, SolveReport};
use mwm_graph::{EdgeId, Graph, Matching};
use mwm_mapreduce::{GraphSource, PassEngine, ResourceTracker};

/// The one-pass replacement algorithm behind the engine API: 1 pass, `O(n)`
/// memory, constant-approximation [`MatchingSolver`].
///
/// Construct with [`StreamingGreedy::new`], which validates the improvement
/// factor; [`Default`] uses the classical `γ = √2 - 1 ≈ 0.414`.
#[derive(Clone, Debug)]
pub struct StreamingGreedy {
    gamma_improve: f64,
}

impl StreamingGreedy {
    /// Creates a streaming solver, validating `gamma_improve ≥ 0` and finite.
    pub fn new(gamma_improve: f64) -> Result<Self, MwmError> {
        if !gamma_improve.is_finite() || gamma_improve < 0.0 {
            return Err(MwmError::InvalidConfig {
                param: "gamma_improve",
                value: format!("{gamma_improve}"),
                requirement: "must be non-negative and finite",
            });
        }
        Ok(StreamingGreedy { gamma_improve })
    }
}

impl Default for StreamingGreedy {
    fn default() -> Self {
        StreamingGreedy { gamma_improve: 0.414 }
    }
}

impl MatchingSolver for StreamingGreedy {
    fn name(&self) -> &str {
        "streaming-greedy"
    }

    /// Runs the one-pass replacement algorithm with improvement factor
    /// `gamma_improve`. The report's ledger holds one round, and the matching
    /// held as its peak central space.
    fn solve(&self, graph: &Graph, budget: &ResourceBudget) -> Result<SolveReport, MwmError> {
        let (matching, tracker) = run_replacement_pass(graph, self.gamma_improve, budget)?;
        budget.check_tracker(&tracker)?;
        let passes = tracker.rounds() as f64;
        Ok(SolveReport::new(self.name(), matching.to_b_matching(), tracker)
            .with_stat("gamma_improve", self.gamma_improve)
            .with_stat("passes", passes))
    }
}

/// The engine-driven pass behind [`StreamingGreedy::solve`]. A streamed-items
/// budget can interrupt the pass mid-shard; in that case the partially built
/// matching is discarded and the typed error is returned.
fn run_replacement_pass(
    graph: &Graph,
    gamma_improve: f64,
    budget: &ResourceBudget,
) -> Result<(Matching, ResourceTracker), MwmError> {
    let n = graph.num_vertices();
    let source = GraphSource::auto(graph);
    let mut engine = PassEngine::new(1).with_budget(budget.pass_budget(0));
    // matched_edge[v] = edge id currently matching v.
    let mut matched_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut in_matching = SortedMatching::new();

    engine.pass_sequential(&source, |id, e| {
        let mu = matched_edge[e.u as usize];
        let mv = matched_edge[e.v as usize];
        let mut conflict_weight = 0.0;
        let mut conflicts: Vec<EdgeId> = Vec::new();
        if let Some(c) = mu {
            conflict_weight += in_matching.weight_of(c);
            conflicts.push(c);
        }
        if let Some(c) = mv {
            if Some(c) != mu {
                conflict_weight += in_matching.weight_of(c);
                conflicts.push(c);
            }
        }
        if e.w > (1.0 + gamma_improve) * conflict_weight {
            for c in conflicts {
                if let Some((cu, cv)) = edge_endpoints(graph, c) {
                    matched_edge[cu] = None;
                    matched_edge[cv] = None;
                }
                in_matching.remove(c);
            }
            matched_edge[e.u as usize] = Some(id);
            matched_edge[e.v as usize] = Some(id);
            in_matching.insert(id, e.w);
        }
    })?;
    engine.declare_memory(in_matching.len());

    let mut matching = Matching::new();
    for &(id, _) in in_matching.entries() {
        matching.push(id, graph.edge(id));
    }
    Ok((matching, engine.into_tracker()))
}

/// The matching store of the replacement pass: `(edge id, weight)` pairs in
/// a vec kept sorted by id — the hot-path replacement for the `BTreeMap` the
/// pass used to carry. Edge ids arrive in increasing stream order, so
/// inserts are plain appends on the fast path (binary-search insertion keeps
/// the invariant for any order), and conflict lookups/evictions are binary
/// searches over a dense array instead of pointer-chasing tree nodes.
/// [`SortedMatching::entries`] yields ids in ascending order — the iteration
/// order of the map it replaces — so the assembled matching is unchanged.
struct SortedMatching(Vec<(EdgeId, f64)>);

impl SortedMatching {
    fn new() -> Self {
        SortedMatching(Vec::new())
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    /// The weight of a currently matched edge. Panics if `id` is not
    /// matched, like the map indexing it replaces.
    fn weight_of(&self, id: EdgeId) -> f64 {
        let i = self
            .0
            .binary_search_by_key(&id, |p| p.0)
            .expect("conflicting edge must be in the matching");
        self.0[i].1
    }

    fn insert(&mut self, id: EdgeId, w: f64) {
        match self.0.last() {
            Some(&(last, _)) if last < id => self.0.push((id, w)),
            None => self.0.push((id, w)),
            _ => match self.0.binary_search_by_key(&id, |p| p.0) {
                Ok(i) => self.0[i].1 = w,
                Err(i) => self.0.insert(i, (id, w)),
            },
        }
    }

    fn remove(&mut self, id: EdgeId) {
        if let Ok(i) = self.0.binary_search_by_key(&id, |p| p.0) {
            self.0.remove(i);
        }
    }

    /// The matched `(id, weight)` pairs in ascending id order.
    fn entries(&self) -> &[(EdgeId, f64)] {
        &self.0
    }
}

fn edge_endpoints(graph: &Graph, id: EdgeId) -> Option<(usize, usize)> {
    if id < graph.num_edges() {
        let e = graph.edge(id);
        Some((e.u as usize, e.v as usize))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_matching::exact_max_weight_matching;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn streaming(graph: &Graph, gamma_improve: f64) -> SolveReport {
        let solver = StreamingGreedy::new(gamma_improve).expect("test parameters are valid");
        solver.solve(graph, &ResourceBudget::unlimited()).expect("an unlimited budget holds")
    }

    #[test]
    fn single_pass_valid_matching() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::gnm(100, 800, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let res = streaming(&g, 0.414);
        assert_eq!(res.tracker.rounds(), 1);
        assert!(res.matching.is_valid(&g));
        assert!(res.weight > 0.0);
        assert!(res.tracker.peak_central_space() <= 50);
    }

    #[test]
    fn replacement_beats_no_replacement_on_increasing_weights() {
        // Edges arrive in increasing weight sharing a vertex: without replacement the
        // first (lightest) edge blocks everything.
        let g = generators::greedy_adversarial_path(8, 2.0);
        let res = streaming(&g, 0.1);
        // The heaviest edge must have displaced lighter conflicting ones.
        let heaviest = g.max_weight().unwrap();
        assert!(res.weight >= heaviest);
    }

    #[test]
    fn constant_factor_of_optimum_on_small_graphs() {
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnm(14, 40, WeightModel::Uniform(1.0, 10.0), &mut rng);
            let opt = exact_max_weight_matching(&g).weight();
            if opt <= 0.0 {
                continue;
            }
            let res = streaming(&g, 0.414);
            assert!(res.weight >= opt / 6.0, "seed {seed}: {} vs opt {opt}", res.weight);
        }
    }

    #[test]
    fn memory_is_linear_in_n_not_m() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::gnp(120, 0.5, WeightModel::Uniform(1.0, 3.0), &mut rng);
        let res = streaming(&g, 0.414);
        let held = res.tracker.peak_central_space();
        assert!(held <= 60, "held {held} edges");
        assert!(res.tracker.items_streamed() >= g.num_edges());
    }

    #[test]
    fn zero_gamma_still_valid() {
        let mut rng = StdRng::seed_from_u64(10);
        let g = generators::gnm(30, 100, WeightModel::Uniform(1.0, 5.0), &mut rng);
        let res = streaming(&g, 0.0);
        assert!(res.matching.is_valid(&g));
    }

    #[test]
    fn stream_budget_interrupts_without_a_torn_matching() {
        let mut rng = StdRng::seed_from_u64(12);
        let g = generators::gnm(60, 1200, WeightModel::Uniform(1.0, 9.0), &mut rng);
        let budget = ResourceBudget::unlimited().with_max_streamed_items(100);
        let err = run_replacement_pass(&g, 0.414, &budget).unwrap_err();
        match err {
            MwmError::BudgetExceeded { resource: "streamed items", used, limit: 100 } => {
                assert!(used >= 100);
            }
            other => panic!("expected streamed-items budget error, got {other:?}"),
        }
    }
}
