//! The MapReduce simulator: a resource ledger over a fixed input graph, the
//! model's central-space budget `space_constant · n^{1+1/p}` with its check,
//! and the edge-sampling primitive charged as **one round** of access to the
//! edge list. The dual-primal solver's initial solution and Lattanzi-style
//! filtering charge their sampling rounds to this ledger and size their
//! samples by the budget; multi-pass streaming over sharded edge streams runs
//! on the [`crate::PassEngine`].

use crate::resources::ResourceTracker;
use mwm_graph::{EdgeId, Graph};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Configuration of the simulated deployment.
#[derive(Clone, Copy, Debug)]
pub struct MapReduceConfig {
    /// The round/space trade-off exponent `p > 1` of the paper: central space
    /// is budgeted at `space_constant · n^{1+1/p}`.
    pub p: f64,
    /// Constant in front of the space budget.
    pub space_constant: f64,
    /// RNG seed for the sampling primitives.
    pub seed: u64,
}

impl Default for MapReduceConfig {
    fn default() -> Self {
        MapReduceConfig { p: 2.0, space_constant: 4.0, seed: 0xFEED }
    }
}

/// A simulated MapReduce deployment over a fixed input graph.
pub struct MapReduceSim<'a> {
    graph: &'a Graph,
    config: MapReduceConfig,
    tracker: ResourceTracker,
    rng: StdRng,
}

impl<'a> MapReduceSim<'a> {
    /// Creates a simulator over `graph`.
    pub fn new(graph: &'a Graph, config: MapReduceConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        MapReduceSim { graph, config, tracker: ResourceTracker::new(), rng }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The resource ledger accumulated so far.
    pub fn tracker(&self) -> &ResourceTracker {
        &self.tracker
    }

    /// Mutable access to the ledger (for caller-side central-space charges).
    pub fn tracker_mut(&mut self) -> &mut ResourceTracker {
        &mut self.tracker
    }

    /// The central-space budget `space_constant · n^{1+1/p}` in items.
    pub fn space_budget(&self) -> f64 {
        self.config.space_constant
            * (self.graph.num_vertices().max(2) as f64).powf(1.0 + 1.0 / self.config.p)
    }

    /// True if the peak central space is within the budget (log B slack included,
    /// as Theorem 15 allows an extra `log B` factor for b-matchings).
    pub fn check_space(&self) -> bool {
        let log_b = (self.graph.total_capacity().max(2) as f64).ln();
        self.tracker.within_space_budget(
            self.graph.num_vertices().max(2),
            self.config.p,
            log_b,
            self.config.space_constant,
        )
    }

    /// One round that samples each edge independently with probability `prob(id)`
    /// and returns the sampled ids, charging the round, the shuffle and the
    /// central space for the sample.
    pub fn sample_edges(&mut self, mut prob: impl FnMut(EdgeId) -> f64) -> Vec<EdgeId> {
        self.tracker.charge_round();
        self.tracker.charge_stream(self.graph.num_edges());
        let mut sample = Vec::new();
        for (id, _) in self.graph.edge_iter() {
            let p = prob(id).clamp(0.0, 1.0);
            if p >= 1.0 || (p > 0.0 && self.rng.gen_bool(p)) {
                sample.push(id);
            }
        }
        self.tracker.charge_shuffle(sample.len());
        self.tracker.allocate_central(sample.len());
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};

    fn test_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm(50, 400, WeightModel::Uniform(1.0, 5.0), &mut rng)
    }

    #[test]
    fn sampling_charges_one_round_and_space() {
        let g = test_graph(1);
        let mut sim = MapReduceSim::new(&g, MapReduceConfig::default());
        let sample = sim.sample_edges(|_| 0.25);
        assert_eq!(sim.tracker().rounds(), 1);
        assert_eq!(sim.tracker().items_streamed(), g.num_edges());
        assert!(!sample.is_empty());
        assert!(sample.len() < g.num_edges());
        assert_eq!(sim.tracker().shuffle_volume(), sample.len());
        assert_eq!(sim.tracker().peak_central_space(), sample.len());
    }

    #[test]
    fn probability_one_samples_everything() {
        let g = test_graph(2);
        let mut sim = MapReduceSim::new(&g, MapReduceConfig::default());
        let sample = sim.sample_edges(|_| 1.0);
        assert_eq!(sample.len(), g.num_edges());
    }

    #[test]
    fn space_budget_detects_hoarding() {
        let g = test_graph(4);
        let mut sim = MapReduceSim::new(
            &g,
            MapReduceConfig { p: 4.0, space_constant: 1.0, ..Default::default() },
        );
        assert!(sim.check_space());
        // Hoard far more than n^{1+1/4}.
        sim.tracker_mut().allocate_central(10_000_000);
        assert!(!sim.check_space());
    }
}
