//! The motivating scenario of the paper's introduction: a MapReduce-scale
//! "social network" graph (heavy-tailed degrees) on which we want the actual
//! edges of a near-maximum weighted matching, not just an estimate — without
//! ever holding all edges in central memory.
//!
//! The example drives three solvers through the same engine API trait,
//! under identical resource accounting:
//! * the dual-primal `(1-ε)` solver of the paper,
//! * the Lattanzi et al. SPAA'11 filtering baseline (O(1)-approximation), and
//! * the classical one-pass streaming greedy.
//!
//! ```text
//! cargo run --release --example social_network_stream
//! ```

use dual_primal_matching::engine::{MatchingSolver, ResourceBudget};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::matching::bounds;
use dual_primal_matching::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), MwmError> {
    let mut rng = StdRng::seed_from_u64(2024);
    // Chung-Lu power-law graph: 800 "users", average degree 10, exponent 2.5,
    // exponential edge weights (interaction strengths).
    let graph = generators::power_law(800, 2.5, 10.0, WeightModel::Exponential(5.0), &mut rng);
    let upper = bounds::matching_weight_upper_bound(&graph);
    println!("social graph: {graph}");
    println!("certified optimum upper bound: {upper:.1}\n");

    // One trait, three algorithms: the engine API makes the comparison generic.
    let config = DualPrimalConfig::builder().eps(0.2).p(2.0).seed(9).build()?;
    let solvers: Vec<Box<dyn MatchingSolver>> = vec![
        Box::new(DualPrimalSolver::new(config)?),
        Box::new(LattanziFiltering::new(2.0, 0.2)?),
        Box::new(StreamingGreedy::new(0.414)?),
    ];

    let mut weights = Vec::new();
    for solver in &solvers {
        let report = solver.solve(&graph, &ResourceBudget::unlimited())?;
        println!("{}:", report.solver);
        println!(
            "  weight {:.1}  (>= {:.2} of the upper bound)",
            report.weight,
            report.weight / upper
        );
        println!(
            "  rounds {}  peak central space {} (m = {})\n",
            report.rounds(),
            report.peak_central_space(),
            graph.num_edges()
        );
        weights.push(report.weight);
    }

    let (dp, latt) = (weights[0], weights[1]);
    println!(
        "summary: dual-primal recovers {:.1}% of the filtering baseline's gap to the bound",
        100.0 * (dp - latt).max(0.0) / (upper - latt).max(1e-9)
    );
    Ok(())
}
