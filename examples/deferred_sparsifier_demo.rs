//! The machinery that makes the round/iteration separation possible:
//! deferred cut sparsifiers (Definition 4 / Lemma 17).
//!
//! We sample a sparsifier knowing only *promise* values of the edge
//! multipliers, let the multipliers drift by a factor χ (as they do across the
//! `ε⁻¹ ln γ` oracle iterations of one round), reveal the true values only for
//! the stored edges, and check that every degree cut and random cut of the
//! multiplier-weighted graph is still preserved.
//!
//! ```text
//! cargo run --release --example deferred_sparsifier_demo
//! ```

use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::Graph;
use dual_primal_matching::sparsify::{cut_quality_report, DeferredSparsifier};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let mut rng = StdRng::seed_from_u64(5);
    let graph = generators::gnp(400, 0.12, WeightModel::Unit, &mut rng);
    println!("input: {graph}");

    // Promise values: the multipliers at sampling time.
    let promise: Vec<f64> = (0..graph.num_edges()).map(|_| rng.gen_range(0.5..2.0)).collect();

    for &chi in &[1.0f64, 1.5, 2.5] {
        // Build the deferred structure from the promises, oversampling by chi^2.
        let deferred = DeferredSparsifier::build(&graph, &promise, chi, 0.2, 99);
        // The multipliers drift within the promise band before being revealed.
        let actual: Vec<f64> =
            promise.iter().map(|&s| s * rng.gen_range(1.0 / chi..=chi)).collect();
        let sparsifier = deferred.reveal(&graph, |id| actual[id]);

        // Evaluate against the true multiplier-weighted graph.
        let mut weighted = Graph::new(graph.num_vertices());
        for (id, e) in graph.edge_iter() {
            weighted.add_edge(e.u, e.v, actual[id]);
        }
        let report = cut_quality_report(&weighted, &sparsifier, 60, 3);
        println!(
            "chi = {chi:>3.1}: stored {:>6} / {:>6} edges ({:>5.1}%), max cut error {:>6.3}, mean {:>6.3}, promise violations {}",
            deferred.num_stored(),
            graph.num_edges(),
            100.0 * deferred.num_stored() as f64 / graph.num_edges() as f64,
            report.max_relative_error,
            report.mean_relative_error,
            deferred.promise_violations(&promise, |id| actual[id]).len(),
        );
    }

    println!("\nlarger drift (chi) costs more stored edges but the revealed sparsifier stays a (1±xi) cut approximation.");
}
