//! Cross-crate integration tests for the data-access substrates: promises →
//! deferred sparsifiers → cuts, checked against the offline sparsifier.

use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::Graph;
use dual_primal_matching::sparsify::{
    cut_quality_report, sparsify, DeferredSparsifier, SparsifierConfig,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn offline_and_deferred_sparsifiers_agree_on_cut_quality() {
    let mut rng = StdRng::seed_from_u64(4);
    let g = generators::gnp(150, 0.25, WeightModel::Unit, &mut rng);
    // Offline sparsifier on the unit-weighted graph.
    let offline = sparsify(&g, &SparsifierConfig { xi: 0.2, oversample: 6.0, seed: 2 });
    let offline_report = cut_quality_report(&g, &offline, 40, 5);
    assert!(offline_report.max_relative_error < 0.5, "{offline_report:?}");

    // Deferred sparsifier with exact promises should match the offline behaviour.
    let promise = vec![1.0; g.num_edges()];
    let deferred = DeferredSparsifier::build(&g, &promise, 1.0, 0.2, 2);
    let revealed = deferred.reveal(&g, |_| 1.0);
    let deferred_report = cut_quality_report(&g, &revealed, 40, 5);
    assert!(deferred_report.max_relative_error < 0.5, "{deferred_report:?}");
}

#[test]
fn deferred_sparsifier_survives_multiplier_drift() {
    let mut rng = StdRng::seed_from_u64(8);
    let g = generators::gnp(120, 0.3, WeightModel::Unit, &mut rng);
    let promise: Vec<f64> = (0..g.num_edges()).map(|_| rng.gen_range(0.5..2.0)).collect();
    let chi = 2.0;
    let deferred = DeferredSparsifier::build(&g, &promise, chi, 0.2, 6);
    // Multipliers drift by up to chi in either direction (as across one round's
    // worth of oracle iterations).
    let actual: Vec<f64> = promise.iter().map(|&s| s * rng.gen_range(1.0 / chi..chi)).collect();
    assert!(deferred.promise_violations(&promise, |id| actual[id]).is_empty());
    let sp = deferred.reveal(&g, |id| actual[id]);
    let mut weighted = Graph::new(g.num_vertices());
    for (id, e) in g.edge_iter() {
        weighted.add_edge(e.u, e.v, actual[id]);
    }
    let report = cut_quality_report(&weighted, &sp, 40, 9);
    assert!(report.max_relative_error < 0.6, "{report:?}");
    // And it genuinely is a sparsifier on this dense graph.
    assert!(sp.num_edges() <= g.num_edges());
}
