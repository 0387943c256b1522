//! Incremental matching over an edge-update stream with `DynamicMatcher`.
//!
//! Demonstrates the epoch lifecycle: a bootstrap rebuild, quiet epochs
//! handled by localized repair, medium-damage epochs handled by dual-primal
//! re-solves seeded with the surviving matching (never lighter than the
//! survivors), a bulk teardown that forces a cold rebuild, and the per-epoch
//! `EpochStats` ledger.
//!
//! ```bash
//! cargo run --release --example dynamic_matching
//! ```

use dual_primal_matching::engine::{DynamicConfig, DynamicMatcher, EpochDecision};
use dual_primal_matching::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

fn print_epoch(r: &EpochReport) {
    let s = &r.stats;
    println!(
        "  epoch {:>2}: {:>7} | updates {:>3} (+{} -{} ~{}) | damage {:>5.1}% | \
         rounds {:>2} (solver {:>2}) | weight {:>8.2} | edges {}",
        s.epoch,
        s.decision.to_string(),
        s.updates_applied,
        s.inserts,
        s.deletes,
        s.reweights,
        100.0 * s.damage_ratio,
        s.epoch_rounds,
        s.solver_rounds,
        s.weight,
        s.matching_edges,
    );
}

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let base = generators::gnm(300, 1500, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);

    // --- 1. A session with seeded dual-primal re-solves (the default) ---
    let config = DynamicConfig { eps: 0.2, p: 2.0, seed: 7 };
    let mut dm = DynamicMatcher::new(&base, config).expect("valid config");
    let budget = ResourceBudget::unlimited().with_parallelism(4);

    println!("bootstrap + update stream (n = 300, m = 1500):");
    let r0 = dm.apply_epoch(&[], &budget).expect("bootstrap epoch");
    print_epoch(&r0);

    // Quiet epoch: one expired edge → localized repair, no re-solve.
    let quiet = vec![GraphUpdate::DeleteEdge { id: 3 }];
    print_epoch(&dm.apply_epoch(&quiet, &budget).expect("repair epoch"));

    // Medium churn: ~15% of vertices touched → a re-solve seeded with the
    // previous matching's surviving edges. It runs the same initial phase
    // as a cold solve, and keeps the survivors unless it finds better.
    let mut medium = Vec::new();
    for i in 0..20u32 {
        medium.push(GraphUpdate::InsertEdge {
            u: rng.gen_range(0..300),
            v: rng.gen_range(0..300),
            w: rng.gen_range(1.0..9.0),
        });
        medium.push(GraphUpdate::DeleteEdge { id: (i * 37) as usize % 1500 });
    }
    let previous = dm.matching().clone();
    let warm = dm.apply_epoch(&medium, &budget).expect("warm epoch");
    print_epoch(&warm);
    assert_eq!(warm.stats.decision, EpochDecision::WarmResolve);
    let mut survivors = BMatching::new();
    for (id, _, mult) in previous.iter() {
        if let Some(e) = dm.overlay().live_edge(id) {
            survivors.add(id, e, mult);
        }
    }
    assert!(dm.weight() >= survivors.weight());
    println!(
        "  -> warm re-solve committed {:.2}; its {} surviving edges weigh {:.2}",
        dm.weight(),
        survivors.num_edges(),
        survivors.weight()
    );

    // --- 2. A bulk teardown: damage past the warm band forces a rebuild ---
    let mut bulk = DynamicMatcher::new(&base, config).expect("valid config");
    bulk.apply_epoch(&[], &budget).expect("bootstrap");
    // Remove a quarter of the graph in one batch → full rebuild.
    let teardown: Vec<GraphUpdate> =
        (0..75u32).map(|v| GraphUpdate::RemoveVertex { v: v * 4 }).collect();
    let r = bulk.apply_epoch(&teardown, &budget).expect("bulk epoch");
    println!("\nbulk teardown:");
    print_epoch(&r);
    assert_eq!(r.stats.decision, EpochDecision::Rebuild);
    assert!(r.solve.as_ref().expect("rebuild solves").stat("initial_rounds") >= Some(1.0));

    // --- 3. The ledger: the session's whole history in one place ---
    println!("\nledger of the first session ({} epochs):", dm.epochs());
    for s in dm.ledger() {
        println!(
            "  epoch {:>2}: {:>7}, damage {:>5.1}%, solver rounds {:>2}, weight {:>8.2}",
            s.epoch,
            s.decision.to_string(),
            100.0 * s.damage_ratio,
            s.solver_rounds,
            s.weight
        );
    }
    println!(
        "cumulative: {} rounds of data access, {} items streamed",
        dm.tracker().rounds(),
        dm.tracker().items_streamed()
    );
}
