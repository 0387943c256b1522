//! Property tests for the portable dual export/import format.
//!
//! `mwm_lp::DualSnapshot` is the wire format of the dual-primal solver's dual
//! point — the warm-start seam of the dynamic/serving subsystems. The
//! roundtrip contract under test: **export → import → export is stable** on
//! the same graph (the sorted-vector form is canonical and the rescale
//! factor survives), both for snapshots produced by real solves (the
//! warm-start path end to end) and for synthetic dual states.

use dual_primal_matching::prelude::*;
use dual_primal_matching::solver::DualState;
use mwm_lp::DualSnapshot;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// The sorted-vector invariant every exporter must uphold: vertex duals by
/// `(vertex, level)`, odd sets by `(level, members)`, no non-positive mass.
fn assert_canonical(snap: &DualSnapshot) {
    assert!(
        snap.vertex_duals.windows(2).all(|w| (w[0].vertex, w[0].level) < (w[1].vertex, w[1].level)),
        "vertex duals not strictly sorted by (vertex, level)"
    );
    assert!(
        snap.odd_sets
            .windows(2)
            .all(|w| (w[0].level, &w[0].members) <= (w[1].level, &w[1].members)),
        "odd sets not sorted by (level, members)"
    );
    assert!(snap.vertex_duals.iter().all(|vd| vd.value > 0.0), "non-positive vertex dual");
    assert!(snap.odd_sets.iter().all(|os| os.value > 0.0), "non-positive odd-set dual");
    assert!(snap.scale.is_finite() && snap.scale > 0.0, "degenerate rescale factor");
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// End-to-end over the warm-start path: a cold solve exports duals, a
    /// warm solve resumes from them and exports again. Every export is in
    /// canonical sorted form, keeps the graph's rescale factor, and
    /// re-importing + re-exporting on the same graph is the identity.
    #[test]
    fn solver_exports_round_trip_through_import(
        seed in 0u64..10_000,
        eps_idx in 0usize..3,
        m in 40usize..120,
    ) {
        let eps = [0.15, 0.2, 0.3][eps_idx];
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm(30, m, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
        let levels = WeightLevels::new(&g, eps);

        let config = DualPrimalConfig::builder().eps(eps).p(2.0).seed(seed).build().unwrap();
        let solver = DualPrimalSolver::new(config).unwrap();
        let (cold, snap) = solver.solve_warm(&g, &ResourceBudget::unlimited(), None).unwrap();
        assert_canonical(&snap);
        prop_assert_eq!(snap.scale.to_bits(), levels.scale().to_bits(), "export keeps B/W*");
        prop_assert_eq!(snap.eps, eps);

        // Import against the same graph's levels, re-export: bit-identical.
        let imported = DualState::from_snapshot(g.num_vertices(), &levels, &snap);
        let again = imported.snapshot(&levels);
        assert_canonical(&again);
        prop_assert_eq!(&again, &snap, "export -> import -> export drifted");
        // And once more: the canonical form is a fixed point.
        let thrice = DualState::from_snapshot(g.num_vertices(), &levels, &again).snapshot(&levels);
        prop_assert_eq!(&thrice, &snap);

        // The warm leg: resume from the exported duals, export again.
        let (warm, warm_snap) = solver
            .solve_warm(
                &g,
                &ResourceBudget::unlimited(),
                Some(&WarmStartState { duals: snap, hint: cold.matching.clone() }),
            )
            .unwrap();
        prop_assert_eq!(warm.stat("warm_started"), Some(1.0));
        assert_canonical(&warm_snap);
        prop_assert_eq!(warm_snap.scale.to_bits(), levels.scale().to_bits());
        let warm_again =
            DualState::from_snapshot(g.num_vertices(), &levels, &warm_snap).snapshot(&levels);
        prop_assert_eq!(&warm_again, &warm_snap, "warm export not a roundtrip fixed point");
    }

    /// Synthetic dual states (random sparse x values plus disjoint odd sets)
    /// roundtrip the same way — the property does not depend on the solver
    /// having produced the state.
    #[test]
    fn synthetic_states_round_trip(
        seed in 0u64..10_000,
        entries in 1usize..24,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::gnm(24, 60, generators::WeightModel::Uniform(1.0, 9.0), &mut rng);
        let levels = WeightLevels::new(&g, 0.2);
        let num_levels = levels.num_levels().max(1);

        let mut d = DualState::new(g.num_vertices(), num_levels, levels.eps());
        for _ in 0..entries {
            let v = rng.gen_range(0..g.num_vertices() as u32);
            let k = rng.gen_range(0..num_levels);
            d.set_x(v, k, rng.gen_range(0.01..3.0));
        }
        // A few disjoint odd sets per level (members drawn from disjoint
        // triples so the within-level disjointness invariant holds).
        for level in 0..num_levels.min(3) {
            for triple in 0..2u32 {
                let base = triple * 3 + level as u32 * 6;
                if base + 2 < g.num_vertices() as u32 && rng.gen_bool(0.7) {
                    d.add_odd_set(level, vec![base, base + 1, base + 2], rng.gen_range(0.01..1.0));
                }
            }
        }

        let snap = d.snapshot(&levels);
        assert_canonical(&snap);
        let again = DualState::from_snapshot(g.num_vertices(), &levels, &snap).snapshot(&levels);
        prop_assert_eq!(&again, &snap, "synthetic export -> import -> export drifted");
    }
}
