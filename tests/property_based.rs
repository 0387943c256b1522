//! Property-based tests (proptest) on cross-crate invariants.

use dual_primal_matching::engine::{MatchingSolver, ResourceBudget};
use dual_primal_matching::graph::generators::{self, WeightModel};
use dual_primal_matching::graph::{Graph, UnionFind, WeightClasses, WeightLevels};
use dual_primal_matching::lp::{DualSnapshot, OddSetDual, VertexDual};
use dual_primal_matching::matching::{
    bounds, exact_max_weight_matching, greedy_b_matching, greedy_matching, improve_matching,
    try_max_weight_bipartite_matching,
};
use dual_primal_matching::prelude::*;
use dual_primal_matching::solver::{DualState, DualUpdate};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// A naive model of the dual state of the penalty relaxation: one map entry
/// per set `x_v(k)`, a list of odd sets per level, and the same fold rule for
/// odd-set mass that overlaps a set of its level.
struct NaiveDual {
    n: usize,
    num_levels: usize,
    x: BTreeMap<(u32, usize), f64>,
    z: Vec<Vec<(Vec<u32>, f64)>>,
}

impl NaiveDual {
    fn new(n: usize, num_levels: usize) -> Self {
        NaiveDual { n, num_levels, x: BTreeMap::new(), z: vec![Vec::new(); num_levels] }
    }

    fn x(&self, v: u32, k: usize) -> f64 {
        self.x.get(&(v, k)).copied().unwrap_or(0.0)
    }

    fn set_x(&mut self, v: u32, k: usize, value: f64) {
        if value > 0.0 {
            self.x.insert((v, k), value);
        } else {
            self.x.remove(&(v, k));
        }
    }

    fn x_max(&self, v: u32) -> f64 {
        (0..self.num_levels).map(|k| self.x(v, k)).fold(0.0, f64::max)
    }

    fn holder(&self, level: usize, v: u32) -> Option<usize> {
        self.z[level].iter().position(|(members, _)| members.contains(&v))
    }

    fn step(&mut self, update: &DualUpdate, sigma: f64) {
        for value in self.x.values_mut() {
            *value *= 1.0 - sigma;
        }
        for (_, value) in self.z.iter_mut().flatten() {
            *value *= 1.0 - sigma;
        }
        for &(v, k, value) in &update.vertices {
            let cur = self.x(v, k);
            self.set_x(v, k, cur + sigma * value);
        }
        for (level, members, value) in &update.odd_sets {
            let add = sigma * value;
            if add <= 0.0 {
                continue;
            }
            match members.iter().find_map(|&v| self.holder(*level, v)) {
                Some(s) => self.z[*level][s].1 += add,
                None => self.z[*level].push((members.clone(), add)),
            }
        }
    }

    /// Σ of `z_{U,ℓ}` over `ℓ ≤ k` and the sets holding every vertex of `of`.
    fn z_sum(&self, of: &[u32], k: usize) -> f64 {
        let mut total = 0.0;
        for sets in self.z.iter().take(k + 1) {
            for (members, value) in sets {
                if of.iter().all(|v| members.contains(v)) {
                    total += value;
                }
            }
        }
        total
    }

    fn objective(&self, g: &Graph) -> f64 {
        let mut total = 0.0;
        for v in 0..self.n as u32 {
            total += g.b(v) as f64 * self.x_max(v);
        }
        for (members, value) in self.z.iter().flatten() {
            let cap: u64 = members.iter().map(|&v| g.b(v)).sum();
            total += (cap / 2) as f64 * value;
        }
        total
    }

    fn classical_odd_sets(&self, eps: f64) -> Vec<(Vec<u32>, f64)> {
        let scale = 1.0 / (1.0 - 3.0 * eps);
        let mut sums: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        for (members, value) in self.z.iter().flatten() {
            *sums.entry(members.clone()).or_insert(0.0) += value * scale;
        }
        sums.into_iter().collect()
    }

    fn snapshot(&self, levels: &WeightLevels, eps: f64) -> DualSnapshot {
        let vertex_duals = self
            .x
            .iter()
            .filter(|(_, &value)| value > 0.0)
            .map(|(&(vertex, level), &value)| VertexDual {
                vertex,
                level,
                level_weight: levels.level_weight_original(level),
                value,
            })
            .collect();
        let mut odd_sets = Vec::new();
        for (level, sets) in self.z.iter().enumerate() {
            for (members, value) in sets.iter().filter(|(_, value)| *value > 0.0) {
                odd_sets.push(OddSetDual {
                    level,
                    level_weight: levels.level_weight_original(level),
                    members: members.clone(),
                    value: *value,
                });
            }
        }
        let mut snap = DualSnapshot {
            eps,
            scale: levels.scale(),
            num_levels: self.num_levels,
            vertex_duals,
            odd_sets,
        };
        snap.normalize();
        snap
    }
}

/// `size` distinct vertices below `n`, sorted.
fn random_members(rng: &mut StdRng, n: usize, size: usize) -> Vec<u32> {
    let mut all: Vec<u32> = (0..n as u32).collect();
    all.shuffle(rng);
    let mut members = all[..size].to_vec();
    members.sort_unstable();
    members
}

/// Builds a random graph from a proptest-chosen seed and size.
fn graph_from(seed: u64, n: usize, m: usize, max_w: f64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::gnm(n.max(2), m, WeightModel::Uniform(1.0, max_w.max(1.5)), &mut rng)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The solver always returns a feasible matching whose weight does not
    /// exceed any certified upper bound.
    #[test]
    fn solver_output_is_feasible_and_bounded(seed in 0u64..500, n in 10usize..60, deg in 2usize..8) {
        let g = graph_from(seed, n, n * deg / 2, 10.0);
        let config = DualPrimalConfig::builder().eps(0.25).p(2.0).seed(seed).build().unwrap();
        let res = DualPrimalSolver::new(config)
            .unwrap()
            .solve(&g, &ResourceBudget::unlimited())
            .unwrap();
        prop_assert!(res.matching.is_valid(&g));
        let ub = bounds::matching_weight_upper_bound(&g);
        prop_assert!(res.weight <= ub + 1e-6, "weight {} exceeds upper bound {}", res.weight, ub);
        if g.num_edges() > 0 {
            prop_assert!(res.weight > 0.0);
        }
    }

    /// The flat dual state agrees bit for bit with the naive model after any
    /// sequence of `set_x`, `add_odd_set` and Theorem 5 steps, including
    /// steps whose odd sets overlap a set of their level.
    #[test]
    fn flat_dual_state_matches_a_naive_model(
        seed in 0u64..10_000,
        n in 3usize..13,
        num_levels in 1usize..7,
        ops in 1usize..40,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let eps = 0.2;
        let caps: Vec<u64> = (0..n).map(|_| rng.gen_range(1..=3)).collect();
        let mut g = Graph::with_capacities(caps);
        g.add_edge(0, 1, 1.0);
        // B ≥ 3 puts the one edge on level ≥ 6, so every level of the state
        // has a weight to export.
        let levels = WeightLevels::new(&g, eps);
        prop_assert!(levels.num_levels() >= num_levels);

        let mut flat = DualState::new(n, num_levels, eps);
        let mut naive = NaiveDual::new(n, num_levels);
        for _ in 0..ops {
            match rng.gen_range(0..4) {
                0 => {
                    let v = rng.gen_range(0..n as u32);
                    let k = rng.gen_range(0..num_levels);
                    let value = match rng.gen_range(0..4) {
                        0 => -1.0,
                        1 => 0.0,
                        _ => rng.gen_range(0.01..5.0),
                    };
                    flat.set_x(v, k, value);
                    naive.set_x(v, k, value);
                }
                1 => {
                    let level = rng.gen_range(0..num_levels);
                    let members = random_members(&mut rng, n, 3);
                    if members.iter().all(|&v| naive.holder(level, v).is_none()) {
                        let value = rng.gen_range(0.01..2.0);
                        flat.add_odd_set(level, members.clone(), value);
                        naive.z[level].push((members, value));
                    }
                }
                _ => {
                    let mut update = DualUpdate::default();
                    for _ in 0..rng.gen_range(0..6) {
                        let v = rng.gen_range(0..n as u32);
                        let k = rng.gen_range(0..num_levels);
                        update.vertices.push((v, k, rng.gen_range(0.0..4.0)));
                    }
                    for _ in 0..rng.gen_range(0..3) {
                        let level = rng.gen_range(0..num_levels);
                        let size = if n >= 5 && rng.gen_bool(0.3) { 5 } else { 3 };
                        let mut members = random_members(&mut rng, n, size);
                        // Often reuse a member of a set the level already
                        // holds, so the fold rule runs.
                        if let Some((held, _)) = naive.z[level].first() {
                            if rng.gen_bool(0.6) && !members.contains(&held[0]) {
                                members[0] = held[0];
                                members.sort_unstable();
                            }
                        }
                        let value = if rng.gen_bool(0.1) { 0.0 } else { rng.gen_range(0.01..3.0) };
                        update.odd_sets.push((level, members, value));
                    }
                    update.odd_sets.sort_by_key(|set| set.0);
                    let sigma = rng.gen_range(0.0..=1.0);
                    flat.step(&update, sigma);
                    naive.step(&update, sigma);
                }
            }
        }

        for v in 0..n as u32 {
            prop_assert_eq!(flat.x_max(v).to_bits(), naive.x_max(v).to_bits());
            for k in 0..num_levels {
                prop_assert_eq!(flat.x(v, k).to_bits(), naive.x(v, k).to_bits(), "x_{}({})", v, k);
                let load = 2.0 * naive.x(v, k) + naive.z_sum(&[v], k);
                prop_assert_eq!(flat.vertex_load(v, k).to_bits(), load.to_bits());
                for j in 0..n as u32 {
                    let cov = naive.x(v, k) + naive.x(j, k) + naive.z_sum(&[v, j], k);
                    prop_assert_eq!(
                        flat.edge_coverage(v, j, k).to_bits(),
                        cov.to_bits(),
                        "coverage of ({}, {}) at level {}", v, j, k
                    );
                }
            }
        }
        prop_assert_eq!(flat.objective(&g).to_bits(), naive.objective(&g).to_bits());
        let (_, flat_sets) = flat.to_classical_dual();
        let naive_sets = naive.classical_odd_sets(eps);
        prop_assert_eq!(flat_sets.len(), naive_sets.len());
        for (a, b) in flat_sets.iter().zip(&naive_sets) {
            prop_assert_eq!(&a.0, &b.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        let (flat_snap, naive_snap) = (flat.snapshot(&levels), naive.snapshot(&levels, eps));
        prop_assert_eq!(flat_snap.fingerprint(), naive_snap.fingerprint());
        prop_assert_eq!(flat_snap, naive_snap);
    }

    /// Weight-level discretization never overestimates a weight and loses at
    /// most a (1+eps) factor, for every kept edge; the levels end one past
    /// the heaviest edge's class.
    #[test]
    fn weight_levels_sandwich(seed in 0u64..500, n in 4usize..40, eps in 0.05f64..0.45) {
        let g = graph_from(seed, n, n * 3, 50.0);
        let levels = WeightLevels::new(&g, eps);
        let classes = levels.classes();
        for e in g.edges() {
            let Some(k) = classes.class_of(e.w) else { continue };
            let scaled = e.w * levels.scale();
            let disc = levels.level_weight(k);
            prop_assert!(disc <= scaled * (1.0 + 1e-9));
            prop_assert!(scaled <= disc * (1.0 + eps) * (1.0 + 1e-9));
        }
        prop_assert!(levels.num_kept_edges() + levels.dropped_edges() == g.num_edges());
        if let Some(w_star) = g.max_weight() {
            let top = classes.class_of(w_star).expect("the heaviest edge is never dropped");
            prop_assert_eq!(levels.num_levels(), top + 1);
        }
    }

    /// The one weight-class table follows Definition 3: class `k` of a weight
    /// is the largest `k` with `(1+ε)^k ≤ w·scale` (a naive scan finds it),
    /// weights that rescale below 1 have no class, weights above the table
    /// share its top class, and class weights are `(1+ε)^k` bit for bit.
    #[test]
    fn weight_classes_follow_definition_3(
        eps in 0.01f64..0.49,
        scale in 0.01f64..100.0,
        max_scaled in 0.5f64..1e4,
        ws in proptest::collection::vec(1e-3f64..1e6, 1..40),
    ) {
        let classes = WeightClasses::new(eps, scale, max_scaled);
        let top = classes.num_classes() - 1;
        for k in 0..classes.num_classes() {
            prop_assert_eq!(classes.weight(k).to_bits(), (1.0 + eps).powi(k as i32).to_bits());
        }
        prop_assert!(classes.weight(top) > max_scaled, "the table must cover max_scaled");
        prop_assert!(top == 0 || classes.weight(top - 1) <= max_scaled, "and end right above it");
        // Random weights plus every class boundary mapped back to original scale.
        let boundaries = (0..classes.num_classes()).map(|k| classes.weight(k) / scale);
        for w in ws.iter().copied().chain(boundaries) {
            let scaled = w * scale;
            let got = classes.class_of(w);
            prop_assert_eq!(got, classes.class_of_bits(w.to_bits()));
            if scaled < 1.0 {
                prop_assert_eq!(got, None, "w={} scales below 1", w);
                continue;
            }
            let naive = (0..).take_while(|&k| (1.0 + eps).powi(k) <= scaled).last().unwrap();
            prop_assert_eq!(got, Some((naive as usize).min(top)), "w={} scaled={}", w, scaled);
        }
        prop_assert_eq!(classes.class_of(classes.weight(top) * 1e3 / scale), Some(top));
        // Unscaled, every class weight is the first weight of its class.
        let unit = WeightClasses::new(eps, 1.0, max_scaled);
        for k in 0..unit.num_classes() {
            prop_assert_eq!(unit.class_of(unit.weight(k)), Some(k));
        }
        // The batch passes hold weights as bit patterns; for positive finite
        // weights their order is the numeric order.
        let mut spread = ws.clone();
        spread.extend([1e-300, 1.0, 1.0000000001, 9.9, 1e18, f64::MAX]);
        for &a in &spread {
            prop_assert_eq!(f64::from_bits(a.to_bits()).to_bits(), a.to_bits());
            for &b in &spread {
                prop_assert_eq!(a < b, a.to_bits() < b.to_bits(), "a={} b={}", a, b);
            }
        }
    }

    /// Local search never produces an invalid matching and never loses weight
    /// relative to its greedy starting point.
    #[test]
    fn local_search_monotone(seed in 0u64..500, n in 6usize..50, deg in 2usize..8) {
        let g = graph_from(seed, n, n * deg / 2, 9.0);
        let greedy = greedy_matching(&g);
        let before = greedy.weight();
        let improved = improve_matching(&g, greedy);
        prop_assert!(improved.is_valid(g.num_vertices()));
        prop_assert!(improved.weight() + 1e-9 >= before);
    }

    /// The sparse bipartite solver reaches the bitmask-DP optimum on bipartite
    /// graphs of up to 22 vertices with unbalanced sides, isolated vertices
    /// and repeated vertex pairs (parallel edges), under shuffled vertex ids.
    #[test]
    fn bipartite_solver_matches_the_dp(
        seed in 0u64..1000,
        left in 1usize..11,
        right in 1usize..11,
        isolated in 0usize..3,
        edges in proptest::collection::vec((0usize..10, 0usize..10, 1.0f64..9.0), 0..40),
    ) {
        let n = left + right + isolated;
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.shuffle(&mut StdRng::seed_from_u64(seed));
        let mut g = Graph::new(n);
        for &(a, b, w) in &edges {
            g.add_edge(ids[a % left], ids[left + b % right], w);
        }
        let sparse = try_max_weight_bipartite_matching(&g).expect("bipartite by construction");
        prop_assert!(sparse.is_valid(n));
        let dp = exact_max_weight_matching(&g).weight();
        prop_assert!((sparse.weight() - dp).abs() < 1e-9, "sparse {} vs dp {}", sparse.weight(), dp);
    }

    /// Greedy b-matching is a ½-approximation: b-matchings counted by unit
    /// copies form a 2-extendible system, on which greedy by weight is a
    /// ½-approximation (Mestre 2006). The optimum is the bitmask DP on the
    /// graph with `b_v` copies of each vertex `v`, where an edge `uv` becomes
    /// every copy pair, so it can be used up to `min(b_u, b_v)` times as in
    /// the model. Σb ≤ 18 keeps the DP small.
    #[test]
    fn greedy_b_matching_is_a_half_approximation(
        caps in proptest::collection::vec(1u64..4, 2..7),
        edges in proptest::collection::vec((0usize..6, 0usize..6, 1.0f64..9.0), 0..16),
    ) {
        let n = caps.len();
        let mut g = Graph::with_capacities(caps.clone());
        for &(a, b, w) in &edges {
            let (u, v) = (a % n, b % n);
            if u != v {
                g.add_edge(u as u32, v as u32, w);
            }
        }
        // The copies of vertex v are first[v] .. first[v] + b_v.
        let mut first = Vec::with_capacity(n);
        let mut total = 0usize;
        for &b in &caps {
            first.push(total);
            total += b as usize;
        }
        prop_assert!(total <= 18);
        let mut copies = Graph::new(total);
        for e in g.edges() {
            for i in 0..g.b(e.u) as usize {
                for j in 0..g.b(e.v) as usize {
                    let cu = (first[e.u as usize] + i) as u32;
                    let cv = (first[e.v as usize] + j) as u32;
                    copies.add_edge(cu, cv, e.w);
                }
            }
        }
        let greedy = greedy_b_matching(&g);
        prop_assert!(greedy.is_valid(&g));
        let opt = exact_max_weight_matching(&copies).weight();
        prop_assert!(greedy.weight() <= opt + 1e-9, "greedy {} above the optimum {}", greedy.weight(), opt);
        prop_assert!(
            2.0 * greedy.weight() >= opt - 1e-9,
            "greedy {} below half of the optimum {}", greedy.weight(), opt
        );
    }

    /// Greedy b-matching, the maximal b-matching of its weight order, is
    /// feasible and maximal: every edge has a saturated endpoint.
    #[test]
    fn maximal_b_matching_is_maximal(seed in 0u64..500, n in 4usize..40, max_b in 1u64..5) {
        let mut g = graph_from(seed, n, n * 3, 5.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        generators::randomize_capacities(&mut g, max_b, &mut rng);
        let bm = greedy_b_matching(&g);
        prop_assert!(bm.is_valid(&g));
        let loads = bm.vertex_loads(g.num_vertices());
        for e in g.edges() {
            prop_assert!(
                loads[e.u as usize] >= g.b(e.u) || loads[e.v as usize] >= g.b(e.v),
                "edge ({}, {}) could still be added", e.u, e.v
            );
        }
    }

    /// The union-find partition refines exactly the connectivity of the union
    /// operations applied (no spurious merges, no missed merges).
    #[test]
    fn union_find_matches_reference(pairs in proptest::collection::vec((0usize..30, 0usize..30), 0..60)) {
        let mut uf = UnionFind::new(30);
        // Reference: adjacency + BFS.
        let mut adj = vec![Vec::new(); 30];
        for &(a, b) in &pairs {
            uf.union(a, b);
            adj[a].push(b);
            adj[b].push(a);
        }
        // BFS labels.
        let mut label = vec![usize::MAX; 30];
        let mut next = 0;
        for s in 0..30 {
            if label[s] != usize::MAX { continue; }
            let mut stack = vec![s];
            label[s] = next;
            while let Some(v) = stack.pop() {
                for &w in &adj[v] {
                    if label[w] == usize::MAX {
                        label[w] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        for a in 0..30 {
            for b in 0..30 {
                prop_assert_eq!(uf.connected(a, b), label[a] == label[b]);
            }
        }
    }

    /// The mass-expiry fast path is pure sugar: `ExpireWindow { lo, hi }`
    /// leaves the overlay in exactly the state that per-edge `DeleteEdge`
    /// over every live id in `[lo, hi)` would — same live edges, same
    /// materialized graph, same resident footprint.
    #[test]
    fn mass_expiry_equals_per_edge_deletion(
        seed in 0u64..300,
        n in 4usize..24,
        inserts in 1usize..40,
        lo in 0usize..50,
        span in 1usize..50,
    ) {
        let base = graph_from(seed, n, n, 6.0);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE1);
        let mut bulk = GraphOverlay::new(&base);
        for _ in 0..inserts {
            let u = rng.gen_range(0..n as u32);
            let mut v = rng.gen_range(0..(n - 1) as u32);
            if v >= u { v += 1; }
            let w = rng.gen_range(1.0..6.0);
            bulk.apply(&GraphUpdate::InsertEdge { u, v, w }).unwrap();
        }
        let mut one_by_one = bulk.clone();

        let hi = lo + span;
        bulk.apply(&GraphUpdate::ExpireWindow { lo, hi }).unwrap();
        for id in lo..hi.min(one_by_one.next_edge_id()) {
            if one_by_one.live_edge(id).is_some() {
                one_by_one.apply(&GraphUpdate::DeleteEdge { id }).unwrap();
            }
        }

        prop_assert_eq!(bulk.num_live_edges(), one_by_one.num_live_edges());
        let live_a: Vec<_> = bulk.live_edge_iter().map(|(id, e)| (id, e.key(), e.w.to_bits())).collect();
        let live_b: Vec<_> = one_by_one.live_edge_iter().map(|(id, e)| (id, e.key(), e.w.to_bits())).collect();
        prop_assert_eq!(live_a, live_b, "live edge sets diverged");
        prop_assert_eq!(bulk.resident_bytes(), one_by_one.resident_bytes());
        let (ga, backs_a) = bulk.materialize();
        let (gb, backs_b) = one_by_one.materialize();
        prop_assert_eq!(backs_a, backs_b);
        prop_assert_eq!(ga.num_edges(), gb.num_edges());
        for (ea, eb) in ga.edges().iter().zip(gb.edges().iter()) {
            prop_assert_eq!(ea.key(), eb.key());
            prop_assert_eq!(ea.w.to_bits(), eb.w.to_bits());
        }
    }
}
