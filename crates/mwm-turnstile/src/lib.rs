//! Turnstile ingestion for dynamic matching: per-weight-class linear sketch
//! banks.
//!
//! A journal replays every surviving update; under heavy deletion most of that
//! work cancels. This crate absorbs insert/delete/reweight updates into
//! *linear sketches* instead — a bank of AGM vertex sketches (connectivity)
//! plus one ℓ0-sampler per `(1+ε)^k` weight class (boundary samples) — so the
//! cost per update is `O(polylog)` cells touched and the resident state is a
//! pure function of the **live** edge multiset: a delete is the exact inverse
//! of its insert, and a reweight, fed as `(-old, +new)`, cancels to nothing in
//! the weight-oblivious forest bank.
//!
//! Linearity also buys deterministic sharding: cell updates are exact integer
//! and modular additions, so the bank of a stream equals the cell-wise sum of
//! the banks of any partition of the stream. The pass engine can ingest shards
//! on independent workers and [`SketchBank::merge`] them in shard order; the
//! result is bit-identical at every worker count.
//!
//! Weight classes come from the solver's class table ([`WeightClasses`]),
//! built from the bank's own `eps`, `scale` and `max_scaled`. The dynamic
//! matcher's banks classify raw weights (`scale = 1`), while the solver
//! classifies weights rescaled by its `B/W*`, so a sketch class is a
//! `(1+ε)^k` band of raw weight, not a solver level. Weights that rescale
//! below 1 land in a dedicated *underflow* sampler, so every live edge is
//! held by exactly one class sampler (plus the forest bank).
//!
//! On epoch commit, [`SketchBank::recover_candidates`] extracts a candidate
//! edge set: a Borůvka spanning forest peeled from the vertex-sketch copies,
//! plus every fingerprint-verified 1-sparse cell of the class samplers.
//! Recovery is randomized but seeded, and reads only bank state — so it too is
//! identical at every worker count.

use mwm_graph::{UnionFind, VertexId, WeightClasses};
use mwm_sketch::graph_sketch::{decode_pair, encode_pair};
use mwm_sketch::{Decode, L0Sampler, OneSparse, SketchError, VertexSketch};

/// Parameters pinning a sketch bank's shape and randomness. Two banks are
/// mergeable exactly when every field matches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TurnstileConfig {
    /// Vertex-id domain of the stream (edges must stay inside it).
    pub num_vertices: usize,
    /// Class ratio of the weight classes (boundaries `(1+eps)^k`).
    pub eps: f64,
    /// Rescale factor applied before classification (the solver's `B/W*`; use
    /// `1.0` to classify raw weights).
    pub scale: f64,
    /// Largest scaled weight the class table must cover; heavier edges share
    /// the top class.
    pub max_scaled: f64,
    /// Independent vertex-sketch copies (Borůvka rounds available).
    pub forest_copies: usize,
    /// ℓ0-sampler repetitions per sketch (space/recovery-probability dial).
    pub reps: usize,
    /// Root seed; all bank randomness derives from it.
    pub seed: u64,
}

impl TurnstileConfig {
    /// A reasonable default shape for a stream over `n` vertices with raw
    /// weights in `(0, max_weight]`: `⌈log2 n⌉ + 2` forest copies (enough
    /// Borůvka rounds whp) at one repetition each.
    pub fn for_stream(n: usize, eps: f64, max_weight: f64, seed: u64) -> Self {
        let forest_copies = ((n.max(2) as f64).log2().ceil() as usize + 2).max(3);
        TurnstileConfig {
            num_vertices: n,
            eps,
            scale: 1.0,
            max_scaled: max_weight,
            forest_copies,
            reps: 1,
            seed,
        }
    }
}

/// One signed edge update in turnstile form. A reweight is two deltas:
/// `sign = -1` at the old weight followed by `sign = +1` at the new one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeDelta {
    /// One endpoint.
    pub u: VertexId,
    /// The other endpoint.
    pub v: VertexId,
    /// The edge weight as an IEEE-754 bit pattern (exact, orderable).
    pub weight_bits: u64,
    /// `+1` (insert) or `-1` (delete).
    pub sign: i64,
}

impl EdgeDelta {
    /// An insertion delta.
    pub fn insert(u: VertexId, v: VertexId, w: f64) -> Self {
        EdgeDelta { u, v, weight_bits: w.to_bits(), sign: 1 }
    }

    /// A deletion delta (must carry the same weight bits the insert did).
    pub fn delete(u: VertexId, v: VertexId, w: f64) -> Self {
        EdgeDelta { u, v, weight_bits: w.to_bits(), sign: -1 }
    }
}

/// The complete turnstile state: `forest_copies × n` AGM vertex sketches plus
/// one pair-domain ℓ0-sampler per weight class (and one for underflow).
#[derive(Clone, Debug)]
pub struct SketchBank {
    config: TurnstileConfig,
    classes: WeightClasses,
    /// `forest_copies × n` vertex sketches, row-major by copy; copy `c` is
    /// seeded `seed + c` (the [`mwm_sketch::GraphSketcher`] convention).
    forest: Vec<VertexSketch>,
    /// One sampler per weight class, plus the underflow sampler last.
    class_samplers: Vec<L0Sampler>,
    /// Net live-edge count per class sampler (exact, since deltas cancel).
    class_support: Vec<i64>,
}

/// Distinguishing offset for class-sampler seeds, so they never coincide with
/// a forest copy's seed.
const CLASS_SEED_OFFSET: u64 = 0xC1A5_5000_0000_0000;

fn words_per_cell() -> usize {
    5
}

impl SketchBank {
    /// An empty bank of the given shape.
    pub fn new(config: TurnstileConfig) -> Self {
        assert!(config.num_vertices >= 2, "turnstile streams need at least two vertices");
        assert!(config.forest_copies >= 1 && config.reps >= 1);
        let n = config.num_vertices;
        let classes = WeightClasses::new(config.eps, config.scale, config.max_scaled);
        let mut forest = Vec::with_capacity(config.forest_copies * n);
        for c in 0..config.forest_copies {
            let copy_seed = config.seed.wrapping_add(c as u64);
            for _ in 0..n {
                forest.push(VertexSketch::with_reps(n, copy_seed, config.reps));
            }
        }
        let pair_domain = (n as u64 * (n as u64 - 1) / 2).max(1);
        let num_class_samplers = classes.num_classes() + 1;
        let class_samplers = (0..num_class_samplers)
            .map(|k| {
                let class_seed = config.seed.wrapping_add(CLASS_SEED_OFFSET).wrapping_add(k as u64);
                L0Sampler::with_reps(pair_domain, class_seed, config.reps)
            })
            .collect();
        let class_support = vec![0i64; num_class_samplers];
        SketchBank { config, classes, forest, class_samplers, class_support }
    }

    /// The configuration the bank was built with.
    pub fn config(&self) -> &TurnstileConfig {
        &self.config
    }

    /// Number of weight classes (excluding the underflow sampler).
    pub fn num_classes(&self) -> usize {
        self.classes.num_classes()
    }

    /// Net live-edge count per class sampler (underflow last). Sums to the
    /// total number of live edges — every edge is held by exactly one class.
    pub fn class_support(&self) -> &[i64] {
        &self.class_support
    }

    /// Total live edges the bank currently holds.
    pub fn live_edges(&self) -> i64 {
        self.class_support.iter().sum()
    }

    /// True when every cell is identically zero (live edge multiset is empty).
    pub fn is_empty(&self) -> bool {
        self.forest.iter().all(|s| s.sampler().is_zero())
            && self.class_samplers.iter().all(|s| s.is_zero())
    }

    /// The class-sampler slot a weight belongs to (underflow slot for weights
    /// that rescale below 1).
    fn class_slot(&self, weight_bits: u64) -> usize {
        self.classes.class_of_bits(weight_bits).unwrap_or(self.classes.num_classes())
    }

    /// Absorbs one signed edge update into every sketch that covers it:
    /// `O(forest_copies · reps · log n)` cells touched, no allocation.
    pub fn apply_delta(&mut self, d: EdgeDelta) {
        assert!(d.sign == 1 || d.sign == -1, "turnstile deltas are unit-signed");
        let n = self.config.num_vertices;
        assert!(d.u != d.v, "self-loops cannot be matched or sketched");
        assert!((d.u as usize) < n && (d.v as usize) < n, "endpoint outside vertex domain");
        let (a, b) = if d.u < d.v { (d.u, d.v) } else { (d.v, d.u) };
        for c in 0..self.config.forest_copies {
            let base = c * n;
            if d.sign > 0 {
                self.forest[base + a as usize].add_edge(a, a, b);
                self.forest[base + b as usize].add_edge(b, a, b);
            } else {
                self.forest[base + a as usize].remove_edge(a, a, b);
                self.forest[base + b as usize].remove_edge(b, a, b);
            }
        }
        let slot = self.class_slot(d.weight_bits);
        let idx = encode_pair(n as u64, a as u64, b as u64);
        self.class_samplers[slot].update(idx, d.sign);
        self.class_support[slot] += d.sign;
        // One relaxed atomic add (one relaxed load when metrics are off);
        // a write-only tap, so ingestion stays bit-identical either way.
        mwm_obs::counter!("turnstile_deltas_total").inc();
    }

    /// Merges another bank into this one. By linearity the result is the bank
    /// of the concatenated streams; cell sums are exact, so merging is
    /// commutative and associative and sharded ingestion is bit-identical to
    /// sequential ingestion. Banks of different shape or randomness are not
    /// mergeable: the mismatch is a typed error and `self` stays untouched.
    pub fn merge(&mut self, other: &SketchBank) -> Result<(), SketchError> {
        let check = |field, left: u64, right: u64| {
            if left != right {
                Err(SketchError::Incompatible { field, left, right })
            } else {
                Ok(())
            }
        };
        check("num_vertices", self.config.num_vertices as u64, other.config.num_vertices as u64)?;
        check("eps", self.config.eps.to_bits(), other.config.eps.to_bits())?;
        check("scale", self.config.scale.to_bits(), other.config.scale.to_bits())?;
        check("max_scaled", self.config.max_scaled.to_bits(), other.config.max_scaled.to_bits())?;
        check(
            "forest_copies",
            self.config.forest_copies as u64,
            other.config.forest_copies as u64,
        )?;
        check("reps", self.config.reps as u64, other.config.reps as u64)?;
        check("seed", self.config.seed, other.config.seed)?;
        for (mine, theirs) in self.forest.iter_mut().zip(other.forest.iter()) {
            mine.merge(theirs)?;
        }
        for (mine, theirs) in self.class_samplers.iter_mut().zip(other.class_samplers.iter()) {
            mine.merge(theirs)?;
        }
        for (mine, theirs) in self.class_support.iter_mut().zip(other.class_support.iter()) {
            *mine += *theirs;
        }
        mwm_obs::counter!("turnstile_merges_total").inc();
        Ok(())
    }

    /// Merges the copy-`c` sketches of a component and samples one edge
    /// leaving it.
    fn sample_group_boundary(&self, c: usize, group: &[usize]) -> Option<(VertexId, VertexId)> {
        let n = self.config.num_vertices;
        let mut it = group.iter();
        let first = *it.next()?;
        let mut merged = self.forest[c * n + first].clone();
        for &v in it {
            merged.merge(&self.forest[c * n + v]).expect("one bank shares config");
        }
        merged.sample_boundary_edge().map(|e| (e.u, e.v))
    }

    /// Recovers a candidate edge set from the bank: a Borůvka spanning forest
    /// peeled from the vertex-sketch copies, plus every fingerprint-verified
    /// 1-sparse cell of the per-class samplers (each is an exact live support
    /// element). Sorted, deduplicated, normalized `u < v`. Deterministic given
    /// the bank state — hence identical at every ingestion worker count.
    pub fn recover_candidates(&self) -> Vec<(VertexId, VertexId)> {
        let n = self.config.num_vertices;
        let mut pairs: Vec<(VertexId, VertexId)> = Vec::new();
        let mut uf = UnionFind::new(n);
        for c in 0..self.config.forest_copies {
            if uf.num_components() == 1 {
                break;
            }
            let mut progressed = false;
            for group in uf.groups() {
                if let Some((u, v)) = self.sample_group_boundary(c, &group) {
                    if uf.union(u as usize, v as usize) {
                        pairs.push((u, v));
                        progressed = true;
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for sampler in &self.class_samplers {
            for cell in sampler.cells() {
                if let Decode::One(idx, _) = cell.decode() {
                    let (u, v) = decode_pair(n as u64, idx);
                    pairs.push((u as VertexId, v as VertexId));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        mwm_obs::counter!("turnstile_recoveries_total").inc();
        mwm_obs::histogram!("turnstile_recovered_edges", &mwm_obs::SIZE_BOUNDS)
            .observe(pairs.len() as f64);
        pairs
    }

    /// Resident sketch-state bytes (the memory-per-session accounting the
    /// bench experiments report).
    pub fn resident_bytes(&self) -> usize {
        let cells: usize = self.forest.iter().map(|s| s.num_cells()).sum::<usize>()
            + self.class_samplers.iter().map(|s| s.num_cells()).sum::<usize>();
        cells * std::mem::size_of::<OneSparse>()
            + self.class_support.len() * std::mem::size_of::<i64>()
            + std::mem::size_of::<Self>()
    }

    /// Exports the complete bank state as plain vectors, for bit-exact
    /// hibernation. Cell traversal order is fixed (forest row-major by copy,
    /// then class samplers, underflow last; each cell as 5 little-endian-ready
    /// words: sum, weighted-lo, weighted-hi, fingerprint, base).
    pub fn to_state(&self) -> SketchBankState {
        let mut cell_words = Vec::new();
        for vs in &self.forest {
            push_sampler_words(&mut cell_words, vs.sampler());
        }
        for s in &self.class_samplers {
            push_sampler_words(&mut cell_words, s);
        }
        SketchBankState {
            num_vertices: self.config.num_vertices as u64,
            eps_bits: self.config.eps.to_bits(),
            scale_bits: self.config.scale.to_bits(),
            max_scaled_bits: self.config.max_scaled.to_bits(),
            forest_copies: self.config.forest_copies as u64,
            reps: self.config.reps as u64,
            seed: self.config.seed,
            class_support: self.class_support.clone(),
            cell_words,
        }
    }

    /// Rebuilds a bank from exported state, validating shape and seed-derived
    /// randomness cell by cell. `from_state(to_state())` is a bit-identical
    /// fixed point.
    pub fn from_state(state: &SketchBankState) -> Result<SketchBank, SketchError> {
        if state.num_vertices < 2 || state.forest_copies < 1 || state.reps < 1 {
            return Err(SketchError::InvalidState { what: "sketch bank shape out of range" });
        }
        let eps = f64::from_bits(state.eps_bits);
        let scale = f64::from_bits(state.scale_bits);
        let max_scaled = f64::from_bits(state.max_scaled_bits);
        if !(eps > 0.0 && eps < 1.0 && scale > 0.0 && scale.is_finite() && max_scaled.is_finite()) {
            return Err(SketchError::InvalidState {
                what: "sketch bank lattice parameters invalid",
            });
        }
        let config = TurnstileConfig {
            num_vertices: state.num_vertices as usize,
            eps,
            scale,
            max_scaled,
            forest_copies: state.forest_copies as usize,
            reps: state.reps as usize,
            seed: state.seed,
        };
        let mut bank = SketchBank::new(config);
        if state.class_support.len() != bank.class_support.len() {
            return Err(SketchError::InvalidState { what: "class support length mismatch" });
        }
        let mut cursor = 0usize;
        for vs in bank.forest.iter_mut() {
            let sampler = take_sampler(&state.cell_words, &mut cursor, vs.sampler())?;
            *vs = VertexSketch::from_raw(state.num_vertices, sampler)?;
        }
        for s in bank.class_samplers.iter_mut() {
            *s = take_sampler(&state.cell_words, &mut cursor, s)?;
        }
        if cursor != state.cell_words.len() {
            return Err(SketchError::InvalidState { what: "trailing words in sketch bank state" });
        }
        bank.class_support.copy_from_slice(&state.class_support);
        Ok(bank)
    }
}

/// On-demand publication of the bank's resident footprint (the delta,
/// merge and recovery counters record themselves as the bank is used).
impl mwm_obs::Observable for SketchBank {
    fn obs_scope(&self) -> &'static str {
        "turnstile"
    }

    fn publish_metrics(&self, registry: &mwm_obs::Registry) {
        registry.gauge("turnstile_resident_bytes").set(self.resident_bytes() as i64);
        registry.gauge("turnstile_classes").set(self.class_samplers.len() as i64);
    }
}

/// Exported bank state: shape parameters plus flat cell words, trivially
/// codable by the persistence layer.
#[derive(Clone, Debug, PartialEq)]
pub struct SketchBankState {
    /// Vertex-id domain.
    pub num_vertices: u64,
    /// Lattice `eps` as bits.
    pub eps_bits: u64,
    /// Lattice rescale factor as bits.
    pub scale_bits: u64,
    /// Lattice table ceiling as bits.
    pub max_scaled_bits: u64,
    /// Forest copies.
    pub forest_copies: u64,
    /// Sampler repetitions.
    pub reps: u64,
    /// Root seed.
    pub seed: u64,
    /// Per-class net live-edge counts (underflow last).
    pub class_support: Vec<i64>,
    /// Flat cell grid, 5 words per cell in fixed traversal order.
    pub cell_words: Vec<u64>,
}

fn push_sampler_words(words: &mut Vec<u64>, sampler: &L0Sampler) {
    for cell in sampler.cells() {
        let (sum, weighted, fingerprint, r) = cell.raw_parts();
        words.push(sum as u64);
        words.push(weighted as u64);
        words.push((weighted as u128 >> 64) as u64);
        words.push(fingerprint);
        words.push(r);
    }
}

fn take_sampler(
    words: &[u64],
    cursor: &mut usize,
    template: &L0Sampler,
) -> Result<L0Sampler, SketchError> {
    let count = template.num_cells();
    let need = count * words_per_cell();
    if words.len() - *cursor < need {
        return Err(SketchError::InvalidState { what: "sketch bank state truncated" });
    }
    let mut cells = Vec::with_capacity(count);
    for i in 0..count {
        let w = &words[*cursor + i * words_per_cell()..];
        let weighted = (((w[2] as u128) << 64) | w[1] as u128) as i128;
        cells.push(OneSparse::from_raw_parts(w[0] as i64, weighted, w[3], w[4])?);
    }
    *cursor += need;
    L0Sampler::from_raw(template.domain(), template.seed(), template.reps(), cells)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: usize) -> TurnstileConfig {
        TurnstileConfig::for_stream(n, 0.25, 64.0, 0xBEEF)
    }

    fn demo_deltas() -> Vec<EdgeDelta> {
        let mut deltas = Vec::new();
        for i in 0..14u32 {
            deltas.push(EdgeDelta::insert(i % 16, (i + 3) % 16, 1.0 + i as f64));
        }
        // Delete a third of them and reweight two.
        for i in (0..14u32).step_by(3) {
            deltas.push(EdgeDelta::delete(i % 16, (i + 3) % 16, 1.0 + i as f64));
        }
        deltas.push(EdgeDelta::delete(1, 4, 2.0));
        deltas.push(EdgeDelta::insert(1, 4, 40.0));
        deltas
    }

    #[test]
    fn bank_state_is_a_pure_function_of_the_live_multiset() {
        // +w1, -w1, +w2 must be bit-identical to +w2 alone: deletes and
        // reweights cancel exactly in every cell.
        let mut a = SketchBank::new(cfg(16));
        a.apply_delta(EdgeDelta::insert(2, 9, 3.5));
        a.apply_delta(EdgeDelta::delete(2, 9, 3.5));
        a.apply_delta(EdgeDelta::insert(2, 9, 17.0));
        let mut b = SketchBank::new(cfg(16));
        b.apply_delta(EdgeDelta::insert(2, 9, 17.0));
        assert_eq!(a.to_state(), b.to_state());
        assert_eq!(a.live_edges(), 1);

        // And full cancellation returns to the empty bank.
        a.apply_delta(EdgeDelta::delete(2, 9, 17.0));
        assert!(a.is_empty());
        assert_eq!(a.to_state(), SketchBank::new(cfg(16)).to_state());
    }

    #[test]
    fn sharded_ingestion_merges_bit_identical_to_sequential() {
        let deltas = demo_deltas();
        let mut sequential = SketchBank::new(cfg(16));
        for &d in &deltas {
            sequential.apply_delta(d);
        }
        for shards in [2usize, 3, 5] {
            let mut parts: Vec<SketchBank> =
                (0..shards).map(|_| SketchBank::new(cfg(16))).collect();
            for (i, &d) in deltas.iter().enumerate() {
                parts[i % shards].apply_delta(d);
            }
            let mut merged = parts.remove(0);
            for p in &parts {
                merged.merge(p).unwrap();
            }
            assert_eq!(merged.to_state(), sequential.to_state(), "shards={shards}");
        }
    }

    #[test]
    fn mismatched_banks_refuse_to_merge() {
        let mut a = SketchBank::new(cfg(16));
        a.apply_delta(EdgeDelta::insert(0, 1, 2.0));
        let snapshot = a.to_state();

        let b = SketchBank::new(TurnstileConfig { seed: 1, ..cfg(16) });
        assert_eq!(
            a.merge(&b),
            Err(SketchError::Incompatible { field: "seed", left: 0xBEEF, right: 1 })
        );
        let c = SketchBank::new(cfg(18));
        assert!(matches!(
            a.merge(&c),
            Err(SketchError::Incompatible { field: "num_vertices", .. })
        ));
        // Failed merges leave the receiver untouched.
        assert_eq!(a.to_state(), snapshot);
    }

    #[test]
    fn recovery_returns_live_edges_and_spans_components() {
        let mut bank = SketchBank::new(cfg(16));
        let mut live = std::collections::HashSet::new();
        // A path through the even vertices plus some extra chords.
        for i in 0..7u32 {
            bank.apply_delta(EdgeDelta::insert(2 * i, 2 * i + 2, 2.0 + i as f64));
            live.insert((2 * i, 2 * i + 2));
        }
        bank.apply_delta(EdgeDelta::insert(1, 3, 9.0));
        live.insert((1, 3));
        // Insert-then-delete noise that must not resurface.
        bank.apply_delta(EdgeDelta::insert(5, 7, 1.5));
        bank.apply_delta(EdgeDelta::delete(5, 7, 1.5));

        let candidates = bank.recover_candidates();
        assert!(!candidates.is_empty());
        for &(u, v) in &candidates {
            assert!(u < v, "candidates are normalized");
            assert!(live.contains(&(u, v)), "recovered a dead edge ({u},{v})");
        }
        // The forest bank must connect what the live graph connects.
        let mut uf = UnionFind::new(16);
        for &(u, v) in &candidates {
            uf.union(u as usize, v as usize);
        }
        let mut live_uf = UnionFind::new(16);
        for &(u, v) in &live {
            live_uf.union(u as usize, v as usize);
        }
        assert_eq!(uf.num_components(), live_uf.num_components());
    }

    #[test]
    fn state_round_trip_is_a_bit_identical_fixed_point() {
        let mut bank = SketchBank::new(cfg(16));
        for &d in &demo_deltas() {
            bank.apply_delta(d);
        }
        let state = bank.to_state();
        let revived = SketchBank::from_state(&state).unwrap();
        assert_eq!(revived.to_state(), state);
        assert_eq!(revived.recover_candidates(), bank.recover_candidates());
        assert_eq!(revived.class_support(), bank.class_support());

        // Corrupt state is rejected, not misread.
        let mut truncated = state.clone();
        truncated.cell_words.pop();
        assert!(SketchBank::from_state(&truncated).is_err());
        let mut reseeded = state.clone();
        reseeded.seed ^= 1;
        assert!(SketchBank::from_state(&reseeded).is_err());
    }

    #[test]
    fn class_slots_follow_definition_3() {
        // eps = 0.25, scale = 1, max_scaled = 64: classes 1.25^k for
        // k = 0..=19, the last (1.25^19 ≈ 69.39) being the first above 64.
        // Slot 20 is the underflow sampler.
        let bank = SketchBank::new(cfg(16));
        assert_eq!(bank.num_classes(), 20);
        let slots = [
            (0.5, 20),
            (0.99, 20),
            (1.0, 0),
            (1.25, 1),
            (2.0, 3),
            (17.0, 12),
            (63.9, 18),
            (64.0, 18),
            (69.4, 19),
            (1e6, 19),
        ];
        for (w, slot) in slots {
            assert_eq!(bank.class_slot(f64::to_bits(w)), slot, "w={w}");
        }
    }
}
