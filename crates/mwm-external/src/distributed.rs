//! The out-of-core distributed solve: per-shard local matchings merged at a
//! coordinator.
//!
//! This is the two-level greedy of the shared-nothing setting: every shard
//! computes a local replacement matching over its own edges (one
//! `PassEngine::pass_shards` fold, so shards of a spilled stream are read back
//! from their files), and the coordinator re-offers the surviving candidates
//! — shard by shard in shard-index order, ascending id within a shard —
//! through the **same** replacement rule. Both levels being pure functions of
//! the (ordered) stream makes the result bit-identical across engine
//! parallelism and across the in-memory and spilled forms of a stream, which
//! is what experiment E14 verifies by checksum.

use mwm_graph::{Edge, EdgeId, VertexId};
use mwm_mapreduce::{EdgeSource, PassEngine, PassError};
use std::collections::{BTreeMap, HashMap};

/// A `(1/2 - γ)`-style replacement matching: an arriving edge evicts its
/// conflicting matched edges when its weight beats `(1 + γ)` times their
/// combined weight. The same rule runs per shard (as the pass accumulator)
/// and at the coordinator (merging shard candidates in shard order), so the
/// final matching is a pure function of the stream — independent of the
/// engine's parallelism and of where the shards are stored.
#[derive(Clone, Debug)]
pub struct ReplacementMatcher {
    gamma: f64,
    matched_at: HashMap<VertexId, EdgeId>,
    edges: BTreeMap<EdgeId, Edge>,
}

impl ReplacementMatcher {
    /// An empty matching with improvement threshold `gamma >= 0`.
    pub fn new(gamma: f64) -> Self {
        ReplacementMatcher { gamma, matched_at: HashMap::new(), edges: BTreeMap::new() }
    }

    /// Offers one edge; it enters the matching iff it beats `(1 + gamma)`
    /// times the combined weight of the (at most two) edges it conflicts with.
    pub fn offer(&mut self, id: EdgeId, e: Edge) {
        if e.u == e.v {
            return;
        }
        let cu = self.matched_at.get(&e.u).copied();
        let cv = self.matched_at.get(&e.v).copied();
        let mut conflict_weight = 0.0;
        if let Some(c) = cu {
            conflict_weight += self.edges[&c].w;
        }
        if let Some(c) = cv {
            if cu != Some(c) {
                conflict_weight += self.edges[&c].w;
            }
        }
        if e.w <= (1.0 + self.gamma) * conflict_weight {
            return;
        }
        for c in [cu, cv].into_iter().flatten() {
            if let Some(evicted) = self.edges.remove(&c) {
                self.matched_at.remove(&evicted.u);
                self.matched_at.remove(&evicted.v);
            }
        }
        self.matched_at.insert(e.u, id);
        self.matched_at.insert(e.v, id);
        self.edges.insert(id, e);
    }

    /// Number of matched edges.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// True when nothing is matched.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Total matched weight.
    pub fn weight(&self) -> f64 {
        self.edges.values().map(|e| e.w).sum()
    }

    /// Matched edges in ascending-id order.
    pub fn iter(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().map(|(&id, &e)| (id, e))
    }

    /// Consumes the matcher, returning matched edges in ascending-id order.
    pub fn into_edges(self) -> Vec<(EdgeId, Edge)> {
        self.edges.into_iter().collect()
    }
}

/// The coordinator's merged matching plus its provenance counters.
#[derive(Clone, Debug)]
pub struct OutOfCoreMatching {
    /// Matched edges in ascending-id order.
    pub edges: Vec<(EdgeId, Edge)>,
    /// Total matched weight.
    pub weight: f64,
    /// Candidate edges the shards surfaced to the coordinator (the
    /// coordinator's working-set size, charged to central space).
    pub candidate_edges: usize,
}

impl OutOfCoreMatching {
    /// An order-sensitive checksum of the matching: weight bits folded with
    /// every `(id, weight-bits)` pair in ascending-id order. Equal checksums
    /// mean bit-identical matchings.
    pub fn checksum(&self) -> u64 {
        let mut acc = self.weight.to_bits();
        for &(id, e) in &self.edges {
            acc = acc.rotate_left(7) ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            acc = acc.rotate_left(7) ^ e.w.to_bits();
        }
        acc
    }
}

/// Runs one local-matching pass over `source` through `engine` — one
/// [`ReplacementMatcher`] per shard, folded by `pass_shards` — and merges the
/// shard candidates at the coordinator.
///
/// The coordinator's working set — every candidate edge it holds while
/// merging — is declared to the engine's ledger, so a
/// `ResourceBudget::with_max_central_space` cap genuinely constrains the
/// out-of-core solve.
pub fn out_of_core_matching<S>(
    engine: &mut PassEngine,
    source: &S,
    gamma: f64,
) -> Result<OutOfCoreMatching, PassError>
where
    S: EdgeSource + ?Sized,
{
    let locals = engine.pass_shards(
        source,
        |_| ReplacementMatcher::new(gamma),
        |acc, id, e| acc.offer(id, e),
    )?;
    let candidate_edges: usize = locals.iter().map(ReplacementMatcher::len).sum();
    engine.declare_memory(candidate_edges);
    let mut merged = ReplacementMatcher::new(gamma);
    for local in locals {
        for (id, e) in local.into_edges() {
            merged.offer(id, e);
        }
    }
    let weight = merged.weight();
    let edges = merged.into_edges();
    engine.declare_memory(edges.len());
    Ok(OutOfCoreMatching { edges, weight, candidate_edges })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::{shard_file_name, SpillError, SpillWriter, SpilledShards};
    use mwm_graph::wire::EDGE_RECORD_BYTES;
    use mwm_mapreduce::{SoaShards, SyntheticStream};
    use proptest::{prop_assert_eq, proptest, ProptestConfig};
    use std::collections::BTreeSet;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let seq = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir()
            .join(format!("mwm-distributed-test-{}-{tag}-{seq}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn replacement_matcher_replaces_only_on_improvement() {
        let mut m = ReplacementMatcher::new(0.1);
        m.offer(0, Edge::new(0, 1, 5.0));
        // Conflicts with edge 0 but 5.4 <= 1.1 * 5.0: rejected.
        m.offer(1, Edge::new(1, 2, 5.4));
        assert_eq!(m.len(), 1);
        // 6.0 > 5.5: evicts edge 0.
        m.offer(2, Edge::new(1, 2, 6.0));
        assert_eq!(m.into_edges(), vec![(2, Edge::new(1, 2, 6.0))]);
    }

    #[test]
    fn the_merged_matching_is_valid_and_parallelism_independent() {
        let stream = SyntheticStream::with_shards(300, 40_000, 77, 8);
        let mut reference = None;
        for workers in [1usize, 2, 4] {
            let mut engine = PassEngine::new(workers);
            let m = out_of_core_matching(&mut engine, &stream, 0.05).unwrap();
            assert!(!m.edges.is_empty());
            assert!(m.candidate_edges >= m.edges.len());
            let mut endpoints = BTreeSet::new();
            for &(_, e) in &m.edges {
                assert!(endpoints.insert(e.u), "vertex {} matched twice", e.u);
                assert!(endpoints.insert(e.v), "vertex {} matched twice", e.v);
            }
            assert_eq!(engine.passes(), 1);
            assert_eq!(engine.tracker().items_streamed(), stream.num_edges());
            assert!(engine.tracker().peak_central_space() >= m.candidate_edges);
            let checksum = m.checksum();
            match reference {
                None => reference = Some(checksum),
                Some(r) => assert_eq!(r, checksum, "workers={workers} changed the matching"),
            }
        }
    }

    #[test]
    fn spilled_and_in_memory_solves_agree_bit_for_bit() {
        let stream = SyntheticStream::with_shards(150, 20_000, 13, 6);
        let dir = temp_dir("agree");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap().with_io_batch(500);
        let mem = out_of_core_matching(&mut PassEngine::new(2), &stream, 0.1).unwrap();
        let disk = out_of_core_matching(&mut PassEngine::new(2), &spilled, 0.1).unwrap();
        assert_eq!(mem.checksum(), disk.checksum());
        assert_eq!(mem.weight.to_bits(), disk.weight.to_bits());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_spill_truncated_after_open_fails_every_pass_kind() {
        let stream = SyntheticStream::with_shards(50, 4_000, 13, 4);
        let dir = temp_dir("truncated-after-open");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap();
        // Every reader validates the files before shard 2 loses its last 10
        // records, so the damage only shows mid-read. A failed read poisons its
        // reader for good, hence one reader per check.
        let batch_reader = SpilledShards::open(&dir).unwrap();
        let sequential_reader = SpilledShards::open(&dir).unwrap();
        let spill_reader = SpilledShards::open(&dir).unwrap();
        let soa_reader = SpilledShards::open(&dir).unwrap();
        let victim = dir.join(shard_file_name(2));
        let len = std::fs::metadata(&victim).unwrap().len();
        let truncated = len - 10 * EDGE_RECORD_BYTES as u64;
        std::fs::OpenOptions::new().write(true).open(&victim).unwrap().set_len(truncated).unwrap();

        let matching = out_of_core_matching(&mut PassEngine::new(1), &spilled, 0.1);
        let matching = matching.map(|m| m.weight);
        assert!(matches!(matching, Err(PassError::Io { .. })), "out-of-core: {matching:?}");

        let mut engine = PassEngine::new(1);
        let counts = engine.pass_batches(&batch_reader, |_| 0usize, |n, b| *n += b.len());
        assert!(matches!(counts, Err(PassError::Io { .. })), "batch pass: {counts:?}");
        let sequential = engine.pass_sequential(&sequential_reader, |_, _| {});
        assert!(matches!(sequential, Err(PassError::Io { .. })), "sequential pass: {sequential:?}");

        // The materializers read through the same visitor: each must report
        // the failed read instead of returning a copy without shard 2.
        let copy_dir = temp_dir("truncated-copy");
        let copy = SpillWriter::spill_edge_source(&copy_dir, &spill_reader).map(|s| s.num_edges());
        assert!(matches!(copy, Err(SpillError::Io { .. })), "re-spill: {copy:?}");
        let soa = SoaShards::from_source(&soa_reader).map(|s| s.num_edges());
        assert!(matches!(soa, Err(PassError::Io { .. })), "SoA copy: {soa:?}");
        let _ = std::fs::remove_dir_all(&copy_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

        /// Spill → readback is lossless: the matching is one bit pattern
        /// across {in-memory, spilled} × {engine parallelism 1, 4}.
        #[test]
        fn spill_roundtrip_is_bit_identical(
            n in 40usize..200,
            m in 500usize..6_000,
            seed in 0u64..1_000,
            shards in 1usize..9,
        ) {
            let stream = SyntheticStream::with_shards(n, m, seed, shards);
            let reference = out_of_core_matching(&mut PassEngine::new(1), &stream, 0.05).unwrap();
            let dir = temp_dir("prop");
            let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap();
            prop_assert_eq!(spilled.num_edges(), stream.num_edges());
            for parallelism in [1usize, 4] {
                let mem = out_of_core_matching(&mut PassEngine::new(parallelism), &stream, 0.05)
                    .unwrap();
                prop_assert_eq!(mem.checksum(), reference.checksum());
                let disk = out_of_core_matching(&mut PassEngine::new(parallelism), &spilled, 0.05)
                    .unwrap();
                prop_assert_eq!(disk.checksum(), reference.checksum());
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
