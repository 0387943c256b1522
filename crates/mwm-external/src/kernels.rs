//! The named pass kernel runnable on spilled shards — locally or in a worker
//! process.
//!
//! A worker process receives a kernel **name** plus opaque parameter bytes,
//! looks the kernel up in [`run_registered_kernel`], and runs it over its
//! shards. The registry holds one kernel, `local-matching`
//! ([`LocalMatchingKernel`], the per-shard fold of experiment E14). The same
//! `PassKernel` implementation drives the in-process path, so the two
//! execution modes share one fold and stay bit-identical by construction.

use crate::spill::SpilledShards;
use mwm_graph::wire::{decode_edge_record, encode_edge_record, EDGE_RECORD_BYTES};
use mwm_graph::{Edge, EdgeId, VertexId};
use mwm_mapreduce::{EdgeSource, PassError, PassKernel};
use std::collections::{BTreeMap, HashMap};

/// A `(1/2 - γ)`-style replacement matching: an arriving edge evicts its
/// conflicting matched edges when its weight beats `(1 + γ)` times their
/// combined weight. The same rule runs per shard (as a kernel accumulator)
/// and at the coordinator (merging shard candidates in shard order), so the
/// final matching is a pure function of the stream — independent of worker
/// count and of in-process vs multi-process execution.
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

/// Per-shard replacement matching. The accumulator is the shard's local
/// [`ReplacementMatcher`]; the coordinator re-offers the surviving candidates
/// (shard by shard, ascending id within a shard) through the same rule.
#[derive(Clone, Copy, Debug)]
pub struct LocalMatchingKernel {
    /// Improvement threshold of the replacement rule.
    pub gamma: f64,
}

impl PassKernel for LocalMatchingKernel {
    type Acc = ReplacementMatcher;

    fn name(&self) -> &'static str {
        "local-matching"
    }

    fn params(&self) -> Vec<u8> {
        self.gamma.to_bits().to_le_bytes().to_vec()
    }

    fn init(&self, _shard: usize) -> Self::Acc {
        ReplacementMatcher::new(self.gamma)
    }

    fn fold(&self, acc: &mut Self::Acc, id: EdgeId, e: Edge) {
        acc.offer(id, e);
    }

    fn encode_acc(&self, acc: &Self::Acc) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + acc.len() * EDGE_RECORD_BYTES);
        out.extend_from_slice(&(acc.len() as u64).to_le_bytes());
        let mut buf = [0u8; EDGE_RECORD_BYTES];
        for (id, e) in acc.iter() {
            encode_edge_record(id, e, &mut buf);
            out.extend_from_slice(&buf);
        }
        out
    }

    fn decode_acc(&self, bytes: &[u8]) -> Result<Self::Acc, PassError> {
        let bad = |why: String| PassError::Protocol { reason: why };
        if bytes.len() < 8 {
            return Err(bad(format!("local-matching accumulator is {} bytes", bytes.len())));
        }
        let count = u64::from_le_bytes(bytes[0..8].try_into().expect("8 bytes")) as usize;
        let records = &bytes[8..];
        if records.len() != count * EDGE_RECORD_BYTES {
            return Err(bad(format!(
                "local-matching accumulator declares {count} edges but carries {} bytes",
                records.len()
            )));
        }
        let mut acc = ReplacementMatcher::new(self.gamma);
        let mut last_id = None;
        for chunk in records.chunks_exact(EDGE_RECORD_BYTES) {
            let record: &[u8; EDGE_RECORD_BYTES] = chunk.try_into().expect("exact chunk");
            let (id, e) = decode_edge_record(record);
            if last_id.is_some_and(|prev| prev >= id) {
                return Err(bad("local-matching accumulator ids are not ascending".to_string()));
            }
            if acc.matched_at.contains_key(&e.u) || acc.matched_at.contains_key(&e.v) {
                return Err(bad(format!("edge {id} conflicts with an earlier accumulator edge")));
            }
            last_id = Some(id);
            // Reconstructed literally, not via `offer`: a valid matcher state
            // has disjoint endpoints, so inserting reproduces it exactly.
            acc.matched_at.insert(e.u, id);
            acc.matched_at.insert(e.v, id);
            acc.edges.insert(id, e);
        }
        Ok(acc)
    }
}

/// The visited-count and encoded accumulator of one shard run.
#[derive(Clone, Debug)]
pub struct ShardRun {
    /// Edges streamed through the kernel.
    pub visited: usize,
    /// The kernel's encoded accumulator.
    pub acc: Vec<u8>,
}

fn run_one<K: PassKernel>(
    kernel: &K,
    spilled: &SpilledShards,
    shard: usize,
) -> Result<ShardRun, PassError> {
    let mut acc = kernel.init(shard);
    let mut visited = 0usize;
    spilled.for_each_in_shard(shard, &mut |id, e| {
        kernel.fold(&mut acc, id, e);
        visited += 1;
        true
    });
    spilled.check().map_err(PassError::from)?;
    Ok(ShardRun { visited, acc: kernel.encode_acc(&acc) })
}

/// Runs the kernel registered under `name` (with its encoded `params`) over
/// one spilled shard. This is the worker process's dispatch table; unknown
/// names are a typed protocol error.
pub fn run_registered_kernel(
    name: &str,
    params: &[u8],
    spilled: &SpilledShards,
    shard: usize,
) -> Result<ShardRun, PassError> {
    if name != "local-matching" {
        return Err(PassError::Protocol { reason: format!("unknown kernel {name:?} requested") });
    }
    let gamma: [u8; 8] = params.try_into().map_err(|_| PassError::Protocol {
        reason: format!("kernel local-matching expects 8 parameter bytes, got {}", params.len()),
    })?;
    let gamma = f64::from_bits(u64::from_le_bytes(gamma));
    run_one(&LocalMatchingKernel { gamma }, spilled, shard)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spill::SpillWriter;
    use mwm_mapreduce::{EdgeSource, SyntheticStream};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mwm-kernels-test-{}-{tag}", std::process::id()));
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
    fn accumulators_round_trip_through_their_codecs() {
        let stream = SyntheticStream::with_shards(80, 4_000, 21, 3);
        let dir = temp_dir("codec");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap();
        let gamma_bits = 0.05f64.to_bits().to_le_bytes();
        for shard in 0..stream.num_shards() {
            let run =
                run_registered_kernel("local-matching", &gamma_bits, &spilled, shard).unwrap();
            assert_eq!(run.visited, stream.shard_len(shard));
            let kernel = LocalMatchingKernel { gamma: 0.05 };
            let decoded = kernel.decode_acc(&run.acc).unwrap();
            assert_eq!(kernel.encode_acc(&decoded), run.acc, "codec must be a bijection");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_accumulators_and_unknown_kernels_are_typed_errors() {
        let kernel = LocalMatchingKernel { gamma: 0.0 };
        assert!(matches!(kernel.decode_acc(&[1, 2, 3]), Err(PassError::Protocol { .. })));
        let mut declares_one = 1u64.to_le_bytes().to_vec();
        declares_one.extend_from_slice(&[0u8; 7]);
        assert!(matches!(kernel.decode_acc(&declares_one), Err(PassError::Protocol { .. })));

        let stream = SyntheticStream::with_shards(10, 100, 1, 1);
        let dir = temp_dir("unknown");
        let spilled = SpillWriter::spill_edge_source(&dir, &stream).unwrap();
        // The four retired kernel names, with the parameters they once took,
        // are unknown like any other.
        let alpha = 0.5f64.to_bits().to_le_bytes();
        for (name, params) in [
            ("no-such-kernel", &[][..]),
            ("count-weight", &[]),
            ("multiplier", &alpha),
            ("soa-count-weight", &[]),
            ("soa-multiplier", &alpha),
        ] {
            let run = run_registered_kernel(name, params, &spilled, 0);
            assert!(matches!(run, Err(PassError::Protocol { .. })), "{name}: {run:?}");
        }
        assert!(matches!(
            run_registered_kernel("local-matching", &[1, 2], &spilled, 0),
            Err(PassError::Protocol { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
