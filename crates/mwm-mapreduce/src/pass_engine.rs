//! Sharded multi-threaded pass execution over edge streams.
//!
//! The paper's algorithms are defined by how they consume data: a small number
//! of *passes* over an edge stream under a strict memory budget. The
//! [`PassEngine`] executes such passes over **sharded** streams: an
//! [`EdgeSource`] exposes the stream as a fixed list of shards, a pass fans
//! the shards out across `std::thread` workers (at most
//! [`PassEngine::parallelism`] at a time), each worker folds its shards into a
//! private accumulator with a private resource ledger, and the per-shard
//! results are merged **in shard order** — so the outcome is bit-identical for
//! any worker count. Order-dependent consumers (one-pass replacement
//! matching) use [`PassEngine::pass_sequential`], which visits the shards in
//! index order on the calling thread but still gets the engine's accounting
//! and budget enforcement.
//!
//! Every pass runs through one shard scheduler and one budget gate:
//! [`PassBudget::max_items_streamed`] is checked every
//! [`PassEngine::batch_size`] edges of a shard, so an exhausted budget
//! interrupts the pass mid-shard with [`PassError::BudgetExceeded`] and a
//! ledger that reflects exactly the edges actually visited — never a panic.
//! After every charged pass the source's [`EdgeSource::health`] is checked,
//! so a read that failed mid-shard surfaces as [`PassError::Io`] instead of
//! a result over part of the stream.
//!
//! The number of shards is a property of the *source*, not of the engine:
//! changing `parallelism` changes how many threads consume the shards, never
//! how the stream is split, which is what makes results reproducible across
//! machines and worker counts.

use crate::resources::ResourceTracker;
use mwm_graph::{Edge, EdgeId, Graph, GraphUpdate, VertexId};
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Default number of edges folded between two budget checks (and the batch
/// granularity of the shared streamed-items counter).
pub const DEFAULT_BATCH: usize = 1024;

/// Upper bound on the automatic shard count of [`GraphSource::auto`] /
/// [`SyntheticStream::new`].
pub const MAX_AUTO_SHARDS: usize = 64;

/// Streams smaller than this run on the calling thread regardless of the
/// configured parallelism: below it, thread spawn/join costs more than the
/// fold itself (the dual-primal λ refinement scans run once per oracle
/// iteration, so this matters). Results are unaffected — per-shard folds and
/// the shard-order merge are identical either way.
pub const MIN_PARALLEL_ITEMS: usize = 1 << 13;

/// Picks a shard count for a stream of `m` edges: enough shards that every
/// worker count up to [`MAX_AUTO_SHARDS`] can be kept busy, but never so many
/// that shards degenerate into tiny fragments. Depends only on `m`, never on
/// the worker count, so sharding (and therefore merge order) is stable.
pub fn auto_shard_count(m: usize) -> usize {
    (m / 2048).clamp(1, MAX_AUTO_SHARDS)
}

/// A sharded stream of arbitrary items — the generalization the engine's
/// worker loop actually runs on. [`EdgeSource`]s are adapted to it internally
/// (item = `(EdgeId, Edge)`), and [`UpdateSource`] exposes a batch of
/// [`GraphUpdate`]s the same way (item = `(seq, update)`), so edge passes and
/// update passes share one scheduler, one budget enforcement path and one
/// deterministic shard-order merge.
pub trait ItemSource: Sync {
    /// The per-item payload handed to the fold.
    type Item;

    /// Total number of items across all shards.
    fn num_items(&self) -> usize;

    /// Number of shards (always at least 1).
    fn num_shards(&self) -> usize;

    /// Visits the shard's items in stream order. `visit` returns `false` to
    /// stop early (used by the engine for budget aborts).
    fn visit_shard(&self, shard: usize, visit: &mut dyn FnMut(Self::Item) -> bool);

    /// Whether every read so far delivered its items; see
    /// [`EdgeSource::health`]. In-memory sources cannot fail.
    fn health(&self) -> Result<(), PassError> {
        Ok(())
    }
}

/// Internal adapter presenting an [`EdgeSource`] as an [`ItemSource`] of
/// `(EdgeId, Edge)` pairs, so the engine has exactly one worker loop.
struct EdgeItems<'a, S: ?Sized>(&'a S);

impl<S: EdgeSource + ?Sized> ItemSource for EdgeItems<'_, S> {
    type Item = (EdgeId, Edge);

    fn num_items(&self) -> usize {
        self.0.num_edges()
    }

    fn num_shards(&self) -> usize {
        self.0.num_shards()
    }

    fn visit_shard(&self, shard: usize, visit: &mut dyn FnMut(Self::Item) -> bool) {
        self.0.for_each_in_shard(shard, &mut |id, e| visit((id, e)));
    }

    fn health(&self) -> Result<(), PassError> {
        self.0.health()
    }
}

/// A borrowed struct-of-arrays view of consecutive edges from one shard: the
/// unit the batch-at-a-time pass API hands to its folds. The four slices are
/// parallel (`ids[i]`, `u[i]`, `v[i]`, `w[i]` describe edge `i`), in stream
/// order.
///
/// Weights are stored as IEEE-754 **bit patterns** (`u64`), not `f64`: the
/// round-trip through [`f64::to_bits`] is exact, and for the positive finite
/// weights the graph layer admits, unsigned comparison of the bit patterns
/// agrees with numeric comparison — which is what lets weight-class lookups
/// run as integer `partition_point` searches over a boundary table instead of
/// per-edge logarithms. Use [`EdgeBatch::weight`] to get the `f64` back.
#[derive(Clone, Copy)]
pub struct EdgeBatch<'a> {
    /// Global stream ids, parallel to `u`/`v`/`w`.
    pub ids: &'a [EdgeId],
    /// First endpoints.
    pub u: &'a [VertexId],
    /// Second endpoints.
    pub v: &'a [VertexId],
    /// Weights as `f64` bit patterns (exact, order-preserving for positives).
    pub w: &'a [u64],
}

impl<'a> EdgeBatch<'a> {
    /// Number of edges in the batch.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the batch holds no edges.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The weight of edge `i` as an `f64` (exact bit round-trip).
    #[inline]
    pub fn weight(&self, i: usize) -> f64 {
        f64::from_bits(self.w[i])
    }

    /// Reassembles edge `i` as an [`Edge`].
    #[inline]
    pub fn edge(&self, i: usize) -> Edge {
        Edge { u: self.u[i], v: self.v[i], w: f64::from_bits(self.w[i]) }
    }
}

/// An owned, reusable struct-of-arrays buffer that assembles [`EdgeBatch`]
/// views for sources that produce edges one at a time (the default
/// [`EdgeSource::for_each_batch_in_shard`] path and the spilled readback in
/// `mwm-external` both decode into one of these).
#[derive(Default)]
pub struct SoaBatch {
    ids: Vec<EdgeId>,
    u: Vec<VertexId>,
    v: Vec<VertexId>,
    w: Vec<u64>,
}

impl SoaBatch {
    /// An empty buffer with room for `cap` edges in each column.
    pub fn with_capacity(cap: usize) -> Self {
        SoaBatch {
            ids: Vec::with_capacity(cap),
            u: Vec::with_capacity(cap),
            v: Vec::with_capacity(cap),
            w: Vec::with_capacity(cap),
        }
    }

    /// Appends one edge to every column.
    #[inline]
    pub fn push(&mut self, id: EdgeId, e: Edge) {
        self.ids.push(id);
        self.u.push(e.u);
        self.v.push(e.v);
        self.w.push(e.w.to_bits());
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.ids.clear();
        self.u.clear();
        self.v.clear();
        self.w.clear();
    }

    /// Number of buffered edges.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the buffer holds no edges.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// A borrowed [`EdgeBatch`] over the buffered edges.
    pub fn view(&self) -> EdgeBatch<'_> {
        EdgeBatch { ids: &self.ids, u: &self.u, v: &self.v, w: &self.w }
    }
}

/// Emits `lo..hi` as [`EdgeBatch`] slices of at most `cap` edges, assembling
/// each through a reusable [`SoaBatch`]: the shared batch path of the
/// index-addressable sources ([`GraphSource`], [`SyntheticStream`]).
fn batch_by_index(
    lo: usize,
    hi: usize,
    cap: usize,
    edge_at: impl Fn(usize) -> Edge,
    visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
) {
    let cap = cap.max(1);
    let mut buf = SoaBatch::with_capacity(cap.min(hi.saturating_sub(lo)));
    let mut start = lo;
    while start < hi {
        let end = (start + cap).min(hi);
        buf.clear();
        for id in start..end {
            buf.push(id, edge_at(id));
        }
        if !visit(buf.view()) {
            return;
        }
        start = end;
    }
}

/// A sharded edge stream: the read-only input of the paper's model.
///
/// A source splits its stream into `num_shards` fixed sub-streams. Within a
/// shard, edges have a fixed order; across shards, the concatenation in shard
/// index order is *the* stream order. Implementations must be cheap to read
/// from multiple threads (`Sync`).
pub trait EdgeSource: Sync {
    /// Number of vertices of the underlying graph.
    fn num_vertices(&self) -> usize;

    /// Total number of edges across all shards.
    fn num_edges(&self) -> usize;

    /// Number of shards (always at least 1).
    fn num_shards(&self) -> usize;

    /// Number of edges in one shard.
    fn shard_len(&self, shard: usize) -> usize;

    /// Visits the shard's edges in stream order. `visit` returns `false` to
    /// stop early (used by the engine for budget aborts).
    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool);

    /// Visits the shard's edges as consecutive [`EdgeBatch`] slices of at
    /// most `max_batch` edges, in stream order — the data-oriented
    /// counterpart of [`EdgeSource::for_each_in_shard`]. `visit` returning
    /// `false` stops the walk; no further slice (including a trailing partial
    /// one) is emitted.
    ///
    /// The default implementation assembles slices from the per-edge walk
    /// through a reusable [`SoaBatch`]; SoA-native storage ([`SoaShards`],
    /// [`ShardedEdgeList`]) overrides it with zero-copy subslices, and
    /// index-addressable sources override it to skip the per-edge virtual
    /// dispatch. The concatenation of the emitted slices must equal the
    /// per-edge walk exactly — the engine's determinism suite holds every
    /// source to that.
    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        let cap = max_batch.max(1);
        let mut buf = SoaBatch::with_capacity(cap.min(self.shard_len(shard)));
        let mut stopped = false;
        self.for_each_in_shard(shard, &mut |id, e| {
            buf.push(id, e);
            if buf.len() < cap {
                return true;
            }
            let keep = visit(buf.view());
            buf.clear();
            stopped = !keep;
            keep
        });
        if !stopped && !buf.is_empty() {
            visit(buf.view());
        }
    }

    /// A filesystem locator for sources whose shards are **addressable
    /// out-of-process** (a spill directory another process can open). In-memory
    /// sources return `None`, which confines every pass to this process;
    /// `Some(dir)` lets [`PassEngine::pass_kernel`] hand whole shards to an
    /// external [`ShardExecutor`].
    fn locator(&self) -> Option<&Path> {
        None
    }

    /// Whether every read so far delivered its shard in full. The visitors
    /// above cannot return errors, so a source whose reads can fail (spilled
    /// files) stops the affected shard early, records the failure, and
    /// reports it here; the engine asks after every charged pass. In-memory
    /// sources cannot fail.
    fn health(&self) -> Result<(), PassError> {
        Ok(())
    }
}

/// An in-memory [`Graph`] exposed as contiguous edge-id ranges.
pub struct GraphSource<'a> {
    graph: &'a Graph,
    num_shards: usize,
}

impl<'a> GraphSource<'a> {
    /// Splits the graph's edge list into `num_shards` contiguous ranges
    /// (clamped to `[1, num_edges.max(1)]`).
    pub fn new(graph: &'a Graph, num_shards: usize) -> Self {
        let num_shards = num_shards.clamp(1, graph.num_edges().max(1));
        GraphSource { graph, num_shards }
    }

    /// Splits with the automatic shard count of [`auto_shard_count`].
    pub fn auto(graph: &'a Graph) -> Self {
        Self::new(graph, auto_shard_count(graph.num_edges()))
    }

    fn bounds(&self, shard: usize) -> (usize, usize) {
        let m = self.graph.num_edges();
        (shard * m / self.num_shards, (shard + 1) * m / self.num_shards)
    }
}

impl EdgeSource for GraphSource<'_> {
    fn num_vertices(&self) -> usize {
        self.graph.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.graph.num_edges()
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_len(&self, shard: usize) -> usize {
        let (lo, hi) = self.bounds(shard);
        hi - lo
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        let (lo, hi) = self.bounds(shard);
        for id in lo..hi {
            if !visit(id, self.graph.edge(id)) {
                return;
            }
        }
    }

    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        let (lo, hi) = self.bounds(shard);
        batch_by_index(lo, hi, max_batch, |id| self.graph.edge(id), visit);
    }
}

/// CSR/struct-of-arrays shard storage: every shard's edges live in four flat
/// parallel columns (`ids`, `u`, `v`, `w`-bits) split by an offsets table, so
/// batch passes borrow whole shard slices with **zero copies** and the
/// columns stay cache-dense. This is the materialized form the pass pipeline
/// prefers — [`ShardedEdgeList`] is a thin wrapper over it, and spilled
/// readback decodes straight into the same column layout.
pub struct SoaShards {
    n: usize,
    /// `offsets[s]..offsets[s + 1]` is shard `s`'s range in the columns.
    offsets: Vec<usize>,
    ids: Vec<EdgeId>,
    u: Vec<VertexId>,
    v: Vec<VertexId>,
    w: Vec<u64>,
}

impl SoaShards {
    /// Materializes any [`EdgeSource`] into the flat column layout, keeping
    /// its shard structure and stream order (so passes over the copy are
    /// bit-identical to passes over the original).
    pub fn from_source<S: EdgeSource + ?Sized>(source: &S) -> Self {
        let m = source.num_edges();
        let mut soa = SoaShards {
            n: source.num_vertices(),
            offsets: Vec::with_capacity(source.num_shards() + 1),
            ids: Vec::with_capacity(m),
            u: Vec::with_capacity(m),
            v: Vec::with_capacity(m),
            w: Vec::with_capacity(m),
        };
        soa.offsets.push(0);
        for shard in 0..source.num_shards() {
            source.for_each_in_shard(shard, &mut |id, e| {
                soa.push(id, e);
                true
            });
            soa.offsets.push(soa.ids.len());
        }
        soa
    }

    /// Converts explicit per-shard `(EdgeId, Edge)` lists over an `n`-vertex
    /// graph. An empty shard list becomes a single empty shard so
    /// `num_shards >= 1` holds.
    pub fn from_shards(n: usize, shards: Vec<Vec<(EdgeId, Edge)>>) -> Self {
        let total: usize = shards.iter().map(|s| s.len()).sum();
        let mut soa = SoaShards {
            n,
            offsets: Vec::with_capacity(shards.len() + 2),
            ids: Vec::with_capacity(total),
            u: Vec::with_capacity(total),
            v: Vec::with_capacity(total),
            w: Vec::with_capacity(total),
        };
        soa.offsets.push(0);
        for shard in &shards {
            for &(id, e) in shard {
                soa.push(id, e);
            }
            soa.offsets.push(soa.ids.len());
        }
        if shards.is_empty() {
            soa.offsets.push(0);
        }
        soa
    }

    #[inline]
    fn push(&mut self, id: EdgeId, e: Edge) {
        self.ids.push(id);
        self.u.push(e.u);
        self.v.push(e.v);
        self.w.push(e.w.to_bits());
    }

    /// A zero-copy [`EdgeBatch`] over one whole shard.
    pub fn shard_slice(&self, shard: usize) -> EdgeBatch<'_> {
        let (lo, hi) = (self.offsets[shard], self.offsets[shard + 1]);
        EdgeBatch {
            ids: &self.ids[lo..hi],
            u: &self.u[lo..hi],
            v: &self.v[lo..hi],
            w: &self.w[lo..hi],
        }
    }
}

impl EdgeSource for SoaShards {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.ids.len()
    }

    fn num_shards(&self) -> usize {
        self.offsets.len() - 1
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.offsets[shard + 1] - self.offsets[shard]
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        let slice = self.shard_slice(shard);
        for i in 0..slice.len() {
            if !visit(slice.ids[i], slice.edge(i)) {
                return;
            }
        }
    }

    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        let cap = max_batch.max(1);
        let full = self.shard_slice(shard);
        let mut start = 0usize;
        while start < full.len() {
            let end = (start + cap).min(full.len());
            let slice = EdgeBatch {
                ids: &full.ids[start..end],
                u: &full.u[start..end],
                v: &full.v[start..end],
                w: &full.w[start..end],
            };
            if !visit(slice) {
                return;
            }
            start = end;
        }
    }
}

/// A pre-partitioned stream: shards own their `(EdgeId, Edge)` lists, as they
/// would after a shuffle onto different machines. Stored internally as
/// [`SoaShards`] columns, so batch passes borrow shard slices zero-copy.
pub struct ShardedEdgeList {
    soa: SoaShards,
}

impl ShardedEdgeList {
    /// Wraps explicit shards over an `n`-vertex graph. Empty shard lists are
    /// replaced by a single empty shard so `num_shards >= 1` holds.
    pub fn new(n: usize, shards: Vec<Vec<(EdgeId, Edge)>>) -> Self {
        ShardedEdgeList { soa: SoaShards::from_shards(n, shards) }
    }

    /// Partitions a graph's edges round-robin into `num_shards` shards —
    /// a stand-in for data that arrived pre-sharded by an upstream system.
    pub fn from_graph(graph: &Graph, num_shards: usize) -> Self {
        let k = num_shards.clamp(1, graph.num_edges().max(1));
        let mut shards: Vec<Vec<(EdgeId, Edge)>> = vec![Vec::new(); k];
        for (id, e) in graph.edge_iter() {
            shards[id % k].push((id, e));
        }
        ShardedEdgeList::new(graph.num_vertices(), shards)
    }
}

impl EdgeSource for ShardedEdgeList {
    fn num_vertices(&self) -> usize {
        self.soa.num_vertices()
    }

    fn num_edges(&self) -> usize {
        self.soa.num_edges()
    }

    fn num_shards(&self) -> usize {
        self.soa.num_shards()
    }

    fn shard_len(&self, shard: usize) -> usize {
        self.soa.shard_len(shard)
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        self.soa.for_each_in_shard(shard, visit)
    }

    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        self.soa.for_each_batch_in_shard(shard, max_batch, visit)
    }
}

/// A generator-backed synthetic stream: edges are derived deterministically
/// from `(seed, edge id)` and never materialized, so streams far larger than
/// memory can be driven through the engine (throughput experiment E11).
pub struct SyntheticStream {
    n: usize,
    m: usize,
    seed: u64,
    num_shards: usize,
}

impl SyntheticStream {
    /// A stream of `m` pseudo-random edges over `n >= 2` vertices with weights
    /// in `[1, 10)`, sharded by [`auto_shard_count`].
    pub fn new(n: usize, m: usize, seed: u64) -> Self {
        Self::with_shards(n, m, seed, auto_shard_count(m))
    }

    /// Same, with an explicit shard count.
    pub fn with_shards(n: usize, m: usize, seed: u64, num_shards: usize) -> Self {
        assert!(n >= 2, "a synthetic stream needs at least two vertices");
        SyntheticStream { n, m, seed, num_shards: num_shards.clamp(1, m.max(1)) }
    }

    /// The edge at global stream position `id` (pure function of seed and id).
    pub fn edge_at(&self, id: usize) -> Edge {
        let h1 = splitmix64(self.seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let h2 = splitmix64(h1);
        let h3 = splitmix64(h2);
        let u = (h1 % self.n as u64) as VertexId;
        let mut v = (h2 % (self.n as u64 - 1)) as VertexId;
        if v >= u {
            v += 1;
        }
        let w = 1.0 + 9.0 * ((h3 >> 11) as f64 / (1u64 << 53) as f64);
        Edge::new(u, v, w)
    }

    fn bounds(&self, shard: usize) -> (usize, usize) {
        (shard * self.m / self.num_shards, (shard + 1) * self.m / self.num_shards)
    }
}

/// SplitMix64: the standard 64-bit finalizer, used so edge `id` maps to the
/// same endpoints and weight on every platform and run.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl EdgeSource for SyntheticStream {
    fn num_vertices(&self) -> usize {
        self.n
    }

    fn num_edges(&self) -> usize {
        self.m
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn shard_len(&self, shard: usize) -> usize {
        let (lo, hi) = self.bounds(shard);
        hi - lo
    }

    fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
        let (lo, hi) = self.bounds(shard);
        for id in lo..hi {
            if !visit(id, self.edge_at(id)) {
                return;
            }
        }
    }

    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    ) {
        let (lo, hi) = self.bounds(shard);
        batch_by_index(lo, hi, max_batch, |id| self.edge_at(id), visit);
    }
}

/// A batch of graph updates exposed as a sharded item stream, so the dynamic
/// matching subsystem ingests update journals through the same engine (same
/// charging, same budget enforcement, same deterministic shard-order merge)
/// that edge passes use. Items are `(seq, update)` pairs, `seq` being the
/// update's position in the batch — the order the sequential apply later
/// replays.
pub struct UpdateSource<'a> {
    updates: &'a [GraphUpdate],
    num_shards: usize,
}

impl<'a> UpdateSource<'a> {
    /// Splits a batch into `num_shards` contiguous ranges
    /// (clamped to `[1, len.max(1)]`).
    pub fn new(updates: &'a [GraphUpdate], num_shards: usize) -> Self {
        let num_shards = num_shards.clamp(1, updates.len().max(1));
        UpdateSource { updates, num_shards }
    }

    /// Splits with the automatic shard count of [`auto_shard_count`] — like
    /// edge streams, the sharding depends only on the batch length, never on
    /// the worker count.
    pub fn auto(updates: &'a [GraphUpdate]) -> Self {
        Self::new(updates, auto_shard_count(updates.len()))
    }

    fn bounds(&self, shard: usize) -> (usize, usize) {
        let m = self.updates.len();
        (shard * m / self.num_shards, (shard + 1) * m / self.num_shards)
    }
}

impl ItemSource for UpdateSource<'_> {
    type Item = (usize, GraphUpdate);

    fn num_items(&self) -> usize {
        self.updates.len()
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn visit_shard(&self, shard: usize, visit: &mut dyn FnMut(Self::Item) -> bool) {
        let (lo, hi) = self.bounds(shard);
        for seq in lo..hi {
            if !visit((seq, self.updates[seq])) {
                return;
            }
        }
    }
}

/// Limits enforced *while* a pass runs (checked every batch of edges).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PassBudget {
    /// Cap on the total items streamed across the engine's lifetime.
    pub max_items_streamed: Option<usize>,
}

/// A pass interrupted or failed by the engine. Converted to the engine API's
/// typed errors by `mwm-core`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PassError {
    /// The [`PassBudget`] ran out mid-pass. `used` is the exact number of
    /// items the engine's ledger has charged at the moment it stopped.
    BudgetExceeded {
        /// Which resource overflowed (currently always `"streamed items"`).
        resource: &'static str,
        /// Items charged when the pass stopped (matches the tracker).
        used: usize,
        /// The configured limit.
        limit: usize,
    },
    /// An I/O failure while reading or writing spilled shards (including a
    /// truncated or corrupted shard file detected at open or mid-read).
    Io {
        /// What was being done and what went wrong.
        context: String,
    },
    /// A worker process died, could not be spawned, or reported a per-shard
    /// failure.
    WorkerFailed {
        /// Index of the worker within its pool.
        worker: usize,
        /// The failure as observed by the coordinator.
        reason: String,
    },
    /// A malformed frame on the coordinator side of the worker protocol
    /// (bad tag, impossible length, wrong shard coverage, undecodable
    /// accumulator bytes).
    Protocol {
        /// What the coordinator could not parse.
        reason: String,
    },
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::BudgetExceeded { resource, used, limit } => {
                write!(f, "pass interrupted: {resource} used {used} > limit {limit}")
            }
            PassError::Io { context } => write!(f, "pass I/O failure: {context}"),
            PassError::WorkerFailed { worker, reason } => {
                write!(f, "worker {worker} failed: {reason}")
            }
            PassError::Protocol { reason } => write!(f, "worker protocol violation: {reason}"),
        }
    }
}

impl std::error::Error for PassError {}

/// A pass kernel: a named, parameterized per-edge fold whose accumulator can
/// cross a process boundary. Unlike the closure-based [`PassEngine::pass_shards`],
/// a kernel is identified by [`PassKernel::name`] and reconstructed from
/// [`PassKernel::params`] on the far side, so a worker process can run the
/// same fold over shards it owns and ship the encoded accumulator back.
///
/// The contract that keeps spilled multi-process passes bit-identical to
/// in-memory ones: `decode_acc(encode_acc(a))` must reproduce `a` exactly,
/// and `fold` must be a pure function of `(acc, id, edge)`.
pub trait PassKernel: Sync {
    /// The per-shard accumulator.
    type Acc: Send;

    /// Registry name of the kernel (workers resolve the fold by this name).
    fn name(&self) -> &'static str;

    /// Serialized kernel parameters shipped with each task frame.
    fn params(&self) -> Vec<u8>;

    /// Seeds the accumulator for one shard.
    fn init(&self, shard: usize) -> Self::Acc;

    /// Folds one edge into the accumulator.
    fn fold(&self, acc: &mut Self::Acc, id: EdgeId, e: Edge);

    /// Encodes an accumulator for the wire.
    fn encode_acc(&self, acc: &Self::Acc) -> Vec<u8>;

    /// Decodes an accumulator received from a worker.
    fn decode_acc(&self, bytes: &[u8]) -> Result<Self::Acc, PassError>;
}

/// The result of one shard run by an external executor.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardOutcome {
    /// The shard index this outcome belongs to.
    pub shard: usize,
    /// Edges the worker actually visited (merged into the coordinator ledger).
    pub visited: usize,
    /// The kernel accumulator, encoded by [`PassKernel::encode_acc`].
    pub acc: Vec<u8>,
}

/// An executor that runs named kernels over shards of a spilled source
/// **outside** the calling process (the `ProcessPool` of `mwm-external` is
/// the canonical implementation). The coordinator sorts the outcomes by
/// shard index before decoding, so an executor may return them in any order.
pub trait ShardExecutor: Send + Sync {
    /// Number of parallel workers the executor drives.
    fn workers(&self) -> usize;

    /// Runs `kernel` (resolved by name, reconstructed from `params`) over
    /// every shard of the spilled source at `locator`, returning one outcome
    /// per shard in `0..num_shards`.
    fn run_pass(
        &self,
        locator: &Path,
        kernel: &str,
        params: &[u8],
        num_shards: usize,
    ) -> Result<Vec<ShardOutcome>, PassError>;
}

/// How [`PassEngine::pass_kernel`] executes a kernel pass.
///
/// Closure-based passes always run in-process; kernel passes additionally
/// accept `External`, which dispatches shards of **locator-addressable**
/// sources (see [`EdgeSource::locator`]) to a [`ShardExecutor`]. Sources
/// without a locator, and external failures under `fallback_in_process`,
/// degrade to the ordinary in-process fold — same accumulators, same
/// shard-order merge, bit-identical results.
#[derive(Clone, Default)]
pub enum ExecutionMode {
    /// Fold every shard on this process's worker threads (the default).
    #[default]
    InProcess,
    /// Dispatch kernel passes over locator-addressable sources to `executor`.
    External {
        /// The external shard executor (e.g. a process pool).
        executor: Arc<dyn ShardExecutor>,
        /// On worker death, protocol violations or I/O failures, rerun the
        /// pass in-process instead of surfacing the error.
        fallback_in_process: bool,
    },
}

impl fmt::Debug for ExecutionMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecutionMode::InProcess => write!(f, "InProcess"),
            ExecutionMode::External { executor, fallback_in_process } => f
                .debug_struct("External")
                .field("workers", &executor.workers())
                .field("fallback_in_process", fallback_in_process)
                .finish(),
        }
    }
}

/// Executes sharded semi-streaming passes with resource accounting.
pub struct PassEngine {
    parallelism: usize,
    budget: PassBudget,
    batch: usize,
    mode: ExecutionMode,
    tracker: ResourceTracker,
}

/// What the scheduler hands back: the per-shard accumulators in shard order,
/// the items visited, and whether the budget gate tripped.
type Run<A> = (Vec<A>, usize, bool);

/// The one budget gate of a pass. Every charged walk asks it at in-shard
/// offsets 0, batch, 2·batch, … and reports what it streamed since, so
/// per-item, slice and sequential passes interrupt at the same offsets — at
/// one worker with identical ledgers. The gate trips only when the limit is
/// already reached AND more items are pending, so a pass whose consumption
/// lands exactly on the limit as the stream ends succeeds.
struct Gate {
    limit: Option<usize>,
    /// Items the ledger had charged before the pass.
    base: usize,
    batch: usize,
    streamed: AtomicUsize,
    exceeded: AtomicBool,
}

impl Gate {
    fn new(limit: Option<usize>, base: usize, batch: usize) -> Self {
        let (streamed, exceeded) = (AtomicUsize::new(0), AtomicBool::new(false));
        Gate { limit, base, batch, streamed, exceeded }
    }

    /// Whether the walk may go on; trips the gate for every worker when the
    /// limit is reached.
    fn admit(&self) -> bool {
        if self.exceeded.load(Ordering::Relaxed) {
            return false;
        }
        let streamed = self.base + self.streamed.load(Ordering::Relaxed);
        if self.limit.is_some_and(|lim| streamed >= lim) {
            self.exceeded.store(true, Ordering::Relaxed);
            return false;
        }
        true
    }

    fn charge(&self, items: usize) {
        self.streamed.fetch_add(items, Ordering::Relaxed);
    }

    /// Folds one shard item by item into `acc`, asking the gate every `batch`
    /// items. Returns the accumulator and the items folded.
    fn walk_items<S, A>(
        &self,
        source: &S,
        shard: usize,
        mut acc: A,
        mut fold: impl FnMut(&mut A, S::Item),
    ) -> (A, usize)
    where
        S: ItemSource + ?Sized,
    {
        let mut visited = 0usize;
        let mut pending = 0usize;
        source.visit_shard(shard, &mut |item| {
            if pending == 0 && !self.admit() {
                return false;
            }
            fold(&mut acc, item);
            visited += 1;
            pending += 1;
            if pending == self.batch {
                self.charge(pending);
                pending = 0;
            }
            true
        });
        self.charge(pending);
        (acc, visited)
    }

    /// Folds one shard into `acc` as slices of at most `batch` edges, asking
    /// the gate before each slice. Sources cut slices at multiples of
    /// `batch`, so the gate sits at the same offsets as in
    /// [`Gate::walk_items`].
    fn walk_slices<S, A>(
        &self,
        source: &S,
        shard: usize,
        mut acc: A,
        mut fold: impl FnMut(&mut A, EdgeBatch<'_>),
    ) -> (A, usize)
    where
        S: EdgeSource + ?Sized,
    {
        let mut visited = 0usize;
        source.for_each_batch_in_shard(shard, self.batch, &mut |slice| {
            if !self.admit() {
                return false;
            }
            fold(&mut acc, slice);
            visited += slice.len();
            self.charge(slice.len());
            true
        });
        (acc, visited)
    }
}

impl PassEngine {
    /// An engine that uses up to `parallelism` worker threads per pass
    /// (clamped to at least 1), no budget, and in-process execution.
    pub fn new(parallelism: usize) -> Self {
        PassEngine {
            parallelism: parallelism.max(1),
            budget: PassBudget::default(),
            batch: DEFAULT_BATCH,
            mode: ExecutionMode::InProcess,
            tracker: ResourceTracker::new(),
        }
    }

    /// Sets the budget enforced during passes (builder style).
    pub fn with_budget(mut self, budget: PassBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the budget-check batch size (builder style; clamped to >= 1).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        self.batch = batch.max(1);
        self
    }

    /// Sets how kernel passes execute (builder style). Closure-based passes
    /// are unaffected; see [`ExecutionMode`].
    pub fn with_execution_mode(mut self, mode: ExecutionMode) -> Self {
        self.mode = mode;
        self
    }

    /// The configured worker-thread cap.
    pub fn parallelism(&self) -> usize {
        self.parallelism
    }

    /// The batch granularity of budget checks.
    pub fn batch_size(&self) -> usize {
        self.batch
    }

    /// The engine's resource ledger (rounds = passes, streamed items, space).
    pub fn tracker(&self) -> &ResourceTracker {
        &self.tracker
    }

    /// Mutable ledger access for caller-side space accounting.
    pub fn tracker_mut(&mut self) -> &mut ResourceTracker {
        &mut self.tracker
    }

    /// Consumes the engine, returning its ledger for merging into a parent.
    pub fn into_tracker(self) -> ResourceTracker {
        self.tracker
    }

    /// Number of passes performed so far.
    pub fn passes(&self) -> usize {
        self.tracker.rounds()
    }

    /// Declares the current working-set size (items held in memory): the
    /// ledger's central space is moved to `items`, tracking the peak.
    pub fn declare_memory(&mut self, items: usize) {
        let current = self.tracker.current_central_space();
        if items > current {
            self.tracker.allocate_central(items - current);
        } else {
            self.tracker.release_central(current - items);
        }
    }

    /// Performs one charged pass: every shard is folded into its own
    /// accumulator (`init(shard)` seeds it), shards run on up to
    /// `parallelism` threads, and the accumulators are returned **in shard
    /// index order** — bit-identical for any worker count.
    ///
    /// The pass charges one round plus the items actually streamed, and stops
    /// mid-shard with [`PassError::BudgetExceeded`] if the budget runs out.
    pub fn pass_shards<S, A, I, F>(
        &mut self,
        source: &S,
        init: I,
        fold: F,
    ) -> Result<Vec<A>, PassError>
    where
        S: EdgeSource + ?Sized,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, EdgeId, Edge) + Sync,
    {
        self.pass_items(&EdgeItems(source), init, move |acc, (id, e)| fold(acc, id, e))
    }

    /// The item-generic charged pass behind [`PassEngine::pass_shards`]:
    /// works for any [`ItemSource`] — edge streams and [`UpdateSource`]
    /// update batches alike. One round is charged plus every item actually
    /// visited; the budget interrupts mid-shard exactly like an edge pass.
    pub fn pass_items<S, A, I, F>(
        &mut self,
        source: &S,
        init: I,
        fold: F,
    ) -> Result<Vec<A>, PassError>
    where
        S: ItemSource + ?Sized,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, S::Item) + Sync,
    {
        self.charged("items", source, self.parallelism, |shard, gate| {
            gate.walk_items(source, shard, init(shard), &fold)
        })
    }

    /// One charged pass over whole shard **slices**: like
    /// [`PassEngine::pass_shards`], but the fold consumes [`EdgeBatch`]
    /// struct-of-arrays views of up to [`PassEngine::batch_size`] edges per
    /// call instead of one edge at a time — the data-oriented hot path, with
    /// no per-edge virtual dispatch between the source and the fold.
    ///
    /// Accounting is identical to the per-edge pass: one round plus the edges
    /// actually visited, with the budget gated at the same batch boundaries,
    /// so an interrupt produces the **same partial ledger** the per-edge path
    /// would. A fold that processes its slice left to right produces
    /// bit-identical accumulators to the equivalent per-edge fold, at any
    /// worker count.
    pub fn pass_batches<S, A, I, F>(
        &mut self,
        source: &S,
        init: I,
        fold: F,
    ) -> Result<Vec<A>, PassError>
    where
        S: EdgeSource + ?Sized,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, EdgeBatch<'_>) + Sync,
    {
        self.charged("batches", &EdgeItems(source), self.parallelism, |shard, gate| {
            gate.walk_slices(source, shard, init(shard), &fold)
        })
    }

    /// An **uncharged** sharded fold over [`EdgeBatch`] slices: same fan-out
    /// and deterministic merge order as [`PassEngine::pass_batches`], but no
    /// round or stream charge and no budget check. For refinement scans over
    /// state that is already in central memory (the λ scans of the
    /// dual-primal oracle).
    pub fn scan_batches<S, A, I, F>(&self, source: &S, init: I, fold: F) -> Vec<A>
    where
        S: EdgeSource + ?Sized,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, EdgeBatch<'_>) + Sync,
    {
        let gate = Gate::new(None, 0, self.batch);
        let (accs, _, _) = self.schedule(
            source.num_edges(),
            source.num_shards(),
            self.parallelism,
            &gate,
            |shard| gate.walk_slices(source, shard, init(shard), &fold),
        );
        accs
    }

    /// One charged pass visiting every edge **in stream order** (shard 0
    /// first, then shard 1, ...) on the calling thread, for order-dependent
    /// consumers.
    pub fn pass_sequential<S>(
        &mut self,
        source: &S,
        visit: impl FnMut(EdgeId, Edge) + Send,
    ) -> Result<(), PassError>
    where
        S: EdgeSource + ?Sized,
    {
        // One worker claims the shards in index order on this thread; the
        // lock only satisfies the scheduler's `Sync` bound.
        let visit = Mutex::new(visit);
        let items = EdgeItems(source);
        self.charged("sequential", &items, 1, |shard, gate| {
            let mut visit = visit.lock().expect("sequential visitor panicked");
            gate.walk_items(&items, shard, (), |_, (id, e)| visit(id, e))
        })?;
        Ok(())
    }

    /// One charged **kernel** pass: like [`PassEngine::pass_shards`], but the
    /// fold is a named [`PassKernel`], which lets the pass leave the process.
    ///
    /// Dispatch rules, in order:
    /// 1. [`ExecutionMode::InProcess`], or a source without a
    ///    [`EdgeSource::locator`]: fold in-process (identical to
    ///    `pass_shards(source, kernel.init, kernel.fold)`).
    /// 2. [`ExecutionMode::External`] over a locator-addressable source whose
    ///    full pass fits the remaining stream budget: ship
    ///    `(locator, name, params)` to the executor, merge its outcomes in
    ///    shard-index order, charge one round plus the items the workers
    ///    visited. Results are bit-identical to the in-process fold.
    /// 3. External execution failing with `fallback_in_process` set: rerun
    ///    in-process. Without the fallback the typed error surfaces.
    ///
    /// A pass that could trip the stream budget mid-way always runs
    /// in-process (external workers do not share the coordinator's mid-pass
    /// counter, and budget enforcement must stay exact).
    pub fn pass_kernel<S, K>(&mut self, source: &S, kernel: &K) -> Result<Vec<K::Acc>, PassError>
    where
        S: EdgeSource + ?Sized,
        K: PassKernel,
    {
        if let ExecutionMode::External { executor, fallback_in_process } = &self.mode {
            let streamed = self.tracker.items_streamed();
            let fits_budget = self
                .budget
                .max_items_streamed
                .is_none_or(|lim| streamed.saturating_add(source.num_edges()) <= lim);
            if let (Some(locator), true) = (source.locator(), fits_budget) {
                let fallback = *fallback_in_process;
                match Self::run_external(executor.as_ref(), source.num_shards(), locator, kernel) {
                    // Charged only once the pass is known good, so a fallback
                    // rerun after a failed dispatch is charged exactly once.
                    Ok((accs, visited)) => {
                        return self.settle("external", (accs, visited, false), source.health())
                    }
                    Err(e) if !fallback => return Err(e),
                    Err(_) => {} // fall through to the in-process fold
                }
            }
        }
        self.pass_shards(source, |shard| kernel.init(shard), |acc, id, e| kernel.fold(acc, id, e))
    }

    /// The external arm of [`PassEngine::pass_kernel`]: runs the kernel on
    /// the executor, checks that the outcomes cover exactly shards
    /// `0..num_shards`, and decodes them in shard order. Returns the
    /// accumulators and the edges the workers visited; charges nothing.
    fn run_external<K: PassKernel>(
        executor: &dyn ShardExecutor,
        num_shards: usize,
        locator: &Path,
        kernel: &K,
    ) -> Result<(Vec<K::Acc>, usize), PassError> {
        let mut outcomes =
            executor.run_pass(locator, kernel.name(), &kernel.params(), num_shards)?;
        outcomes.sort_unstable_by_key(|o| o.shard);
        if outcomes.len() != num_shards || outcomes.iter().enumerate().any(|(i, o)| o.shard != i) {
            let shards: Vec<usize> = outcomes.iter().map(|o| o.shard).collect();
            return Err(PassError::Protocol {
                reason: format!("executor covered shards {shards:?}, expected 0..{num_shards}"),
            });
        }
        let accs = outcomes.iter().map(|o| kernel.decode_acc(&o.acc)).collect::<Result<_, _>>()?;
        Ok((accs, outcomes.iter().map(|o| o.visited).sum()))
    }

    /// One charged in-process pass: opens the `pass` span, schedules `walk`
    /// on up to `workers` threads under the engine's budget, then settles.
    fn charged<S, A, W>(
        &mut self,
        kind: &'static str,
        source: &S,
        workers: usize,
        walk: W,
    ) -> Result<Vec<A>, PassError>
    where
        S: ItemSource + ?Sized,
        A: Send,
        W: Fn(usize, &Gate) -> (A, usize) + Sync,
    {
        let _span = mwm_obs::span!("pass", shards = source.num_shards());
        let gate =
            Gate::new(self.budget.max_items_streamed, self.tracker.items_streamed(), self.batch);
        let run = self.schedule(source.num_items(), source.num_shards(), workers, &gate, |shard| {
            walk(shard, &gate)
        });
        self.settle(kind, run, source.health())
    }

    /// The one shard scheduler: up to `workers` threads (one, on the calling
    /// thread, for streams under [`MIN_PARALLEL_ITEMS`]) claim shards from a
    /// shared counter, `walk` folds each claimed shard, and the results are
    /// sorted by shard index. No new shard is claimed once `gate` trips.
    fn schedule<A, W>(
        &self,
        num_items: usize,
        num_shards: usize,
        workers: usize,
        gate: &Gate,
        walk: W,
    ) -> Run<A>
    where
        A: Send,
        W: Fn(usize) -> (A, usize) + Sync,
    {
        let workers =
            if num_items < MIN_PARALLEL_ITEMS { 1 } else { workers.min(num_shards).max(1) };
        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<(usize, A, usize)>> = Mutex::new(Vec::with_capacity(num_shards));
        let worker = || loop {
            let shard = next.fetch_add(1, Ordering::Relaxed);
            if shard >= num_shards || gate.exceeded.load(Ordering::Relaxed) {
                break;
            }
            let (acc, visited) = walk(shard);
            results.lock().expect("pass worker panicked").push((shard, acc, visited));
        };
        if workers == 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }
        let mut results = results.into_inner().expect("pass worker panicked");
        results.sort_unstable_by_key(|r| r.0);
        let visited = results.iter().map(|r| r.2).sum();
        let exceeded = gate.exceeded.load(Ordering::Relaxed);
        (results.into_iter().map(|(_, acc, _)| acc).collect(), visited, exceeded)
    }

    /// The settle step after every charged pass: charges one round plus the
    /// items visited, records the pass, then surfaces a failed source read
    /// (`health`) or an exhausted budget as a typed error.
    fn settle<A>(
        &mut self,
        kind: &'static str,
        (accs, visited, exceeded): Run<A>,
        health: Result<(), PassError>,
    ) -> Result<Vec<A>, PassError> {
        self.tracker.charge_round();
        self.tracker.charge_stream(visited);
        Self::record_pass(kind, visited, exceeded);
        health?;
        if exceeded {
            return Err(PassError::BudgetExceeded {
                resource: "streamed items",
                used: self.tracker.items_streamed(),
                // The gate trips only under a limit.
                limit: self.budget.max_items_streamed.unwrap_or(usize::MAX),
            });
        }
        Ok(accs)
    }

    /// Records one pass into the global metrics registry. Write-only taps:
    /// nothing here feeds back into scheduling or accounting, so solver
    /// outputs are bit-identical with the registry enabled or disabled.
    fn record_pass(kind: &'static str, visited: usize, interrupted: bool) {
        match kind {
            "items" => mwm_obs::counter!("pass_total{kind=items}").inc(),
            "batches" => mwm_obs::counter!("pass_total{kind=batches}").inc(),
            "sequential" => mwm_obs::counter!("pass_total{kind=sequential}").inc(),
            _ => mwm_obs::counter!("pass_total{kind=external}").inc(),
        }
        mwm_obs::counter!("pass_edges_total").add(visited as u64);
        mwm_obs::histogram!("pass_edges", &mwm_obs::SIZE_BOUNDS).observe(visited as f64);
        if interrupted {
            mwm_obs::counter!("pass_budget_interrupts_total").inc();
        }
    }
}

/// On-demand publication of the engine's resource ledger (the per-pass
/// counters record themselves as passes run).
impl mwm_obs::Observable for PassEngine {
    fn obs_scope(&self) -> &'static str {
        "pass_engine"
    }

    fn publish_metrics(&self, registry: &mwm_obs::Registry) {
        let t = self.tracker();
        registry.gauge("pass_engine_rounds").set(t.rounds() as i64);
        registry.gauge("pass_engine_items_streamed").set(t.items_streamed() as i64);
        registry.gauge("pass_engine_peak_central_space").set(t.peak_central_space() as i64);
        registry.gauge("pass_engine_shuffle_volume").set(t.shuffle_volume() as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn graph(m: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(7);
        generators::gnm(64, m, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    #[test]
    fn pass_visits_every_edge_exactly_once() {
        let g = graph(500);
        let src = GraphSource::new(&g, 7);
        let mut engine = PassEngine::new(4);
        let mut counts = vec![0usize; g.num_edges()];
        for shard in engine.pass_shards(&src, |_| Vec::new(), |acc, id, _| acc.push(id)).unwrap() {
            for id in shard {
                counts[id] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 1));
        assert_eq!(engine.passes(), 1);
        assert_eq!(engine.tracker().items_streamed(), g.num_edges());
    }

    #[test]
    fn shard_results_are_bit_identical_across_worker_counts() {
        // Big enough (> MIN_PARALLEL_ITEMS) that multi-worker runs really
        // spawn threads rather than falling back to the calling thread.
        let src = SyntheticStream::new(500, 50_000, 9);
        assert!(src.num_edges() >= MIN_PARALLEL_ITEMS);
        let fold = |acc: &mut f64, _: EdgeId, e: Edge| {
            *acc += (e.w * 1.000001).ln().exp();
        };
        let mut reference: Option<Vec<u64>> = None;
        for workers in [1usize, 2, 4, 8] {
            let mut engine = PassEngine::new(workers);
            let sums = engine.pass_shards(&src, |_| 0.0f64, fold).unwrap();
            let bits: Vec<u64> = sums.iter().map(|s| s.to_bits()).collect();
            match &reference {
                None => reference = Some(bits),
                Some(r) => assert_eq!(r, &bits, "workers={workers}"),
            }
        }
    }

    #[test]
    fn sequential_pass_preserves_stream_order() {
        let g = graph(400);
        let src = GraphSource::new(&g, 5);
        let mut engine = PassEngine::new(8); // parallelism must not affect order
        let mut seen = Vec::new();
        engine.pass_sequential(&src, |id, _| seen.push(id)).unwrap();
        assert_eq!(seen, (0..g.num_edges()).collect::<Vec<_>>());
    }

    #[test]
    fn budget_interrupts_mid_shard_with_accurate_ledger() {
        let src = SyntheticStream::with_shards(500, 50_000, 3, 4);
        let limit = 9000;
        let mut engine = PassEngine::new(2)
            .with_budget(PassBudget { max_items_streamed: Some(limit) })
            .with_batch_size(16);
        let err = engine.pass_shards(&src, |_| 0usize, |acc, _, _| *acc += 1).unwrap_err();
        match err {
            PassError::BudgetExceeded { resource, used, limit: l } => {
                assert_eq!(resource, "streamed items");
                assert_eq!(l, limit);
                assert_eq!(used, engine.tracker().items_streamed(), "ledger must match error");
                assert!(used >= limit, "stopped before the limit tripped");
                // Overshoot is bounded by one batch per worker.
                assert!(used <= limit + 2 * 16 + 2, "used {used} overshoots too far");
            }
            other => panic!("expected a budget interrupt, got {other:?}"),
        }
        assert_eq!(engine.passes(), 1, "the interrupted pass is still one round");
    }

    #[test]
    fn consumption_exactly_at_the_limit_succeeds() {
        // The budget gates the NEXT batch: a pass whose total consumption
        // lands exactly on the limit as the stream ends must succeed, on both
        // the parallel and the sequential path (and match the post-hoc
        // `used > limit` convention of the engine API's budget checks).
        let m = 2048;
        let src = SyntheticStream::with_shards(100, m, 5, 2);
        for workers in [1usize, 4] {
            let mut engine =
                PassEngine::new(workers).with_budget(PassBudget { max_items_streamed: Some(m) });
            let counts = engine
                .pass_shards(&src, |_| 0usize, |acc, _, _| *acc += 1)
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(counts.iter().sum::<usize>(), m);
        }
        let mut engine = PassEngine::new(1).with_budget(PassBudget { max_items_streamed: Some(m) });
        let mut visited = 0usize;
        engine.pass_sequential(&src, |_, _| visited += 1).unwrap();
        assert_eq!(visited, m);
    }

    #[test]
    fn sequential_budget_interrupt_is_exact() {
        let g = graph(1000);
        let src = GraphSource::auto(&g);
        let mut engine = PassEngine::new(1)
            .with_budget(PassBudget { max_items_streamed: Some(64) })
            .with_batch_size(8);
        let err = engine.pass_sequential(&src, |_, _| {}).unwrap_err();
        let PassError::BudgetExceeded { used, .. } = err else {
            panic!("expected a budget interrupt, got {err:?}");
        };
        assert_eq!(used, engine.tracker().items_streamed());
        assert!((64..64 + 8).contains(&used));
    }

    #[test]
    fn sharded_edge_list_round_trips_the_graph() {
        let g = graph(600);
        let src = ShardedEdgeList::from_graph(&g, 5);
        assert_eq!(src.num_edges(), g.num_edges());
        assert_eq!(src.num_shards(), 5);
        let mut engine = PassEngine::new(3);
        let weight: f64 = engine
            .pass_shards(&src, |_| 0.0, |acc: &mut f64, _, e| *acc += e.w)
            .unwrap()
            .iter()
            .sum();
        let direct: f64 = g.total_weight();
        assert!((weight - direct).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn synthetic_stream_is_deterministic_and_loop_free() {
        let s1 = SyntheticStream::new(100, 5000, 42);
        let s2 = SyntheticStream::new(100, 5000, 42);
        for id in [0usize, 1, 999, 4999] {
            let a = s1.edge_at(id);
            let b = s2.edge_at(id);
            assert_eq!((a.u, a.v, a.w.to_bits()), (b.u, b.v, b.w.to_bits()));
            assert_ne!(a.u, a.v, "self-loop at id {id}");
            assert!(a.w >= 1.0 && a.w < 10.0);
            assert!((a.u as usize) < 100 && (a.v as usize) < 100);
        }
        let mut engine = PassEngine::new(4);
        let counts = engine.pass_shards(&s1, |_| 0usize, |acc, _, _| *acc += 1).unwrap();
        assert_eq!(counts.iter().sum::<usize>(), 5000);
    }

    #[test]
    fn update_batches_stream_like_edges() {
        let updates: Vec<GraphUpdate> = (0..20_000)
            .map(|i| match i % 3 {
                0 => GraphUpdate::InsertEdge {
                    u: (i % 50) as VertexId,
                    v: ((i + 1) % 50) as VertexId,
                    w: 1.0 + (i % 7) as f64,
                },
                1 => GraphUpdate::DeleteEdge { id: i },
                _ => GraphUpdate::SetCapacity { v: (i % 50) as VertexId, b: 2 },
            })
            .collect();
        let src = UpdateSource::auto(&updates);
        assert!(src.num_items() >= MIN_PARALLEL_ITEMS, "force real multi-worker runs");
        let mut reference: Option<Vec<(usize, usize)>> = None;
        for workers in [1usize, 4] {
            let mut engine = PassEngine::new(workers);
            let accs = engine
                .pass_items(
                    &src,
                    |_| (0usize, 0usize),
                    |acc: &mut (usize, usize), (seq, u): (usize, GraphUpdate)| {
                        acc.0 += 1;
                        if matches!(u, GraphUpdate::InsertEdge { .. }) {
                            acc.1 = acc.1.wrapping_add(seq);
                        }
                    },
                )
                .unwrap();
            let total: usize = accs.iter().map(|a| a.0).sum();
            assert_eq!(total, updates.len());
            assert_eq!(engine.tracker().items_streamed(), updates.len());
            assert_eq!(engine.passes(), 1, "one update batch is one charged pass");
            match &reference {
                None => reference = Some(accs),
                Some(r) => assert_eq!(r, &accs, "workers={workers}"),
            }
        }
    }

    #[test]
    fn update_pass_respects_the_stream_budget() {
        let updates: Vec<GraphUpdate> =
            (0..5_000).map(|i| GraphUpdate::DeleteEdge { id: i }).collect();
        let src = UpdateSource::new(&updates, 4);
        let mut engine = PassEngine::new(2)
            .with_budget(PassBudget { max_items_streamed: Some(1_000) })
            .with_batch_size(32);
        let err = engine
            .pass_items(&src, |_| 0usize, |acc: &mut usize, _: (usize, GraphUpdate)| *acc += 1)
            .unwrap_err();
        let PassError::BudgetExceeded { used, limit, .. } = err else {
            panic!("expected a budget interrupt, got {err:?}");
        };
        assert_eq!(limit, 1_000);
        assert_eq!(used, engine.tracker().items_streamed());
    }

    #[test]
    fn memory_declarations_track_peak() {
        let mut engine = PassEngine::new(1);
        engine.declare_memory(500);
        engine.declare_memory(100);
        engine.declare_memory(300);
        assert_eq!(engine.tracker().peak_central_space(), 500);
        assert_eq!(engine.tracker().current_central_space(), 300);
    }

    #[test]
    fn auto_shard_count_is_stable_and_bounded() {
        assert_eq!(auto_shard_count(0), 1);
        assert_eq!(auto_shard_count(100), 1);
        assert!(auto_shard_count(1 << 20) <= MAX_AUTO_SHARDS);
        assert_eq!(auto_shard_count(50_000), auto_shard_count(50_000));
    }

    /// A toy kernel (weight sum per shard) for the execution-mode tests.
    struct SumKernel;

    impl PassKernel for SumKernel {
        type Acc = f64;
        fn name(&self) -> &'static str {
            "test-sum"
        }
        fn params(&self) -> Vec<u8> {
            Vec::new()
        }
        fn init(&self, _shard: usize) -> f64 {
            0.0
        }
        fn fold(&self, acc: &mut f64, _id: EdgeId, e: Edge) {
            *acc += e.w;
        }
        fn encode_acc(&self, acc: &f64) -> Vec<u8> {
            acc.to_bits().to_le_bytes().to_vec()
        }
        fn decode_acc(&self, bytes: &[u8]) -> Result<f64, PassError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| PassError::Protocol { reason: "bad acc length".to_string() })?;
            Ok(f64::from_bits(u64::from_le_bytes(arr)))
        }
    }

    /// Wraps a stream with a (dummy) locator so kernel passes may dispatch.
    struct Located(SyntheticStream);

    impl EdgeSource for Located {
        fn num_vertices(&self) -> usize {
            self.0.num_vertices()
        }
        fn num_edges(&self) -> usize {
            self.0.num_edges()
        }
        fn num_shards(&self) -> usize {
            self.0.num_shards()
        }
        fn shard_len(&self, shard: usize) -> usize {
            self.0.shard_len(shard)
        }
        fn for_each_in_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeId, Edge) -> bool) {
            self.0.for_each_in_shard(shard, visit)
        }
        fn locator(&self) -> Option<&Path> {
            Some(Path::new("/nonexistent/test-locator"))
        }
    }

    /// A mock executor that runs `SumKernel` over its own copy of the stream
    /// (standing in for a worker process that opened the spill directory).
    struct MockExecutor {
        stream: SyntheticStream,
        fail_with: Option<PassError>,
    }

    impl ShardExecutor for MockExecutor {
        fn workers(&self) -> usize {
            1
        }
        fn run_pass(
            &self,
            _locator: &Path,
            kernel: &str,
            _params: &[u8],
            num_shards: usize,
        ) -> Result<Vec<ShardOutcome>, PassError> {
            if let Some(err) = &self.fail_with {
                return Err(err.clone());
            }
            assert_eq!(kernel, "test-sum");
            let k = SumKernel;
            Ok((0..num_shards)
                .map(|shard| {
                    let mut acc = k.init(shard);
                    let mut visited = 0usize;
                    self.stream.for_each_in_shard(shard, &mut |id, e| {
                        k.fold(&mut acc, id, e);
                        visited += 1;
                        true
                    });
                    ShardOutcome { shard, visited, acc: k.encode_acc(&acc) }
                })
                .collect())
        }
    }

    #[test]
    fn kernel_pass_in_process_matches_pass_shards() {
        let src = SyntheticStream::new(100, 20_000, 77);
        let mut a = PassEngine::new(2);
        let by_kernel = a.pass_kernel(&src, &SumKernel).unwrap();
        let mut b = PassEngine::new(2);
        let by_closure = b.pass_shards(&src, |_| 0.0f64, |acc, _, e| *acc += e.w).unwrap();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&by_kernel), bits(&by_closure));
        assert_eq!(a.tracker().items_streamed(), b.tracker().items_streamed());
        assert_eq!(a.passes(), 1);
    }

    #[test]
    fn external_kernel_pass_is_bit_identical_and_charged() {
        let src = Located(SyntheticStream::new(100, 20_000, 78));
        let executor = Arc::new(MockExecutor {
            stream: SyntheticStream::new(100, 20_000, 78),
            fail_with: None,
        });
        let mut ext = PassEngine::new(1)
            .with_execution_mode(ExecutionMode::External { executor, fallback_in_process: false });
        let external = ext.pass_kernel(&src, &SumKernel).unwrap();
        let mut inp = PassEngine::new(4);
        let in_process = inp.pass_kernel(&src, &SumKernel).unwrap();
        let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&external), bits(&in_process));
        assert_eq!(ext.passes(), 1);
        assert_eq!(ext.tracker().items_streamed(), src.num_edges());
    }

    #[test]
    fn external_failure_surfaces_typed_or_falls_back() {
        let src = Located(SyntheticStream::new(100, 20_000, 79));
        let failing = |fallback| {
            PassEngine::new(1).with_execution_mode(ExecutionMode::External {
                executor: Arc::new(MockExecutor {
                    stream: SyntheticStream::new(2, 1, 0),
                    fail_with: Some(PassError::WorkerFailed {
                        worker: 0,
                        reason: "killed for the test".to_string(),
                    }),
                }),
                fallback_in_process: fallback,
            })
        };
        let mut strict = failing(false);
        match strict.pass_kernel(&src, &SumKernel) {
            Err(PassError::WorkerFailed { worker: 0, .. }) => {}
            other => panic!("expected WorkerFailed, got {other:?}"),
        }
        assert_eq!(strict.passes(), 0, "a failed dispatch must not charge a round");

        let mut lenient = failing(true);
        let accs = lenient.pass_kernel(&src, &SumKernel).unwrap();
        let mut reference = PassEngine::new(1);
        let expected = reference.pass_kernel(&src, &SumKernel).unwrap();
        assert_eq!(
            accs.iter().map(|s| s.to_bits()).collect::<Vec<_>>(),
            expected.iter().map(|s| s.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(lenient.passes(), 1, "the fallback pass is charged exactly once");
    }

    #[test]
    fn budget_threatened_kernel_pass_stays_in_process() {
        // The stream budget could trip mid-pass, so the engine must refuse to
        // dispatch externally (workers cannot enforce the coordinator budget)
        // and instead enforce it exactly in-process.
        let src = Located(SyntheticStream::new(100, 20_000, 80));
        let mut engine = PassEngine::new(1)
            .with_execution_mode(ExecutionMode::External {
                executor: Arc::new(MockExecutor {
                    stream: SyntheticStream::new(2, 1, 0),
                    fail_with: Some(PassError::Protocol { reason: "must not be called".into() }),
                }),
                fallback_in_process: false,
            })
            .with_budget(PassBudget { max_items_streamed: Some(1000) })
            .with_batch_size(64);
        match engine.pass_kernel(&src, &SumKernel) {
            Err(PassError::BudgetExceeded { used, limit: 1000, .. }) => {
                assert_eq!(used, engine.tracker().items_streamed());
            }
            other => panic!("expected an exact in-process budget stop, got {other:?}"),
        }
    }

    #[test]
    fn soa_shards_match_their_source_exactly() {
        let g = graph(700);
        let src = GraphSource::new(&g, 6);
        let soa = SoaShards::from_source(&src);
        assert_eq!(soa.num_vertices(), src.num_vertices());
        assert_eq!(soa.num_edges(), src.num_edges());
        assert_eq!(soa.num_shards(), src.num_shards());
        for shard in 0..src.num_shards() {
            let mut expected: Vec<(EdgeId, u32, u32, u64)> = Vec::new();
            src.for_each_in_shard(shard, &mut |id, e| {
                expected.push((id, e.u, e.v, e.w.to_bits()));
                true
            });
            let slice = soa.shard_slice(shard);
            let got: Vec<(EdgeId, u32, u32, u64)> = (0..slice.len())
                .map(|i| (slice.ids[i], slice.u[i], slice.v[i], slice.w[i]))
                .collect();
            assert_eq!(got, expected, "shard {shard}");
        }
    }

    #[test]
    fn batch_walk_concatenation_equals_per_edge_walk() {
        // Every source's batch walk must deliver the per-edge stream exactly,
        // in slices no longer than the requested cap, with no trailing slice
        // after an early stop.
        let g = graph(900);
        let soa = SoaShards::from_source(&GraphSource::new(&g, 5));
        let sources: [&dyn EdgeSource; 4] = [
            &GraphSource::new(&g, 5),
            &ShardedEdgeList::from_graph(&g, 5),
            &SyntheticStream::with_shards(80, 900, 11, 5),
            &soa,
        ];
        for (si, src) in sources.iter().enumerate() {
            for shard in 0..src.num_shards() {
                let mut per_edge: Vec<(EdgeId, u64)> = Vec::new();
                src.for_each_in_shard(shard, &mut |id, e| {
                    per_edge.push((id, e.w.to_bits()));
                    true
                });
                let mut batched: Vec<(EdgeId, u64)> = Vec::new();
                src.for_each_batch_in_shard(shard, 17, &mut |b| {
                    assert!(b.len() <= 17 && !b.is_empty(), "source {si} shard {shard}");
                    batched.extend(b.ids.iter().copied().zip(b.w.iter().copied()));
                    true
                });
                assert_eq!(batched, per_edge, "source {si} shard {shard}");
                let mut slices = 0usize;
                src.for_each_batch_in_shard(shard, 17, &mut |_| {
                    slices += 1;
                    false
                });
                assert!(slices <= 1, "early stop must suppress further slices");
            }
        }
    }

    #[test]
    fn batch_pass_is_bit_identical_to_per_edge_pass() {
        // An order-sensitive fold (the multiplier-update shape) must produce
        // the same bits through the slice path as through the per-edge path,
        // at every worker count.
        let src = SyntheticStream::with_shards(500, 50_000, 21, 8);
        let mut reference = PassEngine::new(1);
        let expected = reference
            .pass_shards(
                &src,
                |_| 0.0f64,
                |acc, id, e| *acc = 0.5 * *acc + (e.w + (id % 13) as f64).sqrt(),
            )
            .unwrap();
        let expected_bits: Vec<u64> = expected.iter().map(|s| s.to_bits()).collect();
        for workers in [1usize, 2, 4, 8] {
            let mut engine = PassEngine::new(workers);
            let accs = engine
                .pass_batches(
                    &src,
                    |_| 0.0f64,
                    |acc, b| {
                        for i in 0..b.len() {
                            *acc = 0.5 * *acc + (b.weight(i) + (b.ids[i] % 13) as f64).sqrt();
                        }
                    },
                )
                .unwrap();
            let bits: Vec<u64> = accs.iter().map(|s| s.to_bits()).collect();
            assert_eq!(bits, expected_bits, "workers={workers}");
            assert_eq!(engine.tracker().items_streamed(), src.num_edges());
            assert_eq!(engine.passes(), 1);
        }
    }

    #[test]
    fn batch_budget_interrupt_charges_the_per_edge_ledger() {
        // With one worker every walk asks the one gate at the same in-shard
        // offsets, so the interrupted ledgers of all four charged in-process
        // passes must be *equal*, not merely all valid — mid-batch, on a
        // batch boundary, and at the 12,500-edge shard boundary.
        let src = SyntheticStream::with_shards(500, 50_000, 3, 4);
        let cases =
            [(0usize, 0usize), (1, 16), (9000, 9008), (9007, 9008), (12500, 12500), (12512, 12516)];
        for (limit, expected) in cases {
            let engine = || {
                PassEngine::new(1)
                    .with_budget(PassBudget { max_items_streamed: Some(limit) })
                    .with_batch_size(16)
            };
            let mut ledgers = Vec::new();
            let mut e = engine();
            ledgers.push((e.pass_shards(&src, |_| 0usize, |acc, _, _| *acc += 1).map(drop), e));
            let mut e = engine();
            ledgers.push((e.pass_batches(&src, |_| 0usize, |acc, b| *acc += b.len()).map(drop), e));
            let mut e = engine();
            ledgers.push((e.pass_sequential(&src, |_, _| {}), e));
            let mut e = engine();
            ledgers.push((e.pass_kernel(&src, &SumKernel).map(drop), e));
            for (i, (result, engine)) in ledgers.iter().enumerate() {
                match result {
                    Err(PassError::BudgetExceeded { used, .. }) => {
                        assert_eq!(*used, expected, "limit={limit} pass {i}");
                        assert_eq!(*used, engine.tracker().items_streamed(), "limit={limit}");
                        assert_eq!(engine.passes(), 1, "limit={limit} pass {i}");
                    }
                    other => panic!("limit={limit} pass {i}: expected an interrupt, got {other:?}"),
                }
            }
        }
        // Multi-worker interrupts keep the per-edge invariants: ledger
        // matches the error exactly, overshoot bounded by one slice/worker.
        let limit = 9000;
        let mut engine = PassEngine::new(2)
            .with_budget(PassBudget { max_items_streamed: Some(limit) })
            .with_batch_size(16);
        let err = engine.pass_batches(&src, |_| 0usize, |acc, b| *acc += b.len()).unwrap_err();
        match err {
            PassError::BudgetExceeded { used, limit: l, .. } => {
                assert_eq!(l, limit);
                assert_eq!(used, engine.tracker().items_streamed());
                assert!(used >= limit);
                assert!(used <= limit + 2 * 16 + 2, "used {used} overshoots too far");
            }
            other => panic!("expected a budget interrupt, got {other:?}"),
        }
        assert_eq!(engine.passes(), 1);
    }

    #[test]
    fn batch_consumption_exactly_at_the_limit_succeeds() {
        let m = 2048;
        let src = SyntheticStream::with_shards(100, m, 5, 2);
        for workers in [1usize, 4] {
            let mut engine =
                PassEngine::new(workers).with_budget(PassBudget { max_items_streamed: Some(m) });
            let counts = engine
                .pass_batches(&src, |_| 0usize, |acc, b| *acc += b.len())
                .unwrap_or_else(|e| panic!("workers={workers}: {e}"));
            assert_eq!(counts.iter().sum::<usize>(), m);
        }
    }

    #[test]
    fn scan_batches_is_uncharged() {
        let g = graph(300);
        let src = GraphSource::auto(&g);
        let engine = PassEngine::new(2);
        let sums = engine.scan_batches(
            &src,
            |_| 0.0f64,
            |acc, b| {
                for i in 0..b.len() {
                    *acc += b.weight(i);
                }
            },
        );
        let total: f64 = sums.iter().sum();
        assert!((total - g.total_weight()).abs() < 1e-9 * g.total_weight());
        assert_eq!(engine.tracker().rounds(), 0);
        assert_eq!(engine.tracker().items_streamed(), 0);
    }
}
