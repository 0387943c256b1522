//! Sharded multi-threaded pass execution over edge streams.
//!
//! The paper's algorithms are defined by how they consume data: a small number
//! of *passes* over an edge stream under a strict memory budget. The
//! [`PassEngine`] executes such passes over **sharded** streams: an
//! [`EdgeSource`] exposes the stream as a fixed list of shards, each read in
//! one way only — as [`EdgeBatch`] struct-of-arrays slices, by
//! [`EdgeSource::for_each_batch_in_shard`]. A pass fans the shards out across
//! `std::thread` workers (at most [`PassEngine::parallelism`] at a time), each
//! worker folds its shards into a private accumulator, and the per-shard
//! results are merged **in shard order** — so the outcome is bit-identical for
//! any worker count. [`PassEngine::pass_shards`] and
//! [`PassEngine::pass_sequential`] are per-edge loops over the same slice
//! walk; the latter visits the shards in index order on the calling thread,
//! for order-dependent consumers (one-pass replacement matching), but still
//! gets the engine's accounting and budget enforcement.
//! [`PassEngine::pass_items`] runs the same scheduler over a plain slice of
//! any other payload (a dynamic session's graph updates).
//!
//! Every pass runs through one shard scheduler and one budget gate:
//! [`PassBudget::max_items_streamed`] is checked every
//! [`PassEngine::batch_size`] items of a shard, so an exhausted budget
//! interrupts the pass mid-shard with [`PassError::BudgetExceeded`] and a
//! ledger that reflects exactly the items actually visited — never a panic.
//! After every charged edge pass the source's [`EdgeSource::health`] is
//! checked, so a read that failed mid-shard surfaces as [`PassError::Io`]
//! instead of a result over part of the stream.
//!
//! The number of shards is a property of the *source*, not of the engine:
//! changing `parallelism` changes how many threads consume the shards, never
//! how the stream is split, which is what makes results reproducible across
//! machines and worker counts.

use crate::resources::ResourceTracker;
use mwm_graph::{Edge, EdgeId, Graph, VertexId};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

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

/// The bounds of shard `shard` when `len` items split into `num_shards`
/// contiguous ranges: the layout of [`GraphSource`], [`SyntheticStream`] and
/// [`PassEngine::pass_items`].
fn contiguous_shard(shard: usize, num_shards: usize, len: usize) -> (usize, usize) {
    (shard * len / num_shards, (shard + 1) * len / num_shards)
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
/// views for sources that produce edges one at a time (the index-addressable
/// sources and the spilled readback in `mwm-external` both decode into one
/// of these).
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

    /// Visits the shard's edges as consecutive [`EdgeBatch`] slices, in
    /// stream order: every slice but the last holds exactly `max_batch`
    /// edges (clamped to at least 1), so slices start at in-shard offsets 0,
    /// `max_batch`, 2·`max_batch`, … — the offsets the engine's budget gate
    /// asks at. `visit` returning `false` stops the walk; no further slice
    /// (including a trailing partial one) is emitted. This is the one way a
    /// shard is read: the engine's per-edge passes loop over these slices.
    fn for_each_batch_in_shard(
        &self,
        shard: usize,
        max_batch: usize,
        visit: &mut dyn FnMut(EdgeBatch<'_>) -> bool,
    );

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
        contiguous_shard(shard, self.num_shards, self.graph.num_edges())
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
/// prefers, and spilled readback decodes straight into the same column
/// layout. Shards may hold any subset of ids in any order
/// ([`SoaShards::round_robin`] is a non-contiguous layout), as they would
/// after a shuffle onto different machines.
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
    /// bit-identical to passes over the original). A read that fails
    /// mid-shard (a damaged spill) returns the source's
    /// [`EdgeSource::health`] error, never a shorter copy.
    pub fn from_source<S: EdgeSource + ?Sized>(source: &S) -> Result<Self, PassError> {
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
            source.for_each_batch_in_shard(shard, DEFAULT_BATCH, &mut |b| {
                soa.ids.extend_from_slice(b.ids);
                soa.u.extend_from_slice(b.u);
                soa.v.extend_from_slice(b.v);
                soa.w.extend_from_slice(b.w);
                true
            });
            soa.offsets.push(soa.ids.len());
        }
        source.health()?;
        Ok(soa)
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

    /// Partitions a graph's edges round-robin into `k` shards (clamped to
    /// `[1, num_edges.max(1)]`): edge `id` lands in shard `id % k` — a
    /// stand-in for data that arrived pre-sharded by an upstream system.
    pub fn round_robin(graph: &Graph, k: usize) -> Self {
        let k = k.clamp(1, graph.num_edges().max(1));
        let mut shards: Vec<Vec<(EdgeId, Edge)>> = vec![Vec::new(); k];
        for (id, e) in graph.edge_iter() {
            shards[id % k].push((id, e));
        }
        SoaShards::from_shards(graph.num_vertices(), shards)
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
        contiguous_shard(shard, self.num_shards, self.m)
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
}

impl fmt::Display for PassError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PassError::BudgetExceeded { resource, used, limit } => {
                write!(f, "pass interrupted: {resource} used {used} > limit {limit}")
            }
            PassError::Io { context } => write!(f, "pass I/O failure: {context}"),
        }
    }
}

impl std::error::Error for PassError {}

/// Executes sharded semi-streaming passes with resource accounting.
pub struct PassEngine {
    parallelism: usize,
    budget: PassBudget,
    batch: usize,
    tracker: ResourceTracker,
}

/// What the scheduler hands back: the per-shard accumulators in shard order,
/// the items visited, and whether the budget gate tripped.
type Run<A> = (Vec<A>, usize, bool);

/// The one budget gate of a pass. Every charged walk asks it at in-shard
/// offsets 0, batch, 2·batch, … and reports what it streamed since, so
/// item, slice and sequential passes interrupt at the same offsets — at one
/// worker with identical ledgers. The gate trips only when the limit is
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

    /// Folds one shard of an item pass into `acc` in chunks of `batch` items,
    /// asking the gate before each chunk. Returns the accumulator and the
    /// items folded.
    fn walk_items<T, A>(&self, items: &[T], mut acc: A, fold: impl Fn(&mut A, &T)) -> (A, usize) {
        let mut visited = 0usize;
        for chunk in items.chunks(self.batch) {
            if !self.admit() {
                break;
            }
            chunk.iter().for_each(|item| fold(&mut acc, item));
            visited += chunk.len();
            self.charge(chunk.len());
        }
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
    /// (clamped to at least 1) and no budget.
    pub fn new(parallelism: usize) -> Self {
        PassEngine {
            parallelism: parallelism.max(1),
            budget: PassBudget::default(),
            batch: DEFAULT_BATCH,
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
    /// It is [`PassEngine::pass_batches`] with a fold that takes each slice's
    /// edges one at a time, left to right.
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
        self.pass_batches(source, init, move |acc, b| {
            for i in 0..b.len() {
                fold(acc, b.ids[i], b.edge(i));
            }
        })
    }

    /// One charged pass over a slice of items that are not edges (a dynamic
    /// session's graph updates). The slice is split into
    /// [`auto_shard_count`]`(items.len())` contiguous shards — by length
    /// only, never by worker count — and each shard is folded into its own
    /// accumulator in slice order; the accumulators come back in shard
    /// order, bit-identical for any worker count. One round is charged plus
    /// every item visited, and the budget interrupts mid-shard exactly like
    /// an edge pass.
    pub fn pass_items<T, A, I, F>(
        &mut self,
        items: &[T],
        init: I,
        fold: F,
    ) -> Result<Vec<A>, PassError>
    where
        T: Sync,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, &T) + Sync,
    {
        let shards = auto_shard_count(items.len());
        self.charged("items", items.len(), shards, self.parallelism, |shard, gate| {
            let (lo, hi) = contiguous_shard(shard, shards, items.len());
            gate.walk_items(&items[lo..hi], init(shard), &fold)
        })
    }

    /// One charged pass over whole shard **slices**: the fold consumes
    /// [`EdgeBatch`] struct-of-arrays views of up to
    /// [`PassEngine::batch_size`] edges per call — the data-oriented hot
    /// path, with no per-edge virtual dispatch between the source and the
    /// fold.
    ///
    /// One round is charged plus the edges actually visited, with the budget
    /// gated before each slice, so an interrupt leaves the ledger at a slice
    /// boundary. A fold that processes its slice left to right sees the
    /// stream order, and the accumulators are bit-identical at any worker
    /// count.
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
        self.edge_pass("batches", source, self.parallelism, init, fold)
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
        self.edge_pass(
            "sequential",
            source,
            1,
            |_| (),
            |_, b| {
                let mut visit = visit.lock().expect("sequential visitor panicked");
                for i in 0..b.len() {
                    visit(b.ids[i], b.edge(i));
                }
            },
        )?;
        Ok(())
    }

    /// One charged slice walk over `source` on up to `workers` threads, then
    /// the source's health check: a read that failed mid-shard
    /// ([`EdgeSource::health`]) is reported ahead of a budget interrupt.
    fn edge_pass<S, A, I, F>(
        &mut self,
        kind: &'static str,
        source: &S,
        workers: usize,
        init: I,
        fold: F,
    ) -> Result<Vec<A>, PassError>
    where
        S: EdgeSource + ?Sized,
        A: Send,
        I: Fn(usize) -> A + Sync,
        F: Fn(&mut A, EdgeBatch<'_>) + Sync,
    {
        let run =
            self.charged(kind, source.num_edges(), source.num_shards(), workers, |shard, gate| {
                gate.walk_slices(source, shard, init(shard), &fold)
            });
        source.health()?;
        run
    }

    /// One charged pass over `items` items in `shards` shards: opens the
    /// `pass` span and schedules `walk` on up to `workers` threads under the
    /// engine's budget. Then it charges one round plus the items visited,
    /// records the pass, and surfaces an exhausted budget as a typed error.
    fn charged<A, W>(
        &mut self,
        kind: &'static str,
        items: usize,
        shards: usize,
        workers: usize,
        walk: W,
    ) -> Result<Vec<A>, PassError>
    where
        A: Send,
        W: Fn(usize, &Gate) -> (A, usize) + Sync,
    {
        let _span = mwm_obs::span!("pass", shards = shards);
        let gate =
            Gate::new(self.budget.max_items_streamed, self.tracker.items_streamed(), self.batch);
        let (accs, visited, exceeded) =
            self.schedule(items, shards, workers, &gate, |shard| walk(shard, &gate));
        self.tracker.charge_round();
        self.tracker.charge_stream(visited);
        Self::record_pass(kind, visited, exceeded);
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

    /// Records one pass into the global metrics registry. Write-only taps:
    /// nothing here feeds back into scheduling or accounting, so solver
    /// outputs are bit-identical with the registry enabled or disabled.
    fn record_pass(kind: &'static str, visited: usize, interrupted: bool) {
        match kind {
            "items" => mwm_obs::counter!("pass_total{kind=items}").inc(),
            "batches" => mwm_obs::counter!("pass_total{kind=batches}").inc(),
            _ => mwm_obs::counter!("pass_total{kind=sequential}").inc(),
        }
        mwm_obs::counter!("pass_edges_total").add(visited as u64);
        mwm_obs::histogram!("pass_edges", &mwm_obs::SIZE_BOUNDS).observe(visited as f64);
        if interrupted {
            mwm_obs::counter!("pass_budget_interrupts_total").inc();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use mwm_graph::GraphUpdate;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn graph(m: usize) -> Graph {
        let mut rng = StdRng::seed_from_u64(7);
        generators::gnm(64, m, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    type Row = (EdgeId, VertexId, VertexId, u64);

    fn row(id: EdgeId, e: Edge) -> Row {
        (id, e.u, e.v, e.w.to_bits())
    }

    /// The reference stream of a source whose shards are consecutive id
    /// ranges of lengths `shard_len`, built from `edge_at` alone — neither
    /// the engine nor the source's visitor takes part.
    fn contiguous_reference(
        src: &dyn EdgeSource,
        edge_at: impl Fn(EdgeId) -> Edge,
    ) -> Vec<Vec<Row>> {
        let mut lo = 0;
        (0..src.num_shards())
            .map(|shard| {
                let hi = lo + src.shard_len(shard);
                let rows = (lo..hi).map(|id| row(id, edge_at(id))).collect();
                lo = hi;
                rows
            })
            .collect()
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
    fn round_robin_shards_round_trip_the_graph() {
        let g = graph(600);
        let src = SoaShards::round_robin(&g, 5);
        assert_eq!(src.num_edges(), g.num_edges());
        assert_eq!(src.num_shards(), 5);
        let slice = src.shard_slice(1);
        assert!(slice.ids.iter().all(|&id| id % 5 == 1), "shard 1 holds ids 1, 6, 11, ...");
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
    fn item_passes_shard_by_length_and_merge_in_order() {
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
        assert!(updates.len() >= MIN_PARALLEL_ITEMS, "force real multi-worker runs");
        // Shard s holds the contiguous range of auto_shard_count's split, in
        // slice order: an order-sensitive fold over each range is the
        // reference.
        let shards = auto_shard_count(updates.len());
        let fold = |acc: &mut (usize, usize), u: &GraphUpdate| {
            acc.0 += 1;
            if let GraphUpdate::DeleteEdge { id } = *u {
                acc.1 = acc.1.rotate_left(5) ^ id;
            }
        };
        let reference: Vec<(usize, usize)> = (0..shards)
            .map(|shard| {
                let (lo, hi) =
                    (shard * updates.len() / shards, (shard + 1) * updates.len() / shards);
                let mut acc = (0, 0);
                updates[lo..hi].iter().for_each(|u| fold(&mut acc, u));
                acc
            })
            .collect();
        for workers in [1usize, 4] {
            let mut engine = PassEngine::new(workers);
            let accs = engine.pass_items(&updates, |_| (0usize, 0usize), fold).unwrap();
            assert_eq!(accs, reference, "workers={workers}");
            assert_eq!(engine.tracker().items_streamed(), updates.len());
            assert_eq!(engine.passes(), 1, "one update batch is one charged pass");
        }
    }

    #[test]
    fn item_pass_respects_the_stream_budget() {
        let updates: Vec<GraphUpdate> =
            (0..5_000).map(|i| GraphUpdate::DeleteEdge { id: i }).collect();
        let mut engine = PassEngine::new(2)
            .with_budget(PassBudget { max_items_streamed: Some(1_000) })
            .with_batch_size(32);
        let err = engine.pass_items(&updates, |_| 0usize, |acc, _| *acc += 1).unwrap_err();
        let PassError::BudgetExceeded { used, limit, .. } = err else {
            panic!("expected a budget interrupt, got {err:?}");
        };
        assert_eq!(limit, 1_000);
        assert_eq!(used, engine.tracker().items_streamed());
        // The gate trips at the first 32-item chunk boundary past the limit,
        // mid-way through the first of the two 2,500-item shards.
        assert_eq!(used, 1_024);
        assert_eq!(engine.passes(), 1, "the interrupted pass is still one round");
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

    #[test]
    fn soa_shards_match_their_source_exactly() {
        let g = graph(700);
        let src = GraphSource::new(&g, 6);
        let soa = SoaShards::from_source(&src).unwrap();
        assert_eq!(soa.num_vertices(), src.num_vertices());
        assert_eq!(soa.num_edges(), src.num_edges());
        assert_eq!(soa.num_shards(), src.num_shards());
        let expected = contiguous_reference(&src, |id| g.edge(id));
        for (shard, expected) in expected.iter().enumerate() {
            let slice = soa.shard_slice(shard);
            let got: Vec<Row> =
                (0..slice.len()).map(|i| row(slice.ids[i], slice.edge(i))).collect();
            assert_eq!(&got, expected, "shard {shard}");
        }
    }

    #[test]
    fn batch_walks_deliver_the_reference_stream() {
        // Every source's batch walk must deliver its stream exactly — taken
        // from `Graph::edge_iter` order or `SyntheticStream::edge_at`, not
        // from any visitor — in full slices of the requested cap but the
        // last, with no further slice after an early stop.
        let g = graph(900);
        let soa = SoaShards::from_source(&GraphSource::new(&g, 5)).unwrap();
        let synthetic = SyntheticStream::with_shards(80, 900, 11, 5);
        let contiguous = GraphSource::new(&g, 5);
        let round_robin = SoaShards::round_robin(&g, 5);
        let mut dealt: Vec<Vec<Row>> = vec![Vec::new(); 5];
        for (id, e) in g.edge_iter() {
            dealt[id % 5].push(row(id, e));
        }
        let sources: [(&dyn EdgeSource, Vec<Vec<Row>>); 4] = [
            (&contiguous, contiguous_reference(&contiguous, |id| g.edge(id))),
            (&round_robin, dealt),
            (&synthetic, contiguous_reference(&synthetic, |id| synthetic.edge_at(id))),
            (&soa, contiguous_reference(&soa, |id| g.edge(id))),
        ];
        for (si, (src, reference)) in sources.iter().enumerate() {
            assert_eq!(src.num_shards(), reference.len(), "source {si}");
            for (shard, expected) in reference.iter().enumerate() {
                let mut batched: Vec<Row> = Vec::new();
                let mut lens = Vec::new();
                src.for_each_batch_in_shard(shard, 17, &mut |b| {
                    lens.push(b.len());
                    batched.extend((0..b.len()).map(|i| row(b.ids[i], b.edge(i))));
                    true
                });
                assert_eq!(&batched, expected, "source {si} shard {shard}");
                if let Some((last, full)) = lens.split_last() {
                    assert!(full.iter().all(|&l| l == 17), "source {si} shard {shard}");
                    assert!((1..=17).contains(last), "source {si} shard {shard}");
                }
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
    fn per_edge_and_batch_passes_fold_the_reference_bits() {
        // An order-sensitive fold (the multiplier-update shape) must produce
        // the bits of a fold over each shard's id range straight from
        // `edge_at`, through the per-edge and the slice pass, at every
        // worker count.
        let src = SyntheticStream::with_shards(500, 50_000, 21, 8);
        let step = |acc: f64, id: EdgeId, w: f64| 0.5 * acc + (w + (id % 13) as f64).sqrt();
        let expected: Vec<u64> = contiguous_reference(&src, |id| src.edge_at(id))
            .iter()
            .map(|rows| rows.iter().fold(0.0, |acc, r| step(acc, r.0, f64::from_bits(r.3))))
            .map(f64::to_bits)
            .collect();
        let bits = |accs: Vec<f64>| accs.iter().map(|s| s.to_bits()).collect::<Vec<u64>>();
        for workers in [1usize, 2, 4, 8] {
            let mut engine = PassEngine::new(workers);
            let per_edge =
                engine.pass_shards(&src, |_| 0.0f64, |acc, id, e| *acc = step(*acc, id, e.w));
            assert_eq!(bits(per_edge.unwrap()), expected, "per-edge, workers={workers}");
            let batches = engine.pass_batches(
                &src,
                |_| 0.0f64,
                |acc, b| {
                    for i in 0..b.len() {
                        *acc = step(*acc, b.ids[i], b.weight(i));
                    }
                },
            );
            assert_eq!(bits(batches.unwrap()), expected, "batch, workers={workers}");
            assert_eq!(engine.tracker().items_streamed(), 2 * src.num_edges());
            assert_eq!(engine.passes(), 2);
        }
    }

    #[test]
    fn batch_budget_interrupt_charges_the_per_edge_ledger() {
        // With one worker every walk asks the one gate at the same in-shard
        // offsets, so the interrupted ledgers of all three charged passes
        // must be *equal*, not merely all valid — mid-batch, on a batch
        // boundary, and at the 12,500-edge shard boundary.
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
