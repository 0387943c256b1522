//! Resource-constrained execution substrates.
//!
//! The paper's model charges an algorithm for (a) the number of *rounds* of
//! access to the read-only edge list (MapReduce rounds / streaming passes /
//! rounds of adaptive sketching), (b) the *central space* it keeps between
//! rounds (which must be `O(n^{1+1/p})`, sublinear in `m`), and (c) in the
//! congested-clique reading, the per-vertex message volume. Nothing here needs
//! real cluster hardware — the simulators execute the computation locally while
//! *accounting* for those resources exactly, which is what experiments
//! E1/E4/E5/E9 report.
//!
//! * [`resources`] — the [`ResourceTracker`] ledger shared by all simulators.
//! * [`mapreduce`] — a generic map→shuffle→reduce round executor (with
//!   parallel reducers) plus the edge-sampling and sketching primitives the
//!   matching algorithms actually use, each charged as one round.
//! * [`pass_engine`] — the sharded multi-threaded [`PassEngine`] executing
//!   semi-streaming passes over [`EdgeSource`] streams (and, through the
//!   item-generic [`ItemSource`], over [`UpdateSource`] update batches) with
//!   deterministic (shard-order) merges and mid-pass budget enforcement. Its
//!   [`ExecutionMode`] decides where [`PassEngine::pass_kernel`] runs a named
//!   [`PassKernel`]: in this process, or on an external [`ShardExecutor`]
//!   (worker processes over spilled shards).
//! * [`congested_clique`] — per-vertex message accounting (Section 1's
//!   `O(n^{1/p})`-message-per-vertex corollary).
//!
//! The deprecated single-threaded `StreamingSim` wrapper completed its
//! deprecation cycle and was removed; use [`PassEngine::pass_sequential`]
//! over a `GraphSource::new(&graph, 1)` (see the README migration note).

pub mod congested_clique;
pub mod mapreduce;
pub mod pass_engine;
pub mod resources;

pub use congested_clique::CongestedCliqueSim;
pub use mapreduce::{MapReduceConfig, MapReduceSim};
pub use pass_engine::{
    auto_shard_count, EdgeBatch, EdgeSource, ExecutionMode, GraphSource, ItemSource, PassBudget,
    PassEngine, PassError, PassKernel, ShardExecutor, ShardOutcome, ShardedEdgeList, SoaBatch,
    SoaShards, SyntheticStream, UpdateSource,
};
pub use resources::{ResourceTracker, TrackerCounters};
