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
//! * [`resources`] — the [`ResourceTracker`] ledger: one per run, charged
//!   for every pass, sampling round and central-space allocation, plus the
//!   model's central-space budget [`central_space_budget`] (`4·n^{1+1/p}`)
//!   and its check.
//! * [`pass_engine`] — the sharded multi-threaded [`PassEngine`] executing
//!   semi-streaming passes over [`EdgeSource`] streams, each shard read as
//!   [`EdgeBatch`] slices (and, through [`PassEngine::pass_items`], over plain
//!   slices of update batches) with deterministic (shard-order) merges and
//!   mid-pass budget enforcement. Every pass runs in this process, on up to
//!   [`PassEngine::parallelism`] threads.
//! * [`congested_clique`] — per-vertex message accounting (Section 1's
//!   `O(n^{1/p})`-message-per-vertex corollary).
//!
//! The deprecated single-threaded `StreamingSim` wrapper completed its
//! deprecation cycle and was removed; use [`PassEngine::pass_sequential`]
//! over a `GraphSource::new(&graph, 1)` (see the README migration note).

pub mod congested_clique;
pub mod pass_engine;
pub mod resources;

pub use congested_clique::CongestedCliqueSim;
pub use pass_engine::{
    auto_shard_count, EdgeBatch, EdgeSource, GraphSource, PassBudget, PassEngine, PassError,
    SoaBatch, SoaShards, SyntheticStream,
};
pub use resources::{central_space_budget, ResourceTracker, TrackerCounters};
