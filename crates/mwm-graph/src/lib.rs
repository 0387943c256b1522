//! Graph substrate for the dual-primal matching reproduction.
//!
//! This crate provides the data model every other crate builds on:
//!
//! * [`Graph`]: a weighted undirected multigraph with per-vertex capacities `b_i`
//!   (the b-matching capacities of LP1 in the paper).
//! * [`generators`]: synthetic workload generators (Erdős–Rényi, power-law,
//!   geometric, bipartite, the paper's triangle gadget, ...).
//! * [`levels`]: the weight discretization of Definitions 2–3 (`ŵ_k = (1+ε)^k`):
//!   the one class table, [`WeightClasses`], and the level counts of a graph,
//!   [`WeightLevels`].
//! * [`matching`]: (b-)matching containers with feasibility checks and weights.
//! * [`union_find`]: a union-find used by sparsifiers and connectivity.
//! * [`overlay`]: the [`GraphOverlay`] of live edges under stable ids + the
//!   [`GraphUpdate`] delta layer the dynamic matching subsystem edits between
//!   epochs.
//! * [`wire`]: the fixed-width `(EdgeId, Edge)` record codec of the
//!   out-of-core spill format, and the length-prefixed frame codec of the
//!   persistence and serving wire formats.

pub mod generators;
pub mod graph;
pub mod levels;
pub mod matching;
pub mod overlay;
pub mod union_find;
pub mod wire;

pub use graph::{Edge, EdgeId, Graph, VertexId};
pub use levels::{WeightClasses, WeightLevels};
pub use matching::{BMatching, Matching};
pub use overlay::{AppliedUpdate, GraphOverlay, GraphUpdate, OverlayState, UpdateError};
pub use union_find::UnionFind;
pub use wire::{read_frame, write_frame, MAX_FRAME_BYTES};
