//! Cut sparsification, including the *deferred* sparsifiers of the paper.
//!
//! A `(1±ξ)` cut sparsifier of a weighted graph `G` is a reweighted subgraph
//! `H` such that every cut of `H` is within `(1±ξ)` of the corresponding cut
//! of `G` (Benczúr–Karger). The paper needs three flavours:
//!
//! * A classical weighted sparsifier built offline ([`benczur_karger`]), using
//!   connectivity estimates from a Nagamochi–Ibaraki forest decomposition of
//!   each weight class's edges ([`connectivity`]).
//! * The semi-streaming construction of Algorithm 6 ([`streaming`]), based on
//!   geometric subsampling plus `k` union-find structures per level, with the
//!   seeded pairwise-independent hashes of [`hashing`] picking each edge's
//!   subsampling level.
//! * The **deferred** sparsifier of Definition 4 / Lemma 17 ([`deferred`]):
//!   sampling decisions are made from *promise* weights `ς` (oversampled by
//!   `χ²`), and only afterwards are the true weights `u` of the stored edges
//!   revealed; this is what lets the dual-primal algorithm perform
//!   `O(ε^{-1} log γ)` multiplier updates per single round of data access.
//!
//! [`quality`] contains the measurement utilities used by experiment E6.

pub mod benczur_karger;
pub mod connectivity;
pub mod deferred;
pub mod hashing;
pub mod quality;
pub mod streaming;

pub use benczur_karger::{sparsify, SparsifiedGraph, SparsifierConfig};
pub use deferred::{DeferredSparsifier, PromisedEdge};
pub use quality::{cut_quality_report, CutQualityReport};
pub use streaming::streaming_sparsify;
