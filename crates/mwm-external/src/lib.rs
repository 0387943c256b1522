//! `mwm-external`: out-of-core edge storage and the out-of-core matching
//! pass.
//!
//! * **Spilled shards** ([`spill`]): any `EdgeSource` can be written to disk
//!   in a compact fixed-width binary format (one file per shard, see
//!   `mwm_graph::wire`) and streamed back batch-at-a-time through the
//!   `PassEngine` — so streams far larger than memory run under a fixed
//!   resident ceiling, with readback buffers charged to the resource ledger.
//!   A spill that fails mid-read surfaces as a typed `PassError::Io` after
//!   the pass.
//! * **The out-of-core solve** ([`distributed`]): E14's two-level greedy, one
//!   `pass_shards` fold whose per-shard accumulator is a
//!   [`ReplacementMatcher`], merged at the coordinator in shard order —
//!   bit-identical at every engine parallelism and between the in-memory and
//!   the spilled form of a stream.
//!
//! ```no_run
//! use mwm_external::prelude::*;
//! use mwm_mapreduce::{PassEngine, SyntheticStream};
//!
//! let stream = SyntheticStream::with_shards(1 << 16, 1 << 20, 42, 64);
//! let spilled = SpillWriter::spill_edge_source("/tmp/spill", &stream)?;
//! let mut engine = PassEngine::new(2);
//! let matching = out_of_core_matching(&mut engine, &spilled, 0.05)?;
//! println!("weight {} checksum {:016x}", matching.weight, matching.checksum());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod distributed;
pub mod spill;

pub use distributed::{out_of_core_matching, OutOfCoreMatching, ReplacementMatcher};
pub use spill::{SpillError, SpillWriter, SpilledShards};

/// Convenience re-exports for downstream code.
pub mod prelude {
    pub use crate::distributed::{out_of_core_matching, OutOfCoreMatching};
    pub use crate::spill::{SpillError, SpillWriter, SpilledShards};
}
