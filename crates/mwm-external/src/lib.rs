//! `mwm-external`: out-of-core edge storage and multi-process shard
//! execution.
//!
//! Two capabilities, composable but independent:
//!
//! * **Spilled shards** ([`spill`]): any `EdgeSource` can be written to disk
//!   in a compact fixed-width binary format (one file per shard, see
//!   `mwm_graph::wire`) and streamed back batch-at-a-time through the
//!   `PassEngine` — so streams far larger than memory run under a fixed
//!   resident ceiling, with readback buffers charged to the resource ledger.
//! * **Process pool** ([`process`]): a shared-nothing executor spawning
//!   worker processes over pipes. Each worker owns a deterministic subset of
//!   the spilled shards and runs the registered pass kernel (see [`kernels`]:
//!   E14's local matching) locally; the coordinator merges accumulators in
//!   shard-index order, preserving the engine's
//!   bit-identical-across-parallelism guarantee. Worker death and protocol
//!   violations surface as typed `PassError`s, with optional clean fallback
//!   to in-process execution. A spill that fails mid-read surfaces as a
//!   typed error on either side of the process boundary.
//!
//! [`distributed::out_of_core_matching`] combines both into the E14 solve: a
//! per-shard local matching merged at the coordinator, bit-identical at every
//! worker count.
//!
//! ```no_run
//! use mwm_external::prelude::*;
//! use mwm_mapreduce::{PassEngine, SyntheticStream};
//!
//! let stream = SyntheticStream::with_shards(1 << 16, 1 << 20, 42, 64);
//! let spilled = SpillWriter::spill_edge_source("/tmp/spill", &stream)?;
//! let mut engine = PassEngine::new(2)
//!     .with_execution_mode(ProcessPool::new(4).into_execution_mode(true));
//! let matching = out_of_core_matching(&mut engine, &spilled, 0.05)?;
//! println!("weight {} checksum {:016x}", matching.weight, matching.checksum());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod distributed;
pub mod kernels;
pub mod process;
pub mod spill;

pub use distributed::{out_of_core_matching, OutOfCoreMatching};
pub use kernels::{run_registered_kernel, LocalMatchingKernel, ReplacementMatcher, ShardRun};
pub use process::{discover_worker_binary, ProcessPool, WORKER_BIN_NAME, WORKER_ENV};
pub use spill::{SpillError, SpillWriter, SpilledShards};

/// Convenience re-exports for downstream code.
pub mod prelude {
    pub use crate::distributed::{out_of_core_matching, OutOfCoreMatching};
    pub use crate::kernels::LocalMatchingKernel;
    pub use crate::process::ProcessPool;
    pub use crate::spill::{SpillError, SpillWriter, SpilledShards};
}
