//! Out-of-core matching: spill a synthetic edge stream to disk, then solve it
//! by reading the shard files back, without ever materializing the graph.
//!
//! Demonstrates the `mwm-external` subsystem end to end:
//! 1. `SpillWriter` converts any `EdgeSource` into per-shard binary files.
//! 2. `SpilledShards` streams them back batch-at-a-time through the
//!    `PassEngine`; the resource ledger records the bounded readback window.
//! 3. The spilled solve is bit-identical to the in-memory run (the example
//!    checks it).
//!
//! ```bash
//! cargo run --release --example out_of_core
//! ```

use dual_primal_matching::engine::ResourceBudget;
use dual_primal_matching::external::{out_of_core_matching, SpillWriter};
use dual_primal_matching::mapreduce::{EdgeSource, PassEngine, SyntheticStream};

fn main() {
    // A 2^20-edge synthetic stream, pre-sharded 32 ways. Never collected
    // into a Graph: both spilling and solving stream it edge-by-edge.
    let stream = SyntheticStream::with_shards(2_000, 1 << 20, 42, 32);
    println!(
        "stream: {} edges, {} vertices, {} shards",
        stream.num_edges(),
        stream.num_vertices(),
        stream.num_shards()
    );

    // --- 1. In-memory reference (the bit pattern the spilled run must hit) ---
    let mut engine = PassEngine::new(2);
    let reference =
        out_of_core_matching(&mut engine, &stream, 0.05).expect("in-memory pass cannot fail");
    println!(
        "in-memory : weight {:.2}, {} edges matched, checksum {:016x}",
        reference.weight,
        reference.edges.len(),
        reference.checksum()
    );

    // --- 2. Spill to disk ---
    let dir = std::env::temp_dir().join(format!("mwm-example-spill-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spilled = SpillWriter::spill_edge_source(&dir, &stream).expect("spill");
    println!(
        "spilled   : {:.1} MiB across {} shard files in {}",
        spilled.bytes_on_disk() as f64 / (1 << 20) as f64,
        spilled.num_shards(),
        dir.display()
    );

    // --- 3. Read back under a resident-edge budget ---
    // The ceiling is ~6% of the stream: the readback buffers plus the
    // candidate working set must fit, and the ledger proves they did.
    let budget = ResourceBudget::unlimited().with_max_central_space(1 << 16);
    let mut engine = PassEngine::new(2).with_budget(budget.pass_budget(0));
    let disk = out_of_core_matching(&mut engine, &spilled, 0.05).expect("spilled pass");
    spilled.charge_io(engine.tracker_mut());
    budget.check_tracker(engine.tracker()).expect("stayed within the resident budget");
    println!(
        "spilled   : checksum {:016x} ({}), peak resident {} edges of {} budgeted",
        disk.checksum(),
        if disk.checksum() == reference.checksum() { "identical" } else { "DIVERGED" },
        engine.tracker().peak_central_space(),
        1 << 16
    );
    assert_eq!(disk.checksum(), reference.checksum());

    let _ = std::fs::remove_dir_all(&dir);
}
