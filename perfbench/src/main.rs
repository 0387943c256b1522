//! One workload of the repository benchmark, in one process.
//!
//! ```text
//! perfbench --workload <solve_dense|stream_window|serve_window>
//!           --seed <u64> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints informational lines, then one JSON line with `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 1` installs the span
//! recorder, adds the per-layer metrics and writes every span to
//! `.perfbench/trace-<workload>-seed<seed>.tsv`. `run.py` drives this binary
//! and selects the metrics `BENCHMARK.json` declares.

mod common;
mod layers;
mod serve_window;
mod solve_dense;
mod stream_window;
mod trace;

use common::{Args, Outcome};
use std::path::Path;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace && !trace::install() {
        eprintln!("perfbench: a span subscriber is already installed");
        std::process::exit(1);
    }
    let result: Result<Outcome, String> = match args.workload.as_str() {
        "solve_dense" => solve_dense::run(&args),
        "stream_window" => stream_window::run(&args),
        "serve_window" => serve_window::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    if args.trace {
        let spans = trace::spans();
        let path = Path::new(common::OUT_DIR)
            .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        match trace::dump(&path, &spans) {
            Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
    }
    println!("{}", outcome.to_json());
}
