//! Experiment runner: regenerates the tables of experiments E1–E15.
//!
//! Usage:
//! ```text
//! cargo run --release -p mwm-bench --bin experiments -- --exp all
//! cargo run --release -p mwm-bench --bin experiments -- --exp e3
//! cargo run --release -p mwm-bench --bin experiments -- --exp e11,e15 --json out.json
//! ```
//!
//! `--exp` takes a single id, a comma-separated list, or `all`; `--json`
//! additionally writes every report as a flat machine-readable metrics file
//! (see `mwm_bench::json`) for the CI regression comparison. `--obs-dump`
//! enables the global metrics registry (and the recording span subscriber)
//! for the run and prints its text rendering after the tables — the same
//! counters a served deployment exposes through the `Metrics` wire request.
//!
//! Exit codes: 0 on success, 1 when an experiment fails, 2 on bad arguments
//! or an unknown experiment id.

use mwm_bench::{json, ExperimentReport};
use mwm_core::MwmError;
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut exp = "all".to_string();
    let mut json_path: Option<PathBuf> = None;
    let mut obs_dump = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--obs-dump" => {
                obs_dump = true;
            }
            "--exp" => {
                if i + 1 < args.len() {
                    exp = args[i + 1].clone();
                    i += 1;
                } else {
                    eprintln!("--exp requires a value (e1..e15, a comma list, or all)");
                    std::process::exit(2);
                }
            }
            "--json" => {
                if i + 1 < args.len() {
                    json_path = Some(PathBuf::from(&args[i + 1]));
                    i += 1;
                } else {
                    eprintln!("--json requires an output path");
                    std::process::exit(2);
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: experiments [--exp e1..e15|e1,e2,...|all] [--json <path>] [--obs-dump]"
                );
                return;
            }
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if obs_dump {
        mwm_obs::set_enabled(true);
        mwm_obs::install_recording_subscriber();
    }

    let mut reports: Vec<ExperimentReport> = Vec::new();
    for id in exp.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match mwm_bench::run_experiment(id) {
            Ok(batch) => reports.extend(batch),
            Err(err @ MwmError::UnknownExperiment { .. }) => {
                eprintln!("{err}");
                std::process::exit(2);
            }
            Err(err) => {
                eprintln!("experiment {id} failed: {err}");
                std::process::exit(1);
            }
        }
    }
    if reports.is_empty() {
        eprintln!("--exp selected no experiments");
        std::process::exit(2);
    }

    for report in &reports {
        for line in report.render() {
            println!("{line}");
        }
        println!();
    }
    if let Some(path) = json_path {
        if let Err(err) = json::write_json(&path, &reports) {
            eprintln!("failed to write {}: {err}", path.display());
            std::process::exit(1);
        }
        println!("wrote {} metrics to {}", json::metrics_for(&reports).len(), path.display());
    }
    if obs_dump {
        println!("== observability dump ==");
        print!("{}", mwm_obs::snapshot().render_text());
    }
}
