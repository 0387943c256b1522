//! CI regression gate: compares a fresh `experiments --json` run against a
//! committed baseline (`BENCH_*.json`).
//!
//! Usage:
//! ```text
//! bench_compare <baseline.json> <current.json> [--tolerance 3.0]
//! ```
//!
//! Two kinds of metric are compared:
//! - **checksums** (`*.checksum` keys, quoted hex strings) must match
//!   exactly, row by row: a checksum that moves fails the gate whatever the
//!   tolerance, because it means an output bit moved. A change that moves one
//!   on purpose records a new baseline with the CI step's command;
//! - **performance metrics**, by key suffix: higher-is-better
//!   (`medges_per_s`, `epochs_per_s`, `req_per_s`, `speedup`) fail when
//!   `current < baseline / tolerance`; lower-is-better (`p50_ms`, `p99_ms`)
//!   fail when `current > baseline * tolerance`. Other numbers (weights,
//!   counts, sizes) are not compared.
//!
//! Rows of one experiment are **aggregated before comparing** (best row
//! wins: max for higher-is-better, min for lower-is-better). Individual
//! rows measure worker-count scaling on whatever cores CI happens to have,
//! and a single loaded row swings 3x run-to-run even on identical hardware;
//! the best-row aggregate is the stable signal ("this machine can still
//! reach X") and is also scale-tolerant when smoke runs shrink a workload.
//!
//! The wide default tolerance (3x) absorbs the noise of shared CI runners and
//! baselines recorded on different hosts or workload scales; the gate exists
//! to catch order-of-magnitude regressions, not percent-level drift. Metrics
//! and checksums present in only one file are reported but never fail the
//! gate (experiments come and go across PRs). A **missing baseline file is a
//! clean skip**
//! (exit 0) so the first PR that introduces the JSON artifact passes.
//!
//! Exit codes: 0 pass/skip, 1 regression found, 2 bad arguments or an
//! unreadable current file.

use std::collections::BTreeMap;
use std::path::Path;

/// Metric suffixes where larger values are better.
const HIGHER_BETTER: &[&str] = &["medges_per_s", "epochs_per_s", "req_per_s", "speedup"];
/// Metric suffixes where smaller values are better.
const LOWER_BETTER: &[&str] = &["p50_ms", "p99_ms"];

/// Scans the one-metric-per-line JSON emitted by `experiments --json`,
/// returning the numeric metrics and the checksums (`*.checksum` keys, quotes
/// stripped). Other quoted values (labels, yes/no flags) are skipped.
fn scan_metrics(text: &str) -> (BTreeMap<String, f64>, BTreeMap<String, String>) {
    let mut numbers = BTreeMap::new();
    let mut checksums = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((key, value)) = rest.split_once("\": ") else { continue };
        // Only metric keys (experiment.row.column) — skip "schema" etc.
        if !key.contains('.') {
            continue;
        }
        let value = value.trim_end_matches(',').trim();
        if let Some(quoted) = value.strip_prefix('"') {
            if key.ends_with(".checksum") {
                checksums.insert(key.to_string(), quoted.trim_end_matches('"').to_string());
            }
        } else if let Ok(v) = value.parse::<f64>() {
            if v.is_finite() {
                numbers.insert(key.to_string(), v);
            }
        }
    }
    (numbers, checksums)
}

/// Compares the checksums of two runs: returns one `key: old -> new` line per
/// key present in both whose value differs, and the number of keys present
/// in only one of them.
fn compare_checksums(
    baseline: &BTreeMap<String, String>,
    current: &BTreeMap<String, String>,
) -> (Vec<String>, usize) {
    let mut moved = Vec::new();
    let mut one_sided = current.keys().filter(|key| !baseline.contains_key(*key)).count();
    for (key, old) in baseline {
        match current.get(key) {
            Some(new) if new != old => moved.push(format!("  {key}: {old} -> {new}")),
            Some(_) => {}
            None => one_sided += 1,
        }
    }
    (moved, one_sided)
}

/// Classifies a metric key by its final segment. `None` means "not a
/// performance metric; do not compare".
fn direction(key: &str) -> Option<bool> {
    let suffix = key.rsplit('.').next().unwrap_or(key);
    if HIGHER_BETTER.contains(&suffix) {
        Some(true)
    } else if LOWER_BETTER.contains(&suffix) {
        Some(false)
    } else {
        None
    }
}

/// Collapses `experiment.rN.column` rows into per-`experiment.column`
/// best-row aggregates for the performance metrics.
fn aggregate(metrics: &BTreeMap<String, f64>) -> BTreeMap<String, (bool, f64)> {
    let mut out: BTreeMap<String, (bool, f64)> = BTreeMap::new();
    for (key, &value) in metrics {
        let Some(higher_better) = direction(key) else { continue };
        let mut parts = key.split('.');
        let (Some(exp), Some(_row), Some(col)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let agg_key = format!("{exp}.{col}");
        out.entry(agg_key)
            .and_modify(|(_, best)| {
                *best = if higher_better { best.max(value) } else { best.min(value) };
            })
            .or_insert((higher_better, value));
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut positional: Vec<&str> = Vec::new();
    let mut tolerance = 3.0f64;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                let Some(v) = args.get(i + 1).and_then(|s| s.parse::<f64>().ok()) else {
                    eprintln!("--tolerance requires a number > 1");
                    std::process::exit(2);
                };
                if !(v > 1.0 && v.is_finite()) {
                    eprintln!("--tolerance must be a finite number > 1, got {v}");
                    std::process::exit(2);
                }
                tolerance = v;
                i += 1;
            }
            "--help" | "-h" => {
                println!("usage: bench_compare <baseline.json> <current.json> [--tolerance 3.0]");
                return;
            }
            other => positional.push(other),
        }
        i += 1;
    }
    let [baseline_path, current_path] = positional[..] else {
        eprintln!("usage: bench_compare <baseline.json> <current.json> [--tolerance 3.0]");
        std::process::exit(2);
    };

    let baseline_text = match std::fs::read_to_string(Path::new(baseline_path)) {
        Ok(t) => t,
        Err(_) => {
            println!("no baseline at {baseline_path}: skipping comparison (first run)");
            return;
        }
    };
    let current_text = match std::fs::read_to_string(Path::new(current_path)) {
        Ok(t) => t,
        Err(err) => {
            eprintln!("cannot read current metrics {current_path}: {err}");
            std::process::exit(2);
        }
    };

    let (baseline_numbers, baseline_checksums) = scan_metrics(&baseline_text);
    let (current_numbers, current_checksums) = scan_metrics(&current_text);
    let (moved, checksums_one_sided) = compare_checksums(&baseline_checksums, &current_checksums);
    let shared = baseline_checksums.keys().filter(|k| current_checksums.contains_key(*k)).count();
    println!(
        "compared {shared} checksums against {baseline_path} ({checksums_one_sided} present on \
         one side only)"
    );
    let baseline = aggregate(&baseline_numbers);
    let current = aggregate(&current_numbers);
    let mut compared = 0usize;
    let mut only_one_side = 0usize;
    let mut regressions: Vec<String> = Vec::new();
    for (key, &(higher_better, old)) in &baseline {
        let Some(&(_, new)) = current.get(key) else {
            only_one_side += 1;
            continue;
        };
        compared += 1;
        let failed = if higher_better {
            new < old / tolerance && old > 0.0
        } else {
            new > old * tolerance && new > 0.0
        };
        if failed {
            let kind = if higher_better { "dropped" } else { "rose" };
            regressions.push(format!("  {key}: {kind} beyond {tolerance}x ({old:.3} -> {new:.3})"));
        }
    }
    for key in current.keys() {
        if !baseline.contains_key(key) {
            only_one_side += 1;
        }
    }

    println!(
        "compared {compared} aggregated performance metrics against {baseline_path} \
         (tolerance {tolerance}x, {only_one_side} present on one side only)"
    );
    if !moved.is_empty() {
        eprintln!("{} checksum(s) moved (baseline -> current):", moved.len());
        for m in &moved {
            eprintln!("{m}");
        }
        eprintln!(
            "an output bit moved; if the move is intended, record a new baseline \
             (BENCH_<n>.json) with the CI step's command"
        );
    }
    if regressions.is_empty() {
        println!("no regressions beyond tolerance");
    } else {
        eprintln!("{} metric(s) regressed beyond {tolerance}x:", regressions.len());
        for r in &regressions {
            eprintln!("{r}");
        }
    }
    if !moved.is_empty() || !regressions.is_empty() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "schema": "mwm-bench-v1",
  "metrics": {
    "e12.r0.epochs_per_s": 80.5,
    "e12.r0.checksum": "dbb8a2dfb0553bfa",
    "e12.r1.checksum": "dbb8a2dfb0553bfa",
    "e13.r0.label": "window",
    "e13.r0.checksum": "1f8e65950393560c"
  }
}"#;

    fn checksums(text: &str) -> BTreeMap<String, String> {
        scan_metrics(text).1
    }

    #[test]
    fn scan_separates_numbers_checksums_and_labels() {
        let (numbers, sums) = scan_metrics(BASELINE);
        assert_eq!(numbers.len(), 1);
        assert_eq!(numbers["e12.r0.epochs_per_s"], 80.5);
        assert_eq!(sums.len(), 3, "the label is neither a number nor a checksum");
        assert_eq!(sums["e13.r0.checksum"], "1f8e65950393560c");
    }

    #[test]
    fn equal_checksums_pass() {
        let base = checksums(BASELINE);
        let current = checksums(&BASELINE.replace("80.5", "12.0"));
        assert_eq!(compare_checksums(&base, &current), (Vec::new(), 0));
    }

    #[test]
    fn a_moved_checksum_is_reported_old_to_new() {
        let base = checksums(BASELINE);
        let text = BASELINE.replace(
            "\"e12.r1.checksum\": \"dbb8a2dfb0553bfa\"",
            "\"e12.r1.checksum\": \"0123456789abcdef\"",
        );
        let (moved, one_sided) = compare_checksums(&base, &checksums(&text));
        assert_eq!(moved, vec!["  e12.r1.checksum: dbb8a2dfb0553bfa -> 0123456789abcdef"]);
        assert_eq!(one_sided, 0);
    }

    #[test]
    fn one_sided_checksums_are_counted_but_do_not_fail() {
        let base = checksums(BASELINE);
        let mut current = base.clone();
        current.remove("e13.r0.checksum");
        current.insert("e16.r0.checksum".to_string(), "9f6cf52cae9f1678".to_string());
        let (moved, one_sided) = compare_checksums(&base, &current);
        assert!(moved.is_empty());
        assert_eq!(one_sided, 2);
    }
}
