//! Shared plumbing: arguments, run outcome, statistics, sessions' ground
//! truth, peak memory and the per-run scratch directory.

use mwm_core::certify_b_matching;
use mwm_graph::{BMatching, Graph, GraphOverlay, GraphUpdate};
use mwm_matching::bounds::b_matching_weight_upper_bound;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Directory (relative to the working directory, the checkout root) that
/// holds per-run scratch stores and the span dumps of traced runs.
pub const OUT_DIR: &str = ".perfbench";

/// Each workload repeats its set-up at least `SETUP_REPS.0` times, and
/// keeps repeating (up to `SETUP_REPS.1`) while the repetitions so far took
/// under [`SETUP_BUDGET_S`]; `setup_s` is the median.
pub const SETUP_REPS: (usize, usize) = (3, 9);
pub const SETUP_BUDGET_S: f64 = 1.0;

/// Command-line arguments of one run.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }

    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// What one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed correctness checks.
    pub violations: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a failed op or a failed check (which counts as a failed op).
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        self.violations += 1;
        if self.violations <= 20 {
            eprintln!("check failed: {what}");
        }
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v)| {
                // An empty sample has no quantile: `null`, read as not applicable.
                let v = if v.is_finite() { format!("{v:?}") } else { "null".to_string() };
                format!("\"{name}\": {v}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.violations == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// SplitMix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Linear-interpolated quantile of an unsorted sample (NaN when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `setup` several times (see [`SETUP_REPS`]), dropping each result
/// before the next attempt, and returns the last result with the median
/// set-up time.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let (min_reps, max_reps) = SETUP_REPS;
    let mut times: Vec<f64> = Vec::with_capacity(max_reps);
    let mut last = None;
    while times.len() < min_reps
        || (times.len() < max_reps && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let clock = Instant::now();
        last = Some(setup()?);
        times.push(clock.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), quantile(&times, 0.5)))
}

/// `VmHWM` of this process in MiB (the peak resident set).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fingerprint of a session's final state: weight bits folded with the
/// matching's (stable id, multiplicity) pairs, as experiments E13 and E15
/// fold them.
pub fn session_checksum(weight: f64, matching: &BMatching) -> u64 {
    let mut checksum = weight.to_bits();
    for (id, _, mult) in matching.iter() {
        checksum = checksum.rotate_left(7) ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ mult;
    }
    checksum
}

/// Replays `batches` on `initial` without any matching work: the ground
/// truth a session's answer is checked against.
pub fn replay_overlay(initial: &Graph, batches: &[Vec<GraphUpdate>]) -> GraphOverlay {
    let mut overlay = GraphOverlay::new(initial);
    for batch in batches {
        for update in batch {
            // Generated streams only reference live ids; a rejected update
            // is rejected identically by the session under test.
            let _ = overlay.apply(update);
        }
    }
    overlay
}

/// The certified upper bound (`certify_b_matching`'s) of the live graph
/// after each of `batches[from..to]`, replayed on top of `batches[..from]`.
pub fn epoch_bounds(
    initial: &Graph,
    batches: &[Vec<GraphUpdate>],
    from: usize,
    to: usize,
) -> Vec<f64> {
    let mut overlay = replay_overlay(initial, &batches[..from]);
    batches[from..to]
        .iter()
        .map(|batch| {
            for update in batch {
                let _ = overlay.apply(update);
            }
            b_matching_weight_upper_bound(&overlay.materialize().0)
        })
        .collect()
}

/// Sums committed epoch weights against their live graphs' upper bounds,
/// flagging any epoch whose weight exceeds its bound.
#[derive(Default)]
pub struct WeightRatio {
    weight: f64,
    bound: f64,
}

impl WeightRatio {
    pub fn add(
        &mut self,
        out: &mut Outcome,
        what: impl FnOnce() -> String,
        weight: f64,
        bound: f64,
    ) {
        if weight > bound * (1.0 + 1e-9) + 1e-9 {
            out.violation(format!("{}: weight {weight} exceeds the upper bound {bound}", what()));
        }
        self.weight += weight;
        self.bound += bound;
    }

    pub fn ratio(&self) -> f64 {
        self.weight / self.bound
    }
}

/// Share of a graph's vertices that carry at least one edge.
pub fn touched_share(graph: &Graph) -> f64 {
    let n = graph.num_vertices();
    if n == 0 {
        return 0.0;
    }
    let mut touched = vec![false; n];
    for e in graph.edges() {
        touched[e.u as usize] = true;
        touched[e.v as usize] = true;
    }
    touched.iter().filter(|&&t| t).count() as f64 / n as f64
}

/// Checks a session's committed matching (stable overlay ids) against the
/// live graph rebuilt from its stream: every entry names a live edge with the
/// same endpoints and weight, capacities hold, and the weight stays under the
/// certified upper bound.
pub fn check_session(overlay: &GraphOverlay, matching: &BMatching) -> Result<(), String> {
    let (graph, back) = overlay.materialize();
    let mut fwd = vec![usize::MAX; overlay.next_edge_id()];
    for (mid, &stable) in back.iter().enumerate() {
        fwd[stable] = mid;
    }
    let mut local = BMatching::new();
    for (id, e, mult) in matching.iter() {
        let mid = fwd.get(id).copied().unwrap_or(usize::MAX);
        if mid == usize::MAX {
            return Err(format!("matched edge {id} is not live"));
        }
        let live = graph.edge(mid);
        if (live.u, live.v, live.w.to_bits()) != (e.u, e.v, e.w.to_bits()) {
            return Err(format!("matched edge {id} differs from the live edge"));
        }
        local.add(mid, live, mult);
    }
    check_matching(&graph, &local).map(|_| ())
}

/// Feasibility plus the certified upper bound for a matching in `graph`'s
/// own edge ids. Returns `(weight, upper bound)`.
pub fn check_matching(graph: &Graph, matching: &BMatching) -> Result<(f64, f64), String> {
    let cert = certify_b_matching(graph, matching);
    if !cert.feasible {
        return Err("matching violates a capacity".to_string());
    }
    if cert.weight > cert.upper_bound * (1.0 + 1e-9) + 1e-9 {
        return Err(format!("weight {} exceeds the upper bound {}", cert.weight, cert.upper_bound));
    }
    Ok((cert.weight, cert.upper_bound))
}

/// A uniquely named scratch directory under [`OUT_DIR`], removed on drop.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> Result<ScratchDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = Path::new(OUT_DIR).join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Total bytes of the regular files directly inside the directory.
    pub fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.path)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .filter(|m| m.is_file())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
