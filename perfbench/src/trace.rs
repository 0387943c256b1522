//! The traced run's span recorder: a [`SpanSubscriber`] that keeps every
//! closed span in memory (name, thread, start, end, op id) so layer times
//! and self times can be derived from span containment after the run.
//!
//! The engine already opens `epoch`, `solve` and `pass` spans; the benchmark
//! adds `bench.*` spans around each public call it times, carrying the op id
//! in an `op` field. A subscriber can be installed once per process, which
//! is why a traced run is a process of its own.

use mwm_obs::SpanSubscriber;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder was installed.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub thread: u32,
    pub start: u64,
    pub end: u64,
    pub op: Option<u64>,
}

impl SpanRec {
    pub fn nanos(&self) -> u64 {
        self.end - self.start
    }
}

struct Inner {
    origin: Instant,
    spans: Mutex<Vec<SpanRec>>,
}

struct Recorder(Arc<Inner>);

static RECORDER: OnceLock<Arc<Inner>> = OnceLock::new();
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl SpanSubscriber for Recorder {
    fn on_close(&self, name: &'static str, fields: &[(&'static str, u64)], nanos: u64) {
        let end = self.0.origin.elapsed().as_nanos() as u64;
        let rec = SpanRec {
            name,
            thread: THREAD.with(|t| *t),
            start: end.saturating_sub(nanos),
            end,
            op: fields.iter().find(|(k, _)| *k == "op").map(|&(_, v)| v),
        };
        self.0.spans.lock().expect("span log poisoned").push(rec);
    }
}

/// Installs the recorder; returns false if another subscriber got there first.
pub fn install() -> bool {
    let inner = Arc::new(Inner { origin: Instant::now(), spans: Mutex::new(Vec::new()) });
    if RECORDER.set(Arc::clone(&inner)).is_err() {
        return false;
    }
    mwm_obs::install_subscriber(Box::new(Recorder(inner)))
}

/// Nanoseconds on the recorder's clock (0 when no recorder is installed).
pub fn now() -> u64 {
    RECORDER.get().map_or(0, |r| r.origin.elapsed().as_nanos() as u64)
}

/// Every span recorded so far, in close order.
pub fn spans() -> Vec<SpanRec> {
    RECORDER.get().map_or_else(Vec::new, |r| r.spans.lock().expect("span log poisoned").clone())
}

/// The spans named `name` that lie inside the window `[from, to]`.
pub fn named(spans: &[SpanRec], name: &str, from: u64, to: u64) -> Vec<SpanRec> {
    spans.iter().filter(|s| s.name == name && s.start >= from && s.end <= to).copied().collect()
}

pub fn total_ms(spans: &[SpanRec]) -> f64 {
    spans.iter().map(|s| s.nanos() as f64).sum::<f64>() / 1e6
}

/// Self time of `parents`: each parent's duration minus the time covered by
/// `children` that lie inside it on the same thread. Children of one parent
/// do not overlap (spans nest on a thread), so their durations add.
pub fn self_ms(parents: &[SpanRec], children: &[SpanRec]) -> f64 {
    let mut kids: Vec<SpanRec> = children.to_vec();
    kids.sort_by_key(|s| (s.thread, s.start));
    let mut self_ns = 0f64;
    for p in parents {
        let first = kids.partition_point(|c| (c.thread, c.start) < (p.thread, p.start));
        let covered: u64 = kids[first..]
            .iter()
            .take_while(|c| c.thread == p.thread && c.start <= p.end)
            .filter(|c| c.end <= p.end)
            .map(SpanRec::nanos)
            .sum();
        self_ns += p.nanos().saturating_sub(covered) as f64;
    }
    self_ns / 1e6
}

/// Writes every span as tab-separated `thread start_ns end_ns name op`.
pub fn dump(path: &Path, spans: &[SpanRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tstart_ns\tend_ns\tname\top")?;
    for s in spans {
        let op = s.op.map_or_else(|| "-".to_string(), |v| v.to_string());
        writeln!(out, "{}\t{}\t{}\t{}\t{}", s.thread, s.start, s.end, s.name, op)?;
    }
    out.flush()
}
