//! Lock-cheap observability for the dual-primal matching workspace.
//!
//! The paper treats passes, space, and rounds as first-class costs; this
//! crate makes those costs visible on a *live* system instead of only
//! post-hoc through `mwm-bench` reports. It provides:
//!
//! - a metrics [`Registry`] of named (optionally labeled) monotonic
//!   [`Counter`]s, [`Gauge`]s, and fixed-bucket [`Histogram`]s, all backed
//!   by atomics so the record path never takes a lock;
//! - an ordered, deterministic [`MetricsSnapshot`] (entries sorted by
//!   full metric name) suitable for wire transport and text dumps;
//! - a lightweight span facade ([`span!`], [`Span`], [`SpanSubscriber`])
//!   whose disabled fast path is a single relaxed atomic load — no clock
//!   read, no allocation — so it can sit on pass/epoch boundaries of the
//!   hot engine without observable cost.
//!
//! # Determinism contract
//!
//! Metrics are strictly write-only taps: nothing in the engine reads a
//! metric back to make a decision, so enabling or disabling the registry
//! must never change solver output bits. The registry itself only ever
//! *observes* values handed to it. Tests in `mwm-bench` assert checksum
//! identity with the registry enabled vs disabled.
//!
//! # Naming convention
//!
//! Metric names are `snake_case` with a subsystem prefix and a unit
//! suffix where applicable: `pass_edges_total`, `serve_revive_seconds`,
//! `dynamic_journal_bytes`. Labels render into the full name as
//! `name{key=value,...}` with keys in the order given at registration,
//! so the snapshot order is reproducible run-to-run.

mod span;

pub use span::{
    install_recording_subscriber, install_subscriber, spans_enabled, RecordingSubscriber, Span,
    SpanSubscriber,
};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default bucket upper bounds (seconds) for latency histograms: 1µs .. 10s.
pub const LATENCY_SECONDS_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 60.0];

/// Default bucket upper bounds for size-ish histograms (edges, bytes, rounds):
/// powers of 4 from 1 to 4^10 ≈ 1M.
pub const SIZE_BOUNDS: [f64; 11] =
    [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0];

/// A monotonically increasing counter.
///
/// Increments are relaxed atomic adds; when the owning registry is
/// disabled they early-return after one relaxed load.
pub struct Counter {
    value: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a signed value that can move in both directions.
pub struct Gauge {
    value: AtomicI64,
    enabled: Arc<AtomicBool>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram. Bucket `i` counts observations `<= bounds[i]`;
/// one extra overflow bucket counts everything above the last bound.
///
/// `observe` is two relaxed adds plus a CAS loop folding the value into a
/// running `f64` sum — cheap enough for pass/epoch/request granularity
/// (this crate is never used per-edge).
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_bits: AtomicU64,
    enabled: Arc<AtomicBool>,
}

impl Histogram {
    #[inline]
    pub fn observe(&self, v: f64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Convenience for recording a duration in seconds.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Point-in-time value of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; `buckets.len() == bounds.len() + 1` (overflow).
    pub bounds: Vec<f64>,
    pub buckets: Vec<u64>,
    pub count: u64,
    pub sum: f64,
}

/// Point-in-time value of one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricEntry {
    /// Full name including rendered labels, e.g. `dynamic_epochs_total{decision=repair}`.
    pub name: String,
    pub value: MetricValue,
}

/// An ordered point-in-time view of a [`Registry`].
///
/// Entries are sorted by full metric name, so two snapshots of registries
/// holding the same values are byte-identical however the metrics were
/// registered — this is what makes text dumps and wire transport
/// deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a metric by full name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// Counter value by full name, or 0 if absent / not a counter.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value by full name, or 0 if absent / not a gauge.
    pub fn gauge(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of all counters whose full name starts with `prefix` — handy for
    /// totalling a labeled family like `dynamic_epochs_total{...}`.
    pub fn counter_family(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| match &e.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Render the snapshot as stable, line-oriented text:
    /// `name value` for counters/gauges, `name count=N sum=S` for histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            match &e.value {
                MetricValue::Counter(v) => {
                    out.push_str(&format!("{} {}\n", e.name, v));
                }
                MetricValue::Gauge(v) => {
                    out.push_str(&format!("{} {}\n", e.name, v));
                }
                MetricValue::Histogram(h) => {
                    out.push_str(&format!("{} count={} sum={:.6}\n", e.name, h.count, h.sum));
                }
            }
        }
        out
    }
}

/// A named metrics registry.
///
/// Registration (first lookup of a name) takes a mutex; the returned
/// `Arc` handles record through atomics only. Call sites that fire often
/// should cache the handle (the [`counter!`]/[`gauge!`]/[`histogram!`]
/// macros do this with a `OnceLock` per call site).
pub struct Registry {
    enabled: Arc<AtomicBool>,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry { enabled: Arc::new(AtomicBool::new(true)), metrics: Mutex::new(BTreeMap::new()) }
    }

    /// Turn recording on or off. Handles already held by call sites see
    /// the change on their next record (shared atomic flag). Disabling
    /// does not clear accumulated values; see [`Registry::reset`].
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Zero every registered metric (names stay registered).
    pub fn reset(&self) {
        let metrics = self.metrics.lock().unwrap();
        for m in metrics.values() {
            match m {
                Metric::Counter(c) => c.value.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.value.store(0, Ordering::Relaxed),
                Metric::Histogram(h) => {
                    for b in &h.buckets {
                        b.store(0, Ordering::Relaxed);
                    }
                    h.count.store(0, Ordering::Relaxed);
                    h.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
                }
            }
        }
    }

    /// Get or register a counter. Panics if `name` is already registered
    /// as a different metric kind (a programmer error, not a runtime one).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        self.counter_full(name.to_string())
    }

    /// Labeled variant: `counter_with("epochs_total", &[("decision", "repair")])`
    /// registers `epochs_total{decision=repair}`.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter_full(full_name(name, labels))
    }

    fn counter_full(&self, name: String) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name).or_insert_with_key(|_| {
            Metric::Counter(Arc::new(Counter {
                value: AtomicU64::new(0),
                enabled: Arc::clone(&self.enabled),
            }))
        }) {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric registered with a different kind"),
        }
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        self.gauge_full(name.to_string())
    }

    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge_full(full_name(name, labels))
    }

    fn gauge_full(&self, name: String) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name).or_insert_with_key(|_| {
            Metric::Gauge(Arc::new(Gauge {
                value: AtomicI64::new(0),
                enabled: Arc::clone(&self.enabled),
            }))
        }) {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric registered with a different kind"),
        }
    }

    /// Get or register a histogram with the given bucket upper bounds.
    /// Bounds are fixed at first registration; later callers get the
    /// existing instance regardless of the bounds they pass.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics.entry(name.to_string()).or_insert_with_key(|_| {
            Metric::Histogram(Arc::new(Histogram {
                bounds: bounds.to_vec(),
                buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
                count: AtomicU64::new(0),
                sum_bits: AtomicU64::new(0f64.to_bits()),
                enabled: Arc::clone(&self.enabled),
            }))
        }) {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric registered with a different kind"),
        }
    }

    /// Ordered point-in-time snapshot. Reads are relaxed: concurrent
    /// recorders may or may not be included, but the entry order is
    /// always deterministic (sorted by full name via the `BTreeMap`).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().unwrap();
        let entries = metrics
            .iter()
            .map(|(name, m)| MetricEntry {
                name: name.clone(),
                value: match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        MetricsSnapshot { entries }
    }
}

fn full_name(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
    out
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry that the engine and serving tier record into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Enable/disable recording on the global registry.
pub fn set_enabled(on: bool) {
    global().set_enabled(on);
}

/// Snapshot the global registry.
pub fn snapshot() -> MetricsSnapshot {
    global().snapshot()
}

/// Cache-once handle to a global-registry counter. Expands to an
/// `&'static Arc<Counter>`; the registry lookup happens at most once per
/// call site.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Counter>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Cache-once handle to a global-registry gauge.
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Gauge>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Cache-once handle to a global-registry histogram with fixed bounds.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: std::sync::OnceLock<std::sync::Arc<$crate::Histogram>> =
            std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().histogram($name, $bounds))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("c_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = r.gauge("g");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let r = Registry::new();
        let c = r.counter("c_total");
        let h = r.histogram("h", &SIZE_BOUNDS);
        r.set_enabled(false);
        c.add(100);
        h.observe(3.0);
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        r.set_enabled(true);
        c.add(1);
        assert_eq!(c.get(), 1);
    }

    #[test]
    fn histogram_buckets_and_sum() {
        let r = Registry::new();
        let h = r.histogram("lat", &[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        let snap = h.snapshot();
        assert_eq!(snap.buckets, vec![1, 1, 1]);
        assert_eq!(snap.count, 3);
        assert!((snap.sum - 55.5).abs() < 1e-9);
    }

    #[test]
    fn labels_render_into_name() {
        assert_eq!(
            full_name("epochs_total", &[("decision", "repair"), ("shard", "3")]),
            "epochs_total{decision=repair,shard=3}"
        );
        let r = Registry::new();
        r.counter_with("epochs_total", &[("decision", "repair")]).add(2);
        r.counter_with("epochs_total", &[("decision", "rebuild")]).add(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("epochs_total{decision=repair}"), 2);
        assert_eq!(snap.counter_family("epochs_total{"), 5);
    }

    #[test]
    fn snapshot_is_sorted_regardless_of_registration_order() {
        let r = Registry::new();
        r.counter("zz_total").inc();
        r.gauge("aa_gauge").set(1);
        r.counter("mm_total").inc();
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["aa_gauge", "mm_total", "zz_total"]);
    }

    #[test]
    fn reset_zeroes_values_but_keeps_names() {
        let r = Registry::new();
        r.counter("c_total").add(9);
        r.histogram("h", &[1.0]).observe(0.5);
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.counter("c_total"), 0);
        match snap.get("h") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count, 0);
                assert_eq!(h.buckets, vec![0, 0]);
            }
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }
}
