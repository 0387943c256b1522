//! A minimal span/tracing facade.
//!
//! The workspace cannot take a `tracing` dependency (no crates.io access),
//! and the engine only needs coarse spans at pass/epoch/request
//! granularity. [`Span::enter`] (or the [`span!`] macro) checks a single
//! relaxed atomic; until a subscriber is installed it returns a no-op
//! span without reading the clock or allocating, so instrumented code
//! pays ~nothing by default.

use crate::{global, LATENCY_SECONDS_BOUNDS};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Receives closed spans. Implementations must be cheap and must never
/// feed information back into the engine (observability is read-only).
pub trait SpanSubscriber: Send + Sync {
    /// Called when an enabled span drops. `fields` are the key/value
    /// pairs given at entry; `nanos` is the span's wall-clock duration.
    fn on_close(&self, name: &'static str, fields: &[(&'static str, u64)], nanos: u64);
}

static SUBSCRIBER: OnceLock<Box<dyn SpanSubscriber>> = OnceLock::new();
static SPANS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Install the process-wide span subscriber. Returns `false` (and leaves
/// the existing subscriber in place) if one was already installed.
pub fn install_subscriber(sub: Box<dyn SpanSubscriber>) -> bool {
    let installed = SUBSCRIBER.set(sub).is_ok();
    if installed {
        SPANS_ENABLED.store(true, Ordering::Release);
    }
    installed
}

/// Fast check used by [`Span::enter`]; callers can use it to skip
/// building expensive field values.
#[inline]
pub fn spans_enabled() -> bool {
    SPANS_ENABLED.load(Ordering::Relaxed)
}

/// An RAII span. Construct via [`span!`](crate::span!) or [`Span::enter`]; the
/// subscriber is notified with the measured duration on drop.
pub struct Span {
    name: &'static str,
    fields: Vec<(&'static str, u64)>,
    start: Option<Instant>,
}

impl Span {
    #[inline]
    pub fn enter(name: &'static str, fields: &[(&'static str, u64)]) -> Span {
        if !spans_enabled() {
            return Span { name, fields: Vec::new(), start: None };
        }
        Span { name, fields: fields.to_vec(), start: Some(Instant::now()) }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            if let Some(sub) = SUBSCRIBER.get() {
                sub.on_close(self.name, &self.fields, start.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Open a span that closes (and reports its duration) at end of scope:
///
/// ```
/// # use mwm_obs::span;
/// let _span = span!("pass", shard = 3usize, edges = 1024usize);
/// ```
///
/// Field values are coerced with `as u64`. When no subscriber is
/// installed this is one relaxed load and a `Vec::new()`.
#[macro_export]
macro_rules! span {
    ($name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $crate::Span::enter($name, &[$((stringify!($key), $value as u64)),*])
    };
}

/// A [`SpanSubscriber`] that folds spans into the global registry:
/// `span_<name>_total` counters and `span_<name>_seconds` histograms.
pub struct RecordingSubscriber;

impl SpanSubscriber for RecordingSubscriber {
    fn on_close(&self, name: &'static str, _fields: &[(&'static str, u64)], nanos: u64) {
        let registry = global();
        registry.counter(&format!("span_{name}_total")).inc();
        registry
            .histogram(&format!("span_{name}_seconds"), &LATENCY_SECONDS_BOUNDS)
            .observe(nanos as f64 / 1e9);
    }
}

/// Install [`RecordingSubscriber`] as the process-wide subscriber.
/// Convenience for examples, the bench harness, and served deployments.
pub fn install_recording_subscriber() -> bool {
    install_subscriber(Box::new(RecordingSubscriber))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_inert() {
        // Subscriber installation is process-global, so this test only
        // checks the default-off path shape: no panic, no clock needed.
        let s = Span::enter("test_pass", &[("shard", 1)]);
        drop(s);
    }

    #[test]
    fn span_macro_compiles_with_and_without_fields() {
        let _a = span!("epoch");
        let _b = span!("epoch", region = 12usize, rounds = 3u32);
    }
}
