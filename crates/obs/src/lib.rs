//! Zero-dependency structured observability for the receivers workspace.
//!
//! Like `receivers-rt`, this crate is fully offline: it uses nothing but
//! `std`. It provides the three instrumentation primitives every
//! performance-bearing subsystem of the workspace shares:
//!
//! * **Spans** ([`span`], [`span_under`]) — RAII scoped timers with
//!   parent/child nesting. Each thread accumulates finished spans in a
//!   thread-local buffer that is flushed into a global lock-protected
//!   sink when the thread's outermost span closes (and again on thread
//!   exit), so worker threads never contend on the sink mid-flight.
//! * **Counters and histograms** ([`Counter`], [`Histogram`], declared
//!   via [`counter!`]/[`histogram!`]) — statics with atomic updates.
//!   Histograms use fixed log₂ buckets, so recording is a handful of
//!   `fetch_add`s with no allocation.
//! * **Exporters** ([`export`]) — a human-readable summary, a stable
//!   JSON metrics schema (`receivers-obs/metrics/v1`), and the Chrome
//!   `trace_event` format so span logs open directly in
//!   `chrome://tracing` or [Perfetto](https://ui.perfetto.dev).
//!
//! # The disabled fast path
//!
//! Everything is **off by default**. Every instrumentation macro/guard
//! first consults one process-global atomic ([`trace_enabled`] /
//! [`metrics_enabled`]): when the subsystem is off, the cost is a single
//! `Relaxed` load and a predictable branch — measured at or below timer
//! noise on the `relation_kernel` and `view_maintenance` benches
//! (EXPERIMENTS.md P10). Enable with the `RECEIVERS_TRACE` /
//! `RECEIVERS_METRICS` environment variables (any non-empty value other
//! than `0`), or programmatically with [`enable`] / [`set_enabled`].
//!
//! # Adding a metric
//!
//! ```
//! receivers_obs::counter!(pub WIDGETS_BUILT, "demo.widgets_built");
//! receivers_obs::histogram!(pub WIDGET_SIZE, "demo.widget_size");
//!
//! receivers_obs::set_enabled(false, true);
//! WIDGETS_BUILT.incr();
//! WIDGET_SIZE.record(42);
//! let snap = receivers_obs::metrics_snapshot();
//! assert_eq!(snap.counter("demo.widgets_built"), Some(1));
//! # receivers_obs::set_enabled(false, false);
//! ```
//!
//! New metric *names* must also be added to
//! `crates/obs/metrics_manifest.txt` — CI validates every emitted name
//! against that manifest so renames are deliberate (see the `obs_check`
//! binary).

#![warn(missing_docs)]

pub mod cli;
pub mod export;
pub mod flight;
pub mod json;
mod metrics;
pub mod profile;
mod span;

pub use metrics::{
    metrics_snapshot, reset_metrics, Counter, Histogram, HistogramSnapshot, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use profile::{render_profile_chrome, render_profile_human, render_profile_json, ProfileNode};
pub use span::{current_span, now_ns, reset_spans, span, span_under, take_spans, Span, SpanEvent};

use std::sync::atomic::{AtomicU8, Ordering};

/// Bit set once the state has been initialised (from env or explicitly).
const F_INIT: u8 = 0b100;
/// Bit: span tracing on.
const F_TRACE: u8 = 0b001;
/// Bit: counters/histograms on.
const F_METRICS: u8 = 0b010;
/// Bit: profile collection on (timing attribution in the drivers).
const F_PROFILE: u8 = 0b01000;
/// Bit: flight recorder ring on.
const F_FLIGHT: u8 = 0b10000;

/// `0` means "not yet initialised": the first check reads the
/// environment. Every later check is a single `Relaxed` load.
static STATE: AtomicU8 = AtomicU8::new(0);

#[inline(always)]
fn state() -> u8 {
    let s = STATE.load(Ordering::Relaxed);
    if s == 0 {
        init_from_env()
    } else {
        s
    }
}

#[cold]
fn init_from_env() -> u8 {
    let on = |var: &str| {
        std::env::var_os(var).is_some_and(|v| !v.is_empty() && v != std::ffi::OsStr::new("0"))
    };
    let mut s = F_INIT;
    if on("RECEIVERS_TRACE") {
        s |= F_TRACE;
    }
    if on("RECEIVERS_METRICS") {
        s |= F_METRICS;
    }
    if on("RECEIVERS_PROFILE") {
        s |= F_PROFILE;
    }
    if on("RECEIVERS_FLIGHT") {
        s |= F_FLIGHT;
    }
    // A racing `set_enabled` may already have stored a value; keep it.
    match STATE.compare_exchange(0, s, Ordering::Relaxed, Ordering::Relaxed) {
        Ok(_) => s,
        Err(current) => current,
    }
}

/// Whether span tracing is on (`RECEIVERS_TRACE` or [`set_enabled`]).
#[inline(always)]
pub fn trace_enabled() -> bool {
    state() & F_TRACE != 0
}

/// Whether counters/histograms are on (`RECEIVERS_METRICS` or
/// [`set_enabled`]).
#[inline(always)]
pub fn metrics_enabled() -> bool {
    state() & F_METRICS != 0
}

/// Whether profile collection is on (`RECEIVERS_PROFILE` or
/// [`set_profile_enabled`]). Gates the timing attribution the profiled
/// drivers read (shard queue waits, worker busy time) — one `Relaxed`
/// load when off, exactly like [`metrics_enabled`].
#[inline(always)]
pub fn profile_enabled() -> bool {
    state() & F_PROFILE != 0
}

/// Whether the flight recorder ring is on (`RECEIVERS_FLIGHT` or
/// [`set_flight_enabled`]). One `Relaxed` load when off.
#[inline(always)]
pub fn flight_enabled() -> bool {
    state() & F_FLIGHT != 0
}

/// Turn both tracing and metrics on, overriding the environment.
pub fn enable() {
    set_enabled(true, true);
}

/// Set the trace and metrics switches explicitly, overriding the
/// environment; the profile and flight bits are preserved. Spans opened
/// while tracing was on still record when it is switched off before
/// they close (events are neither lost nor duplicated); spans opened
/// while it is off never record.
pub fn set_enabled(trace: bool, metrics: bool) {
    let mut set = 0;
    if trace {
        set |= F_TRACE;
    }
    if metrics {
        set |= F_METRICS;
    }
    update(|s| (s & (F_PROFILE | F_FLIGHT)) | set);
}

/// Flip one state bit on or off, preserving the others.
fn set_bit(bit: u8, on: bool) {
    update(|s| if on { s | bit } else { s & !bit });
}

/// Apply `f` to the switches in one atomic read-modify-write, so
/// concurrent setters of different switches never undo each other.
fn update(f: impl Fn(u8) -> u8) {
    state();
    let _ = STATE.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
        Some(F_INIT | f(s))
    });
}

/// Turn profile collection on or off, preserving the other switches.
pub fn set_profile_enabled(on: bool) {
    set_bit(F_PROFILE, on);
}

/// Turn the flight recorder on or off, preserving the other switches.
pub fn set_flight_enabled(on: bool) {
    set_bit(F_FLIGHT, on);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The flag statics are process-global, so the toggle tests and the
    // metric/span tests share one mutex to avoid interleaving.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    pub(crate) fn lock() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn toggling_is_idempotent_and_granular() {
        let _g = lock();
        set_enabled(false, false);
        assert!(!trace_enabled() && !metrics_enabled());
        set_enabled(true, false);
        assert!(trace_enabled() && !metrics_enabled());
        set_enabled(false, true);
        assert!(!trace_enabled() && metrics_enabled());
        enable();
        assert!(trace_enabled() && metrics_enabled());
        set_enabled(false, false);
    }

    #[test]
    fn set_enabled_preserves_profile_and_flight_bits() {
        let _g = lock();
        set_enabled(false, false);
        set_profile_enabled(true);
        set_flight_enabled(true);
        // Re-toggling trace/metrics (as ObsCli::parse does) must not
        // silently drop the profile or flight switches.
        set_enabled(true, true);
        assert!(profile_enabled() && flight_enabled());
        set_enabled(false, false);
        assert!(profile_enabled() && flight_enabled());
        set_profile_enabled(false);
        assert!(!profile_enabled() && flight_enabled());
        set_flight_enabled(false);
        assert!(!profile_enabled() && !flight_enabled());
        set_enabled(false, false);
    }
}
