//! rfkit-obs: dependency-free structured tracing + metrics.
//!
//! Compiled into every crate but runtime-gated: with `RFKIT_TRACE`
//! unset, every instrumentation call is a single relaxed atomic load
//! plus a predictable branch. When armed, the crate folds RAII
//! [`Span`]s into a per-thread call-path tree and keeps [`Counter`]s,
//! quantile-sketch [`Hist`]ograms and per-name [`event`] summaries; at
//! [`flush`] the run writes one aggregate profile (default
//! `results/PROFILE_<secs>_<pid>.json`, overridable via
//! `RFKIT_TRACE_OUT`) that [`profile::parse`] reads back and
//! `rfkit-trace` summarizes, renders and diffs.
//!
//! Determinism contract (PR 1): telemetry is strictly write-only with
//! respect to the numeric pipeline. Nothing in this crate is ever read
//! back by instrumented code, so arming tracing cannot change results.
//! Wall-clock types (`Instant`/`SystemTime`) live only here — numeric
//! crates time work through [`span()`] and [`stopwatch`] so the
//! `nondeterminism` lint keeps them out of numeric code.
//!
//! Environment variables:
//!
//! | Variable          | Effect                                     |
//! |-------------------|--------------------------------------------|
//! | `RFKIT_TRACE`     | non-empty & not `0`: record a profile      |
//! | `RFKIT_TRACE_OUT` | profile path (implies `RFKIT_TRACE`)       |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod config;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod span;

pub use config::{TraceConfig, TraceMode};
pub use metrics::{Counter, Hist};
pub use span::{span, stopwatch, Span, Stopwatch};

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Global arming state: 0 = uninitialised, 1 = disabled, 2 = armed.
static STATE: AtomicU8 = AtomicU8::new(0);
/// Serialises lazy init so exactly one thread installs the sink.
static INIT_LOCK: Mutex<()> = Mutex::new(());
/// Monotonic epoch for [`now_us`] in one process.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// True when telemetry is armed. This is the hot-path gate: a relaxed
/// atomic load and a branch. First call per process initialises from
/// the environment.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let _guard = INIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    // Double-check under the lock: another thread may have initialised.
    match STATE.load(Ordering::Relaxed) {
        2 => return true,
        1 => return false,
        _ => {}
    }
    let cfg = TraceConfig::from_env();
    apply(&cfg)
}

/// Install an explicit configuration, replacing any previous one.
/// Intended for tests and embedding; normal use lets [`enabled`]
/// self-initialise from the environment on first touch.
pub fn init(cfg: &TraceConfig) {
    let _guard = INIT_LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    apply(cfg);
}

/// Shared tail of init paths; caller holds `INIT_LOCK`.
fn apply(cfg: &TraceConfig) -> bool {
    let _ = EPOCH.set(Instant::now());
    let armed = cfg.trace;
    if armed {
        // A profile's call-path tree and events cover exactly one armed
        // window; counters and histograms stay process-cumulative.
        agg::reset();
    }
    sink::install(cfg);
    STATE.store(if armed { 2 } else { 1 }, Ordering::Relaxed);
    armed
}

/// Microseconds since the trace epoch (first telemetry touch). Returns
/// 0 before initialisation so callers never observe time going
/// backwards between records.
#[inline]
pub fn now_us() -> u64 {
    match EPOCH.get() {
        Some(t0) => t0.elapsed().as_micros() as u64,
        None => 0,
    }
}

/// Record a named event with numeric fields. No-op unless armed. The
/// event folds into a per-name first/last summary in the profile;
/// non-finite fields are left out of the written file.
#[inline]
pub fn event(name: &str, fields: &[(&str, f64)]) {
    if enabled() {
        agg::record_event(name, fields);
    }
}

/// Write the whole profile — call-path tree, counters, histograms,
/// event summaries — as one `PROFILE_*.json`, replacing the file.
/// Call at the end of a run (binaries do; the traced CI stages rely
/// on it).
pub fn flush() {
    if enabled() {
        agg::flush_profile();
    }
}

/// Path of the profile an armed run writes on [`flush`].
pub fn trace_path() -> Option<std::path::PathBuf> {
    sink::path()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn now_us_is_zero_before_epoch_then_monotone() {
        // Whether or not another test initialised the epoch, successive
        // readings never decrease.
        let a = now_us();
        let b = now_us();
        assert!(b >= a);
    }
}
