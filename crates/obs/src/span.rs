//! RAII spans with monotonic timing and self-time accounting, plus a
//! [`Stopwatch`] for callers that want a raw elapsed-microseconds
//! reading without naming `std::time` types themselves.

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::{agg, sink};

// Timer-resolution jitter can make the sum of child durations exceed
// the parent's own measurement; self time then clamps to zero instead
// of going "negative" (wrapping). The clamp count is telemetry about
// the telemetry: a handful per run is clock granularity, a flood means
// an instrumentation bug (e.g. spans closed out of order).
static OBS_SELFTIME_CLAMPED: crate::Counter = crate::Counter::new("obs.selftime.clamped");
static CLAMP_WARNED: AtomicBool = AtomicBool::new(false);

/// Self time from a span's measured duration and accumulated child
/// time, with the negative case clamped. Returns `(self_ns, clamped)`.
#[inline]
pub(crate) fn attribute_self(dur_ns: u64, child_ns: u64) -> (u64, bool) {
    (dur_ns.saturating_sub(child_ns), child_ns > dur_ns)
}

// Per-thread stack of child-time accumulators: one `u64` of
// accumulated child nanoseconds per live span on this thread. A
// closing span adds its duration to its parent's top-of-stack entry,
// so `self time = duration - children` without any allocation per
// span beyond the stack slot.
thread_local! {
    static CHILD_NS: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// Small dense thread id for trace records (assigned on first use per
/// thread, stable for the thread's lifetime).
pub(crate) fn tid() -> u64 {
    TID.with(|t| {
        let v = t.get();
        if v != u64::MAX {
            return v;
        }
        let v = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        t.set(v);
        v
    })
}

/// A live trace span; records duration and self-time on drop. Obtain
/// via [`span`] and bind it to a named variable (`let _span = ...`) —
/// `let _ = span(..)` drops immediately and records nothing useful
/// (the `obs-span-leak` lint in rfkit-analyze flags that pattern).
#[must_use = "binding a span to `_` ends it immediately"]
pub struct Span {
    inner: Option<SpanInner>,
}

struct SpanInner {
    name: &'static str,
    start: Instant,
    t0_us: u64,
    // Captured at open so a mid-span re-init cannot route the exit to
    // the wrong backend (the tree bounds-checks stale ids anyway).
    agg: bool,
}

/// Open a span. No-op (no clock read, no allocation) unless armed.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !crate::enabled() {
        return Span { inner: None };
    }
    let agg = crate::agg_mode();
    if agg {
        agg::enter(name);
    }
    CHILD_NS.with(|s| s.borrow_mut().push(0));
    Span {
        inner: Some(SpanInner {
            name,
            start: Instant::now(),
            // Only the JSONL record carries a start timestamp; skipping
            // the clock read keeps aggregate-mode spans cheaper.
            t0_us: if agg { 0 } else { crate::now_us() },
            agg,
        }),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_ns = inner.start.elapsed().as_nanos() as u64;
        let child_ns = CHILD_NS.with(|s| {
            let mut stack = s.borrow_mut();
            let mine = stack.pop().unwrap_or(0);
            if let Some(parent) = stack.last_mut() {
                *parent = parent.saturating_add(dur_ns);
            }
            mine
        });
        let (self_ns, clamped) = attribute_self(dur_ns, child_ns);
        if clamped {
            OBS_SELFTIME_CLAMPED.add(1);
            if !CLAMP_WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "rfkit-obs: span `{}` children outran parent by {}ns; \
                     self time clamped to 0 (counted in obs.selftime.clamped)",
                    inner.name,
                    child_ns - dur_ns
                );
            }
        }
        if inner.agg {
            agg::exit(dur_ns, self_ns);
        } else {
            sink::emit_span(
                inner.name,
                inner.t0_us,
                dur_ns / 1_000,
                self_ns / 1_000,
                tid(),
            );
        }
    }
}

/// A stopwatch that only ticks when telemetry is armed. Lets numeric
/// crates time a section and feed a [`Hist`](crate::Hist) without
/// touching `Instant` directly (which their nondeterminism lint bans).
pub struct Stopwatch(Option<Instant>);

/// Start a stopwatch; returns an inert one when telemetry is off.
#[inline]
pub fn stopwatch() -> Stopwatch {
    if crate::enabled() {
        Stopwatch(Some(Instant::now()))
    } else {
        Stopwatch(None)
    }
}

impl Stopwatch {
    /// Elapsed microseconds, or `None` when started disarmed.
    #[inline]
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_span_and_stopwatch_are_inert() {
        // These tests run without arming the global state via env, but
        // another test in this process may have armed it; only assert
        // the invariants that hold either way.
        let sw = Stopwatch(None);
        assert_eq!(sw.elapsed_us(), None);
        let s = Span { inner: None };
        drop(s); // must not touch the thread-local stack
        CHILD_NS.with(|st| assert!(st.borrow().is_empty()));
    }

    #[test]
    fn attribute_self_clamps_instead_of_wrapping() {
        // Normal case: self = duration - children.
        assert_eq!(attribute_self(100, 40), (60, false));
        // Zero-duration span (sub-tick work): zero self, not clamped.
        assert_eq!(attribute_self(0, 0), (0, false));
        // Children exactly fill the parent: zero self, not clamped.
        assert_eq!(attribute_self(100, 100), (0, false));
        // Timer jitter made children outrun the parent: clamped to 0,
        // and flagged so the clamp counter records it.
        assert_eq!(attribute_self(100, 140), (0, true));
        assert_eq!(attribute_self(0, 1), (0, true));
    }

    #[test]
    fn tids_are_stable_per_thread() {
        let a = tid();
        let b = tid();
        assert_eq!(a, b);
        let other = std::thread::spawn(tid).join().expect("thread join");
        assert_ne!(a, other);
    }
}
