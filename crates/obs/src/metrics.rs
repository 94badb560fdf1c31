//! Atomic counters and quantile-sketch histograms with a global
//! registry, snapshotted into the profile by [`flush`](crate::flush).
//!
//! Both types are designed to live in `static` items inside
//! instrumented crates:
//!
//! ```
//! static EVALS: rfkit_obs::Counter = rfkit_obs::Counter::new("opt.evals.demo");
//! static ITERS: rfkit_obs::Hist = rfkit_obs::Hist::new("demo.iters");
//! EVALS.add(3);
//! ITERS.record(17);
//! ```
//!
//! Registration is lazy: the first armed `add`/`record` pushes the
//! static into the registry, so flushing only reports metrics that
//! were actually touched.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use rfkit_num::QuantileSketch;

use crate::profile::{ProfHist, Profile};

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    hists: Mutex<Vec<&'static Hist>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(Vec::new()),
    hists: Mutex::new(Vec::new()),
};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// True exactly once per metric: on the first armed touch, which then
/// registers it. The plain load keeps later touches from writing the
/// flag's cache line.
fn first_touch(registered: &AtomicBool) -> bool {
    !registered.load(Ordering::Relaxed) && !registered.swap(true, Ordering::Relaxed)
}

/// A monotonically increasing counter.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// Create an unregistered counter (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Increment by `n`. No-op unless telemetry is armed.
    #[inline]
    pub fn add(&'static self, n: u64) {
        if !crate::enabled() {
            return;
        }
        if first_touch(&self.registered) {
            lock(&REGISTRY.counters).push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (0 until armed and touched).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` samples. Each sample folds into the
/// [`QuantileSketch`] that span durations use, so the profile's
/// p50/p90/p99 carry the sketch's ≤ 1/32 relative error; the sum is
/// exact (wrapping on overflow, telemetry-only). Both sit behind one
/// mutex that only armed recording and the flush take.
pub struct Hist {
    name: &'static str,
    samples: Mutex<(QuantileSketch, u64)>,
    registered: AtomicBool,
}

impl Hist {
    /// Create an unregistered histogram (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Hist {
            name,
            samples: Mutex::new((QuantileSketch::new(), 0)),
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample. No-op unless telemetry is armed.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        if first_touch(&self.registered) {
            lock(&REGISTRY.hists).push(self);
        }
        let mut s = lock(&self.samples);
        s.0.record(v as f64);
        s.1 = s.1.wrapping_add(v);
    }
}

/// Copy every registered counter and histogram into the profile `p`.
/// The maps order them by name, so the profile is independent of
/// registration order.
pub(crate) fn snapshot_into(p: &mut Profile) {
    for c in lock(&REGISTRY.counters).iter() {
        p.counters.insert(c.name.to_string(), c.value());
    }
    for h in lock(&REGISTRY.hists).iter() {
        let (sketch, sum) = &*lock(&h.samples);
        p.hists.insert(
            h.name.to_string(),
            ProfHist {
                count: sketch.count(),
                sum: *sum,
                p50: sketch.quantile(0.50),
                p90: sketch.quantile(0.90),
                p99: sketch.quantile(0.99),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_metrics_stay_zero() {
        // A counter that is never armed must never register or count.
        static LOCAL: Counter = Counter::new("test.disarmed");
        if !crate::enabled() {
            LOCAL.add(5);
            assert_eq!(LOCAL.value(), 0);
        }
    }
}
