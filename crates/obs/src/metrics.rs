//! Atomic counters and fixed-bucket (log2) histograms with a global
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
use std::sync::{Mutex, PoisonError};

use crate::profile::{ProfHist, Profile};

/// Number of log2 buckets: value 0, then one bucket per power of two
/// up to `u64::MAX` (index = 64 - leading_zeros).
pub const BUCKETS: usize = 65;

struct Registry {
    counters: Mutex<Vec<&'static Counter>>,
    hists: Mutex<Vec<&'static Hist>>,
}

static REGISTRY: Registry = Registry {
    counters: Mutex::new(Vec::new()),
    hists: Mutex::new(Vec::new()),
};

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
        self.register();
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value (0 until armed and touched).
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            REGISTRY
                .counters
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(self);
        }
    }
}

/// A histogram over `u64` samples with log2 buckets (65 fixed buckets,
/// so recording is allocation-free and lock-free).
pub struct Hist {
    name: &'static str,
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    registered: AtomicBool,
}

/// Bucket index for a sample: 0 holds the value 0, bucket `i` holds
/// `2^(i-1) ..= 2^i - 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (saturates at `u64::MAX`).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Inclusive lower bound of bucket `i`: 0, then `2^(i-1)`. Together
/// with [`bucket_upper`] this pins the edge values down exactly —
/// sample 0 lands alone in bucket 0 (`[0, 0]`) and `u64::MAX` in the
/// last bucket (`[2^63, u64::MAX]`); neither shifts a neighbour.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        1u64 << 63
    } else {
        1u64 << (i - 1)
    }
}

/// q-th percentile (`q` in `[0, 1]`) over raw bucket counts with
/// linear interpolation inside the winning bucket. Returns 0 for an
/// empty histogram. The interpolation divides only by the winning
/// bucket's own count (non-zero by construction), so a histogram whose
/// samples all share one bucket — or the zero-width buckets `[0,0]`
/// and `[1,1]` — cannot divide by zero.
pub fn percentile_from(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
    // 1-based rank of the sample the percentile asks for.
    let target = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if seen + c >= target {
            let lo = bucket_lower(i);
            let hi = bucket_upper(i);
            if hi == lo {
                return hi;
            }
            let frac = (target - seen) as f64 / c as f64;
            return lo + ((hi - lo) as f64 * frac) as u64;
        }
        seen += c;
    }
    bucket_upper(counts.len().saturating_sub(1))
}

impl Hist {
    /// Create an unregistered histogram (const, for statics).
    pub const fn new(name: &'static str) -> Self {
        Hist {
            name,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            registered: AtomicBool::new(false),
        }
    }

    /// Record one sample. No-op unless telemetry is armed.
    #[inline]
    pub fn record(&'static self, v: u64) {
        if !crate::enabled() {
            return;
        }
        self.register();
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// q-th percentile of recorded samples with interpolation inside
    /// the winning log2 bucket (see [`percentile_from`]).
    pub fn percentile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        percentile_from(&counts, q)
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded samples (wrapping on overflow, telemetry-only).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Snapshot of non-empty buckets as `(inclusive_upper, count)`.
    pub fn snapshot(&self) -> Vec<(u64, u64)> {
        (0..BUCKETS)
            .filter_map(|i| {
                let c = self.buckets[i].load(Ordering::Relaxed);
                (c > 0).then_some((bucket_upper(i), c))
            })
            .collect()
    }

    fn register(&'static self) {
        if !self.registered.load(Ordering::Relaxed)
            && !self.registered.swap(true, Ordering::Relaxed)
        {
            REGISTRY
                .hists
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(self);
        }
    }
}

/// Copy every registered counter and histogram into the profile `p`.
/// The maps order them by name, so the profile is independent of
/// registration order.
pub(crate) fn snapshot_into(p: &mut Profile) {
    for c in REGISTRY
        .counters
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        p.counters.insert(c.name.to_string(), c.value());
    }
    for h in REGISTRY
        .hists
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .iter()
    {
        p.hists.insert(
            h.name.to_string(),
            ProfHist {
                count: h.count(),
                sum: h.sum(),
                p50: h.percentile(0.50) as f64,
                p90: h.percentile(0.90) as f64,
                p99: h.percentile(0.99) as f64,
                buckets: h.snapshot(),
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_upper_matches_index() {
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(3), 7);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Every value lands in the bucket whose upper bound contains it.
        for v in [0u64, 1, 2, 3, 5, 1000, 1 << 40] {
            assert!(v <= bucket_upper(bucket_index(v)));
        }
    }

    #[test]
    fn extreme_samples_land_in_well_defined_edge_buckets() {
        // Regression: 0 and u64::MAX must map inside the fixed bucket
        // array with consistent [lower, upper] bounds, not out of range.
        assert_eq!(bucket_index(0), 0);
        assert!(bucket_index(0) < BUCKETS);
        assert_eq!((bucket_lower(0), bucket_upper(0)), (0, 0));
        assert_eq!(bucket_index(u64::MAX), 64);
        assert!(bucket_index(u64::MAX) < BUCKETS);
        assert_eq!(bucket_lower(64), 1u64 << 63);
        assert_eq!(bucket_upper(64), u64::MAX);
        // Bounds nest cleanly: each bucket starts one past the last.
        for i in 1..BUCKETS {
            assert_eq!(bucket_lower(i), bucket_upper(i - 1) + 1, "bucket {i}");
        }
    }

    #[test]
    fn percentile_interpolates_without_dividing_by_zero() {
        // A single-bucket histogram is the classic divide-by-zero
        // hazard for interpolating percentiles (no second bucket to
        // span); here the divisor is the winning bucket's own non-zero
        // count. All 10 samples in bucket 4 ([8, 15]):
        let mut counts = vec![0u64; BUCKETS];
        counts[4] = 10;
        let p50 = percentile_from(&counts, 0.50);
        assert!((8..=15).contains(&p50), "p50 = {p50}");
        assert!(percentile_from(&counts, 0.0) >= 8);
        assert_eq!(percentile_from(&counts, 1.0), 15);

        // Zero-width buckets return their exact value.
        let mut zeros = vec![0u64; BUCKETS];
        zeros[0] = 7;
        assert_eq!(percentile_from(&zeros, 0.5), 0);
        let mut ones = vec![0u64; BUCKETS];
        ones[1] = 3;
        assert_eq!(percentile_from(&ones, 0.99), 1);

        // Empty histogram: defined (0), not NaN or a panic.
        assert_eq!(percentile_from(&vec![0u64; BUCKETS], 0.5), 0);

        // u64::MAX samples: last bucket, no overflow in interpolation.
        let mut top = vec![0u64; BUCKETS];
        top[64] = 2;
        let p = percentile_from(&top, 0.5);
        assert!(p >= 1u64 << 63);

        // Interpolation is monotone in q across a two-bucket split.
        let mut two = vec![0u64; BUCKETS];
        two[3] = 5; // [4, 7]
        two[5] = 5; // [16, 31]
        let lo = percentile_from(&two, 0.25);
        let hi = percentile_from(&two, 0.75);
        assert!((4..=7).contains(&lo), "q25 = {lo}");
        assert!((16..=31).contains(&hi), "q75 = {hi}");
        // NaN q is defined as the minimum, not a panic.
        assert!(percentile_from(&two, f64::NAN) <= 7);
    }

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
