//! Deterministic mergeable quantile sketch over non-negative samples.
//!
//! The classic streaming-quantile structures (P², Greenwald–Khanna)
//! produce summaries whose contents depend on arrival *order*, which
//! breaks the workspace determinism contract the moment per-worker
//! sketches are merged in pool-completion order. [`QuantileSketch`]
//! instead uses log-linear buckets in the style of DDSketch: a sample
//! maps to a bucket keyed by its binary exponent plus the top
//! [`SUB_BITS`] mantissa bits, and a bucket is just a count. Recording
//! is a pure bucket increment and [`merge`](QuantileSketch::merge) is a
//! bucket-wise add, so the structure is exactly associative *and*
//! commutative: any merge order of any partition of a stream yields the
//! same sketch as ingesting the stream whole. The price is a bounded
//! relative error on reported quantile values (at most 1/32 with 16
//! sub-buckets per octave) instead of a rank guarantee.
//!
//! The observability layer folds span durations and histogram samples
//! into these sketches in aggregate-profile mode, and `bench_serve`
//! summarizes its request latencies with them; both rely on the
//! merge-determinism property pinned by `tests/sketch_merge.rs`.

use std::collections::BTreeMap;

/// Mantissa bits per bucket key: 16 sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Sub-buckets per octave (`2^SUB_BITS`).
pub const SUBS: i64 = 1 << SUB_BITS;

/// A mergeable log-linear quantile sketch over samples `>= 0`.
///
/// Zero samples are counted exactly in a dedicated slot; positive
/// samples land in log-linear buckets. Non-finite samples are ignored
/// (telemetry must never poison the summary with a NaN). Negative
/// samples clamp to the zero slot — the instruments feeding this type
/// measure durations and magnitudes, where a negative value is already
/// a bug upstream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuantileSketch {
    zeros: u64,
    buckets: BTreeMap<i64, u64>,
}

/// Bucket key of a positive finite sample: binary exponent scaled by
/// [`SUBS`] plus the top mantissa bits. Monotone in `v`.
fn key_of(v: f64) -> i64 {
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64;
    let sub = ((bits >> (52 - SUB_BITS)) & (SUBS as u64 - 1)) as i64;
    // Subnormals (exp 0) collapse into the lowest normal octave; they
    // are below any duration this workspace measures.
    exp * SUBS + sub
}

/// Lower edge of bucket `key` (inverse of [`key_of`] up to bucket width).
fn lower_of(key: i64) -> f64 {
    let exp = (key.div_euclid(SUBS)).clamp(1, 0x7fe) as u64;
    let sub = key.rem_euclid(SUBS) as u64;
    f64::from_bits((exp << 52) | (sub << (52 - SUB_BITS)))
}

/// Upper edge of bucket `key`.
fn upper_of(key: i64) -> f64 {
    lower_of(key + 1)
}

impl QuantileSketch {
    /// An empty sketch. `const`, so a sketch can sit in a `static`.
    pub const fn new() -> Self {
        QuantileSketch {
            zeros: 0,
            buckets: BTreeMap::new(),
        }
    }

    /// Record one sample. `O(log buckets)`; NaN and infinities are
    /// dropped, values `<= 0` count into the exact zero slot.
    pub fn record(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        if v <= 0.0 {
            self.zeros += 1;
            return;
        }
        *self.buckets.entry(key_of(v)).or_insert(0) += 1;
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.zeros + self.buckets.values().sum::<u64>()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Fold `other` into `self` (bucket-wise add). Exactly associative
    /// and commutative: any merge tree over a partition of a stream
    /// equals ingesting the stream whole.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.zeros += other.zeros;
        for (&k, &c) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += c;
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`: the midpoint of the bucket
    /// holding the nearest-rank sample, so the estimate is within half a
    /// bucket width, at most 1/32 relative, of that sample. Returns 0
    /// for an empty sketch.
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * n as f64).ceil().max(1.0) as u64;
        if target <= self.zeros {
            return 0.0;
        }
        let mut seen = self.zeros;
        for (&k, &c) in &self.buckets {
            seen += c;
            if seen >= target {
                return 0.5 * (lower_of(k) + upper_of(k));
            }
        }
        // Unreachable with a consistent count; fall back to the top
        // bucket rather than panicking inside telemetry.
        self.buckets
            .iter()
            .next_back()
            .map(|(&k, _)| 0.5 * (lower_of(k) + upper_of(k)))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_bracket_their_samples() {
        for v in [1e-9, 0.5, 1.0, 3.7, 1024.0, 9.99e17] {
            let k = key_of(v);
            assert!(lower_of(k) <= v && v < upper_of(k), "v={v} key={k}");
        }
    }

    #[test]
    fn quantiles_have_bounded_relative_error() {
        let mut s = QuantileSketch::new();
        for i in 1..=10_000u64 {
            s.record(i as f64);
        }
        assert_eq!(s.count(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.9, 9_000.0), (0.99, 9_900.0)] {
            let got = s.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.05, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
    }

    #[test]
    fn zeros_negatives_and_nonfinite() {
        let mut s = QuantileSketch::new();
        s.record(0.0);
        s.record(-3.0);
        s.record(f64::NAN);
        s.record(f64::INFINITY);
        assert_eq!(s.count(), 2);
        let mut two_zeros = QuantileSketch::new();
        two_zeros.record(0.0);
        two_zeros.record(0.0);
        assert_eq!(s, two_zeros);
        assert!(s.quantile(0.99).abs() < f64::EPSILON);
    }

    #[test]
    fn merge_equals_whole_stream() {
        let mut whole = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for i in 0..1000u64 {
            let v = (i as f64) * 0.37 + 0.01;
            whole.record(v);
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn empty_sketch_is_inert() {
        let s = QuantileSketch::new();
        assert!(s.is_empty());
        assert!(s.quantile(0.5).abs() < f64::EPSILON);
    }
}
