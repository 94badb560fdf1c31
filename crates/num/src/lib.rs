//! # rfkit-num
//!
//! Numerics substrate for the rfkit RF design suite: complex arithmetic,
//! dense real/complex linear algebra with LU factorization, a radix-2 FFT,
//! polynomial fitting, 1-D interpolation, statistics and RF unit
//! conversions.
//!
//! Everything is written from scratch on top of `std` so the rest of the
//! suite has a single, well-tested numerical foundation.
//!
//! ## Example
//!
//! ```
//! use rfkit_num::{Complex, CMatrix};
//!
//! // Solve a small complex system, the core operation of AC circuit analysis.
//! let a = CMatrix::from_rows(&[
//!     &[Complex::new(2.0, 1.0), Complex::new(0.0, -1.0)],
//!     &[Complex::new(1.0, 0.0), Complex::new(3.0, 2.0)],
//! ]);
//! let b = [Complex::ONE, Complex::I];
//! let x = a.solve(&b)?;
//! let r = a.matvec(&x);
//! assert!((r[0] - b[0]).abs() < 1e-12);
//! # Ok::<(), rfkit_num::MatrixError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod complex;
pub mod fft;
pub mod interp;
pub mod lstsq;
mod matrix;
pub mod memo;
#[cfg(feature = "numsan")]
pub mod numsan;
mod poly;
pub mod rng;
pub mod sketch;
pub mod stats;
pub mod units;

pub use complex::Complex;
pub use lstsq::{ridge_solve, Normalizer};
pub use matrix::{CMatrix, Lu, LuWorkspace, Matrix, MatrixError, RMatrix, Scalar};
pub use memo::{Fetched, MemoMap};
pub use poly::{line_intersection, Polynomial};
pub use sketch::QuantileSketch;

/// Total-order comparator for `f64`, for use as a sort/search comparator.
///
/// Wraps [`f64::total_cmp`]: every pair of values — including NaNs and
/// signed zeros — has a defined, deterministic ordering (−NaN < −∞ < … <
/// −0.0 < +0.0 < … < +∞ < +NaN), so `sort_by(total_cmp_f64)` can never
/// panic or produce an ordering that depends on input permutation the way
/// `partial_cmp().unwrap()` does. This is the comparator the
/// `nan-unsafe-sort` lint in `rfkit-analyze` asks for.
///
/// # Examples
///
/// ```
/// let mut v = vec![3.0, f64::NAN, 1.0];
/// v.sort_by(rfkit_num::total_cmp_f64);
/// assert_eq!(v[0], 1.0);
/// assert_eq!(v[1], 3.0);
/// assert!(v[2].is_nan()); // NaN sorts last, deterministically
/// ```
#[inline]
pub fn total_cmp_f64(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.total_cmp(b)
}

/// True iff `x` is exactly `+0.0` or `-0.0`, tested at the bit level.
///
/// Use this instead of `x == 0.0` for intentional exact-zero guards
/// (singular pivots, open-circuit branches): it states the intent, never
/// matches NaN, and keeps the `float-eq` lint quiet without a suppression.
///
/// # Examples
///
/// ```
/// assert!(rfkit_num::is_exact_zero(0.0));
/// assert!(rfkit_num::is_exact_zero(-0.0));
/// assert!(!rfkit_num::is_exact_zero(f64::MIN_POSITIVE));
/// assert!(!rfkit_num::is_exact_zero(f64::NAN));
/// ```
#[inline]
pub fn is_exact_zero(x: f64) -> bool {
    x.abs().to_bits() == 0
}

/// Linearly spaced grid of `n` points from `start` to `stop` inclusive.
///
/// # Panics
///
/// Panics if `n == 0`.
///
/// # Examples
///
/// ```
/// let g = rfkit_num::linspace(0.0, 1.0, 5);
/// assert_eq!(g, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
/// ```
pub fn linspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(n > 0, "linspace requires at least one point");
    if n == 1 {
        return vec![start];
    }
    let step = (stop - start) / (n - 1) as f64;
    (0..n).map(|i| start + step * i as f64).collect()
}

/// Logarithmically spaced grid of `n` points from `start` to `stop`
/// inclusive (both must be positive).
///
/// # Panics
///
/// Panics if `n == 0` or either bound is non-positive.
pub fn logspace(start: f64, stop: f64, n: usize) -> Vec<f64> {
    assert!(
        start > 0.0 && stop > 0.0,
        "logspace bounds must be positive"
    );
    linspace(start.ln(), stop.ln(), n)
        .into_iter()
        .map(f64::exp)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linspace_endpoints_and_spacing() {
        let g = linspace(1.0, 2.0, 11);
        assert_eq!(g.len(), 11);
        assert_eq!(g[0], 1.0);
        assert_eq!(g[10], 2.0);
        assert!((g[1] - 1.1).abs() < 1e-12);
    }

    #[test]
    fn linspace_single_point() {
        assert_eq!(linspace(3.0, 9.0, 1), vec![3.0]);
    }

    #[test]
    fn logspace_is_geometric() {
        let g = logspace(1.0, 100.0, 3);
        assert!((g[0] - 1.0).abs() < 1e-12);
        assert!((g[1] - 10.0).abs() < 1e-9);
        assert!((g[2] - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn logspace_rejects_zero() {
        logspace(0.0, 1.0, 3);
    }

    #[test]
    fn total_cmp_orders_nan_and_zeros_deterministically() {
        let mut v = [f64::NAN, 1.0, -f64::INFINITY, 0.0, -0.0, -1.0];
        v.sort_by(total_cmp_f64);
        assert_eq!(v[0], -f64::INFINITY);
        assert_eq!(v[1], -1.0);
        assert!(v[2].is_sign_negative() && is_exact_zero(v[2])); // -0.0 before +0.0
        assert!(v[3].is_sign_positive() && is_exact_zero(v[3]));
        assert_eq!(v[4], 1.0);
        assert!(v[5].is_nan());
    }

    #[test]
    fn exact_zero_is_bitwise() {
        assert!(is_exact_zero(0.0));
        assert!(is_exact_zero(-0.0));
        assert!(!is_exact_zero(5e-324)); // smallest subnormal
        assert!(!is_exact_zero(f64::NAN));
        assert!(!is_exact_zero(f64::INFINITY));
    }
}
