//! Problem definitions shared by every optimizer: box bounds, results and
//! evaluation counting.

use rfkit_num::rng::Rng64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Axis-aligned box bounds for a parameter vector.
///
/// # Examples
///
/// ```
/// use rfkit_opt::Bounds;
/// let b = Bounds::new(vec![0.0, -1.0], vec![1.0, 1.0]).unwrap();
/// assert_eq!(b.clamp(&[2.0, 0.5]), vec![1.0, 0.5]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Bounds {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

/// Error constructing [`Bounds`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundsError {
    /// `lo` and `hi` have different lengths.
    LengthMismatch,
    /// Some `lo[i] > hi[i]`.
    Inverted(usize),
    /// The bounds are empty.
    Empty,
}

impl std::fmt::Display for BoundsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BoundsError::LengthMismatch => write!(f, "lo and hi lengths differ"),
            BoundsError::Inverted(i) => write!(f, "lo > hi at index {i}"),
            BoundsError::Empty => write!(f, "bounds are empty"),
        }
    }
}

impl std::error::Error for BoundsError {}

impl Bounds {
    /// Creates bounds from lower and upper vectors.
    ///
    /// # Errors
    ///
    /// See [`BoundsError`].
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Result<Self, BoundsError> {
        if lo.len() != hi.len() {
            return Err(BoundsError::LengthMismatch);
        }
        if lo.is_empty() {
            return Err(BoundsError::Empty);
        }
        for (i, (l, h)) in lo.iter().zip(&hi).enumerate() {
            if l > h {
                return Err(BoundsError::Inverted(i));
            }
        }
        Ok(Bounds { lo, hi })
    }

    /// The same `[lo, hi]` interval in every dimension.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or `lo > hi`.
    pub fn uniform(dim: usize, lo: f64, hi: f64) -> Self {
        Bounds::new(vec![lo; dim], vec![hi; dim]).expect("valid uniform bounds")
    }

    /// Problem dimensionality.
    pub fn dim(&self) -> usize {
        self.lo.len()
    }

    /// Lower bound vector.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Upper bound vector.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Clamps `x` into the box component-wise.
    pub fn clamp(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(&v, (&l, &h))| v.clamp(l, h))
            .collect()
    }

    /// `true` when `x` lies inside the box (inclusive).
    pub fn contains(&self, x: &[f64]) -> bool {
        x.len() == self.dim()
            && x.iter()
                .zip(self.lo.iter().zip(&self.hi))
                .all(|(&v, (&l, &h))| v >= l && v <= h)
    }

    /// Uniform random point inside the box.
    pub fn sample(&self, rng: &mut Rng64) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| if l == h { l } else { rng.uniform(l, h) })
            .collect()
    }

    /// The box center.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(&l, &h)| 0.5 * (l + h))
            .collect()
    }

    /// Per-dimension span `hi − lo`.
    pub fn span(&self) -> Vec<f64> {
        self.lo.iter().zip(&self.hi).map(|(&l, &h)| h - l).collect()
    }
}

/// Outcome of a scalar optimization run.
#[derive(Debug, Clone, PartialEq)]
pub struct OptResult {
    /// Best point found.
    pub x: Vec<f64>,
    /// Objective value at `x`.
    pub value: f64,
    /// Number of objective evaluations consumed.
    pub evaluations: usize,
    /// Whether the run met its convergence criterion (vs. hitting the
    /// evaluation budget).
    pub converged: bool,
}

/// Wraps an objective closure and counts evaluations — used by the
/// extraction-convergence experiment to plot error versus evaluations.
///
/// Thread-safe so it can sit behind the `Fn + Sync` objective bound the
/// parallel optimizers require: the counter is atomic and the
/// improvement trace sits behind a mutex. Call numbers follow completion
/// order, so the trace is reproducible only when the calls are made
/// serially.
pub struct CountingObjective<F> {
    f: F,
    count: AtomicUsize,
    /// Trace of `(evaluations, best_so_far)` pairs plus the running best,
    /// recorded whenever the best value improves.
    state: Mutex<(Vec<(usize, f64)>, f64)>,
}

impl<F: Fn(&[f64]) -> f64> CountingObjective<F> {
    /// Wraps `f`.
    pub fn new(f: F) -> Self {
        CountingObjective {
            f,
            count: AtomicUsize::new(0),
            state: Mutex::new((Vec::new(), f64::INFINITY)),
        }
    }

    /// Evaluates the wrapped objective, recording the call.
    pub fn eval(&self, x: &[f64]) -> f64 {
        let v = (self.f)(x);
        let n = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        let mut state = self
            .state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if v < state.1 {
            state.1 = v;
            state.0.push((n, v));
        }
        v
    }

    /// Number of evaluations so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Improvement trace as `(evaluations, best_value)` pairs.
    pub fn trace(&self) -> Vec<(usize, f64)> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .0
            .clone()
    }

    /// Best value seen.
    pub fn best(&self) -> f64 {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert_eq!(
            Bounds::new(vec![0.0], vec![1.0, 2.0]).unwrap_err(),
            BoundsError::LengthMismatch
        );
        assert_eq!(
            Bounds::new(vec![2.0], vec![1.0]).unwrap_err(),
            BoundsError::Inverted(0)
        );
        assert_eq!(Bounds::new(vec![], vec![]).unwrap_err(), BoundsError::Empty);
    }

    #[test]
    fn clamp_and_contains() {
        let b = Bounds::uniform(3, -1.0, 1.0);
        assert_eq!(b.clamp(&[-5.0, 0.0, 5.0]), vec![-1.0, 0.0, 1.0]);
        assert!(b.contains(&[0.0, 0.5, -1.0]));
        assert!(!b.contains(&[0.0, 1.5, 0.0]));
        assert!(!b.contains(&[0.0, 0.0])); // wrong dim
    }

    #[test]
    fn sample_stays_inside() {
        let b = Bounds::new(vec![1.0, -10.0, 5.0], vec![2.0, 10.0, 5.0]).unwrap();
        let mut rng = Rng64::new(7);
        for _ in 0..100 {
            let x = b.sample(&mut rng);
            assert!(b.contains(&x), "{x:?}");
        }
    }

    #[test]
    fn degenerate_dimension_sampling() {
        // lo == hi must not panic and must return the fixed value.
        let b = Bounds::new(vec![3.0], vec![3.0]).unwrap();
        let mut rng = Rng64::new(1);
        assert_eq!(b.sample(&mut rng), vec![3.0]);
    }

    #[test]
    fn center_and_span() {
        let b = Bounds::new(vec![0.0, -2.0], vec![4.0, 2.0]).unwrap();
        assert_eq!(b.center(), vec![2.0, 0.0]);
        assert_eq!(b.span(), vec![4.0, 4.0]);
    }

    #[test]
    fn counting_objective_counts_and_traces() {
        let co = CountingObjective::new(|x: &[f64]| x[0] * x[0]);
        assert_eq!(co.eval(&[3.0]), 9.0);
        assert_eq!(co.eval(&[2.0]), 4.0);
        assert_eq!(co.eval(&[5.0]), 25.0); // worse: no trace entry
        assert_eq!(co.count(), 3);
        assert_eq!(co.trace(), vec![(1, 9.0), (2, 4.0)]);
        assert_eq!(co.best(), 4.0);
    }
}
