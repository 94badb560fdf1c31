//! Response-surface model fitted from true-evaluated design points.
//!
//! A Gaussian radial-basis interpolant with a data-scaled shape
//! parameter and a ridge-damped diagonal, mean-offset so it relaxes to
//! the training mean far from the data. All objectives share one kernel
//! matrix: the LU factorization is computed once and reused per
//! objective column, mirroring how the AC engine reuses pivots across
//! right-hand sides.
//!
//! The RBF is the one model because it localizes the study's
//! feasibility cliff: away from feasible training points its predictions
//! relax to the penalty plateau. A global quadratic trend fit, run as
//! the study's screen, was cheaper but smeared that cliff: its screened
//! front collapsed to zero hypervolume on the warm-cache study test.
//!
//! Inputs are mapped through [`Normalizer`] onto `[-1, 1]^d` before any
//! distance is taken — the volts-next-to-farads conditioning fix pinned
//! by the regression tests in `rfkit_num::lstsq`.

use rfkit_num::lstsq::Normalizer;
use rfkit_num::{MatrixError, RMatrix};

/// A fitted multi-objective response surface.
///
/// Produced by [`ResponseSurface::fit`]; immutable afterwards. Predicts
/// all objectives of a raw (unnormalized) design point, and exposes the
/// per-objective robust training spread that the screening layer scales
/// its improvement threshold by.
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    norm: Normalizer,
    n_obj: usize,
    /// Per-objective kernel weights, one per center.
    weights: Vec<Vec<f64>>,
    /// Normalized training points: the kernel centers.
    centers: Vec<Vec<f64>>,
    /// Per-objective training mean the RBF relaxes to far from the
    /// data (kernel weights are fitted on mean-centered values).
    offsets: Vec<f64>,
    gamma: f64,
    robust_spread: Vec<f64>,
}

impl ResponseSurface {
    /// Minimum number of training points for a meaningful fit over `d`
    /// input dimensions.
    pub fn min_train_points(d: usize) -> usize {
        (3 * d).max(10)
    }

    /// Fits a surface to true-evaluated samples: `xs[i]` is a raw design
    /// point, `fs[i]` its objective vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Singular`] when the (ridge-regularized)
    /// kernel cannot be factored — e.g. all training points coincide.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or rows have inconsistent lengths.
    pub fn fit(xs: &[Vec<f64>], fs: &[Vec<f64>], ridge: f64) -> Result<Self, MatrixError> {
        assert_eq!(xs.len(), fs.len(), "need one objective row per point");
        assert!(!xs.is_empty(), "need at least one training point");
        let n_obj = fs[0].len();
        assert!(n_obj > 0, "need at least one objective");
        let norm = Normalizer::from_samples(xs);
        let us: Vec<Vec<f64>> = xs.iter().map(|x| norm.normalize(x)).collect();
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|j| fs.iter().map(|f| f[j]).collect())
            .collect();
        let n = us.len();
        // Shape parameter from the mean pairwise squared distance so the
        // kernel width tracks the data cloud. Each pair's distance waits
        // in the kernel's upper triangle until γ is known.
        let mut k = RMatrix::zeros(n, n);
        let mut sum_d2 = 0.0;
        let mut pairs = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                let d2 = sq_dist(&us[i], &us[j]);
                k[(i, j)] = d2;
                sum_d2 += d2;
                pairs += 1;
            }
        }
        let mean_d2 = if pairs == 0 {
            0.0
        } else {
            sum_d2 / pairs as f64
        };
        if !mean_d2.is_finite() || mean_d2 <= 0.0 {
            return Err(MatrixError::Singular { pivot: 0 });
        }
        let gamma = 1.0 / mean_d2;
        // The kernel is symmetric with diagonal exp(−γ·0) = 1: one `exp`
        // per pair, mirrored into the lower triangle. With a unit
        // diagonal, `ridge` is a dimensionless damping of the
        // interpolation system.
        for i in 0..n {
            k[(i, i)] = 1.0 + ridge;
            for j in (i + 1)..n {
                let v = (-gamma * k[(i, j)]).exp();
                k[(i, j)] = v;
                k[(j, i)] = v;
            }
        }
        let lu = k.lu()?;
        // Fit kernel weights on mean-centered objectives: a bare Gaussian
        // expansion decays to zero away from the data, and "zero" is an
        // arbitrary (often flattering) value in objective units.
        // Centering makes the far-field prediction the training mean
        // instead — the honest no-information answer.
        let offsets: Vec<f64> = ys
            .iter()
            .map(|y| y.iter().sum::<f64>() / y.len() as f64)
            .collect();
        let weights: Vec<Vec<f64>> = ys
            .iter()
            .zip(&offsets)
            .map(|(y, m)| {
                let centered: Vec<f64> = y.iter().map(|v| v - m).collect();
                lu.solve(&centered)
            })
            .collect();
        // Robust spread: half the interquartile range. When a minority
        // of training rows sit on a penalty plateau far from the regular
        // values (infeasible-design encodings), the full spread explodes
        // while the IQR keeps tracking the scale on which real candidates
        // are compared.
        let robust_spread = ys
            .into_iter()
            .map(|mut sorted| {
                sorted.sort_by(rfkit_num::total_cmp_f64);
                let q25 = sorted[sorted.len() / 4];
                let q75 = sorted[(3 * sorted.len()) / 4];
                0.5 * (q75 - q25)
            })
            .collect();
        Ok(ResponseSurface {
            norm,
            n_obj,
            weights,
            centers: us,
            offsets,
            gamma,
            robust_spread,
        })
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.norm.dim()
    }

    /// Number of objectives predicted per point.
    pub fn n_obj(&self) -> usize {
        self.n_obj
    }

    /// Per-objective robust spread (half the interquartile range) of the
    /// training objectives. It ignores minority outliers — penalty
    /// plateaus in particular — so it measures the scale on which
    /// ordinary candidates differ.
    pub fn robust_spread(&self) -> &[f64] {
        &self.robust_spread
    }

    /// Predicts all objectives of a raw design point (allocating).
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_obj];
        self.predict_into(x, &mut out);
        out
    }

    /// Predicts all objectives of a raw design point into `out`: the
    /// training mean plus the weighted kernel row, per objective. One
    /// kernel row (the kernel value against every center) serves every
    /// objective.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `out.len() != self.n_obj()`.
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_obj, "objective count mismatch");
        let u = self.norm.normalize(x);
        let row: Vec<f64> = self
            .centers
            .iter()
            .map(|c| (-self.gamma * sq_dist(&u, c)).exp())
            .collect();
        for ((o, w), m) in out.iter_mut().zip(&self.weights).zip(&self.offsets) {
            *o = m + row.iter().zip(w).map(|(k, wi)| k * wi).sum::<f64>();
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(x: &[f64]) -> Vec<f64> {
        // Two objectives with curvature and an interaction term, on
        // volts-vs-farads scales.
        let v = x[0];
        let c = x[1] / 1e-12;
        vec![
            1.5 + 0.4 * (v - 2.5) * (v - 2.5) + 0.1 * c - 0.05 * v * c,
            -10.0 + 0.8 * v + 0.3 * (c - 5.0) * (c - 5.0),
        ]
    }

    fn training_grid() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs = Vec::new();
        for i in 0..9 {
            for j in 0..9 {
                xs.push(vec![1.5 + 0.3 * i as f64, (0.5 + 1.4 * j as f64) * 1e-12]);
            }
        }
        let fs = xs.iter().map(|x| truth(x)).collect();
        (xs, fs)
    }

    #[test]
    fn rbf_interpolates_training_points() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(&xs, &fs, 1e-8).unwrap();
        assert_eq!(m.n_obj(), 2);
        let p = m.predict(&xs[40]);
        assert!((p[0] - fs[40][0]).abs() < 1e-3, "{} vs {}", p[0], fs[40][0]);
        assert!((p[1] - fs[40][1]).abs() < 1e-3, "{} vs {}", p[1], fs[40][1]);
    }

    #[test]
    fn rbf_far_field_relaxes_to_training_mean() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(&xs, &fs, 1e-8).unwrap();
        let mean: Vec<f64> = (0..2)
            .map(|j| fs.iter().map(|f| f[j]).sum::<f64>() / fs.len() as f64)
            .collect();
        // A probe far outside the training cloud must not collapse to
        // zero (an arbitrary value in objective units) but to the mean.
        let p = m.predict(&[1e3, 1e-9]);
        assert!((p[0] - mean[0]).abs() < 1e-6, "{} vs {}", p[0], mean[0]);
        assert!((p[1] - mean[1]).abs() < 1e-6, "{} vs {}", p[1], mean[1]);
    }

    #[test]
    fn coincident_points_are_singular_not_panic() {
        let xs = vec![vec![1.0, 2.0]; 12];
        let fs = vec![vec![3.0]; 12];
        assert!(ResponseSurface::fit(&xs, &fs, 0.0).is_err());
    }

    /// Training points or objective rows, one vector per sample.
    type Rows = Vec<Vec<f64>>;

    /// Seeded 7-variable training set of `n` rows on the design
    /// variables' mixed physical scales, with exact duplicate rows and a
    /// minority of rows on an infeasibility penalty plateau.
    fn messy_training(seed: u64, n: usize) -> (Rows, Rows) {
        const PENALTY: f64 = 1e3;
        let lo = [2.0, 0.01, 1e-9, 0.1e-9, 1e-9, 0.5e-12, 10.0];
        let hi = [4.0, 0.08, 20e-9, 1.5e-9, 30e-9, 10e-12, 100.0];
        let mut rng = rfkit_num::rng::Rng64::new(seed);
        let mut xs: Rows = Vec::with_capacity(n);
        let mut fs: Rows = Vec::with_capacity(n);
        while xs.len() < n {
            if xs.len() >= 2 && rng.chance(0.1) {
                let k = rng.index(xs.len());
                xs.push(xs[k].clone());
                fs.push(fs[k].clone());
                continue;
            }
            let x: Vec<f64> = lo
                .iter()
                .zip(&hi)
                .map(|(l, h)| rng.uniform(*l, *h))
                .collect();
            let f = if rng.chance(0.2) {
                vec![PENALTY, PENALTY]
            } else {
                let t: Vec<f64> = x
                    .iter()
                    .zip(lo.iter().zip(&hi))
                    .map(|(v, (l, h))| (v - l) / (h - l))
                    .collect();
                vec![
                    0.5 + t[0] * t[1] + (3.0 * t[2]).sin() + 0.2 * t[6],
                    -12.0 + 4.0 * t[3] * t[3] - t[4] + t[5] * t[0],
                ]
            };
            xs.push(x);
            fs.push(f);
        }
        (xs, fs)
    }

    #[test]
    fn rbf_fused_prediction_is_bit_identical_to_separate_kernel_rows() {
        // ~50 seeded fits, sized from the minimum up to 256 points (twice
        // the screen's training window).
        let n_min = ResponseSurface::min_train_points(7);
        let mut rng = rfkit_num::rng::Rng64::new(77);
        for s in 0..50u64 {
            let n = n_min + (s as usize * (256 - n_min)) / 49;
            let (xs, fs) = messy_training(0x5eed + s, n);
            let m = ResponseSurface::fit(&xs, &fs, 1e-6).unwrap();
            let mut probes: Vec<Vec<f64>> = xs.iter().step_by(7).cloned().collect();
            for _ in 0..8 {
                let k = rng.index(xs.len());
                probes.push(xs[k].iter().map(|v| v * rng.uniform(0.7, 1.3)).collect());
            }
            for x in &probes {
                let mut fused = vec![0.0; 2];
                m.predict_into(x, &mut fused);
                // One kernel row per objective: the formula the fused
                // call replaces.
                let u = m.norm.normalize(x);
                for (j, got) in fused.iter().enumerate() {
                    let want = m.offsets[j]
                        + m.centers
                            .iter()
                            .zip(&m.weights[j])
                            .map(|(c, wi)| (-m.gamma * sq_dist(&u, c)).exp() * wi)
                            .sum::<f64>();
                    assert_eq!(got.to_bits(), want.to_bits(), "objective {j} at {x:?}");
                }
            }
        }
    }

    #[test]
    fn min_train_points_scales_with_dimension() {
        assert_eq!(ResponseSurface::min_train_points(2), 10);
        assert_eq!(ResponseSurface::min_train_points(7), 21);
    }
}
