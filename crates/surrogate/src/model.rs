//! Response-surface models fitted from true-evaluated design points.
//!
//! Two model families, both linear-in-parameters so they ride on the
//! `rfkit-num` ridge least-squares and LU kernels:
//!
//! * [`ModelKind::Quadratic`] — a full second-order polynomial surface
//!   (`1 + d + d(d+1)/2` terms) in normalized coordinates, the classic
//!   response-surface-methodology model. Cheap, smooth, and a good
//!   global trend filter for LNA objectives which are locally bowl- or
//!   ridge-shaped in the design variables.
//! * [`ModelKind::Rbf`] — Gaussian radial-basis interpolation with a
//!   data-scaled shape parameter and ridge-damped diagonal. More
//!   flexible; cost grows with the training window.
//!
//! All objectives share one design/kernel matrix: the factorization is
//! computed once and reused per objective column, mirroring how the AC
//! engine reuses pivots across right-hand sides.
//!
//! Inputs are mapped through [`Normalizer`] onto `[-1, 1]^d` before any
//! basis expansion — the volts-next-to-farads conditioning fix pinned by
//! the regression tests in `rfkit_num::lstsq`.

use rfkit_num::lstsq::{ridge_solve, Normalizer};
use rfkit_num::{MatrixError, RMatrix};

/// Which response-surface family to fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// Full quadratic polynomial surface in normalized coordinates.
    Quadratic,
    /// Gaussian radial-basis interpolant with ridge-damped diagonal.
    Rbf,
}

/// Number of terms in the full quadratic basis over `d` variables.
pub fn n_quad_terms(d: usize) -> usize {
    1 + d + d * (d + 1) / 2
}

/// Expands the full quadratic basis of a normalized point into `out`.
fn quad_terms_into(u: &[f64], out: &mut Vec<f64>) {
    out.clear();
    out.push(1.0);
    out.extend_from_slice(u);
    for i in 0..u.len() {
        for j in i..u.len() {
            out.push(u[i] * u[j]);
        }
    }
}

/// A fitted multi-objective response surface.
///
/// Produced by [`ResponseSurface::fit`]; immutable afterwards. Predicts
/// all objectives of a raw (unnormalized) design point, and exposes the
/// per-objective in-sample residual RMS and training spread that the
/// screening layer turns into a confidence band.
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    kind: ModelKind,
    norm: Normalizer,
    n_obj: usize,
    /// Per-objective weights: basis coefficients (quadratic) or kernel
    /// weights (RBF).
    weights: Vec<Vec<f64>>,
    /// Normalized training points; kernel centers for RBF, empty for
    /// quadratic.
    centers: Vec<Vec<f64>>,
    /// Per-objective training mean the RBF relaxes to far from the
    /// data (kernel weights are fitted on mean-centered values); empty
    /// for quadratic, whose basis carries its own intercept.
    offsets: Vec<f64>,
    gamma: f64,
    sigma: Vec<f64>,
    half_spread: Vec<f64>,
    robust_spread: Vec<f64>,
}

impl ResponseSurface {
    /// Minimum number of training points for a meaningful fit of `kind`
    /// over `d` input dimensions.
    pub fn min_train_points(kind: ModelKind, d: usize) -> usize {
        match kind {
            // Oversample the basis 2x so the LS system is genuinely
            // overdetermined and the residual RMS is meaningful.
            ModelKind::Quadratic => 2 * n_quad_terms(d),
            ModelKind::Rbf => (3 * d).max(10),
        }
    }

    /// Fits a surface of `kind` to true-evaluated samples: `xs[i]` is a
    /// raw design point, `fs[i]` its objective vector.
    ///
    /// # Errors
    ///
    /// Returns [`MatrixError::Singular`] when the (ridge-regularized)
    /// system cannot be factored — e.g. all training points coincide.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, rows have inconsistent lengths,
    /// or `ridge` is negative.
    pub fn fit(
        kind: ModelKind,
        xs: &[Vec<f64>],
        fs: &[Vec<f64>],
        ridge: f64,
    ) -> Result<ResponseSurface, MatrixError> {
        assert_eq!(xs.len(), fs.len(), "need one objective row per point");
        assert!(!xs.is_empty(), "need at least one training point");
        let n_obj = fs[0].len();
        assert!(n_obj > 0, "need at least one objective");
        let norm = Normalizer::from_samples(xs);
        let us: Vec<Vec<f64>> = xs.iter().map(|x| norm.normalize(x)).collect();
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|j| fs.iter().map(|f| f[j]).collect())
            .collect();
        // Each arm also returns the in-sample prediction at every
        // training point, for the residual pass below.
        let (mut surface, fitted): (ResponseSurface, Vec<Vec<f64>>) = match kind {
            ModelKind::Quadratic => {
                let m = n_quad_terms(norm.dim());
                let rows: Vec<Vec<f64>> = us
                    .iter()
                    .map(|u| {
                        let mut row = Vec::with_capacity(m);
                        quad_terms_into(u, &mut row);
                        row
                    })
                    .collect();
                let a = RMatrix::from_fn(us.len(), m, |i, j| rows[i][j]);
                let weights = ridge_solve(&a, &ys, ridge)?;
                let surface = ResponseSurface {
                    kind,
                    norm,
                    n_obj,
                    weights,
                    centers: Vec::new(),
                    offsets: Vec::new(),
                    gamma: 0.0,
                    sigma: vec![0.0; n_obj],
                    half_spread: vec![0.0; n_obj],
                    robust_spread: vec![0.0; n_obj],
                };
                let fitted = xs.iter().map(|x| surface.predict(x)).collect();
                (surface, fitted)
            }
            ModelKind::Rbf => {
                let n = us.len();
                // Shape parameter from the mean pairwise squared
                // distance so the kernel width tracks the data cloud.
                // Each pair's distance waits in the kernel's upper
                // triangle until γ is known.
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
                // The kernel is symmetric with diagonal exp(−γ·0) = 1:
                // one `exp` per pair, mirrored into the lower triangle.
                for i in 0..n {
                    k[(i, i)] = 1.0;
                    for j in (i + 1)..n {
                        let v = (-gamma * k[(i, j)]).exp();
                        k[(i, j)] = v;
                        k[(j, i)] = v;
                    }
                }
                // Kernel diagonal is exactly 1, so `ridge` is already a
                // dimensionless damping of the interpolation system.
                for i in 0..n {
                    k[(i, i)] += ridge;
                }
                let lu = k.lu()?;
                // Fit kernel weights on mean-centered objectives: a bare
                // Gaussian expansion decays to zero away from the data,
                // and "zero" is an arbitrary (often flattering) value in
                // objective units. Centering makes the far-field
                // prediction the training mean instead — the honest
                // no-information answer.
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
                // Without its ridge, row i of the kernel is exactly the
                // kernel row `predict_into` computes at training point i.
                for i in 0..n {
                    k[(i, i)] = 1.0;
                }
                let surface = ResponseSurface {
                    kind,
                    norm,
                    n_obj,
                    weights,
                    centers: us,
                    offsets,
                    gamma,
                    sigma: vec![0.0; n_obj],
                    half_spread: vec![0.0; n_obj],
                    robust_spread: vec![0.0; n_obj],
                };
                let fitted = (0..n)
                    .map(|i| {
                        let mut pred = vec![0.0; n_obj];
                        surface.combine_kernel_row(k.row(i), &mut pred);
                        pred
                    })
                    .collect();
                (surface, fitted)
            }
        };
        // In-sample residual RMS and training spread per objective: the
        // raw material for the screening layer's confidence band.
        let mut sq_sum = vec![0.0; n_obj];
        let mut lo = vec![f64::INFINITY; n_obj];
        let mut hi = vec![f64::NEG_INFINITY; n_obj];
        for (pred, f) in fitted.iter().zip(fs) {
            for j in 0..n_obj {
                let r = pred[j] - f[j];
                sq_sum[j] += r * r;
                lo[j] = lo[j].min(f[j]);
                hi[j] = hi[j].max(f[j]);
            }
        }
        for j in 0..n_obj {
            surface.sigma[j] = (sq_sum[j] / xs.len() as f64).sqrt();
            surface.half_spread[j] = 0.5 * (hi[j] - lo[j]);
            // Robust spread: half the interquartile range. When a
            // minority of training rows sit on a penalty plateau far
            // from the regular values (infeasible-design encodings),
            // the full spread explodes while the IQR keeps tracking the
            // scale on which real candidates are compared.
            let mut sorted = ys[j].clone();
            sorted.sort_by(rfkit_num::total_cmp_f64);
            let q25 = sorted[sorted.len() / 4];
            let q75 = sorted[(3 * sorted.len()) / 4];
            surface.robust_spread[j] = 0.5 * (q75 - q25);
        }
        Ok(surface)
    }

    /// Model family of this surface.
    pub fn kind(&self) -> ModelKind {
        self.kind
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.norm.dim()
    }

    /// Number of objectives predicted per point.
    pub fn n_obj(&self) -> usize {
        self.n_obj
    }

    /// Per-objective in-sample residual RMS of the fit.
    pub fn sigma(&self) -> &[f64] {
        &self.sigma
    }

    /// Per-objective half-spread (half of max − min) of the training
    /// objectives; a scale reference for confidence floors.
    pub fn half_spread(&self) -> &[f64] {
        &self.half_spread
    }

    /// Per-objective robust spread (half the interquartile range) of
    /// the training objectives. Unlike [`half_spread`](Self::half_spread)
    /// this ignores minority outliers — penalty plateaus in particular —
    /// so it measures the scale on which ordinary candidates differ.
    pub fn robust_spread(&self) -> &[f64] {
        &self.robust_spread
    }

    /// Predicts all objectives of a raw design point (allocating).
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_obj];
        self.predict_into(x, &mut out);
        out
    }

    /// Predicts all objectives of a raw design point into `out` and
    /// returns the data support of that prediction.
    ///
    /// Support lies in `[0, 1]`: how close the point sits to the
    /// training cloud on the model's own length scale. For the RBF it is
    /// the largest kernel value against any center (1 at a training
    /// point, → 0 far away); the quadratic is a global trend fit and
    /// always reports full support. Screening layers widen their
    /// confidence band as support drops. The RBF computes one kernel row
    /// for both the predictions and the support.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `out.len() != self.n_obj()`.
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.n_obj, "objective count mismatch");
        let u = self.norm.normalize(x);
        match self.kind {
            ModelKind::Quadratic => {
                let mut terms = Vec::with_capacity(n_quad_terms(u.len()));
                quad_terms_into(&u, &mut terms);
                for (o, w) in out.iter_mut().zip(&self.weights) {
                    *o = terms.iter().zip(w).map(|(t, c)| t * c).sum();
                }
                1.0
            }
            ModelKind::Rbf => {
                let row: Vec<f64> = self
                    .centers
                    .iter()
                    .map(|c| (-self.gamma * sq_dist(&u, c)).exp())
                    .collect();
                self.combine_kernel_row(&row, out);
                row.iter().copied().fold(0.0, f64::max)
            }
        }
    }

    /// RBF predictions from one kernel row (the kernel value against
    /// every center, in center order): the training mean plus the
    /// weighted row sum, per objective.
    fn combine_kernel_row(&self, row: &[f64], out: &mut [f64]) {
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
    fn quadratic_recovers_quadratic_truth() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(ModelKind::Quadratic, &xs, &fs, 1e-10).unwrap();
        assert_eq!(m.n_obj(), 2);
        // Truth is itself quadratic: fit must be near-exact, including
        // off the training lattice.
        let probe = vec![2.13, 3.7e-12];
        let p = m.predict(&probe);
        let t = truth(&probe);
        assert!((p[0] - t[0]).abs() < 1e-6, "{} vs {}", p[0], t[0]);
        assert!((p[1] - t[1]).abs() < 1e-6, "{} vs {}", p[1], t[1]);
        // Residual RMS on an exactly-representable truth is ~0.
        assert!(m.sigma()[0] < 1e-6 && m.sigma()[1] < 1e-6);
        assert!(m.half_spread()[0] > 0.0);
    }

    #[test]
    fn rbf_interpolates_training_points() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(ModelKind::Rbf, &xs, &fs, 1e-8).unwrap();
        let p = m.predict(&xs[40]);
        assert!((p[0] - fs[40][0]).abs() < 1e-3, "{} vs {}", p[0], fs[40][0]);
        assert!((p[1] - fs[40][1]).abs() < 1e-3, "{} vs {}", p[1], fs[40][1]);
    }

    #[test]
    fn rbf_far_field_relaxes_to_training_mean() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(ModelKind::Rbf, &xs, &fs, 1e-8).unwrap();
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
        assert!(ResponseSurface::fit(ModelKind::Rbf, &xs, &fs, 0.0).is_err());
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

    /// The ~50 seeded RBF fits the bit-identity tests sweep: sizes from
    /// the RBF minimum up to a full 256-point training window.
    fn messy_fits() -> Vec<(Rows, Rows, ResponseSurface)> {
        let n_min = ResponseSurface::min_train_points(ModelKind::Rbf, 7);
        (0..50u64)
            .map(|s| {
                let n = n_min + (s as usize * (256 - n_min)) / 49;
                let (xs, fs) = messy_training(0x5eed + s, n);
                let m = ResponseSurface::fit(ModelKind::Rbf, &xs, &fs, 1e-6).unwrap();
                (xs, fs, m)
            })
            .collect()
    }

    #[test]
    fn rbf_sigma_is_bit_identical_to_predicting_each_training_point() {
        for (xs, fs, m) in messy_fits() {
            for j in 0..2 {
                let mut sq_sum = 0.0;
                for (x, f) in xs.iter().zip(&fs) {
                    let r = m.predict(x)[j] - f[j];
                    sq_sum += r * r;
                }
                let rms = (sq_sum / xs.len() as f64).sqrt();
                assert_eq!(
                    m.sigma()[j].to_bits(),
                    rms.to_bits(),
                    "n = {}, objective {j}: {} vs {rms}",
                    xs.len(),
                    m.sigma()[j]
                );
            }
        }
    }

    #[test]
    fn rbf_fused_prediction_is_bit_identical_to_separate_kernel_rows() {
        let mut rng = rfkit_num::rng::Rng64::new(77);
        for (xs, _, m) in messy_fits() {
            let mut probes: Vec<Vec<f64>> = xs.iter().step_by(7).cloned().collect();
            for _ in 0..8 {
                let k = rng.index(xs.len());
                probes.push(xs[k].iter().map(|v| v * rng.uniform(0.7, 1.3)).collect());
            }
            for x in &probes {
                let mut fused = vec![0.0; 2];
                let support = m.predict_into(x, &mut fused);
                // One kernel row per objective, then a third for the
                // support: the formulas the fused call replaces.
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
                let want_support = m
                    .centers
                    .iter()
                    .map(|c| (-m.gamma * sq_dist(&u, c)).exp())
                    .fold(0.0, f64::max);
                assert_eq!(
                    support.to_bits(),
                    want_support.to_bits(),
                    "support at {x:?}"
                );
            }
        }
    }

    #[test]
    fn quadratic_reports_full_support() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(ModelKind::Quadratic, &xs, &fs, 1e-10).unwrap();
        let mut out = vec![0.0; 2];
        assert_eq!(m.predict_into(&[1e3, 1e-9], &mut out), 1.0);
    }

    #[test]
    fn min_train_points_scales_with_dimension() {
        assert_eq!(n_quad_terms(7), 36);
        assert_eq!(
            ResponseSurface::min_train_points(ModelKind::Quadratic, 7),
            72
        );
        assert_eq!(ResponseSurface::min_train_points(ModelKind::Rbf, 7), 21);
    }
}
