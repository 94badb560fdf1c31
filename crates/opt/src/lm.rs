//! Levenberg–Marquardt nonlinear least squares.
//!
//! The final "direct" refinement step of the identification procedure fits
//! model parameters to measured residuals; LM is the standard tool. The
//! Jacobian is computed by forward differences, the damping parameter by
//! the usual multiplicative adaptation, and box bounds by projection.

use crate::problem::{Bounds, OptResult};
use rfkit_num::RMatrix;

/// Converge when the relative reduction of the cost falls below this.
const F_TOL: f64 = 1e-12;
/// Converge when the step norm, relative to the bound spans, falls below
/// this.
const X_TOL: f64 = 1e-10;
/// Initial damping parameter λ.
const LAMBDA0: f64 = 1e-3;

/// Configuration for [`levenberg_marquardt`]: the budget. Damping
/// starts at λ = 1e-3.
#[derive(Debug, Clone, PartialEq)]
pub struct LmConfig {
    /// Maximum residual-vector evaluations (Jacobian columns count).
    pub max_evals: usize,
}

impl Default for LmConfig {
    fn default() -> Self {
        LmConfig { max_evals: 2000 }
    }
}

/// Minimizes `0.5·‖r(x)‖²` over the box `bounds` starting at `x0`.
///
/// `residuals` maps a parameter vector to a residual vector of fixed
/// length.
///
/// # Panics
///
/// Panics if `x0.len() != bounds.dim()` or the residual length varies
/// between calls.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{levenberg_marquardt, Bounds, LmConfig};
/// // Fit y = a·exp(b·t) to noiseless data from a=2, b=-1.
/// let t: Vec<f64> = (0..10).map(|i| i as f64 * 0.3).collect();
/// let y: Vec<f64> = t.iter().map(|&ti| 2.0 * (-ti).exp()).collect();
/// let b = Bounds::new(vec![0.1, -5.0], vec![10.0, 0.0]).unwrap();
/// let r = levenberg_marquardt(
///     |p: &[f64]| t.iter().zip(&y).map(|(&ti, &yi)| p[0] * (p[1] * ti).exp() - yi).collect(),
///     &[1.0, -0.5],
///     &b,
///     &LmConfig::default(),
/// );
/// assert!((r.x[0] - 2.0).abs() < 1e-6);
/// assert!((r.x[1] + 1.0).abs() < 1e-6);
/// ```
pub fn levenberg_marquardt(
    mut residuals: impl FnMut(&[f64]) -> Vec<f64>,
    x0: &[f64],
    bounds: &Bounds,
    config: &LmConfig,
) -> OptResult {
    let n = bounds.dim();
    assert_eq!(x0.len(), n, "start point dimension mismatch");
    let span = bounds.span();

    let mut evals = 0usize;
    let mut x = bounds.clamp(x0);
    let mut r = {
        evals += 1;
        residuals(&x)
    };
    let m = r.len();
    let cost = |r: &[f64]| 0.5 * r.iter().map(|v| v * v).sum::<f64>();
    let mut current_cost = cost(&r);
    let mut lambda = LAMBDA0;
    let mut converged = false;
    let mut iteration = 0u64;

    while evals + n < config.max_evals {
        iteration += 1;
        // Forward-difference Jacobian (m×n).
        let mut jac = RMatrix::zeros(m, n);
        for j in 0..n {
            let h = (f64::EPSILON.sqrt() * x[j].abs().max(1e-8 * span[j].max(1e-12))).max(1e-14);
            let mut xp = x.clone();
            // Step inward if at the upper bound.
            let h = if xp[j] + h > bounds.hi()[j] { -h } else { h };
            xp[j] += h;
            evals += 1;
            let rp = residuals(&xp);
            assert_eq!(rp.len(), m, "residual length must not vary");
            for i in 0..m {
                jac[(i, j)] = (rp[i] - r[i]) / h;
            }
        }
        // Normal equations: (JᵀJ + λ·diag(JᵀJ))·δ = −Jᵀr.
        let jt = jac.transpose();
        let jtj = jt.matmul(&jac).expect("dimensions chain");
        let jtr = jt.matvec(&r);
        let mut improved = false;
        for _ in 0..10 {
            let mut a = jtj.clone();
            for d in 0..n {
                let diag = jtj[(d, d)];
                a[(d, d)] = diag + lambda * diag.max(1e-12);
            }
            let delta = match a.solve(&jtr.iter().map(|v| -v).collect::<Vec<_>>()) {
                Ok(d) => d,
                Err(_) => {
                    lambda *= 10.0;
                    continue;
                }
            };
            let x_new = bounds.clamp(
                &x.iter()
                    .zip(&delta)
                    .map(|(xi, di)| xi + di)
                    .collect::<Vec<_>>(),
            );
            if evals >= config.max_evals {
                break;
            }
            evals += 1;
            let r_new = residuals(&x_new);
            let new_cost = cost(&r_new);
            if new_cost < current_cost {
                // Accept, relax damping.
                let rel_reduction = (current_cost - new_cost) / current_cost.max(1e-300);
                let step_norm = x_new
                    .iter()
                    .zip(&x)
                    .zip(&span)
                    .map(|((a, b), s)| ((a - b) / s.max(1e-300)).abs())
                    .fold(0.0, f64::max);
                x = x_new;
                r = r_new;
                current_cost = new_cost;
                lambda = (lambda * 0.3).max(1e-12);
                improved = true;
                if rel_reduction < F_TOL || step_norm < X_TOL {
                    converged = true;
                }
                break;
            }
            lambda *= 10.0;
            if lambda > 1e12 {
                break;
            }
        }
        rfkit_obs::event(
            "opt.lm.iter",
            &[
                ("iter", iteration as f64),
                ("cost", current_cost),
                ("lambda", lambda),
                ("evals", evals as f64),
            ],
        );
        if converged || !improved {
            converged = converged || !improved && current_cost.is_finite();
            break;
        }
    }

    OptResult {
        x,
        value: current_cost,
        evaluations: evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_least_squares_exact() {
        // r = A x − b with A well conditioned: one LM step solves it.
        let residuals = |x: &[f64]| {
            vec![
                2.0 * x[0] + x[1] - 5.0,
                x[0] + 3.0 * x[1] - 10.0,
                x[0] - x[1] + 1.0,
            ]
        };
        let b = Bounds::uniform(2, -100.0, 100.0);
        let r = levenberg_marquardt(residuals, &[0.0, 0.0], &b, &LmConfig::default());
        // Normal-equations solution: x = (1.3, 2.8), cost = 0.25.
        assert!((r.value - 0.25).abs() < 1e-10, "cost = {}", r.value);
        assert!((r.x[0] - 1.3).abs() < 1e-5);
        assert!((r.x[1] - 2.8).abs() < 1e-5);
        assert!(r.converged);
    }

    #[test]
    fn fits_exponential_decay() {
        let t: Vec<f64> = (0..20).map(|i| i as f64 * 0.2).collect();
        let y: Vec<f64> = t.iter().map(|&ti| 3.0 * (-1.5 * ti).exp() + 0.5).collect();
        let residuals = |p: &[f64]| -> Vec<f64> {
            t.iter()
                .zip(&y)
                .map(|(&ti, &yi)| p[0] * (p[1] * ti).exp() + p[2] - yi)
                .collect()
        };
        let b = Bounds::new(vec![0.1, -10.0, -5.0], vec![10.0, 0.0, 5.0]).unwrap();
        let r = levenberg_marquardt(residuals, &[1.0, -0.5, 0.0], &b, &LmConfig::default());
        assert!((r.x[0] - 3.0).abs() < 1e-5, "a = {}", r.x[0]);
        assert!((r.x[1] + 1.5).abs() < 1e-5, "b = {}", r.x[1]);
        assert!((r.x[2] - 0.5).abs() < 1e-5, "c = {}", r.x[2]);
    }

    #[test]
    fn rosenbrock_as_least_squares() {
        let residuals = |x: &[f64]| vec![10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]];
        let b = Bounds::uniform(2, -5.0, 5.0);
        let r = levenberg_marquardt(residuals, &[-1.2, 1.0], &b, &LmConfig::default());
        assert!(r.value < 1e-12, "cost = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-5);
    }

    #[test]
    fn projection_keeps_iterates_in_bounds() {
        // Optimum at x = 3 but box caps at 2.
        let residuals = |x: &[f64]| vec![x[0] - 3.0];
        let b = Bounds::new(vec![0.0], vec![2.0]).unwrap();
        let r = levenberg_marquardt(residuals, &[1.0], &b, &LmConfig::default());
        assert!((r.x[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn budget_respected() {
        let residuals = |x: &[f64]| vec![10.0 * (x[1] - x[0] * x[0]), 1.0 - x[0]];
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = LmConfig { max_evals: 20 };
        let r = levenberg_marquardt(residuals, &[-1.2, 1.0], &b, &cfg);
        assert!(r.evaluations <= 21);
    }

    #[test]
    fn start_at_upper_bound_steps_inward() {
        let residuals = |x: &[f64]| vec![x[0] * x[0] - 1.0];
        let b = Bounds::new(vec![0.0], vec![4.0]).unwrap();
        let r = levenberg_marquardt(residuals, &[4.0], &b, &LmConfig::default());
        assert!((r.x[0] - 1.0).abs() < 1e-6, "x = {}", r.x[0]);
    }
}
