//! Nelder–Mead downhill simplex — the "direct optimization" workhorse of
//! the three-step identification procedure.

use crate::problem::{Bounds, OptResult};

/// Converged when the simplex value spread is at most this and the
/// simplex diameter at most `X_TOL`.
const F_TOL: f64 = 1e-10;
/// Simplex diameter for convergence, relative to the bound spans.
const X_TOL: f64 = 1e-9;
/// Initial simplex size as a fraction of each bound span.
const INITIAL_STEP: f64 = 0.05;

/// Configuration for [`nelder_mead`]: the budget. The initial simplex
/// steps 5 % of each bound span from the start point.
#[derive(Debug, Clone, PartialEq)]
pub struct NelderMeadConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
}

impl Default for NelderMeadConfig {
    fn default() -> Self {
        NelderMeadConfig { max_evals: 2000 }
    }
}

/// Minimizes `f` inside `bounds`, starting from `x0`, with the adaptive
/// Nelder–Mead method (dimension-dependent coefficients per Gao & Han).
///
/// Out-of-bounds trial points are clamped to the box.
///
/// # Panics
///
/// Panics if `x0.len() != bounds.dim()`.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{nelder_mead, Bounds, NelderMeadConfig};
/// let b = Bounds::uniform(2, -5.0, 5.0);
/// let rosen = |x: &[f64]| (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2);
/// let r = nelder_mead(rosen, &[-1.0, 2.0], &b, &NelderMeadConfig { max_evals: 5000 });
/// assert!(r.value < 1e-6);
/// ```
pub fn nelder_mead(
    mut f: impl FnMut(&[f64]) -> f64,
    x0: &[f64],
    bounds: &Bounds,
    config: &NelderMeadConfig,
) -> OptResult {
    let n = bounds.dim();
    assert_eq!(x0.len(), n, "start point dimension mismatch");
    // Adaptive coefficients (Gao & Han 2012).
    let nf = n as f64;
    let alpha = 1.0;
    let beta = 1.0 + 2.0 / nf;
    let gamma = 0.75 - 0.5 / nf;
    let delta = 1.0 - 1.0 / nf;

    let mut evals = 0usize;
    let mut eval = |x: &[f64], evals: &mut usize| -> f64 {
        *evals += 1;
        f(x)
    };

    // Initial simplex: x0 plus a step along each axis.
    let span = bounds.span();
    let mut simplex: Vec<Vec<f64>> = Vec::with_capacity(n + 1);
    simplex.push(bounds.clamp(x0));
    for i in 0..n {
        let mut v = x0.to_vec();
        let step = (INITIAL_STEP * span[i]).max(1e-12);
        v[i] += if v[i] + step <= bounds.hi()[i] {
            step
        } else {
            -step
        };
        simplex.push(bounds.clamp(&v));
    }
    let mut values: Vec<f64> = simplex.iter().map(|v| eval(v, &mut evals)).collect();

    let centroid = |simplex: &[Vec<f64>], worst: usize| -> Vec<f64> {
        let mut c = vec![0.0; n];
        for (k, v) in simplex.iter().enumerate() {
            if k == worst {
                continue;
            }
            for i in 0..n {
                c[i] += v[i];
            }
        }
        for ci in &mut c {
            *ci /= n as f64;
        }
        c
    };

    let mut converged = false;
    let mut iteration = 0u64;
    while evals + 2 <= config.max_evals {
        iteration += 1;
        // Order the simplex.
        let mut order: Vec<usize> = (0..=n).collect();
        order.sort_by(|&a, &b| rfkit_num::total_cmp_f64(&values[a], &values[b]));
        let best = order[0];
        let worst = order[n];
        let second_worst = order[n - 1];

        // Convergence checks.
        let f_spread = values[worst] - values[best];
        let x_spread = simplex
            .iter()
            .map(|v| {
                v.iter()
                    .zip(&simplex[best])
                    .zip(&span)
                    .map(|((a, b), s)| ((a - b) / s.max(1e-300)).abs())
                    .fold(0.0, f64::max)
            })
            .fold(0.0, f64::max);
        // Throttled telemetry: one event every 32 iterations.
        if iteration.is_multiple_of(32) {
            rfkit_obs::event(
                "opt.nm.iter",
                &[
                    ("iter", iteration as f64),
                    ("best", values[best]),
                    ("f_spread", f_spread),
                    ("x_spread", x_spread),
                    ("evals", evals as f64),
                ],
            );
        }
        if f_spread.abs() <= F_TOL && x_spread <= X_TOL {
            converged = true;
            break;
        }

        let c = centroid(&simplex, worst);
        let reflect: Vec<f64> = bounds.clamp(
            &c.iter()
                .zip(&simplex[worst])
                .map(|(ci, wi)| ci + alpha * (ci - wi))
                .collect::<Vec<_>>(),
        );
        let f_r = eval(&reflect, &mut evals);

        if f_r < values[best] {
            // Try expansion.
            let expand: Vec<f64> = bounds.clamp(
                &c.iter()
                    .zip(&reflect)
                    .map(|(ci, ri)| ci + beta * (ri - ci))
                    .collect::<Vec<_>>(),
            );
            let f_e = eval(&expand, &mut evals);
            if f_e < f_r {
                simplex[worst] = expand;
                values[worst] = f_e;
            } else {
                simplex[worst] = reflect;
                values[worst] = f_r;
            }
        } else if f_r < values[second_worst] {
            simplex[worst] = reflect;
            values[worst] = f_r;
        } else {
            // Contraction (outside if the reflection helped a little,
            // inside otherwise).
            let (towards, f_ref) = if f_r < values[worst] {
                (reflect.clone(), f_r)
            } else {
                (simplex[worst].clone(), values[worst])
            };
            let contract: Vec<f64> = bounds.clamp(
                &c.iter()
                    .zip(&towards)
                    .map(|(ci, ti)| ci + gamma * (ti - ci))
                    .collect::<Vec<_>>(),
            );
            let f_c = eval(&contract, &mut evals);
            if f_c < f_ref {
                simplex[worst] = contract;
                values[worst] = f_c;
            } else {
                // Shrink toward the best vertex.
                let best_point = simplex[best].clone();
                for k in 0..=n {
                    if k == best {
                        continue;
                    }
                    let shrunk: Vec<f64> = best_point
                        .iter()
                        .zip(&simplex[k])
                        .map(|(bi, vi)| bi + delta * (vi - bi))
                        .collect();
                    simplex[k] = bounds.clamp(&shrunk);
                    if evals < config.max_evals {
                        values[k] = eval(&simplex[k], &mut evals);
                    }
                }
            }
        }
    }

    let (best_idx, &best_val) = values
        .iter()
        .enumerate()
        .min_by(|a, b| rfkit_num::total_cmp_f64(a.1, b.1))
        .expect("non-empty simplex");
    OptResult {
        x: simplex[best_idx].clone(),
        value: best_val,
        evaluations: evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sphere(x: &[f64]) -> f64 {
        x.iter().map(|v| v * v).sum()
    }

    fn rosenbrock(x: &[f64]) -> f64 {
        (1.0 - x[0]).powi(2) + 100.0 * (x[1] - x[0] * x[0]).powi(2)
    }

    #[test]
    fn minimizes_sphere() {
        let b = Bounds::uniform(3, -10.0, 10.0);
        let r = nelder_mead(sphere, &[5.0, -3.0, 8.0], &b, &NelderMeadConfig::default());
        assert!(r.value < 1e-8, "value = {}", r.value);
        assert!(r.converged);
        for xi in &r.x {
            assert!(xi.abs() < 1e-3);
        }
    }

    #[test]
    fn minimizes_rosenbrock() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = NelderMeadConfig { max_evals: 10000 };
        let r = nelder_mead(rosenbrock, &[-1.2, 1.0], &b, &cfg);
        assert!(r.value < 1e-8, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-3);
        assert!((r.x[1] - 1.0).abs() < 1e-3);
    }

    #[test]
    fn respects_bounds() {
        // Unconstrained minimum at (-3, -3) but box is [0, 1]².
        let f = |x: &[f64]| (x[0] + 3.0).powi(2) + (x[1] + 3.0).powi(2);
        let b = Bounds::uniform(2, 0.0, 1.0);
        let r = nelder_mead(f, &[0.5, 0.5], &b, &NelderMeadConfig::default());
        assert!(b.contains(&r.x));
        assert!(r.x[0] < 1e-6 && r.x[1] < 1e-6, "should sit on the corner");
    }

    #[test]
    fn evaluation_budget_is_respected() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = NelderMeadConfig { max_evals: 50 };
        let r = nelder_mead(rosenbrock, &[-1.2, 1.0], &b, &cfg);
        assert!(r.evaluations <= 55, "evals = {}", r.evaluations);
        assert!(!r.converged);
    }

    #[test]
    fn start_on_boundary_works() {
        let b = Bounds::uniform(2, 0.0, 2.0);
        let r = nelder_mead(sphere, &[2.0, 2.0], &b, &NelderMeadConfig::default());
        assert!(r.value < 1e-6);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn start_dimension_checked() {
        let b = Bounds::uniform(2, 0.0, 1.0);
        nelder_mead(sphere, &[0.5], &b, &NelderMeadConfig::default());
    }
}
