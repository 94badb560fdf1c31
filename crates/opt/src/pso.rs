//! Particle swarm optimization — a second global baseline for the
//! extraction-method comparison.
//!
//! Synchronous (generational) global-best PSO: every particle's velocity
//! update for an iteration reads the *previous* iteration's global best,
//! the whole swarm moves, and the batch of new positions is evaluated in
//! parallel through `rfkit-par`. All RNG draws stay in the serial update
//! loop, so fixed-seed runs are identical at any thread count.

use crate::problem::{Bounds, OptResult};
use rfkit_num::rng::Rng64;
use rfkit_par::par_map;

/// Inertia weight ω.
const INERTIA: f64 = 0.72;
/// Cognitive coefficient c₁ (pull toward personal best).
const COGNITIVE: f64 = 1.49;
/// Social coefficient c₂ (pull toward global best).
const SOCIAL: f64 = 1.49;

/// Configuration for [`particle_swarm`]: the budget and the seed. The
/// swarm holds `8 × dim` particles (at least 10), with inertia 0.72 and
/// cognitive and social coefficients of 1.49.
#[derive(Debug, Clone, PartialEq)]
pub struct PsoConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PsoConfig {
    fn default() -> Self {
        PsoConfig {
            max_evals: 20_000,
            seed: 0x9500,
        }
    }
}

/// Minimizes `f` over `bounds` with a synchronous global-best particle
/// swarm; each iteration's position batch is evaluated in parallel.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{particle_swarm, Bounds, PsoConfig};
/// let b = Bounds::uniform(2, -5.0, 5.0);
/// let r = particle_swarm(|x| x[0] * x[0] + x[1] * x[1], &b, &PsoConfig::default());
/// assert!(r.value < 1e-8);
/// ```
pub fn particle_swarm(
    f: impl Fn(&[f64]) -> f64 + Sync,
    bounds: &Bounds,
    config: &PsoConfig,
) -> OptResult {
    let n = bounds.dim();
    let swarm_size = (8 * n).max(10);
    let span = bounds.span();
    let mut rng = Rng64::new(config.seed);
    let mut evals = 0usize;

    let mut pos: Vec<Vec<f64>> = (0..swarm_size).map(|_| bounds.sample(&mut rng)).collect();
    let mut vel: Vec<Vec<f64>> = (0..swarm_size)
        .map(|_| (0..n).map(|d| rng.uniform(-0.2, 0.2) * span[d]).collect())
        .collect();
    let mut p_best = pos.clone();
    // Budget-capped initial evaluation: particles beyond the budget keep
    // an infinite personal best (they never win the global-best scan).
    // When `max_evals >= swarm_size` this is the full swarm and the RNG /
    // evaluation sequence is unchanged.
    let init_batch = swarm_size.min(config.max_evals.max(1));
    let mut p_best_val: Vec<f64> = vec![f64::INFINITY; swarm_size];
    for (i, v) in par_map(&pos[..init_batch], |x| f(x))
        .into_iter()
        .enumerate()
    {
        p_best_val[i] = v;
    }
    evals += init_batch;
    if init_batch < swarm_size {
        rfkit_obs::event("opt.pso.truncated", &[("evals", evals as f64)]);
    }
    let g_best_idx = p_best_val
        .iter()
        .enumerate()
        .min_by(|a, b| rfkit_num::total_cmp_f64(a.1, b.1))
        .map(|(i, _)| i)
        .expect("non-empty swarm");
    let mut g_best = p_best[g_best_idx].clone();
    let mut g_best_val = p_best_val[g_best_idx];
    let mut iteration = 0u64;

    loop {
        let remaining = config.max_evals.saturating_sub(evals);
        if remaining == 0 {
            break;
        }
        let batch = swarm_size.min(remaining);

        // Serial kinematics: all RNG draws happen here, in particle order,
        // against the previous iteration's global best.
        for (i, (p, v)) in pos.iter_mut().zip(vel.iter_mut()).enumerate().take(batch) {
            for d in 0..n {
                let r1 = rng.next_f64();
                let r2 = rng.next_f64();
                v[d] = INERTIA * v[d]
                    + COGNITIVE * r1 * (p_best[i][d] - p[d])
                    + SOCIAL * r2 * (g_best[d] - p[d]);
                // Velocity clamp keeps particles from tunnelling across the box.
                let v_max = 0.5 * span[d];
                v[d] = v[d].clamp(-v_max, v_max);
                p[d] += v[d];
            }
            *p = bounds.clamp(p);
        }

        // Parallel batch evaluation of the moved particles.
        let batch_vals = par_map(&pos[..batch], |x| f(x));
        evals += batch;

        for (i, v) in batch_vals.into_iter().enumerate() {
            if v < p_best_val[i] {
                p_best_val[i] = v;
                p_best[i] = pos[i].clone();
            }
        }
        // Global best advances only after the full batch — synchronous PSO.
        for i in 0..batch {
            if p_best_val[i] < g_best_val {
                g_best_val = p_best_val[i];
                g_best = p_best[i].clone();
            }
        }
        iteration += 1;
        rfkit_obs::event(
            "opt.pso.iter",
            &[
                ("iter", iteration as f64),
                ("best", g_best_val),
                ("evals", evals as f64),
            ],
        );
        if batch < swarm_size {
            rfkit_obs::event("opt.pso.truncated", &[("evals", evals as f64)]);
            break; // budget exhausted mid-iteration
        }
    }

    OptResult {
        x: g_best,
        value: g_best_val,
        evaluations: evals,
        converged: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn rastrigin(x: &[f64]) -> f64 {
        10.0 * x.len() as f64
            + x.iter()
                .map(|v| v * v - 10.0 * (2.0 * PI * v).cos())
                .sum::<f64>()
    }

    #[test]
    fn minimizes_sphere_tightly() {
        let b = Bounds::uniform(4, -10.0, 10.0);
        let r = particle_swarm(|x| x.iter().map(|v| v * v).sum(), &b, &PsoConfig::default());
        assert!(r.value < 1e-10, "value = {}", r.value);
    }

    #[test]
    fn handles_rastrigin_2d() {
        let b = Bounds::uniform(2, -5.12, 5.12);
        let cfg = PsoConfig {
            max_evals: 40_000,
            ..Default::default()
        };
        let r = particle_swarm(rastrigin, &b, &cfg);
        assert!(r.value < 1.0, "value = {}", r.value);
    }

    #[test]
    fn deterministic_for_seed() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = PsoConfig {
            max_evals: 1500,
            seed: 3,
        };
        let r1 = particle_swarm(rastrigin, &b, &cfg);
        let r2 = particle_swarm(rastrigin, &b, &cfg);
        assert_eq!(r1.x, r2.x);
    }

    #[test]
    fn bound_constrained_optimum() {
        let b = Bounds::new(vec![1.0], vec![2.0]).unwrap();
        let r = particle_swarm(|x| (x[0] + 1.0).powi(2), &b, &PsoConfig::default());
        assert!((r.x[0] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_respected() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let cfg = PsoConfig {
            max_evals: 77,
            ..Default::default()
        };
        let r = particle_swarm(|x| x[0] * x[0], &b, &cfg);
        assert!(r.evaluations <= 77);
    }
}
