//! Simulated annealing — the alternative meta-heuristic used to cross-check
//! differential evolution in the extraction study.

use crate::problem::{Bounds, OptResult};
use rfkit_num::rng::Rng64;

/// Geometric cooling factor per step (just below 1).
const COOLING: f64 = 0.999;
/// Initial neighbourhood size as a fraction of each bound span.
const STEP_SCALE: f64 = 0.3;

/// Configuration for [`simulated_annealing`]: the budget and the seed.
/// The initial temperature makes the median early uphill move
/// acceptable; it cools by 0.999 per step.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            max_evals: 20_000,
            seed: 0xa11e,
        }
    }
}

/// Minimizes `f` over `bounds` by simulated annealing with Gaussian moves
/// and geometric cooling. The step size anneals together with the
/// temperature so late iterations refine locally.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{simulated_annealing, Bounds, SaConfig};
/// let b = Bounds::uniform(2, -5.0, 5.0);
/// let r = simulated_annealing(|x| x[0] * x[0] + x[1] * x[1], &b, &SaConfig::default());
/// assert!(r.value < 1e-3);
/// ```
pub fn simulated_annealing(
    mut f: impl FnMut(&[f64]) -> f64,
    bounds: &Bounds,
    config: &SaConfig,
) -> OptResult {
    let n = bounds.dim();
    let span = bounds.span();
    let mut rng = Rng64::new(config.seed);
    let mut evals = 0usize;

    let mut current = bounds.sample(&mut rng);
    let mut current_val = {
        evals += 1;
        f(&current)
    };
    let mut best = current.clone();
    let mut best_val = current_val;

    // Auto temperature: make the median early uphill move acceptable.
    let mut diffs = Vec::new();
    for _ in 0..20.min(config.max_evals.saturating_sub(evals)) {
        let probe = bounds.sample(&mut rng);
        evals += 1;
        diffs.push((f(&probe) - current_val).abs());
    }
    diffs.sort_by(rfkit_num::total_cmp_f64);
    let mut temp = diffs
        .get(diffs.len() / 2)
        .copied()
        .unwrap_or(1.0)
        .max(1e-12);

    while evals < config.max_evals {
        let progress = evals as f64 / config.max_evals as f64;
        let step = STEP_SCALE * (1.0 - 0.95 * progress);
        let mut candidate = current.clone();
        // Perturb a random subset of coordinates.
        let k = rng.index(n);
        for (d, c) in candidate.iter_mut().enumerate() {
            if d == k || rng.chance(0.3) {
                *c += step * span[d] * rng.normal();
            }
        }
        let candidate = bounds.clamp(&candidate);
        evals += 1;
        let v = f(&candidate);
        let accept = v <= current_val || {
            let p = (-(v - current_val) / temp.max(1e-300)).exp();
            rng.chance(p.clamp(0.0, 1.0))
        };
        if accept {
            current = candidate;
            current_val = v;
            if v < best_val {
                best_val = v;
                best = current.clone();
            }
        }
        temp *= COOLING;
        // Throttled telemetry: one event every 256 evaluations.
        if evals.is_multiple_of(256) {
            rfkit_obs::event(
                "opt.sa.iter",
                &[("evals", evals as f64), ("best", best_val), ("temp", temp)],
            );
        }
    }

    OptResult {
        x: best,
        value: best_val,
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
    fn minimizes_sphere() {
        let b = Bounds::uniform(3, -10.0, 10.0);
        let r = simulated_annealing(|x| x.iter().map(|v| v * v).sum(), &b, &SaConfig::default());
        assert!(r.value < 1e-2, "value = {}", r.value);
    }

    #[test]
    fn finds_rastrigin_basin() {
        let b = Bounds::uniform(2, -5.12, 5.12);
        let cfg = SaConfig {
            max_evals: 50_000,
            ..Default::default()
        };
        let r = simulated_annealing(rastrigin, &b, &cfg);
        // SA should at least land in the global basin (value < 1, i.e. the
        // origin cell), even if the final polish is left to a direct method.
        assert!(r.value < 1.0, "value = {}", r.value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = SaConfig {
            max_evals: 1000,
            seed: 9,
        };
        let r1 = simulated_annealing(rastrigin, &b, &cfg);
        let r2 = simulated_annealing(rastrigin, &b, &cfg);
        assert_eq!(r1.x, r2.x);
    }

    #[test]
    fn stays_in_bounds() {
        let b = Bounds::new(vec![2.0, 2.0], vec![3.0, 3.0]).unwrap();
        let r = simulated_annealing(|x| x[0] + x[1], &b, &SaConfig::default());
        assert!(b.contains(&r.x));
        assert!((r.x[0] - 2.0).abs() < 1e-6);
    }
}
