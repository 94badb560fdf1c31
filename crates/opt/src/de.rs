//! Differential evolution — the meta-heuristic half of the three-step
//! identification procedure (global search that tolerates the multi-modal,
//! non-smooth landscape of device-model fitting).
//!
//! The implementation is the *generational* (synchronous) variant of
//! DE/rand/1/bin: every trial vector of a generation is produced from the
//! previous generation's population before any acceptance happens. That
//! structure is what lets the whole trial batch be evaluated in parallel
//! through `rfkit-par` while every RNG draw stays in the serial control
//! loop — a fixed seed therefore yields bit-identical results at any
//! `RFKIT_THREADS` setting.

use crate::problem::{Bounds, OptResult};
use rfkit_num::rng::Rng64;
use rfkit_par::par_map;

/// Differential weight F.
const WEIGHT: f64 = 0.7;
/// Crossover probability CR.
const CROSSOVER: f64 = 0.5;
/// Stop when the population's best value stagnates within this relative
/// tolerance for `STALL_GENERATIONS` generations.
const F_TOL: f64 = 1e-12;
/// Generations of stagnation allowed before declaring convergence.
const STALL_GENERATIONS: usize = 30;

/// Configuration for [`differential_evolution`] (DE/rand/1/bin): the
/// budget and the seed. The population is `10 × dim` (at least 8), the
/// differential weight 0.7 and the crossover probability 0.5.
#[derive(Debug, Clone, PartialEq)]
pub struct DeConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// RNG seed for reproducible runs.
    pub seed: u64,
}

impl Default for DeConfig {
    fn default() -> Self {
        DeConfig {
            max_evals: 20_000,
            seed: 0x5eed,
        }
    }
}

/// Minimizes `f` over the box `bounds` with generational DE/rand/1/bin.
///
/// Trial vectors are generated serially (all randomness lives here) and
/// evaluated as one parallel batch per generation.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{differential_evolution, Bounds, DeConfig};
/// let b = Bounds::uniform(2, -5.0, 5.0);
/// // Rastrigin: many local minima, global at the origin.
/// let rastrigin = |x: &[f64]| {
///     20.0 + x.iter().map(|v| v * v - 10.0 * (2.0 * std::f64::consts::PI * v).cos()).sum::<f64>()
/// };
/// let r = differential_evolution(rastrigin, &b, &DeConfig::default());
/// assert!(r.value < 1e-6);
/// ```
pub fn differential_evolution(
    f: impl Fn(&[f64]) -> f64 + Sync,
    bounds: &Bounds,
    config: &DeConfig,
) -> OptResult {
    let n = bounds.dim();
    let pop_size = (10 * n).max(8);
    let mut rng = Rng64::new(config.seed);
    let mut evals = 0usize;

    let pop_target = pop_size;
    let population_init: Vec<Vec<f64>> = (0..pop_size.min(config.max_evals.max(4)))
        .map(|_| bounds.sample(&mut rng))
        .collect();
    let mut population = population_init;
    let mut values: Vec<f64> = par_map(&population, |x| f(x));
    evals += population.len();
    let pop_size = population.len();
    if pop_size < pop_target {
        rfkit_obs::event("opt.de.truncated", &[("evals", evals as f64)]);
    }

    let mut best_prev = f64::INFINITY;
    let mut stall = 0usize;
    let mut converged = false;
    let mut generation = 0u64;

    loop {
        let remaining = config.max_evals.saturating_sub(evals);
        if remaining == 0 {
            break;
        }
        let batch = pop_size.min(remaining);

        // Serial trial generation: every RNG draw happens here, in index
        // order, against the previous generation's snapshot.
        let trials: Vec<Vec<f64>> = (0..batch)
            .map(|i| {
                // Pick three distinct donors, none equal to i.
                let pick = |rng: &mut Rng64| loop {
                    let k = rng.index(pop_size);
                    if k != i {
                        return k;
                    }
                };
                let (a, b, c) = (pick(&mut rng), pick(&mut rng), pick(&mut rng));
                let forced = rng.index(n);
                // Dither the differential weight per trial — keeps separable
                // multimodal landscapes (Rastrigin-like extraction objectives)
                // from stagnating at a fixed step ratio.
                let weight = WEIGHT * rng.uniform(0.7, 1.3);
                let mut trial = population[i].clone();
                for (d, slot) in trial.iter_mut().enumerate() {
                    if d == forced || rng.chance(CROSSOVER) {
                        *slot = population[a][d] + weight * (population[b][d] - population[c][d]);
                    }
                }
                bounds.clamp(&trial)
            })
            .collect();

        // Parallel batch evaluation — pure, RNG-free.
        let trial_values = par_map(&trials, |t| f(t));
        evals += trials.len();

        for (i, (trial, v)) in trials.into_iter().zip(trial_values).enumerate() {
            if v <= values[i] {
                population[i] = trial;
                values[i] = v;
            }
        }
        generation += 1;
        if rfkit_obs::enabled() {
            // Telemetry reads the post-acceptance population; it never
            // feeds back into the search.
            let best = values.iter().copied().fold(f64::INFINITY, f64::min);
            let worst = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            rfkit_obs::event(
                "opt.de.gen",
                &[
                    ("gen", generation as f64),
                    ("best", best),
                    ("spread", worst - best),
                    ("evals", evals as f64),
                ],
            );
        }
        if batch < pop_size {
            rfkit_obs::event("opt.de.truncated", &[("evals", evals as f64)]);
            break; // budget exhausted mid-generation
        }

        let best_now = values.iter().copied().fold(f64::INFINITY, f64::min);
        if (best_prev - best_now).abs() <= F_TOL * best_now.abs().max(1.0) {
            stall += 1;
            if stall >= STALL_GENERATIONS {
                converged = true;
                break;
            }
        } else {
            stall = 0;
        }
        best_prev = best_now;
    }

    let (best_idx, &best_val) = values
        .iter()
        .enumerate()
        .min_by(|a, b| rfkit_num::total_cmp_f64(a.1, b.1))
        .expect("non-empty population");
    OptResult {
        x: population[best_idx].clone(),
        value: best_val,
        evaluations: evals,
        converged,
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

    fn ackley(x: &[f64]) -> f64 {
        let n = x.len() as f64;
        let s1: f64 = x.iter().map(|v| v * v).sum::<f64>() / n;
        let s2: f64 = x.iter().map(|v| (2.0 * PI * v).cos()).sum::<f64>() / n;
        -20.0 * (-0.2 * s1.sqrt()).exp() - s2.exp() + 20.0 + std::f64::consts::E
    }

    #[test]
    fn escapes_rastrigin_local_minima() {
        let b = Bounds::uniform(3, -5.12, 5.12);
        let r = differential_evolution(rastrigin, &b, &DeConfig::default());
        assert!(r.value < 1e-6, "value = {}", r.value);
        for xi in &r.x {
            assert!(xi.abs() < 1e-3);
        }
    }

    #[test]
    fn solves_ackley() {
        let b = Bounds::uniform(4, -32.0, 32.0);
        let cfg = DeConfig {
            max_evals: 60_000,
            ..Default::default()
        };
        let r = differential_evolution(ackley, &b, &cfg);
        assert!(r.value < 1e-4, "value = {}", r.value);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = DeConfig {
            max_evals: 2000,
            seed: 42,
        };
        let r1 = differential_evolution(rastrigin, &b, &cfg);
        let r2 = differential_evolution(rastrigin, &b, &cfg);
        assert_eq!(r1.x, r2.x);
        assert_eq!(r1.value, r2.value);
    }

    #[test]
    fn different_seeds_differ() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let short = DeConfig {
            max_evals: 300,
            seed: 1,
        };
        let r1 = differential_evolution(rastrigin, &b, &short);
        let r2 = differential_evolution(
            rastrigin,
            &b,
            &DeConfig {
                seed: 2,
                ..short.clone()
            },
        );
        assert_ne!(r1.x, r2.x);
    }

    #[test]
    fn respects_budget() {
        let b = Bounds::uniform(2, -5.0, 5.0);
        let cfg = DeConfig {
            max_evals: 123,
            ..Default::default()
        };
        let r = differential_evolution(rastrigin, &b, &cfg);
        assert!(r.evaluations <= 123);
    }

    #[test]
    fn all_results_inside_bounds() {
        let b = Bounds::new(vec![1.0, -2.0], vec![2.0, -1.0]).unwrap();
        // Minimum outside the box; result must sit on the boundary.
        let r = differential_evolution(|x| x.iter().map(|v| v * v).sum(), &b, &DeConfig::default());
        assert!(b.contains(&r.x));
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!((r.x[1] + 1.0).abs() < 1e-9);
    }
}
