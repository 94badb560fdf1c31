//! Classic scalarization baselines: weighted sum and ε-constraint.
//!
//! Both serve as comparison methods for the goal-attainment study: the
//! weighted sum cannot reach concave front regions, and the ε-constraint
//! needs a constraint-handling penalty — exactly the deficiencies the
//! goal-attainment method (and the paper's improvement of it) addresses.

use crate::de::{differential_evolution, DeConfig};
use crate::goal::GoalResult;
use crate::problem::Bounds;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Minimizes the weighted sum `Σ wᵢ·fᵢ(x)` for each weight vector in
/// `weight_sweep`, returning one attained point per weight vector.
///
/// # Panics
///
/// Panics if a weight vector length disagrees with the objective count at
/// evaluation time.
pub fn weighted_sum_sweep(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    weight_sweep: &[Vec<f64>],
    bounds: &Bounds,
    max_evals_each: usize,
    seed: u64,
) -> Vec<GoalResult> {
    weight_sweep
        .iter()
        .enumerate()
        .map(|(k, w)| {
            let evals = AtomicUsize::new(0);
            let scalar = |x: &[f64]| -> f64 {
                evals.fetch_add(1, Ordering::Relaxed);
                let f = objectives(x);
                assert_eq!(f.len(), w.len(), "weight length mismatch");
                f.iter().zip(w).map(|(fi, wi)| fi * wi).sum()
            };
            let cfg = DeConfig {
                max_evals: max_evals_each,
                seed: seed.wrapping_add(k as u64),
            };
            let r = differential_evolution(scalar, bounds, &cfg);
            let f = objectives(&r.x);
            GoalResult {
                x: r.x,
                attainment: f.iter().zip(w).map(|(fi, wi)| fi * wi).sum(),
                objectives: f,
                evaluations: evals.load(Ordering::Relaxed),
            }
        })
        .collect()
}

/// ε-constraint method: minimize objective `primary` subject to
/// `fⱼ(x) ≤ εⱼ` for all other objectives, for each ε vector in `eps_sweep`
/// (entries for the primary objective are ignored). Constraints enter as a
/// quadratic penalty.
pub fn epsilon_constraint_sweep(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    primary: usize,
    eps_sweep: &[Vec<f64>],
    bounds: &Bounds,
    max_evals_each: usize,
    seed: u64,
) -> Vec<GoalResult> {
    eps_sweep
        .iter()
        .enumerate()
        .map(|(k, eps)| {
            let evals = AtomicUsize::new(0);
            let scalar = |x: &[f64]| -> f64 {
                evals.fetch_add(1, Ordering::Relaxed);
                let f = objectives(x);
                assert!(primary < f.len(), "primary objective out of range");
                let mut v = f[primary];
                for (j, (&fj, &ej)) in f.iter().zip(eps).enumerate() {
                    if j != primary {
                        let slack = (fj - ej).max(0.0);
                        v += 1e6 * slack * slack;
                    }
                }
                v
            };
            let cfg = DeConfig {
                max_evals: max_evals_each,
                seed: seed.wrapping_add(1000 + k as u64),
            };
            let r = differential_evolution(scalar, bounds, &cfg);
            let f = objectives(&r.x);
            GoalResult {
                x: r.x,
                attainment: f[primary],
                objectives: f,
                evaluations: evals.load(Ordering::Relaxed),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::pareto_front_indices;

    fn convex_pair(x: &[f64]) -> Vec<f64> {
        vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]
    }

    fn concave_pair(x: &[f64]) -> Vec<f64> {
        let t = x[0].clamp(0.0, 1.0);
        // Points on the unit circle f1² + f2² = 1 bulge away from the
        // origin: a concave front under minimization.
        vec![t, (1.0 - t * t).sqrt()]
    }

    #[test]
    fn weighted_sum_covers_convex_front() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &convex_pair;
        let bounds = Bounds::uniform(1, -1.0, 3.0);
        let sweep: Vec<Vec<f64>> = (1..10)
            .map(|k| {
                let a = k as f64 / 10.0;
                vec![a, 1.0 - a]
            })
            .collect();
        let pts = weighted_sum_sweep(obj, &sweep, &bounds, 2000, 1);
        // Every solution is Pareto optimal: x ∈ [0, 2].
        for p in &pts {
            assert!(p.x[0] >= -1e-6 && p.x[0] <= 2.0 + 1e-6, "x = {}", p.x[0]);
        }
        // And the spread covers both ends.
        let xs: Vec<f64> = pts.iter().map(|p| p.x[0]).collect();
        assert!(xs.iter().cloned().fold(f64::INFINITY, f64::min) < 0.5);
        assert!(xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 1.5);
    }

    #[test]
    fn weighted_sum_misses_concave_interior() {
        // On a strictly concave front the weighted sum only ever returns the
        // two endpoints.
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &concave_pair;
        let bounds = Bounds::uniform(1, 0.0, 1.0);
        let sweep: Vec<Vec<f64>> = (1..20)
            .map(|k| {
                let a = k as f64 / 20.0;
                vec![a, 1.0 - a]
            })
            .collect();
        let pts = weighted_sum_sweep(obj, &sweep, &bounds, 1500, 2);
        let interior = pts
            .iter()
            .filter(|p| p.objectives[0] > 0.05 && p.objectives[0] < 0.95)
            .count();
        assert_eq!(
            interior, 0,
            "weighted sum should collapse to the endpoints on a concave front"
        );
    }

    #[test]
    fn epsilon_constraint_reaches_concave_interior() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &concave_pair;
        let bounds = Bounds::uniform(1, 0.0, 1.0);
        // Constrain f1 ≤ ε, minimize f2.
        let sweep: Vec<Vec<f64>> = (1..10).map(|k| vec![k as f64 / 10.0, 0.0]).collect();
        let pts = epsilon_constraint_sweep(obj, 1, &sweep, &bounds, 2000, 3);
        let interior = pts
            .iter()
            .filter(|p| p.objectives[0] > 0.05 && p.objectives[0] < 0.95)
            .count();
        assert!(
            interior >= 5,
            "ε-constraint must populate the interior, got {interior}"
        );
        // All on the circle.
        for p in &pts {
            let f = &p.objectives;
            let resid = (f[0].powi(2) + f[1].powi(2) - 1.0).abs();
            assert!(resid < 1e-3, "{f:?}");
        }
    }

    #[test]
    fn sweeps_produce_mutually_nondominated_sets_on_convex_front() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &convex_pair;
        let bounds = Bounds::uniform(1, -1.0, 3.0);
        let sweep: Vec<Vec<f64>> = (1..6)
            .map(|k| {
                let a = k as f64 / 6.0;
                vec![a, 1.0 - a]
            })
            .collect();
        let pts = weighted_sum_sweep(obj, &sweep, &bounds, 2000, 4);
        let objs: Vec<Vec<f64>> = pts.iter().map(|p| p.objectives.clone()).collect();
        let front = pareto_front_indices(&objs);
        assert_eq!(
            front.len(),
            objs.len(),
            "all weighted-sum points nondominated"
        );
    }
}
