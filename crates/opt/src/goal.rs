//! The goal attainment method for multi-objective optimization — standard
//! and improved variants.
//!
//! Gembicki's goal attainment method finds, for a goal vector `g` and
//! weight vector `w`, the design minimizing the attainment factor γ subject
//! to `fᵢ(x) − wᵢ·γ ≤ gᵢ`. Sweeping `g` (or `w`) traces the Pareto front,
//! including its concave portions, which the weighted-sum method misses.
//!
//! Two solvers are provided:
//!
//! * [`standard_goal_attainment`] — the textbook numerical treatment: an
//!   auxiliary variable γ plus a quadratic penalty for the constraints,
//!   minimized by a single Nelder–Mead run from a user start. This is the
//!   baseline the paper improves on; it needs a penalty weight, stalls in
//!   local minima and can return dominated points when the penalty is
//!   mis-tuned.
//! * [`improved_goal_attainment`] — the paper's "substantial improvement"
//!   (reconstructed; see DESIGN.md): minimize the **exact** attainment
//!   function `Γ(x) = maxᵢ (fᵢ(x) − gᵢ)/wᵢ` directly — no γ variable, no
//!   penalty parameter — with a differential-evolution global phase
//!   followed by a pattern-search polish, optionally multistarted. Zero
//!   weights turn the corresponding objective into a hard `fᵢ ≤ gᵢ`
//!   constraint.

use crate::de::{differential_evolution, DeConfig};
use crate::nelder_mead::{nelder_mead, NelderMeadConfig};
use crate::pattern::{pattern_search, PatternConfig};
use crate::problem::Bounds;
use rfkit_par::{par_collect, par_map_cfg, ParConfig};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Attainment value assigned to an objective vector with any non-finite
/// component (a solver failure leaking NaN/∞ through an objective).
/// Finite — so it still orders against other candidates — but larger than
/// any value a real design produces, including the infeasibility
/// penalties upstream objective builders emit.
pub const NON_FINITE_PENALTY: f64 = 1e9;

/// A multi-objective goal-attainment problem instance.
pub struct GoalProblem<'a> {
    /// Vector objective `f(x)`; every component is minimized.
    pub objectives: &'a (dyn Fn(&[f64]) -> Vec<f64> + Sync),
    /// Goal (aspiration) level per objective.
    pub goals: Vec<f64>,
    /// Weight per objective; larger = softer. A zero weight makes the goal
    /// a hard constraint.
    pub weights: Vec<f64>,
    /// Design-variable box.
    pub bounds: Bounds,
}

impl<'a> GoalProblem<'a> {
    /// Creates a problem.
    ///
    /// # Panics
    ///
    /// Panics if goal/weight lengths differ, weights are negative, or all
    /// weights are zero.
    pub fn new(
        objectives: &'a (dyn Fn(&[f64]) -> Vec<f64> + Sync),
        goals: Vec<f64>,
        weights: Vec<f64>,
        bounds: Bounds,
    ) -> Self {
        assert_eq!(goals.len(), weights.len(), "goals/weights length mismatch");
        assert!(!goals.is_empty(), "need at least one objective");
        assert!(weights.iter().all(|&w| w >= 0.0), "weights must be >= 0");
        assert!(
            weights.iter().any(|&w| w > 0.0),
            "at least one weight must be positive"
        );
        GoalProblem {
            objectives,
            goals,
            weights,
            bounds,
        }
    }

    /// The exact attainment function
    /// `Γ(x) = maxᵢ (fᵢ(x) − gᵢ)/wᵢ` (hard-constraint terms with `wᵢ = 0`
    /// enter as a large violation penalty).
    pub fn attainment(&self, f_values: &[f64]) -> f64 {
        assert_eq!(f_values.len(), self.goals.len(), "objective count mismatch");
        // A NaN objective would otherwise vanish here: `f64::max` ignores
        // NaN, so both the γ fold and the `(f - g).max(0.0)` violation
        // term silently swallow it and a failed evaluation could grade as
        // attained. Map any non-finite component to a finite penalty that
        // dominates every legitimate value instead.
        if f_values.iter().any(|v| !v.is_finite()) {
            return NON_FINITE_PENALTY;
        }
        let mut gamma = f64::NEG_INFINITY;
        let mut violation = 0.0;
        for ((&f, &g), &w) in f_values.iter().zip(&self.goals).zip(&self.weights) {
            if w > 0.0 {
                gamma = gamma.max((f - g) / w);
            } else {
                violation += (f - g).max(0.0);
            }
        }
        gamma + 1e6 * violation
    }
}

/// Result of a goal-attainment solve.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalResult {
    /// Best design found.
    pub x: Vec<f64>,
    /// Attainment factor γ at `x` (negative = goals over-attained).
    pub attainment: f64,
    /// Objective values at `x`.
    pub objectives: Vec<f64>,
    /// Objective-function evaluations used.
    pub evaluations: usize,
}

/// Quadratic penalty weight of [`standard_goal_attainment`].
const PENALTY: f64 = 1e4;

/// Configuration shared by both goal-attainment solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct GoalConfig {
    /// Total objective-evaluation budget.
    pub max_evals: usize,
    /// Number of global/local restarts for [`improved_goal_attainment`].
    pub multistart: usize,
    /// Fraction of the budget given to the global (DE) phase of the
    /// improved method.
    pub global_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GoalConfig {
    fn default() -> Self {
        GoalConfig {
            max_evals: 10_000,
            multistart: 2,
            global_fraction: 0.6,
            seed: 0x60a1,
        }
    }
}

/// The textbook goal-attainment solve: auxiliary γ + quadratic penalty,
/// one Nelder–Mead descent from `start`.
///
/// # Panics
///
/// Panics if `start.len() != problem.bounds.dim()`.
pub fn standard_goal_attainment(
    problem: &GoalProblem<'_>,
    start: &[f64],
    config: &GoalConfig,
) -> GoalResult {
    let _span = rfkit_obs::span("opt.standard_goal");
    let n = problem.bounds.dim();
    assert_eq!(start.len(), n, "start dimension mismatch");
    let evals = AtomicUsize::new(0);

    // Augmented variables: (x, γ). γ is bounded loosely around the start's
    // own attainment value.
    let f_start = (problem.objectives)(start);
    evals.fetch_add(1, Ordering::Relaxed);
    let gamma0 = problem.attainment(&f_start).min(1e6);
    let gamma_span = 10.0 * (gamma0.abs() + 1.0);
    let mut lo = problem.bounds.lo().to_vec();
    let mut hi = problem.bounds.hi().to_vec();
    lo.push(gamma0 - gamma_span);
    hi.push(gamma0 + gamma_span);
    let aug_bounds = Bounds::new(lo, hi).expect("augmented bounds valid");

    let objective = |xz: &[f64]| -> f64 {
        let (x, gamma) = xz.split_at(n);
        let gamma = gamma[0];
        evals.fetch_add(1, Ordering::Relaxed);
        let f = (problem.objectives)(x);
        let mut pen = 0.0;
        for ((&fi, &gi), &wi) in f.iter().zip(&problem.goals).zip(&problem.weights) {
            let slack = fi - wi * gamma - gi;
            if slack > 0.0 {
                pen += slack * slack;
            }
        }
        gamma + PENALTY * pen
    };

    let mut x0 = start.to_vec();
    x0.push(gamma0);
    let nm_cfg = NelderMeadConfig {
        max_evals: config.max_evals,
    };
    let r = nelder_mead(objective, &x0, &aug_bounds, &nm_cfg);
    let x = r.x[..n].to_vec();
    let f = (problem.objectives)(&x);
    evals.fetch_add(1, Ordering::Relaxed);
    let attainment = problem.attainment(&f);
    let evaluations = evals.load(Ordering::Relaxed);
    rfkit_obs::event(
        "opt.goal.standard",
        &[("gamma", attainment), ("evals", evaluations as f64)],
    );
    GoalResult {
        x,
        attainment,
        objectives: f,
        evaluations,
    }
}

/// The improved goal-attainment solve: exact minimax attainment function,
/// DE global phase, pattern-search polish, multistart.
///
/// The independent restarts run in parallel through `rfkit-par` (each is
/// seeded from `config.seed + k`, so the result is identical at any thread
/// count); the winner is picked in restart order. Within a restart, each
/// DE generation and each pattern-search poll is an `rfkit-par` batch of
/// its own, which runs serially when the restart is itself a parallel
/// item (`multistart > 1`).
pub fn improved_goal_attainment(problem: &GoalProblem<'_>, config: &GoalConfig) -> GoalResult {
    let _span = rfkit_obs::span("opt.improved_goal");
    let evals = AtomicUsize::new(0);
    let gamma = |x: &[f64]| -> f64 {
        evals.fetch_add(1, Ordering::Relaxed);
        problem.attainment(&(problem.objectives)(x))
    };

    let starts = config.multistart.max(1);
    let per_start = config.max_evals / starts;
    let global_budget = ((per_start as f64) * config.global_fraction.clamp(0.0, 1.0)) as usize;
    let polish_budget = per_start.saturating_sub(global_budget);

    // Every restart is self-contained and deterministically seeded, so the
    // batch parallelizes; serial_threshold 0 because each item is an entire
    // optimization run, not a cheap evaluation.
    let runs_cfg = ParConfig {
        serial_threshold: 0,
        ..ParConfig::default()
    };
    let runs = par_collect(starts, &runs_cfg, |k| {
        let candidate = if global_budget > 0 {
            let de_cfg = DeConfig {
                max_evals: global_budget,
                seed: config.seed.wrapping_add(k as u64),
            };
            differential_evolution(|x| gamma(x), &problem.bounds, &de_cfg).x
        } else {
            problem.bounds.center()
        };
        let ps_cfg = PatternConfig {
            max_evals: polish_budget.max(1),
            ..Default::default()
        };
        let polished = pattern_search(|x| gamma(x), &candidate, &problem.bounds, &ps_cfg);
        rfkit_obs::event(
            "opt.goal.start",
            &[("start", k as f64), ("gamma", polished.value)],
        );
        polished
    });

    let mut best_x: Option<Vec<f64>> = None;
    let mut best_gamma = f64::INFINITY;
    for polished in runs {
        if polished.value < best_gamma {
            best_gamma = polished.value;
            best_x = Some(polished.x);
        }
    }

    let x = best_x.expect("at least one start ran");
    let objectives = (problem.objectives)(&x);
    evals.fetch_add(1, Ordering::Relaxed);
    let attainment = problem.attainment(&objectives);
    let evaluations = evals.load(Ordering::Relaxed);
    rfkit_obs::event(
        "opt.goal.improved",
        &[("gamma", attainment), ("evals", evaluations as f64)],
    );
    GoalResult {
        attainment,
        x,
        objectives,
        evaluations,
    }
}

/// Traces a Pareto front by sweeping goal vectors: for each goal vector in
/// `goal_sweep` the improved method is run and the resulting objective
/// point collected.
///
/// The sweep points are independent solves and run in parallel through
/// `rfkit-par`; results come back in sweep order.
pub fn trace_front(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    goal_sweep: &[Vec<f64>],
    weights: &[f64],
    bounds: &Bounds,
    config: &GoalConfig,
) -> Vec<GoalResult> {
    let _span = rfkit_obs::span("opt.trace_front");
    let sweep_cfg = ParConfig {
        serial_threshold: 0,
        ..ParConfig::default()
    };
    par_map_cfg(&sweep_cfg, goal_sweep, |g| {
        let problem = GoalProblem::new(objectives, g.clone(), weights.to_vec(), bounds.clone());
        improved_goal_attainment(&problem, config)
    })
}

/// Derives balanced weights from ideal (per-objective best) and nadir
/// (per-objective worst on the front) vectors: `wᵢ = nadirᵢ − idealᵢ`,
/// floored to a small positive value.
pub fn auto_weights(ideal: &[f64], nadir: &[f64]) -> Vec<f64> {
    assert_eq!(ideal.len(), nadir.len(), "ideal/nadir length mismatch");
    ideal
        .iter()
        .zip(nadir)
        .map(|(&i, &n)| (n - i).abs().max(1e-9))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convex bi-objective toy: f1 = x², f2 = (x − 2)², Pareto set x ∈ [0, 2].
    fn convex_pair(x: &[f64]) -> Vec<f64> {
        vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)]
    }

    /// A strictly concave front (weighted sums only reach its endpoints).
    fn concave_pair(x: &[f64]) -> Vec<f64> {
        let t = x[0].clamp(0.0, 1.0);
        // Points on the unit circle f1² + f2² = 1 bulge away from the
        // origin: a concave front under minimization.
        vec![t, (1.0 - t * t).sqrt()]
    }

    #[test]
    fn exact_attainment_function() {
        let obj = |_: &[f64]| vec![0.0];
        let p = GoalProblem::new(
            &obj,
            vec![1.0, 2.0],
            vec![1.0, 2.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
        // f = (3, 2): terms (3-1)/1 = 2, (2-2)/2 = 0 → Γ = 2.
        assert_eq!(p.attainment(&[3.0, 2.0]), 2.0);
        // Over-attained goals give negative Γ.
        assert!(p.attainment(&[0.0, 0.0]) < 0.0);
    }

    #[test]
    fn non_finite_objectives_are_penalized_not_swallowed() {
        let obj = |_: &[f64]| vec![0.0];
        let p = GoalProblem::new(
            &obj,
            vec![1.0, 2.0],
            vec![1.0, 0.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
        // NaN in either a soft or a hard component must dominate every
        // legitimate candidate — without the guard, `f64::max` would
        // silently drop the NaN soft term and clamp the NaN violation
        // term to zero, grading a broken evaluation as attained.
        assert_eq!(p.attainment(&[f64::NAN, 0.0]), NON_FINITE_PENALTY);
        assert_eq!(p.attainment(&[0.0, f64::NAN]), NON_FINITE_PENALTY);
        assert_eq!(p.attainment(&[f64::INFINITY, 0.0]), NON_FINITE_PENALTY);
        // An infeasibility-penalty-scale candidate (the 1e3 the objective
        // builders emit) still orders below the non-finite penalty.
        assert!(p.attainment(&[1e3, 2.0]) < NON_FINITE_PENALTY);
    }

    #[test]
    fn hard_constraint_weight_zero() {
        let obj = |_: &[f64]| vec![0.0];
        let p = GoalProblem::new(
            &obj,
            vec![1.0, 2.0],
            vec![1.0, 0.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
        // Violating the w=0 goal incurs the big penalty.
        assert!(p.attainment(&[0.0, 3.0]) > 1e5);
        // Satisfying it leaves only the soft term.
        assert_eq!(p.attainment(&[2.0, 1.5]), 1.0);
    }

    #[test]
    fn improved_reaches_balanced_point_on_convex_front() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &convex_pair;
        let p = GoalProblem::new(
            obj,
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            Bounds::uniform(1, -1.0, 3.0),
        );
        let r = improved_goal_attainment(&p, &GoalConfig::default());
        // Equal goals/weights → symmetric point x = 1, f = (1, 1), γ = 1.
        assert!((r.x[0] - 1.0).abs() < 1e-3, "x = {}", r.x[0]);
        assert!((r.attainment - 1.0).abs() < 1e-3);
    }

    #[test]
    fn standard_also_solves_easy_convex_case() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &convex_pair;
        let p = GoalProblem::new(
            obj,
            vec![0.0, 0.0],
            vec![1.0, 1.0],
            Bounds::uniform(1, -1.0, 3.0),
        );
        let r = standard_goal_attainment(&p, &[0.5], &GoalConfig::default());
        assert!((r.x[0] - 1.0).abs() < 1e-2, "x = {}", r.x[0]);
    }

    #[test]
    fn weights_bias_the_attained_point() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &convex_pair;
        // Heavier weight on f1 → f1 allowed to be worse → x closer to 2.
        let p = GoalProblem::new(
            obj,
            vec![0.0, 0.0],
            vec![4.0, 1.0],
            Bounds::uniform(1, -1.0, 3.0),
        );
        let r = improved_goal_attainment(&p, &GoalConfig::default());
        assert!(r.x[0] > 1.2, "x = {}", r.x[0]);
        // And the attained point satisfies f1/4 = f2 (both active).
        assert!((r.objectives[0] / 4.0 - r.objectives[1]).abs() < 1e-2);
    }

    #[test]
    fn goal_sweep_traces_concave_front() {
        // Sweep goals along the f1 axis; the improved method must recover
        // circle points including the concave middle.
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &concave_pair;
        let bounds = Bounds::uniform(1, 0.0, 1.0);
        let sweep: Vec<Vec<f64>> = (1..10).map(|k| vec![k as f64 / 10.0, 0.0]).collect();
        let cfg = GoalConfig {
            max_evals: 3000,
            ..Default::default()
        };
        let results = trace_front(obj, &sweep, &[1e-9, 1.0], &bounds, &cfg);
        for (k, r) in results.iter().enumerate() {
            let f = &r.objectives;
            // On the circle: f1² + f2² = 1.
            let resid = (f[0].powi(2) + f[1].powi(2) - 1.0).abs();
            assert!(resid < 1e-3, "point {k} off the front: {f:?}");
            // Goal on f1 (hard-ish via tiny weight) honoured.
            assert!(f[0] <= sweep[k][0] + 1e-3);
        }
        // The middle of the sweep is in the concave region; check spread.
        let f1s: Vec<f64> = results.iter().map(|r| r.objectives[0]).collect();
        assert!(
            f1s.windows(2).all(|w| w[1] >= w[0] - 1e-6),
            "sweep is ordered"
        );
    }

    #[test]
    fn improved_beats_standard_on_multimodal_landscape() {
        // Objectives with parasitic local minima in x[1].
        let tricky = |x: &[f64]| -> Vec<f64> {
            let trap = 2.0 + (x[1] * 7.0).sin() * 2.0 + x[1] * x[1];
            vec![x[0] * x[0] + trap, (x[0] - 2.0) * (x[0] - 2.0) + trap]
        };
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &tricky;
        let bounds = Bounds::uniform(2, -3.0, 3.0);
        let goals = vec![0.0, 0.0];
        let weights = vec![1.0, 1.0];
        let cfg = GoalConfig {
            max_evals: 8000,
            ..Default::default()
        };
        let mut standard_wins = 0;
        let mut improved_wins = 0;
        for seed in 0..5u64 {
            let p = GoalProblem::new(obj, goals.clone(), weights.clone(), bounds.clone());
            // Standard starts from a "random-ish" corner-dependent point.
            let start = [-3.0 + (seed as f64) * 1.4, 3.0 - (seed as f64) * 1.3];
            let s = standard_goal_attainment(&p, &start, &cfg);
            let i = improved_goal_attainment(
                &p,
                &GoalConfig {
                    seed,
                    ..cfg.clone()
                },
            );
            if i.attainment < s.attainment - 1e-6 {
                improved_wins += 1;
            } else if s.attainment < i.attainment - 1e-6 {
                standard_wins += 1;
            }
        }
        assert!(
            improved_wins > standard_wins,
            "improved {improved_wins} vs standard {standard_wins}"
        );
    }

    #[test]
    fn auto_weights_from_anchor_points() {
        let w = auto_weights(&[0.5, 10.0], &[2.5, 14.0]);
        assert_eq!(w, vec![2.0, 4.0]);
        // Degenerate range floors instead of zeroing.
        let w2 = auto_weights(&[1.0], &[1.0]);
        assert!(w2[0] > 0.0);
    }

    #[test]
    #[should_panic(expected = "weights must be >= 0")]
    fn rejects_negative_weights() {
        let obj = |_: &[f64]| vec![0.0];
        GoalProblem::new(&obj, vec![0.0], vec![-1.0], Bounds::uniform(1, 0.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "at least one weight")]
    fn rejects_all_zero_weights() {
        let obj = |_: &[f64]| vec![0.0, 0.0];
        GoalProblem::new(
            &obj,
            vec![0.0, 0.0],
            vec![0.0, 0.0],
            Bounds::uniform(1, 0.0, 1.0),
        );
    }
}
