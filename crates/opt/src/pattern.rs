//! Hooke–Jeeves pattern search.
//!
//! The improved goal-attainment method minimizes the *exact* (non-smooth)
//! attainment function `max_i (f_i − g_i)/w_i`; gradient-free pattern search
//! handles the kinks where the active objective switches, which defeats
//! smooth quasi-Newton methods.

use crate::problem::{Bounds, OptResult};
use rfkit_par::{par_map_cfg, ParConfig};

/// Stop when the mesh shrinks below this fraction of the span.
const MIN_STEP: f64 = 1e-9;
/// Mesh contraction factor on a failed poll.
const CONTRACTION: f64 = 0.5;

/// Configuration for [`pattern_search`]. The mesh halves on every failed
/// poll and the search stops once it is below 1e-9 of the span.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternConfig {
    /// Maximum objective evaluations.
    pub max_evals: usize,
    /// Initial mesh size as a fraction of each bound span.
    pub initial_step: f64,
}

impl Default for PatternConfig {
    fn default() -> Self {
        PatternConfig {
            max_evals: 5000,
            initial_step: 0.1,
        }
    }
}

/// Minimizes `f` inside `bounds` from `x0` by coordinate polling with
/// pattern (accelerating) moves.
///
/// Each poll is one `rfkit-par` batch: its points are fixed before any of
/// them is scored, and the scores are folded serially in direction order,
/// so the chosen neighbour, the evaluation count and every result bit are
/// the same at any thread count.
///
/// # Panics
///
/// Panics if `x0.len() != bounds.dim()`.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{pattern_search, Bounds, PatternConfig};
/// let b = Bounds::uniform(2, -5.0, 5.0);
/// // A non-smooth objective: |x| + |y| — pattern search shrugs at the kink.
/// let r = pattern_search(|x| x[0].abs() + x[1].abs(), &[3.0, -2.0], &b, &PatternConfig::default());
/// assert!(r.value < 1e-6);
/// ```
pub fn pattern_search(
    f: impl Fn(&[f64]) -> f64 + Sync,
    x0: &[f64],
    bounds: &Bounds,
    config: &PatternConfig,
) -> OptResult {
    let n = bounds.dim();
    assert_eq!(x0.len(), n, "start point dimension mismatch");
    let span = bounds.span();

    let mut evals = 0usize;
    let mut x = bounds.clamp(x0);
    let mut fx = {
        evals += 1;
        f(&x)
    };
    let mut step = config.initial_step;
    let mut converged = false;

    // Remember the previous base point for pattern (extrapolation) moves.
    let mut prev = x.clone();

    // Poll the 2n coordinate neighbours plus the two all-coordinate
    // diagonals. The diagonals matter for minimax objectives, where the
    // descent direction at a kink can be invisible to axis moves (both
    // active terms tie and any single-coordinate change leaves the max
    // unchanged).
    let mut poll_dirs: Vec<Vec<f64>> = Vec::with_capacity(2 * n + 2);
    for d in 0..n {
        for sign in [1.0, -1.0] {
            let mut dir = vec![0.0; n];
            dir[d] = sign;
            poll_dirs.push(dir);
        }
    }
    let diag_scale = 1.0 / (n as f64).sqrt();
    poll_dirs.push(vec![diag_scale; n]);
    poll_dirs.push(vec![-diag_scale; n]);
    // Each poll point is a whole objective evaluation, so even a short
    // poll is worth dispatching.
    let poll_cfg = ParConfig {
        serial_threshold: 0,
        ..ParConfig::default()
    };

    while evals < config.max_evals {
        // The poll in direction order: points the clamp folds back onto x
        // are skipped, and the list stops at the remaining budget.
        let mut poll: Vec<Vec<f64>> = Vec::with_capacity(poll_dirs.len());
        for dir in &poll_dirs {
            if evals + poll.len() >= config.max_evals {
                break;
            }
            let y: Vec<f64> = x
                .iter()
                .zip(dir)
                .zip(&span)
                .map(|((xi, di), s)| xi + di * step * s)
                .collect();
            let y = bounds.clamp(&y);
            if y != x {
                poll.push(y);
            }
        }
        let values = par_map_cfg(&poll_cfg, &poll, |y| f(y));
        evals += poll.len();
        // The first strict improvement in direction order wins ties.
        let mut best = None;
        let mut best_val = fx;
        for (k, &fy) in values.iter().enumerate() {
            if fy < best_val {
                best_val = fy;
                best = Some(k);
            }
        }
        if let Some(k) = best {
            let best_neighbor = poll.swap_remove(k);
            // Pattern move: jump along the improving direction.
            let pattern: Vec<f64> = best_neighbor
                .iter()
                .zip(&prev)
                .map(|(b, p)| b + (b - p))
                .collect();
            prev = x;
            x = best_neighbor;
            fx = best_val;
            let pattern = bounds.clamp(&pattern);
            if pattern != x && evals < config.max_evals {
                evals += 1;
                let fp = f(&pattern);
                if fp < fx {
                    prev = x.clone();
                    x = pattern;
                    fx = fp;
                }
            }
        } else {
            step *= CONTRACTION;
            if step < MIN_STEP {
                converged = true;
                break;
            }
        }
    }

    OptResult {
        x,
        value: fx,
        evaluations: evals,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_num::rng::Rng64;

    /// The serial poll loop `pattern_search` had before its polls became
    /// `rfkit-par` batches, kept verbatim as the bit-identity reference.
    fn serial_reference(
        mut f: impl FnMut(&[f64]) -> f64,
        x0: &[f64],
        bounds: &Bounds,
        config: &PatternConfig,
    ) -> OptResult {
        let n = bounds.dim();
        assert_eq!(x0.len(), n, "start point dimension mismatch");
        let span = bounds.span();

        let mut evals = 0usize;
        let mut x = bounds.clamp(x0);
        let mut fx = {
            evals += 1;
            f(&x)
        };
        let mut step = config.initial_step;
        let mut converged = false;

        // Remember the previous base point for pattern (extrapolation) moves.
        let mut prev = x.clone();

        while evals < config.max_evals {
            // Poll the 2n coordinate neighbours plus the two all-coordinate
            // diagonals. The diagonals matter for minimax objectives, where the
            // descent direction at a kink can be invisible to axis moves (both
            // active terms tie and any single-coordinate change leaves the max
            // unchanged).
            let mut improved = false;
            let mut best_neighbor = x.clone();
            let mut best_val = fx;
            let mut poll_dirs: Vec<Vec<f64>> = Vec::with_capacity(2 * n + 2);
            for d in 0..n {
                for sign in [1.0, -1.0] {
                    let mut dir = vec![0.0; n];
                    dir[d] = sign;
                    poll_dirs.push(dir);
                }
            }
            let diag_scale = 1.0 / (n as f64).sqrt();
            poll_dirs.push(vec![diag_scale; n]);
            poll_dirs.push(vec![-diag_scale; n]);
            for dir in &poll_dirs {
                if evals >= config.max_evals {
                    break;
                }
                let y: Vec<f64> = x
                    .iter()
                    .zip(dir)
                    .zip(&span)
                    .map(|((xi, di), s)| xi + di * step * s)
                    .collect();
                let y = bounds.clamp(&y);
                if y == x {
                    continue;
                }
                evals += 1;
                let fy = f(&y);
                if fy < best_val {
                    best_val = fy;
                    best_neighbor = y;
                    improved = true;
                }
            }
            if improved {
                // Pattern move: jump along the improving direction.
                let pattern: Vec<f64> = best_neighbor
                    .iter()
                    .zip(&prev)
                    .map(|(b, p)| b + (b - p))
                    .collect();
                prev = x;
                x = best_neighbor;
                fx = best_val;
                let pattern = bounds.clamp(&pattern);
                if pattern != x && evals < config.max_evals {
                    evals += 1;
                    let fp = f(&pattern);
                    if fp < fx {
                        prev = x.clone();
                        x = pattern;
                        fx = fp;
                    }
                }
            } else {
                step *= CONTRACTION;
                if step < MIN_STEP {
                    converged = true;
                    break;
                }
            }
        }

        OptResult {
            x,
            value: fx,
            evaluations: evals,
            converged,
        }
    }

    /// Runs both implementations and asserts they agree bit for bit.
    fn assert_matches_reference(
        f: impl Fn(&[f64]) -> f64 + Sync,
        x0: &[f64],
        bounds: &Bounds,
        config: &PatternConfig,
    ) -> OptResult {
        let reference = serial_reference(&f, x0, bounds, config);
        let batched = pattern_search(&f, x0, bounds, config);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        assert_eq!(bits(&batched.x), bits(&reference.x), "x differs");
        assert_eq!(batched.value.to_bits(), reference.value.to_bits());
        assert_eq!(batched.evaluations, reference.evaluations);
        assert_eq!(batched.converged, reference.converged);
        batched
    }

    /// A seeded rotated, shifted quadratic on a seeded box.
    fn seeded_problem(rng: &mut Rng64, n: usize) -> (Bounds, impl Fn(&[f64]) -> f64 + Sync) {
        let lo: Vec<f64> = (0..n).map(|_| rng.uniform(-5.0, 0.0)).collect();
        let hi: Vec<f64> = lo.iter().map(|&l| l + rng.uniform(0.5, 6.0)).collect();
        let center: Vec<f64> = (0..n).map(|_| rng.uniform(-6.0, 6.0)).collect();
        let weights: Vec<f64> = (0..n).map(|_| rng.uniform(0.1, 3.0)).collect();
        let coupling = rng.uniform(-0.5, 0.5);
        let f = move |x: &[f64]| {
            let mut acc = 0.0;
            for i in 0..x.len() {
                let d = x[i] - center[i];
                acc += weights[i] * d * d;
                if i > 0 {
                    acc += coupling * d * (x[i - 1] - center[i - 1]);
                }
            }
            acc
        };
        (Bounds::new(lo, hi).expect("seeded bounds valid"), f)
    }

    #[test]
    fn batched_polls_match_serial_reference_when_the_budget_ends_mid_poll() {
        let mut rng = Rng64::new(0x9a77);
        for n in [2usize, 4, 7] {
            let (bounds, f) = seeded_problem(&mut rng, n);
            let x0 = bounds.sample(&mut rng);
            // Every budget from one evaluation up to several polls, so the
            // cut lands on every position inside a poll and on the
            // pattern move after it.
            for max_evals in 1..=6 * (2 * n + 3) {
                let cfg = PatternConfig {
                    max_evals,
                    ..Default::default()
                };
                let r = assert_matches_reference(&f, &x0, &bounds, &cfg);
                assert!(r.evaluations <= max_evals);
            }
        }
    }

    #[test]
    fn batched_polls_match_serial_reference_from_a_bound() {
        // Starting on a corner or a face: the clamp folds some poll points
        // back onto x, and those are skipped without costing an evaluation.
        let mut rng = Rng64::new(0xb0d5);
        for trial in 0..12 {
            let n = 2 + trial % 6;
            let (bounds, f) = seeded_problem(&mut rng, n);
            let x0: Vec<f64> = (0..n)
                .map(|i| match rng.index(3) {
                    0 => bounds.lo()[i],
                    1 => bounds.hi()[i],
                    _ => rng.uniform(bounds.lo()[i], bounds.hi()[i]),
                })
                .collect();
            for max_evals in [5usize, 17, 40, 400] {
                let cfg = PatternConfig {
                    max_evals,
                    initial_step: 0.3,
                };
                assert_matches_reference(&f, &x0, &bounds, &cfg);
            }
        }
    }

    #[test]
    fn batched_polls_match_serial_reference_on_plateaus() {
        // Every poll point off the start ties: the first direction in
        // order (+e0) must win, as in the serial loop.
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let x0 = [0.25, -0.5, 0.0];
        let spike = |x: &[f64]| if x == x0.as_slice() { 1.0 } else { 0.0 };
        let r = assert_matches_reference(spike, &x0, &bounds, &PatternConfig::default());
        assert_eq!(r.x, vec![0.25 + 1.0 * 0.1 * 2.0, -0.5, 0.0]);
        // Quantized quadratics tie whole groups of neighbours at each level.
        let mut rng = Rng64::new(0x91a7);
        for n in [2usize, 3, 7] {
            let (bounds, f) = seeded_problem(&mut rng, n);
            let levels = |x: &[f64]| (f(x) * 2.0).floor();
            let x0 = bounds.sample(&mut rng);
            for max_evals in [9usize, 30, 500] {
                let cfg = PatternConfig {
                    max_evals,
                    ..Default::default()
                };
                assert_matches_reference(levels, &x0, &bounds, &cfg);
            }
        }
    }

    #[test]
    fn minimizes_smooth_quadratic() {
        let b = Bounds::uniform(3, -10.0, 10.0);
        let r = pattern_search(
            |x| x.iter().map(|v| (v - 1.0) * (v - 1.0)).sum(),
            &[5.0, -5.0, 0.0],
            &b,
            &PatternConfig::default(),
        );
        assert!(r.value < 1e-10, "value = {}", r.value);
        assert!(r.converged);
    }

    #[test]
    fn handles_minimax_kinks() {
        // max(|x−1|, |y+2|) has a non-differentiable valley.
        let f = |x: &[f64]| (x[0] - 1.0).abs().max((x[1] + 2.0).abs());
        let b = Bounds::uniform(2, -5.0, 5.0);
        let r = pattern_search(f, &[4.0, 4.0], &b, &PatternConfig::default());
        assert!(r.value < 1e-6, "value = {}", r.value);
        assert!((r.x[0] - 1.0).abs() < 1e-5);
        assert!((r.x[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn constrained_corner_solution() {
        let f = |x: &[f64]| -(x[0] + x[1]); // maximize x+y
        let b = Bounds::uniform(2, 0.0, 1.0);
        let r = pattern_search(f, &[0.2, 0.2], &b, &PatternConfig::default());
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!((r.x[1] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn budget_respected() {
        let b = Bounds::uniform(2, -1.0, 1.0);
        let cfg = PatternConfig {
            max_evals: 30,
            ..Default::default()
        };
        let r = pattern_search(|x| x[0] * x[0] + x[1] * x[1], &[1.0, 1.0], &b, &cfg);
        assert!(r.evaluations <= 30);
    }

    #[test]
    fn already_optimal_start_converges_quickly() {
        let b = Bounds::uniform(1, -1.0, 1.0);
        let r = pattern_search(|x| x[0] * x[0], &[0.0], &b, &PatternConfig::default());
        assert!(r.converged);
        assert!(r.value < 1e-12);
    }
}
