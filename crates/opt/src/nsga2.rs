//! NSGA-II — the evolutionary multi-objective baseline.
//!
//! The goal-attainment study compares against a population method that
//! approximates the whole Pareto front in one run: non-dominated sorting,
//! crowding-distance diversity, binary tournaments, simulated binary
//! crossover and polynomial mutation (Deb et al. 2002).
//!
//! Offspring variation (tournaments, SBX, mutation — all the randomness)
//! runs serially per generation; the resulting batch of candidate vectors
//! is then evaluated in parallel through `rfkit-par`, so fixed-seed runs
//! are identical at any thread count.

use crate::pareto::{crowding_distance, nondominated_sort};
use crate::problem::Bounds;
use rfkit_num::rng::Rng64;
use rfkit_par::par_map;
use rfkit_surrogate::SurrogateScreen;

/// SBX crossover probability.
const CROSSOVER_PROB: f64 = 0.9;
/// SBX distribution index (larger = offspring closer to parents).
const ETA_CROSSOVER: f64 = 15.0;
/// Polynomial-mutation distribution index.
const ETA_MUTATION: f64 = 20.0;

/// Configuration for [`nsga2`]. Variation is fixed: SBX crossover with
/// probability 0.9 and index 15, and polynomial mutation with index 20
/// at a per-gene probability of `1/dim`.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Config {
    /// Population size (even; 0 selects `20 × dim` capped to 100).
    pub population: usize,
    /// Number of generations; every generation evaluates one full batch
    /// of offspring (fewer when a surrogate screen prunes some).
    pub generations: usize,
    /// Hypervolume reference point for the convergence history. When
    /// set on a 2-objective run, [`Nsga2Result::history`] records
    /// `(evaluations so far, first-front hypervolume)` after
    /// initialisation and after every generation — the
    /// evaluations-to-quality curve that benchmark protocols compare.
    /// `None` (the default) skips the bookkeeping.
    pub hv_reference: Option<[f64; 2]>,
    /// Design vectors injected into the initial population (warm
    /// start), e.g. a previous run's front. Up to `population` vectors
    /// are used in order; the remainder is sampled randomly as usual.
    /// Injected vectors are evaluated like any other individual — the
    /// warm start changes where the search begins, never what a result
    /// means.
    pub initial_population: Vec<Vec<f64>>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 0,
            generations: 100,
            hv_reference: None,
            initial_population: Vec::new(),
            seed: 0x45a2,
        }
    }
}

/// One individual of the final population.
#[derive(Debug, Clone, PartialEq)]
pub struct Individual {
    /// Design vector.
    pub x: Vec<f64>,
    /// Objective values.
    pub objectives: Vec<f64>,
}

/// Result of an NSGA-II run.
#[derive(Debug, Clone, PartialEq)]
pub struct Nsga2Result {
    /// The final population's first (Pareto) front.
    pub front: Vec<Individual>,
    /// Total objective evaluations used.
    pub evaluations: usize,
    /// Convergence history `(evaluations, hypervolume)` per generation;
    /// empty unless [`Nsga2Config::hv_reference`] was set on a
    /// 2-objective run.
    pub history: Vec<(usize, f64)>,
}

/// Approximates the Pareto front of `objectives` over `bounds`.
///
/// # Examples
///
/// ```
/// use rfkit_opt::{nsga2, Bounds, Nsga2Config};
/// let obj = |x: &[f64]| vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)];
/// let r = nsga2(&obj, &Bounds::uniform(1, -2.0, 4.0), &Nsga2Config {
///     generations: 40, ..Default::default()
/// });
/// assert!(r.front.len() > 10);
/// ```
pub fn nsga2(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    bounds: &Bounds,
    config: &Nsga2Config,
) -> Nsga2Result {
    nsga2_impl(objectives, bounds, config, None)
}

/// [`nsga2`] with a surrogate screen deciding, per offspring, whether
/// the true objectives are worth evaluating.
///
/// An offspring is pruned when its predicted objective vector, shifted
/// by the screen's improvement margin, is still Pareto-dominated by a
/// parent: it does not promise an improvement worth a true evaluation.
/// Screening runs serially between variation and the parallel batch;
/// pruned offspring never exist as individuals, so every objective
/// vector in the population (and the returned front) comes from a true
/// evaluation. `evaluations` counts only true evaluations.
///
/// # Panics
///
/// Panics if the screen's dimensions disagree with `bounds.dim()` or
/// the objective count.
pub fn nsga2_screened(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    bounds: &Bounds,
    config: &Nsga2Config,
    screen: &mut SurrogateScreen,
) -> Nsga2Result {
    nsga2_impl(objectives, bounds, config, Some(screen))
}

fn nsga2_impl(
    objectives: &(dyn Fn(&[f64]) -> Vec<f64> + Sync),
    bounds: &Bounds,
    config: &Nsga2Config,
    mut screen: Option<&mut SurrogateScreen>,
) -> Nsga2Result {
    let n = bounds.dim();
    let pop_size = if config.population == 0 {
        (20 * n).clamp(20, 100) & !1usize
    } else {
        (config.population.max(4)) & !1usize
    };
    let mutation_prob = 1.0 / n as f64;
    let mut rng = Rng64::new(config.seed);
    let mut evals = 0usize;

    let init_xs: Vec<Vec<f64>> = config
        .initial_population
        .iter()
        .take(pop_size)
        .inspect(|x| assert_eq!(x.len(), n, "warm-start vector dimension mismatch"))
        .cloned()
        .chain((config.initial_population.len()..pop_size).map(|_| bounds.sample(&mut rng)))
        .collect();
    let init_objs = par_map(&init_xs, |x| objectives(x));
    evals += init_xs.len();
    if let Some(scr) = screen.as_deref_mut() {
        for (x, f) in init_xs.iter().zip(&init_objs) {
            scr.observe(x, f);
        }
    }
    let mut pop: Vec<Individual> = init_xs
        .into_iter()
        .zip(init_objs)
        .map(|(x, objectives)| Individual { x, objectives })
        .collect();

    // Evaluations-to-quality curve, recorded after initialisation and
    // after every environmental selection when requested.
    let mut history: Vec<(usize, f64)> = Vec::new();
    let record = |pop: &[Individual], evals: usize, history: &mut Vec<(usize, f64)>| {
        let Some(reference) = config.hv_reference else {
            return;
        };
        if pop.first().is_none_or(|i| i.objectives.len() != 2) {
            return;
        }
        let objs: Vec<Vec<f64>> = pop.iter().map(|i| i.objectives.clone()).collect();
        let idx = crate::pareto::pareto_front_indices(&objs);
        let pts: Vec<Vec<f64>> = idx.iter().map(|&i| objs[i].clone()).collect();
        history.push((evals, crate::pareto::hypervolume_2d(&pts, reference)));
    };
    record(&pop, evals, &mut history);

    // Telemetry-only hypervolume reference for 2-objective runs, fixed
    // from the initial population so per-generation values are comparable.
    let hv_ref: Option<[f64; 2]> =
        if rfkit_obs::enabled() && pop.first().is_some_and(|i| i.objectives.len() == 2) {
            let mut m = [f64::NEG_INFINITY; 2];
            for ind in &pop {
                for (k, slot) in m.iter_mut().enumerate() {
                    *slot = slot.max(ind.objectives[k]);
                }
            }
            Some([
                m[0] + 0.1 * m[0].abs() + 1e-9,
                m[1] + 0.1 * m[1].abs() + 1e-9,
            ])
        } else {
            None
        };

    for generation in 0..config.generations {
        // Rank + crowding of the current population.
        let objs: Vec<Vec<f64>> = pop.iter().map(|i| i.objectives.clone()).collect();
        let fronts = nondominated_sort(&objs);
        let mut rank = vec![0usize; pop.len()];
        let mut crowd = vec![0.0f64; pop.len()];
        for (r, front) in fronts.iter().enumerate() {
            let d = crowding_distance(&objs, front);
            for (k, &idx) in front.iter().enumerate() {
                rank[idx] = r;
                crowd[idx] = d[k];
            }
        }
        let tournament = |rng: &mut Rng64| -> usize {
            let a = rng.index(pop.len());
            let b = rng.index(pop.len());
            if rank[a] < rank[b] || (rank[a] == rank[b] && crowd[a] > crowd[b]) {
                a
            } else {
                b
            }
        };

        // Offspring variation: serial, all RNG draws happen here.
        let mut child_xs: Vec<Vec<f64>> = Vec::with_capacity(pop_size);
        while child_xs.len() < pop_size {
            let p1 = tournament(&mut rng);
            let p2 = tournament(&mut rng);
            let (mut c1, mut c2) = sbx_crossover(&pop[p1].x, &pop[p2].x, bounds, &mut rng);
            polynomial_mutation(&mut c1, bounds, mutation_prob, &mut rng);
            polynomial_mutation(&mut c2, bounds, mutation_prob, &mut rng);
            for c in [c1, c2] {
                if child_xs.len() < pop_size {
                    child_xs.push(c);
                }
            }
        }

        // Optional surrogate screening: serial, before the parallel
        // batch. A pruned offspring never becomes an Individual, so no
        // predicted value can enter the population or the front (prune,
        // never propagate); parents cover the vacated selection slots.
        let child_xs: Vec<Vec<f64>> = match screen.as_deref_mut() {
            Some(scr) => {
                let keep = scr.screen_multi(&child_xs, &objs);
                child_xs
                    .into_iter()
                    .zip(keep)
                    .filter_map(|(c, k)| k.then_some(c))
                    .collect()
            }
            None => child_xs,
        };

        // Parallel batch evaluation of the offspring.
        let child_objs = par_map(&child_xs, |x| objectives(x));
        evals += child_xs.len();
        if let Some(scr) = screen.as_deref_mut() {
            for (x, f) in child_xs.iter().zip(&child_objs) {
                scr.observe(x, f);
            }
        }
        let offspring: Vec<Individual> = child_xs
            .into_iter()
            .zip(child_objs)
            .map(|(x, objectives)| Individual { x, objectives })
            .collect();

        // Environmental selection on parents ∪ offspring.
        pop.extend(offspring);
        let objs: Vec<Vec<f64>> = pop.iter().map(|i| i.objectives.clone()).collect();
        let fronts = nondominated_sort(&objs);
        let mut next: Vec<Individual> = Vec::with_capacity(pop_size);
        for front in &fronts {
            if next.len() + front.len() <= pop_size {
                next.extend(front.iter().map(|&i| pop[i].clone()));
            } else {
                let d = crowding_distance(&objs, front);
                let mut order: Vec<usize> = (0..front.len()).collect();
                order.sort_by(|&a, &b| rfkit_num::total_cmp_f64(&d[b], &d[a]));
                for &k in &order {
                    if next.len() == pop_size {
                        break;
                    }
                    next.push(pop[front[k]].clone());
                }
            }
            if next.len() == pop_size {
                break;
            }
        }
        if rfkit_obs::enabled() {
            // Telemetry over the merged population's first front; never
            // read back by the search.
            let first = fronts.first().map(Vec::as_slice).unwrap_or(&[]);
            let mut fields = vec![
                ("gen", (generation + 1) as f64),
                ("front_size", first.len() as f64),
                ("evals", evals as f64),
            ];
            if let Some(reference) = hv_ref {
                let pts: Vec<Vec<f64>> = first.iter().map(|&i| pop[i].objectives.clone()).collect();
                fields.push(("hv", crate::pareto::hypervolume_2d(&pts, reference)));
            }
            rfkit_obs::event("opt.nsga2.gen", &fields);
        }
        pop = next;
        record(&pop, evals, &mut history);
    }

    let objs: Vec<Vec<f64>> = pop.iter().map(|i| i.objectives.clone()).collect();
    let fronts = nondominated_sort(&objs);
    let front = fronts
        .first()
        .map(|f| f.iter().map(|&i| pop[i].clone()).collect())
        .unwrap_or_default();
    Nsga2Result {
        front,
        evaluations: evals,
        history,
    }
}

/// Simulated binary crossover (SBX).
fn sbx_crossover(p1: &[f64], p2: &[f64], bounds: &Bounds, rng: &mut Rng64) -> (Vec<f64>, Vec<f64>) {
    let mut c1 = p1.to_vec();
    let mut c2 = p2.to_vec();
    if rng.next_f64() < CROSSOVER_PROB {
        for d in 0..p1.len() {
            if rng.chance(0.5) || (p1[d] - p2[d]).abs() < 1e-14 {
                continue;
            }
            let u: f64 = rng.next_f64();
            let beta = if u <= 0.5 {
                (2.0 * u).powf(1.0 / (ETA_CROSSOVER + 1.0))
            } else {
                (1.0 / (2.0 * (1.0 - u))).powf(1.0 / (ETA_CROSSOVER + 1.0))
            };
            c1[d] = 0.5 * ((1.0 + beta) * p1[d] + (1.0 - beta) * p2[d]);
            c2[d] = 0.5 * ((1.0 - beta) * p1[d] + (1.0 + beta) * p2[d]);
        }
    }
    (bounds.clamp(&c1), bounds.clamp(&c2))
}

/// Polynomial mutation.
fn polynomial_mutation(x: &mut Vec<f64>, bounds: &Bounds, prob: f64, rng: &mut Rng64) {
    let span = bounds.span();
    for d in 0..x.len() {
        if rng.next_f64() >= prob || span[d] <= 0.0 {
            continue;
        }
        let u: f64 = rng.next_f64();
        let delta = if u < 0.5 {
            (2.0 * u).powf(1.0 / (ETA_MUTATION + 1.0)) - 1.0
        } else {
            1.0 - (2.0 * (1.0 - u)).powf(1.0 / (ETA_MUTATION + 1.0))
        };
        x[d] += delta * span[d];
    }
    *x = bounds.clamp(x);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::{hypervolume_2d, pareto_front_indices};

    /// ZDT1-style convex benchmark in 3 variables.
    fn zdt1(x: &[f64]) -> Vec<f64> {
        let f1 = x[0];
        let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
        let f2 = g * (1.0 - (f1 / g).sqrt());
        vec![f1, f2]
    }

    fn concave_pair(x: &[f64]) -> Vec<f64> {
        let t = x[0].clamp(0.0, 1.0);
        // Points on the unit circle f1² + f2² = 1 bulge away from the
        // origin: a concave front under minimization.
        vec![t, (1.0 - t * t).sqrt()]
    }

    #[test]
    fn approximates_zdt1_front() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &zdt1;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let cfg = Nsga2Config {
            generations: 120,
            ..Default::default()
        };
        let r = nsga2(obj, &bounds, &cfg);
        assert!(r.front.len() >= 20, "front size {}", r.front.len());
        // True front: f2 = 1 − sqrt(f1) with g = 1. Check closeness.
        for ind in &r.front {
            let expect = 1.0 - ind.objectives[0].max(0.0).sqrt();
            assert!(
                (ind.objectives[1] - expect).abs() < 0.05,
                "({}, {}) vs ideal {expect}",
                ind.objectives[0],
                ind.objectives[1]
            );
        }
        // Spread: both ends present.
        let f1s: Vec<f64> = r.front.iter().map(|i| i.objectives[0]).collect();
        assert!(f1s.iter().cloned().fold(f64::INFINITY, f64::min) < 0.1);
        assert!(f1s.iter().cloned().fold(f64::NEG_INFINITY, f64::max) > 0.9);
    }

    #[test]
    fn covers_concave_front_unlike_weighted_sum() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &concave_pair;
        let bounds = Bounds::uniform(1, 0.0, 1.0);
        let cfg = Nsga2Config {
            generations: 60,
            ..Default::default()
        };
        let r = nsga2(obj, &bounds, &cfg);
        let interior = r
            .front
            .iter()
            .filter(|i| i.objectives[0] > 0.1 && i.objectives[0] < 0.9)
            .count();
        assert!(interior > 5, "NSGA-II must populate the concave interior");
    }

    #[test]
    fn front_is_internally_nondominated() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &zdt1;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let r = nsga2(
            obj,
            &bounds,
            &Nsga2Config {
                generations: 30,
                ..Default::default()
            },
        );
        let objs: Vec<Vec<f64>> = r.front.iter().map(|i| i.objectives.clone()).collect();
        assert_eq!(pareto_front_indices(&objs).len(), objs.len());
    }

    #[test]
    fn hypervolume_grows_with_generations() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &zdt1;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let short = nsga2(
            obj,
            &bounds,
            &Nsga2Config {
                generations: 5,
                seed: 7,
                ..Default::default()
            },
        );
        let long = nsga2(
            obj,
            &bounds,
            &Nsga2Config {
                generations: 80,
                seed: 7,
                ..Default::default()
            },
        );
        let hv = |r: &Nsga2Result| {
            let pts: Vec<Vec<f64>> = r.front.iter().map(|i| i.objectives.clone()).collect();
            hypervolume_2d(&pts, [1.5, 10.0])
        };
        assert!(hv(&long) > hv(&short), "{} vs {}", hv(&long), hv(&short));
    }

    #[test]
    fn cold_screen_matches_unscreened_exactly() {
        // Every objective value sits above the screen's outlier cap, so
        // no row ever trains it and it stays cold.
        let lifted = |x: &[f64]| zdt1(x).into_iter().map(|f| f + 2e4).collect();
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &lifted;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let cfg = Nsga2Config {
            generations: 15,
            seed: 23,
            ..Default::default()
        };
        let plain = nsga2(obj, &bounds, &cfg);
        let mut scr = rfkit_surrogate::SurrogateScreen::new(
            3,
            2,
            rfkit_surrogate::SurrogateConfig { seed: 0x5eed5 },
        );
        let screened = nsga2_screened(obj, &bounds, &cfg, &mut scr);
        assert_eq!(plain.front, screened.front);
        assert_eq!(plain.evaluations, screened.evaluations);
        let stats = scr.stats();
        assert!(stats.fallbacks > 0);
        assert_eq!(
            (stats.accepted, stats.rejected, stats.explored),
            (0, 0, 0),
            "a cold screen made a non-fallback decision"
        );
    }

    #[test]
    fn armed_screen_prunes_and_keeps_front_quality() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &zdt1;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let cfg = Nsga2Config {
            generations: 120,
            seed: 31,
            ..Default::default()
        };
        let plain = nsga2(obj, &bounds, &cfg);
        let mut scr = rfkit_surrogate::SurrogateScreen::new(
            3,
            2,
            rfkit_surrogate::SurrogateConfig { seed: 0x5eed5 },
        );
        let screened = nsga2_screened(obj, &bounds, &cfg, &mut scr);
        assert!(scr.stats().rejected > 0, "screen never pruned anything");
        assert!(
            screened.evaluations < plain.evaluations,
            "screened {} vs plain {}",
            screened.evaluations,
            plain.evaluations
        );
        let hv = |r: &Nsga2Result| {
            let pts: Vec<Vec<f64>> = r.front.iter().map(|i| i.objectives.clone()).collect();
            hypervolume_2d(&pts, [1.5, 10.0])
        };
        let (hp, hs) = (hv(&plain), hv(&screened));
        assert!(
            hs > 0.95 * hp,
            "screened hypervolume {hs} collapsed vs plain {hp}"
        );
    }

    #[test]
    fn deterministic_with_seed() {
        let obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &zdt1;
        let bounds = Bounds::uniform(3, 0.0, 1.0);
        let cfg = Nsga2Config {
            generations: 10,
            seed: 11,
            ..Default::default()
        };
        let r1 = nsga2(obj, &bounds, &cfg);
        let r2 = nsga2(obj, &bounds, &cfg);
        assert_eq!(r1.front, r2.front);
        assert_eq!(r1.evaluations, r2.evaluations);
    }
}
