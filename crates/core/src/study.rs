//! Surrogate-accelerated Pareto-front study of the band-level NF/gain
//! trade-off.
//!
//! The paper's Figure-4 study traces the noise-figure-versus-gain front;
//! this module runs the band-level (worst-case in-band) version of that
//! trade-off with NSGA-II, optionally screened by an `rfkit-surrogate`
//! response-surface model trained from a [`DesignCache`] snapshot. The
//! screen only *vetoes* true band evaluations — every objective vector
//! that reaches the returned front passed through
//! [`BandMetrics::evaluate`](crate::band::BandMetrics::evaluate) via the
//! cache, so surrogate predictions can never contaminate results
//! (prune-never-propagate).
//!
//! The cache is taken by reference so a warm-up run (or a previous
//! study) can seed the surrogate's training set: points the flow already
//! paid for become free model fodder through
//! [`surrogate_training_set`].

use crate::amplifier::DesignVariables;
use crate::band::BandSpec;
use crate::cache::DesignCache;
use crate::design::INFEASIBLE;
use rfkit_device::Phemt;
use rfkit_opt::pareto::hypervolume_2d;
use rfkit_opt::{nsga2, nsga2_screened, Individual, Nsga2Config};
use rfkit_surrogate::{ScreenStats, SurrogateConfig, SurrogateScreen};

/// Hypervolume reference point for the study: 3 dB worst-case noise
/// figure, 0 dB worst-case gain. A front point contributes only when it
/// beats both — i.e. is a usable GNSS preamplifier at all.
pub const STUDY_REFERENCE: [f64; 2] = [3.0, 0.0];

/// Builds the 2-component band objective vector
/// `[worst NF dB, −min gain dB]` memoized through `cache`, with
/// unconditional stability folded in as a feasibility gate: a design
/// whose stability factor dips to `μ ≤ 1` anywhere on the wide grid
/// takes the infeasibility penalty (`1e3`) in both objectives, exactly
/// like an unreachable bias point.
pub fn nf_gain_objectives<'a>(
    device: &'a Phemt,
    band: &'a BandSpec,
    cache: &'a DesignCache,
) -> impl Fn(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        let vars = DesignVariables::from_vec(x);
        match cache.evaluate(device, vars, band) {
            Some(m) if m.min_mu > 1.0 => vec![m.worst_nf_db, -m.min_gain_db],
            _ => vec![INFEASIBLE; 2],
        }
    }
}

/// Extracts the surrogate training set from a cache snapshot: one
/// `(design vector, objective vector)` pair per entry, in deterministic
/// snapshot order, scored exactly as [`nf_gain_objectives`] would score
/// it — feasible stable entries carry their real
/// `[worst NF dB, −min gain dB]`, everything else the infeasibility
/// penalty vector (`1e3` in both objectives).
///
/// Penalty rows are deliberately *included*: on this landscape the
/// dominant structure is the thin unconditionally-stable region inside a
/// sea of `μ ≤ 1` designs, and a screen that never saw the sea cannot
/// veto candidates in it. The RBF model of [`study_screen_config`]
/// localizes the cliff (predictions relax to the penalty plateau away
/// from feasible training points) instead of smearing it the way a
/// global polynomial would. Training values still never propagate — they
/// only shape keep/skip verdicts.
pub fn surrogate_training_set(cache: &DesignCache) -> Vec<(Vec<f64>, Vec<f64>)> {
    cache
        .snapshot()
        .into_iter()
        .map(|(vars, metrics)| {
            let f = match metrics {
                Some(m)
                    if m.min_mu > 1.0 && m.worst_nf_db.is_finite() && m.min_gain_db.is_finite() =>
                {
                    vec![m.worst_nf_db, -m.min_gain_db]
                }
                _ => vec![INFEASIBLE; 2],
            };
            (vars.to_vec(), f)
        })
        .collect()
}

/// Surrogate screen configuration of the band study: the screen's
/// exploration seed. The screen itself fixes everything else — an RBF
/// model that can localize the feasibility cliff, an outlier cap that
/// admits the infeasibility penalty encoding as training data, an
/// always-on improvement margin, a batch keep floor and an exploration
/// trickle (the constants in `rfkit-surrogate`'s `screen.rs` give the
/// values and the reasons).
pub fn study_screen_config(seed: u64) -> SurrogateConfig {
    SurrogateConfig { seed }
}

/// Configuration of [`pareto_front_study`].
#[derive(Debug, Clone)]
pub struct ParetoStudyConfig {
    /// NSGA-II population size (even; 0 selects the optimizer default).
    pub population: usize,
    /// NSGA-II generations.
    pub generations: usize,
    /// RNG seed (optimizer; the screen derives its own from
    /// [`SurrogateConfig::seed`]).
    pub seed: u64,
    /// Design vectors injected into the initial population (warm
    /// start) — typically a previous study's front. Injected designs
    /// are evaluated like any other; an empty vector (the default)
    /// starts from a fully random population.
    pub initial: Vec<Vec<f64>>,
    /// Surrogate screen to arm, or `None` for a plain (baseline) run.
    pub surrogate: Option<SurrogateConfig>,
}

impl Default for ParetoStudyConfig {
    fn default() -> Self {
        ParetoStudyConfig {
            population: 48,
            generations: 40,
            seed: 0xf4,
            initial: Vec::new(),
            surrogate: Some(study_screen_config(0x5ca1e)),
        }
    }
}

/// Result of a [`pareto_front_study`] run.
#[derive(Debug, Clone)]
pub struct ParetoStudy {
    /// Final non-dominated front; every objective vector is
    /// true-evaluated (feasible points carry real band metrics).
    pub front: Vec<Individual>,
    /// Dominated 2-D hypervolume against [`STUDY_REFERENCE`].
    pub hypervolume: f64,
    /// True objective evaluations spent by the optimizer (screen-pruned
    /// candidates excluded).
    pub evaluations: usize,
    /// Full band sweeps actually computed (cache misses during the run).
    pub band_evaluations: u64,
    /// Band sweeps avoided by the memo cache during the run.
    pub cache_hits: u64,
    /// Evaluations-to-quality curve: `(true evaluations so far,
    /// first-front hypervolume against `STUDY_REFERENCE`)` after
    /// initialisation and after each generation. This is what
    /// equal-quality comparisons (benchmarks) read: the evaluation
    /// count at which a run first reaches a given hypervolume.
    pub history: Vec<(usize, f64)>,
    /// Screen decision counters, when a surrogate was armed.
    pub screen_stats: Option<ScreenStats>,
}

/// Traces the band-level NF/gain Pareto front for `device` over `band`.
///
/// With `config.surrogate` set, the screen is seeded from the cache's
/// current contents ([`surrogate_training_set`]) and consulted serially
/// before every parallel offspring batch; otherwise this is a plain
/// NSGA-II run. Either way the cache memoizes band sweeps, so a study
/// run on a warm cache both trains better models and pays for fewer
/// sweeps. Fixed seeds give bit-identical fronts at any `RFKIT_THREADS`.
pub fn pareto_front_study(
    device: &Phemt,
    band: &BandSpec,
    config: &ParetoStudyConfig,
    cache: &DesignCache,
) -> ParetoStudy {
    let _span = rfkit_obs::span("study.pareto");
    let objectives = nf_gain_objectives(device, band, cache);
    let objective_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let bounds = DesignVariables::bounds();
    let nsga_cfg = Nsga2Config {
        population: config.population,
        generations: config.generations,
        seed: config.seed,
        hv_reference: Some(STUDY_REFERENCE),
        initial_population: config.initial.clone(),
        ..Default::default()
    };
    let hits_before = cache.hits();
    let misses_before = cache.misses();

    let (result, screen_stats) = match &config.surrogate {
        Some(screen_cfg) => {
            let mut screen = SurrogateScreen::new(bounds.dim(), 2, screen_cfg.clone());
            screen.seed_training(&surrogate_training_set(cache));
            let r = nsga2_screened(objective_ref, &bounds, &nsga_cfg, &mut screen);
            (r, Some(screen.stats()))
        }
        None => (nsga2(objective_ref, &bounds, &nsga_cfg), None),
    };

    let front_objs: Vec<Vec<f64>> = result.front.iter().map(|i| i.objectives.clone()).collect();
    let hypervolume = hypervolume_2d(&front_objs, STUDY_REFERENCE);
    let band_evaluations = cache.misses() - misses_before;
    let cache_hits = cache.hits() - hits_before;
    if rfkit_obs::enabled() {
        rfkit_obs::event(
            "study.result",
            &[
                ("front", result.front.len() as f64),
                ("hypervolume", hypervolume),
                ("evals", result.evaluations as f64),
                ("band_evals", band_evaluations as f64),
            ],
        );
    }

    ParetoStudy {
        front: result.front,
        hypervolume,
        evaluations: result.evaluations,
        band_evaluations,
        cache_hits,
        history: result.history,
        screen_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_study(surrogate: Option<SurrogateConfig>) -> ParetoStudyConfig {
        ParetoStudyConfig {
            population: 16,
            generations: 5,
            seed: 7,
            initial: Vec::new(),
            surrogate,
        }
    }

    #[test]
    fn training_set_mirrors_objective_penalty_encoding() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(64);
        // Heavier source degeneration and a light bias feed: one of the
        // few corners of the box where the wide-grid μ clears 1.
        let good = DesignVariables {
            vds: 3.0,
            ids: 0.050,
            l1: 6.8e-9,
            ls_deg: 0.8e-9,
            l2: 10e-9,
            c2: 2.2e-12,
            r_bias: 15.0,
        };
        let m = cache.evaluate(&d, good, &band).expect("reference feasible");
        assert!(m.min_mu > 1.0, "reference design must be stable");
        let mut bad = good;
        bad.ids = 3.0; // unreachable bias → cached as infeasible
        assert_eq!(cache.evaluate(&d, bad, &band), None);

        let train = surrogate_training_set(&cache);
        assert_eq!(train.len(), 2, "every cached entry trains");
        let feasible = train
            .iter()
            .find(|(x, _)| x == &good.to_vec())
            .expect("feasible entry present");
        assert_eq!(feasible.1, vec![m.worst_nf_db, -m.min_gain_db]);
        let penalty = train
            .iter()
            .find(|(x, _)| x == &bad.to_vec())
            .expect("infeasible entry present");
        assert_eq!(
            penalty.1,
            vec![INFEASIBLE; 2],
            "infeasible entries carry the objective's penalty encoding"
        );
        // The screen's outlier cap admits the penalty rows: they are how
        // the model learns where the feasibility cliff is.
        let mut screen = SurrogateScreen::new(7, 2, study_screen_config(1));
        screen.seed_training(&train);
        assert_eq!(screen.training_len(), 2);
    }

    #[test]
    fn study_front_is_true_evaluated_and_feasible() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::with_default_capacity();
        let study = pareto_front_study(&d, &band, &quick_study(None), &cache);
        assert!(!study.front.is_empty());
        assert!(study.hypervolume > 0.0, "no usable design on the front");
        // Every front point re-evaluates (from cache) to exactly the
        // objectives the optimizer recorded — nothing predicted, nothing
        // stale.
        let obj = nf_gain_objectives(&d, &band, &cache);
        for ind in &study.front {
            assert_eq!(ind.objectives, obj(&ind.x));
            assert!(ind.objectives[0] < INFEASIBLE);
        }
        assert_eq!(
            study.band_evaluations + study.cache_hits,
            study.evaluations as u64,
            "every optimizer evaluation is a cache hit or a band sweep"
        );
    }

    #[test]
    fn warm_cache_seeds_screen_and_preserves_quality() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        // Warm-up: a plain run populates the cache.
        let cache = DesignCache::with_default_capacity();
        let warmup = pareto_front_study(&d, &band, &quick_study(None), &cache);
        assert!(!surrogate_training_set(&cache).is_empty());

        // Screened run on the warm cache: the seeded model prunes, and
        // the front quality (hypervolume) stays in the same regime.
        let screened = pareto_front_study(
            &d,
            &band,
            &quick_study(Some(study_screen_config(0x5ca1e))),
            &cache,
        );
        let stats = screened.screen_stats.expect("screen was armed");
        assert!(stats.fits > 0, "seeded screen never fitted a model");
        assert!(
            screened.hypervolume > 0.5 * warmup.hypervolume,
            "screened front collapsed: {} vs {}",
            screened.hypervolume,
            warmup.hypervolume
        );
        // The screen's decisions are serial and seeded, so they move
        // only when a prediction's bits move: pin them exactly.
        assert_eq!(
            stats,
            ScreenStats {
                fits: 1,
                accepted: 6,
                rejected: 65,
                explored: 9,
                fallbacks: 0,
                forced: 0,
            }
        );
        assert_eq!(
            screened.hypervolume.to_bits(),
            39.34273959308099_f64.to_bits(),
            "{}",
            screened.hypervolume
        );
    }
}
