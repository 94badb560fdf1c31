//! The goal-attainment design flow — the paper's "optimal selection of the
//! amplifier operating point and essential passive elements … using the
//! previously improved goal attainment method".
//!
//! Two soft objectives (worst-case in-band noise figure, worst-case
//! in-band transducer gain) trade off against each other; return loss and
//! unconditional stability enter as hard (zero-weight) goals. After the
//! continuous optimum is found, the passives are snapped to catalog (E24)
//! values and the design is re-verified — the paper's prototype is, after
//! all, built from purchasable parts.

use crate::amplifier::{Amplifier, DesignVariables};
use crate::band::{BandMetrics, BandSpec};
use crate::cache::DesignCache;
use rfkit_device::Phemt;
use rfkit_opt::{improved_goal_attainment, standard_goal_attainment, GoalConfig, GoalProblem};
use rfkit_passive::ESeries;

/// Design aspirations for the flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignGoals {
    /// Worst-case in-band noise-figure goal (dB).
    pub nf_db: f64,
    /// Worst-case in-band gain goal (dB).
    pub gain_db: f64,
    /// Hard in-band return-loss requirement for |S11| and |S22| (dB).
    pub return_loss_db: f64,
    /// Relative weight of the NF goal (larger = softer).
    pub nf_weight: f64,
    /// Relative weight of the gain goal.
    pub gain_weight: f64,
    /// Required stability margin: the design must keep `min μ ≥ 1 + margin`
    /// so component snapping and tolerances cannot push it conditional.
    pub stability_margin: f64,
}

impl Default for DesignGoals {
    fn default() -> Self {
        DesignGoals {
            nf_db: 0.8,
            gain_db: 14.0,
            return_loss_db: -10.0,
            nf_weight: 0.5,
            gain_weight: 2.0,
            stability_margin: 0.005,
        }
    }
}

/// Penalty objective value for designs with unreachable bias.
pub(crate) const INFEASIBLE: f64 = 1e3;

/// Maps a band evaluation to the 5-component objective vector (shared by
/// the direct and memoized objective builders so both produce identical
/// values).
fn band_objective_vec(metrics: Option<BandMetrics>) -> Vec<f64> {
    match metrics {
        Some(m) => vec![
            m.worst_nf_db,
            -m.min_gain_db,
            m.worst_s11_db,
            m.worst_s22_db,
            1.0 - m.min_mu,
        ],
        None => vec![INFEASIBLE; 5],
    }
}

/// Builds the 5-component objective vector
/// `[worst NF, −min gain, worst |S11|, worst |S22|, 1 − min μ]` (all dB
/// except the last) used by every optimizer in the comparison.
pub fn band_objectives<'a>(
    device: &'a Phemt,
    band: &'a BandSpec,
) -> impl Fn(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        let vars = DesignVariables::from_vec(x);
        let amp = Amplifier::new(device, vars);
        band_objective_vec(BandMetrics::evaluate(&amp, band))
    }
}

/// Like [`band_objectives`], but memoized through a [`DesignCache`]:
/// candidates that collide on the exact same variable bits (as snapping
/// and repair make them do) skip the band evaluation. Values are
/// bit-identical to [`band_objectives`] — the cache can only substitute a
/// result for itself.
pub fn cached_band_objectives<'a>(
    device: &'a Phemt,
    band: &'a BandSpec,
    cache: &'a DesignCache,
) -> impl Fn(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        let vars = DesignVariables::from_vec(x);
        band_objective_vec(cache.evaluate(device, vars, band))
    }
}

/// Builds the 3-component spot-frequency objective vector
/// `[NF(f0) dB, −gain(f0) dB, 1 − min μ]` used by the Pareto-front study
/// (F4): noise and gain trade at one frequency, stability stays a hard
/// constraint over the wide grid.
pub fn spot_objectives<'a>(device: &'a Phemt, f0_hz: f64) -> impl Fn(&[f64]) -> Vec<f64> + 'a {
    move |x: &[f64]| {
        let vars = DesignVariables::from_vec(x);
        let Some(biased) = Amplifier::new(device, vars).biased() else {
            return vec![INFEASIBLE; 3];
        };
        let spot = match biased.in_band(f0_hz) {
            Some(m) => m,
            None => return vec![INFEASIBLE; 3],
        };
        let mut min_mu = f64::INFINITY;
        for &f in BandSpec::stability_grid() {
            match biased.stability(f) {
                Some(s) => min_mu = min_mu.min(s.mu),
                None => return vec![INFEASIBLE; 3],
            }
        }
        vec![spot.nf_db, -spot.gain_db, 1.0 - min_mu]
    }
}

/// A finished design.
#[derive(Debug, Clone, PartialEq)]
pub struct LnaDesign {
    /// Continuous optimizer solution.
    pub continuous: DesignVariables,
    /// E24-snapped, buildable solution.
    pub snapped: DesignVariables,
    /// Band metrics of the continuous solution.
    pub continuous_metrics: BandMetrics,
    /// Band metrics after snapping.
    pub snapped_metrics: BandMetrics,
    /// Attainment factor γ of the continuous solution (negative = goals
    /// over-attained).
    pub attainment: f64,
    /// Objective evaluations consumed.
    pub evaluations: usize,
}

/// Configuration of the design run.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignConfig {
    /// Objective-evaluation budget.
    pub max_evals: usize,
    /// RNG seed.
    pub seed: u64,
    /// Band to design for.
    pub band: BandSpec,
    /// Use the improved (true) or standard (false) goal-attainment solver.
    pub improved: bool,
}

impl Default for DesignConfig {
    fn default() -> Self {
        DesignConfig {
            max_evals: 6_000,
            seed: 0x1a5,
            band: BandSpec::gnss(),
            improved: true,
        }
    }
}

/// Runs the design flow.
///
/// # Panics
///
/// Panics if the optimizer returns an infeasible design even after the
/// full budget (does not occur for the golden device with sane goals).
pub fn design_lna(device: &Phemt, goals: &DesignGoals, config: &DesignConfig) -> LnaDesign {
    let _span = rfkit_obs::span("design.total");
    // Memoize band evaluations: snap/repair quantize candidates onto a
    // coarse lattice, so the pattern-search polish and re-verification
    // revisit identical points. The cache is local to this run, so
    // repeated designs with different devices/goals never cross-talk.
    let cache = DesignCache::with_default_capacity();
    let objectives = cached_band_objectives(device, &config.band, &cache);
    let objective_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let goal_vec = vec![
        goals.nf_db,
        -goals.gain_db,
        goals.return_loss_db,
        goals.return_loss_db,
        -goals.stability_margin,
    ];
    let weights = vec![goals.nf_weight, goals.gain_weight, 0.0, 0.0, 0.0];
    let problem = GoalProblem::new(objective_ref, goal_vec, weights, DesignVariables::bounds());
    // One long global phase beats split multistarts in this 7-dimensional
    // space at practical budgets.
    let cfg = GoalConfig {
        max_evals: config.max_evals,
        seed: config.seed,
        multistart: 1,
        global_fraction: 0.7,
    };
    let result = {
        let _span = rfkit_obs::span("design.optimize");
        if config.improved {
            improved_goal_attainment(&problem, &cfg)
        } else {
            standard_goal_attainment(&problem, &problem.bounds.center(), &cfg)
        }
    };

    let continuous = DesignVariables::from_vec(&result.x);
    let continuous_metrics = cache
        .evaluate(device, continuous, &config.band)
        .expect("optimizer returned feasible design");

    let snapped = {
        let _span = rfkit_obs::span("design.snap_repair");
        repair_snapped(&problem, snap_to_catalog(continuous))
    };
    let snapped_metrics = cache
        .evaluate(device, snapped, &config.band)
        .expect("snapped design feasible");

    if rfkit_obs::enabled() {
        rfkit_obs::event(
            "design.result",
            &[
                ("attainment", result.attainment),
                ("evals", result.evaluations as f64),
                ("nf_db", snapped_metrics.worst_nf_db),
                ("gain_db", snapped_metrics.min_gain_db),
                ("cache_hit_rate", cache.hit_rate()),
            ],
        );
    }

    LnaDesign {
        continuous,
        snapped,
        continuous_metrics,
        snapped_metrics,
        attainment: result.attainment,
        evaluations: result.evaluations,
    }
}

/// After snapping, the catalog parts are frozen and the still-continuous
/// variables (bias point, board degeneration, bias-feed resistor) are
/// re-polished against the same attainment function — the snap may
/// otherwise erode a hard constraint (typically the stability margin).
fn repair_snapped(problem: &GoalProblem<'_>, snapped: DesignVariables) -> DesignVariables {
    use rfkit_opt::{pattern_search, Bounds, PatternConfig};
    // Free dims in the 7-vector: vds (0), ids_mA (1), ls_nH (3), r_bias (6).
    let frozen = snapped.to_vec();
    let full = DesignVariables::bounds();
    let free = [0usize, 1, 3, 6];
    let bounds = Bounds::new(
        free.iter().map(|&i| full.lo()[i]).collect(),
        free.iter().map(|&i| full.hi()[i]).collect(),
    )
    .expect("repair bounds valid");
    let expand = |y: &[f64]| -> Vec<f64> {
        let mut x = frozen.clone();
        for (k, &i) in free.iter().enumerate() {
            x[i] = y[k];
        }
        x
    };
    let start: Vec<f64> = free.iter().map(|&i| frozen[i]).collect();
    let r = pattern_search(
        |y| problem.attainment(&(problem.objectives)(&expand(y))),
        &start,
        &bounds,
        &PatternConfig {
            max_evals: 600,
            initial_step: 0.02,
        },
    );
    let mut repaired = DesignVariables::from_vec(&expand(&r.x));
    // Keep the repaired bias current on its 5 mA grid and the feed
    // resistor on E24 where that costs nothing.
    repaired.ids = (repaired.ids / 5e-3).round().max(1.0) * 5e-3;
    repaired.r_bias = ESeries::E24.snap(repaired.r_bias);
    let check = |v: DesignVariables| problem.attainment(&(problem.objectives)(&v.to_vec()));
    let unquantized = DesignVariables::from_vec(&expand(&r.x));
    if check(repaired) <= check(unquantized) {
        repaired
    } else {
        unquantized
    }
}

/// Snaps the purchasable passives to E24 and the bias current to a 5 mA
/// grid (set by a bias resistor choice); board-level degeneration and Vds
/// stay continuous.
pub fn snap_to_catalog(vars: DesignVariables) -> DesignVariables {
    DesignVariables {
        vds: (vars.vds * 10.0).round() / 10.0,
        ids: (vars.ids / 5e-3).round().max(1.0) * 5e-3,
        l1: ESeries::E24.snap(vars.l1),
        ls_deg: vars.ls_deg,
        l2: ESeries::E24.snap(vars.l2),
        c2: ESeries::E24.snap(vars.c2),
        r_bias: ESeries::E24.snap(vars.r_bias),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> DesignConfig {
        DesignConfig {
            max_evals: 4_000,
            seed: 11,
            band: BandSpec::gnss(),
            improved: true,
        }
    }

    #[test]
    fn design_flow_produces_feasible_lna() {
        let d = Phemt::atf54143_like();
        let design = design_lna(&d, &DesignGoals::default(), &quick_config());
        let m = &design.continuous_metrics;
        assert!(m.min_mu > 1.0, "unconditionally stable: μ = {}", m.min_mu);
        assert!(m.worst_s11_db <= -9.0, "S11 = {} dB", m.worst_s11_db);
        assert!(m.worst_s22_db <= -9.0, "S22 = {} dB", m.worst_s22_db);
        assert!(m.worst_nf_db < 1.0, "NF = {} dB", m.worst_nf_db);
        // Worst-case gain over the whole 1.1-1.7 GHz band: the simple
        // L-match topology holds ~10-12 dB at the band edges.
        assert!(m.min_gain_db > 9.5, "gain = {} dB", m.min_gain_db);
    }

    #[test]
    fn snapping_is_catalog_valued_and_close() {
        let d = Phemt::atf54143_like();
        let design = design_lna(&d, &DesignGoals::default(), &quick_config());
        let s = design.snapped;
        // Snapped parts are E24 values (compare within float rounding).
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs();
        assert!(close(ESeries::E24.snap(s.l1), s.l1));
        assert!(close(ESeries::E24.snap(s.l2), s.l2));
        assert!(close(ESeries::E24.snap(s.c2), s.c2));
        // Snapping cannot wreck the design.
        let degradation =
            design.snapped_metrics.worst_nf_db - design.continuous_metrics.worst_nf_db;
        assert!(degradation < 0.3, "snapping cost {degradation} dB of NF");
        assert!(design.snapped_metrics.min_mu > 1.0);
    }

    #[test]
    fn infeasible_design_vector_is_penalized() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let obj = band_objectives(&d, &band);
        // 80 mA is in range; push Ids beyond the box to simulate a broken
        // candidate (the optimizer clamps, but the objective must cope).
        let mut x = DesignVariables {
            vds: 3.0,
            ids: 2.0,
            l1: 5e-9,
            ls_deg: 0.3e-9,
            l2: 10e-9,
            c2: 2e-12,
            r_bias: 30.0,
        }
        .to_vec();
        let f = obj(&x);
        assert!(f.iter().all(|&v| v == INFEASIBLE));
        x[1] = 40.0;
        assert!(obj(&x)[0] < 10.0);
    }

    #[test]
    fn attainment_tracks_goal_difficulty() {
        // The attainment factor is the method's own report of how far the
        // goals were missed: demanding ever more gain (as a hard goal) must
        // produce monotonically larger attainment values, and an easy goal
        // set must come out (near-)attained.
        let d = Phemt::atf54143_like();
        let attain_at_gain = |gain_goal: f64| {
            let goals = DesignGoals {
                nf_db: 0.3,
                nf_weight: 1.0,
                gain_db: gain_goal,
                gain_weight: 0.0,
                ..Default::default()
            };
            design_lna(&d, &goals, &quick_config()).attainment
        };
        let easy = attain_at_gain(9.5);
        let hard = attain_at_gain(13.0);
        let harder = attain_at_gain(14.5);
        assert!(easy < 5.0, "9.5 dB of gain is easy: γ = {easy}");
        assert!(hard > easy, "γ must grow with goal difficulty");
        assert!(harder > hard, "γ must keep growing: {hard} vs {harder}");
    }
}
