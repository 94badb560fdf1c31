//! **F8 — ablation of the improved goal-attainment method.**
//!
//! Solves the reference band-design goal problem 10 times per variant and
//! reports the attainment-value distribution:
//!
//! * improved (exact minimax + DE global + pattern polish)
//! * no-global (exact minimax + pattern search from the box center)
//! * standard (penalty form + Nelder–Mead from random starts)
//!
//! Expected shape: improved has the best median *and* the tightest spread;
//! the no-global ablation shows start sensitivity; the standard method is
//! both worse and wider.

use lna::{band_objectives, BandSpec, DesignVariables};
use lna_bench::header;
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_num::stats::{median, percentile};
use rfkit_opt::{
    improved_goal_attainment, pattern_search, standard_goal_attainment, GoalConfig, GoalProblem,
    PatternConfig,
};

const RUNS: u64 = 10;
const BUDGET: usize = 5_000;

fn summarize(name: &str, values: &[f64]) {
    println!(
        "{name:<38} median γ = {:>9.3}   p10 = {:>9.3}   p90 = {:>9.3}",
        median(values),
        percentile(values, 10.0),
        percentile(values, 90.0)
    );
}

fn main() {
    header(
        "Figure 8",
        "goal-attainment ablation: attainment distribution over 10 runs",
    );
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let objectives = band_objectives(&device, &band);
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let goals = vec![0.8, -14.0, -10.0, -10.0, -0.005];
    let weights = vec![0.5, 2.0, 0.0, 0.0, 0.0];
    let bounds = DesignVariables::bounds();

    let make_problem = || GoalProblem::new(obj_ref, goals.clone(), weights.clone(), bounds.clone());

    let mut improved = Vec::new();
    for seed in 0..RUNS {
        let p = make_problem();
        let r = improved_goal_attainment(
            &p,
            &GoalConfig {
                max_evals: BUDGET,
                seed,
                multistart: 1,
                global_fraction: 0.7,
            },
        );
        improved.push(r.attainment);
    }
    summarize("improved (DE global + pattern polish)", &improved);

    let mut no_global = Vec::new();
    let mut rng = Rng64::new(0xab1a7);
    for _ in 0..RUNS {
        let p = make_problem();
        let start: Vec<f64> = bounds
            .lo()
            .iter()
            .zip(bounds.hi())
            .map(|(&l, &h)| rng.uniform(l, h))
            .collect();
        let r = pattern_search(
            |x| p.attainment(&(p.objectives)(x)),
            &start,
            &bounds,
            &PatternConfig {
                max_evals: BUDGET,
                ..Default::default()
            },
        );
        no_global.push(r.value);
    }
    summarize("ablation: exact minimax, local only", &no_global);

    let mut standard = Vec::new();
    let mut rng = Rng64::new(0x57d);
    for _ in 0..RUNS {
        let p = make_problem();
        let start: Vec<f64> = bounds
            .lo()
            .iter()
            .zip(bounds.hi())
            .map(|(&l, &h)| rng.uniform(l, h))
            .collect();
        let r = standard_goal_attainment(
            &p,
            &start,
            &GoalConfig {
                max_evals: BUDGET,
                ..Default::default()
            },
        );
        standard.push(r.attainment);
    }
    summarize("standard (penalty + Nelder-Mead)", &standard);

    println!("\n(γ < 0 means every goal over-attained; large γ means a hard");
    println!(" constraint — stability or return loss — is still violated)");
}
