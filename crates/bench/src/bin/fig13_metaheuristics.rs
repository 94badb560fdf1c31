//! **F13 (extension) — meta-heuristic bake-off on the DC extraction.**
//!
//! The abstract credits "meta-heuristic and direct optimization methods";
//! this figure compares the three meta-heuristics in `rfkit-opt`
//! (differential evolution, simulated annealing, particle swarm) on the
//! step-1 DC identification at equal budget, 7 seeds each.
//!
//! Measured shape (recorded in EXPERIMENTS.md): on this smooth
//! 7-parameter landscape PSO converges fastest (its median reaches the
//! data's noise floor), SA lands an order of magnitude above it, and
//! DE — the most cautious explorer — is slowest per evaluation budget but
//! never wanders far. All three finish well inside the basin the direct
//! (LM) refinement of step 3 then polishes to the floor, which is the
//! actual requirement the three-step procedure places on its global
//! phase.

use lna_bench::{golden_dataset, header};
use rfkit_device::dc::{Angelov, DcModel as _};
use rfkit_device::MeasurementNoise;
use rfkit_extract::objective::dc_loss;
use rfkit_num::stats::{max as smax, median, min as smin};
use rfkit_opt::{
    differential_evolution, particle_swarm, simulated_annealing, DeConfig, PsoConfig, SaConfig,
};

const BUDGET: usize = 15_000;
const SEEDS: u64 = 7;

fn main() {
    header(
        "Figure 13 (extension)",
        "meta-heuristics on the DC identification (7 seeds)",
    );
    let data = golden_dataset(MeasurementNoise::default());
    let bounds = Angelov.param_bounds();
    let objective = |p: &[f64]| dc_loss(&Angelov, p, &data.dc, 1e-3);

    let mut results: Vec<(&str, Vec<f64>)> = Vec::new();
    let mut de_vals = Vec::new();
    let mut sa_vals = Vec::new();
    let mut pso_vals = Vec::new();
    for seed in 0..SEEDS {
        de_vals.push(
            differential_evolution(
                objective,
                &bounds,
                &DeConfig {
                    max_evals: BUDGET,
                    seed,
                },
            )
            .value,
        );
        sa_vals.push(
            simulated_annealing(
                objective,
                &bounds,
                &SaConfig {
                    max_evals: BUDGET,
                    seed,
                },
            )
            .value,
        );
        pso_vals.push(
            particle_swarm(
                objective,
                &bounds,
                &PsoConfig {
                    max_evals: BUDGET,
                    seed,
                },
            )
            .value,
        );
    }
    results.push(("differential evolution", de_vals));
    results.push(("particle swarm", pso_vals));
    results.push(("simulated annealing", sa_vals));

    println!("\nHuber DC loss after {BUDGET} evaluations (lower is better):");
    println!(
        "{:<24} {:>12} {:>12} {:>12}",
        "method", "best", "median", "worst"
    );
    for (name, vals) in &results {
        println!(
            "{name:<24} {:>12.3e} {:>12.3e} {:>12.3e}",
            smin(vals),
            median(vals),
            smax(vals)
        );
    }
    println!("\n(the noise floor of the 0.5 % synthetic data is ~1e-5 in this loss)");
}
