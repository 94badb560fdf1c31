//! **F1 — extraction convergence: three-step vs single-method baselines.**
//!
//! Plots combined fit error versus objective evaluations for the
//! three-step procedure and three single-optimizer baselines on the same
//! joint identification problem, over 7 random-start seeds. Expected
//! shape: the local methods (LM, NM) are *hit-or-miss* — their best seed
//! matches the three-step result but their worst seed stalls in a local
//! minimum one to two orders of magnitude higher; DE-only never stalls
//! but its 20-dimensional tail converges slowly; the three-step
//! combination is the only one whose **worst** seed equals its best.
//!
//! Each method's seeds run as one `rfkit-par` batch, so every optimizer
//! inside a seed runs serially and `CountingObjective` numbers its calls
//! in input order: the printed traces are the same at any
//! `RFKIT_THREADS`.

use lna_bench::{golden_dataset, header};
use rfkit_device::dc::Angelov;
use rfkit_device::MeasurementNoise;
use rfkit_extract::{extract_single_method, three_step, SingleMethod, ThreeStepConfig};
use rfkit_num::stats::median;
use rfkit_par::{par_collect, ParConfig};

const BUDGET: usize = 30_000;
const SEEDS: usize = 7;

fn main() {
    header("Figure 1", "extraction convergence over 7 random seeds");
    let data = golden_dataset(MeasurementNoise::default());
    // One item per seed: each is a whole extraction run, so even a short
    // batch is worth dispatching.
    let seeds_cfg = ParConfig {
        serial_threshold: 0,
        ..ParConfig::default()
    };

    // Three-step: checkpoints after each phase.
    let mut three_errors: Vec<Vec<f64>> = vec![Vec::new(); 3];
    let three_runs = par_collect(SEEDS, &seeds_cfg, |seed| {
        let cfg = ThreeStepConfig {
            step1_evals: BUDGET * 2 / 5,
            step2_evals: BUDGET * 2 / 5,
            step3_evals: BUDGET / 5,
            seed: seed as u64,
        };
        three_step(&Angelov, &data, &cfg)
    });
    for r in &three_runs {
        for (k, (_, err)) in r.checkpoints.iter().enumerate() {
            three_errors[k].push(*err);
        }
    }
    println!("\nthree-step (checkpoints at 40/80/100 % of budget):");
    let mut three_finals = Vec::new();
    for (k, errs) in three_errors.iter().enumerate() {
        println!(
            "  checkpoint {}: evals ≈ {:>6}, median combined error = {:.4}",
            k + 1,
            BUDGET * 2 * (k + 1).min(2) / 5 + if k == 2 { BUDGET / 5 } else { 0 },
            median(errs)
        );
        if k == 2 {
            three_finals = errs.clone();
        }
    }
    println!(
        "  final combined RMSE: best {:.4} / median {:.4} / worst {:.4}",
        rfkit_num::stats::min(&three_finals),
        median(&three_finals),
        rfkit_num::stats::max(&three_finals)
    );

    for (name, method) in [
        ("DE-only", SingleMethod::DeOnly),
        ("NM-only", SingleMethod::NelderMeadOnly),
        ("LM-only", SingleMethod::LmOnly),
    ] {
        // Sample the improvement trace at fixed eval fractions.
        let fractions = [0.1, 0.25, 0.5, 0.75, 1.0];
        let mut sampled: Vec<Vec<f64>> = vec![Vec::new(); fractions.len()];
        let mut finals = Vec::new();
        let runs = par_collect(SEEDS, &seeds_cfg, |seed| {
            extract_single_method(method, &Angelov, &data, BUDGET, seed as u64)
        });
        for (r, trace) in runs {
            finals.push(r.dc_rmse + r.sparam_rmse);
            for (k, frac) in fractions.iter().enumerate() {
                let target = (*frac * BUDGET as f64) as usize;
                let best = trace
                    .iter()
                    .take_while(|(e, _)| *e <= target)
                    .map(|(_, v)| *v)
                    .last()
                    .unwrap_or(f64::INFINITY);
                sampled[k].push(best);
            }
        }
        println!("\n{name}:");
        for (frac, vals) in fractions.iter().zip(&sampled) {
            println!(
                "  {:>5.0} % of budget: median objective = {:.4}",
                frac * 100.0,
                median(vals)
            );
        }
        println!(
            "  final combined RMSE: best {:.4} / median {:.4} / worst {:.4}",
            rfkit_num::stats::min(&finals),
            median(&finals),
            rfkit_num::stats::max(&finals)
        );
    }
}
