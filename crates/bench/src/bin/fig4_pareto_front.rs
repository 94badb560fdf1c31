//! **F4 — NF–gain Pareto front at 1.4 GHz: four multi-objective methods**
//! (paper claims 2+4: the improved goal attainment method applied to the
//! amplifier trade-off).
//!
//! The improved goal-attainment method sweeps hard NF goals and maximizes
//! gain; the standard (penalty/Nelder–Mead) goal attainment runs the same
//! sweep; the weighted-sum baseline sweeps weights; NSGA-II approximates
//! the front in one population run.
//!
//! Expected shape, panel A (NF vs gain): with inductive source
//! degeneration in the design space the noise match and the gain match
//! nearly coincide (that is *why* degeneration is used), so the front is
//! narrow — all methods cluster near one corner, and the comparison is
//! about who reaches it reliably: improved GA and NSGA-II do, standard GA
//! shows dropouts and dominated points.
//!
//! Panel B (worst-band NF vs DC power) is a genuinely conflicting pair —
//! lower bias power costs noise figure — and there the front has real
//! extent: the goal sweep of the improved method traces it point by
//! point.
//!
//! Exits nonzero unless standard goal attainment has the lowest
//! hypervolume of the four methods and panel B's NF falls monotonically
//! as the power cap rises.

use std::process::ExitCode;

use lna::{spot_objectives, DesignVariables};
use lna_bench::header;
use rfkit_device::Phemt;
use rfkit_num::linspace;
use rfkit_opt::pareto::{hypervolume_2d, pareto_front_indices};
use rfkit_opt::scalarize::weighted_sum_sweep;
use rfkit_opt::{
    improved_goal_attainment, nsga2, standard_goal_attainment, GoalConfig, GoalProblem, GoalResult,
    Nsga2Config,
};

const F0: f64 = 1.4e9;
const EVALS_PER_POINT: usize = 6_000;

/// Prints one method's front and returns its hypervolume.
fn print_front(name: &str, points: &[(f64, f64)], evals: usize) -> f64 {
    println!("\n{name} ({evals} objective evaluations):");
    println!("{:>10} {:>12}", "NF (dB)", "gain (dB)");
    for (nf, gain) in points {
        println!("{nf:>10.3} {gain:>12.2}");
    }
    let objs: Vec<Vec<f64>> = points.iter().map(|(nf, g)| vec![*nf, -*g]).collect();
    let nondom = pareto_front_indices(&objs).len();
    let hv = hypervolume_2d(&objs, [2.0, 0.0]);
    println!(
        "  non-dominated: {nondom}/{}  hypervolume(ref NF=2 dB, G=0 dB): {hv:.3}",
        points.len()
    );
    hv
}

fn main() -> ExitCode {
    header(
        "Figure 4",
        "NF vs gain Pareto front at 1.4 GHz, four methods",
    );
    let device = Phemt::atf54143_like();
    let objectives = spot_objectives(&device, F0);
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let bounds = DesignVariables::bounds();
    let nf_goals = linspace(0.35, 1.0, 9);

    // Improved goal attainment: hard NF goal, maximize gain.
    let mut improved = Vec::new();
    let mut improved_evals = 0usize;
    for (k, &nf_g) in nf_goals.iter().enumerate() {
        let p = GoalProblem::new(
            obj_ref,
            vec![nf_g, -25.0, -0.005],
            vec![0.0, 1.0, 0.0],
            bounds.clone(),
        );
        let r = improved_goal_attainment(
            &p,
            &GoalConfig {
                max_evals: EVALS_PER_POINT,
                seed: 40 + k as u64,
                multistart: 1,
                global_fraction: 0.7,
            },
        );
        improved_evals += r.evaluations;
        improved.push((r.objectives[0], -r.objectives[1]));
    }
    let improved_hv = print_front("improved goal attainment", &improved, improved_evals);

    // Standard goal attainment: same sweep, penalty + single NM descent.
    let mut standard = Vec::new();
    let mut standard_evals = 0usize;
    for (k, &nf_g) in nf_goals.iter().enumerate() {
        let p = GoalProblem::new(
            obj_ref,
            vec![nf_g, -25.0, -0.005],
            vec![0.0, 1.0, 0.0],
            bounds.clone(),
        );
        // Textbook usage: start from a nominal design guess.
        let mut start = bounds.center();
        start[1] = 30.0 + 4.0 * k as f64; // naive bias ladder
        let r: GoalResult = standard_goal_attainment(
            &p,
            &start,
            &GoalConfig {
                max_evals: EVALS_PER_POINT,
                ..Default::default()
            },
        );
        standard_evals += r.evaluations;
        standard.push((r.objectives[0], -r.objectives[1]));
    }
    let standard_hv = print_front("standard goal attainment", &standard, standard_evals);

    // Weighted sum baseline on [NF, -gain] + stability penalty.
    let penalized = |x: &[f64]| -> Vec<f64> {
        let f = objectives(x);
        let pen = 1e3 * f[2].max(0.0);
        vec![f[0] + pen, f[1] + pen]
    };
    let weights: Vec<Vec<f64>> = (1..10)
        .map(|k| {
            let a = k as f64 / 10.0;
            vec![10.0 * a, 1.0 - a] // NF in dB ~ 10x smaller scale than gain
        })
        .collect();
    let ws = weighted_sum_sweep(&penalized, &weights, &bounds, EVALS_PER_POINT, 77);
    let ws_points: Vec<(f64, f64)> = ws
        .iter()
        .map(|r| (r.objectives[0], -r.objectives[1]))
        .collect();
    let ws_hv = print_front(
        "weighted sum",
        &ws_points,
        ws.iter().map(|r| r.evaluations).sum(),
    );

    // NSGA-II on the penalized pair.
    let nsga_obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &penalized;
    let nsga = nsga2(
        nsga_obj,
        &bounds,
        &Nsga2Config {
            generations: 120,
            seed: 78,
            ..Default::default()
        },
    );
    let mut nsga_points: Vec<(f64, f64)> = nsga
        .front
        .iter()
        .map(|i| (i.objectives[0], -i.objectives[1]))
        .filter(|(nf, _)| *nf < 2.0)
        .collect();
    nsga_points.sort_by(|a, b| rfkit_num::total_cmp_f64(&a.0, &b.0));
    // Thin to ~12 representative points for the printout.
    let step = (nsga_points.len() / 12).max(1);
    let thinned: Vec<(f64, f64)> = nsga_points.iter().step_by(step).copied().collect();
    let nsga_hv = print_front("NSGA-II (thinned)", &thinned, nsga.evaluations);

    let panel_b_nf = panel_b(&device);

    let mut ok = true;
    if [improved_hv, ws_hv, nsga_hv]
        .iter()
        .any(|hv| *hv <= standard_hv)
    {
        eprintln!("claim failed: standard goal attainment does not have the lowest hypervolume");
        ok = false;
    }
    if panel_b_nf.windows(2).any(|w| w[1] > w[0]) {
        eprintln!("claim failed: panel B's NF does not fall as the power cap rises");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Panel B: worst-band NF vs DC power — a genuinely conflicting pair.
/// Returns the worst-band NF at each power goal, in ascending goal order.
fn panel_b(device: &Phemt) -> Vec<f64> {
    use lna::{band_objectives, BandSpec};
    println!(
        "
----------------------------------------------------------------"
    );
    println!("Panel B: worst-band NF (1.1-1.7 GHz) vs DC power, improved GA sweep");
    println!("----------------------------------------------------------------");
    let band = BandSpec::gnss();
    let band_obj = band_objectives(device, &band);
    // Objectives: [worst NF dB, DC power mW, stability/match violations].
    let objectives = move |x: &[f64]| -> Vec<f64> {
        let f = band_obj(x);
        let vars = DesignVariables::from_vec(x);
        let power_mw = vars.vds * vars.ids * 1e3;
        // Bundle the hard terms: match and stability.
        let violation = (f[2] + 10.0).max(0.0) + (f[3] + 10.0).max(0.0) + (f[4] + 0.005).max(0.0);
        vec![f[0], power_mw, violation]
    };
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let bounds = DesignVariables::bounds();
    println!(
        "{:>14} {:>10} {:>12}",
        "P goal (mW)", "NF (dB)", "power (mW)"
    );
    let mut nf = Vec::new();
    for (k, power_goal) in [40.0, 70.0, 100.0, 150.0, 220.0, 320.0].iter().enumerate() {
        let p = GoalProblem::new(
            obj_ref,
            vec![0.3, *power_goal, 0.0],
            vec![1.0, 0.0, 0.0], // hard power cap, minimize NF
            bounds.clone(),
        );
        let r = improved_goal_attainment(
            &p,
            &GoalConfig {
                max_evals: EVALS_PER_POINT,
                seed: 400 + k as u64,
                multistart: 1,
                global_fraction: 0.7,
            },
        );
        println!(
            "{:>14.0} {:>10.3} {:>12.1}",
            power_goal, r.objectives[0], r.objectives[1]
        );
        nf.push(r.objectives[0]);
    }
    println!("(lower power caps must show higher worst-band NF: the real trade)");
    nf
}
