//! Explore the design trade-offs with the goal-attainment machinery:
//! sweep a hard DC-power cap and watch the achievable worst-band noise
//! figure degrade — the trade a battery-powered GNSS receiver lives with.
//!
//! Run with: `cargo run --release --example tradeoff_explorer`

use lna::{band_objectives, BandSpec, DesignVariables};
use rfkit_device::Phemt;
use rfkit_opt::{improved_goal_attainment, GoalConfig, GoalProblem};

fn main() {
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let band_obj = band_objectives(&device, &band);

    // Objectives: [worst-band NF (dB), DC power (mW), constraint violation].
    let objectives = move |x: &[f64]| -> Vec<f64> {
        let f = band_obj(x);
        let vars = DesignVariables::from_vec(x);
        let violation = (f[2] + 10.0).max(0.0) + (f[3] + 10.0).max(0.0) + (f[4] + 0.005).max(0.0);
        vec![f[0], vars.vds * vars.ids * 1e3, violation]
    };
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let bounds = DesignVariables::bounds();

    println!(
        "{:>16} {:>12} {:>12}",
        "power cap (mW)", "NF (dB)", "P (mW)"
    );
    for (k, cap_mw) in [40.0, 60.0, 90.0, 130.0, 200.0, 320.0].iter().enumerate() {
        let problem = GoalProblem::new(
            obj_ref,
            vec![0.3, *cap_mw, 0.0], // aspire to 0.3 dB NF; power is a hard cap
            vec![1.0, 0.0, 0.0],
            bounds.clone(),
        );
        let r = improved_goal_attainment(
            &problem,
            &GoalConfig {
                max_evals: 8_000,
                seed: k as u64,
                multistart: 1,
                global_fraction: 0.7,
            },
        );
        println!(
            "{:>16.0} {:>12.3} {:>12.1}",
            cap_mw, r.objectives[0], r.objectives[1]
        );
    }
    println!("\nEach row is one goal-attainment solve: the power goal is hard");
    println!("(zero weight); the noise-figure goal absorbs the slack.");
}
