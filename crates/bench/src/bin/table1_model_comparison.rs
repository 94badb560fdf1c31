//! **T1 — pHEMT model comparison** (paper claim 1: "an extraction of pHEMT
//! model parameters was performed, including comparisons among several
//! models").
//!
//! Extracts all five DC models from the golden device's noisy
//! characterization data with the three-step procedure and tabulates the
//! residual fit errors. Expected shape: Angelov (the generating family)
//! fits best on DC; the Curtice quadratic — no gm-bell, no knee
//! flexibility — is clearly worst; all models fit the small-signal
//! S-parameters comparably because the shell is free.

use lna::report::format_table;
use lna_bench::{golden_dataset, header};
use rfkit_device::MeasurementNoise;
use rfkit_extract::{compare_models, ThreeStepConfig};

fn main() {
    header("Table 1", "DC model comparison after three-step extraction");
    let data = golden_dataset(MeasurementNoise::default());
    let cfg = ThreeStepConfig {
        step1_evals: 20_000,
        step2_evals: 25_000,
        step3_evals: 2_000,
        seed: 0x7ab1e1,
    };
    let reports = compare_models(&data, &cfg);
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|r| {
            vec![
                r.name.to_string(),
                r.n_params.to_string(),
                format!("{:.4}", r.dc_rmse),
                format!("{:.4}", r.sparam_rmse),
                r.evaluations.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        format_table(
            &["model", "params", "DC RMSE (rel)", "S RMSE", "evaluations"],
            &rows,
        )
    );
    let worst = reports.last().expect("every model is reported");
    println!(
        "winner: {} (DC RMSE {:.4}); worst: {} (DC RMSE {:.4})",
        reports[0].name, reports[0].dc_rmse, worst.name, worst.dc_rmse
    );
}
