//! Integration of the cold-FET step with the warm three-step procedure:
//! pinning the shell must not hurt the fit and should improve the
//! identifiability of the intrinsic capacitances.

use rfkit_device::dc::Angelov;
use rfkit_device::{GoldenDevice, MeasurementNoise};
use rfkit_extract::{
    cold_fet_extraction, three_step, three_step_with_extrinsics, ColdFetConfig, ExtractionData,
    ThreeStepConfig,
};

fn warm_data(noise: MeasurementNoise) -> (GoldenDevice, ExtractionData) {
    let g = GoldenDevice::default();
    let (vgs_grid, vds_grid) = GoldenDevice::standard_iv_grid();
    let bias_vgs = g
        .device
        .bias_for_current(3.0, 0.06)
        .expect("60 mA bias exists");
    let data = ExtractionData {
        dc: g.measure_dc(&vgs_grid, &vds_grid, &noise),
        sparams: g.measure_sparams(bias_vgs, 3.0, &GoldenDevice::standard_freq_grid(), &noise),
        bias_vgs,
        bias_vds: 3.0,
    };
    (g, data)
}

#[test]
fn cold_then_warm_pipeline_matches_or_beats_plain_three_step() {
    let noise = MeasurementNoise::default();
    let (golden, data) = warm_data(noise);
    let cold_rows = golden.measure_sparams(0.25, 0.0, &GoldenDevice::standard_freq_grid(), &noise);

    let cold = cold_fet_extraction(
        &cold_rows,
        &ColdFetConfig {
            global_evals: 10_000,
            polish_evals: 600,
            seed: 1,
        },
    );
    let cfg = ThreeStepConfig {
        step1_evals: 8_000,
        step2_evals: 10_000,
        step3_evals: 800,
        seed: 9,
    };
    let plain = three_step(&Angelov, &data, &cfg);
    let pinned = three_step_with_extrinsics(&Angelov, &data, &cold.extrinsic, &cfg);

    // The pinned variant's fit stays competitive…
    assert!(
        pinned.sparam_rmse < plain.sparam_rmse * 2.0 + 0.01,
        "pinned {} vs plain {}",
        pinned.sparam_rmse,
        plain.sparam_rmse
    );
    // …and its reactive shell is anchored to the cold result (±10 % pin).
    let shell = pinned.small_signal.extrinsic;
    assert!((shell.lg - cold.extrinsic.lg).abs() / cold.extrinsic.lg < 0.11);
    assert!((shell.cpg - cold.extrinsic.cpg).abs() / cold.extrinsic.cpg.max(1e-15) < 0.11);
}

#[test]
fn pinned_shell_improves_cgs_identifiability() {
    // With the true shell pinned, the warm fit should recover the golden
    // Cgs more tightly than the fully free fit at equal budget.
    let noise = MeasurementNoise::default();
    let (golden, data) = warm_data(noise);
    let op = golden.device.operating_point(data.bias_vgs, data.bias_vds);
    let cgs_true = golden.device.small_signal(&op).intrinsic.cgs;

    let cfg = ThreeStepConfig {
        step1_evals: 8_000,
        step2_evals: 8_000,
        step3_evals: 600,
        seed: 17,
    };
    let plain = three_step(&Angelov, &data, &cfg);
    let pinned = three_step_with_extrinsics(&Angelov, &data, &golden.device.extrinsic, &cfg);
    let err_plain = (plain.small_signal.intrinsic.cgs - cgs_true).abs() / cgs_true;
    let err_pinned = (pinned.small_signal.intrinsic.cgs - cgs_true).abs() / cgs_true;
    assert!(
        err_pinned <= err_plain + 0.02,
        "pinned Cgs error {err_pinned} vs free {err_plain}"
    );
    assert!(err_pinned < 0.15, "Cgs recovery: {err_pinned}");
}
