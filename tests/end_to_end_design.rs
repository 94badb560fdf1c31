//! End-to-end integration: characterization → extraction → design →
//! as-built measurement — the whole paper pipeline across every crate.

use lna::{design_lna, measure, Amplifier, BuildConfig, BuiltAmplifier, DesignConfig, DesignGoals};
use rfkit_device::dc::{Angelov, DcModel};
use rfkit_device::{GoldenDevice, MeasurementNoise, Phemt};
use rfkit_extract::{three_step, ExtractionData, ThreeStepConfig};
use rfkit_num::linspace;

fn characterize(noise: MeasurementNoise) -> (GoldenDevice, ExtractionData) {
    let golden = GoldenDevice::default();
    let (vgs_grid, vds_grid) = GoldenDevice::standard_iv_grid();
    let bias_vgs = golden
        .device
        .bias_for_current(3.0, 0.06)
        .expect("60 mA bias exists");
    let data = ExtractionData {
        dc: golden.measure_dc(&vgs_grid, &vds_grid, &noise),
        sparams: golden.measure_sparams(bias_vgs, 3.0, &GoldenDevice::standard_freq_grid(), &noise),
        bias_vgs,
        bias_vds: 3.0,
    };
    (golden, data)
}

#[test]
fn extracted_model_predicts_unseen_bias_points() {
    // Extract from data taken at 60 mA, then predict the device at 30 mA —
    // the generalization a design flow depends on.
    let (golden, data) = characterize(MeasurementNoise::default());
    let cfg = ThreeStepConfig {
        step1_evals: 10_000,
        step2_evals: 10_000,
        step3_evals: 800,
        seed: 42,
    };
    let result = three_step(&Angelov, &data, &cfg);
    for ids in [0.02, 0.03, 0.05] {
        let vgs_true = golden.device.bias_for_current(3.0, ids).unwrap();
        let vgs_fit = Angelov
            .vgs_for_current(&result.dc_params, 3.0, ids, -2.0, 1.0)
            .expect("extracted model must reach the bias");
        assert!(
            (vgs_fit - vgs_true).abs() < 0.03,
            "bias prediction at {ids} A: {vgs_fit} vs {vgs_true}"
        );
    }
}

#[test]
fn design_on_extracted_device_matches_design_on_golden() {
    // Build a Phemt from the extraction and design with it; the resulting
    // amplifier, evaluated on the TRUE (golden) device, must still be
    // feasible and close in performance — the fidelity loop the paper's
    // methodology implies.
    let (golden, data) = characterize(MeasurementNoise::default());
    let cfg = ThreeStepConfig {
        step1_evals: 12_000,
        step2_evals: 12_000,
        step3_evals: 1_000,
        seed: 43,
    };
    let result = three_step(&Angelov, &data, &cfg);
    let extracted_device = golden_like_shell(&golden, &result);

    let design_cfg = DesignConfig {
        max_evals: 4_000,
        seed: 7,
        ..Default::default()
    };
    let design = design_lna(&extracted_device, &DesignGoals::default(), &design_cfg);

    // Evaluate the SAME design on the true device.
    let amp_true = Amplifier::new(&golden.device, design.snapped);
    let metrics = lna::BandMetrics::evaluate(&amp_true, &lna::BandSpec::gnss())
        .expect("design transfers to the true device");
    assert!(
        metrics.min_mu > 0.99,
        "stability transfers (mu = {})",
        metrics.min_mu
    );
    assert!(
        metrics.worst_nf_db < design.snapped_metrics.worst_nf_db + 0.25,
        "NF transfers: {} vs {} designed",
        metrics.worst_nf_db,
        design.snapped_metrics.worst_nf_db
    );
    assert!(
        metrics.min_gain_db > design.snapped_metrics.min_gain_db - 1.5,
        "gain transfers: {} vs {} designed",
        metrics.min_gain_db,
        design.snapped_metrics.min_gain_db
    );
}

/// The extracted DC params with the golden device's capacitance/noise
/// shells (the extraction recovers the small-signal shell separately; the
/// Phemt type wants the bias-dependent models, which DC+S data at one bias
/// cannot fully determine).
fn golden_like_shell(golden: &GoldenDevice, result: &rfkit_extract::ExtractionResult) -> Phemt {
    Phemt {
        dc_model: Box::new(Angelov),
        dc_params: result.dc_params.clone(),
        cap: golden.device.cap,
        ri: result.small_signal.intrinsic.ri,
        tau: result.small_signal.intrinsic.tau,
        extrinsic: result.small_signal.extrinsic,
        noise: golden.device.noise,
    }
}

#[test]
fn full_pipeline_design_to_measurement() {
    let device = Phemt::atf54143_like();
    let design = design_lna(
        &device,
        &DesignGoals::default(),
        &DesignConfig {
            max_evals: 4_000,
            seed: 3,
            ..Default::default()
        },
    );
    let cfg = BuildConfig::default();
    let built = BuiltAmplifier::build(&design.snapped, &cfg);
    let freqs = linspace(1.1e9, 1.7e9, 7);
    let session = measure(&device, &built, &freqs, &cfg).expect("unit alive");
    // The measured in-band gain stays within 2 dB of the design's and the
    // NF within 0.2 dB — the paper-style design/measurement agreement.
    let amp = Amplifier::new(&device, design.snapped);
    for (point, nf) in session.response.iter().zip(&session.nf_db) {
        let m = amp.metrics(point.freq_hz).unwrap();
        let gain_meas = 10.0 * point.s.s21().norm_sqr().log10();
        assert!(
            (gain_meas - m.gain_db).abs() < 2.0,
            "gain gap at {} GHz: {gain_meas} vs {}",
            point.freq_hz / 1e9,
            m.gain_db
        );
        assert!(
            (nf - m.nf_db).abs() < 0.25,
            "NF gap at {} GHz: {nf} vs {}",
            point.freq_hz / 1e9,
            m.nf_db
        );
    }
}
