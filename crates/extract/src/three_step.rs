//! The paper's original three-step robust identification procedure.
//!
//! 1. **Global DC fit** — differential evolution over the DC model's
//!    parameter box against the measured I-V grid (Huber loss). A
//!    meta-heuristic is essential here: the DC landscapes are multi-modal
//!    (threshold/knee parameters trade against each other).
//! 2. **Global small-signal fit** — differential evolution over the 15
//!    small-signal elements against the measured S-parameters at the
//!    characterization bias, with `gm`/`gds` boxes *seeded from step 1*
//!    (±30 %), which is what couples the steps.
//! 3. **Direct joint refinement** — Levenberg–Marquardt on the
//!    concatenated DC + S-parameter residual with `gm`/`gds` *tied to the
//!    DC model's derivatives*, so the final parameter set is
//!    self-consistent across both data domains.

use crate::objective::{
    dc_loss, dc_residuals, dc_rmse, sparam_loss, sparam_residuals, sparam_rmse,
};
use crate::ssvector::{ss_bounds_seeded, ss_from_vec};
use rfkit_device::dc::{gds as dc_gds, gm as dc_gm};
use rfkit_device::{DcModel, DcSample, SmallSignalDevice};
use rfkit_net::SParams;
use rfkit_opt::{
    differential_evolution, levenberg_marquardt, nelder_mead, Bounds, DeConfig, LmConfig,
    NelderMeadConfig,
};

/// The measured characterization data set.
#[derive(Debug, Clone)]
pub struct ExtractionData {
    /// DC I-V grid samples.
    pub dc: Vec<DcSample>,
    /// S-parameter rows at the characterization bias.
    pub sparams: Vec<(f64, SParams)>,
    /// Gate bias of the S-parameter measurement (V).
    pub bias_vgs: f64,
    /// Drain bias of the S-parameter measurement (V).
    pub bias_vds: f64,
}

/// Budgets and seed for [`three_step`].
#[derive(Debug, Clone, PartialEq)]
pub struct ThreeStepConfig {
    /// DE evaluations for the DC step.
    pub step1_evals: usize,
    /// DE evaluations for the small-signal step.
    pub step2_evals: usize,
    /// LM residual evaluations for the joint refinement.
    pub step3_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ThreeStepConfig {
    fn default() -> Self {
        ThreeStepConfig {
            step1_evals: 15_000,
            step2_evals: 25_000,
            step3_evals: 2_000,
            seed: 0xe87,
        }
    }
}

/// Result of the identification.
#[derive(Debug, Clone)]
pub struct ExtractionResult {
    /// Extracted DC model parameters.
    pub dc_params: Vec<f64>,
    /// Extracted small-signal equivalent circuit at the characterization
    /// bias (with `gm`/`gds` consistent with the DC model).
    pub small_signal: SmallSignalDevice,
    /// Final relative DC RMSE.
    pub dc_rmse: f64,
    /// Final S-parameter RMSE (per complex entry).
    pub sparam_rmse: f64,
    /// Objective evaluations used per step.
    pub evaluations: [usize; 3],
    /// `(cumulative evaluations, combined error)` checkpoints after each
    /// step — the convergence-figure series.
    pub checkpoints: Vec<(usize, f64)>,
}

/// Floor current for relative DC residuals (A).
const I_FLOOR: f64 = 1e-3;

/// Combined scalar error used for cross-method comparison: relative DC
/// RMSE plus S-parameter RMSE.
pub fn combined_error(
    model: &dyn DcModel,
    dc_params: &[f64],
    ss: &SmallSignalDevice,
    data: &ExtractionData,
) -> f64 {
    dc_rmse(model, dc_params, &data.dc, I_FLOOR) + sparam_rmse(ss, &data.sparams)
}

/// Runs the three-step identification of `model` against `data`.
pub fn three_step(
    model: &dyn DcModel,
    data: &ExtractionData,
    config: &ThreeStepConfig,
) -> ExtractionResult {
    let _span = rfkit_obs::span("extract.three_step");
    // ---- Step 1: global DC fit. ----
    let dc_bounds = model.param_bounds();
    let de1 = DeConfig {
        max_evals: config.step1_evals,
        seed: config.seed,
    };
    let step1 = {
        let _span = rfkit_obs::span("extract.step1_dc");
        differential_evolution(|p| dc_loss(model, p, &data.dc, I_FLOOR), &dc_bounds, &de1)
    };
    let dc_params = step1.x.clone();

    // ---- Step 2: global small-signal fit, gm/gds seeded from step 1. ----
    let gm_seed = dc_gm(model, &dc_params, data.bias_vgs, data.bias_vds);
    let gds_seed = dc_gds(model, &dc_params, data.bias_vgs, data.bias_vds).max(1e-4);
    let ss_box = ss_bounds_seeded(gm_seed, gds_seed, 0.3);
    let de2 = DeConfig {
        max_evals: config.step2_evals,
        seed: config.seed.wrapping_add(1),
    };
    let step2 = {
        let _span = rfkit_obs::span("extract.step2_ss");
        differential_evolution(
            |v| sparam_loss(&ss_from_vec(v), &data.sparams),
            &ss_box,
            &de2,
        )
    };

    // ---- Step 3: joint LM refinement with gm/gds tied to the DC model. ----
    // Parameter vector: DC params ++ the 13 shell entries (no gm/gds).
    let joint = JointVector {
        model,
        n_dc: dc_params.len(),
        bias_vgs: data.bias_vgs,
        bias_vds: data.bias_vds,
    };
    let x0 = joint.pack(&dc_params, &step2.x);
    let joint_bounds = joint.bounds(&dc_bounds, &ss_box);
    let evals3 = std::cell::Cell::new(0usize);
    // Weight the (dimensionless, ~1 %-scale) DC residuals so both domains
    // contribute comparably.
    let dc_weight = 1.0;
    let _span3 = rfkit_obs::span("extract.step3_joint");
    let lm = levenberg_marquardt(
        |x| {
            evals3.set(evals3.get() + 1);
            let (dc_p, ss) = joint.unpack(x);
            let mut r: Vec<f64> = dc_residuals(model, &dc_p, &data.dc, I_FLOOR)
                .into_iter()
                .map(|v| v * dc_weight)
                .collect();
            r.extend(sparam_residuals(&ss, &data.sparams));
            r
        },
        &x0,
        &joint_bounds,
        &LmConfig {
            max_evals: config.step3_evals,
        },
    );
    drop(_span3);
    let (dc_final, ss_final) = joint.unpack(&lm.x);

    let e1 = step1.evaluations;
    let e2 = step2.evaluations;
    let e3 = evals3.get();
    // Checkpoint 1: DC fitted, shell still at the seeded-box center.
    let ss_step1 = ss_from_vec(&ss_box.center());
    let ss_step2 = ss_from_vec(&step2.x);
    let checkpoints = vec![
        (e1, combined_error(model, &dc_params, &ss_step1, data)),
        (e1 + e2, combined_error(model, &dc_params, &ss_step2, data)),
        (
            e1 + e2 + e3,
            combined_error(model, &dc_final, &ss_final, data),
        ),
    ];
    if rfkit_obs::enabled() {
        for (step, &(evals, err)) in checkpoints.iter().enumerate() {
            rfkit_obs::event(
                "extract.checkpoint",
                &[
                    ("step", (step + 1) as f64),
                    ("evals", evals as f64),
                    ("error", err),
                ],
            );
        }
    }

    ExtractionResult {
        dc_rmse: dc_rmse(model, &dc_final, &data.dc, I_FLOOR),
        sparam_rmse: sparam_rmse(&ss_final, &data.sparams),
        dc_params: dc_final,
        small_signal: ss_final,
        evaluations: [e1, e2, e3],
        checkpoints,
    }
}

/// Variant of [`three_step`] with the *reactive* extrinsic shell (lead
/// inductances and pad capacitances) pre-determined by a cold-FET
/// extraction ([`crate::cold`]): those five entries of the step-2 search
/// box are pinned to ±10 % around the given values. The extrinsic
/// *resistances* stay free — a single-bias cold measurement cannot
/// separate them from the channel resistance (Dambrine's full method
/// needs forward gate current for that), so pinning them would inject the
/// cold fit's Rg/Rd/Rs ambiguity into the warm fit.
pub fn three_step_with_extrinsics(
    model: &dyn DcModel,
    data: &ExtractionData,
    extrinsics: &rfkit_device::Extrinsic,
    config: &ThreeStepConfig,
) -> ExtractionResult {
    let _span = rfkit_obs::span("extract.three_step_ext");
    // Run the normal flow but with the shell portion of the small-signal
    // box narrowed. Reuse three_step by temporarily monkey-patching is not
    // possible; instead duplicate the step structure with modified bounds.
    let dc_bounds = model.param_bounds();
    let de1 = DeConfig {
        max_evals: config.step1_evals,
        seed: config.seed,
    };
    let step1 = {
        let _span = rfkit_obs::span("extract.step1_dc");
        differential_evolution(|p| dc_loss(model, p, &data.dc, I_FLOOR), &dc_bounds, &de1)
    };
    let dc_params = step1.x.clone();

    let gm_seed = dc_gm(model, &dc_params, data.bias_vgs, data.bias_vds);
    let gds_seed = dc_gds(model, &dc_params, data.bias_vgs, data.bias_vds).max(1e-4);
    let mut ss_box = ss_bounds_seeded(gm_seed, gds_seed, 0.3);
    // Pin the reactive shell (vector entries 10..15, scaled units) to
    // ±10 % — the quantities a cold measurement identifies to ~1 %.
    let reactive_scaled = [
        extrinsics.lg * 1e9,
        extrinsics.ld * 1e9,
        extrinsics.ls * 1e9,
        extrinsics.cpg * 1e12,
        extrinsics.cpd * 1e12,
    ];
    let mut lo = ss_box.lo().to_vec();
    let mut hi = ss_box.hi().to_vec();
    for (k, &v) in reactive_scaled.iter().enumerate() {
        lo[10 + k] = (v * 0.9).max(lo[10 + k]);
        hi[10 + k] = (v * 1.1).min(hi[10 + k]).max(lo[10 + k]);
    }
    ss_box = Bounds::new(lo, hi).expect("pinned bounds valid");

    let de2 = DeConfig {
        max_evals: config.step2_evals,
        seed: config.seed.wrapping_add(1),
    };
    let step2 = {
        let _span = rfkit_obs::span("extract.step2_ss");
        differential_evolution(
            |v| sparam_loss(&ss_from_vec(v), &data.sparams),
            &ss_box,
            &de2,
        )
    };

    let joint = JointVector {
        model,
        n_dc: dc_params.len(),
        bias_vgs: data.bias_vgs,
        bias_vds: data.bias_vds,
    };
    let x0 = joint.pack(&dc_params, &step2.x);
    let joint_bounds = joint.bounds(&dc_bounds, &ss_box);
    let evals3 = std::cell::Cell::new(0usize);
    let _span3 = rfkit_obs::span("extract.step3_joint");
    let lm = levenberg_marquardt(
        |x| {
            evals3.set(evals3.get() + 1);
            let (dc_p, ss) = joint.unpack(x);
            let mut r = dc_residuals(model, &dc_p, &data.dc, I_FLOOR);
            r.extend(sparam_residuals(&ss, &data.sparams));
            r
        },
        &x0,
        &joint_bounds,
        &LmConfig {
            max_evals: config.step3_evals,
        },
    );
    drop(_span3);
    let (dc_final, ss_final) = joint.unpack(&lm.x);
    let e1 = step1.evaluations;
    let e2 = step2.evaluations;
    let e3 = evals3.get();
    let ss_step1 = ss_from_vec(&ss_box.center());
    let ss_step2 = ss_from_vec(&step2.x);
    let checkpoints = vec![
        (e1, combined_error(model, &dc_params, &ss_step1, data)),
        (e1 + e2, combined_error(model, &dc_params, &ss_step2, data)),
        (
            e1 + e2 + e3,
            combined_error(model, &dc_final, &ss_final, data),
        ),
    ];
    if rfkit_obs::enabled() {
        for (step, &(evals, err)) in checkpoints.iter().enumerate() {
            rfkit_obs::event(
                "extract.checkpoint",
                &[
                    ("step", (step + 1) as f64),
                    ("evals", evals as f64),
                    ("error", err),
                ],
            );
        }
    }
    ExtractionResult {
        dc_rmse: dc_rmse(model, &dc_final, &data.dc, I_FLOOR),
        sparam_rmse: sparam_rmse(&ss_final, &data.sparams),
        dc_params: dc_final,
        small_signal: ss_final,
        evaluations: [e1, e2, e3],
        checkpoints,
    }
}

/// Packing/unpacking of the joint (DC ++ shell) vector used in step 3.
struct JointVector<'a> {
    model: &'a dyn DcModel,
    n_dc: usize,
    bias_vgs: f64,
    bias_vds: f64,
}

impl JointVector<'_> {
    fn pack(&self, dc: &[f64], ss_vec15: &[f64]) -> Vec<f64> {
        let mut x = dc.to_vec();
        x.extend_from_slice(&ss_vec15[2..]); // drop gm, gds
        x
    }

    fn bounds(&self, dc_bounds: &Bounds, ss_box: &Bounds) -> Bounds {
        let mut lo = dc_bounds.lo().to_vec();
        let mut hi = dc_bounds.hi().to_vec();
        lo.extend_from_slice(&ss_box.lo()[2..]);
        hi.extend_from_slice(&ss_box.hi()[2..]);
        Bounds::new(lo, hi).expect("joint bounds valid")
    }

    fn unpack(&self, x: &[f64]) -> (Vec<f64>, SmallSignalDevice) {
        let dc = x[..self.n_dc].to_vec();
        let gm = dc_gm(self.model, &dc, self.bias_vgs, self.bias_vds).max(1e-3);
        let gds = dc_gds(self.model, &dc, self.bias_vgs, self.bias_vds).max(1e-5);
        let mut v15 = vec![gm, gds * 1e3];
        v15.extend_from_slice(&x[self.n_dc..]);
        (dc, ss_from_vec(&v15))
    }
}

/// Which single optimizer a baseline extraction uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleMethod {
    /// Differential evolution only (global, slow tail).
    DeOnly,
    /// Nelder–Mead only from the box center (local, start dependent).
    NelderMeadOnly,
    /// Levenberg–Marquardt only from the box center (local, smooth-only).
    LmOnly,
}

/// Baseline for the convergence study: one optimizer on the *joint*
/// problem (DC params + shell, gm/gds tied), same objective as step 3.
/// The local methods (NM, LM) start from a seed-dependent random point —
/// the realistic situation the three-step procedure is robust against.
/// Returns the result and the `(evaluations, best error)` trace.
pub fn extract_single_method(
    method: SingleMethod,
    model: &dyn DcModel,
    data: &ExtractionData,
    budget: usize,
    seed: u64,
) -> (ExtractionResult, Vec<(usize, f64)>) {
    use rfkit_num::rng::Rng64;
    let joint = JointVector {
        model,
        n_dc: model.param_names().len(),
        bias_vgs: data.bias_vgs,
        bias_vds: data.bias_vds,
    };
    let bounds = joint.bounds(&model.param_bounds(), &crate::ssvector::ss_bounds());
    let start = {
        let mut rng = Rng64::new(seed.wrapping_mul(0x9e37_79b9));
        bounds.sample(&mut rng)
    };
    let counter = rfkit_opt::CountingObjective::new(|x: &[f64]| {
        let (dc_p, ss) = joint.unpack(x);
        dc_loss(model, &dc_p, &data.dc, I_FLOOR) + sparam_loss(&ss, &data.sparams)
    });
    let x_best = match method {
        SingleMethod::DeOnly => {
            differential_evolution(
                |x| counter.eval(x),
                &bounds,
                &DeConfig {
                    max_evals: budget,
                    seed,
                },
            )
            .x
        }
        SingleMethod::NelderMeadOnly => {
            nelder_mead(
                |x| counter.eval(x),
                &start,
                &bounds,
                &NelderMeadConfig { max_evals: budget },
            )
            .x
        }
        SingleMethod::LmOnly => {
            levenberg_marquardt(
                |x| {
                    // LM needs residuals; count each call once.
                    let (dc_p, ss) = joint.unpack(x);
                    counter.eval(x);
                    let mut r = dc_residuals(model, &dc_p, &data.dc, I_FLOOR);
                    r.extend(sparam_residuals(&ss, &data.sparams));
                    r
                },
                &start,
                &bounds,
                &LmConfig { max_evals: budget },
            )
            .x
        }
    };
    let (dc_final, ss_final) = joint.unpack(&x_best);
    let result = ExtractionResult {
        dc_rmse: dc_rmse(model, &dc_final, &data.dc, I_FLOOR),
        sparam_rmse: sparam_rmse(&ss_final, &data.sparams),
        dc_params: dc_final,
        small_signal: ss_final,
        evaluations: [counter.count(), 0, 0],
        checkpoints: Vec::new(),
    };
    (result, counter.trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_device::dc::Angelov;
    use rfkit_device::{GoldenDevice, MeasurementNoise};

    fn dataset(noise: MeasurementNoise) -> ExtractionData {
        let g = GoldenDevice::default();
        let (vgs_grid, vds_grid) = GoldenDevice::standard_iv_grid();
        let bias_vgs = g.device.bias_for_current(3.0, 0.06).unwrap();
        ExtractionData {
            dc: g.measure_dc(&vgs_grid, &vds_grid, &noise),
            sparams: g.measure_sparams(bias_vgs, 3.0, &GoldenDevice::standard_freq_grid(), &noise),
            bias_vgs,
            bias_vds: 3.0,
        }
    }

    fn quick_config() -> ThreeStepConfig {
        ThreeStepConfig {
            step1_evals: 8_000,
            step2_evals: 12_000,
            step3_evals: 800,
            seed: 5,
        }
    }

    #[test]
    fn recovers_angelov_model_from_clean_data() {
        let data = dataset(MeasurementNoise::none());
        let r = three_step(&Angelov, &data, &quick_config());
        assert!(r.dc_rmse < 0.02, "DC rmse = {}", r.dc_rmse);
        assert!(r.sparam_rmse < 0.05, "S rmse = {}", r.sparam_rmse);
    }

    #[test]
    fn noisy_data_extraction_close_to_noise_floor() {
        let data = dataset(MeasurementNoise::default());
        let r = three_step(&Angelov, &data, &quick_config());
        // 0.5 % noise: the fit cannot beat it, but must get near it.
        assert!(r.dc_rmse < 0.05, "DC rmse = {}", r.dc_rmse);
        assert!(r.sparam_rmse < 0.08, "S rmse = {}", r.sparam_rmse);
    }

    #[test]
    fn checkpoints_are_monotone_in_evaluations() {
        let data = dataset(MeasurementNoise::none());
        let r = three_step(&Angelov, &data, &quick_config());
        assert_eq!(r.checkpoints.len(), 3);
        assert!(r.checkpoints.windows(2).all(|w| w[1].0 > w[0].0));
        // The refinement must not make things worse.
        assert!(r.checkpoints[2].1 <= r.checkpoints[1].1 * 1.01);
    }

    #[test]
    fn single_methods_run_and_trace() {
        let data = dataset(MeasurementNoise::none());
        for method in [
            SingleMethod::DeOnly,
            SingleMethod::NelderMeadOnly,
            SingleMethod::LmOnly,
        ] {
            let (r, trace) = extract_single_method(method, &Angelov, &data, 3_000, 3);
            assert!(!trace.is_empty(), "{method:?} must record a trace");
            assert!(
                trace.windows(2).all(|w| w[1].1 <= w[0].1),
                "{method:?} trace must be non-increasing"
            );
            assert!(r.dc_rmse.is_finite());
        }
    }

    #[test]
    fn three_step_beats_local_methods() {
        let data = dataset(MeasurementNoise::none());
        let cfg = quick_config();
        let budget = cfg.step1_evals + cfg.step2_evals + cfg.step3_evals;
        let three = three_step(&Angelov, &data, &cfg);
        let (nm, _) =
            extract_single_method(SingleMethod::NelderMeadOnly, &Angelov, &data, budget, 1);
        let (lm, _) = extract_single_method(SingleMethod::LmOnly, &Angelov, &data, budget, 1);
        let err3 = three.dc_rmse + three.sparam_rmse;
        assert!(
            err3 < (nm.dc_rmse + nm.sparam_rmse) * 0.8,
            "three-step {err3} vs NM {}",
            nm.dc_rmse + nm.sparam_rmse
        );
        assert!(
            err3 < (lm.dc_rmse + lm.sparam_rmse) * 0.8,
            "three-step {err3} vs LM {}",
            lm.dc_rmse + lm.sparam_rmse
        );
    }
}
