//! Cold-FET extrinsic extraction — the classic "step 0" of pHEMT
//! identification (Dambrine-style).
//!
//! With the drain at 0 V the transistor has no transconductance: it is a
//! passive RC network whose response is dominated by the extrinsic shell
//! (Rg, Rd, Rs, Lg, Ld, Ls, pads) plus the channel resistance. Fitting
//! the cold S-parameters therefore pins the shell *independently of the
//! DC model*, and the warm small-signal fit (step 2 of the three-step
//! procedure) can then run with the shell frozen — fewer free parameters,
//! better identifiability.

use crate::objective::sparam_loss;
use crate::ssvector::{ss_from_vec, SS_NAMES};
use rfkit_device::{Extrinsic, SmallSignalDevice};
use rfkit_net::SParams;
use rfkit_opt::{differential_evolution, levenberg_marquardt, Bounds, DeConfig, LmConfig};

/// Configuration of the cold-FET fit.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdFetConfig {
    /// DE evaluations for the global phase.
    pub global_evals: usize,
    /// LM residual evaluations for the polish.
    pub polish_evals: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ColdFetConfig {
    fn default() -> Self {
        ColdFetConfig {
            global_evals: 12_000,
            polish_evals: 800,
            seed: 0xc01d,
        }
    }
}

/// Result of the cold-FET extraction.
#[derive(Debug, Clone)]
pub struct ColdFetResult {
    /// The fitted extrinsic shell.
    pub extrinsic: Extrinsic,
    /// The full cold-state equivalent circuit (gm pinned to ~0).
    pub cold_model: SmallSignalDevice,
    /// Final S-parameter RMSE of the cold fit.
    pub sparam_rmse: f64,
    /// Objective evaluations used.
    pub evaluations: usize,
}

/// Bounds for the cold fit: the standard 15-vector box with `gm` pinned to
/// (near) zero and `gds` opened up to channel-conductance levels.
fn cold_bounds() -> Bounds {
    let base = crate::ssvector::ss_bounds();
    let mut lo = base.lo().to_vec();
    let mut hi = base.hi().to_vec();
    // gm ≈ 0 at Vds = 0 (a tiny floor keeps conversions well posed).
    lo[0] = 1e-4;
    hi[0] = 2e-3;
    // gds is the cold channel conductance: up to ~1 S (units: mS).
    lo[1] = 10.0;
    hi[1] = 1000.0;
    Bounds::new(lo, hi).expect("cold bounds valid")
}

/// Fits the extrinsic shell to cold-FET (Vds = 0, gate near pinch-open)
/// S-parameters.
pub fn cold_fet_extraction(
    cold_sparams: &[(f64, SParams)],
    config: &ColdFetConfig,
) -> ColdFetResult {
    let bounds = cold_bounds();
    let evals = std::sync::atomic::AtomicUsize::new(0);
    let objective = |v: &[f64]| {
        evals.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        sparam_loss(&ss_from_vec(v), cold_sparams)
    };
    let de = differential_evolution(
        objective,
        &bounds,
        &DeConfig {
            max_evals: config.global_evals,
            seed: config.seed,
        },
    );
    let lm = levenberg_marquardt(
        |v| {
            evals.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            crate::objective::sparam_residuals(&ss_from_vec(v), cold_sparams)
        },
        &de.x,
        &bounds,
        &LmConfig {
            max_evals: config.polish_evals,
        },
    );
    let cold_model = ss_from_vec(&lm.x);
    ColdFetResult {
        extrinsic: cold_model.extrinsic,
        sparam_rmse: crate::objective::sparam_rmse(&cold_model, cold_sparams),
        cold_model,
        evaluations: evals.load(std::sync::atomic::Ordering::Relaxed),
    }
}

/// Names of the shell entries within the 15-vector (for reports).
pub fn shell_names() -> &'static [&'static str] {
    &SS_NAMES[7..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_device::{GoldenDevice, MeasurementNoise};

    /// Simulated cold-FET measurement of the golden device: Vds = 0,
    /// gate driven toward the open channel.
    fn cold_measurement(noise: MeasurementNoise) -> (GoldenDevice, Vec<(f64, SParams)>) {
        let g = GoldenDevice::default();
        let rows = g.measure_sparams(0.25, 0.0, &GoldenDevice::standard_freq_grid(), &noise);
        (g, rows)
    }

    #[test]
    fn golden_cold_state_is_passive() {
        let (_, rows) = cold_measurement(MeasurementNoise::none());
        for (f, s) in &rows {
            assert!(
                s.is_passive(5e-3),
                "cold FET must be passive at {f}: |S21| = {}",
                s.s21().abs()
            );
        }
    }

    #[test]
    fn recovers_extrinsic_resistances_and_inductances() {
        let (g, rows) = cold_measurement(MeasurementNoise::none());
        let result = cold_fet_extraction(&rows, &ColdFetConfig::default());
        assert!(
            result.sparam_rmse < 0.01,
            "cold fit RMSE {}",
            result.sparam_rmse
        );
        let truth = g.device.extrinsic;
        let got = result.extrinsic;
        // Series elements are well identified by the cold condition.
        assert!(
            (got.lg - truth.lg).abs() / truth.lg < 0.25,
            "Lg {} vs {}",
            got.lg,
            truth.lg
        );
        assert!(
            (got.ld - truth.ld).abs() / truth.ld < 0.25,
            "Ld {} vs {}",
            got.ld,
            truth.ld
        );
        assert!(
            (got.ls - truth.ls).abs() / truth.ls < 0.4,
            "Ls {} vs {}",
            got.ls,
            truth.ls
        );
        // Resistances to within an ohm-ish (Rg/Rd trade against the
        // channel resistance; the sums are what the warm fit needs).
        let r_in_sum_true = truth.rg + truth.rs;
        let r_in_sum_got = got.rg + got.rs;
        assert!(
            (r_in_sum_got - r_in_sum_true).abs() < 1.2,
            "input resistance sum {} vs {}",
            r_in_sum_got,
            r_in_sum_true
        );
    }

    #[test]
    fn cold_fit_survives_instrument_noise() {
        let (_, rows) = cold_measurement(MeasurementNoise::default());
        let result = cold_fet_extraction(
            &rows,
            &ColdFetConfig {
                global_evals: 8_000,
                polish_evals: 500,
                seed: 3,
            },
        );
        assert!(result.sparam_rmse < 0.03, "RMSE {}", result.sparam_rmse);
        assert!(result.extrinsic.lg > 0.05e-9 && result.extrinsic.lg < 2e-9);
    }

    #[test]
    fn shell_names_cover_eight_entries() {
        assert_eq!(shell_names().len(), 8);
        assert_eq!(shell_names()[0], "rg_ohm");
    }
}
