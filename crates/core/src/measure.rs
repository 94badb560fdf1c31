//! Measurement simulation of the as-built amplifier.
//!
//! The paper closes with measured s-parameters, noise figure and IM3 of
//! the physical prototype. This reproduction has no prototype, so this
//! module builds the *as-manufactured* amplifier instead: every passive is
//! perturbed within its purchase tolerance, the bias current gets a
//! trimming error, SMA launch lines are added at both ports, and the
//! "instruments" add their own noise. Comparing these curves against the
//! nominal design reproduces the design-vs-measurement gap of the paper's
//! final figures.

use crate::amplifier::{Amplifier, BiasedAmplifier, DesignVariables};
use rfkit_circuit::{ip3_sweep, time_domain, Ip3Sweep, TwoToneSpec};
use rfkit_device::Phemt;
use rfkit_net::{FrequencyResponse, NoisyAbcd, SParams};
use rfkit_num::rng::Rng64;
use rfkit_num::units::db_from_amplitude_ratio;
use rfkit_num::Complex;
use rfkit_passive::{Microstrip, Substrate};

/// Build + instrumentation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BuildConfig {
    /// Relative component tolerance (e.g. 0.05 for ±5 % parts).
    pub tolerance: f64,
    /// Relative bias-current trim error.
    pub bias_error: f64,
    /// Length of the SMA launch microstrip at each port (m).
    pub launch_length: f64,
    /// VNA absolute S-parameter noise per component.
    pub vna_noise: f64,
    /// Noise-figure meter standard deviation (dB).
    pub nf_meter_sigma_db: f64,
    /// RNG seed (one seed = one physical build).
    pub seed: u64,
}

impl Default for BuildConfig {
    fn default() -> Self {
        BuildConfig {
            tolerance: 0.05,
            bias_error: 0.03,
            launch_length: 8e-3,
            vna_noise: 0.004,
            nf_meter_sigma_db: 0.03,
            seed: 0xb111d,
        }
    }
}

impl BuildConfig {
    /// Draws one unit's as-manufactured design variables from `self.seed`:
    /// every passive perturbed within its purchase tolerance, the bias
    /// current by its trim error. Grading a unit needs nothing more;
    /// [`BuiltAmplifier::build`] adds the launch lines a measurement
    /// session reads.
    pub fn draw(&self, design: &DesignVariables) -> DesignVariables {
        let mut rng = Rng64::new(self.seed);
        let mut perturb = |v: f64, rel: f64| v * (1.0 + rel * gaussian(&mut rng));
        DesignVariables {
            vds: perturb(design.vds, 0.01),
            ids: perturb(design.ids, self.bias_error),
            l1: perturb(design.l1, self.tolerance),
            ls_deg: perturb(design.ls_deg, 0.10), // board inductance is less controlled
            l2: perturb(design.l2, self.tolerance),
            c2: perturb(design.c2, self.tolerance),
            r_bias: perturb(design.r_bias, 0.01),
        }
    }
}

fn gaussian(rng: &mut Rng64) -> f64 {
    loop {
        let u: f64 = rng.uniform(-1.0, 1.0);
        let v: f64 = rng.uniform(-1.0, 1.0);
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

/// The as-built amplifier: perturbed design variables plus launch lines.
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltAmplifier {
    /// The perturbed (as-manufactured) design variables.
    pub actual_vars: DesignVariables,
    /// The SMA launch line used on each port.
    pub launch: Microstrip,
}

impl BuiltAmplifier {
    /// "Manufactures" one unit of the design: the tolerance draw of
    /// [`BuildConfig::draw`] plus the launch lines.
    pub fn build(design: &DesignVariables, config: &BuildConfig) -> BuiltAmplifier {
        BuiltAmplifier {
            actual_vars: config.draw(design),
            launch: Microstrip::for_impedance(Substrate::ro4350b(), 50.0, config.launch_length),
        }
    }

    /// The built unit (biased at its perturbed operating point) between
    /// its two launch lines at `freq_hz`.
    fn with_launch(&self, biased: &BiasedAmplifier, freq_hz: f64) -> NoisyAbcd {
        let line = self.launch.two_port(freq_hz, 296.5);
        line.cascade(&biased.noisy_two_port(freq_hz)).cascade(&line)
    }
}

/// A complete "measurement session": S-parameters with VNA noise plus NF
/// readings with meter jitter.
pub struct MeasurementSession {
    /// Measured S-parameters + noise data per frequency.
    pub response: FrequencyResponse,
    /// Measured 50 Ω noise figure per frequency (dB), aligned with
    /// `response` frequencies.
    pub nf_db: Vec<f64>,
}

/// Runs a swept measurement of a built amplifier.
///
/// Returns `None` if the built unit's bias is unreachable (a "dead board").
pub fn measure(
    device: &Phemt,
    built: &BuiltAmplifier,
    freqs: &[f64],
    config: &BuildConfig,
) -> Option<MeasurementSession> {
    let biased = Amplifier::new(device, built.actual_vars).biased()?;
    let mut rng = Rng64::new(config.seed.wrapping_add(0x5ca1e));
    let mut response = FrequencyResponse::new();
    let mut nf_db = Vec::with_capacity(freqs.len());
    for &f in freqs {
        let chain = built.with_launch(&biased, f);
        let s = chain.abcd.to_s(50.0).ok()?;
        let jitter = |rng: &mut Rng64, sigma: f64| {
            Complex::new(sigma * gaussian(rng), sigma * gaussian(rng))
        };
        let noisy = SParams::new(
            s.s11() + jitter(&mut rng, config.vna_noise),
            s.s12() + jitter(&mut rng, config.vna_noise),
            s.s21() + jitter(&mut rng, config.vna_noise),
            s.s22() + jitter(&mut rng, config.vna_noise),
            50.0,
        );
        response.push(f, noisy, None);
        let nf_true = 10.0
            * chain
                .noise_params(50.0)
                .ok()?
                .noise_factor(Complex::ZERO)
                .log10();
        nf_db.push(nf_true + config.nf_meter_sigma_db * gaussian(&mut rng));
    }
    Some(MeasurementSession { response, nf_db })
}

/// Two-tone IM3 measurement of the built amplifier around `f0`:
/// the device nonlinearity is driven at the as-built operating point and
/// the result is referred to the amplifier output through the output
/// network's transmission.
///
/// Returns `None` for unreachable bias.
pub fn measure_im3(device: &Phemt, built: &BuiltAmplifier, pin_dbm: &[f64]) -> Option<Ip3Sweep> {
    let vars = built.actual_vars;
    let vgs = device.bias_for_current(vars.vds, vars.ids)?;
    let op = device.operating_point(vgs, vars.vds);
    let sweep = ip3_sweep(pin_dbm, |p| {
        time_domain(
            device,
            &op,
            &TwoToneSpec {
                pin_dbm: p,
                ..Default::default()
            },
        )
    });
    Some(sweep)
}

/// Quantifies the design-vs-measurement gap over a response: maximum |S21|
/// deviation in dB.
pub fn gain_gap_db(design: &FrequencyResponse, measured: &FrequencyResponse) -> f64 {
    design
        .iter()
        .zip(measured.iter())
        .map(|(d, m)| {
            (db_from_amplitude_ratio(d.s.s21().abs()) - db_from_amplitude_ratio(m.s.s21().abs()))
                .abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_num::linspace;

    fn design() -> DesignVariables {
        DesignVariables {
            vds: 3.0,
            ids: 0.050,
            l1: 6.8e-9,
            ls_deg: 0.4e-9,
            l2: 10e-9,
            c2: 2.2e-12,
            r_bias: 30.0,
        }
    }

    #[test]
    fn build_perturbs_within_tolerance_scale() {
        let cfg = BuildConfig::default();
        let built = BuiltAmplifier::build(&design(), &cfg);
        let d = design();
        assert_ne!(built.actual_vars.l1, d.l1);
        // 5 % parts stay within ~4σ.
        assert!((built.actual_vars.l1 / d.l1 - 1.0).abs() < 0.25);
        assert!((built.actual_vars.ids / d.ids - 1.0).abs() < 0.15);
    }

    #[test]
    fn builds_are_reproducible_per_seed_and_differ_across_seeds() {
        let cfg = BuildConfig::default();
        let b1 = BuiltAmplifier::build(&design(), &cfg);
        let b2 = BuiltAmplifier::build(&design(), &cfg);
        assert_eq!(b1, b2);
        let b3 = BuiltAmplifier::build(&design(), &BuildConfig { seed: 99, ..cfg });
        assert_ne!(b1.actual_vars, b3.actual_vars);
    }

    #[test]
    fn measurement_tracks_design_within_tolerance_band() {
        let device = Phemt::atf54143_like();
        let d = design();
        let cfg = BuildConfig::default();
        let built = BuiltAmplifier::build(&d, &cfg);
        let freqs = linspace(1.1e9, 1.7e9, 7);
        let session = measure(&device, &built, &freqs, &cfg).expect("board alive");
        // Design response (no perturbation, no launch lines).
        let amp = Amplifier::new(&device, d);
        let mut design_resp = FrequencyResponse::new();
        for &f in &freqs {
            design_resp.push(f, amp.s_params(f).unwrap(), None);
        }
        let gap = gain_gap_db(&design_resp, &session.response);
        assert!(gap > 0.0, "measurement must differ from design");
        assert!(gap < 2.5, "but only by tolerance-scale amounts: {gap} dB");
        // NF readings exist and are physical.
        assert_eq!(session.nf_db.len(), freqs.len());
        for nf in &session.nf_db {
            assert!(*nf > 0.0 && *nf < 3.0, "NF = {nf} dB");
        }
    }

    #[test]
    fn im3_measurement_produces_realistic_oip3() {
        let device = Phemt::atf54143_like();
        let built = BuiltAmplifier::build(&design(), &BuildConfig::default());
        let pins: Vec<f64> = (0..9).map(|k| -45.0 + 2.5 * k as f64).collect();
        let sweep = measure_im3(&device, &built, &pins).expect("board alive");
        let oip3 = sweep.oip3_dbm.expect("extrapolation well-posed");
        assert!(oip3 > 5.0 && oip3 < 45.0, "OIP3 = {oip3} dBm");
        assert_eq!(sweep.rows.len(), 9);
    }

    #[test]
    fn dead_board_returns_none() {
        let device = Phemt::atf54143_like();
        let mut d = design();
        d.ids = 3.0; // unbuildable bias
        let built = BuiltAmplifier {
            actual_vars: d,
            launch: Microstrip::for_impedance(Substrate::ro4350b(), 50.0, 8e-3),
        };
        assert!(measure(&device, &built, &[1.5e9], &BuildConfig::default()).is_none());
        assert!(measure_im3(&device, &built, &[-30.0]).is_none());
    }
}
