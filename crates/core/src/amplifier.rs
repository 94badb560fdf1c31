//! The GNSS antenna preamplifier circuit and its evaluation.
//!
//! Topology (single ATF-54143-class pHEMT stage, the arrangement of the
//! vendor application notes and of the paper's prototype):
//!
//! ```text
//! in ──┤C_blk├──(L1 series)──┤gate  drain├──(C2 series)── out
//!                                  │             │
//!                              Ls_deg         R_bias + L2 shunt
//!                              (source        (bias feed, output match,
//!                               degeneration)  low-frequency damping)
//! ```
//!
//! The series resistor in the bias feed is the classic low-frequency
//! stabilization: below the band the choke impedance collapses and the
//! resistor loads the drain, killing the out-of-band gain that would
//! otherwise make the stage conditionally stable; in band the choke hides
//! it.
//!
//! All passives are the *dispersive* catalog models from `rfkit-passive`
//! (finite Q, ESR(f), self-resonance), so matching-network loss correctly
//! degrades the noise figure, and the whole chain is evaluated with
//! noise-correlation matrices.

use rfkit_device::smallsignal::{NoiseTemperatures, SmallSignalDevice};
use rfkit_device::{OperatingPoint, Phemt};
use rfkit_net::gains::transducer_gain;
use rfkit_net::stability::{mu_load, mu_source, rollett_k};
use rfkit_net::{Abcd, NoisyAbcd, SParams};
use rfkit_num::units::{db_from_amplitude_ratio, nf_db_from_factor, T0_KELVIN};
use rfkit_num::Complex;
use rfkit_passive::{Capacitor, Component, Inductor};

/// The six continuous design variables of the amplifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignVariables {
    /// Drain-source bias voltage (V).
    pub vds: f64,
    /// Drain bias current (A).
    pub ids: f64,
    /// Series input inductor (H).
    pub l1: f64,
    /// Source degeneration inductance added to the device lead (H).
    pub ls_deg: f64,
    /// Shunt output inductor (H) — also the drain bias feed.
    pub l2: f64,
    /// Series output DC-block/match capacitor (F).
    pub c2: f64,
    /// Resistor in series with the bias feed (Ω) — low-frequency
    /// stabilization.
    pub r_bias: f64,
}

impl DesignVariables {
    /// Encodes into the optimizer vector
    /// `[vds, ids_mA, l1_nH, ls_nH, l2_nH, c2_pF, r_bias_ohm]`.
    pub fn to_vec(self) -> Vec<f64> {
        vec![
            self.vds,
            self.ids * 1e3,
            self.l1 * 1e9,
            self.ls_deg * 1e9,
            self.l2 * 1e9,
            self.c2 * 1e12,
            self.r_bias,
        ]
    }

    /// Decodes from the optimizer vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != 7`.
    pub fn from_vec(v: &[f64]) -> Self {
        assert_eq!(v.len(), 7, "design vector must have 7 entries");
        DesignVariables {
            vds: v[0],
            ids: v[1] * 1e-3,
            l1: v[2] * 1e-9,
            ls_deg: v[3] * 1e-9,
            l2: v[4] * 1e-9,
            c2: v[5] * 1e-12,
            r_bias: v[6],
        }
    }

    /// The optimizer box: Vds 1.5–4 V, Ids 10–80 mA, L1 0.5–18 nH,
    /// Ls 0–1.2 nH, L2 1–22 nH, C2 0.3–12 pF, R_bias 5–200 Ω.
    pub fn bounds() -> rfkit_opt::Bounds {
        rfkit_opt::Bounds::new(
            vec![1.5, 10.0, 0.5, 0.0, 1.0, 0.3, 5.0],
            vec![4.0, 80.0, 18.0, 1.2, 22.0, 12.0, 200.0],
        )
        .expect("valid design bounds")
    }
}

/// The amplifier: a device plus design variables.
pub struct Amplifier<'a> {
    /// The pHEMT the amplifier is built around.
    pub device: &'a Phemt,
    /// The selected design.
    pub vars: DesignVariables,
    /// Fixed input DC-block capacitance (F).
    pub c_block: f64,
}

/// Metrics of the amplifier at one frequency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointMetrics {
    /// Frequency (Hz).
    pub freq_hz: f64,
    /// Transducer gain into 50 Ω terminations (dB).
    pub gain_db: f64,
    /// Noise figure with a 50 Ω source (dB).
    pub nf_db: f64,
    /// Input reflection |S11| (dB).
    pub s11_db: f64,
    /// Output reflection |S22| (dB).
    pub s22_db: f64,
    /// Rollett stability factor.
    pub k: f64,
    /// Geometric stability factor (load plane).
    pub mu: f64,
}

/// Stability factors of the amplifier at one frequency: all a stability
/// check reads of a grid point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct StabilityFactors {
    /// Rollett stability factor.
    pub(crate) k: f64,
    /// Geometric stability factor, the smaller of the load- and
    /// source-plane μ.
    pub(crate) mu: f64,
}

impl StabilityFactors {
    fn of(s: &SParams) -> Self {
        StabilityFactors {
            k: rollett_k(s),
            mu: mu_load(s).min(mu_source(s)),
        }
    }
}

impl<'a> Amplifier<'a> {
    /// Creates the amplifier with the default 100 pF input block.
    pub fn new(device: &'a Phemt, vars: DesignVariables) -> Self {
        Amplifier {
            device,
            vars,
            c_block: 100e-12,
        }
    }

    /// The DC operating point implied by the design variables.
    ///
    /// Returns `None` when `ids` is outside the device's range at `vds`.
    pub fn operating_point(&self) -> Option<OperatingPoint> {
        let vgs = self.device.bias_for_current(self.vars.vds, self.vars.ids)?;
        Some(self.device.operating_point(vgs, self.vars.vds))
    }

    /// The amplifier at its solved bias point, ready for per-frequency
    /// evaluation at ambient temperature. Sweeps build this once per
    /// design and evaluate every grid point through it.
    ///
    /// Returns `None` when the bias point is unreachable.
    pub fn biased(&self) -> Option<BiasedAmplifier> {
        let op = self.operating_point()?;
        Some(self.biased_at(
            self.device.small_signal(&op),
            self.device.noise.temperatures(op.ids),
            T0_KELVIN,
        ))
    }

    /// The biased view from an explicit small-signal device (without the
    /// source degeneration, which is added here), device noise
    /// temperatures and passive temperature (K). The thermal analysis
    /// derates the device and heats the passives through this.
    pub(crate) fn biased_at(
        &self,
        mut device: SmallSignalDevice,
        temps: NoiseTemperatures,
        t_passive: f64,
    ) -> BiasedAmplifier {
        device.extrinsic.ls += self.vars.ls_deg;
        BiasedAmplifier {
            device,
            temps,
            t_passive,
            c_block: Capacitor::chip_0402(self.c_block),
            l1: Inductor::chip_0402(self.vars.l1),
            r_bias: self.vars.r_bias,
            l2: Inductor::chip_0402(self.vars.l2),
            c2: Capacitor::chip_0402(self.vars.c2),
        }
    }

    /// The complete noisy two-port at `freq_hz` (input network × device
    /// with degeneration × output network), at ambient temperature.
    ///
    /// Returns `None` when the bias point is unreachable.
    pub fn noisy_two_port(&self, freq_hz: f64) -> Option<NoisyAbcd> {
        Some(self.biased()?.noisy_two_port(freq_hz))
    }

    /// S-parameters of the full amplifier at `freq_hz`, 50 Ω reference.
    pub fn s_params(&self, freq_hz: f64) -> Option<SParams> {
        self.biased()?.s_params(freq_hz)
    }

    /// Swept response over a frequency grid, with noise parameters at
    /// every point — ready for Touchstone export or group-delay analysis.
    ///
    /// The bias is solved once; the per-frequency solves run in parallel
    /// through `rfkit-par` (see
    /// [`rfkit_net::FrequencyResponse::from_fn_par`]), and the response is
    /// assembled in grid order.
    ///
    /// Returns `None` when the bias is unreachable or any point fails.
    pub fn frequency_response(&self, freqs: &[f64]) -> Option<rfkit_net::FrequencyResponse> {
        let biased = self.biased()?;
        rfkit_net::FrequencyResponse::from_fn_par(freqs, |f| {
            let noisy = biased.noisy_two_port(f);
            let s = noisy.abcd.to_s(50.0).ok()?;
            let np = noisy.noise_params(50.0).ok()?;
            Some((s, Some(np)))
        })
    }

    /// All point metrics at `freq_hz`.
    pub fn metrics(&self, freq_hz: f64) -> Option<PointMetrics> {
        self.biased()?.metrics(freq_hz)
    }
}

/// The amplifier at a solved bias point: everything in the cascade that
/// does not depend on frequency, fixed once per design, so each
/// evaluation does only per-frequency work.
///
/// Obtained from [`Amplifier::biased`]; the per-frequency methods of
/// [`Amplifier`] build one per call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BiasedAmplifier {
    /// Small-signal device at the bias point, source degeneration included.
    device: SmallSignalDevice,
    /// Device noise temperatures at the bias point.
    temps: NoiseTemperatures,
    /// Physical temperature of the passives (K).
    t_passive: f64,
    // The catalog parts and the bias-feed resistor (Ω), in cascade order.
    c_block: Capacitor,
    l1: Inductor,
    r_bias: f64,
    l2: Inductor,
    c2: Capacitor,
}

/// The per-frequency elements of the amplifier around the device,
/// computed once and shared by the noisy and the chain-only cascades.
struct Sections {
    /// Input DC block impedance (series).
    c_block: Complex,
    /// Input inductor impedance (series).
    l1: Complex,
    /// Bias-feed admittance (shunt): R_bias in series with the choke,
    /// shunting the drain to AC ground (the supply rail is bypassed).
    feed: Complex,
    /// Output capacitor impedance (series).
    c2: Complex,
}

impl BiasedAmplifier {
    fn sections(&self, freq_hz: f64) -> Sections {
        let z_feed = Complex::real(self.r_bias) + self.l2.impedance(freq_hz);
        Sections {
            c_block: self.c_block.impedance(freq_hz),
            l1: self.l1.impedance(freq_hz),
            feed: z_feed.recip(),
            c2: self.c2.impedance(freq_hz),
        }
    }

    /// The complete noisy two-port at `freq_hz` (input network × device
    /// with degeneration × output network).
    pub fn noisy_two_port(&self, freq_hz: f64) -> NoisyAbcd {
        let core = self.device.noisy_two_port(freq_hz, &self.temps);
        let p = self.sections(freq_hz);
        let t = self.t_passive;
        NoisyAbcd::passive_series(p.c_block, t)
            .cascade(&NoisyAbcd::passive_series(p.l1, t))
            .cascade(&core)
            .cascade(&NoisyAbcd::passive_shunt(p.feed, t))
            .cascade(&NoisyAbcd::passive_series(p.c2, t))
    }

    /// The noiseless chain matrix at `freq_hz`: the chain matrix of
    /// [`BiasedAmplifier::noisy_two_port`], bit for bit, without the
    /// correlation matrices.
    pub(crate) fn abcd(&self, freq_hz: f64) -> Abcd {
        let p = self.sections(freq_hz);
        Abcd::series_impedance(p.c_block)
            .cascade(&Abcd::series_impedance(p.l1))
            .cascade(&self.device.abcd(freq_hz))
            .cascade(&Abcd::shunt_admittance(p.feed))
            .cascade(&Abcd::series_impedance(p.c2))
    }

    /// S-parameters at `freq_hz`, 50 Ω reference.
    pub fn s_params(&self, freq_hz: f64) -> Option<SParams> {
        self.abcd(freq_hz).to_s(50.0).ok()
    }

    /// Stability factors at `freq_hz`, from the chain-only cascade: the
    /// `k` and `mu` of [`BiasedAmplifier::metrics`], bit for bit, without
    /// its noise analysis.
    pub(crate) fn stability(&self, freq_hz: f64) -> Option<StabilityFactors> {
        Some(StabilityFactors::of(&self.s_params(freq_hz)?))
    }

    /// All point metrics at `freq_hz`.
    pub fn metrics(&self, freq_hz: f64) -> Option<PointMetrics> {
        let noisy = self.noisy_two_port(freq_hz);
        let s = noisy.abcd.to_s(50.0).ok()?;
        let np = noisy.noise_params(50.0).ok()?;
        let StabilityFactors { k, mu } = StabilityFactors::of(&s);
        Some(PointMetrics {
            freq_hz,
            gain_db: 10.0
                * transducer_gain(&s, Complex::ZERO, Complex::ZERO)
                    .max(1e-30)
                    .log10(),
            nf_db: nf_db_from_factor(np.noise_factor(Complex::ZERO)),
            s11_db: db_from_amplitude_ratio(s.s11().abs()),
            s22_db: db_from_amplitude_ratio(s.s22().abs()),
            k,
            mu,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reasonable_vars() -> DesignVariables {
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
    fn design_vector_roundtrip() {
        let v = reasonable_vars();
        let back = DesignVariables::from_vec(&v.to_vec());
        assert!((back.ids - v.ids).abs() < 1e-15);
        assert!((back.l1 - v.l1).abs() < 1e-22);
        assert!(DesignVariables::bounds().contains(&v.to_vec()));
    }

    #[test]
    fn amplifier_has_gain_at_gnss() {
        let d = Phemt::atf54143_like();
        let amp = Amplifier::new(&d, reasonable_vars());
        let m = amp.metrics(1.575e9).expect("valid bias");
        assert!(m.gain_db > 8.0, "gain = {} dB", m.gain_db);
        assert!(m.nf_db < 2.0, "NF = {} dB", m.nf_db);
        assert!(m.nf_db > 0.0);
    }

    #[test]
    fn matching_network_improves_input_match() {
        let d = Phemt::atf54143_like();
        // Bare device vs matched amplifier at 1.575 GHz.
        let vars = reasonable_vars();
        let amp = Amplifier::new(&d, vars);
        let op = amp.operating_point().unwrap();
        let bare = d.noisy_two_port(1.575e9, &op).abcd.to_s(50.0).unwrap();
        let matched = amp.s_params(1.575e9).unwrap();
        assert!(
            matched.s11().abs() < bare.s11().abs(),
            "matching must help: {} vs {}",
            matched.s11().abs(),
            bare.s11().abs()
        );
    }

    #[test]
    fn degeneration_improves_stability() {
        let d = Phemt::atf54143_like();
        let mut vars = reasonable_vars();
        vars.ls_deg = 0.0;
        let k_plain = Amplifier::new(&d, vars).metrics(1.575e9).unwrap().k;
        vars.ls_deg = 1.0e-9;
        let k_degen = Amplifier::new(&d, vars).metrics(1.575e9).unwrap().k;
        assert!(k_degen > k_plain, "{k_degen} vs {k_plain}");
    }

    #[test]
    fn unreachable_bias_returns_none() {
        let d = Phemt::atf54143_like();
        let mut vars = reasonable_vars();
        vars.ids = 5.0; // 5 A is far beyond the device
        assert!(Amplifier::new(&d, vars).metrics(1.5e9).is_none());
    }

    #[test]
    fn metrics_change_with_frequency() {
        let d = Phemt::atf54143_like();
        let amp = Amplifier::new(&d, reasonable_vars());
        let low = amp.metrics(1.1e9).unwrap();
        let high = amp.metrics(1.7e9).unwrap();
        assert!(
            (low.gain_db - high.gain_db).abs() > 0.1,
            "frequency matters"
        );
    }

    #[test]
    fn frequency_response_carries_noise_and_group_delay() {
        let d = Phemt::atf54143_like();
        let amp = Amplifier::new(&d, reasonable_vars());
        let freqs = rfkit_num::linspace(1.1e9, 1.7e9, 13);
        let resp = amp.frequency_response(&freqs).expect("feasible design");
        assert_eq!(resp.len(), 13);
        // Noise data present everywhere and consistent with metrics().
        let max_nf = resp.max_nf_db().expect("noise data");
        let mut worst = f64::NEG_INFINITY;
        for &f in &freqs {
            worst = worst.max(amp.metrics(f).unwrap().nf_db);
        }
        assert!((max_nf - worst).abs() < 1e-9);
        // Group delay of an amplifier at L-band: a few hundred ps, and the
        // differential group delay across the GNSS band stays bounded
        // (GNSS receivers care about this figure).
        let dgd_ps = resp.differential_group_delay_s().unwrap() * 1e12;
        assert!(dgd_ps > 0.0 && dgd_ps < 500.0, "DGD = {dgd_ps} ps");
    }

    #[test]
    fn frequency_response_none_for_dead_bias() {
        let d = Phemt::atf54143_like();
        let mut vars = reasonable_vars();
        vars.ids = 3.0;
        assert!(Amplifier::new(&d, vars)
            .frequency_response(&[1.4e9])
            .is_none());
    }

    #[test]
    fn more_current_more_gain() {
        let d = Phemt::atf54143_like();
        let mut vars = reasonable_vars();
        vars.ids = 0.015;
        let g_low = Amplifier::new(&d, vars).metrics(1.575e9).unwrap().gain_db;
        vars.ids = 0.070;
        let g_high = Amplifier::new(&d, vars).metrics(1.575e9).unwrap().gain_db;
        assert!(g_high > g_low + 1.0, "{g_high} vs {g_low}");
    }
}
