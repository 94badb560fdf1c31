//! Small-signal equivalent circuit of a packaged pHEMT, with the
//! Pospieszalski two-temperature noise model.
//!
//! The intrinsic FET (Cgs–Ri gate branch, delayed transconductance, Cds,
//! gds, Cgd feedback) is wrapped in the standard extrinsic shell: series
//! R+L on gate, drain and common source lead, plus package pad
//! capacitances. Noise comes from exactly two temperatures — the gate
//! resistance Ri at `Tg` and the output conductance gds at `Td` — which is
//! Pospieszalski's model, evaluated here through correlation matrices so
//! the extrinsic shell's thermal noise is handled consistently.

use rfkit_net::{Abcd, NoisyAbcd, SParams, YParams, ZParams, M2};
use rfkit_num::units::{angular, K_BOLTZMANN};
use rfkit_num::Complex;

/// Intrinsic small-signal elements at one operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Intrinsic {
    /// Transconductance (S).
    pub gm: f64,
    /// Output conductance (S).
    pub gds: f64,
    /// Gate-source capacitance (F).
    pub cgs: f64,
    /// Gate-drain (feedback) capacitance (F).
    pub cgd: f64,
    /// Drain-source capacitance (F).
    pub cds: f64,
    /// Intrinsic gate (channel) resistance in series with Cgs (Ω).
    pub ri: f64,
    /// Transconductance delay (s).
    pub tau: f64,
}

/// The intrinsic gate branch at one frequency, computed once for both
/// the Y-parameters and the noise-correlation matrix.
struct GateBranch {
    /// Angular frequency ω (rad/s).
    w: f64,
    /// `jω`.
    jw: Complex,
    /// Gate branch admittance: Cgs in series with Ri.
    y_gs: Complex,
    /// Delayed transconductance referred to the Cgs voltage.
    gm_eff: Complex,
}

impl Intrinsic {
    fn gate_branch(&self, freq_hz: f64) -> GateBranch {
        let w = angular(freq_hz);
        let jw = Complex::imag(w);
        let den = Complex::ONE + jw * Complex::real(self.ri * self.cgs);
        GateBranch {
            w,
            jw,
            y_gs: jw * Complex::real(self.cgs) / den,
            gm_eff: Complex::from_polar(self.gm, -w * self.tau) / den,
        }
    }

    /// Intrinsic Y-parameters at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics on non-positive frequency.
    pub fn y_params(&self, freq_hz: f64) -> YParams {
        assert!(freq_hz > 0.0, "frequency must be positive");
        self.y_params_at(&self.gate_branch(freq_hz))
    }

    fn y_params_at(&self, g: &GateBranch) -> YParams {
        let y_gd = g.jw * Complex::real(self.cgd);
        let y_ds = Complex::real(self.gds) + g.jw * Complex::real(self.cds);
        YParams::new(g.y_gs + y_gd, -y_gd, g.gm_eff - y_gd, y_ds + y_gd)
    }

    /// Intrinsic cutoff frequency `f_T = gm / (2π·(Cgs + Cgd))`.
    pub fn ft(&self) -> f64 {
        self.gm / (2.0 * std::f64::consts::PI * (self.cgs + self.cgd))
    }

    /// Y-form noise-correlation matrix of the intrinsic device per
    /// Pospieszalski: `Ri` at temperature `tg`, `gds` at `td` (one-sided,
    /// A²/Hz).
    ///
    /// Derivation (ports shorted): the Ri thermal voltage `e` drives the
    /// gate branch current `y_gs·e` into port 1 and, through the controlled
    /// source, `g_m·e/(1 + jωR_iC_gs)` into port 2, giving fully correlated
    /// gate/drain terms; the drain conductance adds `4kT_d·g_ds`
    /// uncorrelated at port 2.
    pub fn noise_cy(&self, freq_hz: f64, tg: f64, td: f64) -> M2 {
        self.noise_cy_at(&self.gate_branch(freq_hz), tg, td)
    }

    fn noise_cy_at(&self, g: &GateBranch, tg: f64, td: f64) -> M2 {
        let se = 4.0 * K_BOLTZMANN * tg * self.ri; // V²/Hz of the Ri source
        let c11 = Complex::real(g.y_gs.norm_sqr() * se);
        let c12 = g.y_gs * g.gm_eff.conj() * Complex::real(se);
        let c22 = Complex::real(g.gm_eff.norm_sqr() * se + 4.0 * K_BOLTZMANN * td * self.gds);
        M2::new(c11, c12, c12.conj(), c22)
    }
}

/// Extrinsic parasitic shell of the packaged device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrinsic {
    /// Gate series resistance (Ω).
    pub rg: f64,
    /// Drain series resistance (Ω).
    pub rd: f64,
    /// Source (common-lead) series resistance (Ω).
    pub rs: f64,
    /// Gate bond/lead inductance (H).
    pub lg: f64,
    /// Drain bond/lead inductance (H).
    pub ld: f64,
    /// Source via/lead inductance (H).
    pub ls: f64,
    /// Gate pad capacitance (F).
    pub cpg: f64,
    /// Drain pad capacitance (F).
    pub cpd: f64,
}

impl Extrinsic {
    /// A zero shell (bare intrinsic device).
    pub fn none() -> Self {
        Extrinsic {
            rg: 0.0,
            rd: 0.0,
            rs: 0.0,
            lg: 0.0,
            ld: 0.0,
            ls: 0.0,
            cpg: 0.0,
            cpd: 0.0,
        }
    }
}

/// Temperatures of the Pospieszalski noise model plus the ambient for the
/// extrinsic (parasitic) resistances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseTemperatures {
    /// Gate (Ri) temperature, typically near ambient (K).
    pub tg: f64,
    /// Drain (gds) temperature, typically 1000–3000 K and bias dependent.
    pub td: f64,
    /// Ambient temperature of the extrinsic resistances (K).
    pub ambient: f64,
}

impl Default for NoiseTemperatures {
    fn default() -> Self {
        NoiseTemperatures {
            tg: 300.0,
            td: 1500.0,
            ambient: 296.5,
        }
    }
}

/// A complete small-signal device: intrinsic elements plus extrinsic shell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SmallSignalDevice {
    /// Intrinsic elements.
    pub intrinsic: Intrinsic,
    /// Extrinsic shell.
    pub extrinsic: Extrinsic,
}

/// The per-frequency elements of the embedding, computed once and shared
/// by the noisy and the chain-only cascades.
struct Embedding {
    /// The intrinsic gate branch, which the noise-correlation matrix reads
    /// again.
    branch: GateBranch,
    /// Intrinsic Z-parameters.
    z: ZParams,
    /// Intrinsic Z plus the common source lead (`Z + Zs·ones`).
    z_core: ZParams,
    /// Gate series impedance `Rg + jωLg`.
    gate: Complex,
    /// Drain series impedance `Rd + jωLd`.
    drain: Complex,
    /// Gate pad admittance `jωCpg`.
    pad_g: Complex,
    /// Drain pad admittance `jωCpd`.
    pad_d: Complex,
}

/// The all-ones 2×2 matrix: a common-lead impedance or noise source
/// appears in both loops of the Z form.
const ONES: M2 = M2::new(Complex::ONE, Complex::ONE, Complex::ONE, Complex::ONE);

impl SmallSignalDevice {
    /// Noiseless two-port (S-parameters at `z0`) at `freq_hz`.
    ///
    /// # Panics
    ///
    /// Panics if the embedding hits a singular conversion, which does not
    /// occur for physical element values.
    pub fn s_params(&self, freq_hz: f64, z0: f64) -> SParams {
        self.abcd(freq_hz)
            .to_s(z0)
            .expect("physical device has an S form")
    }

    fn embedding(&self, freq_hz: f64) -> Embedding {
        assert!(freq_hz > 0.0, "frequency must be positive");
        let branch = self.intrinsic.gate_branch(freq_hz);
        let (w, jw) = (branch.w, branch.jw);
        let e = &self.extrinsic;
        let z = self
            .intrinsic
            .y_params_at(&branch)
            .to_z()
            .expect("intrinsic Y invertible");
        let zs = Complex::new(e.rs, w * e.ls);
        let z_core = ZParams {
            m: z.m.add(&ONES.scale(zs)),
        };
        Embedding {
            branch,
            z,
            z_core,
            gate: Complex::new(e.rg, w * e.lg),
            drain: Complex::new(e.rd, w * e.ld),
            pad_g: jw * Complex::real(e.cpg),
            pad_d: jw * Complex::real(e.cpd),
        }
    }

    /// Noisy two-port (chain matrix + chain correlation matrix) at
    /// `freq_hz` with the given noise temperatures.
    ///
    /// Embedding order (input → output):
    /// `Cpg ∥ — Rg+Lg — [intrinsic ⊕ (Rs+Ls) common lead] — Rd+Ld — ∥ Cpd`.
    pub fn noisy_two_port(&self, freq_hz: f64, temps: &NoiseTemperatures) -> NoisyAbcd {
        let emb = self.embedding(freq_hz);
        // Intrinsic CY → CZ, then add the common source lead's noise
        // (it appears in both loops: CZ += 4kT·Rs·ones).
        let cy = self.intrinsic.noise_cy_at(&emb.branch, temps.tg, temps.td);
        let cz = rfkit_net::correlation::cy_to_cz(&cy, &emb.z);
        let sn = 4.0 * K_BOLTZMANN * temps.ambient * self.extrinsic.rs;
        let cz_total = cz.add(&ONES.scale(Complex::real(sn)));
        let core =
            NoisyAbcd::from_z_correlation(&emb.z_core, &cz_total).expect("intrinsic Z21 nonzero");

        let t = temps.ambient;
        NoisyAbcd::passive_shunt(emb.pad_g, t)
            .cascade(&NoisyAbcd::passive_series(emb.gate, t))
            .cascade(&core)
            .then_passive_series(emb.drain, t)
            .then_passive_shunt(emb.pad_d, t)
    }

    /// Noiseless chain matrix at `freq_hz`: the chain matrix of
    /// [`SmallSignalDevice::noisy_two_port`], bit for bit, without the
    /// correlation matrices.
    pub fn abcd(&self, freq_hz: f64) -> Abcd {
        let emb = self.embedding(freq_hz);
        let core = emb.z_core.to_abcd().expect("intrinsic Z21 nonzero");
        Abcd::shunt_admittance(emb.pad_g)
            .cascade(&Abcd::series_impedance(emb.gate))
            .cascade(&core)
            .then_series_impedance(emb.drain)
            .then_shunt_admittance(emb.pad_d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_net::gains::transducer_gain;
    use rfkit_net::stability::rollett_k;
    use rfkit_num::units::db_from_power_ratio;

    /// ATF-54143-class small-signal values at Vds = 3 V, Ids = 60 mA.
    fn typical() -> SmallSignalDevice {
        SmallSignalDevice {
            intrinsic: Intrinsic {
                gm: 0.22,
                gds: 0.008,
                cgs: 1.8e-12,
                cgd: 0.22e-12,
                cds: 0.28e-12,
                ri: 1.4,
                tau: 2.0e-12,
            },
            extrinsic: Extrinsic {
                rg: 1.0,
                rd: 2.0,
                rs: 0.55,
                lg: 0.45e-9,
                ld: 0.45e-9,
                ls: 0.22e-9,
                cpg: 0.25e-12,
                cpd: 0.25e-12,
            },
        }
    }

    #[test]
    fn ft_is_in_the_tens_of_gigahertz() {
        let d = typical();
        let ft = d.intrinsic.ft();
        assert!(ft > 10e9 && ft < 60e9, "fT = {ft}");
    }

    #[test]
    fn s21_gain_realistic_at_gnss() {
        let d = typical();
        let s = d.s_params(1.5e9, 50.0);
        let g_db = db_from_power_ratio(s.s21().norm_sqr());
        // ATF-54143 datasheet: |S21|² ≈ 16–18 dB at 1.5 GHz.
        assert!(g_db > 12.0 && g_db < 22.0, "|S21|² = {g_db} dB");
        // Inverting amplifier: S21 phase near 180° minus delay at low f.
        assert!(s.s21().arg().abs() > std::f64::consts::FRAC_PI_2);
    }

    #[test]
    fn gain_rolls_off_with_frequency() {
        let d = typical();
        let g1 = d.s_params(1.0e9, 50.0).s21().abs();
        let g4 = d.s_params(4.0e9, 50.0).s21().abs();
        let g10 = d.s_params(10.0e9, 50.0).s21().abs();
        assert!(g1 > g4 && g4 > g10, "{g1} > {g4} > {g10} expected");
    }

    #[test]
    fn input_reflection_high_at_low_frequency() {
        // A FET gate is nearly open at low frequency: |S11| → 1.
        let d = typical();
        let s = d.s_params(0.2e9, 50.0);
        assert!(s.s11().abs() > 0.9, "|S11| = {}", s.s11().abs());
        // And capacitive (negative phase).
        assert!(s.s11().arg() < 0.0);
    }

    #[test]
    fn reverse_isolation_much_better_than_forward_gain() {
        let d = typical();
        let s = d.s_params(1.5e9, 50.0);
        assert!(
            s.s12().abs() < 0.1 * s.s21().abs(),
            "S12 = {}, S21 = {}",
            s.s12().abs(),
            s.s21().abs()
        );
    }

    #[test]
    fn source_inductance_improves_stability() {
        let mut d = typical();
        d.extrinsic.ls = 0.0;
        let k_without = rollett_k(&d.s_params(1.5e9, 50.0));
        d.extrinsic.ls = 0.6e-9;
        let k_with = rollett_k(&d.s_params(1.5e9, 50.0));
        assert!(
            k_with > k_without,
            "series feedback should raise K: {k_without} → {k_with}"
        );
    }

    #[test]
    fn nf_min_realistic_and_rising_with_frequency() {
        let d = typical();
        let temps = NoiseTemperatures::default();
        let np1 = d.noisy_two_port(1.5e9, &temps).noise_params(50.0).unwrap();
        let nf1 = np1.nf_min_db();
        // ATF-54143 class: NFmin ≈ 0.3–0.9 dB at 1.5 GHz.
        assert!(nf1 > 0.1 && nf1 < 1.2, "NFmin(1.5 GHz) = {nf1} dB");
        let np4 = d.noisy_two_port(4.0e9, &temps).noise_params(50.0).unwrap();
        assert!(np4.nf_min_db() > nf1, "NFmin must rise with frequency");
    }

    #[test]
    fn gamma_opt_is_inductive_region() {
        // For a pHEMT, Γopt sits in the upper (inductive-source) half of
        // the Smith chart at low GHz.
        let d = typical();
        let np = d
            .noisy_two_port(1.5e9, &NoiseTemperatures::default())
            .noise_params(50.0)
            .unwrap();
        assert!(np.gamma_opt.abs() > 0.1 && np.gamma_opt.abs() < 0.9);
        assert!(np.gamma_opt.im > 0.0, "Γopt = {}", np.gamma_opt);
    }

    #[test]
    fn hotter_drain_is_noisier() {
        let d = typical();
        let cool = NoiseTemperatures {
            td: 800.0,
            ..Default::default()
        };
        let hot = NoiseTemperatures {
            td: 3000.0,
            ..Default::default()
        };
        let nf_cool = d
            .noisy_two_port(1.5e9, &cool)
            .noise_params(50.0)
            .unwrap()
            .fmin;
        let nf_hot = d
            .noisy_two_port(1.5e9, &hot)
            .noise_params(50.0)
            .unwrap()
            .fmin;
        assert!(nf_hot > nf_cool);
    }

    #[test]
    fn zero_kelvin_device_is_noiseless() {
        let mut d = typical();
        // Also silence the extrinsic resistors by freezing ambient.
        let temps = NoiseTemperatures {
            tg: 0.0,
            td: 0.0,
            ambient: 0.0,
        };
        d.extrinsic.rg = 1.0; // still resistive, but at 0 K
        let np = d.noisy_two_port(1.5e9, &temps).noise_params(50.0).unwrap();
        assert!((np.fmin - 1.0).abs() < 1e-9, "Fmin = {}", np.fmin);
    }

    #[test]
    fn transducer_gain_into_matched_system_positive() {
        let d = typical();
        let s = d.s_params(1.575e9, 50.0);
        let gt = transducer_gain(&s, Complex::ZERO, Complex::ZERO);
        assert!(db_from_power_ratio(gt) > 10.0);
    }

    #[test]
    fn pad_capacitance_matters_at_high_frequency() {
        let with = typical();
        let mut without = typical();
        without.extrinsic.cpg = 0.0;
        without.extrinsic.cpd = 0.0;
        let s_with = with.s_params(10e9, 50.0);
        let s_without = without.s_params(10e9, 50.0);
        assert!(
            (s_with.s11() - s_without.s11()).abs() > 0.02,
            "pads should shift S11 at 10 GHz"
        );
    }

    #[test]
    fn bare_intrinsic_device_works() {
        let d = SmallSignalDevice {
            intrinsic: typical().intrinsic,
            extrinsic: Extrinsic::none(),
        };
        let s = d.s_params(2e9, 50.0);
        assert!(s.s21().abs() > 1.0);
    }
}
