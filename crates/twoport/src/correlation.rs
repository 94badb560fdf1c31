//! Noise-correlation matrices in the Hillbrand–Russer framework.
//!
//! A noisy linear two-port is represented as a noiseless two-port plus a
//! pair of correlated noise sources. Depending on the representation the
//! source pair is two shunt currents (Y form), two series voltages (Z form)
//! or the classic input voltage + input current pair (chain/ABCD form). The
//! 2×2 Hermitian correlation matrix of the pair transforms between
//! representations by congruence, and cascading networks reduces to
//! `CA_total = CA₁ + A₁·CA₂·A₁†` — which is how the amplifier design flow
//! propagates noise through matching networks and the pHEMT.
//!
//! **Convention**: correlation matrices hold *one-sided* power spectral
//! densities, so a resistor `R` at temperature `T` has `⟨|v|²⟩ = 4kTR`
//! (V²/Hz) and a conductance `G` has `⟨|i|²⟩ = 4kTG` (A²/Hz).

use crate::m2::M2;
use crate::noise::NoiseParams;
use crate::params::{Abcd, NetworkError, YParams, ZParams};
use rfkit_num::units::{K_BOLTZMANN, T0_KELVIN};
use rfkit_num::Complex;

/// Floor applied to `Cvv` when extracting noise parameters so networks with
/// pure current noise (e.g. an ideal shunt resistor) produce finite, correct
/// `F(Ys)` through the (Fmin, Rn, Yopt) parameterization.
const RN_FLOOR_OHM: f64 = 1e-9;

/// A two-port in chain (ABCD) representation together with its chain-form
/// noise-correlation matrix.
///
/// `ca = [[⟨|vₙ|²⟩, ⟨vₙ·iₙ*⟩], [⟨iₙ·vₙ*⟩, ⟨|iₙ|²⟩]]` in V²/Hz, V·A/Hz and
/// A²/Hz (one-sided).
///
/// # Examples
///
/// ```
/// use rfkit_net::{Abcd, NoisyAbcd};
/// use rfkit_num::Complex;
///
/// // A matched 6 dB pad at 290 K has F = 4 (6 dB) from a 50 Ω source.
/// let pad = Abcd::shunt_admittance(Complex::real(1.0 / 150.0))
///     .cascade(&Abcd::series_impedance(Complex::real(37.5)))
///     .cascade(&Abcd::shunt_admittance(Complex::real(1.0 / 150.0)));
/// let noisy = NoisyAbcd::from_passive_abcd(&pad, 290.0).unwrap();
/// let f = noisy.noise_params(50.0).unwrap().noise_factor(Complex::ZERO);
/// assert!((f - 4.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyAbcd {
    /// The (noiseless) chain matrix.
    pub abcd: Abcd,
    /// Chain-form noise-correlation matrix.
    pub ca: M2,
}

impl NoisyAbcd {
    /// A noiseless network with the given chain matrix.
    pub fn noiseless(abcd: Abcd) -> Self {
        NoisyAbcd {
            abcd,
            ca: M2::zero(),
        }
    }

    /// An ideal through connection with no noise.
    pub fn through() -> Self {
        NoisyAbcd::noiseless(Abcd::through())
    }

    /// A passive series impedance `z` at temperature `temp` (K): only the
    /// real part generates noise, `⟨|vₙ|²⟩ = 4kT·Re(z)`.
    pub fn passive_series(z: Complex, temp: f64) -> Self {
        let cvv = thermal_psd(z.re, temp);
        NoisyAbcd {
            abcd: Abcd::series_impedance(z),
            ca: M2::new(
                Complex::real(cvv),
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
            ),
        }
    }

    /// A passive shunt admittance `y` at temperature `temp` (K):
    /// `⟨|iₙ|²⟩ = 4kT·Re(y)`.
    pub fn passive_shunt(y: Complex, temp: f64) -> Self {
        let cii = thermal_psd(y.re, temp);
        NoisyAbcd {
            abcd: Abcd::shunt_admittance(y),
            ca: M2::new(
                Complex::ZERO,
                Complex::ZERO,
                Complex::ZERO,
                Complex::real(cii),
            ),
        }
    }

    /// Builds the noisy chain form of an arbitrary **passive** two-port in
    /// thermal equilibrium at `temp` (K), deriving the correlation matrix
    /// from `Re(Y)` (or `Re(Z)` when no Y form exists).
    ///
    /// # Errors
    ///
    /// Returns an error when the network has neither a Y nor a Z
    /// representation *and* is not recognized as lossless; ideal
    /// transformers and throughs are handled (zero noise).
    pub fn from_passive_abcd(abcd: &Abcd, temp: f64) -> Result<Self, NetworkError> {
        if let Ok(y) = abcd.to_y() {
            let cy = re_part_scaled(&y.m, 4.0 * K_BOLTZMANN * temp);
            return NoisyAbcd::from_y_correlation(&y, &cy);
        }
        if let Ok(z) = abcd.to_z() {
            let cz = re_part_scaled(&z.m, 4.0 * K_BOLTZMANN * temp);
            return NoisyAbcd::from_z_correlation(&z, &cz);
        }
        // B == 0 and C == 0: a pure through/transformer, which is lossless.
        Ok(NoisyAbcd::noiseless(*abcd))
    }

    /// Builds the chain form from Y parameters and a Y-form correlation
    /// matrix `CY` (A²/Hz, one-sided).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `Y21 == 0`.
    pub fn from_y_correlation(y: &YParams, cy: &M2) -> Result<Self, NetworkError> {
        let abcd = y.to_abcd()?;
        // Hillbrand–Russer Y→A transform: T = [[0, B], [1, D]].
        let t = M2::new(Complex::ZERO, abcd.b(), Complex::ONE, abcd.d());
        Ok(NoisyAbcd {
            abcd,
            ca: cy.congruence(&t),
        })
    }

    /// Builds the chain form from Z parameters and a Z-form correlation
    /// matrix `CZ` (V²/Hz, one-sided).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `Z21 == 0`.
    pub fn from_z_correlation(z: &ZParams, cz: &M2) -> Result<Self, NetworkError> {
        let abcd = z.to_abcd()?;
        // Hillbrand–Russer Z→A transform: T = [[1, −A], [0, −C]].
        let t = M2::new(Complex::ONE, -abcd.a(), Complex::ZERO, -abcd.c());
        Ok(NoisyAbcd {
            abcd,
            ca: cz.congruence(&t),
        })
    }

    /// Builds the chain form from a noiseless chain matrix plus classic
    /// noise parameters.
    pub fn from_noise_params(abcd: Abcd, np: &NoiseParams) -> Self {
        let kt0 = K_BOLTZMANN * T0_KELVIN;
        let y_opt = np.y_opt();
        let cvv = 4.0 * kt0 * np.rn;
        let cvi = Complex::real(2.0 * kt0 * (np.fmin - 1.0)) - Complex::real(cvv) * y_opt.conj();
        let cii = Complex::real(cvv * y_opt.norm_sqr());
        NoisyAbcd {
            abcd,
            ca: M2::new(Complex::real(cvv), cvi, cvi.conj(), cii),
        }
    }

    /// Cascade: `self` followed by `next`.
    ///
    /// The noise of the second stage is referred to the input through the
    /// first stage's chain matrix: `CA = CA₁ + A₁·CA₂·A₁†`.
    pub fn cascade(&self, next: &NoisyAbcd) -> NoisyAbcd {
        NoisyAbcd {
            abcd: self.abcd.cascade(&next.abcd),
            ca: self.ca.add(&next.ca.congruence(&self.abcd.m)),
        }
    }

    /// `self` followed by a passive series impedance `z` at `temp` (K):
    /// `self.cascade(&NoisyAbcd::passive_series(z, temp))` without the
    /// terms in the element's structural 0 and 1 entries.
    ///
    /// The element's only noise source is `⟨|vₙ|²⟩` in the (1,1) entry of
    /// its correlation matrix, so the referred noise `A·CA·A†` is
    /// `⟨|vₙ|²⟩·[A₁₁; A₂₁]·[A₁₁; A₂₁]†`. Equal to the generic cascade bit
    /// for bit when the real and imaginary parts of `self`'s chain entries
    /// are finite and nonzero and the element is lossy (`Re z > 0`);
    /// otherwise a skipped `x·1 + y·0` can differ in the sign of a zero,
    /// or in NaN for an infinity.
    pub fn then_passive_series(&self, z: Complex, temp: f64) -> NoisyAbcd {
        let t = &self.abcd.m;
        let cvv = thermal_psd(z.re, temp);
        let (p1, p2) = (t.m11.scale(cvv), t.m21.scale(cvv));
        let referred = M2::new(
            p1 * t.m11.conj(),
            p1 * t.m21.conj(),
            p2 * t.m11.conj(),
            p2 * t.m21.conj(),
        );
        NoisyAbcd {
            abcd: self.abcd.then_series_impedance(z),
            ca: self.ca.add(&referred),
        }
    }

    /// `self` followed by a passive shunt admittance `y` at `temp` (K):
    /// `self.cascade(&NoisyAbcd::passive_shunt(y, temp))` without the
    /// terms in the element's structural 0 and 1 entries. The referred
    /// noise is `⟨|iₙ|²⟩·[A₁₂; A₂₂]·[A₁₂; A₂₂]†`; bit-for-bit equality
    /// holds under the conditions of [`NoisyAbcd::then_passive_series`],
    /// with `Re y > 0`.
    pub fn then_passive_shunt(&self, y: Complex, temp: f64) -> NoisyAbcd {
        let t = &self.abcd.m;
        let cii = thermal_psd(y.re, temp);
        let (q1, q2) = (t.m12.scale(cii), t.m22.scale(cii));
        let referred = M2::new(
            q1 * t.m12.conj(),
            q1 * t.m22.conj(),
            q2 * t.m12.conj(),
            q2 * t.m22.conj(),
        );
        NoisyAbcd {
            abcd: self.abcd.then_shunt_admittance(y),
            ca: self.ca.add(&referred),
        }
    }

    /// Extracts the classic noise parameters (referenced to `z0`).
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidReference`] for non-positive `z0`.
    pub fn noise_params(&self, z0: f64) -> Result<NoiseParams, NetworkError> {
        if z0 <= 0.0 {
            return Err(NetworkError::InvalidReference(z0));
        }
        let kt0 = K_BOLTZMANN * T0_KELVIN;
        if self.ca.m11.is_exact_zero() && self.ca.m22.is_exact_zero() && self.ca.m12.is_exact_zero()
        {
            return Ok(NoiseParams::noiseless(z0));
        }
        let cvv = self.ca.m11.re.max(4.0 * kt0 * RN_FLOOR_OHM);
        let cvi = self.ca.m12;
        let cii = self.ca.m22.re.max(0.0);
        let rn = cvv / (4.0 * kt0);
        let b_opt = cvi.im / cvv;
        let g_opt_sq = (cii / cvv - b_opt * b_opt).max(0.0);
        let g_opt = g_opt_sq.sqrt();
        let y_opt = Complex::new(g_opt, b_opt);
        let fmin = (1.0 + (cvi.re + g_opt * cvv) / (2.0 * kt0)).max(1.0);
        let y0 = 1.0 / z0;
        let gamma_opt = (Complex::real(y0) - y_opt) / (Complex::real(y0) + y_opt);
        Ok(NoiseParams::new(fmin, rn, gamma_opt, z0))
    }
}

/// One-sided thermal noise density `4kT·max(Re, 0)` of a passive
/// element's resistance (V²/Hz) or conductance (A²/Hz) `re` at `temp` (K).
fn thermal_psd(re: f64, temp: f64) -> f64 {
    4.0 * K_BOLTZMANN * temp * re.max(0.0)
}

/// `scale · Re(M)` as a real diagonal-symmetric M2 (entry-wise real part).
fn re_part_scaled(m: &M2, scale: f64) -> M2 {
    M2::new(
        Complex::real(m.m11.re * scale),
        Complex::real(m.m12.re * scale),
        Complex::real(m.m21.re * scale),
        Complex::real(m.m22.re * scale),
    )
}

/// Transforms a Y-form correlation matrix to Z form: `CZ = Z·CY·Z†`.
pub fn cy_to_cz(cy: &M2, z: &ZParams) -> M2 {
    cy.congruence(&z.m)
}

/// Transforms a Z-form correlation matrix to Y form: `CY = Y·CZ·Y†`.
pub fn cz_to_cy(cz: &M2, y: &YParams) -> M2 {
    cz.congruence(&y.m)
}

/// Thermal Y-form correlation matrix of a passive network at `temp` kelvin:
/// `CY = 4kT·Re(Y)`.
pub fn thermal_cy(y: &YParams, temp: f64) -> M2 {
    re_part_scaled(&y.m, 4.0 * K_BOLTZMANN * temp)
}

/// Thermal Z-form correlation matrix of a passive network at `temp` kelvin:
/// `CZ = 4kT·Re(Z)`.
pub fn thermal_cz(z: &ZParams, temp: f64) -> M2 {
    re_part_scaled(&z.m, 4.0 * K_BOLTZMANN * temp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gains::available_gain;
    use crate::noise::{friis, CascadeStage};

    fn pad_6db() -> Abcd {
        Abcd::shunt_admittance(Complex::real(1.0 / 150.0))
            .cascade(&Abcd::series_impedance(Complex::real(37.5)))
            .cascade(&Abcd::shunt_admittance(Complex::real(1.0 / 150.0)))
    }

    #[test]
    fn series_resistor_noise_factor() {
        // Series 50 Ω at T0 from a 50 Ω source: GA = 1/2 → F = 2.
        let r = NoisyAbcd::passive_series(Complex::real(50.0), T0_KELVIN);
        let np = r.noise_params(50.0).unwrap();
        let f = np.noise_factor(Complex::ZERO);
        assert!((f - 2.0).abs() < 1e-9, "F = {f}");
    }

    #[test]
    fn shunt_resistor_noise_factor() {
        // Shunt 50 Ω at T0 from a 50 Ω source: GA = ... F = 1/GA.
        let y = Complex::real(1.0 / 50.0);
        let sh = NoisyAbcd::passive_shunt(y, T0_KELVIN);
        let s = sh.abcd.to_s(50.0).unwrap();
        let ga = available_gain(&s, Complex::ZERO);
        let f = sh.noise_params(50.0).unwrap().noise_factor(Complex::ZERO);
        assert!((f - 1.0 / ga).abs() < 1e-9, "F = {f}, 1/GA = {}", 1.0 / ga);
    }

    #[test]
    fn passive_attenuator_noise_figure_equals_attenuation() {
        let noisy = NoisyAbcd::from_passive_abcd(&pad_6db(), T0_KELVIN).unwrap();
        let np = noisy.noise_params(50.0).unwrap();
        let f = np.noise_factor(Complex::ZERO);
        assert!((f - 4.0).abs() < 1e-6, "6 dB pad must have F = 4, got {f}");
        // Matched pad: Γopt ≈ 0 and Fmin = F(0).
        assert!(np.gamma_opt.abs() < 1e-6);
        assert!((np.fmin - 4.0).abs() < 1e-6);
    }

    #[test]
    fn cold_passive_network_is_noiseless() {
        let noisy = NoisyAbcd::from_passive_abcd(&pad_6db(), 0.0).unwrap();
        let f = noisy
            .noise_params(50.0)
            .unwrap()
            .noise_factor(Complex::ZERO);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cascade_of_pads_matches_friis() {
        let pad = NoisyAbcd::from_passive_abcd(&pad_6db(), T0_KELVIN).unwrap();
        let two = pad.cascade(&pad);
        let f_total = two.noise_params(50.0).unwrap().noise_factor(Complex::ZERO);
        // Friis with matched stages: G = 1/4, F = 4 each.
        let expect = friis(&[
            CascadeStage {
                gain: 0.25,
                noise_factor: 4.0,
            },
            CascadeStage {
                gain: 0.25,
                noise_factor: 4.0,
            },
        ]);
        assert!(
            (f_total - expect).abs() < 1e-6,
            "cascade F = {f_total}, Friis = {expect}"
        );
        // 12 dB pad → F = 16.
        assert!((f_total - 16.0).abs() < 1e-5);
    }

    #[test]
    fn noise_params_roundtrip_through_ca() {
        let np = NoiseParams::new(1.25, 9.0, Complex::from_polar(0.4, 0.9), 50.0);
        let noisy = NoisyAbcd::from_noise_params(Abcd::through(), &np);
        let back = noisy.noise_params(50.0).unwrap();
        assert!(
            (back.fmin - np.fmin).abs() < 1e-9,
            "fmin {} vs {}",
            back.fmin,
            np.fmin
        );
        assert!((back.rn - np.rn).abs() < 1e-9);
        assert!((back.gamma_opt - np.gamma_opt).abs() < 1e-9);
    }

    #[test]
    fn noiseless_input_network_preserves_noise_params() {
        // A noiseless through in front changes nothing.
        let np = NoiseParams::new(1.3, 10.0, Complex::from_polar(0.3, -0.5), 50.0);
        let dev = NoisyAbcd::from_noise_params(Abcd::through(), &np);
        let chained = NoisyAbcd::through().cascade(&dev);
        let back = chained.noise_params(50.0).unwrap();
        assert!((back.fmin - np.fmin).abs() < 1e-12);
    }

    #[test]
    fn input_attenuator_raises_fmin_by_its_loss() {
        // Matched pad (loss L) + device: Fmin_total = L·Fmin_dev... exactly:
        // F = F_pad + (F_dev − 1)/G_pad at the pad's matched optimum.
        let np = NoiseParams::new(1.2, 8.0, Complex::ZERO, 50.0);
        let dev = NoisyAbcd::from_noise_params(Abcd::through(), &np);
        let pad = NoisyAbcd::from_passive_abcd(&pad_6db(), T0_KELVIN).unwrap();
        let total = pad.cascade(&dev);
        let f = total
            .noise_params(50.0)
            .unwrap()
            .noise_factor(Complex::ZERO);
        let expect = 4.0 + (1.2 - 1.0) / 0.25;
        assert!((f - expect).abs() < 1e-6, "F = {f}, expect {expect}");
    }

    #[test]
    fn y_and_z_paths_agree_for_pi_network() {
        // The pad has both Y and Z forms; both constructions must agree.
        let abcd = pad_6db();
        let y = abcd.to_y().unwrap();
        let z = abcd.to_z().unwrap();
        let via_y = NoisyAbcd::from_y_correlation(&y, &thermal_cy(&y, T0_KELVIN)).unwrap();
        let via_z = NoisyAbcd::from_z_correlation(&z, &thermal_cz(&z, T0_KELVIN)).unwrap();
        assert!((via_y.ca.m11 - via_z.ca.m11).abs() < 1e-25);
        assert!((via_y.ca.m12 - via_z.ca.m12).abs() < 1e-25);
        assert!((via_y.ca.m22 - via_z.ca.m22).abs() < 1e-25);
    }

    #[test]
    fn cy_cz_transforms_are_inverses() {
        let abcd = pad_6db();
        let y = abcd.to_y().unwrap();
        let z = abcd.to_z().unwrap();
        let cy = thermal_cy(&y, T0_KELVIN);
        let cz = cy_to_cz(&cy, &z);
        let cy2 = cz_to_cy(&cz, &y);
        assert!((cy.m11 - cy2.m11).abs() < 1e-25);
        assert!((cy.m12 - cy2.m12).abs() < 1e-25);
        assert!((cy.m22 - cy2.m22).abs() < 1e-25);
    }

    #[test]
    fn lossless_transformer_adds_no_noise() {
        let t = Abcd::transformer(3.0);
        let noisy = NoisyAbcd::from_passive_abcd(&t, T0_KELVIN).unwrap();
        assert_eq!(noisy.ca, M2::zero());
    }

    #[test]
    fn reactive_elements_add_no_noise() {
        // A lossless series inductor at 1 GHz.
        let zl = Complex::imag(2.0 * std::f64::consts::PI * 1e9 * 5e-9);
        let noisy = NoisyAbcd::passive_series(zl, T0_KELVIN);
        let f = noisy
            .noise_params(50.0)
            .unwrap()
            .noise_factor(Complex::ZERO);
        assert!((f - 1.0).abs() < 1e-9);
    }

    #[test]
    fn correlation_matrix_is_hermitian_after_cascade() {
        let np = NoiseParams::new(1.4, 12.0, Complex::from_polar(0.5, 1.2), 50.0);
        let dev = NoisyAbcd::from_noise_params(Abcd::through(), &np);
        let pad = NoisyAbcd::from_passive_abcd(&pad_6db(), T0_KELVIN).unwrap();
        let total = pad.cascade(&dev).cascade(&pad).cascade(&dev);
        assert!((total.ca.m12 - total.ca.m21.conj()).abs() < 1e-25);
        assert!(total.ca.m11.im.abs() < 1e-28);
        assert!(total.ca.m22.im.abs() < 1e-28);
        assert!(total.ca.m11.re >= 0.0 && total.ca.m22.re >= 0.0);
    }
}
