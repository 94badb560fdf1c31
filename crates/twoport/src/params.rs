//! Two-port parameter representations and conversions.
//!
//! Four representations cover all the connection topologies the suite needs:
//!
//! * **S** (scattering) — what instruments measure and what the design flow
//!   optimizes; referenced to a real impedance `z0`.
//! * **Y** (admittance) — parallel connection adds Y matrices.
//! * **Z** (impedance) — series connection adds Z matrices.
//! * **ABCD** (chain) — cascade multiplies ABCD matrices.
//!
//! Sign conventions: both port currents of Y/Z flow *into* the network; the
//! ABCD output current flows *out of* port 2 toward the load (the usual
//! textbook convention, so `cascade` is a plain matrix product).

use crate::m2::M2;
use rfkit_num::Complex;

/// Error produced by representation conversions.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The conversion requires inverting a singular matrix (e.g. converting
    /// an ideal series element to Z parameters).
    NotInvertible(&'static str),
    /// A parameter that must be nonzero for this conversion is zero (e.g.
    /// `S21 == 0` when converting to ABCD).
    DegenerateParameter(&'static str),
    /// The reference impedance is not positive.
    InvalidReference(f64),
}

impl std::fmt::Display for NetworkError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetworkError::NotInvertible(what) => {
                write!(f, "conversion failed: {what} matrix is singular")
            }
            NetworkError::DegenerateParameter(what) => {
                write!(f, "conversion failed: parameter {what} is zero")
            }
            NetworkError::InvalidReference(z0) => {
                write!(f, "reference impedance must be positive, got {z0}")
            }
        }
    }
}

impl std::error::Error for NetworkError {}

/// Scattering parameters referenced to a real impedance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SParams {
    /// The 2×2 scattering matrix.
    pub m: M2,
    /// Reference impedance in ohms (same at both ports).
    pub z0: f64,
}

/// Admittance (Y) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct YParams {
    /// The 2×2 admittance matrix in siemens.
    pub m: M2,
}

/// Impedance (Z) parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ZParams {
    /// The 2×2 impedance matrix in ohms.
    pub m: M2,
}

/// Chain (ABCD) parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Abcd {
    /// The 2×2 chain matrix `[[A, B], [C, D]]` (B in ohms, C in siemens).
    pub m: M2,
}

impl Default for Abcd {
    /// The identity chain — a through connection.
    fn default() -> Self {
        Abcd { m: M2::identity() }
    }
}

impl SParams {
    /// Creates S-parameters from the four entries and a reference impedance.
    ///
    /// # Panics
    ///
    /// Panics if `z0 <= 0`.
    pub fn new(s11: Complex, s12: Complex, s21: Complex, s22: Complex, z0: f64) -> Self {
        assert!(z0 > 0.0, "reference impedance must be positive");
        SParams {
            m: M2::new(s11, s12, s21, s22),
            z0,
        }
    }

    /// S11 (input reflection with matched output).
    pub fn s11(&self) -> Complex {
        self.m.m11
    }
    /// S12 (reverse transmission).
    pub fn s12(&self) -> Complex {
        self.m.m12
    }
    /// S21 (forward transmission).
    pub fn s21(&self) -> Complex {
        self.m.m21
    }
    /// S22 (output reflection with matched input).
    pub fn s22(&self) -> Complex {
        self.m.m22
    }

    /// Determinant Δ = S11·S22 − S12·S21, used by stability analysis.
    pub fn delta(&self) -> Complex {
        self.m.det()
    }

    /// Converts to Z parameters: `Z = z0 (I + S)(I − S)⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NotInvertible`] when `I − S` is singular
    /// (e.g. an ideal open).
    pub fn to_z(&self) -> Result<ZParams, NetworkError> {
        let i = M2::identity();
        let num = i.add(&self.m);
        let den = i
            .sub(&self.m)
            .inverse()
            .ok_or(NetworkError::NotInvertible("I - S"))?;
        Ok(ZParams {
            m: num.mul(&den).scale(Complex::real(self.z0)),
        })
    }

    /// Converts to Y parameters: `Y = (1/z0)(I − S)(I + S)⁻¹`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NotInvertible`] when `I + S` is singular
    /// (e.g. an ideal short).
    pub fn to_y(&self) -> Result<YParams, NetworkError> {
        let i = M2::identity();
        let num = i.sub(&self.m);
        let den = i
            .add(&self.m)
            .inverse()
            .ok_or(NetworkError::NotInvertible("I + S"))?;
        Ok(YParams {
            m: num.mul(&den).scale(Complex::real(1.0 / self.z0)),
        })
    }

    /// Converts to chain parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `S21 == 0`
    /// (no forward path — the chain form does not exist).
    pub fn to_abcd(&self) -> Result<Abcd, NetworkError> {
        let s11 = self.s11();
        let s12 = self.s12();
        let s21 = self.s21();
        let s22 = self.s22();
        if rfkit_num::is_exact_zero(s21.abs()) {
            return Err(NetworkError::DegenerateParameter("S21"));
        }
        let z0 = Complex::real(self.z0);
        let two_s21 = Complex::real(2.0) * s21;
        let one = Complex::ONE;
        let a = ((one + s11) * (one - s22) + s12 * s21) / two_s21;
        let b = z0 * ((one + s11) * (one + s22) - s12 * s21) / two_s21;
        let c = ((one - s11) * (one - s22) - s12 * s21) / (two_s21 * z0);
        let d = ((one - s11) * (one + s22) + s12 * s21) / two_s21;
        Ok(Abcd {
            m: M2::new(a, b, c, d),
        })
    }

    /// `true` when the matrix is reciprocal (S12 == S21) within `tol`.
    pub fn is_reciprocal(&self, tol: f64) -> bool {
        (self.s12() - self.s21()).abs() <= tol
    }

    /// `true` when the network is passive at this frequency: the matrix
    /// `I − S†S` is positive semi-definite within `tol`.
    pub fn is_passive(&self, tol: f64) -> bool {
        let p = M2::identity().sub(&self.m.adjoint().mul(&self.m));
        // 2x2 Hermitian PSD test: nonneg diagonal and determinant.
        p.m11.re >= -tol && p.m22.re >= -tol && p.det().re >= -tol * tol
    }
}

impl YParams {
    /// Creates Y parameters from the four entries.
    pub fn new(y11: Complex, y12: Complex, y21: Complex, y22: Complex) -> Self {
        YParams {
            m: M2::new(y11, y12, y21, y22),
        }
    }

    /// Y11 entry.
    pub fn y11(&self) -> Complex {
        self.m.m11
    }
    /// Y12 entry.
    pub fn y12(&self) -> Complex {
        self.m.m12
    }
    /// Y21 entry.
    pub fn y21(&self) -> Complex {
        self.m.m21
    }
    /// Y22 entry.
    pub fn y22(&self) -> Complex {
        self.m.m22
    }

    /// Converts to S parameters referenced to `z0`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidReference`] for non-positive `z0` and
    /// [`NetworkError::NotInvertible`] when `I + z0·Y` is singular.
    pub fn to_s(&self, z0: f64) -> Result<SParams, NetworkError> {
        if z0 <= 0.0 {
            return Err(NetworkError::InvalidReference(z0));
        }
        let i = M2::identity();
        let yz = self.m.scale(Complex::real(z0));
        let num = i.sub(&yz);
        let den = i
            .add(&yz)
            .inverse()
            .ok_or(NetworkError::NotInvertible("I + z0 Y"))?;
        Ok(SParams {
            m: num.mul(&den),
            z0,
        })
    }

    /// Converts to Z parameters by matrix inversion.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NotInvertible`] for singular Y.
    pub fn to_z(&self) -> Result<ZParams, NetworkError> {
        Ok(ZParams {
            m: self.m.inverse().ok_or(NetworkError::NotInvertible("Y"))?,
        })
    }

    /// Converts to chain parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `Y21 == 0`.
    pub fn to_abcd(&self) -> Result<Abcd, NetworkError> {
        let y21 = self.y21();
        if rfkit_num::is_exact_zero(y21.abs()) {
            return Err(NetworkError::DegenerateParameter("Y21"));
        }
        let a = -self.y22() / y21;
        let b = -Complex::ONE / y21;
        let c = -self.m.det() / y21;
        let d = -self.y11() / y21;
        Ok(Abcd {
            m: M2::new(a, b, c, d),
        })
    }

    /// Parallel connection: port voltages shared, currents add, so Y adds.
    pub fn parallel(&self, other: &YParams) -> YParams {
        YParams {
            m: self.m.add(&other.m),
        }
    }
}

impl ZParams {
    /// Creates Z parameters from the four entries.
    pub fn new(z11: Complex, z12: Complex, z21: Complex, z22: Complex) -> Self {
        ZParams {
            m: M2::new(z11, z12, z21, z22),
        }
    }

    /// Z11 entry.
    pub fn z11(&self) -> Complex {
        self.m.m11
    }
    /// Z12 entry.
    pub fn z12(&self) -> Complex {
        self.m.m12
    }
    /// Z21 entry.
    pub fn z21(&self) -> Complex {
        self.m.m21
    }
    /// Z22 entry.
    pub fn z22(&self) -> Complex {
        self.m.m22
    }

    /// Converts to S parameters referenced to `z0`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidReference`] for non-positive `z0` and
    /// [`NetworkError::NotInvertible`] when `Z + z0·I` is singular.
    pub fn to_s(&self, z0: f64) -> Result<SParams, NetworkError> {
        if z0 <= 0.0 {
            return Err(NetworkError::InvalidReference(z0));
        }
        let zi = M2::identity().scale(Complex::real(z0));
        let num = self.m.sub(&zi);
        let den = self
            .m
            .add(&zi)
            .inverse()
            .ok_or(NetworkError::NotInvertible("Z + z0 I"))?;
        Ok(SParams {
            m: num.mul(&den),
            z0,
        })
    }

    /// Converts to Y parameters by matrix inversion.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::NotInvertible`] for singular Z.
    pub fn to_y(&self) -> Result<YParams, NetworkError> {
        Ok(YParams {
            m: self.m.inverse().ok_or(NetworkError::NotInvertible("Z"))?,
        })
    }

    /// Converts to chain parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `Z21 == 0`.
    pub fn to_abcd(&self) -> Result<Abcd, NetworkError> {
        let z21 = self.z21();
        if rfkit_num::is_exact_zero(z21.abs()) {
            return Err(NetworkError::DegenerateParameter("Z21"));
        }
        let a = self.z11() / z21;
        let b = self.m.det() / z21;
        let c = Complex::ONE / z21;
        let d = self.z22() / z21;
        Ok(Abcd {
            m: M2::new(a, b, c, d),
        })
    }

    /// Series connection: port currents shared, voltages add, so Z adds.
    pub fn series(&self, other: &ZParams) -> ZParams {
        ZParams {
            m: self.m.add(&other.m),
        }
    }
}

impl Abcd {
    /// Creates chain parameters from `[[A, B], [C, D]]`.
    pub fn new(a: Complex, b: Complex, c: Complex, d: Complex) -> Self {
        Abcd {
            m: M2::new(a, b, c, d),
        }
    }

    /// The identity chain — an ideal through connection.
    pub fn through() -> Self {
        Abcd::default()
    }

    /// Chain of an ideal series impedance `z`.
    pub fn series_impedance(z: Complex) -> Self {
        Abcd::new(Complex::ONE, z, Complex::ZERO, Complex::ONE)
    }

    /// Chain of an ideal shunt admittance `y`.
    pub fn shunt_admittance(y: Complex) -> Self {
        Abcd::new(Complex::ONE, Complex::ZERO, y, Complex::ONE)
    }

    /// Chain of an ideal transformer with turns ratio `n` (port1:port2).
    pub fn transformer(n: f64) -> Self {
        Abcd::new(
            Complex::real(n),
            Complex::ZERO,
            Complex::ZERO,
            Complex::real(1.0 / n),
        )
    }

    /// Chain of a transmission line with propagation constant `gamma`
    /// (per meter), characteristic impedance `zc` and length `len` meters.
    pub fn transmission_line(gamma: Complex, zc: Complex, len: f64) -> Self {
        let gl = gamma.scale(len);
        let ch = gl.cosh();
        let sh = gl.sinh();
        Abcd::new(ch, zc * sh, sh / zc, ch)
    }

    /// A entry (dimensionless).
    pub fn a(&self) -> Complex {
        self.m.m11
    }
    /// B entry (ohms).
    pub fn b(&self) -> Complex {
        self.m.m12
    }
    /// C entry (siemens).
    pub fn c(&self) -> Complex {
        self.m.m21
    }
    /// D entry (dimensionless).
    pub fn d(&self) -> Complex {
        self.m.m22
    }

    /// Cascade: `self` followed by `next` (matrix product).
    pub fn cascade(&self, next: &Abcd) -> Abcd {
        Abcd {
            m: self.m.mul(&next.m),
        }
    }

    /// `self` followed by an ideal series impedance `z`: the product
    /// `self.cascade(&Abcd::series_impedance(z))` without its terms in the
    /// element's structural 0 and 1 entries.
    ///
    /// Equal to that cascade bit for bit when the real and imaginary parts
    /// of `self`'s entries are finite and nonzero; otherwise a skipped
    /// `x·1 + y·0` can differ in the sign of a zero, or in NaN for an
    /// infinity.
    pub fn then_series_impedance(&self, z: Complex) -> Abcd {
        let m = &self.m;
        Abcd::new(m.m11, m.m11 * z + m.m12, m.m21, m.m21 * z + m.m22)
    }

    /// `self` followed by an ideal shunt admittance `y`: the product
    /// `self.cascade(&Abcd::shunt_admittance(y))` without its terms in the
    /// element's structural 0 and 1 entries, equal to it bit for bit under
    /// the conditions of [`Abcd::then_series_impedance`].
    pub fn then_shunt_admittance(&self, y: Complex) -> Abcd {
        let m = &self.m;
        Abcd::new(m.m11 + m.m12 * y, m.m12, m.m21 + m.m22 * y, m.m22)
    }

    /// Converts to S parameters referenced to `z0`.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::InvalidReference`] for non-positive `z0` and
    /// [`NetworkError::DegenerateParameter`] when the denominator
    /// `A + B/z0 + C·z0 + D` vanishes.
    pub fn to_s(&self, z0: f64) -> Result<SParams, NetworkError> {
        if z0 <= 0.0 {
            return Err(NetworkError::InvalidReference(z0));
        }
        let z0c = Complex::real(z0);
        let (a, b, c, d) = (self.a(), self.b(), self.c(), self.d());
        let den = a + b / z0c + c * z0c + d;
        if rfkit_num::is_exact_zero(den.abs()) {
            return Err(NetworkError::DegenerateParameter("A + B/z0 + C z0 + D"));
        }
        let s11 = (a + b / z0c - c * z0c - d) / den;
        let s12 = Complex::real(2.0) * self.m.det() / den;
        let s21 = Complex::real(2.0) / den;
        let s22 = (-a + b / z0c - c * z0c + d) / den;
        Ok(SParams {
            m: M2::new(s11, s12, s21, s22),
            z0,
        })
    }

    /// Converts to Z parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `C == 0`
    /// (e.g. an ideal series element has no Z form).
    pub fn to_z(&self) -> Result<ZParams, NetworkError> {
        let c = self.c();
        if rfkit_num::is_exact_zero(c.abs()) {
            return Err(NetworkError::DegenerateParameter("C"));
        }
        Ok(ZParams {
            m: M2::new(
                self.a() / c,
                self.m.det() / c,
                Complex::ONE / c,
                self.d() / c,
            ),
        })
    }

    /// Converts to Y parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NetworkError::DegenerateParameter`] when `B == 0`
    /// (e.g. an ideal shunt element has no Y form).
    pub fn to_y(&self) -> Result<YParams, NetworkError> {
        let b = self.b();
        if rfkit_num::is_exact_zero(b.abs()) {
            return Err(NetworkError::DegenerateParameter("B"));
        }
        Ok(YParams {
            m: M2::new(
                self.d() / b,
                -self.m.det() / b,
                -Complex::ONE / b,
                self.a() / b,
            ),
        })
    }

    /// Input impedance seen at port 1 with `z_load` terminating port 2.
    pub fn input_impedance(&self, z_load: Complex) -> Complex {
        (self.a() * z_load + self.b()) / (self.c() * z_load + self.d())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cx(re: f64, im: f64) -> Complex {
        Complex::new(re, im)
    }

    /// A numerically friendly, non-reciprocal reference two-port
    /// (a rough FET-like S matrix at 50 Ω).
    fn fet_like() -> SParams {
        SParams::new(
            Complex::from_polar(0.8, -1.0),
            Complex::from_polar(0.05, 0.7),
            Complex::from_polar(4.0, 2.2),
            Complex::from_polar(0.5, -0.6),
            50.0,
        )
    }

    fn assert_m2_close(a: &M2, b: &M2, tol: f64) {
        assert!((a.m11 - b.m11).abs() < tol, "m11 {} vs {}", a.m11, b.m11);
        assert!((a.m12 - b.m12).abs() < tol, "m12 {} vs {}", a.m12, b.m12);
        assert!((a.m21 - b.m21).abs() < tol, "m21 {} vs {}", a.m21, b.m21);
        assert!((a.m22 - b.m22).abs() < tol, "m22 {} vs {}", a.m22, b.m22);
    }

    #[test]
    fn s_to_z_roundtrip() {
        let s = fet_like();
        let back = s.to_z().unwrap().to_s(50.0).unwrap();
        assert_m2_close(&s.m, &back.m, 1e-12);
    }

    #[test]
    fn s_to_y_roundtrip() {
        let s = fet_like();
        let back = s.to_y().unwrap().to_s(50.0).unwrap();
        assert_m2_close(&s.m, &back.m, 1e-12);
    }

    #[test]
    fn s_to_abcd_roundtrip() {
        let s = fet_like();
        let back = s.to_abcd().unwrap().to_s(50.0).unwrap();
        assert_m2_close(&s.m, &back.m, 1e-12);
    }

    #[test]
    fn z_y_are_inverses() {
        let s = fet_like();
        let z = s.to_z().unwrap();
        let y = s.to_y().unwrap();
        let prod = z.m.mul(&y.m);
        assert_m2_close(&prod, &M2::identity(), 1e-12);
    }

    #[test]
    fn abcd_through_is_neutral() {
        let s = fet_like();
        let a = s.to_abcd().unwrap();
        let chained = Abcd::through().cascade(&a).cascade(&Abcd::through());
        assert_m2_close(&chained.m, &a.m, 1e-13);
    }

    #[test]
    fn series_impedance_s_params() {
        // A 50 Ω series resistor between 50 Ω ports:
        // S11 = Z/(Z+2Z0) = 1/3, S21 = 2Z0/(Z+2Z0) = 2/3.
        let a = Abcd::series_impedance(cx(50.0, 0.0));
        let s = a.to_s(50.0).unwrap();
        assert!((s.s11() - Complex::real(1.0 / 3.0)).abs() < 1e-12);
        assert!((s.s21() - Complex::real(2.0 / 3.0)).abs() < 1e-12);
        assert!(s.is_reciprocal(1e-12));
        assert!(s.is_passive(1e-9));
    }

    #[test]
    fn shunt_admittance_s_params() {
        // A 50 Ω shunt resistor: y·z0 = 1 → S11 = -1/3, S21 = 2/3.
        let a = Abcd::shunt_admittance(cx(1.0 / 50.0, 0.0));
        let s = a.to_s(50.0).unwrap();
        assert!((s.s11() + Complex::real(1.0 / 3.0)).abs() < 1e-12);
        assert!((s.s21() - Complex::real(2.0 / 3.0)).abs() < 1e-12);
    }

    #[test]
    fn cascade_matches_known_attenuator() {
        // Two identical 3-resistor pi attenuators cascade to double the dB loss.
        // Build a 6.02 dB (voltage factor N = 2) matched pi pad:
        // shunt R = Z0(N+1)/(N-1) = 150 Ω, series R = Z0(N²-1)/(2N) = 37.5 Ω.
        let r_shunt = Abcd::shunt_admittance(cx(1.0 / 150.0, 0.0));
        let r_series = Abcd::series_impedance(cx(37.5, 0.0));
        let pad = r_shunt.cascade(&r_series).cascade(&r_shunt);
        let s = pad.to_s(50.0).unwrap();
        assert!(s.s11().abs() < 1e-9, "pad must be matched");
        assert!(
            (s.s21().abs() - 0.5).abs() < 1e-9,
            "pad must have |S21| = 1/2"
        );
        let two = pad.cascade(&pad).to_s(50.0).unwrap();
        assert!((two.s21().abs() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn quarter_wave_line_inverts_impedance() {
        // Lossless λ/4 line: Zin = Zc²/ZL.
        let beta = cx(0.0, std::f64::consts::PI / 2.0); // γ·len = jπ/2 with len=1
        let line = Abcd::transmission_line(beta, cx(70.7, 0.0), 1.0);
        let zin = line.input_impedance(cx(100.0, 0.0));
        assert!((zin.re - 70.7 * 70.7 / 100.0).abs() < 1e-6);
        assert!(zin.im.abs() < 1e-6);
    }

    #[test]
    fn matched_line_is_reflectionless() {
        let gamma = cx(0.1, 2.0);
        let line = Abcd::transmission_line(gamma, cx(50.0, 0.0), 0.3);
        let s = line.to_s(50.0).unwrap();
        assert!(s.s11().abs() < 1e-12);
        assert!(s.s22().abs() < 1e-12);
        // |S21| = exp(-α·len)
        assert!((s.s21().abs() - (-0.03f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn transformer_scales_impedance() {
        let t = Abcd::transformer(2.0);
        let zin = t.input_impedance(cx(50.0, 0.0));
        assert!((zin.re - 200.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_and_series_composition() {
        let y1 = YParams::new(cx(0.02, 0.0), cx(-0.01, 0.0), cx(-0.01, 0.0), cx(0.02, 0.0));
        let y2 = y1;
        let par = y1.parallel(&y2);
        assert_eq!(par.y11(), cx(0.04, 0.0));
        let z1 = ZParams::new(cx(10.0, 0.0), cx(5.0, 0.0), cx(5.0, 0.0), cx(10.0, 0.0));
        let ser = z1.series(&z1);
        assert_eq!(ser.z21(), cx(10.0, 0.0));
    }

    #[test]
    fn degenerate_conversions_error() {
        // Isolation network: S21 = 0 has no ABCD form.
        let s = SParams::new(
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            50.0,
        );
        assert!(matches!(
            s.to_abcd(),
            Err(NetworkError::DegenerateParameter("S21"))
        ));
        // Ideal series element: C = 0 has no Z form.
        let a = Abcd::series_impedance(cx(10.0, 0.0));
        assert!(matches!(
            a.to_z(),
            Err(NetworkError::DegenerateParameter("C"))
        ));
        // Ideal shunt element: B = 0 has no Y form.
        let a = Abcd::shunt_admittance(cx(0.1, 0.0));
        assert!(matches!(
            a.to_y(),
            Err(NetworkError::DegenerateParameter("B"))
        ));
    }

    #[test]
    fn invalid_reference_impedance() {
        let y = YParams::new(cx(0.02, 0.0), Complex::ZERO, Complex::ZERO, cx(0.02, 0.0));
        assert!(matches!(
            y.to_s(-1.0),
            Err(NetworkError::InvalidReference(_))
        ));
    }

    #[test]
    fn passivity_detects_active_network() {
        let s = fet_like(); // |S21| = 4 → active
        assert!(!s.is_passive(1e-9));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sparams_new_rejects_bad_z0() {
        SParams::new(
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            Complex::ZERO,
            0.0,
        );
    }
}
