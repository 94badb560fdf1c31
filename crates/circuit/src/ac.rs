//! AC small-signal analysis: complex nodal admittance assembly, internal
//! node elimination and S-parameter extraction at the declared ports.
//!
//! The nonlinear FET must be replaced by its linearized small-signal
//! two-port before AC analysis; [`AcStamps`] carries those extra Y-stamped
//! two-ports (e.g. a [`rfkit_device::SmallSignalDevice`] evaluated at the
//! DC operating point).

use crate::netlist::{Circuit, Element};
use rfkit_net::{NPort, SParams, YParams};
use rfkit_num::units::angular;
use rfkit_num::{CMatrix, Complex};

// Per-frequency solve timing (runtime-gated, write-only; see rfkit-obs).
static OBS_AC_SOLVE_US: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.ac.solve_us");

/// An AC short for DC voltage sources (the compiled plan stamps the exact
/// same conductance, so both assemble bit-identical matrices).
pub(crate) const SHORT_SIEMENS: f64 = 1e7;

/// Stamps a two-terminal admittance between nodes `a` and `b` (`None` =
/// ground): `+adm` on the diagonals, `-adm` on the off-diagonals.
pub(crate) fn stamp_admittance(y: &mut CMatrix, a: Option<usize>, b: Option<usize>, adm: Complex) {
    if let Some(i) = a {
        y[(i, i)] += adm;
    }
    if let Some(j) = b {
        y[(j, j)] += adm;
    }
    if let (Some(i), Some(j)) = (a, b) {
        y[(i, j)] -= adm;
        y[(j, i)] -= adm;
    }
}

/// Applies every extra stamped two-port in `stamps` at `freq_hz`. Shared
/// between the legacy path and the compiled plan.
pub(crate) fn apply_two_port_stamps(y: &mut CMatrix, stamps: &AcStamps<'_>, freq_hz: f64) {
    for (a, b, y_of) in &stamps.stamps {
        let yp = y_of(freq_hz);
        let mut add = |i: Option<usize>, j: Option<usize>, v: Complex| match (i, j) {
            (Some(i), Some(j)) => y[(i, j)] += v,
            (Some(i), None) | (None, Some(i)) => {
                // Grounded side: the admittance to ground is already in the
                // diagonal terms of the other node; a grounded port of the
                // two-port simply drops its off-diagonals.
                let _ = i;
            }
            (None, None) => {}
        };
        add(*a, *a, yp.y11());
        add(*a, *b, yp.y12());
        add(*b, *a, yp.y21());
        add(*b, *b, yp.y22());
    }
}

/// A Y-matrix provider evaluated per frequency for one stamped two-port.
type YProvider<'a> = &'a dyn Fn(f64) -> YParams;

/// Extra linear two-ports to stamp at analysis time (node pair + Y-matrix
/// provider), used for linearized active devices.
#[derive(Default)]
pub struct AcStamps<'a> {
    stamps: Vec<(Option<usize>, Option<usize>, YProvider<'a>)>,
}

impl<'a> AcStamps<'a> {
    /// No extra stamps.
    pub fn none() -> Self {
        AcStamps::default()
    }

    /// Adds a grounded two-port between nodes `a` (port 1) and `b`
    /// (port 2), whose Y-parameters are produced per frequency.
    pub fn two_port(
        mut self,
        a: Option<usize>,
        b: Option<usize>,
        y_of: &'a dyn Fn(f64) -> YParams,
    ) -> Self {
        self.stamps.push((a, b, y_of));
        self
    }
}

/// Error from AC analysis.
#[derive(Debug, Clone, PartialEq)]
pub enum AcError {
    /// The circuit declares no ports.
    NoPorts,
    /// The reduced system is singular at the given frequency.
    Singular(f64),
    /// AC analysis requires `freq_hz > 0` (capacitor/inductor admittances
    /// degenerate at DC); an optimizer probing a degenerate band edge gets
    /// an `Err`, not a panic.
    NonPositiveFrequency(f64),
}

impl std::fmt::Display for AcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcError::NoPorts => write!(f, "circuit declares no ports"),
            AcError::Singular(freq) => write!(f, "singular AC system at {freq} Hz"),
            AcError::NonPositiveFrequency(freq) => {
                write!(
                    f,
                    "AC analysis requires a positive frequency, got {freq} Hz"
                )
            }
        }
    }
}

impl std::error::Error for AcError {}

/// Computes the N-port S-matrix of the circuit at `freq_hz`.
///
/// FET elements are ignored (stamp their linearization via `stamps`);
/// DC sources are AC shorts (V) and opens (I) respectively — a V source
/// node is tied to ground through a large conductance.
///
/// # Errors
///
/// See [`AcError`].
pub fn s_matrix(circuit: &Circuit, freq_hz: f64, stamps: &AcStamps<'_>) -> Result<NPort, AcError> {
    if circuit.ports().is_empty() {
        return Err(AcError::NoPorts);
    }
    if freq_hz <= 0.0 {
        return Err(AcError::NonPositiveFrequency(freq_hz));
    }
    // Deterministic fault hook, keyed by the frequency's bit pattern so an
    // armed plan fails the legacy path and `sweep_batch` identically at
    // the same grid points. Compiles out without `rfkit-faults`.
    if rfkit_robust::faults::inject("ac.solve", freq_hz.to_bits()).is_some() {
        return Err(AcError::Singular(freq_hz));
    }
    let watch = rfkit_obs::stopwatch();
    let n = circuit.n_nodes();
    let w = angular(freq_hz);
    let mut y = CMatrix::zeros(n, n);
    for e in &circuit.elements {
        match e {
            Element::Resistor { a, b, ohms } => {
                stamp_admittance(&mut y, *a, *b, Complex::real(1.0 / ohms));
            }
            Element::Capacitor { a, b, farads } => {
                stamp_admittance(&mut y, *a, *b, Complex::imag(w * farads));
            }
            Element::Inductor { a, b, henries } => {
                stamp_admittance(&mut y, *a, *b, Complex::imag(-1.0 / (w * henries)));
            }
            Element::VSource { plus, minus, .. } => {
                // AC ground between its terminals.
                stamp_admittance(&mut y, *plus, *minus, Complex::real(SHORT_SIEMENS));
            }
            Element::ISource { .. } => {
                // AC open.
            }
            Element::Fet { .. } => {
                // Linearization supplied externally via `stamps`.
            }
        }
    }
    apply_two_port_stamps(&mut y, stamps, freq_hz);

    // Reduce to port nodes and convert to S.
    let port_nodes: Vec<usize> = circuit.ports().iter().map(|p| p.node).collect();
    let z0 = circuit.ports()[0].z0;
    let internal: Vec<usize> = (0..n).filter(|i| !port_nodes.contains(i)).collect();
    let y_red = if internal.is_empty() {
        y.submatrix(&port_nodes, &port_nodes)
    } else {
        let ypp = y.submatrix(&port_nodes, &port_nodes);
        let ypi = y.submatrix(&port_nodes, &internal);
        let yip = y.submatrix(&internal, &port_nodes);
        let yii = y.submatrix(&internal, &internal);
        let solved = yii
            .solve_matrix(&yip)
            .map_err(|_| AcError::Singular(freq_hz))?;
        &ypp - &ypi.matmul(&solved).expect("dimensions chain")
    };
    let m = port_nodes.len();
    let id = CMatrix::identity(m);
    let yz = y_red.scaled(Complex::real(z0));
    let den = (&id + &yz)
        .inverse()
        .map_err(|_| AcError::Singular(freq_hz))?;
    let s = (&id - &yz).matmul(&den).expect("dimensions chain");
    if let Some(us) = watch.elapsed_us() {
        OBS_AC_SOLVE_US.record(us);
    }
    Ok(NPort::new(s, z0))
}

/// Convenience: the 2-port S-parameters of a circuit with exactly two
/// declared ports.
///
/// # Errors
///
/// [`AcError::NoPorts`] also covers the wrong port count here.
pub fn two_port_s(
    circuit: &Circuit,
    freq_hz: f64,
    stamps: &AcStamps<'_>,
) -> Result<SParams, AcError> {
    if circuit.ports().len() != 2 {
        return Err(AcError::NoPorts);
    }
    let np = s_matrix(circuit, freq_hz, stamps)?;
    np.to_two_port().map_err(|_| AcError::NoPorts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netlist::Circuit;
    use rfkit_device::smallsignal::NoiseTemperatures;
    use rfkit_device::Phemt;
    use rfkit_num::units::db_from_amplitude_ratio;

    #[test]
    fn series_resistor_two_port() {
        let mut c = Circuit::new();
        c.resistor("in", "out", 50.0)
            .port("in", 50.0)
            .port("out", 50.0);
        let s = two_port_s(&c, 1e9, &AcStamps::none()).unwrap();
        assert!((s.s11() - Complex::real(1.0 / 3.0)).abs() < 1e-9);
        assert!((s.s21() - Complex::real(2.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn lc_lowpass_has_cutoff() {
        // L-C lowpass: series 8 nH, shunt 3.2 pF → f_c ≈ 1 GHz.
        let mut c = Circuit::new();
        c.inductor("in", "out", 8e-9)
            .capacitor("out", "gnd", 3.2e-12)
            .port("in", 50.0)
            .port("out", 50.0);
        let s_low = two_port_s(&c, 0.2e9, &AcStamps::none()).unwrap();
        let s_high = two_port_s(&c, 5e9, &AcStamps::none()).unwrap();
        assert!(
            db_from_amplitude_ratio(s_low.s21().abs()) > -1.0,
            "passband loss"
        );
        assert!(
            db_from_amplitude_ratio(s_high.s21().abs()) < -15.0,
            "stopband rejection"
        );
    }

    #[test]
    fn internal_nodes_are_eliminated() {
        // Two cascaded 25 Ω resistors through an internal node behave as 50 Ω.
        let mut c = Circuit::new();
        c.resistor("in", "mid", 25.0)
            .resistor("mid", "out", 25.0)
            .port("in", 50.0)
            .port("out", 50.0);
        let s = two_port_s(&c, 1e9, &AcStamps::none()).unwrap();
        assert!((s.s11() - Complex::real(1.0 / 3.0)).abs() < 1e-9);
    }

    #[test]
    fn vsource_is_ac_ground() {
        // A shunt branch to a DC supply rail suppresses transmission like a
        // shunt to ground.
        let mut c1 = Circuit::new();
        c1.capacitor("in", "gnd", 10e-12).resistor("in", "out", 1.0);
        c1.port("in", 50.0).port("out", 50.0);
        let mut c2 = Circuit::new();
        c2.vsource("vdd", "gnd", 3.0)
            .capacitor("in", "vdd", 10e-12)
            .resistor("in", "out", 1.0);
        c2.port("in", 50.0).port("out", 50.0);
        let s1 = two_port_s(&c1, 2e9, &AcStamps::none()).unwrap();
        let s2 = two_port_s(&c2, 2e9, &AcStamps::none()).unwrap();
        assert!((s1.s21() - s2.s21()).abs() < 1e-3);
    }

    #[test]
    fn matches_cascade_analysis_for_l_match() {
        // Compare the MNA result with the analytic ABCD cascade for a
        // series-L shunt-C matching section.
        use rfkit_net::Abcd;
        let f = 1.575e9;
        let w = rfkit_num::units::angular(f);
        let l = 4.7e-9;
        let cpar = 1.8e-12;
        let mut c = Circuit::new();
        c.inductor("in", "out", l)
            .capacitor("out", "gnd", cpar)
            .port("in", 50.0)
            .port("out", 50.0);
        let s_mna = two_port_s(&c, f, &AcStamps::none()).unwrap();
        let s_ref = Abcd::series_impedance(Complex::imag(w * l))
            .cascade(&Abcd::shunt_admittance(Complex::imag(w * cpar)))
            .to_s(50.0)
            .unwrap();
        assert!((s_mna.s11() - s_ref.s11()).abs() < 1e-9);
        assert!((s_mna.s21() - s_ref.s21()).abs() < 1e-9);
        assert!((s_mna.s22() - s_ref.s22()).abs() < 1e-9);
    }

    #[test]
    fn fet_stamp_produces_gain() {
        // Stamp a linearized pHEMT between the ports: the AC solve must
        // reproduce the device's own S-parameters.
        let d = Phemt::atf54143_like();
        let op = d.operating_point(d.bias_for_current(3.0, 0.06).unwrap(), 3.0);
        let ss = d.small_signal(&op);
        let y_of = move |f: f64| {
            ss.noisy_two_port(f, &NoiseTemperatures::default())
                .abcd
                .to_y()
                .expect("device Y form")
        };
        let mut c = Circuit::new();
        let g = c.node("g");
        let dn = c.node("d");
        c.port("g", 50.0).port("d", 50.0);
        let stamps = AcStamps::none().two_port(g, dn, &y_of);
        let s = two_port_s(&c, 1.575e9, &stamps).unwrap();
        let s_ref = ss.s_params(1.575e9, 50.0);
        assert!(
            (s.s21() - s_ref.s21()).abs() < 1e-6,
            "{} vs {}",
            s.s21(),
            s_ref.s21()
        );
        assert!((s.s11() - s_ref.s11()).abs() < 1e-6);
    }

    #[test]
    fn non_positive_frequency_is_an_error() {
        // Regression: this used to be an assert!-panic, which crashed
        // optimizers probing a degenerate band edge.
        let mut c = Circuit::new();
        c.resistor("in", "out", 50.0)
            .port("in", 50.0)
            .port("out", 50.0);
        assert_eq!(
            s_matrix(&c, 0.0, &AcStamps::none()).unwrap_err(),
            AcError::NonPositiveFrequency(0.0)
        );
        assert_eq!(
            two_port_s(&c, -1e9, &AcStamps::none()).unwrap_err(),
            AcError::NonPositiveFrequency(-1e9)
        );
    }

    #[test]
    fn no_ports_is_an_error() {
        let mut c = Circuit::new();
        c.resistor("a", "b", 10.0);
        assert!(matches!(
            s_matrix(&c, 1e9, &AcStamps::none()),
            Err(AcError::NoPorts)
        ));
    }

    #[test]
    fn three_port_splitter_via_mna() {
        // Star of three 16.67 Ω resistors = matched resistive splitter.
        let mut c = Circuit::new();
        let r = 50.0 / 3.0;
        c.resistor("p1", "center", r)
            .resistor("p2", "center", r)
            .resistor("p3", "center", r)
            .port("p1", 50.0)
            .port("p2", 50.0)
            .port("p3", 50.0);
        let np = s_matrix(&c, 1e9, &AcStamps::none()).unwrap();
        assert_eq!(np.n_ports(), 3);
        assert!(np.s(0, 0).unwrap().abs() < 1e-9);
        assert!((np.s(1, 0).unwrap().abs() - 0.5).abs() < 1e-9);
    }
}
