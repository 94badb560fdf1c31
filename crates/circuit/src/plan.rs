//! Compiled AC path: per-topology stamp plans and reusable solve
//! workspaces.
//!
//! [`s_matrix`](crate::ac::s_matrix) re-walks the netlist, recomputes the
//! port/internal index partition and allocates every intermediate matrix at
//! *every* frequency point. For a band sweep over one topology that work is
//! identical at each point except for the frequency-scaled stamps, so this
//! module compiles the netlist once into a [`StampPlan`]:
//!
//! * node count, port nodes and the internal-node partition are resolved at
//!   compile time;
//! * the frequency-independent part **G** (resistors, V-source AC shorts)
//!   is pre-stamped into a matrix that is *copied* per frequency;
//! * the frequency-scaled part **B(ω)** (capacitors, inductors) is kept as
//!   a compact slot list applied in place on top of the copy.
//!
//! A plan is solved through [`StampPlan::sweep_batch`], which
//! per frequency copies G, applies B(ω) and the external device stamps, and
//! solves entirely inside an [`AcWorkspace`] — zero matrix allocations
//! after the first (warm-up) point.
//!
//! The assembled matrix equals the legacy one bit for bit: the stamp
//! kernels are shared code (see [`ac`](crate::ac)), and splitting assembly
//! into G then B(ω) cannot change any sum because resistor/V-source
//! admittances are purely real while capacitor/inductor admittances are
//! purely imaginary — complex addition is componentwise, so each matrix
//! entry's real and imaginary parts still accumulate in element order
//! within their component. The solve that follows runs the legacy kernels
//! in the legacy order (one pivoted LU of the internal block, then the S
//! conversion), so the S-matrix is bit-identical too.

use crate::ac::{apply_two_port_stamps, stamp_admittance, AcError, AcStamps, SHORT_SIEMENS};
use crate::netlist::{Circuit, Element};
use rfkit_num::units::angular;
use rfkit_num::{CMatrix, Complex, LuWorkspace};

/// One frequency-scaled stamp slot: the element value with its admittance
/// law, `jωC` or `-j/(ωL)`.
#[derive(Debug, Clone, Copy)]
enum BLaw {
    /// Capacitance in farads: admittance `jωC`.
    Cap(f64),
    /// Inductance in henries: admittance `-j/(ωL)`.
    Ind(f64),
}

/// A compiled reactive stamp: resolved node pair plus admittance law.
#[derive(Debug, Clone, Copy)]
struct BStamp {
    a: Option<usize>,
    b: Option<usize>,
    law: BLaw,
}

/// A netlist compiled for repeated AC solves over one topology.
///
/// Compile once with [`StampPlan::compile`], then sweep with
/// [`StampPlan::sweep_batch`] and a reusable [`AcWorkspace`]. Results equal
/// [`crate::ac::s_matrix`]'s bit for bit.
#[derive(Debug, Clone)]
pub struct StampPlan {
    /// Total node count (matrix dimension before reduction).
    pub(crate) n: usize,
    /// Port node indices in declaration order.
    pub(crate) port_nodes: Vec<usize>,
    /// Non-port node indices, ascending (eliminated by Schur complement).
    pub(crate) internal: Vec<usize>,
    /// Reference impedance shared by all ports.
    pub(crate) z0: f64,
    /// Frequency-independent admittance part (R stamps, V-source shorts),
    /// pre-accumulated in element order.
    g: CMatrix,
    /// Frequency-scaled stamp slots (C and L interleaved in element order,
    /// preserving the legacy accumulation order within the imaginary
    /// component).
    b_stamps: Vec<BStamp>,
}

impl StampPlan {
    /// Compiles the netlist: resolves the port/internal partition, stamps G
    /// and collects the reactive slot list.
    ///
    /// # Errors
    ///
    /// [`AcError::NoPorts`] when the circuit declares no ports.
    pub fn compile(circuit: &Circuit) -> Result<StampPlan, AcError> {
        if circuit.ports().is_empty() {
            return Err(AcError::NoPorts);
        }
        let n = circuit.n_nodes();
        let port_nodes: Vec<usize> = circuit.ports().iter().map(|p| p.node).collect();
        let z0 = circuit.ports()[0].z0;
        let internal: Vec<usize> = (0..n).filter(|i| !port_nodes.contains(i)).collect();
        let mut g = CMatrix::zeros(n, n);
        let mut b_stamps = Vec::new();
        for e in &circuit.elements {
            match e {
                Element::Resistor { a, b, ohms } => {
                    stamp_admittance(&mut g, *a, *b, Complex::real(1.0 / ohms));
                }
                Element::Capacitor { a, b, farads } => {
                    b_stamps.push(BStamp {
                        a: *a,
                        b: *b,
                        law: BLaw::Cap(*farads),
                    });
                }
                Element::Inductor { a, b, henries } => {
                    b_stamps.push(BStamp {
                        a: *a,
                        b: *b,
                        law: BLaw::Ind(*henries),
                    });
                }
                Element::VSource { plus, minus, .. } => {
                    // AC ground between its terminals.
                    stamp_admittance(&mut g, *plus, *minus, Complex::real(SHORT_SIEMENS));
                }
                Element::ISource { .. } => {
                    // AC open.
                }
                Element::Fet { .. } => {
                    // Linearization supplied externally via `stamps`.
                }
            }
        }
        Ok(StampPlan {
            n,
            port_nodes,
            internal,
            z0,
            g,
            b_stamps,
        })
    }

    /// Assembles the full Y matrix at `freq_hz` into `ws.y`: copy G, apply
    /// B(ω) in place, then the external device stamps.
    pub(crate) fn assemble_into(&self, freq_hz: f64, stamps: &AcStamps<'_>, ws: &mut AcWorkspace) {
        let w = angular(freq_hz);
        ws.y.copy_from(&self.g);
        for s in &self.b_stamps {
            let adm = match s.law {
                BLaw::Cap(farads) => Complex::imag(w * farads),
                BLaw::Ind(henries) => Complex::imag(-1.0 / (w * henries)),
            };
            stamp_admittance(&mut ws.y, s.a, s.b, adm);
        }
        apply_two_port_stamps(&mut ws.y, stamps, freq_hz);
    }

    /// S conversion from `ws.yred`: S = (I - z0·Y)(I + z0·Y)⁻¹, inverse
    /// realized as a multi-RHS solve against the identity in workspace
    /// storage (same column-by-column arithmetic as `Matrix::inverse`).
    /// Leaves the result in `ws.smat`.
    pub(crate) fn s_convert(&self, freq_hz: f64, ws: &mut AcWorkspace) -> Result<(), AcError> {
        let m = self.port_nodes.len();
        if ws.id.rows() != m {
            // The identity RHS is constant per dimension; rebuild only on
            // a warm-up, not per frequency.
            ws.id.reset_identity(m);
        }
        ws.yred.scaled_into(Complex::real(self.z0), &mut ws.yz);
        ws.id.add_into(&ws.yz, &mut ws.apb);
        ws.apb
            .lu_into(&mut ws.lu)
            .map_err(|_| AcError::Singular(freq_hz))?;
        ws.lu
            .solve_matrix_into(&ws.id, &mut ws.den, &mut ws.x)
            .map_err(|_| AcError::Singular(freq_hz))?;
        ws.id.sub_into(&ws.yz, &mut ws.amb);
        ws.amb
            .matmul_into(&ws.den, &mut ws.smat)
            .expect("dimensions chain");
        Ok(())
    }
}

/// Reusable scratch storage for [`StampPlan`] solves.
///
/// All intermediate matrices and the LU workspace live here, so a band
/// sweep re-solving one plan performs zero matrix allocations after the
/// first frequency point. The warm-up/reuse counters act as an
/// allocation proxy: a sweep of `k` points over one topology must report
/// `warmup_count() == 1` and `reuse_count() == k - 1`.
///
/// A workspace may be shared across plans of different sizes; changing
/// dimensions just triggers another warm-up.
#[derive(Debug, Clone, Default)]
pub struct AcWorkspace {
    pub(crate) y: CMatrix,
    pub(crate) ypp: CMatrix,
    pub(crate) ypi: CMatrix,
    pub(crate) yip: CMatrix,
    pub(crate) yii: CMatrix,
    pub(crate) solved: CMatrix,
    pub(crate) prod: CMatrix,
    pub(crate) yred: CMatrix,
    pub(crate) id: CMatrix,
    pub(crate) yz: CMatrix,
    pub(crate) apb: CMatrix,
    pub(crate) amb: CMatrix,
    pub(crate) den: CMatrix,
    pub(crate) smat: CMatrix,
    pub(crate) lu: LuWorkspace<Complex>,
    pub(crate) x: Vec<Complex>,
    dims: (usize, usize),
    warmups: u64,
    reuses: u64,
}

impl AcWorkspace {
    /// Creates an empty workspace; buffers grow on the first solve.
    pub fn new() -> Self {
        AcWorkspace::default()
    }

    /// Number of solves that had to size buffers (first use or a dimension
    /// change). A single-topology sweep warms up exactly once.
    pub fn warmup_count(&self) -> u64 {
        self.warmups
    }

    /// Number of solves that reused existing buffer sizes (the
    /// allocation-free fast case).
    pub fn reuse_count(&self) -> u64 {
        self.reuses
    }

    pub(crate) fn track_dims(&mut self, n: usize, m: usize) {
        if self.dims == (n, m) {
            self.reuses += 1;
        } else {
            self.dims = (n, m);
            self.warmups += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::s_matrix;

    fn ladder() -> Circuit {
        let mut c = Circuit::new();
        c.inductor("in", "mid", 6.8e-9)
            .capacitor("mid", "gnd", 1.2e-12)
            .resistor("mid", "out", 12.0)
            .inductor("out", "gnd", 10e-9)
            .port("in", 50.0)
            .port("out", 50.0);
        c
    }

    #[test]
    fn workspace_counts_one_warmup_per_topology() {
        let c = ladder();
        let plan = StampPlan::compile(&c).unwrap();
        let mut ws = AcWorkspace::new();
        let freqs: Vec<f64> = (1..=32).map(|i| 1.0e9 + 0.025e9 * i as f64).collect();
        plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        assert_eq!(ws.warmup_count(), 1);
        assert_eq!(ws.reuse_count(), 31);
    }

    #[test]
    fn plan_error_parity_with_legacy() {
        let mut no_ports = Circuit::new();
        no_ports.resistor("a", "b", 10.0);
        assert_eq!(
            StampPlan::compile(&no_ports).unwrap_err(),
            s_matrix(&no_ports, 1e9, &AcStamps::none()).unwrap_err()
        );
    }
}
