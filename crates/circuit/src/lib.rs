//! # rfkit-circuit
//!
//! Netlist-level circuit simulation for the GNSS LNA reproduction:
//!
//! * a named-node netlist with R/L/C, DC sources and a nonlinear FET
//!   ([`netlist`](crate::Circuit));
//! * DC operating-point analysis by damped Newton–Raphson on the MNA
//!   equations ([`dc`]);
//! * AC S-parameter analysis with internal-node elimination and external
//!   linearized-device stamps ([`ac`]);
//! * two-tone third-order intermodulation analysis, by power series and by
//!   full nonlinear time-domain simulation + FFT ([`twotone`]);
//! * single-tone harmonic balance with arbitrary per-harmonic loads —
//!   compression, harmonic distortion and bias shift of the *loaded*
//!   stage ([`hb`]).
//!
//! ## Example: bias network plus device
//!
//! ```
//! use rfkit_circuit::{solve_dc, Circuit};
//! use rfkit_device::dc::{Angelov, DcModel as _};
//!
//! let mut c = Circuit::new();
//! c.vsource("vdd", "gnd", 5.0)
//!     .resistor("vdd", "drain", 33.0)
//!     .vsource("vg", "gnd", -0.3)
//!     .fet("vg", "drain", "gnd", Box::new(Angelov), Angelov.default_params());
//! let sol = solve_dc(&c)?;
//! assert!(sol.fet_currents[0] > 0.0);
//! # Ok::<(), rfkit_circuit::SolveError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ac;
pub mod dc;
pub mod hb;
mod netlist;
pub mod plan;
pub mod sweep;
pub mod twotone;

pub use ac::{s_matrix, two_port_s, AcError, AcStamps};
pub use dc::{solve_dc, DcSolution, SolveError, SolveStage};
pub use hb::{compression_sweep, HbError, HbSolution, HbTestbench};
pub use netlist::{Circuit, Element, NodeId, Port};
pub use plan::{AcWorkspace, StampPlan};
pub use sweep::{shared_plan, shared_plan_cache, SweepBatch, DEFAULT_PLAN_CACHE_CAPACITY};
pub use twotone::{
    ip3_sweep, p1db, power_series, single_tone, time_domain, Ip3Sweep, TwoToneResult, TwoToneSpec,
};
