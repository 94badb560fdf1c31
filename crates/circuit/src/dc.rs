//! DC operating-point analysis by Newton–Raphson on the MNA equations,
//! hardened by a deterministic fallback ladder.
//!
//! Unknowns are the node voltages plus one branch current per voltage
//! source and per inductor (inductors are DC shorts). The nonlinear FET is
//! handled with the usual companion model: at each iteration it is replaced
//! by `gm`, `gds` conductances plus an equivalent current source, which is
//! exactly a Newton step on the nodal equations.
//!
//! ## Fallback ladder
//!
//! [`solve_dc`] escalates through four independent rungs until one
//! converges (see `rfkit-robust` and DESIGN.md § Robustness):
//!
//! 1. **plain Newton** — full steps; cheapest, converges on mildly
//!    nonlinear bias networks;
//! 2. **damped Newton** — backtracking line search, the workhorse;
//! 3. **gmin-stepping** — an artificial conductance from every node to
//!    ground starts at 1e-2 S and relaxes in decades, dragging the
//!    solution along a continuation path (SPICE2 lineage);
//! 4. **source-stepping** — every independent source ramps from a small
//!    fraction to 100 %, again continuing from level to level.
//!
//! Every rung restarts from the zero iterate, so the reported solution is
//! a pure function of (circuit, first rung that succeeds) and the whole
//! ladder is bit-reproducible. Each rung has a fixed Newton-iteration
//! budget: 50 plain, 200 damped, 80 per homotopy level, so a full ladder
//! spends at most 1,450 iterations. Failures carry provenance
//! ([`SolveError`]).

use crate::netlist::{Circuit, Element};
use rfkit_device::dc::{gds as fet_gds, gm as fet_gm};
use rfkit_num::RMatrix;
use rfkit_robust::faults::{self, FaultKind};
pub use rfkit_robust::{SolveError, SolveStage};
use std::collections::BTreeMap;

// Solver telemetry (runtime-gated, write-only; see rfkit-obs).
static OBS_DC_SOLVES: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.dc.solves");
static OBS_DC_ITERS: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.dc.iters");
static OBS_DC_RETRIES: rfkit_obs::Counter = rfkit_obs::Counter::new("dc.retry.attempts");
static OBS_DC_STAGE: rfkit_obs::Hist = rfkit_obs::Hist::new("dc.fallback.stage");

/// Residual norm at which the iteration is converged.
const CONVERGED_NORM: f64 = 1e-12;
/// Looser acceptance when a rung exhausts its budget close to a root
/// (matches the historical solver's behavior on stiff FET bias points).
const NEAR_CONVERGED_NORM: f64 = 1e-6;
/// Iteration budget of the plain-Newton rung.
const PLAIN_ITERS: usize = 50;
/// Iteration budget of the damped-Newton rung.
const DAMPED_ITERS: usize = 200;
/// Iteration budget of each homotopy level (gmin decade or source
/// fraction).
const HOMOTOPY_ITERS: usize = 80;
/// Gmin levels stepped from 1e-2 S down, in double decades, before the
/// exact final solve.
const GMIN_STEPS: usize = 6;
/// Source-ramp levels (the last level is exactly 100 %).
const SOURCE_STEPS: usize = 8;
/// Step size below which the iteration has stopped moving.
const STAGNATION_STEP: f64 = 1e-14;
/// A stalled iterate only counts as converged below this residual;
/// stalling far from a root is reported as stagnation, not success.
const STAGNATION_NORM: f64 = 1e-9;

/// Result of a DC solve.
#[derive(Debug, Clone, PartialEq)]
pub struct DcSolution {
    /// Node voltages indexed by [`crate::netlist::NodeId`].
    pub voltages: Vec<f64>,
    /// Drain current of each FET, in element order.
    pub fet_currents: Vec<f64>,
    /// Newton iterations used, summed over every ladder rung attempted.
    pub iterations: usize,
    /// The fallback-ladder rung that produced the solution.
    pub stage: SolveStage,
    /// Ladder rungs attempted (1 = first try succeeded).
    pub attempts: usize,
}

impl DcSolution {
    /// Voltage of a node id (0 V for ground/`None`).
    pub fn voltage(&self, node: Option<usize>) -> f64 {
        node.map_or(0.0, |n| self.voltages[n])
    }
}

/// Solves the DC operating point, escalating through the fallback ladder
/// and reporting structured provenance on failure. The error of the last
/// rung is returned when no rung converges.
///
/// # Errors
///
/// * [`SolveError::SingularSystem`] — the last rung's linearized MNA
///   matrix was singular;
/// * [`SolveError::NonConvergence`] — the last rung ran out of iterations,
///   stagnated away from a root or saw a non-finite residual.
pub fn solve_dc(circuit: &Circuit) -> Result<DcSolution, SolveError> {
    let n = circuit.n_nodes();
    // Assign extra unknowns (branch currents) to V sources and inductors.
    // Keyed by element index in a sorted map so any future traversal is
    // element-ordered; MNA stamping must never depend on a hasher seed.
    let mut branch_of: BTreeMap<usize, usize> = BTreeMap::new();
    let mut n_branches = 0;
    for (k, e) in circuit.elements.iter().enumerate() {
        if matches!(e, Element::VSource { .. } | Element::Inductor { .. }) {
            branch_of.insert(k, n + n_branches);
            n_branches += 1;
        }
    }
    let dim = n + n_branches;
    if dim == 0 {
        return Ok(DcSolution {
            voltages: Vec::new(),
            fet_currents: Vec::new(),
            iterations: 0,
            stage: SolveStage::PlainNewton,
            attempts: 1,
        });
    }

    let sys = System {
        circuit,
        n,
        branch_of: &branch_of,
        dim,
    };
    let mut used = 0usize;
    let mut last_err: Option<SolveError> = None;
    for (attempt, &stage) in SolveStage::LADDER.iter().enumerate() {
        if attempt > 0 {
            OBS_DC_RETRIES.add(1);
        }
        match run_stage(&sys, stage, &mut used) {
            Ok(x) => {
                if rfkit_obs::enabled() {
                    OBS_DC_STAGE.record(stage.index() as u64);
                }
                return Ok(finish(circuit, x, used, stage, attempt + 1));
            }
            Err(e) => last_err = Some(e),
        }
    }
    let err = last_err.expect("ladder has at least one rung");
    emit_failure(&err);
    Err(err)
}

fn emit_failure(err: &SolveError) {
    if rfkit_obs::enabled() {
        rfkit_obs::event(
            "circuit.dc.no_convergence",
            &[
                ("residual", err.residual().unwrap_or(f64::NAN)),
                ("stage", err.stage().index() as f64),
                ("iterations", err.iterations() as f64),
            ],
        );
    }
}

/// The MNA system being solved: circuit plus unknown layout.
struct System<'a> {
    circuit: &'a Circuit,
    n: usize,
    branch_of: &'a BTreeMap<usize, usize>,
    dim: usize,
}

/// Runs one ladder rung from the zero iterate; returns the solved
/// unknown vector.
fn run_stage(
    sys: &System<'_>,
    stage: SolveStage,
    used: &mut usize,
) -> Result<Vec<f64>, SolveError> {
    let mut x = vec![0.0; sys.dim];
    match stage {
        SolveStage::PlainNewton => {
            newton_run(
                sys,
                &mut x,
                stage,
                "dc.newton.plain",
                false,
                0.0,
                1.0,
                PLAIN_ITERS,
                used,
            )?;
        }
        SolveStage::DampedNewton => {
            newton_run(
                sys,
                &mut x,
                stage,
                "dc.newton.damped",
                true,
                0.0,
                1.0,
                DAMPED_ITERS,
                used,
            )?;
        }
        SolveStage::GminStepping => {
            // Continuation in the artificial node conductance: 1e-2 S down
            // in double decades, then one exact solve with the extra gmin
            // removed (the baseline 1e-15 S of `assemble` always remains,
            // so the final system is identical to the direct rungs').
            let mut gmin = 1e-2;
            for _ in 0..GMIN_STEPS {
                newton_run(
                    sys,
                    &mut x,
                    stage,
                    "dc.gmin",
                    true,
                    gmin,
                    1.0,
                    HOMOTOPY_ITERS,
                    used,
                )?;
                gmin *= 1e-2;
            }
            newton_run(
                sys,
                &mut x,
                stage,
                "dc.gmin",
                true,
                0.0,
                1.0,
                HOMOTOPY_ITERS,
                used,
            )?;
        }
        SolveStage::SourceStepping => {
            // Continuation in the source scale: ramp every V/I source to
            // 100 % in equal fractions; the final level is exactly 1.0.
            for s in 1..=SOURCE_STEPS {
                let alpha = s as f64 / SOURCE_STEPS as f64;
                newton_run(
                    sys,
                    &mut x,
                    stage,
                    "dc.source",
                    true,
                    0.0,
                    alpha,
                    HOMOTOPY_ITERS,
                    used,
                )?;
            }
        }
    }
    Ok(x)
}

/// The Newton iteration shared by every rung. Iterates `x` in place until
/// the residual converges; `damped` enables the backtracking line search.
/// `gmin_extra` and `src_scale` are the homotopy knobs (0.0 / 1.0 for the
/// direct rungs). Returns `Ok(())` with `x` at the solution.
#[allow(clippy::too_many_arguments)]
fn newton_run(
    sys: &System<'_>,
    x: &mut Vec<f64>,
    stage: SolveStage,
    site: &'static str,
    damped: bool,
    gmin_extra: f64,
    src_scale: f64,
    max_iters: usize,
    used: &mut usize,
) -> Result<(), SolveError> {
    let norm_of = |r: &[f64]| -> f64 { r.iter().map(|v| v * v).sum::<f64>().sqrt() };
    for iteration in 1..=max_iters {
        *used += 1;
        let (jac, residual) = assemble(sys, x, gmin_extra, src_scale);
        let mut norm = norm_of(&residual);
        // Deterministic fault hook: keyed by the in-rung iteration number,
        // so an armed plan fires at the same logical place at any thread
        // count. Compiles to nothing without `rfkit-faults`.
        match faults::inject(site, iteration as u64) {
            Some(FaultKind::SingularLu) => {
                return Err(SolveError::SingularSystem {
                    stage,
                    iterations: *used,
                });
            }
            Some(FaultKind::NanResidual) => norm = f64::NAN,
            Some(FaultKind::Stagnate) | Some(FaultKind::PointFailure) => {
                return Err(SolveError::NonConvergence {
                    stage,
                    iterations: *used,
                    residual: norm,
                });
            }
            None => {}
        }
        if !norm.is_finite() {
            return Err(SolveError::NonConvergence {
                stage,
                iterations: *used,
                residual: norm,
            });
        }
        if norm < CONVERGED_NORM {
            return Ok(());
        }
        let rhs: Vec<f64> = residual.iter().map(|r| -r).collect();
        let delta = jac.solve(&rhs).map_err(|_| SolveError::SingularSystem {
            stage,
            iterations: *used,
        })?;
        let max_step = delta.iter().fold(0.0f64, |m, d| m.max(d.abs()));
        if max_step < STAGNATION_STEP {
            // The step collapsed. Near a root that is convergence; far
            // from one it is stagnation and the rung must report it
            // rather than hand back a bogus "solution".
            if norm < STAGNATION_NORM {
                return Ok(());
            }
            return Err(SolveError::NonConvergence {
                stage,
                iterations: *used,
                residual: norm,
            });
        }
        if damped {
            // Backtracking line search: take the full Newton step when it
            // reduces the residual (always, for linear circuits); halve it
            // otherwise so the FET equations cannot overshoot.
            let mut damp = 1.0;
            for _ in 0..30 {
                let trial: Vec<f64> = x
                    .iter()
                    .zip(&delta)
                    .map(|(xi, di)| xi + damp * di)
                    .collect();
                let (_, r_trial) = assemble(sys, &trial, gmin_extra, src_scale);
                if norm_of(&r_trial) < norm || damp < 1e-6 {
                    *x = trial;
                    break;
                }
                damp *= 0.5;
            }
        } else {
            for (xi, di) in x.iter_mut().zip(&delta) {
                *xi += di;
            }
        }
    }
    // Budget spent: accept a near-converged iterate, else report.
    let (_, residual) = assemble(sys, x, gmin_extra, src_scale);
    let norm = norm_of(&residual);
    if norm < NEAR_CONVERGED_NORM {
        return Ok(());
    }
    Err(SolveError::NonConvergence {
        stage,
        iterations: *used,
        residual: norm,
    })
}

/// Builds the Jacobian and residual of the MNA system at iterate `x`.
/// `gmin_extra` adds an artificial conductance from every node to ground
/// (gmin-stepping); `src_scale` scales every independent source
/// (source-stepping). The direct rungs use `0.0` / `1.0`, which makes the
/// system identical to the historical single-loop solver's.
fn assemble(sys: &System<'_>, x: &[f64], gmin_extra: f64, src_scale: f64) -> (RMatrix, Vec<f64>) {
    let System {
        circuit,
        n,
        branch_of,
        dim,
    } = *sys;
    let v = |node: Option<usize>| -> f64 { node.map_or(0.0, |k| x[k]) };
    let mut jac = RMatrix::zeros(dim, dim);
    let mut res = vec![0.0; dim];
    let stamp_j = |row: Option<usize>, col: Option<usize>, val: f64, jac: &mut RMatrix| {
        if let (Some(r), Some(c)) = (row, col) {
            jac[(r, c)] += val;
        }
    };
    let add_res = |row: Option<usize>, val: f64, res: &mut Vec<f64>| {
        if let Some(r) = row {
            res[r] += val;
        }
    };

    for (k, e) in circuit.elements.iter().enumerate() {
        match e {
            Element::Resistor { a, b, ohms } => {
                let g = 1.0 / ohms;
                let i = g * (v(*a) - v(*b));
                add_res(*a, i, &mut res);
                add_res(*b, -i, &mut res);
                stamp_j(*a, *a, g, &mut jac);
                stamp_j(*b, *b, g, &mut jac);
                stamp_j(*a, *b, -g, &mut jac);
                stamp_j(*b, *a, -g, &mut jac);
            }
            Element::Capacitor { .. } => {
                // Open at DC.
            }
            Element::Inductor { a, b, .. } => {
                // DC short: v(a) − v(b) = 0, current is an unknown.
                let br = branch_of[&k];
                let i_l = x[br];
                add_res(*a, i_l, &mut res);
                add_res(*b, -i_l, &mut res);
                stamp_j(*a, Some(br), 1.0, &mut jac);
                stamp_j(*b, Some(br), -1.0, &mut jac);
                res[br] += v(*a) - v(*b);
                stamp_j(Some(br), *a, 1.0, &mut jac);
                stamp_j(Some(br), *b, -1.0, &mut jac);
            }
            Element::VSource { plus, minus, volts } => {
                let br = branch_of[&k];
                let i_v = x[br];
                add_res(*plus, i_v, &mut res);
                add_res(*minus, -i_v, &mut res);
                stamp_j(*plus, Some(br), 1.0, &mut jac);
                stamp_j(*minus, Some(br), -1.0, &mut jac);
                res[br] += v(*plus) - v(*minus) - volts * src_scale;
                stamp_j(Some(br), *plus, 1.0, &mut jac);
                stamp_j(Some(br), *minus, -1.0, &mut jac);
            }
            Element::ISource { from, to, amps } => {
                add_res(*from, *amps * src_scale, &mut res);
                add_res(*to, -*amps * src_scale, &mut res);
            }
            Element::Fet {
                gate,
                drain,
                source,
                model,
                params,
            } => {
                let vgs = v(*gate) - v(*source);
                let vds = v(*drain) - v(*source);
                let ids = model.ids(params, vgs, vds.max(0.0));
                let g_m = fet_gm(model.as_ref(), params, vgs, vds.max(0.0));
                let g_ds = fet_gds(model.as_ref(), params, vgs, vds.max(0.0));
                // Drain current flows drain → source.
                add_res(*drain, ids, &mut res);
                add_res(*source, -ids, &mut res);
                // ∂Ids/∂Vg = gm, ∂Ids/∂Vd = gds, ∂Ids/∂Vs = −(gm + gds).
                stamp_j(*drain, *gate, g_m, &mut jac);
                stamp_j(*drain, *drain, g_ds, &mut jac);
                stamp_j(*drain, *source, -(g_m + g_ds), &mut jac);
                stamp_j(*source, *gate, -g_m, &mut jac);
                stamp_j(*source, *drain, -g_ds, &mut jac);
                stamp_j(*source, *source, g_m + g_ds, &mut jac);
            }
        }
    }
    // A tiny conductance from every node to ground keeps purely capacitive
    // nodes from floating at DC (small enough not to disturb mA-level
    // solutions beyond double precision). Gmin-stepping piles its
    // artificial conductance on top and relaxes it back to exactly this
    // baseline.
    let gmin = 1e-15 + gmin_extra;
    for k in 0..n {
        jac[(k, k)] += gmin;
        res[k] += gmin * x[k];
    }
    (jac, res)
}

fn finish(
    circuit: &Circuit,
    x: Vec<f64>,
    iterations: usize,
    stage: SolveStage,
    attempts: usize,
) -> DcSolution {
    if rfkit_obs::enabled() {
        OBS_DC_SOLVES.add(1);
        OBS_DC_ITERS.record(iterations as u64);
    }
    let v = |node: Option<usize>| -> f64 { node.map_or(0.0, |k| x[k]) };
    let fet_currents = circuit
        .elements
        .iter()
        .filter_map(|e| match e {
            Element::Fet {
                gate,
                drain,
                source,
                model,
                params,
            } => Some(model.ids(
                params,
                v(*gate) - v(*source),
                (v(*drain) - v(*source)).max(0.0),
            )),
            _ => None,
        })
        .collect();
    DcSolution {
        voltages: x[..circuit.n_nodes()].to_vec(),
        fet_currents,
        iterations,
        stage,
        attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_device::dc::{Angelov, DcModel};
    use rfkit_device::Phemt;

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        c.vsource("vin", "gnd", 10.0)
            .resistor("vin", "mid", 1000.0)
            .resistor("mid", "gnd", 1000.0);
        let mid = c.node("mid").unwrap();
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltages[mid] - 5.0).abs() < 1e-9);
        // A linear circuit is plain-Newton territory: first rung, done.
        assert_eq!(sol.stage, SolveStage::PlainNewton);
        assert_eq!(sol.attempts, 1);
    }

    #[test]
    fn current_source_into_resistor() {
        let mut c = Circuit::new();
        c.isource("gnd", "out", 2e-3).resistor("out", "gnd", 1000.0);
        let out = c.node("out").unwrap();
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltages[out] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        c.vsource("vin", "gnd", 5.0)
            .inductor("vin", "out", 10e-9)
            .resistor("out", "gnd", 100.0);
        let out = c.node("out").unwrap();
        let sol = solve_dc(&c).unwrap();
        assert!((sol.voltages[out] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut c = Circuit::new();
        c.vsource("vin", "gnd", 5.0)
            .resistor("vin", "out", 1000.0)
            .capacitor("out", "gnd", 1e-9);
        let out = c.node("out").unwrap();
        let sol = solve_dc(&c).unwrap();
        // No DC path: the node floats to the source voltage through R.
        assert!((sol.voltages[out] - 5.0).abs() < 1e-6);
    }

    #[test]
    fn fet_with_drain_resistor_biases_correctly() {
        // Vdd = 5 V through 33 Ω into the drain; gate driven at a fixed Vgs.
        let model = Angelov;
        let params = model.default_params();
        let vgs_set = -0.3;
        let mut c = Circuit::new();
        c.vsource("vdd", "gnd", 5.0)
            .vsource("vg", "gnd", vgs_set)
            .resistor("vdd", "drain", 33.0)
            .fet("vg", "drain", "gnd", Box::new(Angelov), params.clone());
        let drain = c.node("drain").unwrap();
        let sol = solve_dc(&c).unwrap();
        let vds = sol.voltages[drain];
        let ids = sol.fet_currents[0];
        // KVL: Vdd − Ids·RD = Vds, and Ids = model(vgs, vds).
        assert!((5.0 - ids * 33.0 - vds).abs() < 1e-6, "KVL violated");
        let expect = model.ids(&params, vgs_set, vds);
        assert!((ids - expect).abs() < 1e-9, "device equation violated");
        assert!(ids > 0.01 && ids < 0.2, "Ids = {ids}");
    }

    #[test]
    fn self_biased_fet_with_source_resistor() {
        // Classic self-bias: gate grounded through a resistor (no current →
        // Vg = 0), source resistor raises Vs, so Vgs = −Ids·Rs < 0.
        let mut c = Circuit::new();
        c.vsource("vdd", "gnd", 5.0)
            .resistor("vdd", "drain", 50.0)
            .resistor("g", "gnd", 10000.0)
            .resistor("s", "gnd", 10.0)
            .fet(
                "g",
                "drain",
                "s",
                Box::new(Angelov),
                Angelov.default_params(),
            );
        let g_id = c.node("g").unwrap();
        let s_id = c.node("s").unwrap();
        let sol = solve_dc(&c).unwrap();
        let ids = sol.fet_currents[0];
        assert!(sol.voltages[g_id].abs() < 1e-6, "no gate current");
        assert!((sol.voltages[s_id] - ids * 10.0).abs() < 1e-8);
        assert!(ids > 1e-3, "device conducts: Ids = {ids}");
    }

    #[test]
    fn matches_phemt_bias_helper() {
        // The netlist solve and the analytic bias helper must agree on Vgs
        // for a given drain current.
        let d = Phemt::atf54143_like();
        let target = 0.040;
        let vgs = d.bias_for_current(3.0, target).unwrap();
        let mut c = Circuit::new();
        c.vsource("vd", "gnd", 3.0).vsource("vg", "gnd", vgs).fet(
            "vg",
            "vd",
            "gnd",
            Box::new(Angelov),
            d.dc_params.clone(),
        );
        let sol = solve_dc(&c).unwrap();
        assert!((sol.fet_currents[0] - target).abs() < 1e-6);
    }

    #[test]
    fn empty_circuit_solves_trivially() {
        let c = Circuit::new();
        let sol = solve_dc(&c).unwrap();
        assert!(sol.voltages.is_empty());
        assert_eq!(sol.iterations, 0);
    }

    #[test]
    fn source_loop_is_singular() {
        // Two parallel voltage sources with different EMFs: no solution.
        let mut c = Circuit::new();
        c.vsource("a", "gnd", 1.0).vsource("a", "gnd", 2.0);
        // The structured error shows the whole ladder was exhausted: the
        // source loop is inconsistent at every gmin and source scale.
        let err = solve_dc(&c).unwrap_err();
        assert_eq!(err.stage(), SolveStage::SourceStepping);
        assert!(matches!(err, SolveError::SingularSystem { .. }));
        assert!(err.iterations() >= 4, "every rung touched the system");
    }
}
