//! Netlist-level verification sweeps through the shared plan cache.
//!
//! The design flow's band metrics run on the analytic ABCD cascade
//! ([`crate::Amplifier`]); final verification, the design example and
//! the benchmarks cross-check against full MNA netlist sweeps. This
//! module is the single home for those verification netlists — the
//! bench harness, the example and the equivalence tests previously each
//! carried their own copy — and routes every sweep through
//! [`rfkit_circuit::shared_plan`] +
//! [`StampPlan::sweep_batch`](rfkit_circuit::StampPlan::sweep_batch), so
//! repeated verifications of one topology (yield units, corner loops,
//! parallel workers) compile and stamp the netlist exactly once per
//! process.

use crate::DesignVariables;
use rfkit_circuit::{shared_plan, AcError, AcStamps, AcWorkspace, Circuit, SweepBatch};

/// The reference-design schematic as a netlist: input match, bias feed
/// and output match around the (separately stamped) device position.
/// Element values come from the design variables where the flow selects
/// them (`l1`, `r_bias`, `l2`, `c2`, supply `vds`); the fixed parts
/// (gate bleed, bias-feed choke, coupling capacitor) match the built
/// hardware.
pub fn reference_netlist(vars: &DesignVariables) -> Circuit {
    let mut c = Circuit::new();
    c.inductor("in", "gate", vars.l1)
        .resistor("gate", "gnd", 10_000.0)
        .resistor("drain", "nb", 30.0)
        .inductor("nb", "gnd", 10e-9)
        .vsource("vdd", "gnd", vars.vds)
        .resistor("vdd", "nb", vars.r_bias)
        .capacitor("drain", "out", 2.2e-12)
        .inductor("out", "gnd", vars.l2)
        .capacitor("out", "gnd", vars.c2)
        .port("in", 50.0)
        .port("out", 50.0);
    c
}

/// The output-match verification network the design example sweeps after
/// a design run: series `l2`, shunt `c2`.
pub fn output_match_network(vars: &DesignVariables) -> Circuit {
    let mut c = Circuit::new();
    c.inductor("in", "out", vars.l2)
        .capacitor("out", "gnd", vars.c2)
        .port("in", 50.0)
        .port("out", 50.0);
    c
}

/// Sweeps `circuit` over `freqs` through the process-wide shared plan
/// cache and the batched pivot-reuse engine. Repeated calls for one
/// topology — from any thread — reuse a single compiled plan with zero
/// re-stamping; per-call mutable state lives in the caller's workspace.
///
/// # Errors
///
/// Propagates plan compilation errors ([`AcError::NoPorts`]); per-point
/// solve errors are reported in the returned batch, not here.
pub fn cached_sweep(
    circuit: &Circuit,
    freqs: &[f64],
    ws: &mut AcWorkspace,
) -> Result<SweepBatch, AcError> {
    let plan = shared_plan(circuit)?;
    Ok(plan.sweep_batch(freqs, &AcStamps::none(), ws))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_circuit::two_port_s;

    fn vars() -> DesignVariables {
        DesignVariables {
            vds: 3.0,
            ids: 0.06,
            l1: 6.8e-9,
            ls_deg: 0.4e-9,
            l2: 10e-9,
            c2: 1.0e-12,
            r_bias: 15.0,
        }
    }

    #[test]
    fn cached_sweep_matches_legacy_and_shares_plan() {
        let c = reference_netlist(&vars());
        let freqs = rfkit_num::linspace(1.1e9, 1.7e9, 11);
        let mut ws = AcWorkspace::new();
        let batch = cached_sweep(&c, &freqs, &mut ws).unwrap();
        assert!(batch.failures().is_empty());
        for (p, &f) in freqs.iter().enumerate() {
            let legacy = two_port_s(&c, f, &AcStamps::none()).unwrap();
            let got = batch.two_port(p).unwrap();
            assert!(
                (got.s21() - legacy.s21()).abs() <= rfkit_circuit::SWEEP_TOL,
                "point {p}"
            );
        }
        // Second sweep of the same topology reuses the shared plan.
        let p1 = shared_plan(&c).unwrap();
        let p2 = shared_plan(&c).unwrap();
        assert!(std::sync::Arc::ptr_eq(&p1, &p2));
    }

    #[test]
    fn parallel_cached_sweeps_are_deterministic() {
        // 1-vs-4-thread bit-identity: workers share one Arc'd plan but
        // own their workspaces; the SoA grids must agree bit for bit.
        let c = reference_netlist(&vars());
        let freqs = rfkit_num::linspace(1.1e9, 1.7e9, 16);
        let mut ws = AcWorkspace::new();
        let serial = cached_sweep(&c, &freqs, &mut ws).unwrap();
        let chunks: Vec<Vec<f64>> = freqs.chunks(4).map(|ch| ch.to_vec()).collect();
        let parallel: Vec<_> = rfkit_par::par_map(&chunks, |ch| {
            let mut ws = AcWorkspace::new();
            cached_sweep(&c, ch, &mut ws).unwrap()
        });
        let mut p = 0usize;
        for batch in &parallel {
            for q in 0..batch.len() {
                for i in 0..2 {
                    for j in 0..2 {
                        assert_eq!(serial.s(p, i, j), batch.s(q, i, j));
                    }
                }
                p += 1;
            }
        }
        assert_eq!(p, freqs.len());
    }
}
