//! Fault-injection blitz on the DC fallback ladder and the AC/HB solver
//! hooks. Every test arms a deterministic [`FaultPlan`] through
//! `faults::scoped`, which serializes fault tests against each other and
//! disarms on drop — so the assertions at the end of each test that the
//! world is healthy again are real recovery checks, not wishful ordering.
//!
//! Compiled only with `--features rfkit-faults`; without the feature the
//! hooks are `#[inline(always)] None` and this file is empty.
#![cfg(feature = "rfkit-faults")]

use rfkit_circuit::dc::{SolveError, SolveStage};
use rfkit_circuit::{s_matrix, solve_dc, AcError, AcStamps, Circuit, DcSolution, StampPlan};
use rfkit_robust::faults::{self, FaultKind, FaultPlan};

/// A bias network that needs real Newton work: self-biased FET with a
/// source resistor (the dc.rs unit suite's nonlinear fixture).
fn bias_network() -> Circuit {
    let model = rfkit_device::dc::Angelov;
    let params = rfkit_device::dc::DcModel::default_params(&model);
    let mut c = Circuit::new();
    c.vsource("vdd", "gnd", 5.0)
        .resistor("vdd", "drain", 50.0)
        .resistor("g", "gnd", 10_000.0)
        .resistor("src", "gnd", 10.0)
        .fet(
            "g",
            "drain",
            "src",
            Box::new(rfkit_device::dc::Angelov),
            params,
        );
    c
}

/// A two-port RLC netlist for the AC hooks.
fn rlc_two_port() -> Circuit {
    let mut c = Circuit::new();
    c.inductor("in", "gate", 6.8e-9)
        .resistor("gate", "gnd", 10_000.0)
        .capacitor("gate", "out", 2.2e-12)
        .inductor("out", "gnd", 10e-9)
        .port("in", 50.0)
        .port("out", 50.0);
    c
}

/// Solves with nothing armed. Plans are process-wide, so the empty
/// scoped plan serializes this solve against the other fault tests.
fn healthy_solve(c: &Circuit) -> DcSolution {
    let _quiet = faults::scoped(FaultPlan::new());
    solve_dc(c).expect("healthy solve")
}

const ALL_DC_SITES: [&str; 4] = [
    "dc.newton.plain",
    "dc.newton.damped",
    "dc.gmin",
    "dc.source",
];

fn fail_everywhere(kind: FaultKind) -> FaultPlan {
    ALL_DC_SITES
        .iter()
        .fold(FaultPlan::new(), |p, site| p.fail_all(site, kind))
}

#[test]
fn every_ladder_rung_is_reachable_by_failing_the_rungs_below_it() {
    let c = bias_network();
    // No faults: the easy path.
    let baseline = healthy_solve(&c);
    assert_eq!(baseline.stage, SolveStage::PlainNewton);
    assert_eq!(baseline.attempts, 1);
    // Knock out rung after rung; the ladder must land exactly one higher
    // each time. The recovered voltages agree with the baseline to
    // Newton-convergence precision; the homotopy rungs walk a different
    // iteration path to the same root, so cross-rung agreement is
    // numerical, not bitwise (replay bit-identity is asserted separately
    // in `seeded_fault_subsets_replay_bit_identically`).
    let expect = [
        (1, SolveStage::DampedNewton),
        (2, SolveStage::GminStepping),
        (3, SolveStage::SourceStepping),
    ];
    for (n_dead, stage) in expect {
        let plan = ALL_DC_SITES[..n_dead]
            .iter()
            .fold(FaultPlan::new(), |p, site| {
                p.fail_all(site, FaultKind::Stagnate)
            });
        let _g = faults::scoped(plan);
        let sol = solve_dc(&c).unwrap_or_else(|e| panic!("rung {stage} should recover: {e}"));
        assert_eq!(sol.stage, stage);
        assert_eq!(sol.attempts, n_dead + 1);
        for (v, b) in sol.voltages.iter().zip(&baseline.voltages) {
            assert!(
                (v - b).abs() < 1e-9,
                "recovery at {stage} drifted: {v} vs {b}"
            );
        }
        for (i, b) in sol.fet_currents.iter().zip(&baseline.fet_currents) {
            assert!((i - b).abs() < 1e-9, "fet current at {stage} drifted");
        }
        assert!(faults::fired(ALL_DC_SITES[0]) > 0, "plain hook never fired");
    }
}

#[test]
fn every_solve_error_variant_is_reachable() {
    let c = bias_network();
    // SingularSystem: every rung's linear solve reports a singular matrix.
    {
        let _g = faults::scoped(fail_everywhere(FaultKind::SingularLu));
        match solve_dc(&c) {
            Err(SolveError::SingularSystem { stage, iterations }) => {
                assert_eq!(stage, SolveStage::SourceStepping, "last rung reports");
                assert!(iterations >= 1);
            }
            other => panic!("expected SingularSystem, got {other:?}"),
        }
    }
    // NonConvergence via stagnation: every rung stalls.
    {
        let _g = faults::scoped(fail_everywhere(FaultKind::Stagnate));
        match solve_dc(&c) {
            Err(SolveError::NonConvergence {
                stage, residual, ..
            }) => {
                assert_eq!(stage, SolveStage::SourceStepping);
                assert!(residual.is_finite(), "stagnation keeps a real residual");
            }
            other => panic!("expected NonConvergence, got {other:?}"),
        }
    }
    // NonConvergence via NaN residual: the norm goes non-finite.
    {
        let _g = faults::scoped(fail_everywhere(FaultKind::NanResidual));
        match solve_dc(&c) {
            Err(SolveError::NonConvergence { residual, .. }) => {
                assert!(residual.is_nan(), "NaN fault must surface as NaN residual");
            }
            other => panic!("expected NaN NonConvergence, got {other:?}"),
        }
    }
    // Fault cleared: the solver is healthy again, first rung, one attempt.
    let sol = healthy_solve(&c);
    assert_eq!(sol.stage, SolveStage::PlainNewton);
    assert_eq!(sol.attempts, 1);
}

#[test]
fn seeded_fault_subsets_replay_bit_identically() {
    // Property test: for every seed, a seeded plan produces the same
    // firings and the same solver outcome when replayed — and once the
    // fault clears, the solution is bit-identical to the unfaulted run.
    let c = bias_network();
    let baseline = healthy_solve(&c);
    // Keys are plain-Newton iteration numbers; iteration 1 always runs,
    // so a subset containing 1 forces a retry and one without it doesn't.
    let domain: Vec<u64> = (1..=50).collect();
    for seed in 0..8u64 {
        let outcome_of = || {
            let _g = faults::scoped(FaultPlan::new().fail_seeded(
                "dc.newton.plain",
                FaultKind::Stagnate,
                seed,
                &domain,
                6,
            ));
            let r = solve_dc(&c);
            (r, faults::fired("dc.newton.plain"))
        };
        let (first, fired_a) = outcome_of();
        let (second, fired_b) = outcome_of();
        assert_eq!(first, second, "seed {seed} did not replay");
        assert_eq!(fired_a, fired_b, "seed {seed} fired differently");
        // Whatever the injected subset did, recovery after disarm is exact.
        assert_eq!(healthy_solve(&c), baseline);
    }
}

#[test]
fn ac_hook_fails_legacy_and_compiled_paths_identically() {
    let c = rlc_two_port();
    let plan = StampPlan::compile(&c).expect("compilable");
    let mut ws = rfkit_circuit::AcWorkspace::new();
    let f_bad: f64 = 1.4e9;
    let f_good: f64 = 1.2e9;
    {
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "ac.solve",
            FaultKind::SingularLu,
            &[f_bad.to_bits()],
        ));
        // Both paths share the site and the frequency-bits key, so the
        // sweep equivalence contract holds under fault injection too.
        assert_eq!(
            s_matrix(&c, f_bad, &AcStamps::none()).unwrap_err(),
            AcError::Singular(f_bad)
        );
        let batch = plan.sweep_batch(&[f_good, f_bad], &AcStamps::none(), &mut ws);
        assert_eq!(batch.failures(), &[(1, AcError::Singular(f_bad))]);
        // The untargeted frequency sails through.
        let legacy = rfkit_circuit::two_port_s(&c, f_good, &AcStamps::none()).unwrap();
        let got = batch.two_port(0).unwrap();
        for (a, b) in [
            (got.s11(), legacy.s11()),
            (got.s21(), legacy.s21()),
            (got.s12(), legacy.s12()),
            (got.s22(), legacy.s22()),
        ] {
            assert!(a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits());
        }
        assert_eq!(faults::fired("ac.solve"), 2);
    }
    // Cleared: the poisoned frequency works again.
    assert!(s_matrix(&c, f_bad, &AcStamps::none()).is_ok());
}

#[test]
fn hb_newton_hook_forces_both_hb_errors() {
    use rfkit_circuit::hb::{solve, HbError, HbTestbench};
    use rfkit_num::Complex;
    let device = rfkit_device::Phemt::atf54143_like();
    let op = device.operating_point(device.bias_for_current(3.0, 0.06).unwrap(), 3.0);
    let bench = HbTestbench {
        device: &device,
        op,
        vdd: op.vds + op.ids * 20.0,
        r_dc_feed: 20.0,
        load: Box::new(|_k| Complex::real(50.0)),
    };
    let drive = 0.05;
    let baseline = solve(&bench, drive).expect("healthy HB solve");
    {
        let _g = faults::scoped(FaultPlan::new().fail_all("hb.newton", FaultKind::SingularLu));
        assert_eq!(solve(&bench, drive).unwrap_err(), HbError::Singular);
    }
    {
        let _g = faults::scoped(FaultPlan::new().fail_all("hb.newton", FaultKind::NanResidual));
        match solve(&bench, drive) {
            Err(HbError::NoConvergence { residual }) => assert!(residual.is_nan()),
            other => panic!("expected NoConvergence, got {other:?}"),
        }
    }
    // Recovery is bit-identical once the fault clears.
    assert_eq!(solve(&bench, drive).unwrap(), baseline);
}

#[test]
fn twotone_point_faults_void_the_ip3_extrapolation() {
    use rfkit_circuit::{ip3_sweep, time_domain, TwoToneSpec};
    let device = rfkit_device::Phemt::atf54143_like();
    let op = device.operating_point(device.bias_for_current(3.0, 0.06).unwrap(), 3.0);
    let pins: Vec<f64> = (0..9).map(|i| -40.0 + 3.0 * i as f64).collect();
    let eval = |p: f64| {
        let spec = TwoToneSpec {
            pin_dbm: p,
            ..TwoToneSpec::default()
        };
        time_domain(&device, &op, &spec)
    };
    let healthy = ip3_sweep(&pins, eval);
    assert!(healthy.oip3_dbm.is_some(), "healthy sweep extrapolates");
    {
        // Kill a point inside the low-power fit window: the NaN row must
        // keep its slot and poison the fit into refusing to extrapolate.
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "twotone.point",
            FaultKind::PointFailure,
            &[pins[1].to_bits()],
        ));
        let faulted = ip3_sweep(&pins, eval);
        assert_eq!(
            faulted.rows.len(),
            pins.len(),
            "failed point keeps its slot"
        );
        assert!(faulted.rows[1].p_fund_dbm.is_nan());
        assert_eq!(faulted.oip3_dbm, None, "poisoned fit must not extrapolate");
        assert_eq!(faulted.iip3_dbm, None);
    }
    // Cleared: bit-identical to the healthy sweep.
    let again = ip3_sweep(&pins, eval);
    assert_eq!(again.rows, healthy.rows);
    assert_eq!(again.oip3_dbm, healthy.oip3_dbm);
}
