//! Equivalence suite for the compiled AC path: [`StampPlan::sweep_batch`]
//! must agree with the legacy per-call solver — every S entry within
//! [`SWEEP_TOL`], the same `Err` at the same grid points — across the
//! reference design topology, the linearized-pHEMT stamp case, seeded
//! random RLC netlists and seeded random long-ladder and rail-hub
//! netlists.

use rfkit_circuit::{
    s_matrix, AcError, AcStamps, AcWorkspace, Circuit, StampPlan, SweepBatch, SWEEP_TOL,
};
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;
use rfkit_num::linspace;
use rfkit_num::rng::Rng64;

/// Checks `batch` against the legacy solver at every grid point: within
/// `SWEEP_TOL` where legacy solves, the identical error where it fails.
/// Returns the number of solved points.
fn assert_matches_legacy(
    c: &Circuit,
    stamps: &AcStamps<'_>,
    freqs: &[f64],
    batch: &SweepBatch,
    what: &str,
) -> usize {
    assert_eq!(batch.len(), freqs.len(), "{what}");
    let mut solved = 0;
    for (p, &f) in freqs.iter().enumerate() {
        match s_matrix(c, f, stamps) {
            Ok(l) => {
                assert!(batch.is_ok(p), "{what}: spurious failure at {f} Hz");
                let m = l.n_ports();
                for i in 0..m {
                    for j in 0..m {
                        let d = (batch.s(p, i, j) - l.s(i, j).unwrap()).abs();
                        assert!(d <= SWEEP_TOL, "{what}: |ΔS{i}{j}| = {d:e} at {f} Hz");
                    }
                }
                solved += 1;
            }
            Err(e) => assert!(
                batch.failures().iter().any(|(q, be)| *q == p && *be == e),
                "{what}: error parity at {f} Hz"
            ),
        }
    }
    solved
}

/// The reference-design schematic as a netlist: input match, linearized
/// device position (stamped separately where used), bias feed and output
/// match — the same element mix `design_lna` candidates get built from.
fn reference_design_circuit() -> Circuit {
    let mut c = Circuit::new();
    c.inductor("in", "gate", 6.8e-9)
        .resistor("gate", "gnd", 10_000.0)
        .resistor("drain", "nb", 30.0)
        .inductor("nb", "gnd", 10e-9)
        .vsource("vdd", "gnd", 3.0)
        .resistor("vdd", "nb", 15.0)
        .capacitor("drain", "out", 2.2e-12)
        .inductor("out", "gnd", 10e-9)
        .capacitor("out", "gnd", 1.0e-12)
        .port("in", 50.0)
        .port("out", 50.0);
    c
}

#[test]
fn reference_design_sweep_matches_legacy() {
    let c = reference_design_circuit();
    let plan = StampPlan::compile(&c).unwrap();
    let mut ws = AcWorkspace::new();
    let freqs = linspace(1.1e9, 1.7e9, 31);
    let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
    assert_eq!(
        assert_matches_legacy(&c, &AcStamps::none(), &freqs, &batch, "reference"),
        31
    );
    // One topology, one warm-up: the remaining 30 points reused buffers,
    // i.e. the sweep performed no per-frequency matrix allocations.
    assert_eq!(ws.warmup_count(), 1);
    assert_eq!(ws.reuse_count(), 30);
}

#[test]
fn phemt_stamp_case_matches_legacy() {
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
    c.inductor("in", "gate", 5.6e-9)
        .capacitor("drain", "out", 2.2e-12)
        .inductor("out", "gnd", 10e-9)
        .port("in", 50.0)
        .port("out", 50.0);
    let (g, dn) = (c.node("gate"), c.node("drain"));
    let stamps = AcStamps::none().two_port(g, dn, &y_of);
    let plan = StampPlan::compile(&c).unwrap();
    let freqs = linspace(0.9e9, 2.1e9, 13);
    let batch = plan.sweep_batch(&freqs, &stamps, &mut AcWorkspace::new());
    assert_eq!(
        assert_matches_legacy(&c, &stamps, &freqs, &batch, "pHEMT"),
        13
    );
}

/// Builds a random RLC netlist over up to 6 named nodes (plus ground),
/// two ports, from a seeded deterministic RNG.
fn random_rlc(rng: &mut Rng64) -> Circuit {
    let names = ["n0", "n1", "n2", "n3", "n4", "n5"];
    let n_nodes = 3 + rng.index(4); // 3..=6 non-ground nodes in play
    let n_elements = 4 + rng.index(8);
    let mut c = Circuit::new();
    for _ in 0..n_elements {
        // One extra slot beyond the live nodes selects ground.
        let ka = rng.index(n_nodes + 1);
        let kb = rng.index(n_nodes + 1);
        let a = if ka == n_nodes { "gnd" } else { names[ka] };
        let mut b = if kb == n_nodes { "gnd" } else { names[kb] };
        if a == b {
            b = "gnd";
        }
        if a == b {
            continue;
        }
        match rng.index(3) {
            0 => {
                c.resistor(a, b, rng.uniform(5.0, 5_000.0));
            }
            1 => {
                c.capacitor(a, b, rng.uniform(0.2e-12, 20e-12));
            }
            _ => {
                c.inductor(a, b, rng.uniform(0.5e-9, 50e-9));
            }
        }
    }
    // Ports on the first two nodes; tie each to the network so the port
    // rows are never all-zero (an all-zero row is a legitimate Singular
    // case, also checked for parity below, but rarer is better here).
    c.resistor("n0", "n1", rng.uniform(10.0, 1_000.0));
    c.port("n0", 50.0).port("n1", 50.0);
    c
}

#[test]
fn random_rlc_netlists_match_legacy_including_errors() {
    let mut rng = Rng64::new(0xfa57_9a7b);
    let freqs = [0.35e9, 1.3e9, 2.8e9];
    let mut solved = 0;
    for case in 0..120 {
        let c = random_rlc(&mut rng);
        let plan = StampPlan::compile(&c).unwrap();
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut AcWorkspace::new());
        solved += assert_matches_legacy(
            &c,
            &AcStamps::none(),
            &freqs,
            &batch,
            &format!("case {case}"),
        );
    }
    assert!(
        solved > 200,
        "suite degenerated: only {solved} solvable cases"
    );
}

#[test]
fn singular_and_degenerate_inputs_match_legacy() {
    // A floating internal node makes the Schur block singular.
    let mut c = Circuit::new();
    c.resistor("in", "out", 75.0)
        .capacitor("float_a", "float_b", 1e-12)
        .port("in", 50.0)
        .port("out", 50.0);
    let f = 1.575e9;
    let batch = StampPlan::compile(&c).unwrap().sweep_batch(
        &[f],
        &AcStamps::none(),
        &mut AcWorkspace::new(),
    );
    assert_eq!(batch.failures(), &[(0, AcError::Singular(f))]);
    assert_eq!(
        assert_matches_legacy(&c, &AcStamps::none(), &[f], &batch, "floating"),
        0
    );

    // Non-positive frequency: the batch reports the same error the legacy
    // path does (regression for the old assert!-panic).
    let good = reference_design_circuit();
    let freqs = [0.0, -2.4e9];
    let batch = StampPlan::compile(&good).unwrap().sweep_batch(
        &freqs,
        &AcStamps::none(),
        &mut AcWorkspace::new(),
    );
    assert_eq!(
        batch.failures(),
        &[
            (0, AcError::NonPositiveFrequency(0.0)),
            (1, AcError::NonPositiveFrequency(-2.4e9))
        ]
    );
    assert_eq!(
        assert_matches_legacy(&good, &AcStamps::none(), &freqs, &batch, "f <= 0"),
        0
    );
}

/// Seeded random structured netlist: a chain of `sections` series/shunt
/// RLC cells between the two ports (a long tridiagonal internal block),
/// optionally tied into a shared supply rail through `hub_taps` resistors
/// (one high-degree hub row). Every chain node keeps a resistive shunt so
/// pivots stay away from pure-LC resonance zeros.
fn random_structured(rng: &mut Rng64, sections: usize, hub_taps: usize) -> Circuit {
    assert!(sections >= 10, "need a chain of 10+ sections");
    let mut c = Circuit::new();
    let name = |i: usize| format!("c{i}");
    for i in 0..sections {
        let (a, b) = (name(i), name(i + 1));
        if rng.index(2) == 0 {
            c.inductor(&a, &b, rng.uniform(1e-9, 8e-9));
        } else {
            c.resistor(&a, &b, rng.uniform(5.0, 80.0));
        }
        c.capacitor(&b, "gnd", rng.uniform(0.3e-12, 3e-12));
        c.resistor(&b, "gnd", rng.uniform(500.0, 5_000.0));
    }
    if hub_taps > 0 {
        // Taps spread evenly across the chain, so the rail row couples
        // distant chain nodes.
        c.vsource("rail", "gnd", 1.0);
        for t in 0..hub_taps {
            let k = 1 + t * (sections - 1) / hub_taps;
            c.resistor(&name(k), "rail", rng.uniform(50.0, 500.0));
        }
    }
    c.port("c0", 50.0).port(&name(sections), 50.0);
    c
}

#[test]
fn random_structured_netlists_match_dense_within_tol() {
    // Seeded random plain ladders and rail-tied ladders of 10+ sections:
    // the legacy dense solve is the oracle, and every grid point must
    // stay inside the documented `SWEEP_TOL` envelope with
    // point-for-point Ok parity.
    let mut rng = Rng64::new(0x5eed_0b0b);
    let freqs = linspace(0.8e9, 2.2e9, 9);
    for case in 0..12 {
        let sections = 10 + rng.index(8);
        let hub_taps = if case % 2 == 1 { 4 + rng.index(3) } else { 0 };
        let c = random_structured(&mut rng, sections, hub_taps);
        let plan = StampPlan::compile(&c).unwrap();
        let mut ws = AcWorkspace::new();
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        assert_matches_legacy(
            &c,
            &AcStamps::none(),
            &freqs,
            &batch,
            &format!("case {case}"),
        );
    }
}

#[test]
fn structured_paths_report_errors_point_for_point() {
    // A floating capacitor pair makes the Schur block of a long ladder
    // singular at every frequency. The sweep must surface the *same*
    // error the legacy path reports at every point.
    let mut rng = Rng64::new(0xe44_0f0f);
    let mut c = random_structured(&mut rng, 12, 0);
    c.capacitor("float_a", "float_b", 1e-12);
    let plan = StampPlan::compile(&c).unwrap();
    let freqs = [1.1e9, 1.5e9];
    let mut ws = AcWorkspace::new();
    let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
    assert_eq!(batch.failures().len(), freqs.len());
    assert_eq!(
        assert_matches_legacy(&c, &AcStamps::none(), &freqs, &batch, "floating"),
        0
    );
}

#[cfg(feature = "rfkit-faults")]
#[test]
fn fault_injection_parity_across_solve_paths() {
    // The sweep shares the `ac.solve` site and frequency-bits key with
    // the legacy path, so a targeted fault fails the same grid point on
    // both sides while neighbours sail through — on the reference design,
    // a long ladder and a rail-tied ladder alike.
    use rfkit_robust::faults::{self, FaultKind, FaultPlan};
    let mut rng = Rng64::new(0xfa017);
    let cases = [
        (reference_design_circuit(), "reference"),
        (random_structured(&mut rng, 12, 0), "ladder"),
        (random_structured(&mut rng, 12, 4), "rail-tied ladder"),
    ];
    // The armed plan is process-wide: the targeted 1.45 GHz is a
    // frequency no other test in this binary solves at.
    let freqs = [1.1e9, 1.45e9, 1.7e9];
    let f_bad: f64 = freqs[1];
    for (c, what) in &cases {
        let plan = StampPlan::compile(c).unwrap();
        let mut ws = AcWorkspace::new();
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "ac.solve",
            FaultKind::SingularLu,
            &[f_bad.to_bits()],
        ));
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        for (p, &f) in freqs.iter().enumerate() {
            let legacy = s_matrix(c, f, &AcStamps::none());
            if f == f_bad {
                assert_eq!(legacy.unwrap_err(), AcError::Singular(f), "{what}");
                assert!(
                    batch
                        .failures()
                        .iter()
                        .any(|(q, e)| *q == p && *e == AcError::Singular(f)),
                    "{what}: batch missed the injected fault"
                );
            } else {
                assert!(legacy.is_ok(), "{what}: healthy legacy point failed");
                assert!(batch.is_ok(p), "{what}: healthy batch point failed");
            }
        }
    }
}

#[test]
fn workspace_survives_topology_changes() {
    // Sharing one workspace across plans of different sizes re-warms but
    // stays inside the contract.
    let small = {
        let mut c = Circuit::new();
        c.resistor("in", "out", 50.0)
            .port("in", 50.0)
            .port("out", 50.0);
        c
    };
    let big = reference_design_circuit();
    let plan_small = StampPlan::compile(&small).unwrap();
    let plan_big = StampPlan::compile(&big).unwrap();
    let freqs = [1.2e9, 1.5e9];
    let mut ws = AcWorkspace::new();
    for _ in 0..3 {
        // One two-point sweep per plan before switching topology.
        for (c, plan) in [(&small, &plan_small), (&big, &plan_big)] {
            let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
            assert_eq!(
                assert_matches_legacy(c, &AcStamps::none(), &freqs, &batch, "switch"),
                2
            );
        }
    }
    // Each small->big or big->small switch re-warms; the second point of
    // every two-point sweep reuses.
    assert_eq!(ws.warmup_count() + ws.reuse_count(), 12);
    assert_eq!(ws.warmup_count(), 6);
}
