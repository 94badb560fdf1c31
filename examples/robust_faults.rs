//! Fault-injection quick-start: arm a deterministic fault plan, watch the
//! DC fallback ladder and the band-sweep degradation machinery absorb it,
//! then watch everything recover bit-for-bit when the plan disarms.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --features rfkit-faults --example robust_faults
//! ```
//!
//! With `RFKIT_TRACE=1` the retry/fallback/degradation counters land in
//! the profile for `rfkit-trace` to summarize (this is the CI smoke).
//! Without the `rfkit-faults` feature the hooks compile out and this
//! example just says so.

#[cfg(not(feature = "rfkit-faults"))]
fn main() {
    println!("rebuild with --features rfkit-faults to arm the fault-injection demo");
}

#[cfg(feature = "rfkit-faults")]
fn main() {
    use lna::{Amplifier, BandMetrics, BandSpec, DegradePolicy, DesignVariables};
    use rfkit_circuit::dc::SolveStage;
    use rfkit_circuit::{solve_dc, Circuit};
    use rfkit_robust::faults::{self, FaultKind, FaultPlan};

    // A self-biased FET stage: real Newton work, normally one rung.
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

    let healthy = solve_dc(&c).expect("healthy solve");
    println!(
        "healthy DC solve: stage = {}, attempts = {}, iterations = {}",
        healthy.stage, healthy.attempts, healthy.iterations
    );
    assert_eq!(healthy.stage, SolveStage::PlainNewton);

    // 1. Kill the first two rungs: the ladder escalates to gmin-stepping.
    {
        let _g = faults::scoped(
            FaultPlan::new()
                .fail_all("dc.newton.plain", FaultKind::Stagnate)
                .fail_all("dc.newton.damped", FaultKind::Stagnate),
        );
        let sol = solve_dc(&c).expect("gmin rung recovers");
        println!(
            "with plain+damped Newton dead: stage = {}, attempts = {}, plain hook fired {}x",
            sol.stage,
            sol.attempts,
            faults::fired("dc.newton.plain")
        );
        assert_eq!(sol.stage, SolveStage::GminStepping);
    }

    // 2. Kill two band-sweep points: the sweep degrades instead of dying.
    let device = rfkit_device::Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(
        &device,
        DesignVariables {
            vds: 3.0,
            ids: 0.050,
            l1: 6.8e-9,
            ls_deg: 0.4e-9,
            l2: 10e-9,
            c2: 2.2e-12,
            r_bias: 30.0,
        },
    );
    {
        let keys = [
            band.combined_grid()[1].to_bits(),
            band.combined_grid()[9].to_bits(),
        ];
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "band.point",
            FaultKind::PointFailure,
            &keys,
        ));
        match BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::lenient(0.5)) {
            lna::BandOutcome::Degraded {
                metrics,
                diagnostics,
            } => {
                println!(
                    "band sweep degraded: {} failed points, partial worst-case NF = {:.3} dB",
                    diagnostics.len(),
                    metrics.worst_nf_db
                );
                for d in &diagnostics {
                    println!("  {d}");
                }
            }
            other => panic!("expected a degraded sweep, got {other:?}"),
        }
    }

    // 3. Faults disarmed: the recovered world is the healthy world.
    let recovered = solve_dc(&c).expect("recovered solve");
    assert_eq!(recovered, healthy, "recovery must be bit-identical");
    let full = BandMetrics::evaluate(&amp, &band).expect("complete sweep");
    println!(
        "recovered: DC bit-identical, full sweep NF = {:.3} dB over {} points",
        full.worst_nf_db,
        band.combined_grid().len()
    );

    rfkit_obs::flush();
}
