//! The parallel-evaluation determinism guarantee: a fixed seed must yield
//! bit-identical optimizer output at any `RFKIT_THREADS` setting, because
//! all RNG draws live in the serial generation loops and `rfkit-par`
//! returns results in input order.
//!
//! Everything lives in one `#[test]` because `RFKIT_THREADS` is process
//! state and the test harness runs separate tests concurrently.

use rfkit_opt::{
    differential_evolution, differential_evolution_screened, nsga2, nsga2_screened, particle_swarm,
    particle_swarm_screened, Bounds, DeConfig, Nsga2Config, PsoConfig,
};
use rfkit_surrogate::{SurrogateConfig, SurrogateScreen};
use std::f64::consts::PI;

/// Screen config that fits early and prunes aggressively, with the
/// exploration draws armed — the hardest determinism case.
fn screen_cfg(seed: u64) -> SurrogateConfig {
    SurrogateConfig {
        explore: 0.2,
        explore_min: 0.05,
        kappa: 1.0,
        seed,
        ..Default::default()
    }
}

fn rastrigin(x: &[f64]) -> f64 {
    10.0 * x.len() as f64
        + x.iter()
            .map(|v| v * v - 10.0 * (2.0 * PI * v).cos())
            .sum::<f64>()
}

fn zdt1(x: &[f64]) -> Vec<f64> {
    let f1 = x[0];
    let g = 1.0 + 9.0 * x[1..].iter().sum::<f64>() / (x.len() - 1) as f64;
    let f2 = g * (1.0 - (f1 / g).sqrt());
    vec![f1, f2]
}

/// DC operating point of a self-biased FET stage. Exercises the netlist
/// node interning and the MNA branch-current assignment, both of which
/// must stamp in a deterministic order (sorted maps, never a hasher).
fn dc_operating_point() -> Vec<f64> {
    use rfkit_circuit::{solve_dc, Circuit, RetryPolicy};
    use rfkit_device::dc::{Angelov, DcModel};
    let mut c = Circuit::new();
    c.vsource("vdd", "gnd", 5.0)
        .resistor("vdd", "drain", 50.0)
        .inductor("drain", "out", 10e-9)
        .resistor("out", "gnd", 500.0)
        .resistor("g", "gnd", 10000.0)
        .resistor("s", "gnd", 10.0)
        .capacitor("s", "gnd", 1e-9)
        .fet(
            "g",
            "drain",
            "s",
            Box::new(Angelov),
            Angelov.default_params(),
        );
    let sol = solve_dc(&c, &RetryPolicy::default()).expect("bias point converges");
    let mut out = sol.voltages;
    out.extend(sol.fet_currents);
    out
}

#[test]
fn fixed_seed_output_identical_at_1_and_4_threads() {
    // Arm tracing for the whole comparison: telemetry is write-only with
    // respect to the numerics, so the bit-identical contract must hold
    // with the sink recording (this is the strongest form of the
    // determinism guarantee the observability layer promises).
    let trace = std::env::temp_dir().join(format!(
        "rfkit_determinism_trace_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(trace.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let run_all = || {
        let b = Bounds::uniform(3, -5.12, 5.12);
        let de = differential_evolution(
            rastrigin,
            &b,
            &DeConfig {
                max_evals: 3000,
                seed: 0xd5,
                ..Default::default()
            },
        );
        let pso = particle_swarm(
            rastrigin,
            &b,
            &PsoConfig {
                max_evals: 3000,
                seed: 0xd6,
                ..Default::default()
            },
        );
        let moo = nsga2(
            &zdt1,
            &Bounds::uniform(3, 0.0, 1.0),
            &Nsga2Config {
                generations: 20,
                seed: 0xd7,
                ..Default::default()
            },
        );
        let dc = dc_operating_point();
        // Surrogate-screened runs: every screening decision (LCB
        // comparisons, ε-greedy draws, refit cadence) happens in the
        // serial loop, so the bit-identity contract must survive with a
        // fresh screen per run.
        let mut de_scr = SurrogateScreen::new(3, 1, screen_cfg(0xa1));
        let de_s = differential_evolution_screened(
            rastrigin,
            &b,
            &DeConfig {
                max_evals: 3000,
                seed: 0xd5,
                ..Default::default()
            },
            &mut de_scr,
        );
        let mut pso_scr = SurrogateScreen::new(3, 1, screen_cfg(0xa2));
        let pso_s = particle_swarm_screened(
            rastrigin,
            &b,
            &PsoConfig {
                max_evals: 3000,
                seed: 0xd6,
                ..Default::default()
            },
            &mut pso_scr,
        );
        let mut moo_scr = SurrogateScreen::new(3, 2, screen_cfg(0xa3));
        let moo_s = nsga2_screened(
            &zdt1,
            &Bounds::uniform(3, 0.0, 1.0),
            &Nsga2Config {
                generations: 25,
                seed: 0xd7,
                ..Default::default()
            },
            &mut moo_scr,
        );
        let screen_stats = (de_scr.stats(), pso_scr.stats(), moo_scr.stats());
        (de, pso, moo, dc, de_s, pso_s, moo_s, screen_stats)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let (de_1, pso_1, moo_1, dc_1, des_1, psos_1, moos_1, stats_1) = run_all();
    std::env::set_var("RFKIT_THREADS", "4");
    let (de_4, pso_4, moo_4, dc_4, des_4, psos_4, moos_4, stats_4) = run_all();
    std::env::remove_var("RFKIT_THREADS");

    // Bit-identical, not approximately equal.
    assert_eq!(de_1.x, de_4.x, "DE best point differs across thread counts");
    assert_eq!(de_1.value, de_4.value);
    assert_eq!(de_1.evaluations, de_4.evaluations);

    assert_eq!(
        pso_1.x, pso_4.x,
        "PSO best point differs across thread counts"
    );
    assert_eq!(pso_1.value, pso_4.value);

    assert_eq!(
        moo_1.front, moo_4.front,
        "NSGA-II front differs across thread counts"
    );
    assert_eq!(moo_1.evaluations, moo_4.evaluations);

    assert_eq!(
        dc_1, dc_4,
        "DC operating point differs across thread counts"
    );

    // Surrogate-armed runs: same contract, screening enabled.
    assert_eq!(
        des_1.x, des_4.x,
        "screened DE best point differs across thread counts"
    );
    assert_eq!(des_1.value, des_4.value);
    assert_eq!(des_1.evaluations, des_4.evaluations);
    assert_eq!(
        psos_1.x, psos_4.x,
        "screened PSO best point differs across thread counts"
    );
    assert_eq!(psos_1.value, psos_4.value);
    assert_eq!(psos_1.evaluations, psos_4.evaluations);
    assert_eq!(
        moos_1.front, moos_4.front,
        "screened NSGA-II front differs across thread counts"
    );
    assert_eq!(moos_1.evaluations, moos_4.evaluations);
    // Decision-by-decision identity, not just final results.
    assert_eq!(
        stats_1, stats_4,
        "screen decision counters differ across thread counts"
    );
    // The screens were genuinely armed: models fitted and pruning
    // happened, otherwise this exercise proves nothing.
    assert!(
        stats_1.0.fits > 0 && stats_1.0.rejected > 0,
        "DE screen idle"
    );
    assert!(stats_1.2.fits > 0, "NSGA-II screen never fitted");

    rfkit_obs::flush();
    let meta = std::fs::metadata(&trace).expect("armed run wrote a trace");
    assert!(meta.len() > 0, "trace file is empty despite armed run");
    let _ = std::fs::remove_file(&trace);
}
