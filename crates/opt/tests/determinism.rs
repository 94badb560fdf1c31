//! The parallel-evaluation determinism guarantee: a fixed seed must yield
//! bit-identical optimizer output at any `RFKIT_THREADS` setting, because
//! all RNG draws live in the serial generation loops and `rfkit-par`
//! returns results in input order.
//!
//! Everything lives in one `#[test]` because `RFKIT_THREADS` is process
//! state and the test harness runs separate tests concurrently.

use rfkit_opt::{
    differential_evolution, improved_goal_attainment, nsga2, nsga2_screened, particle_swarm,
    pattern_search, Bounds, DeConfig, GoalConfig, GoalProblem, Nsga2Config, PatternConfig,
    PsoConfig,
};
use rfkit_surrogate::{SurrogateConfig, SurrogateScreen};
use std::f64::consts::PI;

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
    use rfkit_circuit::{solve_dc, Circuit};
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
    let sol = solve_dc(&c).expect("bias point converges");
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
            },
        );
        let pso = particle_swarm(
            rastrigin,
            &b,
            &PsoConfig {
                max_evals: 3000,
                seed: 0xd6,
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
        // Pattern search scores each poll as one parallel batch and folds
        // the scores in direction order.
        let ps = pattern_search(
            rastrigin,
            &[4.1, -3.3, 2.7],
            &b,
            &PatternConfig {
                max_evals: 2000,
                ..Default::default()
            },
        );
        // One restart, so the run is not itself a parallel item and its DE
        // generations and polish polls dispatch.
        let goal = improved_goal_attainment(
            &GoalProblem::new(
                &zdt1,
                vec![0.2, 0.4],
                vec![1.0, 1.0],
                Bounds::uniform(3, 0.0, 1.0),
            ),
            &GoalConfig {
                max_evals: 3000,
                multistart: 1,
                seed: 0xd8,
                ..Default::default()
            },
        );
        // Surrogate-screened run: every screening decision (dominance
        // comparisons, ε-greedy draws, refit cadence) happens in the
        // serial loop, so the bit-identity contract must survive with a
        // fresh screen per run.
        let mut moo_scr = SurrogateScreen::new(3, 2, SurrogateConfig { seed: 0xa3 });
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
        let screen_stats = moo_scr.stats();
        (de, pso, moo, dc, ps, goal, moo_s, screen_stats)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let (de_1, pso_1, moo_1, dc_1, ps_1, goal_1, moos_1, stats_1) = run_all();
    std::env::set_var("RFKIT_THREADS", "4");
    let (de_4, pso_4, moo_4, dc_4, ps_4, goal_4, moos_4, stats_4) = run_all();
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

    assert_eq!(
        ps_1, ps_4,
        "pattern search result differs across thread counts"
    );
    assert_eq!(
        goal_1, goal_4,
        "improved goal attainment differs across thread counts"
    );

    // Surrogate-armed run: same contract, screening enabled.
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
    // The screen was genuinely armed: a model fitted and pruning
    // happened, otherwise this exercise proves nothing.
    assert!(
        stats_1.fits > 0 && stats_1.rejected > 0,
        "NSGA-II screen idle"
    );

    rfkit_obs::flush();
    let meta = std::fs::metadata(&trace).expect("armed run wrote a trace");
    assert!(meta.len() > 0, "trace file is empty despite armed run");
    let _ = std::fs::remove_file(&trace);
}
