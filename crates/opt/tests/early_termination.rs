//! Budgets smaller than one DE population or one PSO swarm must
//! terminate cleanly — no panic, no infinite loop — and, with tracing
//! armed, leave a truncation event in the profile.
//!
//! One `#[test]` only: trace arming is process-global (the profile path
//! and the armed flag are statics), so splitting this into several tests
//! would race on the shared profile under the parallel test runner.

use rfkit_opt::{differential_evolution, particle_swarm, Bounds, DeConfig, PsoConfig};

fn sphere(x: &[f64]) -> f64 {
    x.iter().map(|v| v * v).sum()
}

#[test]
fn tiny_budgets_terminate_cleanly_and_emit_truncation_events() {
    let trace = std::env::temp_dir().join(format!(
        "rfkit_early_termination_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(trace.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let bounds = Bounds::new(vec![-5.0; 3], vec![5.0; 3]).expect("bounds");

    // DE: a budget of 3 is below the 4-individual floor of the initial
    // population, which DE still evaluates, so accept a small overshoot.
    let de = differential_evolution(
        sphere,
        &bounds,
        &DeConfig {
            max_evals: 3,
            seed: 1,
        },
    );
    assert!(de.value.is_finite());
    assert!(
        de.evaluations <= 4,
        "DE overran its tiny budget: {}",
        de.evaluations
    );
    assert!(!de.converged);

    // PSO: the initial swarm evaluation is capped exactly at the budget.
    let pso = particle_swarm(
        sphere,
        &bounds,
        &PsoConfig {
            max_evals: 3,
            seed: 1,
        },
    );
    assert!(pso.value.is_finite());
    assert_eq!(pso.evaluations, 3);

    rfkit_obs::flush();
    let text = std::fs::read_to_string(&trace).expect("profile written");
    let _ = std::fs::remove_file(&trace);
    let profile = rfkit_obs::profile::parse(&text).expect("profile parses");
    let events: Vec<&str> = profile.events.iter().map(|e| e.name.as_str()).collect();
    for name in ["opt.de.truncated", "opt.pso.truncated"] {
        assert!(events.contains(&name), "missing {name} in {events:?}");
    }
}
