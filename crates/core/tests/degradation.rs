//! Graceful-degradation blitz: injected point faults must isolate — a
//! band sweep with k bad points returns a flagged partial with exactly k
//! diagnostics, the memo cache never stores a degraded result, and the
//! yield Monte-Carlo excludes killed units without corrupting the
//! grading. Every armed section runs under `faults::scoped`, which
//! serializes fault tests and disarms on drop, so the post-guard
//! assertions are genuine recovery checks.
//!
//! Compiled only with `--features rfkit-faults`.
#![cfg(feature = "rfkit-faults")]

use lna::{
    yield_analysis_robust, Amplifier, BandMetrics, BandOutcome, BandSpec, BuildConfig,
    DegradePolicy, DesignCache, DesignVariables, YieldSpec,
};
use rfkit_device::Phemt;
use rfkit_robust::faults::{self, FaultKind, FaultPlan};

fn nominal() -> DesignVariables {
    DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    }
}

/// Holds an empty plan: plans are process-wide, so this serializes a
/// healthy evaluation against the other fault tests.
fn quiet() -> faults::ScopedFaults {
    faults::scoped(FaultPlan::new())
}

/// Kills `keys` on the band-point site: one in-band frequency and one
/// stability-grid frequency by default.
fn band_fault(band: &BandSpec, indices: &[usize]) -> FaultPlan {
    let keys: Vec<u64> = indices
        .iter()
        .map(|&i| band.combined_grid()[i].to_bits())
        .collect();
    FaultPlan::new().fail_keys("band.point", FaultKind::PointFailure, &keys)
}

#[test]
fn k_injected_points_degrade_with_exactly_k_diagnostics_at_any_thread_count() {
    // Thread-count flipping lives in this one test because RFKIT_THREADS
    // is process state; the scoped guard already serializes armed runs.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let policy = DegradePolicy::lenient(0.5);
    let bad = [1usize, 9]; // one in-band point, one stability point
    let run = || {
        let _g = faults::scoped(band_fault(&band, &bad));
        BandMetrics::evaluate_robust(&amp, &band, &policy)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let out_1 = run();
    std::env::set_var("RFKIT_THREADS", "4");
    let out_4 = run();
    std::env::remove_var("RFKIT_THREADS");

    assert_eq!(
        out_1, out_4,
        "degraded outcome differs across thread counts"
    );
    let BandOutcome::Degraded {
        metrics,
        diagnostics,
    } = out_1
    else {
        panic!("expected Degraded, got {out_1:?}");
    };
    assert_eq!(diagnostics.len(), bad.len(), "exactly k diagnostics");
    for (d, &i) in diagnostics.iter().zip(&bad) {
        assert_eq!(d.index, i);
        assert_eq!(d.at, band.combined_grid()[i]);
    }
    // The partial reduces over the surviving points: dropping a worst-case
    // candidate can only flatter the metrics, never invent a worse case.
    let _quiet = quiet();
    let full = BandMetrics::evaluate(&amp, &band).expect("healthy design");
    assert!(metrics.worst_nf_db <= full.worst_nf_db);
    assert!(metrics.min_gain_db >= full.min_gain_db);
    assert!(metrics.min_mu >= full.min_mu);
    // Recovery: with the guard dropped the sweep completes bit-identically.
    assert_eq!(
        BandMetrics::evaluate_robust(&amp, &band, &policy),
        BandOutcome::Complete(full)
    );
}

#[test]
fn strict_policy_fails_a_partial_instead_of_degrading() {
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let _g = faults::scoped(band_fault(&band, &[0]));
    // Strict: one bad point voids the sweep (Failed, not Infeasible — the
    // bias is fine, this is transient trouble, and the diagnostics say so).
    match BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::strict()) {
        BandOutcome::Failed { diagnostics } => {
            assert_eq!(diagnostics.len(), 1);
            assert_eq!(diagnostics[0].index, 0);
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The strict Option view agrees.
    assert_eq!(BandMetrics::evaluate(&amp, &band), None);
}

#[test]
fn all_points_killed_is_failed_not_infeasible() {
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let _g = faults::scoped(FaultPlan::new().fail_all("band.point", FaultKind::PointFailure));
    // Every point dies, but the operating point is reachable: this is
    // transient, so even the most lenient policy reports Failed (no
    // surviving points to reduce), never Infeasible.
    match BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::lenient(1.0)) {
        BandOutcome::Failed { diagnostics } => {
            assert_eq!(diagnostics.len(), band.combined_grid().len());
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn cache_never_stores_a_transiently_faulted_result() {
    // The satellite regression: a transient fault during a cached
    // evaluation must leave NO entry behind — neither the degraded
    // partial nor a stale None — so the first query after the fault
    // clears computes and caches the correct value.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let cache = DesignCache::new(16);
    let policy = DegradePolicy::lenient(0.5);
    {
        let _g = faults::scoped(band_fault(&band, &[1, 9]));
        let first = cache.evaluate_with(&device, nominal(), &band, &policy);
        assert!(matches!(first, BandOutcome::Degraded { .. }));
        assert_eq!(cache.len(), 0, "degraded result must not be cached");
        assert_eq!(cache.uncacheable(), 1);
        // A second query under the fault recomputes (miss, not hit).
        let second = cache.evaluate_with(&device, nominal(), &band, &policy);
        assert_eq!(first, second, "faulted recomputation is deterministic");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.uncacheable(), 2);
        // The strict Option view under the fault: Failed → None, also
        // uncached.
        assert_eq!(cache.evaluate(&device, nominal(), &band), None);
        assert_eq!(cache.len(), 0, "no stale None from a transient fault");
    }
    // Fault cleared: the correct value computes, caches, and serves hits.
    let _quiet = quiet();
    let amp = Amplifier::new(&device, nominal());
    let fresh = BandMetrics::evaluate(&amp, &band).expect("feasible");
    assert_eq!(cache.evaluate(&device, nominal(), &band), Some(fresh));
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.evaluate(&device, nominal(), &band), Some(fresh));
    assert_eq!(cache.hits(), 1, "post-recovery entry serves hits");
}

#[test]
fn yield_run_excludes_killed_units_and_flags_partials() {
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let spec = YieldSpec {
        max_nf_db: 2.0,
        min_gain_db: 5.0,
        max_s11_db: 0.0,
        require_stability: false,
    };
    let units = 12usize;
    let run = |policy: &DegradePolicy| {
        let build = BuildConfig::default();
        yield_analysis_robust(&device, &nominal(), &spec, &band, units, &build, 3, policy)
    };
    let baseline = {
        let _quiet = quiet();
        run(&DegradePolicy::default()).report
    };
    assert_eq!(baseline.passing, units, "loose spec passes everything");

    let killed = [2u64, 5, 7];
    {
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "yield.unit",
            FaultKind::PointFailure,
            &killed,
        ));
        // A tolerant policy: 3/12 = 25 % failures allowed.
        let out = run(&DegradePolicy::lenient(0.25));
        assert_eq!(out.diagnostics.len(), killed.len());
        for (d, &u) in out.diagnostics.iter().zip(&killed) {
            assert_eq!(d.index, u as usize);
        }
        assert!(!out.degraded, "within the policy threshold");
        // Killed units vanish from the denominator and the grading:
        // everything that was graded still passes.
        assert_eq!(out.report.units, units - killed.len());
        assert_eq!(out.report.passing, units - killed.len());
        assert_eq!(out.report.yield_fraction(), 1.0);
        assert_eq!(
            out.report.failures, [0; 5],
            "killed units are not dead boards"
        );
        // A stricter policy flags the same run as degraded.
        let strict = run(&DegradePolicy::lenient(0.1));
        assert!(strict.degraded, "3/12 failures exceed a 10 % threshold");
        assert_eq!(strict.report, out.report, "grading is policy-independent");
    }
    // Recovery: the same run returns the bit-identical baseline.
    let _quiet = quiet();
    assert_eq!(run(&DegradePolicy::default()).report, baseline);
}
