//! The memo cache must not bend the repo's determinism contract: with the
//! cache enabled and tracing armed, a candidate population evaluated at
//! `RFKIT_THREADS=1` and `RFKIT_THREADS=4` must produce bit-identical
//! objective vectors, which must in turn equal the uncached objectives.
//!
//! The thread-count comparison lives in one `#[test]` because
//! `RFKIT_THREADS` is process state and the harness runs tests
//! concurrently.

use lna::{
    band_objectives, cached_band_objectives, pareto_front_study, snap_to_catalog,
    study_screen_config, Amplifier, BandMetrics, BandSpec, DesignCache, DesignVariables,
    ParetoStudyConfig,
};
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_par::par_map;

/// Seeded random candidates snapped to the catalog lattice, then
/// duplicated once — the duplication guarantees cache hits, the snapping
/// mirrors how real optimizer iterates collide.
fn snapped_candidates(n_distinct: usize) -> Vec<Vec<f64>> {
    let mut rng = Rng64::new(0x5eed_cafe);
    let mut xs: Vec<Vec<f64>> = (0..n_distinct)
        .map(|_| {
            let vars = DesignVariables {
                vds: rng.uniform(2.0, 4.0),
                ids: rng.uniform(0.02, 0.08),
                l1: rng.uniform(3e-9, 12e-9),
                ls_deg: rng.uniform(0.1e-9, 0.8e-9),
                l2: rng.uniform(5e-9, 15e-9),
                c2: rng.uniform(1e-12, 4e-12),
                r_bias: rng.uniform(15.0, 60.0),
            };
            snap_to_catalog(vars).to_vec()
        })
        .collect();
    let dup = xs.clone();
    xs.extend(dup);
    xs
}

#[test]
fn cached_objectives_identical_at_1_and_4_threads() {
    // Arm tracing for the whole comparison: the hit/miss/evict counters
    // must stay write-only with respect to the numerics.
    let trace = std::env::temp_dir().join(format!(
        "rfkit_cache_determinism_trace_{}.json",
        std::process::id()
    ));
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(trace.clone()),
        ..rfkit_obs::TraceConfig::default()
    });

    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let xs = snapped_candidates(12); // 24 evaluations, ≥12 cache hits serially

    let run = || {
        let cache = DesignCache::new(64);
        let obj = cached_band_objectives(&device, &band, &cache);
        let out: Vec<Vec<f64>> = par_map(&xs, |x| obj(x));
        // Snapshot while still under capacity: the export must be a pure
        // function of the evaluated point set, not of the racy insertion
        // order.
        let snap = cache.snapshot();
        (out, cache.hits(), cache.misses(), snap)
    };
    // Surrogate-armed Pareto study: warm a cache with a plain pass, then
    // screen from its snapshot — the full training-from-cache pipeline
    // must hold the bit-identity contract too.
    let study = || {
        let cache = DesignCache::with_default_capacity();
        let warm = ParetoStudyConfig {
            population: 12,
            generations: 2,
            seed: 3,
            initial: Vec::new(),
            surrogate: None,
        };
        let w = pareto_front_study(&device, &band, &warm, &cache);
        let screened_cfg = ParetoStudyConfig {
            population: 12,
            generations: 4,
            seed: 3,
            initial: w.front.iter().map(|i| i.x.clone()).collect(),
            surrogate: Some(study_screen_config(0xbeef)),
        };
        let s = pareto_front_study(&device, &band, &screened_cfg, &cache);
        (s.front, s.evaluations, s.screen_stats)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let (out_1, hits_1, misses_1, snap_1) = run();
    let (front_1, evals_1, stats_1) = study();
    std::env::set_var("RFKIT_THREADS", "4");
    let (out_4, hits_4, misses_4, snap_4) = run();
    let (front_4, evals_4, stats_4) = study();
    std::env::remove_var("RFKIT_THREADS");

    assert_eq!(
        snap_1, snap_4,
        "cache snapshot differs across thread counts"
    );
    assert_eq!(
        front_1, front_4,
        "surrogate-armed study front differs across thread counts"
    );
    assert_eq!(evals_1, evals_4);
    assert_eq!(
        stats_1, stats_4,
        "screen decisions differ across thread counts"
    );

    // Bit-identical across thread counts, and identical to the uncached
    // objective (the cache can only substitute a value for itself).
    assert_eq!(
        out_1, out_4,
        "cached objectives differ across thread counts"
    );
    let plain = band_objectives(&device, &band);
    let reference: Vec<Vec<f64>> = xs.iter().map(|x| plain(x)).collect();
    assert_eq!(out_1, reference, "cache changed objective values");

    // Serial run: every duplicate is a guaranteed hit. Parallel runs may
    // trade some hits for duplicated work (compute happens outside the
    // lock), but every lookup is still classified exactly once.
    assert!(
        hits_1 >= 12,
        "expected duplicate candidates to hit: {hits_1}"
    );
    assert_eq!(hits_1 + misses_1, xs.len() as u64);
    assert_eq!(hits_4 + misses_4, xs.len() as u64);

    rfkit_obs::flush();
    let meta = std::fs::metadata(&trace).expect("armed run wrote a trace");
    assert!(meta.len() > 0, "trace file is empty despite armed run");
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn band_metrics_match_legacy_grid_construction() {
    // The cached-grid refactor (borrowed slices, reused combined buffer)
    // must leave every metric bit-identical to the old build-a-fresh-grid
    // evaluation, replicated inline here.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let vars = DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    };
    let amp = Amplifier::new(&device, vars);
    let m = BandMetrics::evaluate(&amp, &band).expect("reference design feasible");

    let in_band = rfkit_num::linspace(band.f_lo(), band.f_hi(), band.n_points());
    let mut freqs = in_band.clone();
    freqs.extend_from_slice(BandSpec::stability_grid());
    let points: Vec<_> = freqs
        .iter()
        .map(|&f| amp.metrics(f).expect("feasible"))
        .collect();
    let mut worst_nf = f64::NEG_INFINITY;
    let mut min_gain = f64::INFINITY;
    let mut worst_s11 = f64::NEG_INFINITY;
    let mut worst_s22 = f64::NEG_INFINITY;
    for p in &points[..in_band.len()] {
        worst_nf = worst_nf.max(p.nf_db);
        min_gain = min_gain.min(p.gain_db);
        worst_s11 = worst_s11.max(p.s11_db);
        worst_s22 = worst_s22.max(p.s22_db);
    }
    let mut min_mu = f64::INFINITY;
    let mut min_k = f64::INFINITY;
    for p in &points[in_band.len()..] {
        min_mu = min_mu.min(p.mu);
        min_k = min_k.min(p.k);
    }

    // Exact bits, not tolerances: the noise figure and every other band
    // metric must be unchanged by the fast-path refactor.
    assert_eq!(m.worst_nf_db, worst_nf);
    assert_eq!(m.min_gain_db, min_gain);
    assert_eq!(m.worst_s11_db, worst_s11);
    assert_eq!(m.worst_s22_db, worst_s22);
    assert_eq!(m.min_mu, min_mu);
    assert_eq!(m.min_k, min_k);

    // And the memoized value is the same object's worth of bits again.
    let cache = DesignCache::new(4);
    assert_eq!(cache.evaluate(&device, vars, &band), Some(m));
    assert_eq!(cache.evaluate(&device, vars, &band), Some(m));
    assert_eq!(cache.hits(), 1);
}
