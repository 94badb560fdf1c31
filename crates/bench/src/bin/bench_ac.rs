//! BENCH_ac: batched AC sweeps vs the legacy per-call MNA solve.
//!
//! Three sweep workloads over the GNSS band — the reference-design
//! netlist as pure RLC assembly/solve, the small output-match network
//! the design example verifies, and the reference netlist with the
//! linearized-pHEMT two-port stamps applied — each timed through two
//! engines:
//!
//! * `legacy`: per-call `two_port_s` (allocates every matrix every call),
//!   the reference oracle;
//! * `batch`: `shared_plan` + `StampPlan::sweep_batch` — the pivot-reuse
//!   engine behind the process-wide plan cache (cache lookup inside the
//!   timed region).
//!
//! Before any timing the batch path is pinned to legacy within the
//! documented `SWEEP_TOL` contract on every grid point, and its
//! workspace counters are checked (one warm-up per sweep).
//!
//! Timing uses adaptive best-of repetition (`time_until_stable`): each
//! region repeats until its minimum stops improving, and the JSON
//! records the repetition count actually used per sweep. `timing_noisy`
//! is true only when some region's minimum failed to settle within the
//! repetition budget — not inferred from the core count.
//!
//! The run also exercises the snapped-design memo cache (guaranteed hits
//! *and* capacity evictions from a deliberately undersized cache), so a
//! traced invocation carries `design.cache.*` (`evict` included),
//! `plan.cache.*` and `circuit.ac.sweep.*` counters for the CI `--expect`
//! stage. Results go to `results/BENCH_ac.json`.
//!
//! Usage: `bench_ac [--points N] [--reps N] [--out PATH]` (defaults
//! 801 / 5 / `results/BENCH_ac.json`; `--reps` is the *minimum*
//! repetition count — the stability rule may use up to 10×. CI runs a
//! tiny grid and writes to a scratch path so the committed full-sweep
//! artifact survives).

use lna::{
    cached_band_objectives, output_match_network, reference_netlist, snap_to_catalog, BandSpec,
    DesignCache, DesignVariables,
};
use lna_bench::timing::time_until_stable;
use rfkit_circuit::{
    shared_plan, shared_plan_cache, two_port_s, AcStamps, AcWorkspace, Circuit, StampPlan,
    SWEEP_TOL,
};
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;
use rfkit_num::linspace;
use rfkit_num::rng::Rng64;
use rfkit_num::MemoMap;
use std::hint::black_box;
use std::sync::Arc;

/// The design variables of the committed reference schematic (the same
/// values `reference_design_circuit` hard-coded before the builders
/// moved to `lna::verify`).
fn reference_vars() -> DesignVariables {
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

/// Command-line grid size / repetition count / output paths with
/// defaults.
fn parse_args() -> (usize, usize, String, String) {
    let (mut points, mut reps) = (801usize, 5usize);
    let mut out = String::from("results/BENCH_ac.json");
    let mut profile_out = String::from("results/PROFILE_bench_ac.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--out" || a == "--profile-out" {
            let slot = if a == "--out" {
                &mut out
            } else {
                &mut profile_out
            };
            *slot = args.next().unwrap_or_default();
            if slot.is_empty() {
                eprintln!("bench_ac: `{a}` needs a path");
                std::process::exit(2);
            }
            continue;
        }
        let slot = match a.as_str() {
            "--points" => &mut points,
            "--reps" => &mut reps,
            other => {
                eprintln!(
                    "bench_ac: unknown argument `{other}` (use --points N / --reps N / \
                     --out PATH / --profile-out PATH)"
                );
                std::process::exit(2);
            }
        };
        let value = args.next().unwrap_or_default();
        *slot = value.parse().ok().filter(|&v| v > 0).unwrap_or_else(|| {
            eprintln!("bench_ac: `{a}` needs a positive integer, got `{value}`");
            std::process::exit(2);
        });
    }
    (points.max(2), reps, out, profile_out)
}

/// Relative-improvement threshold for the adaptive timing stopping rule.
const TIMING_TOL: f64 = 0.05;

struct SweepResult {
    name: &'static str,
    legacy_s: f64,
    batch_s: f64,
    points: usize,
    reps_used: usize,
    stable: bool,
    refactors: usize,
}

impl SweepResult {
    fn batch_speedup(&self) -> f64 {
        self.legacy_s / self.batch_s
    }
    fn legacy_us_per_point(&self) -> f64 {
        self.legacy_s / self.points as f64 * 1e6
    }
    fn batch_us_per_point(&self) -> f64 {
        self.batch_s / self.points as f64 * 1e6
    }
}

/// Asserts legacy/batch `SWEEP_TOL` agreement across the whole grid, then
/// times both engines. Returns the timings plus the workspace counters of
/// the (untimed) equivalence sweep as the no-allocation evidence.
fn bench_sweep(
    name: &'static str,
    c: &Circuit,
    stamps: &AcStamps<'_>,
    grid: &[f64],
    min_reps: usize,
) -> (SweepResult, u64, u64) {
    let max_reps = min_reps.saturating_mul(10);
    let plan = shared_plan(c).expect("netlist compiles");
    let mut ws = AcWorkspace::new();
    let batch = plan.sweep_batch(grid, stamps, &mut ws);
    let (warmups, reuses) = (ws.warmup_count(), ws.reuse_count());
    assert!(
        batch.failures().is_empty(),
        "{name}: batch sweep had failures"
    );
    for (p, &f) in grid.iter().enumerate() {
        let legacy = two_port_s(c, f, stamps).expect("legacy solves");
        let got = batch.two_port(p).expect("batch point ok");
        for (a, b) in [
            (got.s11(), legacy.s11()),
            (got.s12(), legacy.s12()),
            (got.s21(), legacy.s21()),
            (got.s22(), legacy.s22()),
        ] {
            assert!(
                (a - b).abs() <= SWEEP_TOL,
                "{name}: batch left the SWEEP_TOL envelope at {f} Hz"
            );
        }
    }
    let refactors = batch.stats().refactors;

    let (legacy_s, r1, s1) = time_until_stable(min_reps, max_reps, TIMING_TOL, || {
        for &f in grid {
            black_box(two_port_s(c, f, stamps).expect("legacy solves"));
        }
    });
    // Batch path: shared-plan lookup inside the timed region (a cache hit
    // after the equivalence sweep above), then one batched call.
    let (batch_s, r2, s2) = time_until_stable(min_reps, max_reps, TIMING_TOL, || {
        let plan = shared_plan(c).expect("cached plan");
        let mut ws = AcWorkspace::new();
        black_box(plan.sweep_batch(grid, stamps, &mut ws));
    });
    let r = SweepResult {
        name,
        legacy_s,
        batch_s,
        points: grid.len(),
        reps_used: r1.max(r2),
        stable: s1 && s2,
        refactors,
    };
    println!(
        "{:>24}: legacy {:>9.1} us/pt | batch {:>8.1} us/pt ({:.2}x, {} refactor(s))",
        r.name,
        r.legacy_us_per_point(),
        r.batch_us_per_point(),
        r.batch_speedup(),
        r.refactors,
    );
    (r, warmups, reuses)
}

struct CacheStats {
    capacity: usize,
    working_set: usize,
    hits: u64,
    misses: u64,
    hit_rate: f64,
    tiny_capacity: usize,
    tiny_evictions: u64,
}

/// Runs the memo cache against snapped optimizer-style candidates. The
/// main cache is sized to the working set (no evictions, guaranteed
/// hits); a deliberately undersized second cache forces capacity
/// evictions past its hit count, so a traced run's `design.cache.evict`
/// counter is nonzero.
fn exercise_cache(device: &Phemt) -> CacheStats {
    let band = BandSpec::new(1.1e9, 1.7e9, 3);
    let mut rng = Rng64::new(0xbe_c4c4e);
    let mut xs: Vec<Vec<f64>> = (0..6)
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
    let working_set = xs.len();
    let dup = xs.clone();
    xs.extend(dup); // every candidate evaluated twice -> >=6 hits

    // Sized to the working set: every re-evaluation hits, nothing evicts.
    let capacity = working_set.max(lna::DEFAULT_CACHE_CAPACITY.min(64));
    let cache = DesignCache::new(capacity);
    let obj = cached_band_objectives(device, &band, &cache);
    for x in &xs {
        black_box(obj(x));
    }
    assert_eq!(cache.evictions(), 0, "main cache must hold its working set");

    // Capacity-2 cache over 6 distinct designs: forced evictions and no
    // hits, the signature of a thrashing cache.
    let tiny = DesignCache::new(2);
    let tiny_obj = cached_band_objectives(device, &band, &tiny);
    for x in xs.iter().take(working_set) {
        black_box(tiny_obj(x));
    }

    CacheStats {
        capacity,
        working_set,
        hits: cache.hits(),
        misses: cache.misses(),
        hit_rate: cache.hit_rate(),
        tiny_capacity: 2,
        tiny_evictions: tiny.evictions(),
    }
}

struct AggOverhead {
    off_s: f64,
    agg_s: f64,
    overhead_frac: f64,
    off_p50_us: f64,
    agg_p50_us: f64,
    reps: usize,
    profile: String,
}

/// Overhead of profiling on the RLC batch workload: best-of timings
/// of the identical sweep with telemetry fully disabled and then armed.
/// The armed phase leaves its call-path profile at `profile_out` (the
/// flush is outside the timed region — steady-state recording cost is
/// the claim, not serialization). Telemetry is restored to the
/// environment's configuration before returning, so a traced CI
/// invocation still flushes its own profile afterwards; re-arming starts
/// a fresh call tree, so that profile's spans cover only the rest of the
/// run, while counters and histograms stay process-cumulative.
fn measure_agg_overhead(
    c: &Circuit,
    grid: &[f64],
    min_reps: usize,
    profile_out: &str,
) -> AggOverhead {
    use lna_bench::timing::time_best_of_stats;
    let stamps = AcStamps::none();
    let reps = min_reps.max(5);
    let run = |reps: usize| {
        time_best_of_stats(reps, || {
            let plan = shared_plan(c).expect("cached plan");
            let mut ws = AcWorkspace::new();
            black_box(plan.sweep_batch(grid, &stamps, &mut ws));
        })
    };

    rfkit_obs::init(&rfkit_obs::TraceConfig::default());
    let (off_s, off_stats) = run(reps);

    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(profile_out.into()),
        ..rfkit_obs::TraceConfig::default()
    });
    let (agg_s, agg_stats) = run(reps);
    rfkit_obs::flush();

    rfkit_obs::init(&rfkit_obs::TraceConfig::from_env());

    AggOverhead {
        off_s,
        agg_s,
        overhead_frac: agg_s / off_s - 1.0,
        off_p50_us: off_stats.p50_us(),
        agg_p50_us: agg_stats.p50_us(),
        reps,
        profile: profile_out.to_string(),
    }
}

#[allow(clippy::too_many_arguments)]
fn to_json(
    cores: usize,
    points: usize,
    min_reps: usize,
    sweeps: &[SweepResult],
    warmups: u64,
    reuses: u64,
    cache: &CacheStats,
    plans: &MemoMap<Vec<u64>, Arc<StampPlan>>,
    agg: &AggOverhead,
    timing_noisy: bool,
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"cores\": {cores},\n"));
    out.push_str(&format!("  \"points\": {points},\n"));
    out.push_str(&format!("  \"reps\": {min_reps},\n"));
    out.push_str(&format!(
        "  \"max_reps\": {},\n",
        min_reps.saturating_mul(10)
    ));
    out.push_str(&format!("  \"timing_tol\": {TIMING_TOL},\n"));
    out.push_str(&format!("  \"timing_noisy\": {timing_noisy},\n"));
    out.push_str("  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str("    {\n");
        out.push_str(&format!("      \"name\": \"{}\",\n", s.name));
        out.push_str(&format!("      \"points\": {},\n", s.points));
        out.push_str(&format!("      \"reps_used\": {},\n", s.reps_used));
        out.push_str(&format!("      \"stable\": {},\n", s.stable));
        out.push_str(&format!("      \"refactors\": {},\n", s.refactors));
        out.push_str(&format!("      \"legacy_s\": {:e},\n", s.legacy_s));
        out.push_str(&format!("      \"batch_s\": {:e},\n", s.batch_s));
        out.push_str(&format!(
            "      \"legacy_per_point_us\": {:.3},\n",
            s.legacy_us_per_point()
        ));
        out.push_str(&format!(
            "      \"batch_per_point_us\": {:.3},\n",
            s.batch_us_per_point()
        ));
        out.push_str(&format!(
            "      \"batch_speedup\": {:.3}\n",
            s.batch_speedup()
        ));
        out.push_str(if i + 1 == sweeps.len() {
            "    }\n"
        } else {
            "    },\n"
        });
    }
    out.push_str("  ],\n");
    out.push_str("  \"workspace\": {\n");
    out.push_str(&format!("    \"warmups\": {warmups},\n"));
    out.push_str(&format!("    \"reuses\": {reuses}\n"));
    out.push_str("  },\n");
    out.push_str("  \"plan_cache\": {\n");
    out.push_str(&format!("    \"hits\": {},\n", plans.hits()));
    out.push_str(&format!("    \"misses\": {},\n", plans.misses()));
    out.push_str(&format!("    \"entries\": {}\n", plans.len()));
    out.push_str("  },\n");
    out.push_str("  \"agg_overhead\": {\n");
    out.push_str(&format!(
        "    \"workload\": \"{}\",\n",
        "rlc_assembly_solve"
    ));
    out.push_str(&format!("    \"reps\": {},\n", agg.reps));
    out.push_str(&format!("    \"off_s\": {:e},\n", agg.off_s));
    out.push_str(&format!("    \"agg_s\": {:e},\n", agg.agg_s));
    out.push_str(&format!(
        "    \"overhead_frac\": {:.4},\n",
        agg.overhead_frac
    ));
    out.push_str(&format!("    \"off_p50_us\": {:.1},\n", agg.off_p50_us));
    out.push_str(&format!("    \"agg_p50_us\": {:.1},\n", agg.agg_p50_us));
    out.push_str(&format!("    \"profile\": \"{}\"\n", agg.profile));
    out.push_str("  },\n");
    out.push_str("  \"cache\": {\n");
    out.push_str(&format!("    \"capacity\": {},\n", cache.capacity));
    out.push_str(&format!("    \"working_set\": {},\n", cache.working_set));
    out.push_str(&format!("    \"hits\": {},\n", cache.hits));
    out.push_str(&format!("    \"misses\": {},\n", cache.misses));
    out.push_str(&format!("    \"hit_rate\": {:.3},\n", cache.hit_rate));
    out.push_str(&format!(
        "    \"tiny_capacity\": {},\n",
        cache.tiny_capacity
    ));
    out.push_str(&format!(
        "    \"tiny_evictions\": {}\n",
        cache.tiny_evictions
    ));
    out.push_str("  }\n}\n");
    out
}

fn main() {
    let (points, min_reps, out_path, profile_out) = parse_args();
    lna_bench::header(
        "BENCH_ac",
        "batched AC sweeps: plan cache + pivot reuse vs legacy solve",
    );
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "machine: {cores} core(s); grid {points} points, adaptive best-of (min {min_reps} reps)\n"
    );

    let vars = reference_vars();
    let mut c = reference_netlist(&vars);
    let (gate, drain) = (c.node("gate"), c.node("drain"));
    let grid = linspace(1.1e9, 1.7e9, points);

    // Workload 1: pure RLC assembly + solve (the cost the compiled plan owns).
    let (rlc, warmups, reuses) =
        bench_sweep("rlc_assembly_solve", &c, &AcStamps::none(), &grid, min_reps);
    assert_eq!(
        (warmups, reuses),
        (1, grid.len() as u64 - 1),
        "sweep should warm the workspace exactly once"
    );

    // Workload 2: the output-match verification network — the exact
    // sub-circuit `examples/design_gnss_lna.rs` sweeps after a design run.
    let out_match = output_match_network(&DesignVariables {
        c2: 2.2e-12,
        ..vars
    });
    let (match_sweep, _, _) = bench_sweep(
        "output_match_solve",
        &out_match,
        &AcStamps::none(),
        &grid,
        min_reps,
    );

    // Workload 3: the reference netlist with the linearized device stamped in —
    // the per-point device linearization is shared cost on both paths, so
    // the measured speedup brackets what real band sweeps see.
    let device = Phemt::atf54143_like();
    let op = device.operating_point(
        device.bias_for_current(3.0, 0.06).expect("reachable bias"),
        3.0,
    );
    let ss = device.small_signal(&op);
    let y_of = move |f: f64| {
        ss.noisy_two_port(f, &NoiseTemperatures::default())
            .abcd
            .to_y()
            .expect("device Y form")
    };
    let stamps = AcStamps::none().two_port(gate, drain, &y_of);
    let (stamped, _, _) = bench_sweep("phemt_stamped_solve", &c, &stamps, &grid, min_reps);

    let timing_noisy = !(rlc.stable && match_sweep.stable && stamped.stable);

    // Aggregate-profiling overhead on the RLC workload. Done after the
    // contract sweeps so the timed regions compare like with like, and
    // before the cache exercise so a traced run's cache counters land in
    // the final environment-configured flush.
    let agg = measure_agg_overhead(&c, &grid, min_reps, &profile_out);
    println!(
        "\nagg-mode profiling overhead (RLC batch, best of {} reps): \
         off {:.1} us/sweep | agg {:.1} us/sweep | overhead {:+.1}% -> {}",
        agg.reps,
        agg.off_s * 1e6,
        agg.agg_s * 1e6,
        agg.overhead_frac * 100.0,
        agg.profile
    );

    println!();
    let cache = exercise_cache(&device);
    println!(
        "memo cache: capacity {} over working set {}, {} hits / {} misses (hit rate {:.2}); \
         capacity-{} run forced {} evictions",
        cache.capacity,
        cache.working_set,
        cache.hits,
        cache.misses,
        cache.hit_rate,
        cache.tiny_capacity,
        cache.tiny_evictions
    );
    let plans = shared_plan_cache();
    println!(
        "plan cache: {} hits / {} misses, {} topologies resident",
        plans.hits(),
        plans.misses(),
        plans.len()
    );

    let json = to_json(
        cores,
        points,
        min_reps,
        &[rlc, match_sweep, stamped],
        warmups,
        reuses,
        &cache,
        plans,
        &agg,
        timing_noisy,
    );
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write benchmark JSON");
    println!("\nwrote {out_path}");
    if timing_noisy {
        println!(
            "note: some timing regions did not settle within the repetition budget — \
             treat speedups as indicative, not exact"
        );
    }
    rfkit_obs::flush();
}
