//! BENCH_surrogate: surrogate-screened NSGA-II band study vs the plain
//! baseline on a warm design cache.
//!
//! The protocol mirrors how the screen is deployed: a design flow that
//! already paid for band sweeps (yesterday's study, a parameter sweep)
//! holds them in the [`lna::DesignCache`], and the next study both
//! warm-starts from the known front and trains a surrogate from the
//! cached points. Concretely, each arm runs on its own fresh cache:
//!
//! 1. *warm-up* — an identical plain study (same decorrelated seed in
//!    both arms, `--warm-gens`, default twice the measured
//!    generations) populates the cache and produces a front;
//! 2. *measured phase* — a study warm-started from that front, plain
//!    for the baseline arm and screened for the surrogate arm,
//!    otherwise knob-for-knob identical.
//!
//! The headline numbers are **counted, not timed**: `band_evaluations`
//! is the number of full band sweeps the measured phase actually
//! computed (design-cache misses), deterministic for a fixed seed at
//! any `RFKIT_THREADS`, so a single run per arm is exact.
//!
//! Reported: the band-evaluation reduction factor (baseline ÷
//! screened), the hypervolume of both fronts against the study
//! reference point, and the screen's own decision counters. The
//! committed artifact must show `reduction >= 3` at `hv_ratio >= 0.99`
//! (hypervolume within 1% — the screen may also *improve* it, since
//! pruned junk frees budget near the front). `meets_target` records
//! that verdict.
//!
//! The screened run executes under aggregate-mode profiling
//! (`results/PROFILE_bench_surrogate.json`): the profile shows the
//! `surrogate.fit` span cost against the `study.pareto` total, i.e. what
//! the model fits cost next to the sweeps they avoided. Telemetry is
//! restored to the environment's configuration afterwards so a traced CI
//! invocation still flushes its own profile.
//!
//! Usage: `bench_surrogate [--pop N] [--gens N] [--warm-gens N]
//! [--seed N] [--out PATH] [--profile-out PATH]` plus screen-override
//! flags (`--kappa` / `--min-improvement` / `--patience` /
//! `--keep-frac` / `--explore-min`) for tuning experiments. Defaults:
//! 48 / 40 / 80 / 0xf4 / `results/BENCH_surrogate.json`; CI runs a tiny
//! configuration and writes to a scratch path so the committed
//! full-size artifact survives.

use lna::{
    pareto_front_study, study_screen_config, BandSpec, DesignCache, ParetoStudy, ParetoStudyConfig,
    STUDY_REFERENCE,
};
use rfkit_device::Phemt;
use std::time::Instant;

struct Args {
    pop: usize,
    gens: usize,
    seed: u64,
    out: String,
    profile_out: String,
    kappa: Option<f64>,
    min_improvement: Option<f64>,
    patience: Option<u64>,
    keep_frac: Option<f64>,
    explore_min: Option<f64>,
    warm_gens: Option<usize>,
}

fn parse_args() -> Args {
    let mut a = Args {
        pop: 48,
        gens: 40,
        seed: 0xf4,
        out: String::from("results/BENCH_surrogate.json"),
        profile_out: String::from("results/PROFILE_bench_surrogate.json"),
        kappa: None,
        min_improvement: None,
        patience: None,
        keep_frac: None,
        explore_min: None,
        warm_gens: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        let ok = match flag.as_str() {
            "--pop" => value.parse().map(|v: usize| a.pop = v.max(4)).is_ok(),
            "--gens" => value.parse().map(|v: usize| a.gens = v.max(1)).is_ok(),
            "--seed" => value.parse().map(|v| a.seed = v).is_ok(),
            "--kappa" => value.parse().map(|v| a.kappa = Some(v)).is_ok(),
            "--min-improvement" => value.parse().map(|v| a.min_improvement = Some(v)).is_ok(),
            "--patience" => value.parse().map(|v| a.patience = Some(v)).is_ok(),
            "--keep-frac" => value.parse().map(|v| a.keep_frac = Some(v)).is_ok(),
            "--explore-min" => value.parse().map(|v| a.explore_min = Some(v)).is_ok(),
            "--warm-gens" => value
                .parse()
                .map(|v: usize| a.warm_gens = Some(v.max(1)))
                .is_ok(),
            "--out" => {
                a.out = value.clone();
                !value.is_empty()
            }
            "--profile-out" => {
                a.profile_out = value.clone();
                !value.is_empty()
            }
            other => {
                eprintln!(
                    "bench_surrogate: unknown argument `{other}` (use --pop N / --gens N / \
                     --seed N / --out PATH / --profile-out PATH, or screen overrides \
                     --kappa X / --min-improvement X / --patience N / --keep-frac X / \
                     --explore-min X)"
                );
                std::process::exit(2);
            }
        };
        if !ok {
            eprintln!("bench_surrogate: `{flag}` needs a valid value, got `{value}`");
            std::process::exit(2);
        }
    }
    a
}

struct Arm {
    /// Identical plain warm-up both arms pay for (excluded from the
    /// headline numbers).
    warmup: ParetoStudy,
    /// The measured phase: plain for the baseline, screened for the
    /// surrogate arm.
    study: ParetoStudy,
    elapsed_s: f64,
    /// Evaluated designs that came back feasible and unconditionally
    /// stable — the rest is the "sea" the screen is meant to prune.
    feasible_evals: usize,
}

fn run_arm(
    device: &Phemt,
    band: &BandSpec,
    warm_cfg: &ParetoStudyConfig,
    config: &ParetoStudyConfig,
) -> Arm {
    // Fresh cache per arm, warmed by the same plain study (same seed →
    // bit-identical warm-up cost and cache contents). `band_evaluations`
    // of the measured phase then counts every sweep that phase paid
    // for, with no cross-arm memoization. Both arms continue from the
    // warm-up's front (warm-started initial population), so the
    // measured phase is the refinement workload the screen targets.
    let cache = DesignCache::with_default_capacity();
    let warmup = pareto_front_study(device, band, warm_cfg, &cache);
    let config = ParetoStudyConfig {
        initial: warmup.front.iter().map(|i| i.x.clone()).collect(),
        ..config.clone()
    };
    let start = Instant::now();
    let study = pareto_front_study(device, band, &config, &cache);
    let elapsed_s = start.elapsed().as_secs_f64();
    let feasible_evals = cache
        .snapshot()
        .iter()
        .filter(|(_, m)| m.is_some_and(|m| m.min_mu > 1.0))
        .count();
    Arm {
        warmup,
        study,
        elapsed_s,
        feasible_evals,
    }
}

fn arm_json(out: &mut String, name: &str, arm: &Arm, last: bool) {
    let s = &arm.study;
    out.push_str(&format!("    \"{name}\": {{\n"));
    out.push_str(&format!("      \"front_points\": {},\n", s.front.len()));
    out.push_str(&format!("      \"hypervolume\": {:.6},\n", s.hypervolume));
    out.push_str(&format!("      \"evaluations\": {},\n", s.evaluations));
    out.push_str(&format!(
        "      \"band_evaluations\": {},\n",
        s.band_evaluations
    ));
    out.push_str(&format!("      \"cache_hits\": {},\n", s.cache_hits));
    out.push_str(&format!(
        "      \"feasible_evaluations\": {},\n",
        arm.feasible_evals
    ));
    if let Some(st) = s.screen_stats {
        out.push_str("      \"screen\": {\n");
        out.push_str(&format!("        \"fits\": {},\n", st.fits));
        out.push_str(&format!("        \"accepted\": {},\n", st.accepted));
        out.push_str(&format!("        \"rejected\": {},\n", st.rejected));
        out.push_str(&format!("        \"explored\": {},\n", st.explored));
        out.push_str(&format!("        \"fallbacks\": {},\n", st.fallbacks));
        out.push_str(&format!("        \"forced\": {}\n", st.forced));
        out.push_str("      },\n");
    }
    out.push_str(&format!("      \"elapsed_s\": {:.3}\n", arm.elapsed_s));
    out.push_str(if last { "    }\n" } else { "    },\n" });
}

fn main() {
    let args = parse_args();
    lna_bench::header(
        "BENCH_surrogate",
        "surrogate-screened band study: true evaluations pruned at equal Pareto quality",
    );
    println!(
        "study: population {}, {} generations ({} warm-up), seed {:#x}; band 1.1-1.7 GHz\n",
        args.pop,
        args.gens,
        args.warm_gens.unwrap_or(2 * args.gens),
        args.seed
    );

    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    // Warm-up seed is decorrelated from the measured seed: the warm
    // cache must come from a *different* search trajectory, as it would
    // in practice (yesterday's sweeps warming today's study).
    let warm_cfg = ParetoStudyConfig {
        population: args.pop,
        generations: args.warm_gens.unwrap_or(2 * args.gens),
        seed: args.seed ^ 0x9e37,
        initial: Vec::new(),
        surrogate: None,
    };
    let plain_cfg = ParetoStudyConfig {
        population: args.pop,
        generations: args.gens,
        seed: args.seed,
        initial: Vec::new(),
        surrogate: None,
    };
    let mut screen_cfg = study_screen_config(0x5ca1e);
    if let Some(v) = args.kappa {
        screen_cfg.kappa = v;
    }
    if let Some(v) = args.min_improvement {
        screen_cfg.min_improvement = v;
    }
    if let Some(v) = args.patience {
        screen_cfg.improvement_patience = v;
    }
    if let Some(v) = args.keep_frac {
        screen_cfg.min_keep_frac = v;
    }
    if let Some(v) = args.explore_min {
        screen_cfg.explore_min = v;
    }
    let screened_cfg = ParetoStudyConfig {
        surrogate: Some(screen_cfg),
        ..plain_cfg.clone()
    };

    let baseline = run_arm(&device, &band, &warm_cfg, &plain_cfg);
    println!(
        "warm-up : {:>5} band sweeps (identical for both arms, excluded from the comparison)",
        baseline.warmup.band_evaluations
    );
    println!(
        "baseline: {:>5} band sweeps ({:>4} feasible), hypervolume {:>9.4}, {:>3} front points ({:.2} s)",
        baseline.study.band_evaluations,
        baseline.feasible_evals,
        baseline.study.hypervolume,
        baseline.study.front.len(),
        baseline.elapsed_s
    );

    // Screened arm under aggregate-mode profiling: fit cost vs study
    // total lands in the committed profile artifact.
    rfkit_obs::init(&rfkit_obs::TraceConfig {
        trace: true,
        out: Some(args.profile_out.clone().into()),
        ..rfkit_obs::TraceConfig::default()
    });
    let screened = run_arm(&device, &band, &warm_cfg, &screened_cfg);
    rfkit_obs::flush();
    rfkit_obs::init(&rfkit_obs::TraceConfig::from_env());
    println!(
        "screened: {:>5} band sweeps ({:>4} feasible), hypervolume {:>9.4}, {:>3} front points ({:.2} s)",
        screened.study.band_evaluations,
        screened.feasible_evals,
        screened.study.hypervolume,
        screened.study.front.len(),
        screened.elapsed_s
    );

    let stats = screened.study.screen_stats.expect("screen was armed");
    // Equal-quality crossing: first evaluation count at which each arm
    // reaches 99% of the baseline's final hypervolume.
    let target_hv = 0.99 * baseline.study.hypervolume;
    let cross = |arm: &Arm| {
        arm.study
            .history
            .iter()
            .find(|(_, hv)| *hv >= target_hv)
            .map(|(e, _)| *e)
    };
    let base_cross = cross(&baseline);
    let scr_cross = cross(&screened);
    println!(
        "equal-quality: target hv {:.4}; baseline crosses at {:?} evals, screened at {:?} evals",
        target_hv, base_cross, scr_cross
    );
    let reduction =
        baseline.study.band_evaluations as f64 / screened.study.band_evaluations.max(1) as f64;
    let hv_ratio = if baseline.study.hypervolume > 0.0 {
        screened.study.hypervolume / baseline.study.hypervolume
    } else {
        f64::NAN
    };
    let meets_target = reduction >= 3.0 && hv_ratio >= 0.99;
    println!(
        "\nscreen: {} fits, {} accepted / {} rejected / {} explored / {} fallback / {} forced",
        stats.fits, stats.accepted, stats.rejected, stats.explored, stats.fallbacks, stats.forced
    );
    println!(
        "band evaluations {} -> {} ({reduction:.2}x fewer sweeps), hypervolume ratio {hv_ratio:.4} \
         -> target (>=3x at >=0.99) {}",
        baseline.study.band_evaluations,
        screened.study.band_evaluations,
        if meets_target { "MET" } else { "NOT met" }
    );

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"population\": {},\n", args.pop));
    json.push_str(&format!("  \"generations\": {},\n", args.gens));
    json.push_str(&format!("  \"seed\": {},\n", args.seed));
    json.push_str(&format!(
        "  \"reference\": [{}, {}],\n",
        STUDY_REFERENCE[0], STUDY_REFERENCE[1]
    ));
    json.push_str("  \"warmup\": {\n");
    json.push_str(&format!("    \"generations\": {},\n", warm_cfg.generations));
    json.push_str(&format!(
        "    \"band_evaluations\": {},\n",
        baseline.warmup.band_evaluations
    ));
    json.push_str(&format!(
        "    \"hypervolume\": {:.6}\n",
        baseline.warmup.hypervolume
    ));
    json.push_str("  },\n");
    json.push_str("  \"arms\": {\n");
    arm_json(&mut json, "baseline", &baseline, false);
    arm_json(&mut json, "screened", &screened, true);
    json.push_str("  },\n");
    json.push_str(&format!("  \"reduction\": {reduction:.4},\n"));
    json.push_str(&format!("  \"hv_ratio\": {hv_ratio:.4},\n"));
    json.push_str(&format!("  \"meets_target\": {meets_target},\n"));
    json.push_str(&format!("  \"profile\": \"{}\"\n", args.profile_out));
    json.push_str("}\n");
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.out);
    rfkit_obs::flush();
}
