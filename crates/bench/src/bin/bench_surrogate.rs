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
//! The report is written with `rfkit_obs::json::JsonObj`, so a
//! non-finite value (the hypervolume ratio of a seed whose baseline
//! finds no stable design) lands as `null` and the file still parses.
//!
//! Usage: `bench_surrogate [--pop N] [--gens N] [--warm-gens N]
//! [--seed N] [--out PATH] [--profile-out PATH]`. Defaults:
//! 48 / 40 / 80 / 0xf4 / `results/BENCH_surrogate.json`; CI runs a tiny
//! configuration and writes to a scratch path so the committed
//! full-size artifact survives. The screen runs the study's one
//! configuration (`lna::study_screen_config`).

use lna::{
    pareto_front_study, study_screen_config, BandSpec, DesignCache, ParetoStudy, ParetoStudyConfig,
    STUDY_REFERENCE,
};
use rfkit_device::Phemt;
use rfkit_obs::json::JsonObj;
use std::time::Instant;

struct Args {
    pop: usize,
    gens: usize,
    seed: u64,
    out: String,
    profile_out: String,
    warm_gens: Option<usize>,
}

fn parse_args() -> Args {
    let mut a = Args {
        pop: 48,
        gens: 40,
        seed: 0xf4,
        out: String::from("results/BENCH_surrogate.json"),
        profile_out: String::from("results/PROFILE_bench_surrogate.json"),
        warm_gens: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_default();
        let ok = match flag.as_str() {
            "--pop" => value.parse().map(|v: usize| a.pop = v.max(4)).is_ok(),
            "--gens" => value.parse().map(|v: usize| a.gens = v.max(1)).is_ok(),
            "--seed" => value.parse().map(|v| a.seed = v).is_ok(),
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
                     --warm-gens N / --seed N / --out PATH / --profile-out PATH)"
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

/// `v` rounded to `decimals` places, the report's precision for that
/// field; non-finite values pass through and the writer turns them into
/// `null`.
fn rounded(v: f64, decimals: usize) -> f64 {
    format!("{v:.decimals$}").parse().unwrap_or(v)
}

fn arm_json(arm: &Arm) -> String {
    let s = &arm.study;
    let mut o = JsonObj::new();
    o.num("front_points", s.front.len() as f64);
    o.num("hypervolume", rounded(s.hypervolume, 6));
    o.num("evaluations", s.evaluations as f64);
    o.num("band_evaluations", s.band_evaluations as f64);
    o.num("cache_hits", s.cache_hits as f64);
    o.num("feasible_evaluations", arm.feasible_evals as f64);
    if let Some(st) = s.screen_stats {
        let mut screen = JsonObj::new();
        screen.num("fits", st.fits as f64);
        screen.num("accepted", st.accepted as f64);
        screen.num("rejected", st.rejected as f64);
        screen.num("explored", st.explored as f64);
        screen.num("fallbacks", st.fallbacks as f64);
        screen.num("forced", st.forced as f64);
        o.raw("screen", &screen.finish());
    }
    o.num("elapsed_s", rounded(arm.elapsed_s, 3));
    o.finish()
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
    let screened_cfg = ParetoStudyConfig {
        surrogate: Some(study_screen_config(0x5ca1e)),
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

    let mut warmup = JsonObj::new();
    warmup.num("generations", warm_cfg.generations as f64);
    warmup.num("band_evaluations", baseline.warmup.band_evaluations as f64);
    warmup.num("hypervolume", rounded(baseline.warmup.hypervolume, 6));
    let mut arms = JsonObj::new();
    arms.raw("baseline", &arm_json(&baseline));
    arms.raw("screened", &arm_json(&screened));
    let mut doc = JsonObj::new();
    doc.num("population", args.pop as f64);
    doc.num("generations", args.gens as f64);
    doc.raw("seed", &args.seed.to_string());
    doc.raw(
        "reference",
        &format!("[{}, {}]", STUDY_REFERENCE[0], STUDY_REFERENCE[1]),
    );
    doc.raw("warmup", &warmup.finish());
    doc.raw("arms", &arms.finish());
    doc.num("reduction", rounded(reduction, 4));
    doc.num("hv_ratio", rounded(hv_ratio, 4));
    doc.raw("meets_target", &meets_target.to_string());
    doc.str("profile", &args.profile_out);
    let json = doc.finish() + "\n";
    if let Some(dir) = std::path::Path::new(&args.out).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output dir");
        }
    }
    std::fs::write(&args.out, &json).expect("write benchmark JSON");
    println!("\nwrote {}", args.out);
    rfkit_obs::flush();
}
