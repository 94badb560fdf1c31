//! `design` workload: repeated `design_lna` runs at the example budget.
//!
//! Each run is a full goal-attainment design (6,000 objective
//! evaluations, default goals) with its own optimizer seed drawn from the
//! workload seed and its own fresh `DesignCache`. Nearly all the time goes
//! to band evaluation and the layers beneath it; about 8k distinct
//! candidates meet a 4,096-entry cache, so the cache mostly takes writes
//! and evictions.

use std::time::Instant;

use lna::{
    cached_band_objectives, design_lna, BandSpec, DesignCache, DesignConfig, DesignGoals,
    DesignVariables, LnaDesign,
};
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_opt::{improved_goal_attainment, GoalConfig, GoalProblem, GoalResult};

use crate::layers::{self, Recorder, Tracer};
use crate::stats::{median, quantile};
use crate::{Args, Report};

/// Objective-evaluation budget of one run (the design example's).
pub const EVALS: usize = 6_000;
/// Runs always completed, whatever `--seconds` says, so the tail
/// percentile below always has ten samples beyond it.
const MIN_RUNS: usize = 40;
/// Tail percentile of run time reported as `tail_ms`.
const TAIL_Q: f64 = 0.75;
/// `design_gamma` is the median attainment of this many leading runs, a
/// fixed set of optimizer seeds for each workload seed.
const QUALITY_RUNS: usize = MIN_RUNS;
/// Per-run quality gates on the attainment γ and the snapped design's
/// worst in-band NF, set above the worst of 120 seeds at this budget
/// (γ 1.95, NF 0.733 dB).
const GAMMA_LIMIT: f64 = 2.3;
const NF_LIMIT_DB: f64 = 0.85;
/// Reference attainment (median over the same 120 seeds); `quality` is
/// this over `design_gamma`, so higher is better.
const GAMMA_REF: f64 = 1.55;
/// Seed salt so the workloads draw unrelated streams from one seed.
const SALT: u64 = 0xde51_9000;

/// Optimizer seeds of the workload, in run order.
pub fn seeds(seed: u64) -> impl Iterator<Item = u64> {
    let mut rng = Rng64::new(seed ^ SALT);
    std::iter::repeat_with(move || rng.next_u64())
}

fn config(seed: u64) -> DesignConfig {
    DesignConfig {
        max_evals: EVALS,
        seed,
        ..DesignConfig::default()
    }
}

/// Checks one finished design against the quality gates.
fn check(d: &LnaDesign, goals: &DesignGoals, seed: u64) -> Result<(), String> {
    let m = &d.snapped_metrics;
    if !m.feasible(goals.return_loss_db) {
        return Err(format!(
            "design seed {seed}: snapped design infeasible: {m:?}"
        ));
    }
    if d.attainment > GAMMA_LIMIT {
        return Err(format!(
            "design seed {seed}: attainment {} > {GAMMA_LIMIT}",
            d.attainment
        ));
    }
    if m.worst_nf_db > NF_LIMIT_DB {
        return Err(format!(
            "design seed {seed}: worst NF {} dB > {NF_LIMIT_DB} dB",
            m.worst_nf_db
        ));
    }
    Ok(())
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let setup = crate::setup_seconds("design");
    let device = Phemt::atf54143_like();
    let goals = DesignGoals::default();
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut gammas = Vec::new();
    for seed in seeds(args.seed) {
        if times.len() >= MIN_RUNS && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let d = design_lna(&device, &goals, &config(seed));
        times.push(t.elapsed().as_secs_f64());
        if gammas.len() < QUALITY_RUNS {
            gammas.push(d.attainment);
        }
        report.op(check(&d, &goals, seed));
    }
    report.note(format!(
        "design_s = {:.4} s (median of {} runs; p{:.0} {:.4} s)",
        median(&times),
        times.len(),
        TAIL_Q * 100.0,
        quantile(&times, TAIL_Q)
    ));
    let design_gamma = median(&gammas);
    report.note(format!(
        "design_gamma = {design_gamma:.4} (median over the first {} runs)",
        gammas.len()
    ));
    report.metric("op_ms", median(&times) * 1e3, "ms");
    report.metric("quality", GAMMA_REF / design_gamma, "ratio");
    crate::common_metrics(&mut report, setup, crate::stats::peak_rss_mb());
    report
}

/// The optimize phase of `design_lna`, replayed through the public
/// calls: `cached_band_objectives` (optionally behind a timing wrapper)
/// handed to `GoalProblem` + `improved_goal_attainment` with the same
/// goals, weights and solver configuration. Returns the result, the
/// cache's eviction count and the optimizer's wall time.
fn replay(
    device: &Phemt,
    band: &BandSpec,
    seed: u64,
    rec: Option<&Recorder>,
) -> (GoalResult, u64, f64) {
    let goals = DesignGoals::default();
    let cache = DesignCache::with_default_capacity();
    let objectives = cached_band_objectives(device, band, &cache);
    let plain: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let wrapped = rec.map(|r| r.wrap(&cache, plain));
    let objective: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = match &wrapped {
        Some(w) => w,
        None => plain,
    };
    let problem = GoalProblem::new(
        objective,
        vec![
            goals.nf_db,
            -goals.gain_db,
            goals.return_loss_db,
            goals.return_loss_db,
            -goals.stability_margin,
        ],
        vec![goals.nf_weight, goals.gain_weight, 0.0, 0.0, 0.0],
        DesignVariables::bounds(),
    );
    let cfg = GoalConfig {
        max_evals: EVALS,
        seed,
        multistart: 1,
        global_fraction: 0.7,
        ..Default::default()
    };
    let t = Instant::now();
    let result = improved_goal_attainment(&problem, &cfg);
    let wall = t.elapsed().as_secs_f64();
    (result, cache.evictions(), wall)
}

pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let goals = DesignGoals::default();
    let mut tracer = Tracer::new("design");
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    let mut summary = layers::ObjectiveSummary::default();
    let (mut evals, mut evictions) = (0u64, 0u64);
    let mut replay_match = true;
    let mut candidates = Vec::new();
    let t0 = Instant::now();
    for seed in seeds(args.seed) {
        if !traced.is_empty() && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let d = design_lna(&device, &goals, &config(seed));
        report.op(check(&d, &goals, seed));
        untraced.push(replay(&device, &band, seed, None).2);
        let rec = Recorder::new();
        tracer.arm();
        let (r, evicted, wall) = replay(&device, &band, seed, Some(&rec));
        if let Err(e) = tracer.collect() {
            report.op(Err(e));
        }
        traced.push(wall);
        let same = DesignVariables::from_vec(&r.x) == d.continuous;
        if !same {
            report.note(format!(
                "replay mismatch: seed {seed} landed elsewhere than design_lna"
            ));
        }
        replay_match &= same;
        let s = rec.summary();
        summary.add(&s);
        evals += r.evaluations as u64;
        evictions += evicted;
        if candidates.is_empty() {
            candidates = rec.candidates();
        }
        report.op(if s.hits + s.misses == r.evaluations as u64 {
            Ok(())
        } else {
            Err(format!(
                "replay seed {seed}: {} objective calls for {} evaluations",
                s.hits + s.misses,
                r.evaluations
            ))
        });
    }
    let n = traced.len() as f64;
    let opt_wall: f64 = traced.iter().sum();
    report.note(format!("profile: {}", tracer.path()));
    layers::point_layers(
        &mut report,
        &device,
        &band,
        &layers::sample(&device, &candidates),
    );
    layers::band_and_cache(&mut report, &summary, evictions, n);
    layers::program_counters(&mut report, &tracer, n);
    layers::par_dispatch(&mut report);
    report.metric("opt.evals", evals as f64 / n, "count");
    report.metric("opt.objective_s", summary.busy_s / n, "s");
    report.metric("opt.self_s", (opt_wall - summary.busy_s) / n, "s");
    report.metric(
        "opt.replay_match",
        f64::from(u8::from(replay_match)),
        "bool",
    );
    layers::not_exercised(
        &mut report,
        &[
            ("surrogate.fits", "count"),
            ("surrogate.fit_s", "s"),
            ("surrogate.keep_ratio", "ratio"),
        ],
    );
    crate::serve::not_exercised(&mut report);
    layers::overhead(&mut report, &untraced, &traced);
    report
}
