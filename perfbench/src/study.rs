//! `study` workload: a cold-cache plain NSGA-II Pareto study of the band
//! NF/gain trade-off followed by a surrogate-screened continuation
//! warm-started from its front on the same cache (the shape of
//! `fig4_pareto_front` and `bench_surrogate`).
//!
//! NSGA-II bookkeeping and surrogate fitting take a visible share here;
//! the screen prunes band sweeps and the continuation reads a warm cache.
//! The cache is sized above the number of distinct candidates, so nothing
//! is evicted and the surrogate's training set — and with it the
//! hypervolume — does not depend on thread timing.

use std::process::{Command, Stdio};
use std::time::Instant;

use lna::{
    nf_gain_objectives, pareto_front_study, study_screen_config, surrogate_training_set, BandSpec,
    DesignCache, DesignVariables, ParetoStudy, ParetoStudyConfig, STUDY_REFERENCE,
};
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_opt::{nsga2, nsga2_screened, Individual, Nsga2Config, Nsga2Result};
use rfkit_surrogate::SurrogateScreen;

use crate::layers::{self, Recorder, Tracer};
use crate::stats::{median, quantile};
use crate::{Args, Report};

/// Fig4-sized population and generation counts for both phases.
const POPULATION: usize = 48;
const GENERATIONS: usize = 40;
/// Far above the ~4k distinct candidates two phases visit.
const CACHE_CAPACITY: usize = 1 << 16;
/// Studies always completed, whatever `--seconds` says.
const MIN_STUDIES: usize = 40;
/// Tail percentile of study time reported as `tail_ms`.
const TAIL_Q: f64 = 0.75;
/// `study_hv` is the median final-front hypervolume (against
/// `STUDY_REFERENCE`) of this many leading studies, a fixed set of seeds
/// per workload seed. About 3% of seeds never find an unconditionally
/// stable design and end with hypervolume 0; the median is immune to them.
const QUALITY_STUDIES: usize = MIN_STUDIES;
/// Quality gate on that median, well below the 43.3 median of 60 seeds.
const HV_FLOOR: f64 = 38.0;
/// Reference hypervolume; `quality` is `study_hv` over this.
const HV_REF: f64 = 43.0;
const SALT: u64 = 0x57d7_0000;

/// The three seeds of one study: plain optimizer, continuation
/// optimizer, surrogate screen.
#[derive(Clone, Copy)]
pub struct StudySeeds {
    plain: u64,
    cont: u64,
    screen: u64,
}

pub fn seeds(seed: u64) -> impl Iterator<Item = StudySeeds> {
    let mut rng = Rng64::new(seed ^ SALT);
    std::iter::repeat_with(move || StudySeeds {
        plain: rng.next_u64(),
        cont: rng.next_u64(),
        screen: rng.next_u64(),
    })
}

fn plain_config(s: &StudySeeds) -> ParetoStudyConfig {
    ParetoStudyConfig {
        population: POPULATION,
        generations: GENERATIONS,
        seed: s.plain,
        initial: Vec::new(),
        surrogate: None,
    }
}

fn front_xs(front: &[Individual]) -> Vec<Vec<f64>> {
    front.iter().map(|i| i.x.clone()).collect()
}

fn cont_config(s: &StudySeeds, plain_front: &[Individual]) -> ParetoStudyConfig {
    ParetoStudyConfig {
        population: POPULATION,
        generations: GENERATIONS,
        seed: s.cont,
        initial: front_xs(plain_front),
        surrogate: Some(study_screen_config(s.screen)),
    }
}

/// One study: plain phase, then the screened continuation on the same
/// cache.
fn study(
    device: &Phemt,
    band: &BandSpec,
    s: &StudySeeds,
) -> (ParetoStudy, ParetoStudy, DesignCache) {
    let cache = DesignCache::new(CACHE_CAPACITY);
    let plain = pareto_front_study(device, band, &plain_config(s), &cache);
    let cont = pareto_front_study(device, band, &cont_config(s, &plain.front), &cache);
    (plain, cont, cache)
}

/// Every front point re-evaluates through the cache to the objectives the
/// optimizer recorded, and nothing was evicted.
fn check(
    device: &Phemt,
    band: &BandSpec,
    plain: &ParetoStudy,
    cont: &ParetoStudy,
    cache: &DesignCache,
) -> Result<(), String> {
    let objectives = nf_gain_objectives(device, band, cache);
    for ind in plain.front.iter().chain(&cont.front) {
        if objectives(&ind.x) != ind.objectives {
            return Err(format!(
                "study front point {:?} does not re-evaluate to {:?}",
                ind.x, ind.objectives
            ));
        }
    }
    if cache.evictions() != 0 {
        return Err(format!("study cache evicted {} entries", cache.evictions()));
    }
    Ok(())
}

/// Child mode: the workload's first study with whatever `RFKIT_THREADS`
/// the parent set; prints the final hypervolume's bits.
pub fn hv_probe(seed: u64) {
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let s = seeds(seed).next().expect("endless seed stream");
    let (_, cont, _) = study(&device, &band, &s);
    println!("{:016x}", cont.hypervolume.to_bits());
}

/// `study_hv` of the first study recomputed in a child process with
/// `RFKIT_THREADS=1`; must equal the in-process bits.
fn serial_hv_bits(seed: u64) -> Result<u64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--probe",
            "study-hv",
            "--workload",
            "study",
            "--seed",
            &seed.to_string(),
        ])
        .env("RFKIT_THREADS", "1")
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("serial study probe: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("serial study probe exited with {}", out.status));
    }
    u64::from_str_radix(text.trim(), 16).map_err(|_| format!("serial study probe said {text:?}"))
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let setup = crate::setup_seconds("study");
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let t0 = Instant::now();
    let mut times = Vec::new();
    let mut hvs = Vec::new();
    for s in seeds(args.seed) {
        if times.len() >= MIN_STUDIES && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let t = Instant::now();
        let (plain, cont, cache) = study(&device, &band, &s);
        times.push(t.elapsed().as_secs_f64());
        if hvs.len() < QUALITY_STUDIES {
            hvs.push(cont.hypervolume);
        }
        report.op(check(&device, &band, &plain, &cont, &cache));
    }
    let hv = hvs.first().copied().unwrap_or(0.0);
    report.op(match serial_hv_bits(args.seed) {
        Ok(bits) if bits == hv.to_bits() => Ok(()),
        Ok(bits) => Err(format!(
            "study_hv {} with RFKIT_THREADS=1 vs {} unset",
            f64::from_bits(bits),
            hv
        )),
        Err(e) => Err(e),
    });
    report.note(format!(
        "study_s = {:.4} s (median of {} studies; p{:.0} {:.4} s)",
        median(&times),
        times.len(),
        TAIL_Q * 100.0,
        quantile(&times, TAIL_Q)
    ));
    let study_hv = median(&hvs);
    report.op(if study_hv >= HV_FLOOR {
        Ok(())
    } else {
        Err(format!("study_hv {study_hv} below {HV_FLOOR}"))
    });
    report.note(format!(
        "study_hv = {study_hv:.4} (median over the first {} studies)",
        hvs.len()
    ));
    report.metric("op_ms", median(&times) * 1e3, "ms");
    report.metric("quality", study_hv / HV_REF, "ratio");
    crate::common_metrics(&mut report, setup, crate::stats::peak_rss_mb());
    report
}

/// What a replayed study produced.
struct Replay {
    plain: Nsga2Result,
    cont: Nsga2Result,
    decisions: u64,
    true_evals: u64,
    fits: u64,
    evictions: u64,
    wall_s: f64,
}

/// Both phases of [`study`] replayed through the public calls:
/// `nf_gain_objectives` (optionally behind a timing wrapper) handed to
/// `nsga2`, then to `nsga2_screened` with a screen seeded from the cache,
/// with the configuration `pareto_front_study` builds.
fn replay(device: &Phemt, band: &BandSpec, s: &StudySeeds, rec: Option<&Recorder>) -> Replay {
    let cache = DesignCache::new(CACHE_CAPACITY);
    let objectives = nf_gain_objectives(device, band, &cache);
    let plain_obj: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let wrapped = rec.map(|r| r.wrap(&cache, plain_obj));
    let objective: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = match &wrapped {
        Some(w) => w,
        None => plain_obj,
    };
    let bounds = DesignVariables::bounds();
    let nsga = |seed: u64, initial: Vec<Vec<f64>>| Nsga2Config {
        population: POPULATION,
        generations: GENERATIONS,
        seed,
        hv_reference: Some(STUDY_REFERENCE),
        initial_population: initial,
        ..Default::default()
    };
    let t = Instant::now();
    let plain = nsga2(objective, &bounds, &nsga(s.plain, Vec::new()));
    let mut screen = SurrogateScreen::new(bounds.dim(), 2, study_screen_config(s.screen));
    screen.seed_training(&surrogate_training_set(&cache));
    let cont = nsga2_screened(
        objective,
        &bounds,
        &nsga(s.cont, front_xs(&plain.front)),
        &mut screen,
    );
    let wall_s = t.elapsed().as_secs_f64();
    let st = screen.stats();
    Replay {
        plain,
        cont,
        decisions: st.accepted + st.rejected + st.explored + st.fallbacks,
        true_evals: st.true_evals(),
        fits: st.fits,
        evictions: cache.evictions(),
        wall_s,
    }
}

fn same_front(a: &[Individual], b: &[Individual]) -> bool {
    let bits = |f: &[Individual]| -> Vec<Vec<u64>> {
        f.iter()
            .map(|i| {
                i.x.iter()
                    .chain(&i.objectives)
                    .map(|v| v.to_bits())
                    .collect()
            })
            .collect()
    };
    bits(a) == bits(b)
}

pub fn run_traced(args: &Args) -> Report {
    let mut report = Report::default();
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let mut tracer = Tracer::new("study");
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut summary = layers::ObjectiveSummary::default();
    let (mut evals, mut evictions, mut fits, mut decisions, mut kept) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut replay_match = true;
    let mut candidates = Vec::new();
    let mut hvs = Vec::new();
    let t0 = Instant::now();
    for s in seeds(args.seed) {
        if !traced.is_empty() && t0.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let (plain, cont, cache) = study(&device, &band, &s);
        report.op(check(&device, &band, &plain, &cont, &cache));
        hvs.push(cont.hypervolume);
        untraced.push(replay(&device, &band, &s, None).wall_s);
        let rec = Recorder::new();
        tracer.arm();
        let r = replay(&device, &band, &s, Some(&rec));
        if let Err(e) = tracer.collect() {
            report.op(Err(e));
        }
        traced.push(r.wall_s);
        let same =
            same_front(&r.plain.front, &plain.front) && same_front(&r.cont.front, &cont.front);
        if !same {
            report.note("replay mismatch: replayed study front differs from pareto_front_study");
        }
        replay_match &= same;
        let s_rec = rec.summary();
        summary.add(&s_rec);
        evals += (r.plain.evaluations + r.cont.evaluations) as u64;
        evictions += r.evictions;
        fits += r.fits;
        decisions += r.decisions;
        kept += r.true_evals;
        if candidates.is_empty() {
            candidates = rec.candidates();
        }
    }
    let n = traced.len() as f64;
    let wall: f64 = traced.iter().sum();
    report.note(format!("profile: {}", tracer.path()));
    report.note(format!(
        "study_hv = {:.4} (median over {} studies)",
        median(&hvs),
        hvs.len()
    ));
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
    report.metric("opt.self_s", (wall - summary.busy_s) / n, "s");
    report.metric(
        "opt.replay_match",
        f64::from(u8::from(replay_match)),
        "bool",
    );
    report.metric("surrogate.fits", fits as f64 / n, "count");
    report.metric("surrogate.fit_s", tracer.span_s("surrogate.fit") / n, "s");
    report.metric(
        "surrogate.keep_ratio",
        kept as f64 / decisions.max(1) as f64,
        "ratio",
    );
    crate::serve::not_exercised(&mut report);
    layers::overhead(&mut report, &untraced, &traced);
    report
}
