//! BENCH_parallel: serial-vs-parallel wall-clock for the four `rfkit-par`
//! call sites — DE population evaluation, NSGA-II population evaluation,
//! Monte-Carlo yield analysis, and a dense band sweep — at 1/2/4/8
//! threads. Criterion is unavailable offline, so this is a hand-rolled
//! best-of-N harness (see `lna_bench::timing`); results go to
//! `results/BENCH_parallel.json` so future PRs can track the perf
//! trajectory against the same workloads.
//!
//! The thread count is driven through `RFKIT_THREADS`, exactly the knob a
//! user has, so the bench exercises the production configuration path.
//! All four workloads are deterministic at any thread count; the serial
//! baseline is `RFKIT_THREADS=1`, which short-circuits to the caller
//! thread inside `rfkit-par` without touching the pool.

use lna::{
    band_objectives, yield_analysis_robust, BandSpec, BuildConfig, DegradePolicy, DesignVariables,
    YieldSpec,
};
use lna_bench::timing::{time_best_of, to_json, BenchRecord};
use rfkit_device::Phemt;
use rfkit_num::linspace;
use rfkit_opt::{differential_evolution, nsga2, DeConfig, Nsga2Config};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 3;

fn with_threads<F: FnMut()>(threads: usize, f: F) -> f64 {
    std::env::set_var("RFKIT_THREADS", threads.to_string());
    let t = time_best_of(REPS, f);
    std::env::remove_var("RFKIT_THREADS");
    t
}

fn bench<F: FnMut()>(name: &str, mut workload: F) -> BenchRecord {
    let serial_s = with_threads(1, &mut workload);
    let parallel_s = THREAD_COUNTS
        .iter()
        .map(|&t| (t, with_threads(t, &mut workload)))
        .collect();
    let record = BenchRecord {
        name: name.to_string(),
        serial_s,
        parallel_s,
    };
    print!("{name:>22}: serial {:.4} s |", record.serial_s);
    for &t in &THREAD_COUNTS {
        print!(
            " {t}T {:.2}x",
            record.speedup(t).expect("thread count benched")
        );
    }
    println!();
    record
}

fn main() {
    lna_bench::header(
        "BENCH_parallel",
        "rfkit-par speedups: DE, NSGA-II, yield MC, band sweep",
    );
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let bounds = DesignVariables::bounds();
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("machine: {cores} core(s); RFKIT_THREADS swept over {THREAD_COUNTS:?}");
    let oversubscribed: Vec<usize> = THREAD_COUNTS
        .iter()
        .copied()
        .filter(|&t| t > cores)
        .collect();
    if !oversubscribed.is_empty() {
        println!(
            "warning: thread counts {oversubscribed:?} exceed available_parallelism ({cores}); \
             those runs are oversubscribed and their speedups are bounded by ~{cores}x"
        );
    }
    println!();

    // 1. DE population evaluation on the real band-attainment objective.
    let objectives = band_objectives(&device, &band);
    let scalar = |x: &[f64]| {
        let f = objectives(x);
        // NF-weighted scalarization: cheap reduction over the real
        // (expensive) multi-frequency amplifier evaluation.
        f[0] + 0.25 * f[1]
    };
    let de = bench("de_population_eval", || {
        let r = differential_evolution(
            scalar,
            &bounds,
            &DeConfig {
                population: 48,
                max_evals: 2_400,
                seed: 0x0be9_c4de,
                ..Default::default()
            },
        );
        assert!(r.value.is_finite());
    });

    // 2. NSGA-II population evaluation on the vector objective.
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let ns = bench("nsga2_population_eval", || {
        let r = nsga2(
            obj_ref,
            &bounds,
            &Nsga2Config {
                population: 48,
                generations: 25,
                seed: 0x0be9_c45a,
                ..Default::default()
            },
        );
        assert!(!r.front.is_empty());
    });

    // 3. Monte-Carlo yield: 256 manufactured units of the nominal design.
    let nominal = DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    };
    let mc = bench("yield_monte_carlo", || {
        let report = yield_analysis_robust(
            &device,
            &nominal,
            &YieldSpec::default(),
            &band,
            256,
            &BuildConfig::default(),
            0x0be9_c11c,
            &DegradePolicy::default(),
        )
        .report;
        assert_eq!(report.units, 256);
    });

    // 4. Dense band sweep: 1.1-1.7 GHz at 801 points with noise params.
    let amp = lna::Amplifier::new(&device, nominal);
    let grid = linspace(1.0e9, 1.8e9, 801);
    let sweep = bench("band_sweep_801pt", || {
        let resp = amp
            .frequency_response(&grid)
            .expect("nominal design sweeps");
        assert_eq!(resp.len(), 801);
    });

    let records = vec![de, ns, mc, sweep];
    let json = to_json(&records, cores);
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_parallel.json", &json).expect("write BENCH_parallel.json");
    println!("\nwrote results/BENCH_parallel.json");
    rfkit_obs::flush();
    if cores == 1 {
        println!("note: single-core machine — parallel speedups are bounded at ~1x here;");
        println!("the same harness demonstrates scaling on multi-core hardware.");
    }
}
