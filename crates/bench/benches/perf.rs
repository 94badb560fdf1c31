//! Performance benches for the computational kernels behind the
//! experiments: network algebra, FFT, MNA, DC Newton, the optimizers,
//! one full design-objective evaluation and the study's surrogate screen.
//!
//! Hand-rolled `harness = false` timing (criterion is unavailable in the
//! offline build environment): each kernel is timed over enough
//! iterations to dominate clock granularity and reported as ns/iter,
//! best of three batches. Run with `cargo bench -p lna-bench`.

use lna::{
    band_objectives, nf_gain_objectives, study_screen_config, surrogate_training_set, Amplifier,
    BandSpec, DesignCache, DesignVariables,
};
use rfkit_circuit::{solve_dc, two_port_s, AcStamps, Circuit, RetryPolicy};
use rfkit_device::dc::{Angelov, DcModel as _};
use rfkit_device::Phemt;
use rfkit_net::{Abcd, NoisyAbcd};
use rfkit_num::rng::Rng64;
use rfkit_num::{fft, Complex};
use rfkit_opt::{differential_evolution, nelder_mead, Bounds, DeConfig, NelderMeadConfig};
use rfkit_surrogate::{ModelKind, ResponseSurface, SurrogateScreen};
use std::hint::black_box;
use std::time::Instant;

/// Times `f` over `iters` iterations, best of 3 batches, printing ns/iter.
fn bench_kernel<F: FnMut()>(name: &str, iters: usize, mut f: F) {
    f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / iters as f64);
    }
    println!("{name:>34}: {:>12.0} ns/iter", best * 1e9);
}

fn main() {
    println!("kernel microbenches (best of 3 batches)\n");

    // Network algebra.
    let line = Abcd::transmission_line(Complex::new(0.1, 30.0), Complex::real(50.0), 0.01);
    let l = Abcd::series_impedance(Complex::imag(45.0));
    let sh = Abcd::shunt_admittance(Complex::imag(0.01));
    bench_kernel("abcd_cascade_3stage_to_s", 100_000, || {
        black_box(
            l.cascade(&sh)
                .cascade(&line)
                .to_s(50.0)
                .expect("convertible"),
        );
    });
    let noisy = NoisyAbcd::passive_series(Complex::new(5.0, 45.0), 290.0);
    bench_kernel("noisy_cascade_and_noise_params", 50_000, || {
        black_box(
            noisy
                .cascade(&noisy)
                .cascade(&noisy)
                .noise_params(50.0)
                .expect("valid"),
        );
    });

    // FFT.
    let signal: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.1).sin()).collect();
    bench_kernel("fft_1024_amplitude_spectrum", 5_000, || {
        black_box(fft::amplitude_spectrum(black_box(&signal)));
    });

    // Circuit solves.
    let mut ladder = Circuit::new();
    ladder
        .inductor("in", "a", 5e-9)
        .capacitor("a", "gnd", 1e-12)
        .inductor("a", "b", 3e-9)
        .capacitor("b", "gnd", 2e-12)
        .capacitor("b", "out", 2e-12)
        .port("in", 50.0)
        .port("out", 50.0);
    bench_kernel("mna_ladder_two_port_s", 20_000, || {
        black_box(two_port_s(&ladder, 1.5e9, &AcStamps::none()).expect("solves"));
    });
    bench_kernel("dc_newton_biased_fet", 2_000, || {
        let mut net = Circuit::new();
        net.vsource("vdd", "gnd", 5.0)
            .vsource("vg", "gnd", -0.3)
            .resistor("vdd", "drain", 33.0)
            .fet(
                "vg",
                "drain",
                "gnd",
                Box::new(Angelov),
                Angelov.default_params(),
            );
        black_box(solve_dc(&net, &RetryPolicy::default()).expect("converges"));
    });

    // Device model.
    let device = Phemt::atf54143_like();
    let op = device.operating_point(
        device
            .bias_for_current(3.0, 0.05)
            .expect("50 mA bias exists"),
        3.0,
    );
    bench_kernel("device_noisy_two_port", 50_000, || {
        black_box(device.noisy_two_port(black_box(1.575e9), &op));
    });
    bench_kernel("device_bias_solve", 10_000, || {
        black_box(device.bias_for_current(3.0, black_box(0.05)));
    });

    // Optimizers.
    let sphere = |x: &[f64]| x.iter().map(|v| v * v).sum::<f64>();
    let bounds = Bounds::uniform(6, -5.0, 5.0);
    bench_kernel("de_1000_evals_sphere6", 50, || {
        black_box(differential_evolution(
            sphere,
            &bounds,
            &DeConfig {
                max_evals: 1000,
                ..Default::default()
            },
        ));
    });
    bench_kernel("nelder_mead_sphere6", 500, || {
        black_box(nelder_mead(
            sphere,
            &[3.0; 6],
            &bounds,
            &NelderMeadConfig::default(),
        ));
    });

    // Full design objective.
    let band = BandSpec::gnss();
    let objective = band_objectives(&device, &band);
    let vars = DesignVariables {
        vds: 3.0,
        ids: 0.05,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    };
    let x = vars.to_vec();
    bench_kernel("band_objective_evaluation", 2_000, || {
        black_box(objective(black_box(&x)));
    });
    let amp = Amplifier::new(&device, vars);
    bench_kernel("amplifier_point_metrics", 20_000, || {
        black_box(amp.metrics(black_box(1.4e9)));
    });
    // The same point with the bias solved once beforehand, as band
    // evaluation does it.
    let biased = amp.biased().expect("reachable bias");
    bench_kernel("biased_point_metrics", 20_000, || {
        black_box(biased.metrics(black_box(1.4e9)));
    });

    // The study's surrogate screen at its own sizes: an RBF over 256
    // band-swept training points, 7 variables, 2 objectives.
    let cache = DesignCache::new(512);
    let study_objectives = nf_gain_objectives(&device, &band, &cache);
    let design_bounds = DesignVariables::bounds();
    let mut rng = Rng64::new(0x5ca1e);
    for _ in 0..256 {
        study_objectives(&design_bounds.sample(&mut rng));
    }
    let training = surrogate_training_set(&cache);
    let (xs, fs): (Vec<Vec<f64>>, Vec<Vec<f64>>) = training.iter().cloned().unzip();
    let screen_cfg = study_screen_config(1);
    bench_kernel("surrogate_rbf_fit_256", 100, || {
        black_box(ResponseSurface::fit(ModelKind::Rbf, &xs, &fs, screen_cfg.ridge).expect("fits"));
    });
    // One candidate's lower confidence bound: the screen's per-candidate
    // model work (kernel row, predictions, data support).
    let mut screen = SurrogateScreen::new(design_bounds.dim(), 2, screen_cfg);
    screen.seed_training(&training);
    screen.screen_multi(&[design_bounds.sample(&mut rng)], &fs[..1]);
    let candidates: Vec<Vec<f64>> = (0..64).map(|_| design_bounds.sample(&mut rng)).collect();
    let mut next = 0;
    bench_kernel("surrogate_screen_candidate", 20_000, || {
        next = (next + 1) % candidates.len();
        black_box(screen.predict_lcb(&candidates[next]).expect("fitted model"));
    });
}
