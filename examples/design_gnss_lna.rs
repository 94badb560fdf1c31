//! Full design-and-verify walkthrough: design the amplifier with the
//! improved goal-attainment method, "build" three units with ±5 % parts,
//! and compare their measured responses against the design — the complete
//! story of the paper in one program.
//!
//! Run with: `cargo run --release --example design_gnss_lna`

use lna::{
    cached_sweep, design_lna, measure, output_match_network, Amplifier, BuildConfig,
    BuiltAmplifier, DesignConfig, DesignGoals,
};
use rfkit_circuit::{solve_dc, AcWorkspace, Circuit};
use rfkit_device::dc::{Angelov, DcModel};
use rfkit_device::Phemt;
use rfkit_num::linspace;

fn main() {
    let device = Phemt::atf54143_like();

    println!("=== design phase ===");
    let goals = DesignGoals {
        nf_db: 0.7,
        gain_db: 13.0,
        ..Default::default()
    };
    let design = design_lna(
        &device,
        &goals,
        &DesignConfig {
            max_evals: 10_000,
            ..Default::default()
        },
    );
    println!("snapped design: {:#?}", design.snapped);
    println!(
        "worst-case band metrics: NF {:.3} dB, gain {:.2} dB, |S11| {:.1} dB, min mu {:.3}",
        design.snapped_metrics.worst_nf_db,
        design.snapped_metrics.min_gain_db,
        design.snapped_metrics.worst_s11_db,
        design.snapped_metrics.min_mu,
    );

    println!("\n=== netlist-level verification ===");
    // The band design works on the analytic two-port model; as a
    // cross-check, realize two pieces of the schematic as netlists and
    // run them through the MNA solvers. First the drain bias network
    // (DC Newton solve), then the output match (AC solve over the band).
    let vars = design.snapped;
    let mut bias = Circuit::new();
    bias.vsource("vdd", "gnd", 5.0)
        .resistor("vdd", "drain", vars.r_bias)
        .resistor("g", "gnd", 10_000.0)
        .resistor("s", "gnd", 10.0)
        .fet(
            "g",
            "drain",
            "s",
            Box::new(Angelov),
            Angelov.default_params(),
        );
    let bias_sol = solve_dc(&bias).expect("bias network converges");
    println!(
        "bias network: {} Newton iteration(s), drain current {:.1} mA",
        bias_sol.iterations,
        bias_sol.fet_currents[0] * 1e3
    );
    // Compiled sweep: the output-match netlist goes through the
    // process-wide plan cache (compiled and stamped once, shared by every
    // later sweep of the same topology) and is solved at each grid point
    // exactly as the per-call solver would.
    let out_match = output_match_network(&vars);
    let match_freqs = [1.2e9, 1.4e9, 1.6e9];
    let mut match_ws = AcWorkspace::new();
    let batch = cached_sweep(&out_match, &match_freqs, &mut match_ws).expect("match compiles");
    for (p, f) in match_freqs.iter().enumerate() {
        let s = batch.two_port(p).expect("passive match solves");
        println!(
            "output match @ {:.1} GHz: |S21| = {:.3} dB",
            f / 1e9,
            10.0 * s.s21().norm_sqr().log10()
        );
    }

    println!("\n=== production phase: three as-built units ===");
    let freqs = linspace(1.1e9, 1.7e9, 7);
    let amp = Amplifier::new(&device, design.snapped);
    for unit in 0..3u64 {
        let cfg = BuildConfig {
            seed: 0x100 + unit,
            ..Default::default()
        };
        let built = BuiltAmplifier::build(&design.snapped, &cfg);
        let session = measure(&device, &built, &freqs, &cfg).expect("unit alive");
        // Worst deviation from design across the band.
        let mut worst_gain_dev: f64 = 0.0;
        let mut worst_nf_dev: f64 = 0.0;
        for (point, nf_meas) in session.response.iter().zip(&session.nf_db) {
            let m = amp.metrics(point.freq_hz).expect("design feasible");
            let gain_meas = 10.0 * point.s.s21().norm_sqr().log10();
            worst_gain_dev = worst_gain_dev.max((gain_meas - m.gain_db).abs());
            worst_nf_dev = worst_nf_dev.max((nf_meas - m.nf_db).abs());
        }
        println!(
            "unit {unit}: max |gain - design| = {worst_gain_dev:.2} dB, max |NF - design| = {worst_nf_dev:.3} dB"
        );
    }
    println!("\n(prototype papers report exactly this kind of sub-dB agreement)");
    rfkit_obs::flush();
    if let Some(path) = rfkit_obs::trace_path() {
        println!("profile written to {}", path.display());
    }
}
