//! **F12 (extension) — harmonic balance: the loaded stage at large
//! signal.**
//!
//! The fixed-Vds time-domain path compresses only through the gm
//! nonlinearity; harmonic balance adds the load-line swing — knee clipping
//! and drain self-biasing. Expected shape: HB shows earlier/steeper
//! compression into a high-impedance load, harmonic powers rising ~k dB
//! per dB of drive for the k-th harmonic, and a DC current shift at high
//! drive.

use lna_bench::{header, print_series};
use rfkit_circuit::hb::{solve, HbTestbench};
use rfkit_circuit::{single_tone, TwoToneSpec};
use rfkit_device::Phemt;
use rfkit_num::units::dbm_from_watts;
use rfkit_num::Complex;

fn main() {
    header(
        "Figure 12 (extension)",
        "harmonic balance vs fixed-Vds analysis at large signal",
    );
    let device = Phemt::atf54143_like();
    let op = device.operating_point(
        device
            .bias_for_current(3.0, 0.06)
            .expect("60 mA bias exists"),
        3.0,
    );
    let r_load = 100.0;
    let bench = HbTestbench {
        device: &device,
        op,
        vdd: op.vds + op.ids * 20.0,
        r_dc_feed: 20.0,
        load: Box::new(move |_| Complex::real(r_load)),
    };

    let amplitudes: Vec<f64> = (1..=12).map(|k| 0.03 * k as f64).collect();
    let mut p1_hb = Vec::new();
    let mut p2_hb = Vec::new();
    let mut p3_hb = Vec::new();
    let mut idc = Vec::new();
    let mut p1_fixed = Vec::new();
    for &a in &amplitudes {
        let sol = solve(&bench, a).expect("HB converges");
        p1_hb.push(sol.harmonic_power_dbm(1, Complex::real(r_load)));
        p2_hb.push(sol.harmonic_power_dbm(2, Complex::real(r_load)));
        p3_hb.push(sol.harmonic_power_dbm(3, Complex::real(r_load)));
        idc.push(sol.dc_current() * 1e3);
        // Fixed-Vds path at the same gate amplitude, same load resistance.
        let pin_dbm = dbm_from_watts(a * a / (8.0 * 50.0));
        let (p_out, _) = single_tone(
            &device,
            &op,
            &TwoToneSpec {
                pin_dbm,
                r_load,
                ..Default::default()
            },
        );
        p1_fixed.push(p_out);
    }
    println!("\nload = {r_load} Ω, bias 3 V / 60 mA; per gate-drive amplitude:");
    print_series(
        "A_gate (V)",
        &["P1 HB (dBm)", "P1 fixed-Vds", "P2 HB", "P3 HB", "Idc (mA)"],
        &amplitudes,
        &[p1_hb.clone(), p1_fixed.clone(), p2_hb, p3_hb, idc],
    );
    let gap_small = (p1_hb[0] - p1_fixed[0]).abs();
    let full_drive = |p: &[f64]| *p.last().expect("amplitude sweep is non-empty");
    let gap_large = (full_drive(&p1_hb) - full_drive(&p1_fixed)).abs();
    println!(
        "\nHB-vs-fixed fundamental gap: {gap_small:.2} dB at small signal, {gap_large:.2} dB at full drive"
    );
    println!("(the load-line effects only harmonic balance captures)");
}
