//! The classic chart construction: constant-noise-figure and
//! constant-available-gain circles of the pHEMT at GPS L1, and the
//! graphical NF-vs-gain trade they imply — the picture the paper's
//! goal-attainment optimizer automates.
//!
//! Run with: `cargo run --release --example noise_gain_circles`

use rfkit_device::Phemt;
use rfkit_net::circles::{available_gain_circle, best_nf_on_gain_circle, noise_circle};
use rfkit_net::gains::maximum_available_gain;
use rfkit_num::units::db_from_power_ratio;

fn main() {
    let device = Phemt::atf54143_like();
    let op = device.operating_point(
        device
            .bias_for_current(3.0, 0.06)
            .expect("60 mA bias exists"),
        3.0,
    );
    // The bare device is conditionally stable at L1; add the source
    // degeneration a real design uses so K > 1 and MAG (hence the gain
    // circles) exist.
    let mut ss = device.small_signal(&op);
    ss.extrinsic.ls += 1.3e-9;
    let tp = ss.noisy_two_port(1.57542e9, &device.noise.temperatures(op.ids));
    let s = tp.abcd.to_s(50.0).expect("device has S form");
    let np = tp.noise_params(50.0).expect("device has noise parameters");

    println!(
        "device at GPS L1: NFmin = {:.3} dB at Γopt = {:.3} ∠ {:.1}°",
        np.nf_min_db(),
        np.gamma_opt.abs(),
        np.gamma_opt.arg().to_degrees()
    );
    let mag = maximum_available_gain(&s).expect("unconditionally stable");
    println!(
        "maximum available gain = {:.2} dB",
        db_from_power_ratio(mag)
    );

    println!("\nnoise circles (source plane):");
    for excess_db in [0.1, 0.25, 0.5, 1.0] {
        let f_target = np.fmin * 10f64.powf(excess_db / 10.0);
        let c = noise_circle(&np, f_target).expect("above NFmin");
        println!(
            "  NFmin + {excess_db:>4.2} dB: center {:.3} ∠ {:>6.1}°, radius {:.3}",
            c.center.abs(),
            c.center.arg().to_degrees(),
            c.radius
        );
    }

    println!("\navailable-gain circles:");
    for back_off_db in [0.5, 1.0, 2.0, 4.0] {
        let target = mag * 10f64.powf(-back_off_db / 10.0);
        let c = available_gain_circle(&s, target).expect("below MAG");
        println!(
            "  MAG − {back_off_db:>3.1} dB: center {:.3} ∠ {:>6.1}°, radius {:.3}",
            c.center.abs(),
            c.center.arg().to_degrees(),
            c.radius
        );
    }

    println!("\ngraphical NF-vs-gain trade (best NF on each gain circle):");
    println!("{:>14} {:>12} {:>16}", "GA (dB)", "NF (dB)", "Γs");
    for back_off_db in [0.0, 0.5, 1.0, 2.0, 3.0, 4.0] {
        let target = mag * 10f64.powf(-back_off_db / 10.0);
        if let Some((gs, f)) = best_nf_on_gain_circle(&s, &np, target, 720) {
            println!(
                "{:>14.2} {:>12.3} {:>9.3} ∠ {:>5.1}°",
                db_from_power_ratio(target),
                10.0 * f.log10(),
                gs.abs(),
                gs.arg().to_degrees()
            );
        }
    }
    println!("\nBacking off the gain buys noise figure until the gain circle");
    println!("swallows Γopt — after that the trade is free. The goal-attainment");
    println!("flow finds the same frontier without drawing a single circle.");
}
