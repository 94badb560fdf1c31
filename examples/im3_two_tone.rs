//! Two-tone intermodulation test of the pHEMT at several bias points:
//! sweep input power, print the 1:1 / 3:1 lines and the extrapolated
//! intercept points, and show the linearity-vs-current trade.
//!
//! Run with: `cargo run --release --example im3_two_tone`

use rfkit_circuit::{ip3_sweep, power_series, time_domain, TwoToneSpec};
use rfkit_device::{dc, Phemt};

fn main() {
    let device = Phemt::atf54143_like();
    let pins: Vec<f64> = (0..11).map(|k| -45.0 + 3.0 * k as f64).collect();

    for ids_ma in [20.0, 40.0, 60.0, 80.0] {
        let vgs = device
            .bias_for_current(3.0, ids_ma * 1e-3)
            .expect("bias reachable");
        let op = device.operating_point(vgs, 3.0);
        let td = ip3_sweep(&pins, |p| {
            time_domain(
                &device,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        let ps = ip3_sweep(&pins, |p| {
            power_series(
                &device,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        println!(
            "Ids = {ids_ma:>4.0} mA: OIP3 = {:>5.1} dBm (time domain), {:>5.1} dBm (power series); gm3 = {:+.2} A/V^3",
            td.oip3_dbm.unwrap_or(f64::NAN),
            ps.oip3_dbm.unwrap_or(f64::NAN),
            dc::gm3(device.dc_model.as_ref(), &device.dc_params, op.vgs, op.vds),
        );
    }

    // Show one full sweep for the plot.
    let vgs = device
        .bias_for_current(3.0, 0.06)
        .expect("60 mA bias exists");
    let op = device.operating_point(vgs, 3.0);
    let sweep = ip3_sweep(&pins, |p| {
        time_domain(
            &device,
            &op,
            &TwoToneSpec {
                pin_dbm: p,
                ..Default::default()
            },
        )
    });
    println!("\ntwo-tone sweep at 60 mA:");
    println!("{:>10} {:>12} {:>12}", "Pin dBm", "P1 dBm", "PIM3 dBm");
    for r in &sweep.rows {
        println!(
            "{:>10.1} {:>12.2} {:>12.2}",
            r.pin_dbm, r.p_fund_dbm, r.p_im3_dbm
        );
    }
}
