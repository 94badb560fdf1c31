//! **F7 — third-order intermodulation check** (paper claim 5: "the
//! third-order intermodulation products were also checked").
//!
//! Two tones around GPS L1 drive the as-built amplifier's device; the
//! sweep prints fundamental and IM3 output power vs input power and the
//! extrapolated intercept point, from both the time-domain (full
//! nonlinear + FFT) and power-series paths. Expected shape: 1:1 and 3:1
//! slopes, OIP3 in the +20…+35 dBm range, the two paths agreeing at small
//! signal.

use lna::{measure_im3, BuildConfig, BuiltAmplifier};
use lna_bench::{header, print_series, reference_design};
use rfkit_circuit::{ip3_sweep, power_series, TwoToneSpec};
use rfkit_device::{dc, Phemt};

fn main() {
    header(
        "Figure 7",
        "two-tone IM3 sweep around GPS L1 and OIP3 extrapolation",
    );
    let device = Phemt::atf54143_like();
    let design = reference_design(&device);
    let built = BuiltAmplifier::build(&design.snapped, &BuildConfig::default());

    let pins: Vec<f64> = (0..13).map(|k| -45.0 + 2.5 * k as f64).collect();
    let sweep = measure_im3(&device, &built, &pins).expect("board alive");

    let fund: Vec<f64> = sweep.rows.iter().map(|r| r.p_fund_dbm).collect();
    let im3: Vec<f64> = sweep.rows.iter().map(|r| r.p_im3_dbm).collect();
    println!("\ntime-domain (full nonlinear model + FFT):");
    print_series(
        "Pin (dBm)",
        &["P_fund (dBm)", "P_IM3 (dBm)"],
        &pins,
        &[fund, im3],
    );
    println!(
        "\nextrapolated intercept: OIP3 = {:.1} dBm, IIP3 = {:.1} dBm",
        sweep.oip3_dbm.expect("well-posed"),
        sweep.iip3_dbm.expect("well-posed"),
    );

    // Cross-check with the closed-form power series at the same bias.
    let vgs = device
        .bias_for_current(built.actual_vars.vds, built.actual_vars.ids)
        .expect("bias reachable");
    let op = device.operating_point(vgs, built.actual_vars.vds);
    let series_sweep = ip3_sweep(&pins, |p| {
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
        "power-series cross-check: OIP3 = {:.1} dBm (gm = {:.3} S, gm3 = {:.3} A/V^3)",
        series_sweep.oip3_dbm.expect("well-posed"),
        op.gm,
        dc::gm3(device.dc_model.as_ref(), &device.dc_params, op.vgs, op.vds),
    );
}
