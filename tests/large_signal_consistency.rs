//! Large-signal analysis cross-checks: the three independent nonlinear
//! paths (power series, fixed-Vds time domain, harmonic balance) must
//! agree where their assumptions overlap, and diverge exactly where the
//! physics says they should.

use rfkit_circuit::hb::{solve, HbTestbench};
use rfkit_circuit::{p1db, power_series, single_tone, time_domain, TwoToneSpec};
use rfkit_device::Phemt;
use rfkit_num::units::dbm_from_watts;
use rfkit_num::Complex;

fn op(device: &Phemt) -> rfkit_device::OperatingPoint {
    device.operating_point(
        device
            .bias_for_current(3.0, 0.06)
            .expect("60 mA bias exists"),
        3.0,
    )
}

#[test]
fn hb_matches_fixed_vds_when_load_swing_is_removed() {
    // With a near-zero load the drain voltage cannot swing: harmonic
    // balance must reduce to the fixed-Vds single-tone result.
    let device = Phemt::atf54143_like();
    let op = op(&device);
    let bench = HbTestbench {
        device: &device,
        op,
        vdd: op.vds + op.ids * 1e-3,
        r_dc_feed: 1e-3,
        load: Box::new(|_| Complex::new(1e-3, 0.0)),
    };
    let a = 0.15; // well into the nonlinear region
    let sol = solve(&bench, a).expect("converges");
    // Fixed-Vds fundamental current amplitude at the same drive: recompute
    // the spectral component via the single-tone helper with its load set
    // to 50 Ω (the load only scales power, not the current).
    let pin_dbm = dbm_from_watts(a * a / (8.0 * 50.0));
    let (p_out_fixed, _) = single_tone(
        &device,
        &op,
        &TwoToneSpec {
            pin_dbm,
            ..Default::default()
        },
    );
    // Convert both to fundamental current amplitude (A).
    let i_fixed = (2.0 * rfkit_num::units::watts_from_dbm(p_out_fixed) / 50.0).sqrt();
    let i_hb = sol.i_d[1].abs();
    assert!(
        (i_hb - i_fixed).abs() / i_fixed < 2e-3,
        "HB {i_hb} vs fixed-Vds {i_fixed}"
    );
    // And the drain voltage barely moved.
    assert!(sol.v_ds[1].abs() < 1e-3);
}

#[test]
fn loaded_hb_compresses_harder_than_fixed_vds() {
    let device = Phemt::atf54143_like();
    let op = op(&device);
    let r_load = 150.0;
    let bench = HbTestbench {
        device: &device,
        op,
        vdd: op.vds + op.ids * 20.0,
        r_dc_feed: 20.0,
        load: Box::new(move |_| Complex::real(r_load)),
    };
    let gain_drop = |a_small: f64, a_large: f64| {
        let s = solve(&bench, a_small).unwrap();
        let l = solve(&bench, a_large).unwrap();
        20.0 * (s.i_d[1].abs() / a_small).log10() - 20.0 * (l.i_d[1].abs() / a_large).log10()
    };
    let hb_compression = gain_drop(1e-3, 0.25);
    // Fixed-Vds path at the same drives.
    let fixed = |a: f64| {
        let pin = dbm_from_watts(a * a / (8.0 * 50.0));
        single_tone(
            &device,
            &op,
            &TwoToneSpec {
                pin_dbm: pin,
                r_load,
                ..Default::default()
            },
        )
        .1
    };
    let fixed_compression = fixed(1e-3) - fixed(0.25);
    assert!(
        hb_compression > fixed_compression + 0.5,
        "HB {hb_compression} dB vs fixed {fixed_compression} dB"
    );
}

#[test]
fn power_series_and_time_domain_ip3_track_across_bias() {
    let device = Phemt::atf54143_like();
    let pins: Vec<f64> = (0..9).map(|k| -48.0 + 2.0 * k as f64).collect();
    for ids in [0.03, 0.05, 0.07] {
        let op = device.operating_point(device.bias_for_current(3.0, ids).unwrap(), 3.0);
        let td = rfkit_circuit::ip3_sweep(&pins, |p| {
            time_domain(
                &device,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        let ps = rfkit_circuit::ip3_sweep(&pins, |p| {
            power_series(
                &device,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        let (a, b) = (td.oip3_dbm.unwrap(), ps.oip3_dbm.unwrap());
        assert!((a - b).abs() < 1.5, "OIP3 at {ids} A: {a} vs {b}");
    }
}

#[test]
fn p1db_consistent_with_compression_curve() {
    let device = Phemt::atf54143_like();
    let op = op(&device);
    let p1 = p1db(&device, &op, -45.0, 10.0).expect("compresses");
    // The single-tone gain at P1dB really is 1 dB below small-signal.
    let gain_at = |p: f64| {
        single_tone(
            &device,
            &op,
            &TwoToneSpec {
                pin_dbm: p,
                ..Default::default()
            },
        )
        .1
    };
    let drop = gain_at(-45.0) - gain_at(p1);
    assert!((drop - 1.0).abs() < 0.02, "gain drop at P1dB = {drop} dB");
    // Memoryless cubic rule of thumb: IIP3 − IP1dB ≈ 9.6 dB (loose band).
    let pins: Vec<f64> = (0..9).map(|k| -48.0 + 2.0 * k as f64).collect();
    let iip3 = rfkit_circuit::ip3_sweep(&pins, |p| {
        time_domain(
            &device,
            &op,
            &TwoToneSpec {
                pin_dbm: p,
                ..Default::default()
            },
        )
    })
    .iip3_dbm
    .unwrap();
    let delta = iip3 - p1;
    assert!(
        (4.0..16.0).contains(&delta),
        "IIP3 − P1dB = {delta} dB (textbook ≈ 9.6)"
    );
}
