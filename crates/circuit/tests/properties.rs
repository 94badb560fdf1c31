//! Property-based tests on the circuit simulator: conservation laws and
//! solver agreement for randomly drawn circuits. Cases come from a
//! fixed-seed `Rng64` stream (the workspace builds offline, so no
//! proptest), which keeps every run reproducible.

use rfkit_circuit::{ip3_sweep, solve_dc, time_domain, two_port_s, AcStamps, Circuit, TwoToneSpec};
use rfkit_device::dc::{Angelov, DcModel as _};
use rfkit_device::Phemt;
use rfkit_net::Abcd;
use rfkit_num::rng::Rng64;
use rfkit_num::units::angular;
use rfkit_num::Complex;

#[test]
fn divider_chain_obeys_kirchhoff() {
    let mut rng = Rng64::new(0xc1c0_0001);
    for case in 0..32 {
        let r1 = rng.uniform(10.0, 10_000.0);
        let r2 = rng.uniform(10.0, 10_000.0);
        let r3 = rng.uniform(10.0, 10_000.0);
        let v = rng.uniform(0.5, 24.0);
        let mut c = Circuit::new();
        c.vsource("vin", "gnd", v)
            .resistor("vin", "a", r1)
            .resistor("a", "b", r2)
            .resistor("b", "gnd", r3);
        let a = c.node("a").unwrap();
        let b = c.node("b").unwrap();
        let sol = solve_dc(&c).unwrap();
        let i = v / (r1 + r2 + r3);
        assert!(
            (sol.voltages[a] - (v - i * r1)).abs() < 1e-6 * v,
            "case {case}"
        );
        assert!((sol.voltages[b] - i * r3).abs() < 1e-6 * v, "case {case}");
    }
}

#[test]
fn fet_bias_respects_load_line() {
    let mut rng = Rng64::new(0xc1c0_0002);
    for case in 0..32 {
        let vdd = rng.uniform(2.0, 8.0);
        let rd = rng.uniform(10.0, 200.0);
        let vgs = rng.uniform(-0.6, 0.2);
        let mut c = Circuit::new();
        c.vsource("vdd", "gnd", vdd)
            .vsource("vg", "gnd", vgs)
            .resistor("vdd", "d", rd)
            .fet(
                "vg",
                "d",
                "gnd",
                Box::new(Angelov),
                Angelov.default_params(),
            );
        let d = c.node("d").unwrap();
        let sol = solve_dc(&c).unwrap();
        let vds = sol.voltages[d];
        let ids = sol.fet_currents[0];
        // Load line: Vdd = Vds + Ids·Rd, and the device equation holds.
        assert!(
            (vdd - vds - ids * rd).abs() < 1e-6,
            "case {case}: load line violated"
        );
        assert!(
            (Angelov.ids(&Angelov.default_params(), vgs, vds.max(0.0)) - ids).abs() < 1e-9,
            "case {case}"
        );
        assert!(vds >= -1e-9 && vds <= vdd + 1e-9, "case {case}");
    }
}

#[test]
fn mna_matches_cascade_for_random_ladder() {
    let mut rng = Rng64::new(0xc1c0_0003);
    for case in 0..32 {
        let l = rng.uniform(0.5, 20.0) * 1e-9;
        let cp = rng.uniform(0.2, 10.0) * 1e-12;
        let f = rng.uniform(0.3, 5.0) * 1e9;
        let w = angular(f);
        let mut net = Circuit::new();
        net.inductor("in", "out", l)
            .capacitor("out", "gnd", cp)
            .port("in", 50.0)
            .port("out", 50.0);
        let mna = two_port_s(&net, f, &AcStamps::none()).unwrap();
        let reference = Abcd::series_impedance(Complex::imag(w * l))
            .cascade(&Abcd::shunt_admittance(Complex::imag(w * cp)))
            .to_s(50.0)
            .unwrap();
        assert!((mna.s11() - reference.s11()).abs() < 1e-8, "case {case}");
        assert!((mna.s21() - reference.s21()).abs() < 1e-8, "case {case}");
    }
}

#[test]
fn passive_mna_networks_are_passive_and_reciprocal() {
    let mut rng = Rng64::new(0xc1c0_0004);
    for case in 0..32 {
        let r = rng.uniform(5.0, 500.0);
        let l = rng.uniform(0.5, 20.0) * 1e-9;
        let cp = rng.uniform(0.2, 10.0) * 1e-12;
        let f = rng.uniform(0.3, 5.0) * 1e9;
        let mut net = Circuit::new();
        net.resistor("in", "mid", r)
            .inductor("mid", "out", l)
            .capacitor("mid", "gnd", cp)
            .port("in", 50.0)
            .port("out", 50.0);
        let s = two_port_s(&net, f, &AcStamps::none()).unwrap();
        assert!(s.is_passive(1e-6), "case {case}");
        assert!(s.is_reciprocal(1e-9), "case {case}");
    }
}

#[test]
fn im3_slope_three_for_any_bias() {
    let device = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xc1c0_0005);
    for case in 0..8 {
        let ids_ma = rng.uniform(15.0, 75.0);
        let vgs = device.bias_for_current(3.0, ids_ma * 1e-3).unwrap();
        let op = device.operating_point(vgs, 3.0);
        let eval = |p: f64| {
            time_domain(
                &device,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        };
        let lo = eval(-48.0);
        let hi = eval(-40.0);
        let slope = (hi.p_im3_dbm - lo.p_im3_dbm) / 8.0;
        // Near a gm3 null the leading-order slope can deviate; everywhere
        // else it must be 3:1 within tolerance.
        if hi.p_im3_dbm > -140.0 {
            assert!(
                (slope - 3.0).abs() < 0.3,
                "case {case}: IM3 slope {slope} at {ids_ma} mA"
            );
        }
    }
}

#[test]
fn oip3_extrapolation_exceeds_measured_output() {
    let device = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xc1c0_0006);
    for case in 0..8 {
        let ids_ma = rng.uniform(20.0, 75.0);
        let vgs = device.bias_for_current(3.0, ids_ma * 1e-3).unwrap();
        let op = device.operating_point(vgs, 3.0);
        let pins: Vec<f64> = (0..7).map(|k| -45.0 + 3.0 * k as f64).collect();
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
        if let Some(oip3) = sweep.oip3_dbm {
            // The intercept is an extrapolation beyond the small-signal data.
            let max_fund = sweep
                .rows
                .iter()
                .map(|r| r.p_fund_dbm)
                .fold(f64::MIN, f64::max);
            assert!(
                oip3 > max_fund,
                "case {case}: OIP3 {oip3} <= measured {max_fund}"
            );
        }
    }
}
