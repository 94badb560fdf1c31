//! The two analysis paths — netlist MNA (rfkit-circuit) and analytic ABCD
//! cascade (rfkit-net) — must agree wherever both apply.

use rfkit_circuit::{two_port_s, AcStamps, Circuit};
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;
use rfkit_net::Abcd;
use rfkit_num::units::angular;
use rfkit_num::Complex;

#[test]
fn matching_ladder_agrees_between_solvers() {
    // series L — shunt C — series C ladder at several frequencies.
    let (l1, c_sh, c_se) = (5.6e-9, 1.5e-12, 2.2e-12);
    let mut circuit = Circuit::new();
    circuit
        .inductor("in", "mid", l1)
        .capacitor("mid", "gnd", c_sh)
        .capacitor("mid", "out", c_se)
        .port("in", 50.0)
        .port("out", 50.0);
    for f in [0.8e9, 1.4e9, 2.5e9] {
        let w = angular(f);
        let mna = two_port_s(&circuit, f, &AcStamps::none()).unwrap();
        let cascade = Abcd::series_impedance(Complex::imag(w * l1))
            .cascade(&Abcd::shunt_admittance(Complex::imag(w * c_sh)))
            .cascade(&Abcd::series_impedance(Complex::imag(-1.0 / (w * c_se))))
            .to_s(50.0)
            .unwrap();
        for (a, b) in [
            (mna.s11(), cascade.s11()),
            (mna.s21(), cascade.s21()),
            (mna.s12(), cascade.s12()),
            (mna.s22(), cascade.s22()),
        ] {
            assert!((a - b).abs() < 1e-9, "at {f}: {a} vs {b}");
        }
    }
}

#[test]
fn device_stamp_agrees_with_device_two_port() {
    let device = Phemt::atf54143_like();
    let op = device.operating_point(device.bias_for_current(3.0, 0.06).unwrap(), 3.0);
    let ss = device.small_signal(&op);
    let y_of = move |f: f64| {
        ss.noisy_two_port(f, &NoiseTemperatures::default())
            .abcd
            .to_y()
            .expect("device Y form")
    };
    let mut circuit = Circuit::new();
    let g = circuit.node("g");
    let d = circuit.node("d");
    circuit.port("g", 50.0).port("d", 50.0);
    let stamps = AcStamps::none().two_port(g, d, &y_of);
    for f in [1.0e9, 1.575e9, 3.0e9] {
        let mna = two_port_s(&circuit, f, &stamps).unwrap();
        let direct = ss.s_params(f, 50.0);
        assert!((mna.s21() - direct.s21()).abs() < 1e-6, "S21 at {f}");
        assert!((mna.s11() - direct.s11()).abs() < 1e-6, "S11 at {f}");
        assert!((mna.s22() - direct.s22()).abs() < 1e-6, "S22 at {f}");
    }
}

#[test]
fn biased_fet_netlist_matches_analytic_bias_and_gain() {
    // Bias the FET through the netlist solver, then stamp its
    // linearization and check the amplifier gain equals the device-crate
    // prediction at the solved operating point.
    use rfkit_device::dc::Angelov;
    let device = Phemt::atf54143_like();
    let target_vgs = device.bias_for_current(3.0, 0.05).unwrap();

    let mut dc_net = Circuit::new();
    dc_net
        .vsource("vdd", "gnd", 3.0)
        .vsource("vg", "gnd", target_vgs)
        .inductor("vdd", "drain", 10e-9) // bias choke: DC short
        .fet(
            "vg",
            "drain",
            "gnd",
            Box::new(Angelov),
            device.dc_params.clone(),
        );
    let sol = rfkit_circuit::solve_dc(&dc_net).unwrap();
    let ids = sol.fet_currents[0];
    assert!((ids - 0.05).abs() < 1e-4, "netlist bias: {ids}");

    let op = device.operating_point(target_vgs, 3.0);
    assert!((op.ids - ids).abs() < 1e-6);
    let s = device.noisy_two_port(1.575e9, &op).abcd.to_s(50.0).unwrap();
    assert!(
        s.s21().abs() > 3.0,
        "the solved bias yields a live amplifier"
    );
}
