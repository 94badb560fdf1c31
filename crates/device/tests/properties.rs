//! Property-based tests on the device models: physical invariants that
//! must hold at any bias and frequency. Cases come from a fixed-seed
//! `Rng64` stream (the workspace builds offline, so no proptest), which
//! keeps every run reproducible.

use rfkit_device::dc::{all_models, gds, gm};
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_num::Complex;

#[test]
fn dc_models_nonnegative_current_and_conductances() {
    let models = all_models();
    let mut rng = Rng64::new(0xde1c_0001);
    for _ in 0..48 {
        let m = &models[rng.index(5)];
        let vgs = rng.uniform(-1.5, 0.8);
        let vds = rng.uniform(0.0, 4.0);
        let p = m.default_params();
        let i = m.ids(&p, vgs, vds);
        assert!(i >= -1e-12, "{}: negative current {i}", m.name());
        assert!(i < 1.0, "{}: absurd current {i}", m.name());
        if vds > 0.05 {
            assert!(
                gm(m.as_ref(), &p, vgs, vds) >= -1e-6,
                "{}: negative gm",
                m.name()
            );
            // Published models legitimately produce a few mS of *negative*
            // output conductance at strong forward gate drive: the Curtice
            // cubic through its V1 = Vgs(1 + β(Vds0 − Vds)) feedback, the
            // TOM through its δ·Vds·I0 self-heating-style denominator.
            // Bound the effect rather than forbid it.
            assert!(
                gds(m.as_ref(), &p, vgs, vds) >= -8e-3,
                "{}: excessive negative gds",
                m.name()
            );
        }
    }
}

#[test]
fn dc_current_monotone_in_vgs() {
    let models = all_models();
    let mut rng = Rng64::new(0xde1c_0002);
    for _ in 0..48 {
        let m = &models[rng.index(5)];
        let vgs = rng.uniform(-1.2, 0.5);
        let dv = rng.uniform(0.01, 0.3);
        let vds = rng.uniform(0.5, 4.0);
        let p = m.default_params();
        assert!(
            m.ids(&p, vgs + dv, vds) >= m.ids(&p, vgs, vds) - 1e-9,
            "{}: Ids must not fall as Vgs rises",
            m.name()
        );
    }
}

#[test]
fn golden_device_noise_params_physical() {
    let d = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xde1c_0003);
    for _ in 0..48 {
        let ids_ma = rng.uniform(12.0, 78.0);
        let vds = rng.uniform(2.0, 4.0);
        let f_ghz = rng.uniform(0.5, 6.0);
        let vgs = d.bias_for_current(vds, ids_ma * 1e-3).expect("in range");
        let op = d.operating_point(vgs, vds);
        let np = d
            .noisy_two_port(f_ghz * 1e9, &op)
            .noise_params(50.0)
            .unwrap();
        assert!(np.fmin >= 1.0, "Fmin >= 1");
        assert!(np.fmin < 10.0, "Fmin sane: {}", np.fmin);
        assert!(np.rn > 0.0 && np.rn < 200.0, "Rn = {}", np.rn);
        assert!(np.gamma_opt.abs() < 1.0, "|Γopt| < 1");
        // F(Γs) >= Fmin for a scatter of sources.
        for k in 0..6 {
            let gs = Complex::from_polar(0.6, k as f64);
            assert!(np.noise_factor(gs) >= np.fmin - 1e-9);
        }
    }
}

#[test]
fn two_port_reciprocity_violated_only_by_gm() {
    // An active FET must NOT be reciprocal (S21 != S12), and the
    // forward path must dominate.
    let d = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xde1c_0004);
    for _ in 0..48 {
        let ids_ma = rng.uniform(12.0, 78.0);
        let f_ghz = rng.uniform(0.5, 6.0);
        let vgs = d.bias_for_current(3.0, ids_ma * 1e-3).unwrap();
        let op = d.operating_point(vgs, 3.0);
        let s = d.noisy_two_port(f_ghz * 1e9, &op).abcd.to_s(50.0).unwrap();
        assert!(s.s21().abs() > s.s12().abs(), "forward dominates reverse");
        assert!(!s.is_reciprocal(1e-3));
    }
}

#[test]
fn noise_monotone_in_drain_temperature() {
    let d = Phemt::atf54143_like();
    let op = d.operating_point(d.bias_for_current(3.0, 0.05).unwrap(), 3.0);
    let ss = d.small_signal(&op);
    let mut rng = Rng64::new(0xde1c_0005);
    for _ in 0..48 {
        let td1 = rng.uniform(300.0, 1500.0);
        let dt = rng.uniform(100.0, 2000.0);
        let f_ghz = rng.uniform(0.8, 4.0);
        let f = |td: f64| {
            ss.noisy_two_port(
                f_ghz * 1e9,
                &NoiseTemperatures {
                    td,
                    ..Default::default()
                },
            )
            .noise_params(50.0)
            .unwrap()
            .fmin
        };
        assert!(f(td1 + dt) >= f(td1) - 1e-12);
    }
}

#[test]
fn bias_solver_inverts_dc_model() {
    let d = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xde1c_0006);
    for _ in 0..48 {
        let ids_ma = rng.uniform(5.0, 90.0);
        let vds = rng.uniform(1.0, 4.0);
        if let Some(vgs) = d.bias_for_current(vds, ids_ma * 1e-3) {
            let i = d.operating_point(vgs, vds).ids;
            assert!((i - ids_ma * 1e-3).abs() < 1e-6);
        }
    }
}

#[test]
fn ft_positive_and_finite() {
    let d = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xde1c_0007);
    for _ in 0..48 {
        let ids_ma = rng.uniform(12.0, 78.0);
        let op = d.operating_point(d.bias_for_current(3.0, ids_ma * 1e-3).unwrap(), 3.0);
        let ft = d.small_signal(&op).intrinsic.ft();
        assert!(ft > 1e9 && ft < 200e9, "fT = {ft}");
    }
}

#[test]
fn chain_only_abcd_equals_noisy_cascade_chain_bit_for_bit() {
    // `SmallSignalDevice::abcd` skips the correlation matrices; its chain
    // matrix must be exactly the one the noisy cascade carries, at any
    // bias, degeneration and noise temperature, on the GNSS band grid
    // (1.1–1.7 GHz, 7 points) and the 0.2–6 GHz stability grid.
    let gnss = rfkit_num::linspace(1.1e9, 1.7e9, 7);
    let stability = [0.2e9, 0.5e9, 1.0e9, 1.4e9, 1.8e9, 2.5e9, 4.0e9, 6.0e9];
    let d = Phemt::atf54143_like();
    let mut rng = Rng64::new(0xde1c_000a);
    let bits = |a: &rfkit_net::Abcd| {
        [a.a(), a.b(), a.c(), a.d()].map(|c| [c.re.to_bits(), c.im.to_bits()])
    };
    for _ in 0..32 {
        let vds = rng.uniform(1.5, 4.0);
        let Some(vgs) = d.bias_for_current(vds, rng.uniform(10.0, 80.0) * 1e-3) else {
            continue;
        };
        let op = d.operating_point(vgs, vds);
        let mut ss = d.small_signal(&op);
        ss.extrinsic.ls += rng.uniform(0.0, 1.2e-9);
        let temps = NoiseTemperatures {
            tg: rng.uniform(250.0, 400.0),
            td: rng.uniform(500.0, 3000.0),
            ambient: rng.uniform(230.0, 360.0),
        };
        for &f in gnss.iter().chain(&stability) {
            assert_eq!(
                bits(&ss.abcd(f)),
                bits(&ss.noisy_two_port(f, &temps).abcd),
                "chain matrices differ at {f} Hz"
            );
        }
    }
}
