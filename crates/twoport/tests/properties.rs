//! Property-based tests for two-port network algebra. Cases come from a
//! fixed-seed `Rng64` stream (the workspace builds offline, so no
//! proptest), which keeps every run reproducible.

use rfkit_net::gains::{gamma_in, transducer_gain};
use rfkit_net::{Abcd, NoisyAbcd, SParams};
use rfkit_num::rng::Rng64;
use rfkit_num::Complex;

/// A "reasonable" passive-ish complex value with |z| < max_mag.
fn cx(rng: &mut Rng64, max_mag: f64) -> Complex {
    Complex::from_polar(
        rng.uniform(0.0, max_mag),
        rng.uniform(-std::f64::consts::PI, std::f64::consts::PI),
    )
}

/// Invertible, well-conditioned S matrix of an active device
/// (|S21| can exceed 1). Rejection-samples away near-singular draws.
fn device_s(rng: &mut Rng64) -> SParams {
    loop {
        let s11 = cx(rng, 0.8);
        let s12 = cx(rng, 0.2);
        let s21 = Complex::from_polar(
            rng.uniform(0.5, 5.0),
            rng.uniform(-std::f64::consts::PI, std::f64::consts::PI),
        );
        let s22 = cx(rng, 0.8);
        let s = SParams::new(s11, s12, s21, s22, 50.0);
        let ok = (Complex::ONE - s11).abs() > 0.05
            && (Complex::ONE + s11).abs() > 0.05
            && (Complex::ONE - s22).abs() > 0.05
            && (Complex::ONE + s22).abs() > 0.05
            && s.delta().abs() < 0.9;
        if ok {
            return s;
        }
    }
}

fn close(a: Complex, b: Complex, tol: f64) -> bool {
    (a - b).abs() <= tol * (a.abs().max(b.abs()).max(1.0))
}

const CASES: usize = 128;

#[test]
fn s_z_s_roundtrip() {
    let mut rng = Rng64::new(0x2b02_0001);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        if let Ok(z) = s.to_z() {
            if let Ok(back) = z.to_s(50.0) {
                assert!(close(s.s11(), back.s11(), 1e-8));
                assert!(close(s.s21(), back.s21(), 1e-8));
            }
        }
    }
}

#[test]
fn s_y_s_roundtrip() {
    let mut rng = Rng64::new(0x2b02_0002);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        if let Ok(y) = s.to_y() {
            if let Ok(back) = y.to_s(50.0) {
                assert!(close(s.s12(), back.s12(), 1e-8));
                assert!(close(s.s22(), back.s22(), 1e-8));
            }
        }
    }
}

#[test]
fn s_abcd_s_roundtrip() {
    let mut rng = Rng64::new(0x2b02_0003);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        if let Ok(a) = s.to_abcd() {
            if let Ok(back) = a.to_s(50.0) {
                assert!(close(s.s11(), back.s11(), 1e-8));
                assert!(close(s.s21(), back.s21(), 1e-8));
                assert!(close(s.s12(), back.s12(), 1e-8));
                assert!(close(s.s22(), back.s22(), 1e-8));
            }
        }
    }
}

#[test]
fn cascade_with_through_is_identity() {
    let mut rng = Rng64::new(0x2b02_0004);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        if let Ok(a) = s.to_abcd() {
            let chained = Abcd::through().cascade(&a).cascade(&Abcd::through());
            assert!(close(chained.a(), a.a(), 1e-12));
            assert!(close(chained.b(), a.b(), 1e-12));
            assert!(close(chained.c(), a.c(), 1e-12));
            assert!(close(chained.d(), a.d(), 1e-12));
        }
    }
}

#[test]
fn cascade_is_associative() {
    let mut rng = Rng64::new(0x2b02_0005);
    for _ in 0..CASES {
        let (s1, s2, s3) = (device_s(&mut rng), device_s(&mut rng), device_s(&mut rng));
        if let (Ok(a1), Ok(a2), Ok(a3)) = (s1.to_abcd(), s2.to_abcd(), s3.to_abcd()) {
            let left = a1.cascade(&a2).cascade(&a3);
            let right = a1.cascade(&a2.cascade(&a3));
            assert!(close(left.a(), right.a(), 1e-9));
            assert!(close(left.d(), right.d(), 1e-9));
        }
    }
}

#[test]
fn transducer_gain_nonnegative() {
    let mut rng = Rng64::new(0x2b02_0006);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        let gs = cx(&mut rng, 0.9);
        let gl = cx(&mut rng, 0.9);
        let gt = transducer_gain(&s, gs, gl);
        assert!(gt >= 0.0);
        assert!(gt.is_finite());
    }
}

#[test]
fn gamma_in_matched_is_s11() {
    let mut rng = Rng64::new(0x2b02_0007);
    for _ in 0..CASES {
        let s = device_s(&mut rng);
        assert!(close(gamma_in(&s, Complex::ZERO), s.s11(), 1e-12));
    }
}

#[test]
fn passive_series_noise_factor_at_least_one() {
    let mut rng = Rng64::new(0x2b02_0008);
    for _ in 0..CASES {
        let r = rng.uniform(0.1, 500.0);
        let x = rng.uniform(-500.0, 500.0);
        let n = NoisyAbcd::passive_series(Complex::new(r, x), 290.0);
        let f = n.noise_params(50.0).unwrap().noise_factor(Complex::ZERO);
        assert!(f >= 1.0 - 1e-12, "F = {f}");
    }
}

#[test]
fn noise_cascade_order_matters_but_both_valid() {
    let mut rng = Rng64::new(0x2b02_0009);
    for _ in 0..CASES {
        // loss + noiseless vs noiseless + loss: leading loss is never better.
        let r = rng.uniform(1.0, 100.0);
        let loss = NoisyAbcd::passive_series(Complex::real(r), 290.0);
        let thru = NoisyAbcd::through();
        let f_lead = loss
            .cascade(&thru)
            .noise_params(50.0)
            .unwrap()
            .noise_factor(Complex::ZERO);
        let f_trail = thru
            .cascade(&loss)
            .noise_params(50.0)
            .unwrap()
            .noise_factor(Complex::ZERO);
        assert!((f_lead - f_trail).abs() < 1e-9); // through is neutral both ways
        assert!(f_lead >= 1.0);
    }
}

#[test]
fn noise_params_roundtrip() {
    let mut rng = Rng64::new(0x2b02_000a);
    for _ in 0..CASES {
        let fmin = rng.uniform(1.0, 4.0);
        let rn = rng.uniform(0.5, 50.0);
        let gopt = cx(&mut rng, 0.7);
        // Skip pathological Γopt → Yopt singularities.
        if (Complex::ONE + gopt).abs() <= 0.05 {
            continue;
        }
        let np = rfkit_net::NoiseParams::new(fmin, rn, gopt, 50.0);
        let noisy = NoisyAbcd::from_noise_params(Abcd::through(), &np);
        let back = noisy.noise_params(50.0).unwrap();
        assert!(
            (back.fmin - np.fmin).abs() < 1e-6 * np.fmin,
            "{} vs {}",
            back.fmin,
            np.fmin
        );
        assert!((back.rn - np.rn).abs() < 1e-6 * np.rn);
        assert!((back.gamma_opt - np.gamma_opt).abs() < 1e-6);
    }
}

/// Every real and imaginary part of a 2×2 matrix, as bits.
fn m2_bits(m: &rfkit_net::M2) -> [u64; 8] {
    [m.m11, m.m12, m.m21, m.m22]
        .map(|z| [z.re.to_bits(), z.im.to_bits()])
        .concat()
        .try_into()
        .expect("eight parts")
}

/// A noisy two-port with arbitrary chain and correlation entries: the
/// state a cascade has reached when a passive element follows.
fn noisy_chain(rng: &mut Rng64) -> NoisyAbcd {
    let mut entry =
        |scale: f64| Complex::new(rng.uniform(-scale, scale), rng.uniform(-scale, scale));
    NoisyAbcd {
        abcd: Abcd::new(entry(2.0), entry(200.0), entry(0.05), entry(2.0)),
        ca: rfkit_net::M2::new(entry(1e-18), entry(1e-20), entry(1e-20), entry(1e-22)),
    }
}

#[test]
fn cascade_steps_match_the_generic_cascade_bit_for_bit() {
    let mut rng = Rng64::new(0x2b02_000b);
    for case in 0..CASES {
        let n = noisy_chain(&mut rng);
        let z = Complex::new(rng.uniform(0.01, 50.0), rng.uniform(-500.0, 500.0));
        let y = Complex::new(rng.uniform(1e-4, 0.1), rng.uniform(-0.5, 0.5));
        let t = rng.uniform(200.0, 400.0);

        let fast = n.abcd.then_series_impedance(z);
        let generic = n.abcd.cascade(&Abcd::series_impedance(z));
        assert_eq!(m2_bits(&fast.m), m2_bits(&generic.m), "case {case}: series");
        let fast = n.abcd.then_shunt_admittance(y);
        let generic = n.abcd.cascade(&Abcd::shunt_admittance(y));
        assert_eq!(m2_bits(&fast.m), m2_bits(&generic.m), "case {case}: shunt");

        let fast = n.then_passive_series(z, t);
        let generic = n.cascade(&NoisyAbcd::passive_series(z, t));
        assert_eq!(
            m2_bits(&fast.abcd.m),
            m2_bits(&generic.abcd.m),
            "case {case}: noisy series chain"
        );
        assert_eq!(
            m2_bits(&fast.ca),
            m2_bits(&generic.ca),
            "case {case}: noisy series correlation"
        );
        let fast = n.then_passive_shunt(y, t);
        let generic = n.cascade(&NoisyAbcd::passive_shunt(y, t));
        assert_eq!(
            m2_bits(&fast.abcd.m),
            m2_bits(&generic.abcd.m),
            "case {case}: noisy shunt chain"
        );
        assert_eq!(
            m2_bits(&fast.ca),
            m2_bits(&generic.ca),
            "case {case}: noisy shunt correlation"
        );
    }
}
