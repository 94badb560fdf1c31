//! The bias point is solved once per candidate, not once per frequency.
//!
//! A counting DC model swapped into the golden device measures how many
//! drain-current evaluations each per-frequency loop spends: a loop over
//! any grid must cost exactly the evaluations of one bias solve
//! (`Amplifier::operating_point`). A second check pins band evaluation bit
//! for bit to the explicit bias → small-signal → passives → cascade →
//! metrics composition of the public layers, over seeded in-bounds
//! designs.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use lna::{
    band_sweep_over_temperature, measure, spot_objectives, Amplifier, BandMetrics, BandOutcome,
    BandSpec, BuildConfig, BuiltAmplifier, DegradePolicy, DesignVariables, PointMetrics,
};
use rfkit_device::dc::{Angelov, DcModel};
use rfkit_device::Phemt;
use rfkit_net::gains::transducer_gain;
use rfkit_net::stability::{mu_load, mu_source, rollett_k};
use rfkit_net::NoisyAbcd;
use rfkit_num::rng::Rng64;
use rfkit_num::units::{db_from_amplitude_ratio, nf_db_from_factor, T0_KELVIN};
use rfkit_num::{linspace, Complex};
use rfkit_opt::Bounds;
use rfkit_passive::{Capacitor, Component, Inductor, Orientation};

/// The Angelov model, counting its drain-current evaluations.
struct Counting {
    calls: Arc<AtomicUsize>,
}

impl DcModel for Counting {
    fn name(&self) -> &'static str {
        Angelov.name()
    }
    fn param_names(&self) -> &'static [&'static str] {
        Angelov.param_names()
    }
    fn default_params(&self) -> Vec<f64> {
        Angelov.default_params()
    }
    fn param_bounds(&self) -> Bounds {
        Angelov.param_bounds()
    }
    fn ids(&self, params: &[f64], vgs: f64, vds: f64) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Angelov.ids(params, vgs, vds)
    }
}

/// The golden device with a counting DC model, and its counter.
fn counting_device() -> (Phemt, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut device = Phemt::atf54143_like();
    device.dc_model = Box::new(Counting {
        calls: Arc::clone(&calls),
    });
    (device, calls)
}

/// Drain-current evaluations spent by `f`.
fn ids_calls(calls: &AtomicUsize, f: impl FnOnce()) -> usize {
    let before = calls.load(Ordering::Relaxed);
    f();
    calls.load(Ordering::Relaxed) - before
}

fn nominal() -> DesignVariables {
    DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    }
}

#[test]
fn per_frequency_loops_solve_the_bias_once() {
    let (device, calls) = counting_device();
    // Through the optimizer encoding, as the objectives see the design.
    let x = nominal().to_vec();
    let vars = DesignVariables::from_vec(&x);
    let amp = Amplifier::new(&device, vars);
    let one = ids_calls(&calls, || {
        amp.operating_point().expect("reachable bias");
    });
    assert!(one > 0);

    let band = BandSpec::gnss();
    let evaluate = ids_calls(&calls, || {
        BandMetrics::evaluate(&amp, &band).expect("feasible design");
    });
    assert_eq!(evaluate, one, "band evaluation over 15 points");

    let spot = spot_objectives(&device, 1.575e9);
    assert_eq!(ids_calls(&calls, || drop(spot(&x))), one, "spot objectives");

    let grid = linspace(1.1e9, 1.7e9, 31);
    let response = ids_calls(&calls, || {
        amp.frequency_response(&grid).expect("feasible design");
    });
    assert_eq!(response, one, "frequency response over 31 points");

    let temperatures = [-40.0, 25.0, 85.0];
    let thermal = ids_calls(&calls, || {
        band_sweep_over_temperature(&device, vars, &band, &temperatures);
    });
    assert_eq!(
        thermal,
        temperatures.len() * one,
        "one solve per temperature"
    );

    let cfg = BuildConfig::default();
    let built = BuiltAmplifier::build(&vars, &cfg);
    let built_one = ids_calls(&calls, || {
        Amplifier::new(&device, built.actual_vars)
            .operating_point()
            .expect("board alive");
    });
    let session = ids_calls(&calls, || {
        measure(&device, &built, band.grid(), &cfg).expect("board alive");
    });
    assert_eq!(session, built_one, "measurement session over 7 points");
}

#[test]
fn unreachable_bias_is_infeasible_after_one_solve() {
    let (device, calls) = counting_device();
    let mut vars = nominal();
    vars.ids = 3.0;
    let amp = Amplifier::new(&device, vars);
    let one = ids_calls(&calls, || assert!(amp.operating_point().is_none()));
    let mut outcome = None;
    let spent = ids_calls(&calls, || {
        outcome = Some(BandMetrics::evaluate_robust(
            &amp,
            &BandSpec::gnss(),
            &DegradePolicy::strict(),
        ));
    });
    assert_eq!(outcome, Some(BandOutcome::Infeasible));
    assert_eq!(spent, one);
}

/// Point metrics by the explicit composition of the device, passive and
/// two-port layers' public calls.
fn composed_point(
    device: &Phemt,
    v: &DesignVariables,
    op: &rfkit_device::OperatingPoint,
    f: f64,
) -> Option<PointMetrics> {
    let mut ss = device.small_signal(op);
    ss.extrinsic.ls += v.ls_deg;
    let core = ss.noisy_two_port(f, &device.noise.temperatures(op.ids));
    let t = T0_KELVIN;
    let c_blk = Capacitor::chip_0402(100e-12).two_port(f, Orientation::Series, t);
    let l1 = Inductor::chip_0402(v.l1).two_port(f, Orientation::Series, t);
    let z_feed = Complex::real(v.r_bias) + Inductor::chip_0402(v.l2).impedance(f);
    let l2 = NoisyAbcd::passive_shunt(z_feed.recip(), t);
    let c2 = Capacitor::chip_0402(v.c2).two_port(f, Orientation::Series, t);
    let noisy = c_blk.cascade(&l1).cascade(&core).cascade(&l2).cascade(&c2);
    let s = noisy.abcd.to_s(50.0).ok()?;
    let np = noisy.noise_params(50.0).ok()?;
    Some(PointMetrics {
        freq_hz: f,
        gain_db: 10.0
            * transducer_gain(&s, Complex::ZERO, Complex::ZERO)
                .max(1e-30)
                .log10(),
        nf_db: nf_db_from_factor(np.noise_factor(Complex::ZERO)),
        s11_db: db_from_amplitude_ratio(s.s11().abs()),
        s22_db: db_from_amplitude_ratio(s.s22().abs()),
        k: rollett_k(&s),
        mu: mu_load(&s).min(mu_source(&s)),
    })
}

/// Band metrics reduced from [`composed_point`] in grid order.
fn composed_band(device: &Phemt, v: &DesignVariables, band: &BandSpec) -> Option<BandMetrics> {
    let vgs = device.bias_for_current(v.vds, v.ids)?;
    let op = device.operating_point(vgs, v.vds);
    let mut m = BandMetrics {
        worst_nf_db: f64::NEG_INFINITY,
        min_gain_db: f64::INFINITY,
        worst_s11_db: f64::NEG_INFINITY,
        worst_s22_db: f64::NEG_INFINITY,
        min_mu: f64::INFINITY,
        min_k: f64::INFINITY,
    };
    for &f in band.grid() {
        let p = composed_point(device, v, &op, f)?;
        m.worst_nf_db = m.worst_nf_db.max(p.nf_db);
        m.min_gain_db = m.min_gain_db.min(p.gain_db);
        m.worst_s11_db = m.worst_s11_db.max(p.s11_db);
        m.worst_s22_db = m.worst_s22_db.max(p.s22_db);
    }
    for &f in BandSpec::stability_grid() {
        let p = composed_point(device, v, &op, f)?;
        m.min_mu = m.min_mu.min(p.mu);
        m.min_k = m.min_k.min(p.k);
    }
    Some(m)
}

fn bits(m: Option<BandMetrics>) -> Option<[u64; 6]> {
    m.map(|m| {
        [
            m.worst_nf_db,
            m.min_gain_db,
            m.worst_s11_db,
            m.worst_s22_db,
            m.min_mu,
            m.min_k,
        ]
        .map(f64::to_bits)
    })
}

#[test]
fn band_evaluation_matches_the_layer_composition_bit_for_bit() {
    let device = Phemt::atf54143_like();
    let bounds = DesignVariables::bounds();
    // The GNSS band, and a denser, wider grid whose in-band points reach
    // into the stability grid's range.
    for band in [BandSpec::gnss(), BandSpec::new(0.5e9, 3e9, 26)] {
        let mut rng = Rng64::new(0x0b1a_50ce);
        let mut feasible = 0;
        for i in 0..100 {
            let v = DesignVariables::from_vec(&bounds.sample(&mut rng));
            let evaluated = BandMetrics::evaluate(&Amplifier::new(&device, v), &band);
            feasible += usize::from(evaluated.is_some());
            assert_eq!(
                bits(evaluated),
                bits(composed_band(&device, &v, &band)),
                "design {i}: {v:?}"
            );
        }
        assert!(
            feasible > 50,
            "only {feasible} of 100 designs were feasible"
        );
    }
}
