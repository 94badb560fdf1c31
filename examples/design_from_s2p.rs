//! Design a matching network straight from a datasheet `.s2p` file — no
//! extracted model at all. A synthetic vendor file (S-parameters + noise
//! block at a fixed 3 V / 60 mA bias) stands in for the download from the
//! manufacturer; the flow is identical for a real file.
//!
//! Run with: `cargo run --release --example design_from_s2p`

use rfkit_device::Phemt;
use rfkit_net::gains::transducer_gain;
use rfkit_net::stability::rollett_k;
use rfkit_net::touchstone::{write_s2p, TouchstoneFormat};
use rfkit_net::{NoisyAbcd, TabulatedTwoPort};
use rfkit_num::units::{db_from_power_ratio, nf_db_from_factor, T0_KELVIN};
use rfkit_num::{linspace, Complex};
use rfkit_opt::{improved_goal_attainment, Bounds, GoalConfig, GoalProblem};
use rfkit_passive::{Capacitor, Component, Inductor, Orientation};

fn main() {
    // ---- Step 0: fabricate the "vendor" .s2p (normally: fs::read_to_string).
    let device = Phemt::atf54143_like();
    let op = device.operating_point(
        device
            .bias_for_current(3.0, 0.06)
            .expect("60 mA bias exists"),
        3.0,
    );
    let freqs = linspace(0.5e9, 4.0e9, 29);
    let mut s_rows = Vec::new();
    let mut n_rows = Vec::new();
    for &f in &freqs {
        let tp = device.noisy_two_port(f, &op);
        s_rows.push((f, tp.abcd.to_s(50.0).expect("device has S form")));
        n_rows.push((
            f,
            tp.noise_params(50.0).expect("device has noise parameters"),
        ));
    }
    let s2p_text = write_s2p(&s_rows, &n_rows, TouchstoneFormat::Ma);
    println!(
        "vendor file: {} S rows + {} noise rows",
        s_rows.len(),
        n_rows.len()
    );

    // ---- Step 1: load the file as an interpolated two-port.
    let tab = TabulatedTwoPort::from_touchstone(&s2p_text).expect("valid .s2p");
    println!(
        "tabulated device: {:.1}-{:.1} GHz, noise data: {}",
        tab.freq_range().0 / 1e9,
        tab.freq_range().1 / 1e9,
        tab.has_noise()
    );

    // ---- Step 2: evaluate matching around the tabulated device.
    // Variables: [l1_nH series in, l2_nH bias-feed choke, c2_pF series out,
    // r_bias_ohm in series with the choke]. The resistive bias feed is the
    // low-frequency stabilizer — without it the bare device is only
    // conditionally stable and no matching can fix that.
    let band = linspace(1.1e9, 1.7e9, 7);
    let evaluate = |x: &[f64], f: f64| -> Option<(f64, f64, f64)> {
        let dev_s = tab.s_params(f);
        let dev_np = tab.noise_params(f)?;
        let dev = NoisyAbcd::from_noise_params(dev_s.to_abcd().ok()?, &dev_np);
        let l1 = Inductor::chip_0402(x[0] * 1e-9).two_port(f, Orientation::Series, T0_KELVIN);
        let z_feed = Complex::real(x[3]) + Inductor::chip_0402(x[1] * 1e-9).impedance(f);
        let l2 = NoisyAbcd::passive_shunt(z_feed.recip(), T0_KELVIN);
        let c2 = Capacitor::chip_0402(x[2] * 1e-12).two_port(f, Orientation::Series, T0_KELVIN);
        let chain = l1.cascade(&dev).cascade(&l2).cascade(&c2);
        let s = chain.abcd.to_s(50.0).ok()?;
        let np = chain.noise_params(50.0).ok()?;
        Some((
            nf_db_from_factor(np.noise_factor(Complex::ZERO)),
            db_from_power_ratio(transducer_gain(&s, Complex::ZERO, Complex::ZERO)),
            rollett_k(&s),
        ))
    };
    let objectives = |x: &[f64]| -> Vec<f64> {
        let mut worst_nf = f64::NEG_INFINITY;
        let mut min_gain = f64::INFINITY;
        let mut min_k = f64::INFINITY;
        for &f in &band {
            match evaluate(x, f) {
                Some((nf, g, k)) => {
                    worst_nf = worst_nf.max(nf);
                    min_gain = min_gain.min(g);
                    min_k = min_k.min(k);
                }
                None => return vec![1e3; 3],
            }
        }
        vec![worst_nf, -min_gain, 1.0 - min_k]
    };
    let obj_ref: &(dyn Fn(&[f64]) -> Vec<f64> + Sync) = &objectives;
    let problem = GoalProblem::new(
        obj_ref,
        vec![0.7, -14.0, 0.0],
        vec![0.5, 2.0, 0.0],
        Bounds::new(vec![0.5, 1.0, 0.3, 5.0], vec![18.0, 22.0, 12.0, 200.0])
            .expect("lower bounds sit below upper bounds"),
    );
    let r = improved_goal_attainment(
        &problem,
        &GoalConfig {
            max_evals: 5_000,
            multistart: 1,
            global_fraction: 0.7,
            ..Default::default()
        },
    );
    println!(
        "\nmatched design from the datasheet alone:\n  L1 = {:.1} nH, L2 = {:.1} nH, C2 = {:.1} pF, R_bias = {:.0} ohm",
        r.x[0], r.x[1], r.x[2], r.x[3]
    );
    println!(
        "band worst-case: NF = {:.3} dB, gain = {:.2} dB (γ = {:.2})",
        r.objectives[0], -r.objectives[1], r.attainment
    );

    // ---- Step 3: cross-check against the full model-based analysis.
    let (nf_tab, gain_tab, _) = evaluate(&r.x, 1.4e9).expect("1.4 GHz lies inside the table");
    println!("\ncross-check at 1.4 GHz (tabulated path): NF {nf_tab:.3} dB, gain {gain_tab:.2} dB");
    println!("(the tabulated and model paths agree because the table was generated");
    println!(" by the model — with a real vendor file this is your design reality)");
}
