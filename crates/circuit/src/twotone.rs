//! Two-tone intermodulation analysis of the pHEMT.
//!
//! The paper closes by checking the preamplifier's third-order
//! intermodulation products. Two independent paths compute them here:
//!
//! * **power series** — the classic closed form from the Taylor expansion
//!   `I_ds = I₀ + gm·v + (gm2/2!)·v² + (gm3/3!)·v³` at the operating
//!   point: with two tones of gate amplitude `A`, the fundamental drain
//!   current is `gm·A` and the IM3 component is
//!   `(3/4)·(gm3/6)·A³ = gm3·A³/8`, giving `IIP3 (V²) = 8·|gm/gm3|`;
//! * **time domain** — drive the *full nonlinear* model with the two-tone
//!   waveform, FFT the drain current (via `rfkit-num`) and read the tone
//!   bins directly. This path captures gain compression and the higher-
//!   order terms the power series drops.
//!
//! Both report output powers into a load resistance so an intercept-point
//! extrapolation (`rfkit_num::line_intersection`) can reproduce the
//! standard lab plot.

use rfkit_device::{dc, OperatingPoint, Phemt};
use rfkit_num::fft::amplitude_spectrum;
use rfkit_num::units::{dbm_from_watts, watts_from_dbm};
use rfkit_num::{line_intersection, Polynomial};

// Sweep-progress telemetry (runtime-gated, write-only; see rfkit-obs).
static OBS_TWOTONE_POINTS: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.twotone.points");
static OBS_TWOTONE_FAILED: rfkit_obs::Counter =
    rfkit_obs::Counter::new("circuit.twotone.points.failed");

/// The two-tone test setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoToneSpec {
    /// Source impedance the input power is defined against (Ω).
    pub r_source: f64,
    /// Load resistance the output power is delivered into (Ω).
    pub r_load: f64,
    /// Available input power **per tone** (dBm).
    pub pin_dbm: f64,
    /// Voltage gain from the source EMF to the gate-source voltage
    /// (set by the input matching network; 0.5 for a directly driven,
    /// high-impedance gate).
    pub input_transfer: f64,
}

impl Default for TwoToneSpec {
    fn default() -> Self {
        TwoToneSpec {
            r_source: 50.0,
            r_load: 50.0,
            pin_dbm: -30.0,
            input_transfer: 1.0,
        }
    }
}

impl TwoToneSpec {
    /// Peak gate-voltage amplitude of one tone for the configured input
    /// power: `Pin = A_src²/(8·R_s)` (available power), then the input
    /// transfer scales the source amplitude onto the gate.
    pub fn tone_amplitude(&self) -> f64 {
        let p_watts = watts_from_dbm(self.pin_dbm);
        (8.0 * self.r_source * p_watts).sqrt() * self.input_transfer
    }
}

/// Result of a two-tone evaluation at one input power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TwoToneResult {
    /// Input power per tone (dBm).
    pub pin_dbm: f64,
    /// Output fundamental power per tone (dBm).
    pub p_fund_dbm: f64,
    /// Output IM3 power per product (dBm).
    pub p_im3_dbm: f64,
}

/// Closed-form power-series evaluation at the operating point, with
/// `gm3` taken from the device's DC model there.
pub fn power_series(device: &Phemt, op: &OperatingPoint, spec: &TwoToneSpec) -> TwoToneResult {
    let a = spec.tone_amplitude();
    // Taylor coefficients: a1 = gm, a3 = gm3/3!. Two-tone results:
    // fundamental gets the (9/4)·a3·A³ self/cross-compression term, each
    // IM3 product is (3/4)·a3·A³.
    let gm3 = dc::gm3(device.dc_model.as_ref(), &device.dc_params, op.vgs, op.vds);
    let a3 = gm3 / 6.0;
    let i_fund = (op.gm * a + 2.25 * a3 * a * a * a).abs();
    let i_im3 = 0.75 * a3.abs() * a * a * a;
    TwoToneResult {
        pin_dbm: spec.pin_dbm,
        p_fund_dbm: dbm_from_watts(0.5 * i_fund * i_fund * spec.r_load),
        p_im3_dbm: dbm_from_watts(0.5 * i_im3 * i_im3 * spec.r_load),
    }
}

/// Time-domain evaluation: drives the full nonlinear `I_ds` with the
/// two-tone gate waveform and reads fundamental/IM3 amplitudes from the
/// spectrum. Tones are placed at FFT bins `k1 = 21`, `k2 = 23` of an
/// `N = 1024` record so all intermodulation products land exactly on bins.
pub fn time_domain(device: &Phemt, op: &OperatingPoint, spec: &TwoToneSpec) -> TwoToneResult {
    const N: usize = 1024;
    const K1: usize = 21;
    const K2: usize = 23;
    let a = spec.tone_amplitude();
    let model = device.dc_model.as_ref();
    let i0 = model.ids(&device.dc_params, op.vgs, op.vds);
    let signal: Vec<f64> = (0..N)
        .map(|t| {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / N as f64;
            let vg = op.vgs + a * ((K1 as f64 * phase).cos() + (K2 as f64 * phase).cos());
            model.ids(&device.dc_params, vg, op.vds) - i0
        })
        .collect();
    let spectrum = amplitude_spectrum(&signal);
    let i_fund = spectrum[K1].max(spectrum[K2]);
    // IM3 products at 2k1 − k2 and 2k2 − k1.
    let i_im3 = spectrum[2 * K1 - K2].max(spectrum[2 * K2 - K1]);
    TwoToneResult {
        pin_dbm: spec.pin_dbm,
        p_fund_dbm: dbm_from_watts(0.5 * i_fund * i_fund * spec.r_load),
        p_im3_dbm: dbm_from_watts(0.5 * i_im3 * i_im3 * spec.r_load),
    }
}

/// Sweeps input power and extrapolates the output third-order intercept
/// point.
#[derive(Debug, Clone, PartialEq)]
pub struct Ip3Sweep {
    /// Per-power results, ascending in `pin_dbm`.
    pub rows: Vec<TwoToneResult>,
    /// Output-referred intercept point (dBm), if the extrapolation is
    /// well-posed.
    pub oip3_dbm: Option<f64>,
    /// Input-referred intercept point (dBm).
    pub iip3_dbm: Option<f64>,
}

/// Runs a two-tone power sweep with the given evaluator and extrapolates
/// IP3 from the small-signal (lowest-power) portion of the sweep.
pub fn ip3_sweep(pin_dbm: &[f64], mut eval: impl FnMut(f64) -> TwoToneResult) -> Ip3Sweep {
    let rows: Vec<TwoToneResult> = pin_dbm
        .iter()
        .map(|&p| {
            OBS_TWOTONE_POINTS.add(1);
            // Fault hook, keyed by the power level's bit pattern (data-
            // derived, thread-count independent). A failed point keeps its
            // slot with NaN powers so `rows` stays aligned with `pin_dbm`;
            // the finiteness guard below then refuses to extrapolate IP3
            // from a poisoned fit window.
            if rfkit_robust::faults::inject("twotone.point", p.to_bits()).is_some() {
                OBS_TWOTONE_FAILED.add(1);
                return TwoToneResult {
                    pin_dbm: p,
                    p_fund_dbm: f64::NAN,
                    p_im3_dbm: f64::NAN,
                };
            }
            eval(p)
        })
        .collect();
    rfkit_obs::event("circuit.twotone.sweep", &[("points", rows.len() as f64)]);
    // Fit the 1:1 and 3:1 slopes on the lowest third of the sweep where
    // both stay well below compression.
    let n_fit = (rows.len() / 3).max(2).min(rows.len());
    let x: Vec<f64> = rows[..n_fit].iter().map(|r| r.pin_dbm).collect();
    let y1: Vec<f64> = rows[..n_fit].iter().map(|r| r.p_fund_dbm).collect();
    let y3: Vec<f64> = rows[..n_fit].iter().map(|r| r.p_im3_dbm).collect();
    let (oip3_dbm, iip3_dbm) = match (Polynomial::fit_line(&x, &y1), Polynomial::fit_line(&x, &y3))
    {
        (Ok(l1), Ok(l3)) if y3.iter().all(|v| v.is_finite()) => match line_intersection(l1, l3) {
            Some(pin_ip3) => {
                let oip3 = l1.0 + l1.1 * pin_ip3;
                (Some(oip3), Some(pin_ip3))
            }
            None => (None, None),
        },
        _ => (None, None),
    };
    Ip3Sweep {
        rows,
        oip3_dbm,
        iip3_dbm,
    }
}

/// Single-tone gain at one input power, from the full nonlinear model
/// (time-domain + FFT): returns `(output power dBm, gain dB)` of the
/// fundamental.
pub fn single_tone(device: &Phemt, op: &OperatingPoint, spec: &TwoToneSpec) -> (f64, f64) {
    const N: usize = 512;
    const K: usize = 11;
    let a = spec.tone_amplitude();
    let model = device.dc_model.as_ref();
    let i0 = model.ids(&device.dc_params, op.vgs, op.vds);
    let signal: Vec<f64> = (0..N)
        .map(|t| {
            let phase = 2.0 * std::f64::consts::PI * (K * t) as f64 / N as f64;
            model.ids(&device.dc_params, op.vgs + a * phase.cos(), op.vds) - i0
        })
        .collect();
    let spectrum = amplitude_spectrum(&signal);
    let p_out = dbm_from_watts(0.5 * spectrum[K] * spectrum[K] * spec.r_load);
    (p_out, p_out - spec.pin_dbm)
}

/// Input-referred 1 dB compression point (dBm): the input power at which
/// the single-tone gain has dropped 1 dB below its small-signal value.
/// Found by bisection between `p_lo` (small signal) and `p_hi` (well into
/// compression); returns `None` when the device does not compress 1 dB
/// within that window.
pub fn p1db(device: &Phemt, op: &OperatingPoint, p_lo: f64, p_hi: f64) -> Option<f64> {
    let gain_at = |p: f64| {
        single_tone(
            device,
            op,
            &TwoToneSpec {
                pin_dbm: p,
                ..Default::default()
            },
        )
        .1
    };
    let g_small = gain_at(p_lo);
    if gain_at(p_hi) > g_small - 1.0 {
        return None;
    }
    let (mut lo, mut hi) = (p_lo, p_hi);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if gain_at(mid) > g_small - 1.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(0.5 * (lo + hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device_and_op() -> (Phemt, OperatingPoint) {
        let d = Phemt::atf54143_like();
        let vgs = d.bias_for_current(3.0, 0.060).unwrap();
        let op = d.operating_point(vgs, 3.0);
        (d, op)
    }

    #[test]
    fn tone_amplitude_from_power() {
        let spec = TwoToneSpec {
            pin_dbm: -20.0,
            ..Default::default()
        };
        // -20 dBm available from 50 Ω → A = sqrt(8·50·1e-5) = 63.2 mV.
        assert!((spec.tone_amplitude() - 0.0632).abs() < 1e-3);
    }

    #[test]
    fn im3_slope_is_three_to_one() {
        let (d, op) = device_and_op();
        for eval_name in ["series", "time"] {
            let r1 = |p: f64| {
                let spec = TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                };
                if eval_name == "series" {
                    power_series(&d, &op, &spec)
                } else {
                    time_domain(&d, &op, &spec)
                }
            };
            let lo = r1(-45.0);
            let hi = r1(-35.0);
            let fund_slope = (hi.p_fund_dbm - lo.p_fund_dbm) / 10.0;
            let im3_slope = (hi.p_im3_dbm - lo.p_im3_dbm) / 10.0;
            assert!(
                (fund_slope - 1.0).abs() < 0.05,
                "{eval_name}: fundamental slope {fund_slope}"
            );
            assert!(
                (im3_slope - 3.0).abs() < 0.15,
                "{eval_name}: IM3 slope {im3_slope}"
            );
        }
    }

    #[test]
    fn power_series_and_time_domain_agree_at_small_signal() {
        let (d, op) = device_and_op();
        let spec = TwoToneSpec {
            pin_dbm: -40.0,
            ..Default::default()
        };
        let ps = power_series(&d, &op, &spec);
        let td = time_domain(&d, &op, &spec);
        assert!(
            (ps.p_fund_dbm - td.p_fund_dbm).abs() < 0.5,
            "fundamental: {} vs {}",
            ps.p_fund_dbm,
            td.p_fund_dbm
        );
        assert!(
            (ps.p_im3_dbm - td.p_im3_dbm).abs() < 2.0,
            "IM3: {} vs {}",
            ps.p_im3_dbm,
            td.p_im3_dbm
        );
    }

    #[test]
    fn oip3_extrapolation_realistic() {
        let (d, op) = device_and_op();
        let pins: Vec<f64> = (0..13).map(|k| -45.0 + 2.5 * k as f64).collect();
        let sweep = ip3_sweep(&pins, |p| {
            time_domain(
                &d,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        let oip3 = sweep.oip3_dbm.expect("well-posed extrapolation");
        // A pHEMT LNA lands in the +10…+40 dBm OIP3 range.
        assert!(oip3 > 5.0 && oip3 < 45.0, "OIP3 = {oip3} dBm");
        let iip3 = sweep.iip3_dbm.unwrap();
        assert!(iip3 < oip3, "gain positive: IIP3 {iip3} < OIP3 {oip3}");
    }

    #[test]
    fn bias_moves_ip3() {
        // More bias current → higher OIP3 (classic linearity/current trade).
        let d = Phemt::atf54143_like();
        let pins: Vec<f64> = (0..9).map(|k| -45.0 + 2.0 * k as f64).collect();
        let oip3_at = |ids: f64| {
            let op = d.operating_point(d.bias_for_current(3.0, ids).unwrap(), 3.0);
            ip3_sweep(&pins, |p| {
                time_domain(
                    &d,
                    &op,
                    &TwoToneSpec {
                        pin_dbm: p,
                        ..Default::default()
                    },
                )
            })
            .oip3_dbm
            .unwrap()
        };
        let low = oip3_at(0.020);
        let high = oip3_at(0.080);
        assert!(high > low, "OIP3(80 mA) = {high} vs OIP3(20 mA) = {low}");
    }

    #[test]
    fn p1db_realistic_and_below_oip3() {
        // Rule of thumb: OIP3 ≈ P1dB(output) + 9…12 dB for a memoryless
        // cubic nonlinearity; at minimum, the input P1dB must sit well
        // below IIP3.
        let (d, op) = device_and_op();
        let iip1 = p1db(&d, &op, -45.0, 10.0).expect("device compresses");
        assert!(iip1 > -20.0 && iip1 < 10.0, "input P1dB = {iip1} dBm");
        let pins: Vec<f64> = (0..9).map(|k| -45.0 + 2.5 * k as f64).collect();
        let sweep = ip3_sweep(&pins, |p| {
            time_domain(
                &d,
                &op,
                &TwoToneSpec {
                    pin_dbm: p,
                    ..Default::default()
                },
            )
        });
        let iip3 = sweep.iip3_dbm.unwrap();
        assert!(iip3 > iip1 + 5.0, "IIP3 {iip3} vs input P1dB {iip1}");
    }

    #[test]
    fn single_tone_gain_matches_gm_at_small_signal() {
        let (d, op) = device_and_op();
        let spec = TwoToneSpec {
            pin_dbm: -45.0,
            ..Default::default()
        };
        let (_, gain_db) = single_tone(&d, &op, &spec);
        // Expected transducer-style gain of the bare transconductance into
        // 50 Ω from the gate voltage: P_out/P_in = (gm·A)²·R/2 / P_in.
        let a = spec.tone_amplitude();
        let p_out = 0.5 * (op.gm * a).powi(2) * spec.r_load;
        let expect = 10.0 * (p_out / rfkit_num::units::watts_from_dbm(-45.0)).log10();
        assert!((gain_db - expect).abs() < 0.1, "{gain_db} vs {expect}");
    }

    #[test]
    fn compression_appears_at_high_drive() {
        let (d, op) = device_and_op();
        let small = time_domain(
            &d,
            &op,
            &TwoToneSpec {
                pin_dbm: -40.0,
                ..Default::default()
            },
        );
        let large = time_domain(
            &d,
            &op,
            &TwoToneSpec {
                pin_dbm: 0.0,
                ..Default::default()
            },
        );
        let small_gain = small.p_fund_dbm - small.pin_dbm;
        let large_gain = large.p_fund_dbm - large.pin_dbm;
        assert!(
            large_gain < small_gain - 1.0,
            "gain must compress: {small_gain} → {large_gain}"
        );
    }
}
