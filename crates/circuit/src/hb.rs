//! Single-tone harmonic balance for the loaded pHEMT stage.
//!
//! The time-domain paths in [`crate::twotone`] hold `V_ds` fixed — valid
//! at small signal where the load swing is negligible. At large signal the
//! drain voltage swings along the load line, the waveform clips against
//! the knee and pinch-off, and compression/harmonics depend on the
//! *embedding network*. That is the regime harmonic balance handles: the
//! drain-node voltage is represented by its Fourier coefficients, the
//! nonlinear current is evaluated in the time domain, and Newton iteration
//! enforces KCL at every harmonic simultaneously.
//!
//! Scope: one nonlinear element (the drain current source `I_d(v_gs,
//! v_ds)`), a sinusoidal gate drive, a DC feed resistance and an arbitrary
//! per-harmonic complex load `Z_L(k·f0)`. That covers the classic loaded
//! single-stage analyses: compression, harmonic distortion, bias shift.

use rfkit_device::{OperatingPoint, Phemt};
use rfkit_num::fft::fft;
use rfkit_num::units::dbm_from_watts;
use rfkit_num::{CMatrix, Complex};

// Per-solve timing (runtime-gated, write-only; see rfkit-obs).
static OBS_HB_SOLVE_US: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.hb.solve_us");

/// The harmonic-balance testbench.
pub struct HbTestbench<'a> {
    /// The device under test.
    pub device: &'a Phemt,
    /// Quiescent operating point (sets bias and the gate drive center).
    pub op: OperatingPoint,
    /// Supply voltage at the top of the DC feed (V); choose
    /// `vdd = vds + ids·r_dc_feed` to reproduce the quiescent point.
    pub vdd: f64,
    /// DC feed resistance from the supply to the drain (Ω).
    pub r_dc_feed: f64,
    /// Complex AC load at each harmonic `k ≥ 1` of the fundamental.
    pub load: Box<dyn Fn(usize) -> Complex + 'a>,
}

/// Number of harmonics kept (excluding DC); the time grid has
/// `(4 × (HARMONICS + 1)).next_power_of_two()` samples.
const HARMONICS: usize = 7;
/// Newton tolerance on the KCL residual (A).
const TOL: f64 = 1e-9;
/// Residual (A) up to which a solve that spent its iterations is still
/// accepted.
const ACCEPT_TOL: f64 = 1e-6;
/// Maximum Newton iterations per solve.
const MAX_ITER: usize = 60;

/// Result of a harmonic-balance solve.
#[derive(Debug, Clone, PartialEq)]
pub struct HbSolution {
    /// Drain-source voltage Fourier coefficients `V[k]`, `k = 0..=H`
    /// (peak-amplitude convention for `k ≥ 1`).
    pub v_ds: Vec<Complex>,
    /// Drain-current Fourier coefficients `I[k]` with the same convention.
    pub i_d: Vec<Complex>,
    /// Final KCL residual norm (A).
    pub residual: f64,
    /// Newton iterations used.
    pub iterations: usize,
}

impl HbSolution {
    /// Power delivered to the load at harmonic `k ≥ 1`, in dBm.
    ///
    /// # Panics
    ///
    /// Panics for `k == 0` or `k` beyond the solved harmonics.
    pub fn harmonic_power_dbm(&self, k: usize, load: Complex) -> f64 {
        assert!(k >= 1 && k < self.i_d.len(), "harmonic {k} out of range");
        // P = ½·|I_k|²·Re(Z_L).
        dbm_from_watts(0.5 * self.i_d[k].norm_sqr() * load.re.max(0.0))
    }

    /// The DC component of the drain current (A) — shifts under drive
    /// (self-biasing), a distinctive large-signal effect.
    pub fn dc_current(&self) -> f64 {
        self.i_d[0].re
    }
}

/// Error from the harmonic-balance solver.
#[derive(Debug, Clone, PartialEq)]
pub enum HbError {
    /// Newton failed to reach the tolerance.
    NoConvergence {
        /// Residual at the last iterate.
        residual: f64,
    },
    /// The Jacobian became singular.
    Singular,
}

impl std::fmt::Display for HbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HbError::NoConvergence { residual } => {
                write!(
                    f,
                    "harmonic balance did not converge (residual {residual:.3e} A)"
                )
            }
            HbError::Singular => write!(f, "singular harmonic-balance Jacobian"),
        }
    }
}

impl std::error::Error for HbError {}

/// Solves the testbench at gate-drive amplitude `a_gate` volts (peak),
/// keeping 7 harmonics and iterating Newton to a 1e-9 A KCL residual.
///
/// Hard-clipping cases are handled by source stepping: when the direct
/// Newton solve stalls, the amplitude is ramped in stages and each stage
/// warm-starts the next.
///
/// # Errors
///
/// See [`HbError`].
pub fn solve(bench: &HbTestbench<'_>, a_gate: f64) -> Result<HbSolution, HbError> {
    let watch = rfkit_obs::stopwatch();
    let result = solve_inner(bench, a_gate);
    if let Some(us) = watch.elapsed_us() {
        OBS_HB_SOLVE_US.record(us);
    }
    result
}

fn solve_inner(bench: &HbTestbench<'_>, a_gate: f64) -> Result<HbSolution, HbError> {
    let dim = 1 + 2 * HARMONICS;
    let mut x0 = vec![0.0; dim];
    x0[0] = bench.op.vds;
    match solve_from(bench, a_gate, x0.clone()) {
        Ok(sol) => Ok(sol),
        Err(_) => {
            // Continuation: ramp the drive, warm-starting each stage.
            let mut x = x0;
            let stages = 8;
            let mut last = Err(HbError::NoConvergence { residual: f64::NAN });
            for s in 1..=stages {
                let a = a_gate * s as f64 / stages as f64;
                match solve_from(bench, a, x.clone()) {
                    Ok(sol) => {
                        x = pack(&sol);
                        last = Ok(sol);
                    }
                    Err(e) => return Err(e),
                }
            }
            last
        }
    }
}

/// Packs a solution back into the real unknown vector (warm start).
fn pack(sol: &HbSolution) -> Vec<f64> {
    let h = sol.v_ds.len() - 1;
    let mut x = vec![0.0; 1 + 2 * h];
    x[0] = sol.v_ds[0].re;
    for k in 1..=h {
        x[2 * k - 1] = sol.v_ds[k].re;
        x[2 * k] = sol.v_ds[k].im;
    }
    x
}

fn solve_from(
    bench: &HbTestbench<'_>,
    a_gate: f64,
    mut x: Vec<f64>,
) -> Result<HbSolution, HbError> {
    let h = HARMONICS;
    let n_time = (4 * (h + 1)).next_power_of_two();
    let model = bench.device.dc_model.as_ref();
    let dim = 1 + 2 * h;

    // Precompute the gate waveform.
    let vgs: Vec<f64> = (0..n_time)
        .map(|t| {
            let phase = 2.0 * std::f64::consts::PI * t as f64 / n_time as f64;
            bench.op.vgs + a_gate * phase.cos()
        })
        .collect();

    // KCL residual per harmonic:
    //   k = 0: (V0 − Vdd)/R_feed + I0 = 0
    //   k ≥ 1: V_k/Z_L(k) + I_k = 0
    let residual_of = |x: &[f64]| -> Vec<f64> {
        let i = device_harmonics(model, &bench.device.dc_params, &vgs, x, h, n_time);
        let mut r = vec![0.0; dim];
        r[0] = (x[0] - bench.vdd) / bench.r_dc_feed + i[0].re;
        for k in 1..=h {
            let v_k = Complex::new(x[2 * k - 1], x[2 * k]);
            let y_l = (bench.load)(k).recip();
            let kcl = v_k * y_l + i[k];
            r[2 * k - 1] = kcl.re;
            r[2 * k] = kcl.im;
        }
        r
    };

    let norm = |r: &[f64]| r.iter().map(|v| v * v).sum::<f64>().sqrt();
    let mut r = residual_of(&x);
    let mut iterations = 0;
    while norm(&r) > TOL && iterations < MAX_ITER {
        iterations += 1;
        // Fault hook, keyed by iteration number so armed plans fire at the
        // same logical step regardless of thread count or call order.
        match rfkit_robust::faults::inject("hb.newton", iterations as u64) {
            Some(rfkit_robust::faults::FaultKind::SingularLu) => return Err(HbError::Singular),
            Some(_) => return Err(HbError::NoConvergence { residual: f64::NAN }),
            None => {}
        }
        // Numeric Jacobian (dim is small: ~15 for 7 harmonics).
        let mut jac = CMatrix::zeros(dim, dim);
        for j in 0..dim {
            let step = 1e-6 * x[j].abs().max(1e-3);
            let mut xp = x.clone();
            xp[j] += step;
            let rp = residual_of(&xp);
            for i in 0..dim {
                jac[(i, j)] = Complex::real((rp[i] - r[i]) / step);
            }
        }
        let rhs: Vec<Complex> = r.iter().map(|&v| Complex::real(-v)).collect();
        let delta = jac.solve(&rhs).map_err(|_| HbError::Singular)?;
        // Damped update keeps the knee clipping from overshooting.
        let max_step = delta.iter().map(|d| d.re.abs()).fold(0.0f64, f64::max);
        let damp = if max_step > 1.0 { 1.0 / max_step } else { 1.0 };
        for (xi, d) in x.iter_mut().zip(&delta) {
            *xi += damp * d.re;
        }
        r = residual_of(&x);
    }
    let res = norm(&r);
    if res > ACCEPT_TOL {
        return Err(HbError::NoConvergence { residual: res });
    }

    let i = device_harmonics(model, &bench.device.dc_params, &vgs, &x, h, n_time);
    let mut v_ds = vec![Complex::ZERO; h + 1];
    v_ds[0] = Complex::real(x[0]);
    for k in 1..=h {
        v_ds[k] = Complex::new(x[2 * k - 1], x[2 * k]);
    }
    Ok(HbSolution {
        v_ds,
        i_d: i,
        residual: res,
        iterations,
    })
}

/// Evaluates the device current harmonics for the drain-voltage spectrum
/// packed in `x` (peak-amplitude convention).
fn device_harmonics(
    model: &dyn rfkit_device::DcModel,
    params: &[f64],
    vgs: &[f64],
    x: &[f64],
    h: usize,
    n_time: usize,
) -> Vec<Complex> {
    // Synthesize vds(t).
    let mut vds = vec![x[0]; n_time];
    for k in 1..=h {
        let v_k = Complex::new(x[2 * k - 1], x[2 * k]);
        for (t, v) in vds.iter_mut().enumerate() {
            let phase = 2.0 * std::f64::consts::PI * (k * t % n_time) as f64 / n_time as f64;
            *v += v_k.re * phase.cos() - v_k.im * phase.sin();
        }
    }
    // Nonlinearity in the time domain.
    let mut current: Vec<Complex> = vgs
        .iter()
        .zip(&vds)
        .map(|(&g, &d)| Complex::real(model.ids(params, g, d.max(0.0))))
        .collect();
    // Back to the frequency domain (peak convention: X_k = 2·FFT_k/N).
    fft(&mut current);
    let mut out = Vec::with_capacity(h + 1);
    out.push(current[0].scale(1.0 / n_time as f64));
    for harmonic in current.iter().take(h + 1).skip(1) {
        out.push(harmonic.scale(2.0 / n_time as f64));
    }
    out
}

/// Gain-compression sweep: returns `(a_gate, fundamental output dBm)` rows
/// and the input-referred 1 dB compression amplitude when reached.
pub fn compression_sweep(
    bench: &HbTestbench<'_>,
    amplitudes: &[f64],
) -> (Vec<(f64, f64)>, Option<f64>) {
    let mut rows = Vec::new();
    let mut small_signal_gain: Option<f64> = None;
    let mut p1db = None;
    for &a in amplitudes {
        let Ok(sol) = solve(bench, a) else {
            continue;
        };
        let p_fund = sol.harmonic_power_dbm(1, (bench.load)(1));
        let gain = p_fund - dbm_from_watts(a * a / (8.0 * 50.0));
        rows.push((a, p_fund));
        match small_signal_gain {
            None => small_signal_gain = Some(gain),
            Some(g0) => {
                if p1db.is_none() && gain < g0 - 1.0 {
                    p1db = Some(a);
                }
            }
        }
    }
    (rows, p1db)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_num::units::watts_from_dbm;

    fn bench_with_load(device: &Phemt, r_load: f64) -> HbTestbench<'_> {
        let op = device.operating_point(device.bias_for_current(3.0, 0.06).unwrap(), 3.0);
        HbTestbench {
            device,
            op,
            vdd: op.vds + op.ids * 20.0,
            r_dc_feed: 20.0,
            load: Box::new(move |_k| Complex::real(r_load)),
        }
    }

    #[test]
    fn zero_drive_reproduces_quiescent_point() {
        let device = Phemt::atf54143_like();
        let bench = bench_with_load(&device, 50.0);
        let sol = solve(&bench, 0.0).unwrap();
        assert!(
            (sol.v_ds[0].re - bench.op.vds).abs() < 1e-6,
            "V0 = {}",
            sol.v_ds[0].re
        );
        assert!((sol.dc_current() - bench.op.ids).abs() < 1e-6);
        for k in 1..sol.v_ds.len() {
            assert!(sol.v_ds[k].abs() < 1e-9, "harmonic {k} must vanish");
        }
    }

    #[test]
    fn small_signal_matches_linear_theory() {
        // At tiny drive: I1 ≈ gm·A / (1 + gds·R_L-ish)… exactly:
        // i1 = gm·a + gds·v1, v1 = −Z_L·i1 → i1 = gm·a/(1 + gds·Z_L).
        let device = Phemt::atf54143_like();
        let r_load = 50.0;
        let bench = bench_with_load(&device, r_load);
        let a = 1e-3;
        let sol = solve(&bench, a).unwrap();
        let expect = bench.op.gm * a / (1.0 + bench.op.gds * r_load);
        assert!(
            (sol.i_d[1].abs() - expect).abs() / expect < 1e-3,
            "I1 = {} vs {}",
            sol.i_d[1].abs(),
            expect
        );
        // Load line: V1 = −Z_L·I1.
        let v_expected = -Complex::real(r_load) * sol.i_d[1];
        assert!((sol.v_ds[1] - v_expected).abs() < 1e-9);
    }

    #[test]
    fn harmonics_grow_with_drive() {
        let device = Phemt::atf54143_like();
        let bench = bench_with_load(&device, 50.0);
        let small = solve(&bench, 0.02).unwrap();
        let large = solve(&bench, 0.30).unwrap();
        let hd2 = |s: &HbSolution| s.i_d[2].abs() / s.i_d[1].abs();
        let hd3 = |s: &HbSolution| s.i_d[3].abs() / s.i_d[1].abs();
        assert!(hd2(&large) > 5.0 * hd2(&small), "HD2 must grow with drive");
        assert!(hd3(&large) > 5.0 * hd3(&small), "HD3 must grow with drive");
        assert!(hd2(&large) < 1.0, "still an amplifier, not a multiplier");
    }

    #[test]
    fn dc_current_shifts_under_large_drive() {
        // Even-order nonlinearity rectifies: the DC drain current moves
        // when driven hard — invisible to the fixed-Vds analysis.
        let device = Phemt::atf54143_like();
        let bench = bench_with_load(&device, 50.0);
        let quiescent = bench.op.ids;
        let driven = solve(&bench, 0.35).unwrap();
        assert!(
            (driven.dc_current() - quiescent).abs() > 1e-3,
            "self-bias shift: {} vs {}",
            driven.dc_current(),
            quiescent
        );
    }

    #[test]
    fn loaded_stage_compresses() {
        let device = Phemt::atf54143_like();
        let bench = bench_with_load(&device, 100.0);
        let amplitudes: Vec<f64> = (1..25).map(|k| 0.02 * k as f64).collect();
        let (rows, p1db) = compression_sweep(&bench, &amplitudes);
        assert!(rows.len() > 15, "most drive levels must converge");
        let a1db = p1db.expect("the stage must compress within ±0.5 V drive");
        assert!(a1db > 0.05 && a1db < 0.5, "A(1 dB) = {a1db} V");
        // Output power saturates: last step adds < 1 dB per amplitude step.
        let n = rows.len();
        let final_slope = rows[n - 1].1 - rows[n - 2].1;
        let early_slope = rows[2].1 - rows[1].1;
        assert!(
            final_slope < 0.6 * early_slope,
            "{final_slope} vs {early_slope}"
        );
    }

    #[test]
    fn heavier_load_compresses_more() {
        // A larger load resistance swings the drain harder per mA, so at
        // the same gate drive the knee clips deeper: embedding matters,
        // which is the whole point of harmonic balance.
        let device = Phemt::atf54143_like();
        let compression_at = |r_load: f64, a: f64| {
            let bench = bench_with_load(&device, r_load);
            let small = solve(&bench, 1e-3).unwrap();
            let large = solve(&bench, a).unwrap();
            // Gain drop in dB relative to small signal (currents scale
            // linearly absent compression).
            20.0 * (small.i_d[1].abs() / 1e-3).log10() - 20.0 * (large.i_d[1].abs() / a).log10()
        };
        let light = compression_at(25.0, 0.3);
        let heavy = compression_at(150.0, 0.3);
        assert!(
            heavy > light + 0.2,
            "150 Ω load must compress more at equal drive: {heavy} vs {light} dB"
        );
    }

    #[test]
    fn harmonic_power_accounting() {
        let device = Phemt::atf54143_like();
        let bench = bench_with_load(&device, 50.0);
        let sol = solve(&bench, 0.1).unwrap();
        let p1 = sol.harmonic_power_dbm(1, Complex::real(50.0));
        // ½|I1|²·R in dBm must match the helper.
        let direct = dbm_from_watts(0.5 * sol.i_d[1].norm_sqr() * 50.0);
        assert!((p1 - direct).abs() < 1e-12);
        assert!(watts_from_dbm(p1) > 0.0);
    }

    #[test]
    fn reactive_harmonic_terminations_accepted() {
        // Short the harmonics (class-ish operation): loads may differ per k.
        let device = Phemt::atf54143_like();
        let op = device.operating_point(device.bias_for_current(3.0, 0.06).unwrap(), 3.0);
        let bench = HbTestbench {
            device: &device,
            op,
            vdd: op.vds + op.ids * 20.0,
            r_dc_feed: 20.0,
            load: Box::new(|k| {
                if k == 1 {
                    Complex::real(50.0)
                } else {
                    Complex::new(0.5, 2.0) // near-short above the fundamental
                }
            }),
        };
        let sol = solve(&bench, 0.25).unwrap();
        // Harmonic voltages are suppressed by the short even though the
        // harmonic currents are not.
        assert!(sol.v_ds[2].abs() < 0.1 * sol.v_ds[1].abs());
    }
}
