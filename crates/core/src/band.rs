//! Band specifications and worst-case band metrics.
//!
//! The multi-constellation requirement is what makes this design
//! multi-objective *across frequency*: GPS L1/L2/L5, GLONASS G1/G2,
//! Galileo E1/E5/E6 and BeiDou B1/B2/B3 together span roughly
//! 1.1–1.7 GHz, and the paper optimizes the worst case over that whole
//! band rather than a single spot frequency.

use crate::amplifier::{Amplifier, PointMetrics, StabilityFactors};
use rfkit_num::linspace;
use rfkit_par::par_map_indexed;
use rfkit_robust::{faults, DegradePolicy, PointDiagnostic};
use std::sync::OnceLock;

// Per-point failure telemetry (runtime-gated, write-only; see rfkit-obs).
static OBS_BAND_POINTS_FAILED: rfkit_obs::Counter = rfkit_obs::Counter::new("band.points.failed");

/// GPS L1 / Galileo E1 / BeiDou B1C center frequency (Hz).
pub const GPS_L1_HZ: f64 = 1.57542e9;
/// GPS L2 center frequency (Hz).
pub const GPS_L2_HZ: f64 = 1.2276e9;
/// GPS L5 / Galileo E5a center frequency (Hz).
pub const GPS_L5_HZ: f64 = 1.17645e9;
/// GLONASS G1 center frequency (Hz).
pub const GLONASS_G1_HZ: f64 = 1.602e9;

/// The wider out-of-band stability-check grid (0.2–6 GHz).
const STABILITY_GRID: [f64; 8] = [0.2e9, 0.5e9, 1.0e9, 1.4e9, 1.8e9, 2.5e9, 4.0e9, 6.0e9];

/// Cached evaluation grids of a [`BandSpec`], computed once per spec.
#[derive(Debug, Clone)]
struct Grids {
    /// The in-band linspace grid.
    in_band: Vec<f64>,
    /// In-band grid followed by the stability grid — the buffer
    /// [`BandMetrics::evaluate`] sweeps.
    combined: Vec<f64>,
}

/// A frequency band with an evaluation grid.
///
/// The band edges and point count are fixed at construction; the
/// evaluation grids are computed lazily once and then borrowed, so the
/// hot path ([`BandMetrics::evaluate`], called for every optimizer
/// candidate) never reallocates frequency buffers.
#[derive(Debug, Clone)]
pub struct BandSpec {
    f_lo: f64,
    f_hi: f64,
    n_points: usize,
    grids: OnceLock<Grids>,
}

impl PartialEq for BandSpec {
    fn eq(&self, other: &Self) -> bool {
        // The grid cache is derived state; only the defining parameters
        // participate in equality.
        self.f_lo == other.f_lo && self.f_hi == other.f_hi && self.n_points == other.n_points
    }
}

impl BandSpec {
    /// A band from `f_lo` to `f_hi` Hz with `n_points` in-band evaluation
    /// points.
    pub fn new(f_lo: f64, f_hi: f64, n_points: usize) -> Self {
        BandSpec {
            f_lo,
            f_hi,
            n_points,
            grids: OnceLock::new(),
        }
    }

    /// The multi-constellation GNSS band of the paper: 1.1–1.7 GHz.
    pub fn gnss() -> Self {
        BandSpec::new(1.1e9, 1.7e9, 7)
    }

    /// Lower band edge (Hz).
    pub fn f_lo(&self) -> f64 {
        self.f_lo
    }

    /// Upper band edge (Hz).
    pub fn f_hi(&self) -> f64 {
        self.f_hi
    }

    /// Number of in-band evaluation points.
    pub fn n_points(&self) -> usize {
        self.n_points
    }

    /// A wider grid for out-of-band stability checks (0.2–6 GHz).
    pub fn stability_grid() -> &'static [f64] {
        &STABILITY_GRID
    }

    /// The in-band evaluation grid (computed once, then borrowed).
    pub fn grid(&self) -> &[f64] {
        &self.grids().in_band
    }

    /// The in-band grid followed by the stability grid — the combined
    /// buffer band evaluation sweeps (computed once, then borrowed).
    pub fn combined_grid(&self) -> &[f64] {
        &self.grids().combined
    }

    fn grids(&self) -> &Grids {
        self.grids.get_or_init(|| {
            let in_band = linspace(self.f_lo, self.f_hi, self.n_points);
            let mut combined = in_band.clone();
            combined.extend_from_slice(&STABILITY_GRID);
            Grids { in_band, combined }
        })
    }

    /// Band center (Hz).
    pub fn center(&self) -> f64 {
        0.5 * (self.f_lo + self.f_hi)
    }
}

/// One evaluated grid point as the band reduction reads it: every metric
/// in band, only the stability factors on the stability grid.
enum GridPoint {
    InBand(PointMetrics),
    Stability(StabilityFactors),
}

/// Worst-case metrics of an amplifier over a band (plus out-of-band
/// stability).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BandMetrics {
    /// Largest in-band 50 Ω noise figure (dB).
    pub worst_nf_db: f64,
    /// Smallest in-band transducer gain (dB).
    pub min_gain_db: f64,
    /// Largest in-band |S11| (dB).
    pub worst_s11_db: f64,
    /// Largest in-band |S22| (dB).
    pub worst_s22_db: f64,
    /// Smallest geometric stability factor μ over the wide grid
    /// (must exceed 1 for unconditional stability).
    pub min_mu: f64,
    /// Smallest Rollett K over the wide grid.
    pub min_k: f64,
}

/// Outcome of a fault-isolated band evaluation
/// ([`BandMetrics::evaluate_robust`]).
#[derive(Debug, Clone, PartialEq)]
pub enum BandOutcome {
    /// Every grid point evaluated.
    Complete(BandMetrics),
    /// Some points failed but stayed within the [`DegradePolicy`]; the
    /// metrics reduce over the surviving points only and must be treated
    /// as a flagged partial, never cached or compared bit-for-bit against
    /// a complete sweep.
    Degraded {
        /// Worst case over the surviving points.
        metrics: BandMetrics,
        /// One entry per failed grid point, in grid order.
        diagnostics: Vec<PointDiagnostic>,
    },
    /// The bias point is unreachable — a deterministic property of the
    /// design variables, not a transient solver failure.
    Infeasible,
    /// Transient point failures exceeded the policy (or left a grid
    /// segment empty); no metrics are trustworthy.
    Failed {
        /// One entry per failed grid point, in grid order.
        diagnostics: Vec<PointDiagnostic>,
    },
}

impl BandOutcome {
    /// The metrics when the sweep produced any (complete or degraded).
    pub fn metrics(&self) -> Option<&BandMetrics> {
        match self {
            BandOutcome::Complete(m) => Some(m),
            BandOutcome::Degraded { metrics, .. } => Some(metrics),
            BandOutcome::Infeasible | BandOutcome::Failed { .. } => None,
        }
    }

    /// The per-point failure diagnostics (empty for complete/infeasible
    /// outcomes).
    pub fn diagnostics(&self) -> &[PointDiagnostic] {
        match self {
            BandOutcome::Degraded { diagnostics, .. } | BandOutcome::Failed { diagnostics } => {
                diagnostics
            }
            BandOutcome::Complete(_) | BandOutcome::Infeasible => &[],
        }
    }

    /// `true` for the outcomes that are pure functions of the design
    /// (complete sweeps and deterministic infeasibility) and may therefore
    /// be memoized. Degraded and failed sweeps reflect transient solver
    /// trouble and must never enter a cache.
    pub fn cacheable(&self) -> bool {
        matches!(self, BandOutcome::Complete(_) | BandOutcome::Infeasible)
    }
}

impl BandMetrics {
    /// Evaluates an amplifier over the band; `None` when any point fails
    /// (e.g. unreachable bias).
    ///
    /// This is the strict view of [`BandMetrics::evaluate_robust`]: any
    /// point failure voids the sweep. Values are bit-identical to the
    /// pre-robust implementation — the reduction visits the same points in
    /// the same serial order.
    pub fn evaluate(amp: &Amplifier<'_>, band: &BandSpec) -> Option<BandMetrics> {
        match BandMetrics::evaluate_robust(amp, band, &DegradePolicy::strict()) {
            BandOutcome::Complete(m) => Some(m),
            _ => None,
        }
    }

    /// Evaluates an amplifier over the band with per-point failure
    /// isolation.
    ///
    /// The per-frequency evaluations (in-band grid plus out-of-band
    /// stability grid) go through `rfkit-par`. A stability-grid point
    /// builds only the chain matrix, since no noise figure is read there.
    /// Each point is a pure
    /// function of frequency, so the worst-case reduction — done serially
    /// in grid order afterwards — is thread-count independent. When this
    /// is itself called from a parallel region (e.g. optimizer population
    /// evaluation), the nested call runs serially, and dense grids in
    /// standalone sweeps fan out.
    ///
    /// A failed point records a [`PointDiagnostic`] instead of voiding the
    /// whole sweep. When every point succeeds the result is
    /// [`BandOutcome::Complete`]; when the bias point itself is
    /// unreachable it is [`BandOutcome::Infeasible`]; otherwise the
    /// failure fraction is graded against `policy` and the surviving
    /// points reduce to a [`BandOutcome::Degraded`] partial — provided
    /// both the in-band and stability segments keep at least one live
    /// point — or the sweep is [`BandOutcome::Failed`].
    pub fn evaluate_robust(
        amp: &Amplifier<'_>,
        band: &BandSpec,
        policy: &DegradePolicy,
    ) -> BandOutcome {
        static OBS_BAND_EVALS: rfkit_obs::Counter = rfkit_obs::Counter::new("band.evaluations");
        OBS_BAND_EVALS.add(1);
        let _span = rfkit_obs::span("band.evaluate");
        // The bias point does not depend on frequency: solve it once and
        // sweep the grid through the biased view.
        let biased = amp.biased();
        // The combined in-band + stability buffer is cached on the spec;
        // evaluation allocates no frequency grids.
        let n_in_band = band.n_points();
        let freqs = band.combined_grid();
        // Fault hook, keyed by the frequency's bit pattern — data-derived,
        // so an armed plan fires at the same grid points regardless of how
        // rfkit-par chunks the sweep across threads.
        let points: Vec<Option<GridPoint>> = par_map_indexed(freqs, |i, &f| {
            if faults::inject("band.point", f.to_bits()).is_some() {
                return None;
            }
            let biased = biased.as_ref()?;
            if i < n_in_band {
                biased.metrics(f).map(GridPoint::InBand)
            } else {
                biased.stability(f).map(GridPoint::Stability)
            }
        });

        let mut diagnostics = Vec::new();
        let mut worst_nf = f64::NEG_INFINITY;
        let mut min_gain = f64::INFINITY;
        let mut worst_s11 = f64::NEG_INFINITY;
        let mut worst_s22 = f64::NEG_INFINITY;
        let mut in_band_live = 0usize;
        for (i, p) in points[..n_in_band].iter().enumerate() {
            let Some(GridPoint::InBand(m)) = p else {
                diagnostics.push(PointDiagnostic {
                    index: i,
                    at: freqs[i],
                    detail: "in-band point failed to evaluate".to_string(),
                });
                continue;
            };
            in_band_live += 1;
            worst_nf = worst_nf.max(m.nf_db);
            min_gain = min_gain.min(m.gain_db);
            worst_s11 = worst_s11.max(m.s11_db);
            worst_s22 = worst_s22.max(m.s22_db);
        }
        let mut min_mu = f64::INFINITY;
        let mut min_k = f64::INFINITY;
        let mut stability_live = 0usize;
        for (i, p) in points[n_in_band..].iter().enumerate() {
            let Some(GridPoint::Stability(s)) = p else {
                diagnostics.push(PointDiagnostic {
                    index: n_in_band + i,
                    at: freqs[n_in_band + i],
                    detail: "stability-grid point failed to evaluate".to_string(),
                });
                continue;
            };
            stability_live += 1;
            min_mu = min_mu.min(s.mu);
            min_k = min_k.min(s.k);
        }

        if !diagnostics.is_empty() {
            OBS_BAND_POINTS_FAILED.add(diagnostics.len() as u64);
        }
        if diagnostics.len() == freqs.len() && biased.is_none() {
            // Every point failed because the bias itself is unreachable: a
            // deterministic property of the design, not solver trouble.
            return BandOutcome::Infeasible;
        }
        let metrics = BandMetrics {
            worst_nf_db: worst_nf,
            min_gain_db: min_gain,
            worst_s11_db: worst_s11,
            worst_s22_db: worst_s22,
            min_mu,
            min_k,
        };
        if diagnostics.is_empty() {
            return BandOutcome::Complete(metrics);
        }
        if in_band_live == 0
            || stability_live == 0
            || !policy.accepts(diagnostics.len(), freqs.len())
        {
            return BandOutcome::Failed { diagnostics };
        }
        BandOutcome::Degraded {
            metrics,
            diagnostics,
        }
    }

    /// `true` when the design meets the usual hard constraints:
    /// unconditional stability and ≤ `return_loss_db` reflections.
    pub fn feasible(&self, return_loss_db: f64) -> bool {
        self.min_mu > 1.0
            && self.worst_s11_db <= return_loss_db
            && self.worst_s22_db <= return_loss_db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amplifier::DesignVariables;
    use rfkit_device::Phemt;

    fn amp_vars() -> DesignVariables {
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
    fn gnss_band_covers_all_constellations() {
        let b = BandSpec::gnss();
        for f in [GPS_L1_HZ, GPS_L2_HZ, GPS_L5_HZ, GLONASS_G1_HZ] {
            assert!(f >= b.f_lo() && f <= b.f_hi(), "{f} outside band");
        }
        assert_eq!(b.grid().len(), 7);
        assert!((b.center() - 1.4e9).abs() < 1.0);
    }

    #[test]
    fn grids_are_cached_and_consistent() {
        let b = BandSpec::new(1.1e9, 1.7e9, 5);
        // Repeated calls borrow the same buffer (compute-once, no realloc).
        assert!(std::ptr::eq(b.grid(), b.grid()));
        assert!(std::ptr::eq(b.combined_grid(), b.combined_grid()));
        // Combined = in-band grid followed by the stability grid.
        let combined = b.combined_grid();
        assert_eq!(&combined[..5], b.grid());
        assert_eq!(&combined[5..], BandSpec::stability_grid());
        // The in-band grid still matches a fresh linspace.
        assert_eq!(b.grid(), linspace(1.1e9, 1.7e9, 5).as_slice());
        // Equality ignores the lazily-populated cache.
        assert_eq!(b, BandSpec::new(1.1e9, 1.7e9, 5));
    }

    #[test]
    fn band_metrics_evaluate() {
        let d = Phemt::atf54143_like();
        let amp = crate::amplifier::Amplifier::new(&d, amp_vars());
        let m = BandMetrics::evaluate(&amp, &BandSpec::gnss()).expect("valid design");
        assert!(
            m.worst_nf_db > 0.0 && m.worst_nf_db < 3.0,
            "NF {}",
            m.worst_nf_db
        );
        assert!(m.min_gain_db > 5.0, "gain {}", m.min_gain_db);
        assert!(m.min_k.is_finite());
        // Worst-case NF is at least the best-case in-band NF.
        let center = amp.metrics(1.4e9).unwrap();
        assert!(m.worst_nf_db >= center.nf_db - 1e-12);
        assert!(m.min_gain_db <= center.gain_db + 1e-12);
    }

    #[test]
    fn infeasible_bias_propagates_none() {
        let d = Phemt::atf54143_like();
        let mut vars = amp_vars();
        vars.ids = 3.0;
        let amp = crate::amplifier::Amplifier::new(&d, vars);
        assert!(BandMetrics::evaluate(&amp, &BandSpec::gnss()).is_none());
    }

    #[test]
    fn robust_outcome_classifies_complete_and_infeasible() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let amp = crate::amplifier::Amplifier::new(&d, amp_vars());
        let policy = rfkit_robust::DegradePolicy::strict();
        // A healthy design is Complete and agrees bit-for-bit with the
        // strict evaluator.
        let outcome = BandMetrics::evaluate_robust(&amp, &band, &policy);
        let strict = BandMetrics::evaluate(&amp, &band).expect("feasible");
        assert_eq!(outcome, BandOutcome::Complete(strict));
        assert!(outcome.cacheable());
        assert!(outcome.diagnostics().is_empty());
        assert_eq!(outcome.metrics(), Some(&strict));
        // An unreachable bias is Infeasible — a property of the design,
        // not a transient failure, so it is cacheable but carries no
        // metrics.
        let mut bad = amp_vars();
        bad.ids = 3.0;
        let dead = crate::amplifier::Amplifier::new(&d, bad);
        let outcome = BandMetrics::evaluate_robust(&dead, &band, &policy);
        assert_eq!(outcome, BandOutcome::Infeasible);
        assert!(outcome.cacheable());
        assert_eq!(outcome.metrics(), None);
    }

    #[test]
    fn feasibility_thresholds() {
        let m = BandMetrics {
            worst_nf_db: 0.9,
            min_gain_db: 14.0,
            worst_s11_db: -12.0,
            worst_s22_db: -11.0,
            min_mu: 1.05,
            min_k: 1.2,
        };
        assert!(m.feasible(-10.0));
        assert!(!m.feasible(-15.0));
        let unstable = BandMetrics { min_mu: 0.9, ..m };
        assert!(!unstable.feasible(-10.0));
    }
}
