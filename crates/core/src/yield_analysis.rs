//! Monte-Carlo production-yield analysis.
//!
//! A design that meets spec only at nominal component values is not a
//! design. This module "manufactures" many units of a design with the
//! catalog tolerances of [`crate::measure::BuildConfig`] and reports the
//! fraction meeting a pass/fail specification — together with which
//! criterion kills the failures, which tells the designer what margin to
//! buy next.

use crate::amplifier::{Amplifier, DesignVariables};
use crate::band::{BandMetrics, BandSpec};
use crate::measure::BuildConfig;
use rfkit_device::Phemt;
use rfkit_par::par_collect;
use rfkit_robust::{faults, DegradePolicy, PointDiagnostic};

// Per-unit failure telemetry (runtime-gated, write-only; see rfkit-obs).
static OBS_YIELD_UNITS_FAILED: rfkit_obs::Counter = rfkit_obs::Counter::new("yield.units.failed");

/// Pass/fail specification for one manufactured unit (worst case over the
/// band).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldSpec {
    /// Maximum allowed worst-case noise figure (dB).
    pub max_nf_db: f64,
    /// Minimum allowed worst-case gain (dB).
    pub min_gain_db: f64,
    /// Maximum allowed worst-case |S11| (dB).
    pub max_s11_db: f64,
    /// Require unconditional stability (min μ > 1) over the wide grid.
    pub require_stability: bool,
}

impl Default for YieldSpec {
    fn default() -> Self {
        YieldSpec {
            max_nf_db: 0.9,
            min_gain_db: 10.0,
            max_s11_db: -8.0,
            require_stability: true,
        }
    }
}

/// Result of a yield run.
#[derive(Debug, Clone, PartialEq)]
pub struct YieldReport {
    /// Units manufactured.
    pub units: usize,
    /// Units meeting every criterion.
    pub passing: usize,
    /// Failures per criterion (a unit can fail several):
    /// `[nf, gain, s11, stability, dead_board]`.
    pub failures: [usize; 5],
    /// Worst-case NF of every live unit (dB).
    pub nf_db: Vec<f64>,
    /// Worst-case gain of every live unit (dB).
    pub gain_db: Vec<f64>,
}

impl YieldReport {
    /// Yield as a fraction in `[0, 1]`.
    pub fn yield_fraction(&self) -> f64 {
        if self.units == 0 {
            return 0.0;
        }
        self.passing as f64 / self.units as f64
    }

    /// Name of the dominant failure mechanism, or `None` at 100 % yield.
    pub fn dominant_failure(&self) -> Option<&'static str> {
        const NAMES: [&str; 5] = [
            "noise figure",
            "gain",
            "input match",
            "stability",
            "dead board",
        ];
        let (idx, &count) = self.failures.iter().enumerate().max_by_key(|(_, &c)| c)?;
        if count == 0 {
            None
        } else {
            Some(NAMES[idx])
        }
    }
}

/// Result of a fault-isolated yield run ([`yield_analysis_robust`]).
#[derive(Debug, Clone, PartialEq)]
pub struct YieldOutcome {
    /// The grading report, aggregated over the units that evaluated.
    /// `report.units` counts only those units, so
    /// [`YieldReport::yield_fraction`] stays meaningful on a partial.
    pub report: YieldReport,
    /// One entry per unit whose evaluation failed transiently (index =
    /// unit number). These units are excluded from the report entirely —
    /// they are neither passes nor dead boards.
    pub diagnostics: Vec<PointDiagnostic>,
    /// `true` when the failure fraction exceeded the [`DegradePolicy`]:
    /// the report is a flagged partial and should not be trusted for
    /// sign-off.
    pub degraded: bool,
}

/// Manufactures `units` boards of `design` (seeds `0..units` offset by
/// `seed_base`) and grades each against `spec` over `band`. A unit is
/// its tolerance draw ([`BuildConfig::draw`]): grading reads no launch
/// line, so none is synthesized.
///
/// The units are evaluated in parallel through `rfkit-par`: every unit's
/// tolerance draw is seeded from `seed_base + unit` before dispatch, so
/// the report is bit-identical at any thread count, and the grading
/// reduction runs serially in unit order.
///
/// Failures are isolated per unit: a unit whose evaluation fails
/// transiently (only possible under fault injection) records a
/// diagnostic and is excluded from the aggregation (it is *not* a dead
/// board — a dead board is a deterministic property of its tolerance
/// draw). The failure fraction is graded against `policy`; beyond it the
/// report is returned anyway but flagged `degraded`. The report itself
/// does not depend on `policy`.
#[allow(clippy::too_many_arguments)]
pub fn yield_analysis_robust(
    device: &Phemt,
    design: &DesignVariables,
    spec: &YieldSpec,
    band: &BandSpec,
    units: usize,
    build: &BuildConfig,
    seed_base: u64,
    policy: &DegradePolicy,
) -> YieldOutcome {
    // Parallel phase: manufacture and measure each unit independently.
    // The fault hook is keyed by the unit index — data-derived, so an
    // armed plan kills the same units at any thread count.
    let measured: Vec<Result<Option<BandMetrics>, ()>> =
        par_collect(units, &Default::default(), |unit| {
            if faults::inject("yield.unit", unit as u64).is_some() {
                return Err(());
            }
            let cfg = BuildConfig {
                seed: seed_base.wrapping_add(unit as u64),
                ..*build
            };
            let amp = Amplifier::new(device, cfg.draw(design));
            Ok(BandMetrics::evaluate(&amp, band))
        });

    // Serial reduction in unit order.
    let mut diagnostics = Vec::new();
    let mut report = YieldReport {
        units,
        passing: 0,
        failures: [0; 5],
        nf_db: Vec::with_capacity(units),
        gain_db: Vec::with_capacity(units),
    };
    for (unit, metrics) in measured.into_iter().enumerate() {
        let metrics = match metrics {
            Ok(m) => m,
            Err(()) => {
                diagnostics.push(PointDiagnostic {
                    index: unit,
                    at: unit as f64,
                    detail: "unit evaluation failed transiently".to_string(),
                });
                continue;
            }
        };
        let Some(metrics) = metrics else {
            report.failures[4] += 1;
            continue;
        };
        report.nf_db.push(metrics.worst_nf_db);
        report.gain_db.push(metrics.min_gain_db);
        let mut pass = true;
        if metrics.worst_nf_db > spec.max_nf_db {
            report.failures[0] += 1;
            pass = false;
        }
        if metrics.min_gain_db < spec.min_gain_db {
            report.failures[1] += 1;
            pass = false;
        }
        if metrics.worst_s11_db > spec.max_s11_db {
            report.failures[2] += 1;
            pass = false;
        }
        if spec.require_stability && metrics.min_mu <= 1.0 {
            report.failures[3] += 1;
            pass = false;
        }
        if pass {
            report.passing += 1;
        }
    }
    if !diagnostics.is_empty() {
        OBS_YIELD_UNITS_FAILED.add(diagnostics.len() as u64);
    }
    // Failed units are excluded from the denominator so the yield
    // fraction reflects only what was actually graded.
    report.units = units - diagnostics.len();
    let degraded = !policy.accepts(diagnostics.len(), units);
    YieldOutcome {
        report,
        diagnostics,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Manufactures `units` boards of the nominal design over the GNSS band.
    fn run(spec: &YieldSpec, units: usize, build: &BuildConfig, seed: u64) -> YieldOutcome {
        let device = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let policy = DegradePolicy::strict();
        yield_analysis_robust(
            &device,
            &nominal(),
            spec,
            &band,
            units,
            build,
            seed,
            &policy,
        )
    }

    #[test]
    fn loose_spec_gives_full_yield() {
        let spec = YieldSpec {
            max_nf_db: 2.0,
            min_gain_db: 5.0,
            max_s11_db: 0.0,
            require_stability: false,
        };
        let report = run(&spec, 20, &BuildConfig::default(), 0).report;
        assert_eq!(report.passing, 20);
        assert_eq!(report.yield_fraction(), 1.0);
        assert!(report.dominant_failure().is_none());
    }

    #[test]
    fn impossible_spec_gives_zero_yield() {
        let spec = YieldSpec {
            max_nf_db: 0.1,
            min_gain_db: 40.0,
            max_s11_db: -40.0,
            require_stability: true,
        };
        let report = run(&spec, 10, &BuildConfig::default(), 0).report;
        assert_eq!(report.passing, 0);
        assert!(report.dominant_failure().is_some());
    }

    #[test]
    fn tighter_tolerances_raise_yield() {
        // Find a spec near the nominal performance edge, then compare 10 %
        // vs 1 % parts.
        let device = Phemt::atf54143_like();
        let amp = Amplifier::new(&device, nominal());
        let nominal_metrics = BandMetrics::evaluate(&amp, &BandSpec::gnss()).unwrap();
        let spec = YieldSpec {
            max_nf_db: nominal_metrics.worst_nf_db + 0.01,
            min_gain_db: nominal_metrics.min_gain_db - 0.15,
            max_s11_db: 0.0,
            require_stability: false,
        };
        let yield_at = |tol: f64| {
            let build = BuildConfig {
                tolerance: tol,
                bias_error: 0.002,
                ..Default::default()
            };
            run(&spec, 40, &build, 7).report.yield_fraction()
        };
        let loose = yield_at(0.10);
        let tight = yield_at(0.01);
        assert!(
            tight > loose,
            "1 % parts must out-yield 10 % parts: {tight} vs {loose}"
        );
        assert!(tight > 0.5, "1 % parts near nominal spec: {tight}");
    }

    #[test]
    fn unfaulted_run_is_complete_under_strict_policy() {
        // With nothing armed every unit grades: no diagnostics, and not
        // degraded even under the strictest policy.
        let outcome = run(&YieldSpec::default(), 12, &BuildConfig::default(), 5);
        assert_eq!(outcome.report.units, 12);
        assert!(outcome.diagnostics.is_empty());
        assert!(!outcome.degraded);
    }

    #[test]
    fn reports_collect_distributions() {
        let report = run(&YieldSpec::default(), 15, &BuildConfig::default(), 3).report;
        assert_eq!(report.nf_db.len() + report.failures[4], 15);
        assert!(report.nf_db.iter().all(|v| *v > 0.0 && *v < 3.0));
        // The distribution has spread (tolerances are real).
        let span = rfkit_num::stats::max(&report.nf_db) - rfkit_num::stats::min(&report.nf_db);
        assert!(span > 1e-4, "NF spread {span}");
    }
}
