//! # rfkit-robust
//!
//! Fault tolerance for the workspace's solvers: the DC fallback ladder's
//! stages, a structured solve-error taxonomy with provenance, degradation
//! accounting for sweep-style analyses, and a deterministic
//! fault-injection harness (compiled in only under the `rfkit-faults`
//! feature) that lets tests force the rare failure paths on demand.
//!
//! ## Design rules
//!
//! * **Determinism first.** Budgets are iteration-denominated, never
//!   wall-clock: a time budget would make the fallback ladder take a
//!   different path on a loaded machine, breaking the repo's bit-identical
//!   reproducibility contract (and the `nondeterminism` lint bans
//!   `Instant` in solver crates for exactly this reason). Fault triggers
//!   key on *data* (iteration number, frequency bits, unit index), never
//!   on global invocation counters, so an injected fault fires at the
//!   same logical place at any thread count.
//! * **Zero cost when disabled.** With `rfkit-faults` off,
//!   [`faults::inject`] is an `#[inline(always)]` `None` and the hooks
//!   vanish from codegen.
//!
//! See DESIGN.md § "Robustness" for the ladder stages and degradation
//! semantics.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod faults;

use std::fmt;

/// A rung of the DC fallback ladder, in escalation order.
///
/// Each stage restarts from the same initial iterate, so the result of a
/// solve is a pure function of (circuit, first stage that succeeds) — a later rung never inherits state from a failed earlier
/// rung except through the homotopy continuation *inside* a stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolveStage {
    /// Undamped Newton–Raphson (full steps).
    PlainNewton,
    /// Damped Newton with backtracking line search.
    DampedNewton,
    /// Gmin-stepping homotopy: solve with a large artificial conductance
    /// to ground on every node, then relax it to the baseline in decades.
    GminStepping,
    /// Source-stepping homotopy: ramp every independent source from a
    /// fraction of its value up to 100 %.
    SourceStepping,
}

impl SolveStage {
    /// All stages, in ladder order.
    pub const LADDER: [SolveStage; 4] = [
        SolveStage::PlainNewton,
        SolveStage::DampedNewton,
        SolveStage::GminStepping,
        SolveStage::SourceStepping,
    ];

    /// Stable index of the stage in the ladder (0-based), for histograms.
    pub fn index(self) -> usize {
        match self {
            SolveStage::PlainNewton => 0,
            SolveStage::DampedNewton => 1,
            SolveStage::GminStepping => 2,
            SolveStage::SourceStepping => 3,
        }
    }

    /// Human-readable stage name.
    pub fn name(self) -> &'static str {
        match self {
            SolveStage::PlainNewton => "plain-newton",
            SolveStage::DampedNewton => "damped-newton",
            SolveStage::GminStepping => "gmin-stepping",
            SolveStage::SourceStepping => "source-stepping",
        }
    }
}

impl fmt::Display for SolveStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Structured error from a fault-tolerant solve, carrying provenance:
/// which ladder stage gave up, after how many total Newton iterations,
/// and (where meaningful) at what residual norm.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The iteration ran its budget without meeting the tolerance, or the
    /// residual went non-finite / the step stagnated away from a root.
    NonConvergence {
        /// Last ladder stage attempted.
        stage: SolveStage,
        /// Total Newton iterations spent across all stages so far.
        iterations: usize,
        /// Residual norm at the failure point (may be NaN when the
        /// residual itself went non-finite).
        residual: f64,
    },
    /// The linearized system was singular at some iterate of the last
    /// rung (floating node, source loop, or an injected LU fault).
    SingularSystem {
        /// Last ladder stage attempted.
        stage: SolveStage,
        /// Total Newton iterations spent across all stages so far.
        iterations: usize,
    },
}

impl SolveError {
    /// The ladder stage the error came from.
    pub fn stage(&self) -> SolveStage {
        match self {
            SolveError::NonConvergence { stage, .. } | SolveError::SingularSystem { stage, .. } => {
                *stage
            }
        }
    }

    /// Total Newton iterations spent before the error.
    pub fn iterations(&self) -> usize {
        match self {
            SolveError::NonConvergence { iterations, .. }
            | SolveError::SingularSystem { iterations, .. } => *iterations,
        }
    }

    /// Residual norm at the failure point, when one exists.
    pub fn residual(&self) -> Option<f64> {
        match self {
            SolveError::NonConvergence { residual, .. } => Some(*residual),
            SolveError::SingularSystem { .. } => None,
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::NonConvergence {
                stage,
                iterations,
                residual,
            } => write!(
                f,
                "no convergence after {iterations} iterations \
                 (last stage {stage}, residual {residual:.3e})"
            ),
            SolveError::SingularSystem { stage, iterations } => write!(
                f,
                "singular system after {iterations} iterations (last stage {stage})"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// One failed point of a sweep-style analysis (band grid point, yield
/// unit), recorded instead of poisoning the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct PointDiagnostic {
    /// Index of the point in the sweep (grid index, unit number).
    pub index: usize,
    /// The point's coordinate: frequency in Hz for band sweeps, the
    /// unit's tolerance seed for yield runs.
    pub at: f64,
    /// Short human-readable failure description.
    pub detail: String,
}

impl fmt::Display for PointDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "point {} (at {:.6e}): {}",
            self.index, self.at, self.detail
        )
    }
}

/// Failure-fraction threshold deciding when a sweep with failed points is
/// still usable as a flagged partial.
///
/// A sweep whose failed-point fraction is `<= max_failure_fraction` (and
/// which still covers every sub-grid it aggregates over) degrades to a
/// partial result carrying its diagnostics; beyond the threshold the
/// sweep fails outright, again carrying the diagnostics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradePolicy {
    /// Largest tolerable fraction of failed points, in `[0, 1]`.
    pub max_failure_fraction: f64,
}

impl DegradePolicy {
    /// Zero tolerance: any failed point fails the sweep. This is the
    /// legacy behavior and the default.
    pub fn strict() -> Self {
        DegradePolicy {
            max_failure_fraction: 0.0,
        }
    }

    /// Tolerate up to `fraction` (clamped to `[0, 1]`) failed points.
    pub fn lenient(fraction: f64) -> Self {
        DegradePolicy {
            max_failure_fraction: fraction.clamp(0.0, 1.0),
        }
    }

    /// `true` when `failed` out of `total` points is within tolerance.
    pub fn accepts(&self, failed: usize, total: usize) -> bool {
        if total == 0 {
            return failed == 0;
        }
        failed as f64 / total as f64 <= self.max_failure_fraction
    }
}

impl Default for DegradePolicy {
    fn default() -> Self {
        DegradePolicy::strict()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_order_and_indices() {
        for (i, s) in SolveStage::LADDER.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        assert!(SolveStage::PlainNewton < SolveStage::SourceStepping);
        assert_eq!(SolveStage::GminStepping.to_string(), "gmin-stepping");
    }

    #[test]
    fn error_provenance_accessors() {
        let e = SolveError::NonConvergence {
            stage: SolveStage::DampedNewton,
            iterations: 42,
            residual: 1e-3,
        };
        assert_eq!(e.stage(), SolveStage::DampedNewton);
        assert_eq!(e.iterations(), 42);
        assert_eq!(e.residual(), Some(1e-3));
        assert!(e.to_string().contains("42 iterations"));

        let s = SolveError::SingularSystem {
            stage: SolveStage::PlainNewton,
            iterations: 1,
        };
        assert_eq!(s.residual(), None);
        assert!(s.to_string().contains("singular"));
    }

    #[test]
    fn degrade_policy_thresholds() {
        let strict = DegradePolicy::strict();
        assert!(strict.accepts(0, 15));
        assert!(!strict.accepts(1, 15));
        let lenient = DegradePolicy::lenient(0.2);
        assert!(lenient.accepts(3, 15));
        assert!(!lenient.accepts(4, 15));
        assert!(DegradePolicy::lenient(7.0).accepts(10, 10));
        assert!(strict.accepts(0, 0));
        assert!(!strict.accepts(1, 0));
    }

    #[test]
    fn diagnostic_display_is_informative() {
        let d = PointDiagnostic {
            index: 3,
            at: 1.4e9,
            detail: "point evaluation failed".to_string(),
        };
        let s = d.to_string();
        assert!(s.contains("point 3"), "{s}");
        assert!(s.contains("1.4"), "{s}");
    }
}
