//! # lna — the paper's primary contribution
//!
//! The multi-objective GNSS antenna-preamplifier design flow of
//! Dobeš et al. (SOCC 2015), reproduced end to end:
//!
//! * the single-stage pHEMT amplifier topology with dispersive catalog
//!   passives ([`Amplifier`]);
//! * worst-case band objectives over the 1.1–1.7 GHz multi-constellation
//!   band ([`band`]);
//! * the improved goal-attainment design flow selecting the operating
//!   point and essential passives, with E24 snapping ([`design`]);
//! * the surrogate-screened band-level NF/gain Pareto-front study,
//!   trained online from the design cache ([`study`]);
//! * the as-built measurement simulation (tolerances, launch lines,
//!   instrument noise) behind the paper's measured figures ([`measure()`]);
//! * report/table formatting ([`report`]).
//!
//! ## Example
//!
//! ```no_run
//! use lna::{design_lna, DesignConfig, DesignGoals};
//! use rfkit_device::Phemt;
//!
//! let device = Phemt::atf54143_like();
//! let design = design_lna(&device, &DesignGoals::default(), &DesignConfig::default());
//! println!("worst in-band NF = {:.2} dB", design.snapped_metrics.worst_nf_db);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod amplifier;
pub mod band;
pub mod cache;
pub mod design;
pub mod measure;
pub mod report;
pub mod study;
pub mod thermal;
pub mod verify;
pub mod yield_analysis;

pub use amplifier::{Amplifier, BiasedAmplifier, DesignVariables, PointMetrics};
pub use band::{BandMetrics, BandOutcome, BandSpec};
pub use cache::{DesignCache, DEFAULT_CACHE_CAPACITY};
pub use design::{
    band_objectives, cached_band_objectives, design_lna, snap_to_catalog, spot_objectives,
    DesignConfig, DesignGoals, LnaDesign,
};
pub use measure::{
    gain_gap_db, measure, measure_im3, BuildConfig, BuiltAmplifier, MeasurementSession,
};
pub use rfkit_robust::{DegradePolicy, PointDiagnostic, SolveError, SolveStage};
pub use study::{
    nf_gain_objectives, pareto_front_study, study_screen_config, surrogate_training_set,
    ParetoStudy, ParetoStudyConfig, STUDY_REFERENCE,
};
pub use thermal::{band_sweep_over_temperature, metrics_at_temperature, ThermalCondition};
pub use verify::{cached_sweep, output_match_network, reference_netlist};
pub use yield_analysis::{yield_analysis_robust, YieldOutcome, YieldReport, YieldSpec};
