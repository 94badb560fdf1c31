//! **T6 (extension) — production yield of the final design.**
//!
//! Manufactures 200 units of the reference design at three component
//! tolerance grades and grades each against a spec set just under the
//! nominal performance. Expected shape: yield rises monotonically with
//! part quality, and the dominant failure mechanism identifies the
//! binding margin.

use lna::report::format_table;
use lna::{
    yield_analysis_robust, Amplifier, BandMetrics, BandSpec, BuildConfig, DegradePolicy, YieldSpec,
};
use lna_bench::{header, reference_design};
use rfkit_device::Phemt;
use rfkit_num::stats;

fn main() {
    header(
        "Table 6 (extension)",
        "production yield vs component tolerance",
    );
    let device = Phemt::atf54143_like();
    let design = reference_design(&device);
    let band = BandSpec::gnss();
    let nominal = BandMetrics::evaluate(&Amplifier::new(&device, design.snapped), &band)
        .expect("design feasible");
    let spec = YieldSpec {
        max_nf_db: nominal.worst_nf_db + 0.05,
        min_gain_db: nominal.min_gain_db - 0.5,
        max_s11_db: -8.0,
        require_stability: true,
    };
    println!(
        "\nspec (from nominal NF {:.3} dB / gain {:.2} dB): NF <= {:.3} dB, gain >= {:.2} dB, |S11| <= -8 dB, mu > 1",
        nominal.worst_nf_db, nominal.min_gain_db, spec.max_nf_db, spec.min_gain_db
    );

    let mut rows = Vec::new();
    for (grade, tol) in [
        ("E24 +-10 %", 0.10),
        ("E24 +-5 %", 0.05),
        ("E96 +-1 %", 0.01),
    ] {
        let report = yield_analysis_robust(
            &device,
            &design.snapped,
            &spec,
            &band,
            200,
            &BuildConfig {
                tolerance: tol,
                ..Default::default()
            },
            0,
            &DegradePolicy::default(),
        )
        .report;
        rows.push(vec![
            grade.to_string(),
            format!("{:.1} %", 100.0 * report.yield_fraction()),
            format!("{:.3}", stats::median(&report.nf_db)),
            format!("{:.2}", stats::median(&report.gain_db)),
            report.dominant_failure().unwrap_or("none").to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "parts",
                "yield (200 units)",
                "median NF (dB)",
                "median gain (dB)",
                "dominant failure",
            ],
            &rows,
        )
    );
}
