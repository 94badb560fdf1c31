//! Shared helpers for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md for the experiment index).

#![forbid(unsafe_code)]

use lna::{BandSpec, DesignConfig, DesignGoals, LnaDesign};
use rfkit_device::{GoldenDevice, MeasurementNoise, Phemt};
use rfkit_extract::ExtractionData;

/// Builds the standard characterization data set of the golden device.
pub fn golden_dataset(noise: MeasurementNoise) -> ExtractionData {
    let _span = rfkit_obs::span("bench.golden_dataset");
    let g = GoldenDevice::default();
    let (vgs_grid, vds_grid) = GoldenDevice::standard_iv_grid();
    let bias_vgs = g
        .device
        .bias_for_current(3.0, 0.06)
        .expect("characterization bias");
    ExtractionData {
        dc: g.measure_dc(&vgs_grid, &vds_grid, &noise),
        sparams: g.measure_sparams(bias_vgs, 3.0, &GoldenDevice::standard_freq_grid(), &noise),
        bias_vgs,
        bias_vds: 3.0,
    }
}

/// Runs the paper's reference design flow (used by several figures so they
/// all describe the same amplifier).
pub fn reference_design(device: &Phemt) -> LnaDesign {
    let _span = rfkit_obs::span("bench.reference_design");
    lna::design_lna(
        device,
        &DesignGoals::default(),
        &DesignConfig {
            max_evals: 12_000,
            seed: 0xd0be5,
            band: BandSpec::gnss(),
            improved: true,
        },
    )
}

/// Prints an experiment header.
pub fn header(id: &str, title: &str) {
    println!("================================================================");
    println!("{id}: {title}");
    println!("(reproduction of Dobes et al., SOCC 2015 — see EXPERIMENTS.md)");
    println!("================================================================");
}

/// Prints a named data series as aligned columns, one row per point.
pub fn print_series(x_label: &str, y_labels: &[&str], xs: &[f64], ys: &[Vec<f64>]) {
    assert!(ys.iter().all(|col| col.len() == xs.len()), "ragged series");
    print!("{x_label:>14}");
    for label in y_labels {
        print!(" {label:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>14.6}");
        for col in ys {
            print!(" {:>14.6}", col[i]);
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_dataset_has_standard_shape() {
        let d = golden_dataset(MeasurementNoise::none());
        assert_eq!(d.dc.len(), 121);
        assert_eq!(d.sparams.len(), 23);
        assert!(d.bias_vgs < 0.0, "depletion-mode bias");
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_series_panics() {
        print_series("x", &["y"], &[1.0, 2.0], &[vec![1.0]]);
    }
}
