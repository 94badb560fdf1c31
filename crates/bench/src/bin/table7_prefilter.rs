//! **T7 (extension) — pre-filter placement in the GNSS front end.**
//!
//! Compares three receive chains at GPS L1 with an 800 MHz cellular
//! blocker: LNA alone, filter→LNA (blocker protection first) and
//! LNA→filter (noise first). Expected shape: the filter-first chain pays
//! its insertion loss directly in system NF but kills the blocker before
//! the LNA; the LNA-first chain keeps the NF near the amplifier's own
//! value while the blocker hits the transistor unattenuated — the classic
//! architecture trade. The filter is evaluated with tuned finite-Q
//! resonators (Q_L = 40, Q_C = 400).

use lna::report::format_table;
use lna::Amplifier;
use lna_bench::{header, reference_design};
use rfkit_device::Phemt;
use rfkit_num::units::{db_from_amplitude_ratio, T0_KELVIN};
use rfkit_num::Complex;
use rfkit_passive::{BandpassFilter, FilterFamily};

const L1: f64 = 1.57542e9;
const BLOCKER: f64 = 0.8e9;

fn main() {
    header(
        "Table 7 (extension)",
        "pre-filter placement: NF vs blocker protection",
    );
    let device = Phemt::atf54143_like();
    let design = reference_design(&device);
    let amp = Amplifier::new(&device, design.snapped);
    let filter = BandpassFilter::synthesize(FilterFamily::Butterworth, 3, 1.1e9, 1.7e9, 50.0);

    let chain_of = |filter_first: bool, f: f64| {
        let amp_tp = amp.noisy_two_port(f).expect("feasible");
        let filt_tp = filter.noisy_two_port_q(f, 40.0, 400.0, T0_KELVIN);
        if filter_first {
            filt_tp.cascade(&amp_tp)
        } else {
            amp_tp.cascade(&filt_tp)
        }
    };

    let mut rows = Vec::new();
    // LNA alone.
    {
        let tp = amp.noisy_two_port(L1).expect("design feasible at L1");
        let nf = 10.0
            * tp.noise_params(50.0)
                .expect("amplifier has noise parameters")
                .noise_factor(Complex::ZERO)
                .log10();
        let blocker_gain = db_from_amplitude_ratio(
            amp.noisy_two_port(BLOCKER)
                .expect("design feasible at the blocker")
                .abcd
                .to_s(50.0)
                .expect("amplifier has S form")
                .s21()
                .abs(),
        );
        rows.push(vec![
            "LNA only".to_string(),
            format!("{nf:.3}"),
            format!("{blocker_gain:+.1}"),
            "none".to_string(),
        ]);
    }
    for (name, filter_first) in [("filter -> LNA", true), ("LNA -> filter", false)] {
        let tp = chain_of(filter_first, L1);
        let nf = 10.0
            * tp.noise_params(50.0)
                .expect("chain has noise parameters")
                .noise_factor(Complex::ZERO)
                .log10();
        let blocker_gain = db_from_amplitude_ratio(
            chain_of(filter_first, BLOCKER)
                .abcd
                .to_s(50.0)
                .expect("chain has S form")
                .s21()
                .abs(),
        );
        let device_protection = if filter_first {
            format!("{:.1} dB before the FET", -filter.s21_db_ideal(BLOCKER))
        } else {
            "none (blocker hits the FET)".to_string()
        };
        rows.push(vec![
            name.to_string(),
            format!("{nf:.3}"),
            format!("{blocker_gain:+.1}"),
            device_protection,
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "chain",
                "system NF at L1 (dB)",
                "blocker gain (dB)",
                "blocker rejection at the device",
            ],
            &rows,
        )
    );
    println!("Both filtered chains suppress the blocker at the OUTPUT equally;");
    println!("only filter-first protects the transistor's own linearity — at the");
    println!("price of the filter loss appearing dB-for-dB in the noise figure.");
}
