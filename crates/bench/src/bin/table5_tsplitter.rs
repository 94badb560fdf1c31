//! **T5 — T-splitter dual-output front end** (paper: "passive elements …
//! including transmission lines and T splitters"; the GNSS antenna feeds
//! several receiver chains).
//!
//! Compares three splitter realizations behind the LNA at GPS L1:
//! insertion loss per output, output-to-output isolation, input match,
//! and the cascade noise figure of LNA + splitter per chain. Expected
//! shape: the Wilkinson wins isolation and loss; the resistive star is
//! matched but 6 dB down with no isolation; the bare tee is mismatched.

use lna::report::format_table;
use lna::Amplifier;
use lna_bench::{header, reference_design};
use rfkit_device::Phemt;
use rfkit_net::noise::{friis, CascadeStage};
use rfkit_net::NPort;
use rfkit_num::units::db_from_power_ratio;
use rfkit_num::Complex;
use rfkit_passive::{resistive_splitter, Substrate, TeeJunction, Wilkinson};

const F0: f64 = 1.57542e9;

fn splitter_row(name: &str, np: &NPort, lna_gain: f64, lna_f: f64) -> Vec<String> {
    let s21 = np.s(1, 0).expect("splitter has three ports");
    let s11 = np.s(0, 0).expect("splitter has three ports");
    let iso = np.s(2, 1).expect("splitter has three ports");
    let split_loss_db = db_from_power_ratio(s21.norm_sqr());
    // Per-chain system noise: LNA then the splitter path as a lossy stage.
    let splitter_gain = s21.norm_sqr();
    let f_total = friis(&[
        CascadeStage {
            gain: lna_gain,
            noise_factor: lna_f,
        },
        CascadeStage {
            gain: splitter_gain,
            noise_factor: 1.0 / splitter_gain.min(1.0),
        },
    ]);
    vec![
        name.to_string(),
        format!("{:.2}", split_loss_db),
        format!("{:.1}", db_from_power_ratio(s11.norm_sqr())),
        format!("{:.1}", db_from_power_ratio(iso.norm_sqr())),
        format!("{:.3}", 10.0 * f_total.log10()),
    ]
}

fn main() {
    header(
        "Table 5",
        "dual-output GNSS front end: splitter comparison at L1",
    );
    let device = Phemt::atf54143_like();
    let design = reference_design(&device);
    let amp = Amplifier::new(&device, design.snapped);
    let noisy = amp.noisy_two_port(F0).expect("design feasible");
    let s = noisy.abcd.to_s(50.0).expect("amplifier has S form");
    let lna_gain = rfkit_net::gains::available_gain(&s, Complex::ZERO);
    let lna_f = noisy
        .noise_params(50.0)
        .expect("amplifier has noise parameters")
        .noise_factor(Complex::ZERO);
    println!(
        "\nLNA in front: GA = {:.2} dB, NF = {:.3} dB",
        db_from_power_ratio(lna_gain),
        10.0 * lna_f.log10()
    );

    let tee = TeeJunction::microstrip(&Substrate::ro4350b()).s_matrix(F0, 50.0);
    let resistive = resistive_splitter(50.0);
    let wilkinson = Wilkinson::design(F0, 50.0, Substrate::ro4350b()).s_matrix(F0);

    let rows = vec![
        splitter_row("microstrip tee", &tee, lna_gain, lna_f),
        splitter_row("resistive star", &resistive, lna_gain, lna_f),
        splitter_row("Wilkinson", &wilkinson, lna_gain, lna_f),
    ];
    println!(
        "{}",
        format_table(
            &[
                "splitter",
                "split S21 (dB)",
                "in match (dB)",
                "isolation (dB)",
                "chain NF (dB)",
            ],
            &rows,
        )
    );
    println!("chain NF = LNA + splitter per receiver output (Friis); the LNA's");
    println!("gain in front keeps even the 6 dB resistive split nearly free.");
}
