//! `lna-cli` — command-line front end to the GNSS LNA reproduction.
//!
//! ```text
//! lna-cli design  [--nf 0.8] [--gain 14] [--evals 12000] [--seed 7]
//! lna-cli extract [--noise 0.005] [--model angelov|curtice2|curtice3|statz|tom]
//! lna-cli measure [--seed 1] [--out amp.s2p]
//! lna-cli yield   [--units 200] [--tolerance 0.05]
//! lna-cli thermal [--evals 10000]
//! lna-cli im3     [--seed 1] [--evals 10000]
//! ```
//!
//! Every subcommand is deterministic for a given `--seed`.

use lna::report::{design_summary, format_table, metrics_summary};
use lna::{
    design_lna, measure, yield_analysis_robust, Amplifier, BandMetrics, BandSpec, BuildConfig,
    BuiltAmplifier, DegradePolicy, DesignConfig, DesignGoals, YieldSpec,
};
use rfkit_device::dc::{all_models, DcModel};
use rfkit_device::{GoldenDevice, MeasurementNoise, Phemt};
use rfkit_extract::{three_step, ExtractionData, ThreeStepConfig};
use rfkit_net::touchstone::{write_s2p, TouchstoneFormat};
use rfkit_num::linspace;
use std::collections::HashMap;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match command.as_str() {
        "design" => cmd_design(&flags),
        "extract" => cmd_extract(&flags),
        "measure" => cmd_measure(&flags),
        "yield" => cmd_yield(&flags),
        "thermal" => cmd_thermal(&flags),
        "im3" => cmd_im3(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command `{other}`")),
    };
    rfkit_obs::flush();
    if let Some(path) = rfkit_obs::trace_path() {
        eprintln!("profile written to {}", path.display());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage: lna-cli <command> [flags]

commands:
  design    run the improved goal-attainment design flow
            flags: --nf <dB> --gain <dB> --evals <n> --seed <n>
  extract   three-step pHEMT identification against the golden device
            flags: --noise <rel> --model <angelov|curtice2|curtice3|statz|tom>
  measure   design, build one unit with tolerances, print measured response
            flags: --seed <n> --out <file.s2p> --evals <n>
  yield     Monte-Carlo production yield of the designed amplifier
            flags: --units <n> --tolerance <rel> --evals <n> --seed <n>
  thermal   worst-case band performance from -40 to +85 degC
            flags: --evals <n> --seed <n>
  im3       two-tone IM3 sweep and OIP3 of the designed amplifier
            flags: --seed <n> --evals <n>";

fn parse_flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let key = key
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got `{key}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag --{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn get_f64(flags: &HashMap<String, String>, key: &str, default: f64) -> Result<f64, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad number `{v}`")),
    }
}

fn get_usize(flags: &HashMap<String, String>, key: &str, default: usize) -> Result<usize, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("--{key}: bad integer `{v}`")),
    }
}

fn run_design(flags: &HashMap<String, String>) -> Result<lna::LnaDesign, String> {
    let device = Phemt::atf54143_like();
    let goals = DesignGoals {
        nf_db: get_f64(flags, "nf", 0.8)?,
        gain_db: get_f64(flags, "gain", 14.0)?,
        ..Default::default()
    };
    let config = DesignConfig {
        max_evals: get_usize(flags, "evals", 10_000)?,
        seed: get_usize(flags, "seed", 0x1a5)? as u64,
        band: BandSpec::gnss(),
        improved: true,
    };
    Ok(design_lna(&device, &goals, &config))
}

fn cmd_design(flags: &HashMap<String, String>) -> Result<(), String> {
    let design = run_design(flags)?;
    println!("snapped design:");
    let rows: Vec<Vec<String>> = design_summary(&design.snapped)
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    println!("{}", format_table(&["quantity", "value"], &rows));
    println!("band metrics (1.1-1.7 GHz):");
    let rows: Vec<Vec<String>> = metrics_summary(&design.snapped_metrics)
        .into_iter()
        .map(|(k, v)| vec![k, v])
        .collect();
    println!("{}", format_table(&["metric", "value"], &rows));
    println!(
        "attainment = {:.3} in {} evaluations",
        design.attainment, design.evaluations
    );
    Ok(())
}

fn cmd_extract(flags: &HashMap<String, String>) -> Result<(), String> {
    let noise_rel = get_f64(flags, "noise", 0.005)?;
    let model_name = flags
        .get("model")
        .map(String::as_str)
        .unwrap_or("angelov")
        .to_lowercase();
    let model: Box<dyn DcModel> = all_models()
        .into_iter()
        .find(|m| {
            let n = m.name().to_lowercase().replace(' ', "");
            n.starts_with(&model_name)
                || (model_name == "curtice2" && n == "curticequadratic")
                || (model_name == "curtice3" && n == "curticecubic")
        })
        .ok_or_else(|| format!("unknown model `{model_name}`"))?;

    let golden = GoldenDevice::default();
    let (vgs_grid, vds_grid) = GoldenDevice::standard_iv_grid();
    let bias_vgs = golden
        .device
        .bias_for_current(3.0, 0.06)
        .expect("bias reachable");
    let noise = MeasurementNoise {
        dc_relative: noise_rel,
        sparam_absolute: noise_rel,
        ..Default::default()
    };
    let data = ExtractionData {
        dc: golden.measure_dc(&vgs_grid, &vds_grid, &noise),
        sparams: golden.measure_sparams(bias_vgs, 3.0, &GoldenDevice::standard_freq_grid(), &noise),
        bias_vgs,
        bias_vds: 3.0,
    };
    let result = three_step(model.as_ref(), &data, &ThreeStepConfig::default());
    println!("model: {}", model.name());
    let rows: Vec<Vec<String>> = model
        .param_names()
        .iter()
        .zip(&result.dc_params)
        .map(|(n, v)| vec![n.to_string(), format!("{v:.5}")])
        .collect();
    println!("{}", format_table(&["parameter", "extracted"], &rows));
    println!(
        "DC RMSE = {:.4} (relative), S RMSE = {:.4}, evaluations = {}",
        result.dc_rmse,
        result.sparam_rmse,
        result.evaluations.iter().sum::<usize>(),
    );
    Ok(())
}

fn cmd_measure(flags: &HashMap<String, String>) -> Result<(), String> {
    let design = run_design(flags)?;
    let device = Phemt::atf54143_like();
    let cfg = BuildConfig {
        seed: get_usize(flags, "seed", 1)? as u64,
        ..Default::default()
    };
    let built = BuiltAmplifier::build(&design.snapped, &cfg);
    let freqs = linspace(0.8e9, 2.2e9, 29);
    let session =
        measure(&device, &built, &freqs, &cfg).ok_or("built unit has unreachable bias")?;
    let text = write_s2p(&session.response.s_rows(), &[], TouchstoneFormat::Ri);
    match flags.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("writing {path}: {e}"))?;
            println!(
                "wrote {} frequency points to {path}",
                session.response.len()
            );
        }
        None => print!("{text}"),
    }
    println!(
        "in-band: worst |S11| {:.1} dB, min gain {:.2} dB, DGD {:.1} ps",
        session
            .response
            .band(1.1e9, 1.7e9)
            .worst_input_match_db()
            .unwrap_or(f64::NAN),
        session
            .response
            .band(1.1e9, 1.7e9)
            .min_gain_db()
            .unwrap_or(f64::NAN),
        session
            .response
            .band(1.1e9, 1.7e9)
            .differential_group_delay_s()
            .map_or(f64::NAN, |v| v * 1e12),
    );
    Ok(())
}

fn cmd_thermal(flags: &HashMap<String, String>) -> Result<(), String> {
    let design = run_design(flags)?;
    let device = Phemt::atf54143_like();
    let temps = [-40.0, -20.0, 0.0, 25.0, 45.0, 65.0, 85.0];
    let sweep =
        lna::band_sweep_over_temperature(&device, design.snapped, &BandSpec::gnss(), &temps);
    println!(
        "{:>10} {:>14} {:>14}",
        "T (degC)", "worst NF (dB)", "min gain (dB)"
    );
    for (t, nf, g) in sweep {
        println!("{t:>10.1} {nf:>14.3} {g:>14.2}");
    }
    Ok(())
}

fn cmd_im3(flags: &HashMap<String, String>) -> Result<(), String> {
    let design = run_design(flags)?;
    let device = Phemt::atf54143_like();
    let cfg = BuildConfig {
        seed: get_usize(flags, "seed", 1)? as u64,
        ..Default::default()
    };
    let built = BuiltAmplifier::build(&design.snapped, &cfg);
    let pins: Vec<f64> = (0..13).map(|k| -45.0 + 2.5 * k as f64).collect();
    let sweep =
        lna::measure_im3(&device, &built, &pins).ok_or("built unit has unreachable bias")?;
    println!(
        "{:>10} {:>14} {:>14}",
        "Pin (dBm)", "P_fund (dBm)", "P_IM3 (dBm)"
    );
    for r in &sweep.rows {
        println!(
            "{:>10.1} {:>14.2} {:>14.2}",
            r.pin_dbm, r.p_fund_dbm, r.p_im3_dbm
        );
    }
    println!(
        "OIP3 = {:.1} dBm, IIP3 = {:.1} dBm",
        sweep.oip3_dbm.ok_or("extrapolation failed")?,
        sweep.iip3_dbm.ok_or("extrapolation failed")?
    );
    Ok(())
}

fn cmd_yield(flags: &HashMap<String, String>) -> Result<(), String> {
    let design = run_design(flags)?;
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let nominal = BandMetrics::evaluate(&Amplifier::new(&device, design.snapped), &band)
        .ok_or("design infeasible")?;
    let spec = YieldSpec {
        max_nf_db: nominal.worst_nf_db + 0.05,
        min_gain_db: nominal.min_gain_db - 0.5,
        max_s11_db: -8.0,
        require_stability: true,
    };
    let report = yield_analysis_robust(
        &device,
        &design.snapped,
        &spec,
        &band,
        get_usize(flags, "units", 200)?,
        &BuildConfig {
            tolerance: get_f64(flags, "tolerance", 0.05)?,
            ..Default::default()
        },
        get_usize(flags, "seed", 0)? as u64,
        &DegradePolicy::default(),
    )
    .report;
    println!(
        "yield: {}/{} units pass ({:.1} %)",
        report.passing,
        report.units,
        100.0 * report.yield_fraction()
    );
    if let Some(mechanism) = report.dominant_failure() {
        println!("dominant failure mechanism: {mechanism}");
    }
    Ok(())
}
