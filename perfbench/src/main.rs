//! `perfbench` — the repository's benchmark: one command, three workloads,
//! every output checked.
//!
//! ```text
//! perfbench --workload design|study|serve --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with all
//! telemetry disarmed. With `--trace 1` it replays the workload through
//! the crates' public calls, times each layer from the benchmark's own
//! code, reads the counters the program emits in aggregate-profile mode,
//! and prints the per-layer metrics. Either way the last line of standard
//! output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! A failed correctness check makes the command exit with code 1.
//!
//! See `perfbench/README.md` for the workloads, the metrics and what each
//! layer metric should move.

mod design;
mod layers;
mod serve;
mod stats;
mod study;

use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};
use std::time::Instant;

use rfkit_obs::json::JsonObj;

/// Fresh processes launched to measure set-up time; the median counts.
const SETUP_PROBES: usize = 25;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal sub-modes run in a child process (set-up probe, serial
    /// study replay); never passed by users.
    pub probe: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        probe: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        match flag.as_str() {
            "--workload" => a.workload = val,
            "--seed" => a.seed = val.parse().map_err(|_| format!("bad --seed {val}"))?,
            "--seconds" => {
                a.seconds = val.parse().map_err(|_| format!("bad --seconds {val}"))?;
                if !(a.seconds > 0.0 && a.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                a.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {val} (0 or 1)")),
                }
            }
            "--probe" => a.probe = Some(val),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !matches!(a.workload.as_str(), "design" | "study" | "serve") {
        return Err(format!(
            "unknown --workload `{}` (design, study or serve)",
            a.workload
        ));
    }
    Ok(a)
}

/// One metric as printed in the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check, printed before the result line.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one operation; `Err` marks it failed with its reason.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            self.failures.push(why);
        }
    }

    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn result_line(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut o = JsonObj::new();
            o.num("value", m.value);
            o.str("unit", m.unit);
            metrics.raw(&m.name, &o.finish());
        }
        let mut doc = JsonObj::new();
        doc.raw("correct", if self.correct() { "true" } else { "false" });
        doc.num("attempted", self.attempted as f64);
        doc.num("failed", self.failed as f64);
        doc.raw("metrics", &metrics.finish());
        doc.finish()
    }
}

/// The end-to-end metrics every workload measures the same way: set-up
/// time, peak memory and the share of operations that came out right.
pub fn common_metrics(report: &mut Report, setup: Result<f64, String>, peak_rss_mb: f64) {
    let setup_s = setup.unwrap_or_else(|e| {
        report.op(Err(e));
        0.0
    });
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    let ok = 1.0 - report.failed as f64 / report.attempted.max(1) as f64;
    report.metric("ok_frac", ok, "ratio");
}

/// Median wall time from launching a fresh benchmark process until the
/// workload's first operation could start, in seconds: process start,
/// device build, worker-pool spawn and, for `serve`, server start plus
/// the first response. The child (`--probe setup`) does the set-up,
/// prints `ready` and exits.
pub fn setup_seconds(workload: &str) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut times = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let t = Instant::now();
        let mut child = Command::new(&exe)
            .args(["--probe", "setup", "--workload", workload])
            .stdout(Stdio::piped())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn set-up probe: {e}"))?;
        let mut line = String::new();
        let read = child
            .stdout
            .take()
            .map(|out| BufReader::new(out).read_line(&mut line));
        let elapsed = t.elapsed().as_secs_f64();
        let status = child
            .wait()
            .map_err(|e| format!("wait set-up probe: {e}"))?;
        if !status.success() || line.trim() != "ready" || !matches!(read, Some(Ok(_))) {
            return Err(format!("set-up probe failed ({status}, said {line:?})"));
        }
        times.push(elapsed);
    }
    Ok(stats::median(&times))
}

/// The set-up a user of the workload pays before the first operation.
fn setup_probe(workload: &str) {
    // The worker pool starts lazily on the first parallel batch.
    let items: Vec<f64> = (0..64).map(f64::from).collect();
    black_box(rfkit_par::par_map(&items, |x| x + 1.0));
    // The server builds its own device; the other workloads build theirs
    // with a band grid and a design cache.
    let _server = if workload == "serve" {
        Some(serve::start_and_ping())
    } else {
        let band = lna::BandSpec::gnss();
        black_box(band.combined_grid());
        black_box((
            rfkit_device::Phemt::atf54143_like(),
            lna::DesignCache::with_default_capacity(),
        ));
        None
    };
    println!("ready");
}

/// Environment the result depends on, printed with every result.
fn environment_line() -> String {
    let run = |cmd: &str, args: &[&str]| {
        Command::new(cmd)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    format!(
        "env: nproc={} num_threads={} RFKIT_THREADS={} rustc=\"{}\" commit={}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        rfkit_par::num_threads(),
        std::env::var("RFKIT_THREADS").unwrap_or_else(|_| "unset".into()),
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short", "HEAD"]),
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload design|study|serve --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match args.probe.as_deref() {
        Some("setup") => return setup_probe(&args.workload),
        Some("study-hv") => return study::hv_probe(args.seed),
        Some(other) => {
            eprintln!("perfbench: unknown probe {other}");
            std::process::exit(2);
        }
        None => {}
    }
    println!("{}", environment_line());
    println!(
        "workload={} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let report = match (args.workload.as_str(), args.trace) {
        ("design", false) => design::run(&args),
        ("design", true) => design::run_traced(&args),
        ("study", false) => study::run(&args),
        ("study", true) => study::run_traced(&args),
        ("serve", false) => serve::run(&args),
        (_, _) => serve::run_traced(&args),
    };
    for line in &report.notes {
        println!("{line}");
    }
    for m in &report.metrics {
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    for why in &report.failures {
        println!("FAILED: {why}");
    }
    println!("{}", report.result_line());
    if !report.correct() {
        std::process::exit(1);
    }
}
