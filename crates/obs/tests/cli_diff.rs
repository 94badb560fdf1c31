//! Drive the `rfkit-trace` binary end-to-end over profile fixtures:
//! the regression gate (`diff`), the profile views (`tree`, `flame`),
//! the summary's histogram percentiles and the `--expect-min` floor.
//! These tests never arm tracing — they write profile documents
//! directly — so many tests per file are fine.

use std::path::PathBuf;
use std::process::{Command, Output};

use rfkit_num::QuantileSketch;
use rfkit_obs::profile::{self, ProfHist, Profile};

fn fixture_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfkit_cli_diff_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir fixture dir");
    dir
}

/// A minimal two-node profile with the sweep path at `sweep_self_us`
/// self-microseconds and a counter at `hits`.
fn profile_text(sweep_self_us: u64, hits: u64) -> String {
    format!(
        "{{\"kind\":\"rfkit-profile\",\"version\":1,\n\
         \"meta\":{{\"pid\":1,\"threads_env\":\"\",\"wall_us\":50000}},\n\
         \"nodes\":[\n\
         {{\"path\":\"design.total\",\"name\":\"design.total\",\"count\":1,\
         \"total_us\":{total},\"self_us\":2000,\"max_us\":{total},\
         \"p50_us\":{total},\"p95_us\":{total}}},\n\
         {{\"path\":\"design.total;circuit.ac.sweep\",\"name\":\"circuit.ac.sweep\",\
         \"count\":4,\"total_us\":{sweep},\"self_us\":{sweep},\"max_us\":{max},\
         \"p50_us\":{p50},\"p95_us\":{max}}}\n\
         ],\n\
         \"counters\":{{\"plan.cache.hit\":{hits}}},\n\
         \"hists\":[],\n\
         \"events\":[]\n}}\n",
        total = sweep_self_us + 2000,
        sweep = sweep_self_us,
        max = sweep_self_us / 3,
        p50 = sweep_self_us / 4,
    )
}

fn write_profile(name: &str, text: &str) -> PathBuf {
    let path = fixture_dir().join(name);
    std::fs::write(&path, text).expect("write fixture");
    path
}

fn trace(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rfkit-trace"))
        .args(args)
        .output()
        .expect("run rfkit-trace")
}

fn stdout(o: &Output) -> String {
    String::from_utf8_lossy(&o.stdout).into_owned()
}

fn stderr(o: &Output) -> String {
    String::from_utf8_lossy(&o.stderr).into_owned()
}

#[test]
fn self_diff_passes_clean() {
    let base = write_profile("self_base.json", &profile_text(20_000, 10));
    let out = trace(&[
        "diff",
        base.to_str().expect("utf8 path"),
        base.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "self-diff failed: {}", stderr(&out));
    assert!(stdout(&out).contains("no significant change"));
}

#[test]
fn injected_slowdown_fails_the_gate_with_a_regression_row() {
    // 2.5x slowdown on the sweep path: well past the default 1.5x
    // tolerance and the 1000us floor.
    let base = write_profile("slow_base.json", &profile_text(20_000, 10));
    let cur = write_profile("slow_cur.json", &profile_text(50_000, 10));
    let out = trace(&[
        "diff",
        base.to_str().expect("utf8 path"),
        cur.to_str().expect("utf8 path"),
    ]);
    assert!(
        !out.status.success(),
        "gate passed a 2.5x slowdown:\n{}",
        stdout(&out)
    );
    assert_eq!(out.status.code(), Some(1));
    let table = stdout(&out);
    assert!(
        table.contains("regressed") && table.contains("circuit.ac.sweep"),
        "no regression row in:\n{table}"
    );
    assert!(table.contains("2.50x"), "ratio missing in:\n{table}");

    // The same pair inside the tolerance passes: rel-tol 4 spans 2.5x.
    let out = trace(&[
        "diff",
        "--rel-tol",
        "4.0",
        base.to_str().expect("utf8 path"),
        cur.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "rel-tol 4 still failed");

    // And a floor above both sides mutes the path entirely.
    let out = trace(&[
        "diff",
        "--min-self-us",
        "60000",
        base.to_str().expect("utf8 path"),
        cur.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "floor did not mute the noise");
}

#[test]
fn improvement_is_reported_but_passes() {
    let base = write_profile("imp_base.json", &profile_text(50_000, 10));
    let cur = write_profile("imp_cur.json", &profile_text(20_000, 10));
    let out = trace(&[
        "diff",
        base.to_str().expect("utf8 path"),
        cur.to_str().expect("utf8 path"),
    ]);
    assert!(out.status.success(), "improvement failed the gate");
    assert!(stdout(&out).contains("improved"));
}

#[test]
fn expect_min_enforces_a_counter_floor_on_profiles() {
    let p = write_profile("min_prof.json", &profile_text(20_000, 10));
    let path = p.to_str().expect("utf8 path");
    // Floor satisfied (10 >= 10): passes.
    let out = trace(&[path, "--expect-min", "plan.cache.hit:10"]);
    assert!(out.status.success(), "floor 10 failed: {}", stderr(&out));
    // Floor violated (10 < 11): exit 1 with a floor message.
    let out = trace(&[path, "--expect-min", "plan.cache.hit:11"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(stderr(&out).contains("below the floor"));
    // Absent counter counts as 0: fails any positive floor.
    let out = trace(&[path, "--expect-min", "no.such.counter:1"]);
    assert_eq!(out.status.code(), Some(1));
    // Symmetry: --expect-max still passes on the same profile.
    let out = trace(&[path, "--expect-max", "plan.cache.hit:10"]);
    assert!(out.status.success());
}

#[test]
fn summarize_reads_profiles_and_honours_expect() {
    let p = write_profile("sum_prof.json", &profile_text(20_000, 10));
    let path = p.to_str().expect("utf8 path");
    let out = trace(&[path, "--expect", "circuit.ac.sweep"]);
    assert!(out.status.success(), "expect failed: {}", stderr(&out));
    assert!(stdout(&out).contains("circuit.ac.sweep"));
    let out = trace(&[path, "--expect", "absent.span"]);
    assert_eq!(out.status.code(), Some(1));
    // The profile is the JSON form; there is no second one.
    let out = trace(&[path, "--json"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn summary_prints_the_flushed_histogram_percentiles() {
    // Histograms as the flush writes them: count, sum and p50/p90/p99
    // from a quantile sketch of the samples.
    let mut p = Profile::default();
    for (name, samples) in [
        (
            "serve.request.latency_us",
            &[26u64, 31, 113, 127, 90, 18, 2400][..],
        ),
        ("dc.fallback.stage", &[0, 0, 2][..]),
    ] {
        let mut sketch = QuantileSketch::new();
        for &v in samples {
            sketch.record(v as f64);
        }
        p.hists.insert(
            name.to_string(),
            ProfHist {
                count: sketch.count(),
                sum: samples.iter().sum(),
                p50: sketch.quantile(0.50),
                p90: sketch.quantile(0.90),
                p99: sketch.quantile(0.99),
            },
        );
    }
    let path = write_profile("hist_prof.json", &profile::render_profile_json(&p));
    let file = profile::parse(&std::fs::read_to_string(&path).expect("read back"))
        .expect("fixture parses");
    let out = trace(&[path.to_str().expect("utf8 path")]);
    assert!(out.status.success(), "summary failed: {}", stderr(&out));
    let text = stdout(&out);
    for (name, h) in &file.hists {
        let row = text
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&name.as_str()))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{text}"));
        let printed: Vec<f64> = row[3..]
            .iter()
            .map(|c| c.parse().expect("numeric percentile"))
            .collect();
        assert_eq!(printed, [h.p50, h.p90, h.p99], "{name} in:\n{text}");
    }
}

#[test]
fn tree_and_flame_render_profiles() {
    let p = write_profile("view_prof.json", &profile_text(20_000, 10));
    let path = p.to_str().expect("utf8 path");
    let out = trace(&["tree", path]);
    assert!(out.status.success(), "tree failed: {}", stderr(&out));
    let tree = stdout(&out);
    assert!(tree.contains("design.total"), "tree:\n{tree}");
    assert!(tree.contains("  circuit.ac.sweep"), "indent in:\n{tree}");
    assert!(tree.contains("self%"), "columns in:\n{tree}");
    let out = trace(&["flame", path]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("design.total;circuit.ac.sweep 20000\n"));
}

#[test]
fn summarize_rejects_event_streams_with_usage_exit() {
    // One JSON object per line is not a profile document: exit 2, even
    // when every line names an instrument the --expect asks for.
    let jsonl = write_profile(
        "events.jsonl",
        "{\"t_us\":0,\"kind\":\"meta\",\"name\":\"run\",\"pid\":1}\n\
         {\"t_us\":5,\"kind\":\"span\",\"name\":\"design.total\",\"dur_us\":9,\"self_us\":9,\"tid\":0}\n",
    );
    let out = trace(&[
        jsonl.to_str().expect("utf8 path"),
        "--expect",
        "design.total",
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
}

#[test]
fn diff_rejects_non_profiles_with_usage_exit() {
    let bogus = write_profile("bogus.json", "{\"kind\":\"other\"}");
    let out = trace(&[
        "diff",
        bogus.to_str().expect("utf8 path"),
        bogus.to_str().expect("utf8 path"),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("not an aggregate profile"));
}
