//! End-to-end CLI tests: drive the built `rfkit-analyze` binary against
//! a scratch workspace and assert on stdout + exit codes for the gate
//! itself, `--dump-obs-names`, and `--list-lints`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_rfkit-analyze")
}

/// Builds a minimal fake workspace (no ci.sh, so the contract pass is
/// inert) under a unique temp directory.
fn scratch_workspace(tag: &str) -> PathBuf {
    let root = std::env::temp_dir()
        .join("rfkit-analyze-cli")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    fs::create_dir_all(root.join("crates/x/src")).expect("create scratch workspace");
    fs::write(
        root.join("crates/x/src/lib.rs"),
        "pub fn f(v: &mut [f64], x: f64) -> bool {\n\
         \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n\
         \x20   x == 0.0\n\
         }\n",
    )
    .expect("write scratch source");
    root
}

fn run(root: &Path, args: &[&str]) -> Output {
    Command::new(bin())
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("spawn rfkit-analyze")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn any_unsuppressed_finding_fails_the_run() {
    let root = scratch_workspace("gate");
    let out = run(&root, &[]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(
        text.contains("warning[nan-unsafe-sort] crates/x/src/lib.rs:2:7:"),
        "{text}"
    );
    assert!(
        text.contains("0 errors, 2 warnings, 0 suppressed"),
        "{text}"
    );

    // Suppressing both findings passes the gate; the report still lists
    // them, marked suppressed.
    fs::write(
        root.join("crates/x/src/lib.rs"),
        "pub fn f(v: &mut [f64], x: f64) -> bool {\n\
         \x20   v.sort_by(|a, b| a.partial_cmp(b).unwrap()); // rfkit-allow(nan-unsafe-sort)\n\
         \x20   x == 0.0 // rfkit-allow(float-eq)\n\
         }\n",
    )
    .expect("rewrite fixture");
    let out = run(&root, &[]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0), "{text}");
    assert!(
        text.contains("0 errors, 0 warnings, 2 suppressed"),
        "{text}"
    );
    let report = fs::read_to_string(root.join("results/ANALYZE.json")).expect("report written");
    assert_eq!(
        report.matches("\"suppressed\": true").count(),
        2,
        "{report}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn dump_obs_names_emits_registry_rows() {
    let root = scratch_workspace("dump");
    fs::write(
        root.join("crates/x/src/obs_use.rs"),
        "pub fn run() {\n    rfkit_obs::span(\"x.total\");\n}\n",
    )
    .expect("write scratch source");
    let out = run(&root, &["--dump-obs-names"]);
    let text = stdout(&out);
    assert_eq!(out.status.code(), Some(0));
    assert!(text.starts_with("| name | kind | emitted at |"), "{text}");
    assert!(
        text.contains("| `x.total` | span | `crates/x/src/obs_use.rs:2` |"),
        "{text}"
    );
    let _ = fs::remove_dir_all(&root);
}

#[test]
fn list_lints_includes_the_contract_pass() {
    let out = Command::new(bin())
        .arg("--list-lints")
        .output()
        .expect("spawn rfkit-analyze");
    let text = stdout(&out);
    assert!(text.contains("counter-name-drift"), "{text}");
    // 10 per-file lints plus the tree-wide contract pass.
    assert_eq!(text.lines().count(), 11, "one row per lint:\n{text}");
}
