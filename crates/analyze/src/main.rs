//! Command-line driver for the rfkit workspace lint engine.
//!
//! ```text
//! rfkit-analyze [--root DIR] [--dump-obs-names] [--list-lints]
//! ```
//!
//! Prints `severity[lint] file:line:col: message` per unsuppressed
//! finding, writes a JSON report to `<root>/results/ANALYZE.json`, and
//! exits 1 when any finding is not suppressed.

use rfkit_analyze::report::{to_json, Severity};
use rfkit_analyze::{analyze_tree_files, contract, lints};
use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(err: &str) -> ExitCode {
    eprintln!("rfkit-analyze: {err}");
    eprintln!("usage: rfkit-analyze [--root DIR] [--dump-obs-names] [--list-lints]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut dump_obs_names = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = v.into(),
                None => return usage("--root needs a directory"),
            },
            "--dump-obs-names" => dump_obs_names = true,
            "--list-lints" => {
                for l in lints::all() {
                    println!("{:<20} {}", l.name, l.description);
                }
                // The contract pass is tree-wide, not per-file, so it
                // is not in the per-file registry — list it anyway.
                println!("{:<20} {}", contract::NAME, contract::DESCRIPTION);
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                return usage("workspace lint engine");
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let (findings, sources) = match analyze_tree_files(&root) {
        Ok(v) => v,
        Err(e) => {
            eprintln!(
                "rfkit-analyze: failed to read workspace at {}: {e}",
                root.display()
            );
            return ExitCode::from(2);
        }
    };
    let files = sources.len();
    if files == 0 {
        // A lint gate that scanned nothing must not pass: a typo'd
        // --root would otherwise green-light CI silently.
        eprintln!(
            "rfkit-analyze: no .rs files found under {}; wrong --root?",
            root.display()
        );
        return ExitCode::from(2);
    }

    if dump_obs_names {
        // DESIGN.md-ready registry rows, one per distinct name.
        let mut emissions = contract::emitted_names(&sources);
        emissions.sort_by(|a, b| a.name.cmp(&b.name));
        emissions.dedup_by(|a, b| a.name == b.name);
        println!("| name | kind | emitted at |");
        println!("|---|---|---|");
        for e in &emissions {
            println!("| `{}` | {} | `{}:{}` |", e.name, e.kind, e.file, e.line);
        }
        return ExitCode::SUCCESS;
    }

    for f in findings.iter().filter(|f| !f.suppressed) {
        println!("{f}");
    }

    let json = to_json(&findings, files);
    let json_path = root.join("results").join("ANALYZE.json");
    if let Some(dir) = json_path.parent() {
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("rfkit-analyze: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = fs::write(&json_path, json) {
        eprintln!("rfkit-analyze: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    let count = |sev: Severity| {
        findings
            .iter()
            .filter(|f| !f.suppressed && f.severity == sev)
            .count()
    };
    let suppressed = findings.iter().filter(|f| f.suppressed).count();
    println!(
        "rfkit-analyze: {files} files, {} errors, {} warnings, {suppressed} suppressed -> {}",
        count(Severity::Error),
        count(Severity::Warning),
        json_path.display()
    );

    if findings.iter().any(|f| !f.suppressed) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
