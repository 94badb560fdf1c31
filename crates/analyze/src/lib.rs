//! rfkit-analyze: a zero-dependency static-analysis engine for the
//! rfkit workspace.
//!
//! The workspace's numeric guarantees — NaN-safe ordering, bit-for-bit
//! reproducibility across thread counts, allocation-free sweeps,
//! structured solver failures, prune-never-propagate surrogates — are
//! invariants neither rustc nor clippy checks. (`unsafe` confinement,
//! `.unwrap()` and unfinished-code macros are theirs: see the
//! `[workspace.lints]` table in the root `Cargo.toml`.) This crate
//! enforces them mechanically: a hand-rolled Rust lexer and parser (no
//! `syn`; the zero-external-crate rule covers tooling too) feed lints
//! that walk every workspace source file and report findings as
//! `severity[lint] file:line:col: message` diagnostics plus a JSON
//! report under `results/ANALYZE.json`.
//!
//! Individual findings can be suppressed with a `// rfkit-allow(<lint>)`
//! comment on the offending line or the line directly above. Any
//! unsuppressed finding fails the run, so every suppression is a
//! reviewable artifact in the diff rather than a silent opt-out.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod contract;
pub mod dataflow;
pub mod lints;
pub mod parser;
pub mod report;
pub mod source;
pub mod tokenizer;

use report::Finding;
use source::SourceFile;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Runs every lint over one in-memory source file. `rel` is the
/// workspace-relative path, which determines the crate name and file
/// role (library, binary, test, example).
pub fn analyze_source(rel: &str, src: &str) -> Vec<Finding> {
    lint_file(&SourceFile::parse(rel, src))
}

/// Runs every per-file lint over an already-parsed file and applies
/// suppressions. The cross-artifact contract pass is separate — it
/// needs the whole tree (see [`analyze_tree`] / [`contract::check`]).
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for lint in lints::all() {
        (lint.check)(file, &mut out);
    }
    for f in &mut out {
        f.suppressed = file.is_allowed(f.lint, f.line);
    }
    out.sort_by(|a, b| (a.line, a.col, a.lint).cmp(&(b.line, b.col, b.lint)));
    out
}

/// Walks the workspace rooted at `root` and analyzes every `.rs` file
/// under `src/`, `tests/`, and `examples/` of the root crate and each
/// `crates/*` member. Returns the findings plus the number of files
/// scanned. File order is sorted, so output is deterministic.
pub fn analyze_tree(root: &Path) -> io::Result<(Vec<Finding>, usize)> {
    let (findings, files) = analyze_tree_files(root)?;
    Ok((findings, files.len()))
}

/// Like [`analyze_tree`], but also returns the parsed [`SourceFile`]s
/// so callers (the CLI's `--dump-obs-names`, tests) can reuse the ASTs
/// without re-walking the tree. Per-file lints run first; the
/// cross-artifact contract pass appends its findings at the end, with
/// `rfkit-allow` suppressions applied for findings that land in parsed
/// source files.
pub fn analyze_tree_files(root: &Path) -> io::Result<(Vec<Finding>, Vec<SourceFile>)> {
    let paths = collect_rs_files(root)?;
    let mut files = Vec::with_capacity(paths.len());
    let mut findings = Vec::new();
    for path in &paths {
        let src = fs::read_to_string(path)?;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let file = SourceFile::parse(&rel, &src);
        findings.extend(lint_file(&file));
        files.push(file);
    }
    let mut drift = contract::check(root, &files);
    for f in &mut drift {
        if let Some(file) = files.iter().find(|s| s.rel == f.file) {
            f.suppressed = file.is_allowed(f.lint, f.line);
        }
    }
    findings.extend(drift);
    Ok((findings, files))
}

fn collect_rs_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for top in ["src", "tests", "examples"] {
        walk(&root.join(top), &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members = Vec::new();
        for entry in fs::read_dir(&crates)? {
            let p = entry?.path();
            if p.is_dir() {
                members.push(p);
            }
        }
        members.sort();
        for m in &members {
            for sub in ["src", "tests", "examples"] {
                walk(&m.join(sub), &mut out)?;
            }
        }
    }
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let mut entries = Vec::new();
    for entry in fs::read_dir(dir)? {
        entries.push(entry?.path());
    }
    entries.sort();
    for p in entries {
        if p.is_dir() {
            walk(&p, out)?;
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_marks_but_keeps_findings() {
        let src = "\
pub fn f(x: f64) -> bool {
    x == 0.0 // rfkit-allow(float-eq)
}
pub fn g(x: f64) -> bool {
    x == 0.0
}
";
        let findings = analyze_source("crates/x/src/lib.rs", src);
        let float_eq: Vec<_> = findings.iter().filter(|f| f.lint == "float-eq").collect();
        assert_eq!(float_eq.len(), 2);
        assert!(float_eq[0].suppressed);
        assert!(!float_eq[1].suppressed);
    }

    #[test]
    fn suppression_only_covers_its_own_lint() {
        let src = "pub fn f(x: f64) -> bool { x == 0.0 } // rfkit-allow(nondeterminism)\n";
        let findings = analyze_source("crates/x/src/lib.rs", src);
        assert!(findings
            .iter()
            .any(|f| f.lint == "float-eq" && !f.suppressed));
    }

    #[test]
    fn findings_are_sorted_by_position() {
        let src = "\
pub fn f(x: f64) -> bool { x == 2.0 }
pub fn g(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
";
        let findings = analyze_source("crates/x/src/lib.rs", src);
        assert!(findings.len() >= 2);
        assert!(findings.windows(2).all(|w| w[0].line <= w[1].line));
    }

    #[test]
    fn all_lints_have_distinct_names() {
        let names: Vec<_> = lints::all().iter().map(|l| l.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(names.len(), dedup.len());
    }
}
