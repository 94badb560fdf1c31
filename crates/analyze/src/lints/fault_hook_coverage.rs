//! `fault-hook-coverage`: every solver entry point in `rfkit-circuit`
//! must reach a deterministic fault-injection site. The fault layer
//! (PR 5) only proves fault tolerance for paths that actually have a
//! `faults::inject` hook; a new `solve_*` entry added without one is a
//! blind spot where `rfkit-faults` CI passes vacuously.
//!
//! An *entry point* is a function named `solve*` or `sweep_batch` that
//! no other function in the same file calls (a call-graph root —
//! internal `solve_dense`-style helpers reached from a hooked
//! dispatcher are exempt). The entry must reach a `faults::inject`
//! call through the same-file call graph. In the tree today the entries
//! are `solve_dc` (the DC ladder), `sweep_batch` (the only solve of a
//! compiled plan) and `hb::solve`; the legacy `s_matrix` oracle carries
//! its own hook at the same `ac.solve` site.

use crate::dataflow::{CallKind, FnAnalysis};
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};

/// Lint name.
pub const NAME: &str = "fault-hook-coverage";
/// One-line description.
pub const DESCRIPTION: &str =
    "solver entry point in rfkit-circuit with no reachable faults::inject hook (warning)";

fn is_entry_name(name: &str) -> bool {
    name.starts_with("solve") || name == "sweep_batch"
}

fn is_inject_call(name: &str, kind: CallKind) -> bool {
    kind == CallKind::Call && (name == "inject" || name.ends_with("faults::inject"))
}

fn reaches_inject(fns: &BTreeMap<&str, &FnAnalysis>, entry: &FnAnalysis) -> bool {
    let mut seen = BTreeSet::new();
    let mut work = vec![entry];
    while let Some(f) = work.pop() {
        if !seen.insert(f.name.clone()) {
            continue;
        }
        for c in &f.calls {
            if is_inject_call(&c.name, c.kind) {
                return true;
            }
        }
        for callee in f.callees() {
            if let Some(next) = fns.get(callee) {
                if !seen.contains(callee) {
                    work.push(next);
                }
            }
        }
    }
    false
}

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib || file.crate_name != "circuit" {
        return;
    }
    let by_name: BTreeMap<&str, &FnAnalysis> =
        file.fns.iter().map(|f| (f.name.as_str(), f)).collect();
    // Names called by some other function in this file — their hook
    // obligation belongs to the dispatcher that calls them.
    let mut called: BTreeSet<&str> = BTreeSet::new();
    for f in &file.fns {
        for callee in f.callees() {
            if callee != f.name {
                called.insert(callee);
            }
        }
    }
    for f in &file.fns {
        if !is_entry_name(&f.name)
            || called.contains(f.name.as_str())
            || file.in_test_region(f.span.line)
        {
            continue;
        }
        if !reaches_inject(&by_name, f) {
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: f.span.line,
                col: 1,
                message: format!(
                    "solver entry `{}` never reaches `faults::inject` in this file; add a \
                     deterministic fault hook so rfkit-faults CI exercises this path",
                    f.name
                ),
                suppressed: false,
                suggestion: None,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(rel: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(rel, src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_uncovered_solver_entry() {
        let src = "\
pub fn solve_noise(c: &Circuit) -> Result<f64, Error> {
    let sys = assemble(c);
    newton(&sys)
}
fn newton(sys: &System) -> Result<f64, Error> {
    Ok(0.0)
}
";
        let hits = run("crates/circuit/src/noise.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("solve_noise"));
    }

    #[test]
    fn quiet_when_hook_reached_transitively() {
        let src = "\
pub fn solve_dc(c: &Circuit) -> Result<f64, Error> {
    ladder(c)
}
fn ladder(c: &Circuit) -> Result<f64, Error> {
    newton_run(c)
}
fn newton_run(c: &Circuit) -> Result<f64, Error> {
    if rfkit_robust::faults::inject(\"dc.newton\", 1).is_some() {
        return Err(Error::Fault);
    }
    Ok(0.0)
}
";
        assert!(run("crates/circuit/src/dc.rs", src).is_empty());
    }

    #[test]
    fn internal_solve_helpers_are_exempt() {
        // solve_dense is called by sweep_batch, which owns the hook.
        let src = "\
pub fn sweep_batch(grid: &[f64]) {
    for g in grid {
        if faults::inject(\"ac.solve\", g.to_bits()).is_some() {
            continue;
        }
        solve_dense(*g);
    }
}
fn solve_dense(g: f64) {}
";
        assert!(run("crates/circuit/src/sweep.rs", src).is_empty());
    }

    #[test]
    fn only_circuit_lib_files_are_checked() {
        let src = "pub fn solve_x(c: &Circuit) -> f64 { newton(c) }\nfn newton(c: &Circuit) -> f64 { 0.0 }\n";
        assert!(run("crates/num/src/lib.rs", src).is_empty());
        assert!(run("crates/circuit/tests/t.rs", src).is_empty());
        assert!(!run("crates/circuit/src/x.rs", src).is_empty());
    }
}
