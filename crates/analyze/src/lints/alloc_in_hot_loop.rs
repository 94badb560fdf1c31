//! `alloc-in-hot-loop`: heap allocation inside a loop in a hot
//! function. The batched sweep engine (PR 6) exists to keep the
//! per-frequency inner loop allocation-free: workspaces are sized once
//! and reused across grid points. An allocation that sneaks into a
//! `// rfkit-hot`-marked function — or anything reachable from
//! `sweep_batch` in the same file — silently re-pays malloc per point.
//!
//! Flagged at loop depth ≥ 1 in hot functions: `Vec::new`,
//! `Vec::with_capacity`, `vec![…]`, `Box::new`, `.to_vec()`,
//! `.collect()`, `String::new`, `format!(…)`, `.clone()` on
//! container-ish receivers is *not* flagged (too noisy; clones of
//! scalars dominate). Hoist the allocation into a workspace that the
//! caller owns, or pre-size it before entering the loop.
//!
//! Contract: the batched sweep's inner loop is allocation-free after the
//! warm-up point.

use crate::dataflow::{self, CallKind};
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};

/// Lint name.
pub const NAME: &str = "alloc-in-hot-loop";
/// One-line description.
pub const DESCRIPTION: &str =
    "heap allocation inside a loop of a `// rfkit-hot` (or sweep_batch-reachable) fn (warning)";

/// Function names that seed hotness in addition to explicit markers.
const HOT_SEEDS: [&str; 1] = ["sweep_batch"];

/// Allocating plain/assoc-fn call paths.
const ALLOC_CALLS: [&str; 5] = [
    "Vec::new",
    "Vec::with_capacity",
    "Box::new",
    "String::new",
    "String::with_capacity",
];

/// Allocating method names.
const ALLOC_METHODS: [&str; 3] = ["to_vec", "collect", "to_owned"];

/// Allocating macros.
const ALLOC_MACROS: [&str; 2] = ["vec", "format"];

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let hot = dataflow::hot_set(&file.fns, &HOT_SEEDS);
    for f in &file.fns {
        if !hot.iter().any(|h| h == &f.name) || file.in_test_region(f.span.line) {
            continue;
        }
        for c in &f.calls {
            if c.loop_depth == 0 || file.in_test_region(c.line) {
                continue;
            }
            let what = match c.kind {
                CallKind::Call if ALLOC_CALLS.contains(&c.name.as_str()) => {
                    format!("`{}(...)`", c.name)
                }
                CallKind::Method if ALLOC_METHODS.contains(&c.name.as_str()) => {
                    format!("`.{}()`", c.name)
                }
                CallKind::Macro if ALLOC_MACROS.contains(&c.name.as_str()) => {
                    format!("`{}![...]`", c.name)
                }
                _ => continue,
            };
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "{what} allocates inside a loop of hot fn `{}` (depth {}); hoist the \
                     buffer out of the loop or take a caller-owned workspace",
                    f.name, c.loop_depth
                ),
                suppressed: false,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        out
    }

    #[test]
    fn flags_allocs_in_marked_hot_loop() {
        let src = "\
// rfkit-hot
pub fn kernel(freqs: &[f64]) {
    for f in freqs {
        let mut buf = Vec::new();
        let v = xs.to_vec();
        let w: Vec<f64> = ys.iter().map(|y| y * f).collect();
        let b = vec![0.0; n];
        buf.push(*f);
    }
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 4, "{hits:?}");
        assert!(hits.iter().all(|h| h.severity == Severity::Warning));
        assert!(hits[0].message.contains("hot fn `kernel`"));
    }

    #[test]
    fn flags_through_sweep_batch_reachability() {
        let src = "\
pub fn sweep_batch(grid: &[f64]) {
    for g in grid {
        helper(*g);
    }
}
fn helper(g: f64) {
    loop {
        let v = Box::new(g);
        break;
    }
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("helper"));
    }

    #[test]
    fn quiet_outside_loops_in_cold_fns_and_tests() {
        // Allocation before the loop in a hot fn: fine.
        let pre = "\
// rfkit-hot
pub fn kernel(freqs: &[f64]) {
    let mut buf = Vec::with_capacity(freqs.len());
    for f in freqs {
        buf.push(*f);
    }
}
";
        assert!(run(pre).is_empty());
        // Cold function: allocate freely.
        let cold = "\
pub fn setup(freqs: &[f64]) {
    for f in freqs {
        let v = vec![*f];
    }
}
";
        assert!(run(cold).is_empty());
        // Test regions are exempt even in hot fns.
        let test = "\
#[cfg(test)]
mod tests {
    // rfkit-hot
    fn t(xs: &[f64]) {
        for x in xs {
            let v = xs.to_vec();
        }
    }
}
";
        assert!(run(test).is_empty());
    }

    #[test]
    fn quiet_in_bins() {
        let src = "\
// rfkit-hot
fn main() {
    for f in freqs {
        let v = Vec::new();
    }
}
";
        let f = SourceFile::parse("crates/x/src/bin/tool.rs", src);
        let mut out = Vec::new();
        check(&f, &mut out);
        assert!(out.is_empty());
    }
}
