//! `dense-solve-in-sweep`: O(n³) dense factorizations inside
//! per-frequency loops. Library code that calls `.inverse()`, `.lu()`,
//! `.lu_into()`, `.solve_matrix()` or `.solve_matrix_into()` directly in
//! a loop over a frequency grid re-pays the full pivoted factorization at
//! every point — exactly the cost the batched sweep engine
//! (`StampPlan::sweep_batch`, which reuses one pivot order across the
//! grid) exists to amortize. Route grid sweeps through `sweep_batch` (or
//! hoist the factorization out of the loop) instead.
//!
//! Runs over the dataflow layer: a call is flagged when its enclosing
//! loop *nest* (real nesting from the AST, not brace counting) has a
//! grid-like identifier in any loop header — anything containing
//! `freq` or `grid`, or named `band`, `sweep`, `points` or `omega`.
//! Substitutions against a factorization computed outside the loop
//! (`LuWorkspace::solve_into`) are fine and not flagged.

use crate::dataflow::CallKind;
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};

/// Lint name.
pub const NAME: &str = "dense-solve-in-sweep";
/// One-line description.
pub const DESCRIPTION: &str =
    "dense inverse()/full-LU factorization inside a per-frequency loop (warning)";

/// Dense-factorization entry points that should never sit in a sweep loop.
const DENSE_CALLS: [&str; 5] = [
    "inverse",
    "lu",
    "lu_into",
    "solve_matrix",
    "solve_matrix_into",
];

fn grid_like(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("freq")
        || lower.contains("grid")
        || lower == "band"
        || lower == "sweep"
        || lower == "points"
        || lower == "omega"
}

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    for f in &file.fns {
        if file.in_test_region(f.span.line) {
            continue;
        }
        for c in &f.calls {
            if c.kind != CallKind::Method
                || c.loop_depth == 0
                || !DENSE_CALLS.contains(&c.name.as_str())
                || file.in_test_region(c.line)
            {
                continue;
            }
            if !c.loop_header_idents.iter().any(|i| grid_like(i)) {
                continue;
            }
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: c.line,
                col: c.col,
                message: format!(
                    "`.{}(...)` inside a per-frequency loop refactors the full dense \
                     system at every grid point; use `StampPlan::sweep_batch` or hoist \
                     the factorization out of the loop",
                    c.name
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
    fn flags_dense_calls_in_freq_loops() {
        let src = "\
pub fn sweep(freqs: &[f64]) {
    for f in freqs {
        let y = assemble(*f);
        let inv = y.inverse();
        let mut ws = LuWorkspace::new();
        ws.lu_into(&y);
    }
}
";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits[0].message.contains("inverse"));
        assert!(hits[1].message.contains("lu_into"));
        assert!(hits.iter().all(|h| h.severity == Severity::Warning));
    }

    #[test]
    fn flags_in_nested_and_enumerated_grids() {
        let src = "\
pub fn sweep(grid: &[f64]) {
    for (p, f) in grid.iter().enumerate() {
        if p > 0 {
            solver.solve_matrix(&rhs);
        }
    }
}
";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn flags_inner_loop_when_outer_is_the_grid() {
        // Brace counting used to need the dense call lexically inside
        // the grid loop's braces; real nesting sees through inner
        // non-grid loops too.
        let src = "\
pub fn sweep(freqs: &[f64], stages: &[Stage]) {
    for f in freqs {
        for s in stages {
            s.y.inverse();
        }
    }
}
";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn quiet_outside_sweep_loops_and_on_cheap_solves() {
        // Non-grid loop: dense call allowed.
        let over_rows = "\
pub fn f(rows: &[Row]) {
    for r in rows {
        r.m.inverse();
    }
}
";
        assert!(run("crates/x/src/lib.rs", over_rows).is_empty());
        // Grid loop, but only factorization *reuse*: allowed.
        let reuse = "\
pub fn f(freqs: &[f64], ws: &LuWorkspace) {
    for f in freqs {
        ws.solve_into(&rhs(*f), &mut x);
        band.solve_in_place(&mut x);
    }
}
";
        assert!(run("crates/x/src/lib.rs", reuse).is_empty());
        // `impl T for U` is not a loop header.
        let impl_block = "\
impl Solve for Grid {
    fn go(&self) {
        self.m.inverse();
    }
}
";
        assert!(run("crates/x/src/lib.rs", impl_block).is_empty());
        // A dense call after the grid loop closed: allowed.
        let after = "\
pub fn f(freqs: &[f64]) {
    for f in freqs {
        accumulate(*f);
    }
    total.inverse();
}
";
        assert!(run("crates/x/src/lib.rs", after).is_empty());
    }

    #[test]
    fn quiet_in_tests_and_bins() {
        let src = "\
fn main() {
    for f in freqs {
        y.inverse();
    }
}
";
        assert!(run("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(run("crates/x/tests/t.rs", src).is_empty());
    }
}
