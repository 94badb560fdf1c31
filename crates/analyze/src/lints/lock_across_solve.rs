//! `lock-across-solve`: a mutex guard held across a call into a
//! solver. Solver entry points (`solve_*`, `sweep_batch`, `newton_*`)
//! can run for milliseconds per call and — once `rfkit-serve` fans
//! requests across threads — a guard held across one serializes the
//! whole fleet and invites lock-order deadlocks with callbacks that
//! also take locks. Drop the guard (end its scope, or `drop(g)`)
//! before entering the solver, or copy what you need out of the
//! protected state first.
//!
//! Detection is lexical-RAII: a `let g = x.lock()` binding is live
//! from its line to the end of its enclosing scope unless an explicit
//! `drop(g)` appears first; any solver call strictly inside that range
//! is flagged.
//!
//! Contract: rfkit-serve workers never serialize on a lock held across a
//! solve, which keeps per-request latency independent of the other workers.

use crate::dataflow::{CallKind, CallSite, Def, FnAnalysis};
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};

/// Lint name.
pub const NAME: &str = "lock-across-solve";
/// One-line description.
pub const DESCRIPTION: &str = "MutexGuard held live across a solver/eval call (warning)";

/// Guard-producing method names.
const LOCK_METHODS: [&str; 2] = ["lock", "try_lock"];

fn is_solver_call(c: &CallSite) -> bool {
    let last = c.name.rsplit("::").next().unwrap_or(&c.name);
    last.starts_with("solve") || last.starts_with("newton") || last == "sweep_batch"
}

/// The line an explicit `drop(<name>)` releases the guard on, if any.
fn drop_line(f: &FnAnalysis, d: &Def) -> Option<u32> {
    f.calls
        .iter()
        .filter(|c| {
            c.kind == CallKind::Call
                && c.name == "drop"
                && c.line >= d.line
                && c.arg_idents.iter().any(|a| a == &d.name)
        })
        .map(|c| c.line)
        .min()
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
        for d in &f.defs {
            // `state.lock().unwrap()` ends in `unwrap`, so check the
            // whole init chain for a lock call, not just the trailing
            // method. A block initializer (`let x = { …lock()… };`)
            // has no trailing call — any guard taken inside it already
            // died at the block's end, so it is not a guard binding.
            let locks = LOCK_METHODS.contains(&d.init_call.as_str())
                || (!d.init_call.is_empty()
                    && d.init_idents
                        .iter()
                        .any(|i| LOCK_METHODS.contains(&i.as_str())));
            if !locks {
                continue;
            }
            let live_end = drop_line(f, d).unwrap_or(d.scope_end);
            for c in f.calls.iter().filter(|c| is_solver_call(c)) {
                if c.line > d.line && c.line < live_end && !file.in_test_region(c.line) {
                    out.push(Finding {
                        lint: NAME,
                        severity: Severity::Warning,
                        file: file.rel.clone(),
                        line: c.line,
                        col: c.col,
                        message: format!(
                            "solver call `{}` runs while guard `{}` (locked at line {}) is \
                             still held; drop the guard or copy state out before solving",
                            c.name, d.name, d.line
                        ),
                        suppressed: false,
                    });
                }
            }
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
    fn flags_guard_held_across_solver() {
        let src = "\
pub fn run(state: &Mutex<State>, c: &Circuit) {
    let g = state.lock().unwrap();
    let sol = solve_dc(c);
    g.record(sol);
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("guard `g`"));
        assert!(hits[0].message.contains("solve_dc"));
    }

    #[test]
    fn flags_method_solver_and_sweep_batch() {
        let src = "\
pub fn run(state: &Mutex<State>, plan: &mut StampPlan) {
    let g = state.lock().unwrap();
    plan.sweep_batch(&freqs, &mut out);
    drop(g);
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
    }

    #[test]
    fn quiet_when_guard_dropped_before_solve() {
        let src = "\
pub fn run(state: &Mutex<State>, c: &Circuit) {
    let g = state.lock().unwrap();
    let x0 = g.guess.clone();
    drop(g);
    let sol = solve_dc(c);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn quiet_when_scope_ends_before_solve() {
        let src = "\
pub fn run(state: &Mutex<State>, c: &Circuit) {
    let x0 = {
        let g = state.lock().unwrap();
        g.guess.clone()
    };
    let sol = solve_dc(c);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn quiet_without_locks_or_in_tests() {
        assert!(run("pub fn run(c: &Circuit) { let s = solve_dc(c); }\n").is_empty());
        let test = "\
#[cfg(test)]
mod tests {
    fn t(state: &Mutex<State>, c: &Circuit) {
        let g = state.lock().unwrap();
        solve_dc(c);
    }
}
";
        assert!(run(test).is_empty());
    }
}
