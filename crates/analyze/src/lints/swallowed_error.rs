//! `swallowed-solve-error`: solver results discarded without looking at
//! the error. The fault-tolerance layer (`rfkit-robust`) spends real
//! effort attaching provenance to every failure — which ladder stage,
//! which iteration, what residual — and a `let _ = solve_dc(...)` or
//! `circuit.solve(...).ok();` throws all of it away silently. Library
//! code must match on the result (or propagate it with `?`); deliberate
//! discards belong behind a `// rfkit-allow(swallowed-solve-error)` with
//! a reason.
//!
//! Contract: failures come back as structured outcomes with their
//! provenance, on every solve path.

use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};
use crate::tokenizer::Tok;

/// Lint name.
pub const NAME: &str = "swallowed-solve-error";
/// One-line description.
pub const DESCRIPTION: &str =
    "solver Result discarded via `let _ = ...` or `.ok();` in library code";

/// Identifiers whose call results carry a solver error taxonomy worth
/// keeping. Matched exactly against call names inside the discarding
/// statement.
const SOLVER_IDENTS: [&str; 6] = [
    "solve",
    "solve_dc",
    "lu_into",
    "evaluate_robust",
    "evaluate_with",
    "yield_analysis_robust",
];

fn names_a_solver(toks: &[&Tok]) -> bool {
    toks.iter()
        .any(|t| SOLVER_IDENTS.iter().any(|s| t.is_ident(s)))
}

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if file.kind != FileKind::Lib {
        return;
    }
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if file.in_test_region(t.line) {
            continue;
        }
        // `let _ = <expr containing a solver call> ;` — the wildcard
        // binding is the classic "I know it can fail, don't care" shape.
        if t.is_ident("let")
            && code.get(i + 1).is_some_and(|n| n.is_ident("_"))
            && code.get(i + 2).is_some_and(|n| n.is_punct("="))
        {
            let stmt_end = code[i + 3..]
                .iter()
                .position(|n| n.is_punct(";"))
                .map(|p| i + 3 + p)
                .unwrap_or(code.len());
            if names_a_solver(&code[i + 3..stmt_end]) {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Warning,
                    file: file.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`let _ = ...` discards a solver result and its error \
                              provenance (stage, iterations, residual); match on the \
                              error or propagate it"
                        .to_string(),
                    suppressed: false,
                });
            }
        }
        // `<solver call chain>.ok();` — converting to Option and dropping
        // it on the floor swallows the error the same way.
        if t.is_punct(".")
            && code.get(i + 1).is_some_and(|n| n.is_ident("ok"))
            && code.get(i + 2).is_some_and(|n| n.is_punct("("))
            && code.get(i + 3).is_some_and(|n| n.is_punct(")"))
            && code.get(i + 4).is_some_and(|n| n.is_punct(";"))
        {
            // Look back to the start of the statement for a solver name.
            let stmt_start = code[..i]
                .iter()
                .rposition(|n| n.is_punct(";") || n.is_punct("{") || n.is_punct("}"))
                .map(|p| p + 1)
                .unwrap_or(0);
            if names_a_solver(&code[stmt_start..i]) {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Warning,
                    file: file.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "`.ok();` on a solver result swallows the error taxonomy; \
                              match on the error or propagate it"
                        .to_string(),
                    suppressed: false,
                });
            }
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
    fn wildcard_let_of_solver_result_is_flagged() {
        let src = "\
pub fn f(c: &Circuit) {
    let _ = solve_dc(c);
    let _ = solve_dc(c).map(|s| s.iterations);
}
";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|h| h.severity == Severity::Warning));
        assert_eq!(hits[0].line, 2);
        assert_eq!(hits[1].line, 3);
    }

    #[test]
    fn ok_discard_of_solver_result_is_flagged() {
        let src = "\
pub fn f(m: &Matrix, rhs: &[f64]) {
    m.solve(rhs).ok();
}
";
        let hits = run("crates/x/src/lib.rs", src);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].line, 2);
    }

    #[test]
    fn quiet_on_handled_results_and_unrelated_discards() {
        let src = "\
pub fn f(c: &Circuit) -> Result<(), SolveError> {
    let sol = solve_dc(c)?;
    let _ = unrelated_cleanup();
    match solve_dc(c) {
        Ok(_) => {}
        Err(e) => log(e),
    }
    drop(sol);
    Ok(())
}
";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
    }

    #[test]
    fn quiet_in_tests_and_bins() {
        let src = "fn main() { let _ = solve_dc(&c); solve_dc(&c).ok(); }";
        assert!(run("crates/x/src/bin/tool.rs", src).is_empty());
        assert!(run("crates/x/tests/t.rs", src).is_empty());
        let in_test_mod = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = solve_dc(&c); }
}
";
        assert!(run("crates/x/src/lib.rs", in_test_mod).is_empty());
    }

    #[test]
    fn ok_with_a_consumer_is_not_a_discard() {
        // `.ok()` feeding into a larger expression keeps the value.
        let src = "pub fn f(c: &Circuit) -> Option<DcSolution> { solve_dc(c).ok() }";
        assert!(run("crates/x/src/lib.rs", src).is_empty());
        let chained =
            "pub fn g(c: &Circuit) -> f64 { solve_dc(c).ok().map(|s| s.x[0]).unwrap_or(0.0) }";
        assert!(run("crates/x/src/lib.rs", chained).is_empty());
    }
}
