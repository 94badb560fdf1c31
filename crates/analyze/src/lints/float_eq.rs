//! `float-eq`: direct `==` / `!=` against a floating-point literal or
//! float constant. Exact float comparison is almost always a bug in
//! numeric code (it silently breaks under rounding, and `x == f64::NAN`
//! is *always* false). Intentional bit-exact zero guards should say so
//! with `rfkit_num::is_exact_zero`, which also documents that NaN must
//! not slip through.
//!
//! Contract: NaN-safe numerics. Every exact float comparison is a named,
//! deliberate bit-zero guard (`rfkit_num::is_exact_zero`). This lint stays
//! beside the workspace clippy table because `clippy::float_cmp` skips
//! `x == 0.0` and `x == f64::INFINITY`, exactly the guards routed here.

use crate::report::{Finding, Severity};
use crate::source::SourceFile;
use crate::tokenizer::{Tok, TokKind};

/// Lint name.
pub const NAME: &str = "float-eq";
/// One-line description.
pub const DESCRIPTION: &str =
    "`==`/`!=` against a float literal or float constant; use a tolerance or \
     rfkit_num::is_exact_zero";

/// Float-typed constants commonly compared against.
const FLOAT_CONSTS: [&str; 4] = ["NAN", "INFINITY", "NEG_INFINITY", "EPSILON"];

fn is_floaty(t: &Tok) -> bool {
    t.kind == TokKind::Float
        || (t.kind == TokKind::Ident && FLOAT_CONSTS.contains(&t.text.as_str()))
}

/// Checks the operand starting at `code[j]`, looking through a unary
/// minus and a path prefix (`f64::INFINITY`, `std::f64::EPSILON`).
fn operand_is_floaty(code: &[&Tok], mut j: usize) -> bool {
    if code.get(j).is_some_and(|t| t.is_punct("-")) {
        j += 1;
    }
    while code.get(j).is_some_and(|t| t.kind == TokKind::Ident)
        && code.get(j + 1).is_some_and(|t| t.is_punct("::"))
    {
        j += 2;
    }
    code.get(j).copied().is_some_and(is_floaty)
}

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) {
            continue;
        }
        let prev_floaty = i > 0 && is_floaty(code[i - 1]);
        let next_floaty = operand_is_floaty(&code, i + 1);
        if prev_floaty || next_floaty {
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "exact float comparison `{}`; compare with a tolerance, or use \
                     rfkit_num::is_exact_zero for an intentional bit-zero guard",
                    t.text
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
    fn flags_literal_and_const_comparisons() {
        let hits = run("fn f(x: f64) -> bool { x == 0.0 || x != 1.5e3 || x == f64::INFINITY }");
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].severity, Severity::Warning);
        assert!(hits[0].message.contains("is_exact_zero"));
    }

    #[test]
    fn flags_zero_guards_on_either_side() {
        // The zero and infinity guards `clippy::float_cmp` skips.
        let hits = run("fn f(x: f64) -> bool { x != 0.0 || 0.0 == x || f64::INFINITY == x }");
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn flags_negated_literal() {
        let hits = run("fn f(x: f64) -> bool { x == -1.0 }");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn quiet_on_integers_and_tolerances() {
        let hits =
            run("fn f(x: f64, n: usize) -> bool { n == 0 && (x - 1.0).abs() < 1e-12 && n != 3 }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn quiet_on_float_vs_variable() {
        // Both sides are identifiers of unknown type: no type info, no lint.
        let hits = run("fn f(a: f64, b: f64) -> bool { a == b }");
        assert!(hits.is_empty());
    }
}
