//! `nan-unsafe-sort`: `partial_cmp(..).unwrap()` (or `.expect(..)`)
//! inside a sort/min/max/binary-search comparator. One NaN anywhere in
//! the data panics the whole run — after hours of optimization, in the
//! worst case. `rfkit_num::total_cmp_f64` gives a total order that is
//! also deterministic across platforms.
//!
//! Contract: failures come back as structured outcomes, not panics; a NaN
//! objective must not abort a study from inside a comparator.

use crate::report::{Finding, Severity};
use crate::source::SourceFile;
use crate::tokenizer::{Tok, TokKind};

/// Lint name.
pub const NAME: &str = "nan-unsafe-sort";
/// One-line description.
pub const DESCRIPTION: &str = "partial_cmp().unwrap() inside a comparator panics on NaN; use \
     rfkit_num::total_cmp_f64";

/// Comparator-taking methods whose closure argument we inspect.
const METHODS: [&str; 5] = [
    "sort_by",
    "sort_unstable_by",
    "min_by",
    "max_by",
    "binary_search_by",
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if t.kind != TokKind::Ident || !METHODS.contains(&t.text.as_str()) {
            continue;
        }
        if !code.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        // Walk the argument list to its matching close paren.
        let mut depth = 0i32;
        let mut has_partial_cmp = false;
        let mut has_unwrap = false;
        for tok in &code[i + 1..] {
            if tok.is_punct("(") {
                depth += 1;
            } else if tok.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if tok.is_ident("partial_cmp") {
                has_partial_cmp = true;
            } else if tok.is_ident("unwrap") || tok.is_ident("expect") {
                has_unwrap = true;
            }
        }
        if has_partial_cmp && has_unwrap {
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`partial_cmp().unwrap()` inside `{}` panics if any value is NaN; \
                     use rfkit_num::total_cmp_f64 for a NaN-safe total order",
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
    fn flags_partial_cmp_unwrap_in_sort() {
        let hits = run("fn f(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }");
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("total_cmp_f64"));
    }

    #[test]
    fn flags_destructuring_closure_heads() {
        let hits = run(
            "fn f(v: &mut [(f64, u32)]) { v.sort_by(|(a, _), (b, _)| a.partial_cmp(b).unwrap()); }",
        );
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn flags_expect_in_min_by() {
        let hits =
            run("fn f(v: &[f64]) { v.iter().min_by(|a, b| a.partial_cmp(b).expect(\"NaN\")); }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, NAME);
    }

    #[test]
    fn quiet_on_total_cmp() {
        let hits = run("fn f(v: &mut [f64]) { v.sort_by(rfkit_num::total_cmp_f64); }");
        assert!(hits.is_empty());
    }

    #[test]
    fn quiet_when_unwrap_is_outside_the_call() {
        let hits = run("fn f(v: &mut [Vec<f64>]) { v.sort_by(|a, b| a.len().cmp(&b.len())); let x = v.first().map(|r| r[0].partial_cmp(&0.0)); x.unwrap(); }");
        assert!(hits.is_empty(), "{hits:?}");
    }
}
