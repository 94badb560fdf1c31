//! `obs-span-leak`: a tracing span bound to the wildcard pattern
//! (`let _ = rfkit_obs::span(..)`) drops at the end of the statement, so
//! the span records ~0 µs instead of the region it was meant to time.
//! The guard must live in a named binding (`let _span = ...`) whose drop
//! at scope exit closes the span.
//!
//! Contract: observability. A profile attributes time to the layer a span
//! names, which needs the span to cover that region.

use crate::report::{Finding, Severity};
use crate::source::SourceFile;
use crate::tokenizer::{Tok, TokKind};

/// Lint name.
pub const NAME: &str = "obs-span-leak";
/// One-line description.
pub const DESCRIPTION: &str = "`let _ = ...span(...)` drops the span guard immediately; bind it \
     to a named variable like `_span`";

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    let code: Vec<&Tok> = file.toks.iter().filter(|t| !t.is_comment()).collect();
    for (i, t) in code.iter().enumerate() {
        if !t.is_ident("let") {
            continue;
        }
        // Exactly `let _ =` — named bindings (`_span`), patterns
        // (`let _ : T`), and tuple destructuring (`let (_, x)`) are fine.
        if !code.get(i + 1).is_some_and(|n| n.is_ident("_")) {
            continue;
        }
        if !code.get(i + 2).is_some_and(|n| n.is_punct("=")) {
            continue;
        }
        // Scan the initializer to its `;` (at bracket depth 0) for a call
        // to `span(...)` — covers `rfkit_obs::span(..)`, `obs::span(..)`
        // and a locally imported `span(..)`.
        let mut depth = 0i32;
        for (j, tok) in code[i + 3..].iter().enumerate() {
            if tok.is_punct("(") || tok.is_punct("[") || tok.is_punct("{") {
                depth += 1;
            } else if tok.is_punct(")") || tok.is_punct("]") || tok.is_punct("}") {
                depth -= 1;
            } else if tok.is_punct(";") && depth == 0 {
                break;
            } else if tok.kind == TokKind::Ident
                && tok.text == "span"
                && code.get(i + 3 + j + 1).is_some_and(|n| n.is_punct("("))
            {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Warning,
                    file: file.rel.clone(),
                    line: t.line,
                    col: t.col,
                    message: "span guard bound to `_` drops immediately and records ~0 µs; \
                         bind it to a named variable (e.g. `let _span = ...`) so it closes \
                         at scope exit"
                        .to_string(),
                    suppressed: false,
                });
                break;
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
    fn flags_wildcard_span_binding() {
        let hits = run("fn f() { let _ = rfkit_obs::span(\"x\"); work(); }");
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].lint, NAME);
        assert!(hits[0].message.contains("_span"));
    }

    #[test]
    fn flags_locally_imported_span() {
        let hits = run("fn f() { let _ = span(\"x\"); }");
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn quiet_on_named_guard() {
        let hits = run("fn f() { let _span = rfkit_obs::span(\"x\"); work(); }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn quiet_on_unrelated_wildcard_let() {
        let hits = run("fn f(device: u8, band: u8) { let _ = (device, band); }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn quiet_when_span_is_in_a_later_statement() {
        let hits = run("fn f() { let _ = init(); let _g = rfkit_obs::span(\"x\"); }");
        assert!(hits.is_empty(), "{hits:?}");
    }

    #[test]
    fn quiet_on_span_field_access_without_call() {
        let hits = run("fn f(r: Rec) { let _ = r.span; }");
        assert!(hits.is_empty(), "{hits:?}");
    }
}
