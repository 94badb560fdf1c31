//! Per-file source model: path classification, test-region detection,
//! and `rfkit-allow(...)` suppression parsing.

use crate::dataflow::{self, FnAnalysis};
use crate::parser::{self, Ast};
use crate::tokenizer::{tokenize, Tok};

/// What role a file plays, derived from its workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library source under `src/` — the strictest tier.
    Lib,
    /// Binary under `src/bin/` or `src/main.rs`.
    Bin,
    /// Integration test under `tests/`.
    Test,
    /// Example under `examples/`.
    Example,
}

/// One lexed workspace file plus the derived facts lints need.
pub struct SourceFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Crate name (`num`, `opt`, …; `root` for the top-level crate).
    pub crate_name: String,
    /// Role of the file.
    pub kind: FileKind,
    /// Full token stream, comments included.
    pub toks: Vec<Tok>,
    /// Inclusive line ranges covered by `#[cfg(test)]` / `#[test]` items.
    pub test_regions: Vec<(u32, u32)>,
    /// Parsed `rfkit-allow(...)` suppressions.
    pub allows: Vec<Allow>,
    /// Parsed AST of the file (error-tolerant; never fails).
    pub ast: Ast,
    /// Per-function dataflow summaries derived from `ast`.
    pub fns: Vec<FnAnalysis>,
}

/// One `rfkit-allow(<lint>)` suppression.
#[derive(Debug, Clone)]
pub struct Allow {
    /// Line the marker is on.
    pub line: u32,
    /// Lint name being suppressed.
    pub lint: String,
}

impl SourceFile {
    /// Lexes `src` and computes test regions and suppressions.
    pub fn parse(rel: &str, src: &str) -> SourceFile {
        let toks = tokenize(src);
        let (crate_name, kind) = classify_path(rel);
        let test_regions = find_test_regions(&toks);
        let allows = find_allows(&toks);
        let ast = parser::parse(&toks);
        let fns = dataflow::analyze(&ast);
        SourceFile {
            rel: rel.to_string(),
            crate_name,
            kind,
            toks,
            test_regions,
            allows,
            ast,
            fns,
        }
    }

    /// True when `line` falls inside a `#[cfg(test)]` module or `#[test]` fn.
    pub fn in_test_region(&self, line: u32) -> bool {
        self.kind == FileKind::Test
            || self
                .test_regions
                .iter()
                .any(|&(lo, hi)| line >= lo && line <= hi)
    }

    /// True when a `rfkit-allow(<lint>)` comment sits on `line` or the
    /// line directly above it.
    pub fn is_allowed(&self, lint: &str, line: u32) -> bool {
        self.allows
            .iter()
            .any(|a| a.lint == lint && (a.line == line || a.line + 1 == line))
    }
}

fn classify_path(rel: &str) -> (String, FileKind) {
    let parts: Vec<&str> = rel.split('/').collect();
    let (crate_name, rest) = if parts.first() == Some(&"crates") && parts.len() > 2 {
        (parts[1].to_string(), &parts[2..])
    } else {
        ("root".to_string(), &parts[..])
    };
    let kind = match rest.first().copied() {
        Some("tests") => FileKind::Test,
        Some("examples") => FileKind::Example,
        Some("src") => {
            if rest.get(1).copied() == Some("bin") || rest.get(1).copied() == Some("main.rs") {
                FileKind::Bin
            } else {
                FileKind::Lib
            }
        }
        _ => FileKind::Lib,
    };
    (crate_name, kind)
}

/// Scans for `#[cfg(test)]` and `#[test]` attributes and brace-matches the
/// item that follows to get its line extent. Good enough for the lint
/// engine: a missed region makes a lint slightly stricter, never unsound.
fn find_test_regions(toks: &[Tok]) -> Vec<(u32, u32)> {
    let code: Vec<(usize, &Tok)> = toks
        .iter()
        .enumerate()
        .filter(|(_, t)| !t.is_comment())
        .collect();
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if is_test_attr(&code, i) {
            let start_line = code[i].1.line;
            // Skip this and any further attributes, then the item header
            // up to its opening `{` (or a terminating `;`).
            let mut j = skip_attr(&code, i);
            while j < code.len() && is_test_attr(&code, j) {
                j = skip_attr(&code, j);
            }
            while j < code.len() && !code[j].1.is_punct("{") && !code[j].1.is_punct(";") {
                j += 1;
            }
            if j < code.len() && code[j].1.is_punct("{") {
                let mut depth = 0i32;
                while j < code.len() {
                    if code[j].1.is_punct("{") {
                        depth += 1;
                    } else if code[j].1.is_punct("}") {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    j += 1;
                }
            }
            let end_line = code.get(j).map_or(u32::MAX, |(_, t)| t.line);
            regions.push((start_line, end_line));
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// True when `code[i]` starts `#[test]`, `#[cfg(test)]`, or `#[cfg(all(test, …))]`.
fn is_test_attr(code: &[(usize, &Tok)], i: usize) -> bool {
    if !code[i].1.is_punct("#") || !code.get(i + 1).is_some_and(|(_, t)| t.is_punct("[")) {
        return false;
    }
    let Some((_, t2)) = code.get(i + 2) else {
        return false;
    };
    if t2.is_ident("test") {
        return true;
    }
    if t2.is_ident("cfg") {
        // Look for the ident `test` before the attribute closes.
        let mut depth = 0i32;
        for (_, t) in code.iter().skip(i + 1) {
            if t.is_punct("[") || t.is_punct("(") {
                depth += 1;
            } else if t.is_punct("]") || t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if t.is_ident("test") {
                return true;
            }
        }
    }
    false
}

/// Returns the index just past the `#[...]` attribute starting at `i`.
fn skip_attr(code: &[(usize, &Tok)], i: usize) -> usize {
    let mut j = i + 1; // at `[`
    let mut depth = 0i32;
    while j < code.len() {
        if code[j].1.is_punct("[") {
            depth += 1;
        } else if code[j].1.is_punct("]") {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
        j += 1;
    }
    j
}

/// True for `///`, `//!`, `/**`, `/*!` — documentation, where
/// `rfkit-allow(...)` is prose about the mechanism, not a suppression.
fn is_doc_comment(text: &str) -> bool {
    text.starts_with("///")
        || text.starts_with("//!")
        || text.starts_with("/**")
        || text.starts_with("/*!")
}

fn find_allows(toks: &[Tok]) -> Vec<Allow> {
    let mut allows = Vec::new();
    for t in toks {
        if !t.is_comment() || is_doc_comment(&t.text) {
            continue;
        }
        let mut rest = t.text.as_str();
        while let Some(pos) = rest.find("rfkit-allow(") {
            let after = &rest[pos + "rfkit-allow(".len()..];
            if let Some(end) = after.find(')') {
                // Block comments can span lines; attribute the allow to
                // the line the marker itself is on.
                let offset = t.text.len() - rest.len() + pos;
                let line_off = t.text[..offset].matches('\n').count() as u32;
                let lint = after[..end].trim();
                if is_lint_name(lint) {
                    allows.push(Allow {
                        line: t.line + line_off,
                        lint: lint.to_string(),
                    });
                }
                rest = &after[end..];
            } else {
                break;
            }
        }
    }
    allows
}

/// True for a kebab-case lint name. A marker whose parentheses hold
/// anything else (a second name, a trailing clause) suppresses nothing.
fn is_lint_name(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_classification() {
        assert_eq!(
            classify_path("crates/num/src/matrix.rs"),
            ("num".into(), FileKind::Lib)
        );
        assert_eq!(
            classify_path("crates/bench/src/bin/fig4.rs"),
            ("bench".into(), FileKind::Bin)
        );
        assert_eq!(
            classify_path("crates/opt/tests/determinism.rs"),
            ("opt".into(), FileKind::Test)
        );
        assert_eq!(
            classify_path("examples/demo.rs"),
            ("root".into(), FileKind::Example)
        );
        assert_eq!(classify_path("src/lib.rs"), ("root".into(), FileKind::Lib));
        assert_eq!(classify_path("src/main.rs"), ("root".into(), FileKind::Bin));
    }

    #[test]
    fn test_region_covers_cfg_test_module() {
        let src = "\
pub fn live() {}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { assert!(true); }
}
pub fn live2() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(!f.in_test_region(1));
        assert!(f.in_test_region(2));
        assert!(f.in_test_region(5));
        assert!(f.in_test_region(6));
        assert!(!f.in_test_region(7));
    }

    #[test]
    fn test_fn_with_extra_attrs() {
        let src = "\
#[test]
#[should_panic]
fn boom() {
    panic!(\"x\");
}
fn live() {}
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.in_test_region(4));
        assert!(!f.in_test_region(6));
    }

    #[test]
    fn allows_same_line_and_line_above() {
        let src = "\
let a = 0; // rfkit-allow(float-eq)
// rfkit-allow(nondeterminism)
let b = 1;
";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        assert!(f.is_allowed("float-eq", 1));
        // An allow always covers its own line and the next one, so a
        // trailing same-line allow also reaches line 2.
        assert!(f.is_allowed("float-eq", 2));
        assert!(!f.is_allowed("float-eq", 3));
        assert!(f.is_allowed("nondeterminism", 2));
        assert!(f.is_allowed("nondeterminism", 3));
        assert!(!f.is_allowed("nondeterminism", 4));
    }

    #[test]
    fn integration_tests_are_all_test_region() {
        let f = SourceFile::parse("crates/x/tests/t.rs", "fn helper() {}\n");
        assert!(f.in_test_region(1));
    }

    #[test]
    fn marker_with_more_than_one_lint_name_suppresses_nothing() {
        for src in [
            "x == 0.0; // rfkit-allow(float-eq, until = \"2031-01-15\")\n",
            "x == 0.0; // rfkit-allow(float-eq, nondeterminism)\n",
            "x == 0.0; // rfkit-allow(float-eq because tests)\n",
            "x == 0.0; // rfkit-allow()\n",
        ] {
            let f = SourceFile::parse("crates/x/src/lib.rs", src);
            assert!(f.allows.is_empty(), "parsed a suppression from {src}");
            assert!(!f.is_allowed("float-eq", 1));
        }
        let f = SourceFile::parse("crates/x/src/lib.rs", "// rfkit-allow( float-eq )\n");
        assert!(f.is_allowed("float-eq", 1));
    }
}
