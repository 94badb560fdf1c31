//! Round-trip guarantee: every `.rs` file in the real workspace must
//! tokenize and parse without panicking, every span must stay inside
//! the file, and the dataflow pass must run over the result. The
//! parser is error-tolerant by design, so "parses" here means
//! "produces a well-formed AST", not "validates Rust" — but a file
//! with functions must yield function items, or the lints built on the
//! AST would silently go blind.

use rfkit_analyze::{dataflow, parser, tokenizer};
use std::fs;
use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    // crates/analyze -> workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/analyze sits two levels below the workspace root")
        .to_path_buf()
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

fn check_spans(items: &[parser::Item], last_line: u32, file: &Path) {
    for it in items {
        assert!(
            it.span.line >= 1 && it.span.end_line <= last_line && it.span.line <= it.span.end_line,
            "item `{}` span {:?} out of bounds (file has {} lines) in {}",
            it.name,
            it.span,
            last_line,
            file.display()
        );
        check_spans(&it.children, last_line, file);
    }
}

#[test]
fn every_workspace_file_parses() {
    let root = workspace_root();
    assert!(
        root.join("Cargo.toml").is_file(),
        "workspace root not found at {}",
        root.display()
    );
    let mut files = Vec::new();
    collect(&root.join("src"), &mut files);
    collect(&root.join("tests"), &mut files);
    collect(&root.join("crates"), &mut files);
    assert!(
        files.len() >= 30,
        "expected a real workspace, found only {} .rs files",
        files.len()
    );

    let mut total_fns = 0usize;
    for path in &files {
        let src = fs::read_to_string(path).unwrap();
        let toks = tokenizer::tokenize(&src);
        let ast = parser::parse(&toks);
        // Span sanity: 1-based lines, never past the last line.
        let last_line = src.lines().count().max(1) as u32;
        check_spans(&ast.items, last_line, path);
        // Dataflow must also survive every file.
        let fns = dataflow::analyze(&ast);
        for f in &fns {
            assert!(
                f.span.line <= f.span.end_line,
                "fn `{}` has inverted span in {}",
                f.name,
                path.display()
            );
            for c in &f.calls {
                assert!(
                    c.line >= 1 && c.line <= last_line,
                    "call `{}` at out-of-bounds line {} in {}",
                    c.name,
                    c.line,
                    path.display()
                );
            }
            for d in &f.defs {
                assert!(
                    d.line >= 1 && d.line <= last_line,
                    "def `{}` at out-of-bounds line {} in {}",
                    d.name,
                    d.line,
                    path.display()
                );
            }
        }
        total_fns += fns.len();
        // A file that textually declares functions must surface at
        // least one Fn item — otherwise the parser lost the file.
        let has_fn_text = src.lines().any(|l| {
            let t = l.trim_start();
            (t.starts_with("fn ") || t.starts_with("pub fn ")) && l.contains('(')
        });
        if has_fn_text {
            assert!(
                !fns.is_empty(),
                "parser found no functions in {} despite `fn` declarations",
                path.display()
            );
        }
    }
    // The workspace has hundreds of functions; a collapse to near-zero
    // means the parser is silently skipping bodies.
    assert!(
        total_fns >= 300,
        "only {total_fns} functions parsed across the workspace"
    );
}
