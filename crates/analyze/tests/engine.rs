//! End-to-end test: build a miniature workspace on disk, run the full
//! tree walk, and check that every lint fires where it should, stays
//! quiet where it should, and that suppressions work.

use rfkit_analyze::analyze_tree;
use std::fs;
use std::path::{Path, PathBuf};

fn write(root: &Path, rel: &str, src: &str) {
    let path = root.join(rel);
    let dir = path
        .parent()
        .expect("fixture paths name a file in a directory");
    fs::create_dir_all(dir).expect("create fixture directory");
    fs::write(path, src).expect("write fixture file");
}

#[test]
fn tree_walk_finds_and_attributes_violations() {
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("fake_ws");
    let _ = fs::remove_dir_all(&root);

    // A numeric crate with one violation of each flavour.
    write(
        &root,
        "crates/num/src/lib.rs",
        "\
use std::collections::HashMap;
pub fn zero(x: f64) -> bool { x == 0.0 }
pub fn sort(v: &mut [f64]) { v.sort_by(|a, b| a.partial_cmp(b).unwrap()); }
pub type Map = HashMap<u32, u32>;
// Suppressed on purpose:
pub fn zero2(x: f64) -> bool { x == 0.0 } // rfkit-allow(float-eq)
",
    );
    // A clean file in a non-numeric crate: HashMap is fine there.
    write(
        &root,
        "crates/bench/src/lib.rs",
        "use std::collections::HashMap;\npub type Map = HashMap<u32, u32>;\n",
    );
    // Integration tests are walked too; exact float asserts there are
    // findings like anywhere else.
    write(
        &root,
        "crates/num/tests/t.rs",
        "#[test]\nfn t() { assert!(1.0 == 1.0); }\n",
    );

    let (findings, files) = analyze_tree(&root).unwrap();
    assert_eq!(files, 3);

    let active: Vec<_> = findings.iter().filter(|f| !f.suppressed).collect();
    let by_lint = |name: &str| active.iter().filter(|f| f.lint == name).count();

    assert_eq!(by_lint("float-eq"), 2, "{active:?}");
    assert!(active
        .iter()
        .any(|f| f.lint == "float-eq" && f.file == "crates/num/tests/t.rs"));
    assert_eq!(by_lint("nan-unsafe-sort"), 1);
    // HashMap appears twice in the numeric crate (use line and alias
    // target) and zero times chargeable in bench.
    assert_eq!(by_lint("nondeterminism"), 2);
    assert_eq!(active.len(), 5, "{active:?}");

    // The suppressed float-eq finding is present but marked.
    assert_eq!(
        findings
            .iter()
            .filter(|f| f.lint == "float-eq" && f.suppressed)
            .count(),
        1
    );

    // Everything is attributed to a workspace-relative path with a line.
    assert!(findings.iter().all(|f| f.line >= 1 && !f.file.is_empty()));
}
