//! The `unsafe`, `.unwrap()` and unfinished-code rules live in the root
//! `Cargo.toml`'s `[workspace.lints]` table, where rustc and clippy
//! enforce them. A manifest reaches that table only through
//! `[lints] workspace = true`, so a crate that leaves it out escapes
//! every rule silently. This test makes leaving it out a failure.

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

/// The `key = value` lines of the TOML table `[header]`, whitespace
/// removed, or `None` when the manifest has no such table.
fn table(manifest: &str, header: &str) -> Option<Vec<String>> {
    let mut lines = manifest.lines().map(str::trim);
    lines.find(|l| *l == format!("[{header}]"))?;
    Some(
        lines
            .take_while(|l| !l.starts_with('['))
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| l.replace(' ', ""))
            .collect(),
    )
}

fn manifests() -> Vec<PathBuf> {
    let root = workspace_root();
    let mut out = vec![root.join("Cargo.toml")];
    let mut members: Vec<PathBuf> = fs::read_dir(root.join("crates"))
        .expect("read crates/")
        .map(|e| e.expect("read crates/ entry").path().join("Cargo.toml"))
        .filter(|p| p.is_file())
        .collect();
    members.sort();
    out.extend(members);
    out
}

#[test]
fn every_manifest_inherits_the_workspace_lint_table() {
    let manifests = manifests();
    assert!(manifests.len() > 10, "found only {manifests:?}");
    let escaped: Vec<_> = manifests
        .iter()
        .filter(|p| {
            let text = fs::read_to_string(p).expect("read manifest");
            !table(&text, "lints").is_some_and(|t| t.contains(&"workspace=true".to_string()))
        })
        .collect();
    assert!(
        escaped.is_empty(),
        "manifests without `[lints] workspace = true`: {escaped:?}"
    );
}

#[test]
fn the_workspace_lint_table_denies_each_rule() {
    let root = fs::read_to_string(workspace_root().join("Cargo.toml")).expect("read Cargo.toml");
    let rust = table(&root, "workspace.lints.rust").expect("[workspace.lints.rust] table");
    let clippy = table(&root, "workspace.lints.clippy").expect("[workspace.lints.clippy] table");
    for (table, lint) in [
        (&rust, "unsafe_code"),
        (&clippy, "undocumented_unsafe_blocks"),
        (&clippy, "unwrap_used"),
        (&clippy, "todo"),
        (&clippy, "unimplemented"),
    ] {
        assert!(
            table.contains(&format!("{lint}=\"deny\"")),
            "`{lint}` is not denied: {table:?}"
        );
    }
}
