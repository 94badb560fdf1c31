//! `nondeterminism`: hasher-seeded containers and wall-clock types in
//! the numeric crates. The workspace's headline guarantee is that a
//! fixed seed reproduces results bit-for-bit at any thread count;
//! `HashMap` iteration order (random per process) and wall-clock reads
//! both silently break it. `BTreeMap`/`BTreeSet` and the seeded
//! `rfkit_opt` RNG are the sanctioned alternatives.
//!
//! Contract: determinism. A fixed seed gives bit-identical results at any
//! `RFKIT_THREADS` and on every rerun.

use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};
use crate::tokenizer::TokKind;

/// Lint name.
pub const NAME: &str = "nondeterminism";
/// One-line description.
pub const DESCRIPTION: &str =
    "HashMap/HashSet/RandomState/Instant/SystemTime in numeric crates break \
     bit-for-bit reproducibility";

/// Crates whose results feed the paper's figures and tables; these must
/// be bit-for-bit reproducible.
const NUMERIC_CRATES: [&str; 10] = [
    "num",
    "twoport",
    "passive",
    "device",
    "circuit",
    "opt",
    "extract",
    "core",
    "robust",
    "surrogate",
];

/// Offending type names, with the sanctioned replacement.
const BANNED: [(&str, &str); 5] = [
    ("HashMap", "BTreeMap (deterministic iteration order)"),
    ("HashSet", "BTreeSet (deterministic iteration order)"),
    ("RandomState", "a seeded RNG from rfkit_opt"),
    (
        "Instant",
        "seed-driven logic; wall time is not reproducible",
    ),
    (
        "SystemTime",
        "seed-driven logic; wall time is not reproducible",
    ),
];

/// Runs the lint over one file.
pub fn check(file: &SourceFile, out: &mut Vec<Finding>) {
    if !NUMERIC_CRATES.contains(&file.crate_name.as_str()) {
        return;
    }
    if !matches!(file.kind, FileKind::Lib | FileKind::Bin) {
        return;
    }
    for t in file.toks.iter().filter(|t| !t.is_comment()) {
        if t.kind != TokKind::Ident || file.in_test_region(t.line) {
            continue;
        }
        if let Some((name, instead)) = BANNED.iter().find(|(n, _)| t.text == *n) {
            out.push(Finding {
                lint: NAME,
                severity: Severity::Warning,
                file: file.rel.clone(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{name}` in a numeric crate breaks run-to-run determinism; use {instead}"
                ),
                suppressed: false,
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
    fn flags_hashmap_in_numeric_crate() {
        let src = "use std::collections::HashMap;\npub fn f() { let _m: HashMap<u32, u32> = HashMap::new(); }\n";
        let hits = run("crates/circuit/src/netlist.rs", src);
        assert_eq!(hits.len(), 3);
        assert!(hits[0].message.contains("BTreeMap"));
    }

    #[test]
    fn flags_wall_clock_types() {
        let src = "pub fn f() { let _t = std::time::Instant::now(); }";
        let hits = run("crates/opt/src/de.rs", src);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("wall time"));
    }

    #[test]
    fn quiet_outside_numeric_crates_and_in_tests() {
        let src =
            "use std::collections::HashMap;\npub fn f() -> HashMap<u32, u32> { HashMap::new() }\n";
        assert!(run("crates/bench/src/lib.rs", src).is_empty());
        assert!(run("crates/par/src/lib.rs", src).is_empty());
        assert!(run("crates/circuit/tests/t.rs", src).is_empty());
        let in_test_mod = "\
#[cfg(test)]
mod tests {
    use std::collections::HashSet;
    #[test]
    fn t() { let _s: HashSet<u32> = HashSet::new(); }
}
";
        assert!(run("crates/num/src/lib.rs", in_test_mod).is_empty());
    }

    #[test]
    fn quiet_on_btreemap() {
        let src = "use std::collections::BTreeMap;\npub fn f() -> BTreeMap<u32, u32> { BTreeMap::new() }\n";
        assert!(run("crates/circuit/src/netlist.rs", src).is_empty());
    }
}
