//! `unseeded-rng-flow`: an in-tree RNG constructed without a literal
//! or propagated seed. Bit-for-bit reproducibility (PR 1/4) depends on
//! every random stream being derived from an explicit seed: a literal,
//! a config field, or a fork of an already-seeded generator. An RNG
//! built from anything else (a hash, an address, a counter that varies
//! by thread schedule) silently breaks determinism where it is hardest
//! to debug — optimizer state that only diverges across runs.
//!
//! Flagged: `Rng64::new(…)` / `SplitMix64::new(…)` call sites whose
//! arguments contain neither a literal nor a seed-carrying identifier
//! (`seed`, `rng`, `fork`, `cfg`, `config`, `stream`). One def-use hop
//! is honored: `let s = cfg.seed; let r = Rng64::new(s)` is fine
//! because `s` was initialized from a seed-ish source.
//!
//! Contract: determinism. Every random stream derives from an explicit
//! seed.

use crate::dataflow::{CallKind, FnAnalysis};
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};

/// Lint name.
pub const NAME: &str = "unseeded-rng-flow";
/// One-line description.
pub const DESCRIPTION: &str = "RNG constructed without a literal or propagated seed (warning)";

/// In-tree RNG constructor paths (matched on trailing segments).
const RNG_CTORS: [&str; 2] = ["Rng64::new", "SplitMix64::new"];

fn seedish(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    ["seed", "rng", "fork", "cfg", "config", "stream", "entropy"]
        .iter()
        .any(|k| lower.contains(k))
}

fn is_rng_ctor(path: &str) -> bool {
    RNG_CTORS
        .iter()
        .any(|c| path == *c || path.ends_with(&format!("::{c}")))
}

/// True when `ident` was itself initialized from a seed-ish source in
/// this function (the one def-use hop).
fn ident_carries_seed(f: &FnAnalysis, ident: &str, before_line: u32) -> bool {
    f.defs.iter().any(|d| {
        d.name == ident
            && d.line <= before_line
            && (d.init_has_literal
                || d.init_idents.iter().any(|i| seedish(i))
                || seedish(&d.init_call))
    })
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
        for c in &f.calls {
            if c.kind != CallKind::Call || !is_rng_ctor(&c.name) || file.in_test_region(c.line) {
                continue;
            }
            let seeded = c.has_literal_arg
                || c.arg_idents.iter().any(|a| seedish(a))
                || c.arg_idents
                    .iter()
                    .any(|a| ident_carries_seed(f, a, c.line));
            if !seeded {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Warning,
                    file: file.rel.clone(),
                    line: c.line,
                    col: c.col,
                    message: format!(
                        "`{}` constructed without a literal or propagated seed in `{}`; \
                         derive the stream from an explicit seed (literal, config field, \
                         or fork of a seeded rng) to keep runs bit-identical",
                        c.name, f.name
                    ),
                    suppressed: false,
                });
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
    fn flags_unseeded_construction() {
        let src = "\
pub fn init(counter: u64) -> Rng64 {
    Rng64::new(counter)
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("Rng64::new"));
    }

    #[test]
    fn flags_splitmix_from_address_hash() {
        let src = "\
pub fn init(ptr_hash: u64) -> SplitMix64 {
    let base = ptr_hash ^ mask;
    SplitMix64::new(base)
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn quiet_with_literal_or_seed_ident() {
        assert!(run("pub fn f() -> Rng64 { Rng64::new(42) }\n").is_empty());
        assert!(run("pub fn f(seed: u64) -> Rng64 { Rng64::new(seed) }\n").is_empty());
        assert!(run("pub fn f(cfg: &Cfg) -> Rng64 { Rng64::new(cfg.seed_base) }\n").is_empty());
        // Mixing in an offset keeps the literal visible.
        assert!(run("pub fn f(k: u64) -> Rng64 { Rng64::new(k ^ 0x9e37) }\n").is_empty());
    }

    #[test]
    fn one_hop_seed_propagation_is_honored() {
        let src = "\
pub fn f(cfg: &Cfg) -> Rng64 {
    let base = cfg.seed_base + 1;
    Rng64::new(base)
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn quiet_in_tests_and_non_rng_news() {
        assert!(run("pub fn f() -> Vec<f64> { Vec::new() }\n").is_empty());
        let test = "\
#[cfg(test)]
mod tests {
    fn t(x: u64) { let r = Rng64::new(x); }
}
";
        assert!(run(test).is_empty());
    }
}
