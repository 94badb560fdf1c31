//! Cross-artifact contract checker: the `counter-name-drift` pass.
//!
//! The observability layer's names are load-bearing in four places at
//! once: the code that emits them (`rfkit_obs::Counter::new("…")`,
//! `span("…")`, …), the CI assertions that gate on them
//! (`rfkit-trace --expect NAME` in `ci.sh`), the recorded
//! `PROFILE_*.json` aggregate profiles under `results/`, and the
//! DESIGN.md telemetry name registry that documents them. Nothing ties
//! these together — a renamed counter silently turns a `--expect` into
//! a vacuous check and a dashboard into a flat line. This pass extracts
//! the emitted-name set from the AST (string-literal first arguments of
//! obs instrument constructors and emitters) and diffs it against all
//! three artifacts; unknown, orphaned, or misspelled names are errors,
//! and so is a recorded profile that does not parse or a registry row
//! whose "emitted at" `path:line` is not an emission site of its name.
//!
//! The pass runs only when the workspace has a `ci.sh` (the fake
//! workspaces built by engine tests don't, and have no contract to
//! check).
//!
//! Contract: observability. An instrument name means the same thing in
//! the code, the CI gates, the recorded profiles and the registry.

use crate::dataflow::CallKind;
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// Lint name (shares the suppression / registry namespace).
pub const NAME: &str = "counter-name-drift";
/// One-line description.
pub const DESCRIPTION: &str =
    "obs name out of sync between code, ci.sh --expect, recorded profiles, and DESIGN.md (error)";

/// One extracted emission site.
#[derive(Debug, Clone)]
pub struct Emission {
    /// Instrument name (the string literal).
    pub name: String,
    /// Emitting file (workspace-relative).
    pub file: String,
    /// 1-based line of the call.
    pub line: u32,
    /// `counter`, `hist`, `span`, or `event`.
    pub kind: &'static str,
}

/// Extracts every obs instrument name emitted by the workspace code.
/// Only string-literal names count (the in-tree convention); test
/// files, test regions, and the `analyze` crate (whose sources are
/// full of fixture name literals) are excluded. The `obs` crate itself
/// IS included: it emits real telemetry about the telemetry
/// (`obs.selftime.clamped`, `profile.flush`) that must stay in the
/// registry like any other name.
pub fn emitted_names(files: &[SourceFile]) -> Vec<Emission> {
    let mut out = Vec::new();
    for file in files {
        if file.kind == FileKind::Test || file.crate_name == "analyze" {
            continue;
        }
        for f in &file.fns {
            for c in &f.calls {
                if c.kind != CallKind::Call {
                    continue;
                }
                let kind = if c.name.ends_with("Counter::new") {
                    "counter"
                } else if c.name.ends_with("Hist::new") {
                    "hist"
                } else if c.name == "span" || c.name.ends_with("::span") {
                    "span"
                } else if c.name == "event" || c.name.ends_with("::event") {
                    "event"
                } else {
                    continue;
                };
                if file.in_test_region(c.line) {
                    continue;
                }
                if let Some(Some(name)) = c.str_args.first() {
                    out.push(Emission {
                        name: name.clone(),
                        file: file.rel.clone(),
                        line: c.line,
                        kind,
                    });
                }
            }
        }
        // `static OBS_X: Counter = Counter::new("…")` sits in item
        // position, outside any fn body — extract from static
        // initializers too.
        crate::parser::for_each_static(&file.ast.items, &mut |item| {
            let Some(init) = &item.init else { return };
            crate::dataflow::visit(init, &mut |e| {
                if let crate::parser::ExprKind::Call { callee, args } = &e.kind {
                    let path = crate::parser::callee_path(callee);
                    let kind = if path.ends_with("Counter::new") {
                        "counter"
                    } else if path.ends_with("Hist::new") {
                        "hist"
                    } else {
                        return;
                    };
                    if let Some(first) = args.first() {
                        if let crate::parser::ExprKind::Lit(crate::tokenizer::TokKind::Str, t) =
                            &first.kind
                        {
                            out.push(Emission {
                                name: crate::dataflow::unquote(t),
                                file: file.rel.clone(),
                                line: e.span.line,
                                kind,
                            });
                        }
                    }
                }
            });
        });
    }
    out
}

/// `--expect NAME` / `--expect-max NAME:N` / `--expect-min NAME:N`
/// assertions in ci.sh text, with 1-based line numbers.
pub fn ci_expectations(text: &str) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        // Shell comments (including commented-out assertions and prose
        // that mentions the flags) are not active expectations.
        if line.trim_start().starts_with('#') {
            continue;
        }
        let mut rest = line;
        while let Some(pos) = rest.find("--expect") {
            rest = &rest[pos + "--expect".len()..];
            // `--expect-max NAME:N` / `--expect-min NAME:N` → strip the
            // bound suffix so only the name remains.
            rest = rest
                .strip_prefix("-max")
                .or_else(|| rest.strip_prefix("-min"))
                .unwrap_or(rest);
            let arg: String = rest
                .trim_start()
                .chars()
                .take_while(|c| !c.is_whitespace())
                .collect();
            if arg.is_empty() || arg.starts_with("--") {
                continue;
            }
            // `NAME:N` bound syntax → the name is before the colon.
            let name = arg.split(':').next().unwrap_or(&arg);
            if !name.is_empty() {
                out.push((name.to_string(), (i + 1) as u32));
            }
        }
    }
    out
}

/// One row of the DESIGN.md telemetry name registry.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistryRow {
    /// Instrument name (first backticked token of the row).
    pub name: String,
    /// 1-based line of the row in DESIGN.md.
    pub line: u32,
    /// The "emitted at" column as `(file, line)`, when it parses as a
    /// backticked `path:line`.
    pub at: Option<(String, u32)>,
}

/// Rows of the DESIGN.md "Telemetry name registry" table: the first
/// backticked token of each table row after the registry heading, until
/// the next heading, with the row's third column read as the emission
/// site.
pub fn registry_rows(design_md: &str) -> Vec<RegistryRow> {
    let mut out = Vec::new();
    let mut in_section = false;
    for (i, line) in design_md.lines().enumerate() {
        if line.starts_with('#') {
            in_section = line
                .to_ascii_lowercase()
                .contains("telemetry name registry");
            continue;
        }
        if !in_section || !line.trim_start().starts_with('|') {
            continue;
        }
        // `| `name` | kind | `path:line` |` — take the first backticked
        // token as the name.
        let Some(name) = line.split('`').nth(1).map(str::trim) else {
            continue;
        };
        if name.is_empty() || name.contains(' ') || !name.contains('.') {
            continue;
        }
        let at = line.split('|').nth(3).and_then(|cell| {
            let (file, line) = cell.trim().trim_matches('`').rsplit_once(':')?;
            Some((file.to_string(), line.parse().ok()?))
        });
        out.push(RegistryRow {
            name: name.to_string(),
            line: (i + 1) as u32,
            at,
        });
    }
    out
}

fn finding(file: &str, line: u32, message: String) -> Finding {
    Finding {
        lint: NAME,
        severity: Severity::Error,
        file: file.to_string(),
        line,
        col: 1,
        message,
        suppressed: false,
    }
}

/// Runs the full cross-artifact check. Returns no findings when the
/// workspace has no `ci.sh` (nothing to contract against).
pub fn check(root: &Path, files: &[SourceFile]) -> Vec<Finding> {
    let ci_path = root.join("ci.sh");
    let Ok(ci_text) = fs::read_to_string(&ci_path) else {
        return Vec::new();
    };
    let emissions = emitted_names(files);
    let emitted: BTreeSet<&str> = emissions.iter().map(|e| e.name.as_str()).collect();
    let mut out = Vec::new();

    // 1. Every ci.sh --expect name must be emitted somewhere.
    for (name, line) in ci_expectations(&ci_text) {
        if !emitted.contains(name.as_str()) {
            out.push(finding(
                "ci.sh",
                line,
                format!(
                    "ci.sh expects obs name `{name}` but no code emits it; the assertion \
                     is vacuous (renamed or removed instrument?)"
                ),
            ));
        }
    }

    // 2. Every recorded profile name must still be emitted by the code,
    //    and every recorded profile must parse: an unreadable one would
    //    otherwise drop out of this check silently.
    let results = root.join("results");
    if let Ok(entries) = fs::read_dir(&results) {
        let mut recorded: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("PROFILE_") && n.ends_with(".json"))
            })
            .collect();
        recorded.sort();
        for artifact in recorded {
            let rel = format!(
                "results/{}",
                artifact.file_name().unwrap_or_default().to_string_lossy()
            );
            let names = match rfkit_obs::registry::profile_names(&artifact) {
                Ok(names) => names,
                Err(e) => {
                    out.push(finding(
                        &rel,
                        1,
                        format!(
                            "recorded profile cannot be read ({e}); its names are unchecked \
                             — regenerate via ci.sh"
                        ),
                    ));
                    continue;
                }
            };
            for name in names {
                if !emitted.contains(name.as_str()) {
                    out.push(finding(
                        &rel,
                        1,
                        format!(
                            "recorded profile names `{name}` but no code emits it; the profile \
                             is stale or the instrument was renamed — regenerate via ci.sh"
                        ),
                    ));
                }
            }
        }
    }

    // 3/4/5. DESIGN.md registry ⊇ emitted, emitted ⊇ registry, and each
    //        row's "emitted at" column is an emission site of its name.
    if let Ok(design) = fs::read_to_string(root.join("DESIGN.md")) {
        let registry = registry_rows(&design);
        // A registry that parses to nothing while the code emits names
        // means the table (or its heading) broke — the registry half of
        // the contract would silently go vacuous. Fail loudly instead.
        if registry.is_empty() && !emissions.is_empty() {
            out.push(finding(
                "DESIGN.md",
                1,
                "no parseable telemetry name registry found (need a `### Telemetry name \
                 registry` heading followed by `| `name` | … |` table rows); the \
                 registry half of the name contract is vacuous"
                    .to_string(),
            ));
        }
        let documented: BTreeSet<&str> = registry.iter().map(|r| r.name.as_str()).collect();
        let sites: BTreeSet<(&str, &str, u32)> = emissions
            .iter()
            .map(|e| (e.name.as_str(), e.file.as_str(), e.line))
            .collect();
        for row in &registry {
            let name = row.name.as_str();
            if !emitted.contains(name) {
                out.push(finding(
                    "DESIGN.md",
                    row.line,
                    format!(
                        "telemetry registry documents `{name}` but no code emits it; \
                         remove the row or restore the instrument"
                    ),
                ));
                continue;
            }
            let listed = row
                .at
                .as_ref()
                .is_some_and(|(file, line)| sites.contains(&(name, file.as_str(), *line)));
            if !listed {
                let at = row
                    .at
                    .as_ref()
                    .map_or("a cell without a `path:line`".to_string(), |(f, l)| {
                        format!("`{f}:{l}`")
                    });
                out.push(finding(
                    "DESIGN.md",
                    row.line,
                    format!(
                        "telemetry registry says `{name}` is emitted at {at}, which is not an \
                         emission site of it; regenerate the table with \
                         `rfkit-analyze --dump-obs-names`"
                    ),
                ));
            }
        }
        if !documented.is_empty() {
            let mut seen = BTreeSet::new();
            for e in &emissions {
                if !documented.contains(e.name.as_str()) && seen.insert(e.name.as_str()) {
                    out.push(finding(
                        &e.file,
                        e.line,
                        format!(
                            "obs name `{}` is emitted here but missing from the DESIGN.md \
                             telemetry name registry; document it (name, kind, what it \
                             measures)",
                            e.name
                        ),
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extracts_emissions_from_fns_and_statics() {
        let src = "\
static OBS_HITS: Counter = Counter::new(\"plan.cache.hit\");
static OBS_ITERS: rfkit_obs::Hist = rfkit_obs::Hist::new(\"circuit.dc.iters\");
pub fn run() {
    let _s = rfkit_obs::span(\"design.total\");
    rfkit_obs::event(\"opt.de.gen\", &[(\"gen\", 1.0)]);
}
";
        let f = SourceFile::parse("crates/core/src/lib.rs", src);
        let em = emitted_names(&[f]);
        let names: Vec<&str> = em.iter().map(|e| e.name.as_str()).collect();
        assert!(names.contains(&"plan.cache.hit"), "{names:?}");
        assert!(names.contains(&"circuit.dc.iters"));
        assert!(names.contains(&"design.total"));
        assert!(names.contains(&"opt.de.gen"));
        let span = em.iter().find(|e| e.name == "design.total").unwrap();
        assert_eq!(span.kind, "span");
        assert_eq!(span.line, 4);
    }

    #[test]
    fn excludes_tests_and_tooling_crates() {
        let src = "pub fn f() { rfkit_obs::span(\"x.y\"); }\n";
        // The analyzer's own sources are fixture-heavy and excluded; the
        // obs crate emits real self-telemetry and is NOT excluded.
        assert!(emitted_names(&[SourceFile::parse("crates/analyze/src/lint.rs", src)]).is_empty());
        assert_eq!(
            emitted_names(&[SourceFile::parse("crates/obs/src/lib.rs", src)]).len(),
            1
        );
        assert!(emitted_names(&[SourceFile::parse("crates/core/tests/t.rs", src)]).is_empty());
        let in_test_mod = "\
#[cfg(test)]
mod tests {
    fn t() { rfkit_obs::span(\"x.y\"); }
}
";
        assert!(
            emitted_names(&[SourceFile::parse("crates/core/src/lib.rs", in_test_mod)]).is_empty()
        );
    }

    #[test]
    fn parses_ci_expectations() {
        let ci = "\
# comments don't count: --expect ghost.name and --expect-min floors
cargo run -p rfkit-obs --bin rfkit-trace -- --json \\
  --expect dc.retry.attempts --expect dc.fallback.stage \\
  --expect-max serve.requests.rejected:0 \\
  --expect-min plan.cache.hit:40 \\
  results/PROFILE_faults.json
";
        let exp = ci_expectations(ci);
        let names: Vec<&str> = exp.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "dc.retry.attempts",
                "dc.fallback.stage",
                "serve.requests.rejected",
                "plan.cache.hit"
            ]
        );
        assert_eq!(exp[0].1, 3);
    }

    #[test]
    fn parses_registry_table_rows() {
        let md = "\
## Observability

### Telemetry name registry

| name | kind | measures |
|---|---|---|
| `plan.cache.hit` | counter | `crates/circuit/src/sweep.rs:38` |
| `design.total` | span | whole design run |

### Next section

| `not.this.one` | counter | outside the registry |
";
        let rows = registry_rows(md);
        let got: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(got, ["plan.cache.hit", "design.total"]);
        assert_eq!(
            rows[0].at,
            Some(("crates/circuit/src/sweep.rs".to_string(), 38))
        );
        assert_eq!(rows[1].at, None);
    }

    #[test]
    fn registry_row_with_a_stale_emission_site_is_a_finding() {
        let root = std::env::temp_dir().join(format!("rfkit_contract_site_{}", std::process::id()));
        fs::create_dir_all(&root).expect("mkdir");
        fs::write(root.join("ci.sh"), "").expect("write ci.sh");
        fs::write(
            root.join("DESIGN.md"),
            "\
### Telemetry name registry

| name | kind | emitted at |
|---|---|---|
| `design.total` | span | `crates/core/src/lib.rs:2` |
| `plan.cache.hit` | counter | `crates/core/src/lib.rs:9` |
",
        )
        .expect("write DESIGN.md");
        let src = "\
static OBS_HITS: Counter = Counter::new(\"plan.cache.hit\");
pub fn run() {
    let _s = rfkit_obs::span(\"design.total\");
}
";
        let files = [SourceFile::parse("crates/core/src/lib.rs", src)];
        let findings = check(&root, &files);
        let _ = fs::remove_dir_all(&root);
        // `design.total` is emitted at line 3, not 2; `plan.cache.hit` at
        // line 1, not 9.
        let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [5, 6], "{findings:?}");
        assert!(findings
            .iter()
            .all(|f| f.file == "DESIGN.md" && f.lint == NAME));
        assert!(
            findings[0].message.contains("`crates/core/src/lib.rs:2`"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn truncated_profile_is_a_finding_naming_the_file() {
        let root =
            std::env::temp_dir().join(format!("rfkit_contract_trunc_{}", std::process::id()));
        fs::create_dir_all(root.join("results")).expect("mkdir");
        fs::write(root.join("ci.sh"), "").expect("write ci.sh");
        fs::write(
            root.join("results/PROFILE_cut.json"),
            "{\"kind\":\"rfkit-profile\",\"version\":1,\"nodes\":[",
        )
        .expect("write profile");
        let findings = check(&root, &[]);
        let _ = fs::remove_dir_all(&root);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].file, "results/PROFILE_cut.json");
        assert_eq!(findings[0].lint, NAME);
    }
}
