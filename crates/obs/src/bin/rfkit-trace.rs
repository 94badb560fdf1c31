//! Summarize, render and diff rfkit-obs aggregate profiles.
//!
//! ```text
//! rfkit-trace [--json] [--top N] [--expect NAME]...
//!             [--expect-max NAME:N]... [--expect-min NAME:N]... <profile.json>
//! rfkit-trace tree  [--top N] <profile.json>
//! rfkit-trace flame <profile.json>
//! rfkit-trace diff  [--rel-tol X] [--min-self-us N] <baseline.json> <current.json>
//! ```
//!
//! The default mode summarizes a `PROFILE_*.json` and prints top spans
//! by self-time, counter totals, histogram percentiles and a
//! convergence table; `--json` emits the same aggregates as one JSON
//! object. A file that is not a profile exits 2.
//!
//! Assertions (all exit 1 on failure; CI builds on them):
//!
//! * `--expect NAME` — a span, counter or histogram with that name is
//!   present. Proves an armed run actually traced the pipeline.
//! * `--expect-max NAME:N` — counter `NAME` totals at most `N`; an
//!   absent counter counts as 0 and passes. Bounds rates, e.g. pivot
//!   refactors per sweep.
//! * `--expect-min NAME:N` — counter `NAME` totals at least `N`; an
//!   absent counter counts as 0 and fails for `N > 0`. Proves work
//!   actually happened (a cache that never hit, a sweep that never
//!   swept — both pass a `--expect` presence check on another name
//!   while silently doing nothing).
//!
//! Profile views:
//!
//! * `tree` — indented call-path profile with count/self/total/self%
//!   columns, parents above children.
//! * `flame` — folded flamegraph stacks (`path self_us` per line),
//!   pipe into any folded-stack consumer.
//! * `diff` — compare two profiles path-by-path on self time. A path
//!   regresses when `current > baseline * rel-tol` (default 1.5) and
//!   its self time is at least `min-self-us` (default 1000) on one
//!   side; exits 1 when any path regressed, so CI can gate on it.

use std::path::PathBuf;
use std::process::ExitCode;

use rfkit_obs::{profile, summary};

fn usage(err: &str) -> ExitCode {
    eprintln!("rfkit-trace: {err}");
    eprintln!(
        "usage: rfkit-trace [--json] [--top N] [--expect NAME]... \
         [--expect-max NAME:N]... [--expect-min NAME:N]... <profile.json>\n\
         \x20      rfkit-trace tree  [--top N] <profile.json>\n\
         \x20      rfkit-trace flame <profile.json>\n\
         \x20      rfkit-trace diff  [--rel-tol X] [--min-self-us N] <baseline.json> <current.json>"
    );
    ExitCode::from(2)
}

fn read_profile(path: &PathBuf) -> Result<profile::Profile, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("rfkit-trace: cannot read {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    profile::parse(&text).map_err(|e| {
        eprintln!("rfkit-trace: {}: {e}", path.display());
        ExitCode::from(2)
    })
}

fn parse_bound(flag: &str, v: &str) -> Result<(String, u64), String> {
    let Some((name, limit)) = v.rsplit_once(':') else {
        return Err(format!("{flag} `{v}` is not NAME:N"));
    };
    let Ok(limit) = limit.parse::<u64>() else {
        return Err(format!("{flag} `{v}` needs an integer bound"));
    };
    Ok((name.to_string(), limit))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("tree") => cmd_tree(&args[1..]),
        Some("flame") => cmd_flame(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        _ => cmd_summarize(&args),
    }
}

fn cmd_tree(args: &[String]) -> ExitCode {
    let mut top = 100usize;
    let mut input: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return usage("--top needs a number"),
            },
            other if other.starts_with('-') => {
                return usage(&format!("unknown argument `{other}`"))
            }
            other => {
                if input.is_some() {
                    return usage("tree takes exactly one profile");
                }
                input = Some(PathBuf::from(other));
            }
        }
    }
    let Some(path) = input else {
        return usage("tree needs a profile file");
    };
    match read_profile(&path) {
        Ok(p) => {
            print!("{}", profile::render_tree(&p, top));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn cmd_flame(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage("flame takes exactly one profile");
    };
    match read_profile(&PathBuf::from(path)) {
        Ok(p) => {
            print!("{}", profile::render_flame(&p));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

fn cmd_diff(args: &[String]) -> ExitCode {
    let mut rel_tol = 1.5f64;
    let mut min_self_us = 1000u64;
    let mut inputs: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--rel-tol" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(x) if x > 1.0 => rel_tol = x,
                _ => return usage("--rel-tol needs a ratio > 1"),
            },
            "--min-self-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => min_self_us = n,
                None => return usage("--min-self-us needs a number"),
            },
            other if other.starts_with('-') => {
                return usage(&format!("unknown argument `{other}`"))
            }
            other => inputs.push(PathBuf::from(other)),
        }
    }
    let [base_path, cur_path] = inputs.as_slice() else {
        return usage("diff takes exactly <baseline.json> <current.json>");
    };
    let base = match read_profile(base_path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let cur = match read_profile(cur_path) {
        Ok(p) => p,
        Err(code) => return code,
    };
    let report = profile::diff(&base, &cur, rel_tol, min_self_us);
    print!("{}", profile::render_diff(&report, rel_tol, min_self_us));
    if report.regressed > 0 {
        eprintln!(
            "rfkit-trace: {} path(s) regressed beyond {rel_tol}x vs {}",
            report.regressed,
            base_path.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn cmd_summarize(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut top = 15usize;
    let mut expect: Vec<String> = Vec::new();
    let mut expect_max: Vec<(String, u64)> = Vec::new();
    let mut expect_min: Vec<(String, u64)> = Vec::new();
    let mut input: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--top" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => top = n,
                None => return usage("--top needs a number"),
            },
            "--expect" => match it.next() {
                Some(v) => expect.push(v.clone()),
                None => return usage("--expect needs a metric name"),
            },
            "--expect-max" => match it.next().map(|v| parse_bound("--expect-max", v)) {
                Some(Ok(pair)) => expect_max.push(pair),
                Some(Err(e)) => return usage(&e),
                None => return usage("--expect-max needs NAME:N"),
            },
            "--expect-min" => match it.next().map(|v| parse_bound("--expect-min", v)) {
                Some(Ok(pair)) => expect_min.push(pair),
                Some(Err(e)) => return usage(&e),
                None => return usage("--expect-min needs NAME:N"),
            },
            "--help" | "-h" => return usage("profile summarizer and differ"),
            other if other.starts_with('-') => {
                return usage(&format!("unknown argument `{other}`"))
            }
            other => {
                if input.is_some() {
                    return usage("exactly one profile expected");
                }
                input = Some(PathBuf::from(other));
            }
        }
    }
    let Some(path) = input else {
        return usage("missing profile file");
    };

    let s = match read_profile(&path) {
        Ok(p) => profile::to_summary(&p),
        Err(code) => return code,
    };
    if s.records == 0 {
        eprintln!(
            "rfkit-trace: {} contains no profile records",
            path.display()
        );
        return ExitCode::from(2);
    }

    if json {
        println!("{}", summary::render_json(&s));
    } else {
        print!("{}", summary::render_human(&s, top));
    }

    // An expectation is satisfied by any instrument kind: span, counter
    // or histogram. Bench and CI runs mix all three.
    let missing: Vec<&String> = expect
        .iter()
        .filter(|name| {
            !s.spans.iter().any(|a| &a.name == *name)
                && !s.counters.contains_key(*name)
                && !s.hists.contains_key(*name)
        })
        .collect();
    let mut failed = !missing.is_empty();
    for name in &missing {
        eprintln!("rfkit-trace: expected span/counter/hist `{name}` not found in profile");
    }
    // Bound checks: a counter that never fired totals 0, which passes
    // every --expect-max and fails any positive --expect-min.
    for (name, limit) in &expect_max {
        let total = s.counters.get(name).copied().unwrap_or(0);
        if total > *limit {
            eprintln!("rfkit-trace: counter `{name}` = {total} exceeds the bound {limit}");
            failed = true;
        }
    }
    for (name, floor) in &expect_min {
        let total = s.counters.get(name).copied().unwrap_or(0);
        if total < *floor {
            eprintln!("rfkit-trace: counter `{name}` = {total} is below the floor {floor}");
            failed = true;
        }
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
