//! `surrogate-leak`: a surrogate-predicted value flowing into a result
//! artifact. The surrogate layer's load-bearing guarantee is
//! *prune-never-propagate*: model predictions may only veto a true
//! evaluation, never stand in for one. Every objective vector that
//! reaches a Pareto front, a report, or a design-cache entry must come
//! from a real band evaluation — a predicted value smuggled into any of
//! those corrupts recorded results in a way no downstream check can
//! detect (the numbers look plausible by construction).
//!
//! Flagged: an identifier initialized (directly or through a def-use
//! chain) from a surrogate prediction call (`predict`, `predict_into`),
//! or passed as the output argument of the out-parameter prediction
//! (`predict_into`), that then appears as an argument to a
//! store-like sink — `push`/`insert`/`extend`/`store` on a
//! front/population/cache/report-ish receiver, a `report`/`write`-named
//! call, or a screen's own `observe`/`seed_training` (feeding
//! predictions back into training silently compounds model error).
//! Comparisons and domination checks are exactly what predictions are
//! *for* and stay quiet.
//!
//! Contract: prune-never-propagate. Surrogate predictions can prune
//! evaluations but never reach a result.

use crate::dataflow::{CallKind, FnAnalysis};
use crate::report::{Finding, Severity};
use crate::source::{FileKind, SourceFile};
use std::collections::BTreeSet;

/// Lint name.
pub const NAME: &str = "surrogate-leak";
/// One-line description.
pub const DESCRIPTION: &str =
    "surrogate-predicted value stored into a front, report, cache, or training set (error)";

/// Prediction call names whose results are tainted.
const PREDICT_FNS: [&str; 2] = ["predict", "predict_into"];

/// Prediction calls that write their predictions into their last
/// argument.
const OUT_PARAM_FNS: [&str; 1] = ["predict_into"];

/// Store-like method names that count as sinks on result-ish receivers.
const STORE_METHODS: [&str; 4] = ["push", "insert", "extend", "store"];

/// Receiver roots (lowercased, substring match) that hold results.
const RESULT_RECEIVERS: [&str; 7] = [
    "front",
    "pareto",
    "cache",
    "report",
    "archive",
    "population",
    "pop",
];

/// Sinks that feed a model's own training set.
const TRAIN_METHODS: [&str; 2] = ["observe", "seed_training"];

fn is_call_to(names: &[&str], name: &str) -> bool {
    names
        .iter()
        .any(|p| name == *p || name.ends_with(&format!("::{p}")))
}

fn is_predict_call(name: &str) -> bool {
    is_call_to(&PREDICT_FNS, name)
}

fn resultish(recv: &str) -> bool {
    let lower = recv.to_ascii_lowercase();
    RESULT_RECEIVERS.iter().any(|r| lower.contains(r))
}

/// Closure of identifiers carrying a predicted value: seeded by defs
/// initialized from a prediction call and by the output arguments of
/// out-parameter predictions, propagated through defs whose initializer
/// mentions an already-tainted name.
fn tainted_idents(f: &FnAnalysis) -> BTreeSet<&str> {
    // A prediction may be post-processed in the same initializer
    // (`model.predict(x).to_vec()` trails in `to_vec`), so any
    // mention of a prediction call in the initializer taints the
    // binding, not just the trailing call.
    let mut tainted: BTreeSet<&str> = f
        .defs
        .iter()
        .filter(|d| {
            is_predict_call(&d.init_call) || d.init_idents.iter().any(|i| is_predict_call(i))
        })
        .map(|d| d.name.as_str())
        .collect();
    // `model.predict_into(x, &mut mu)` fills `mu` whatever `mu` was
    // initialized from.
    tainted.extend(
        f.calls
            .iter()
            .filter(|c| is_call_to(&OUT_PARAM_FNS, &c.name))
            .flat_map(|c| c.last_arg_idents.iter().map(String::as_str)),
    );
    loop {
        let before = tainted.len();
        for d in &f.defs {
            if !tainted.contains(d.name.as_str())
                && d.init_idents.iter().any(|i| tainted.contains(i.as_str()))
            {
                tainted.insert(d.name.as_str());
            }
        }
        if tainted.len() == before {
            break;
        }
    }
    tainted
}

/// What kind of sink a call is, if any.
fn sink_kind(name: &str, kind: CallKind, recv_root: &str) -> Option<&'static str> {
    let lower = name.to_ascii_lowercase();
    if kind == CallKind::Method && TRAIN_METHODS.contains(&lower.as_str()) {
        return Some("the surrogate training set");
    }
    if kind == CallKind::Method && STORE_METHODS.contains(&lower.as_str()) && resultish(recv_root) {
        return Some("a result container");
    }
    if lower.contains("report") || lower.contains("write") {
        return Some("a report/artifact writer");
    }
    None
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
        let tainted = tainted_idents(f);
        if tainted.is_empty() {
            continue;
        }
        for c in &f.calls {
            if file.in_test_region(c.line) {
                continue;
            }
            let Some(sink) = sink_kind(&c.name, c.kind, &c.recv_root) else {
                continue;
            };
            if let Some(arg) = c.arg_idents.iter().find(|a| tainted.contains(a.as_str())) {
                out.push(Finding {
                    lint: NAME,
                    severity: Severity::Error,
                    file: file.rel.clone(),
                    line: c.line,
                    col: c.col,
                    message: format!(
                        "surrogate-predicted value `{arg}` flows into {sink} via `{}` in \
                         `{}`; predictions may only prune evaluations — store the \
                         true-evaluated objectives instead (prune-never-propagate)",
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
    fn flags_prediction_pushed_into_front() {
        let src = "\
pub fn f(model: &ResponseSurface, x: &[f64], front: &mut Front) {
    let predicted = model.predict(x).to_vec();
    front.push(predicted);
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("predicted"));
        assert!(hits[0].message.contains("prune-never-propagate"));
    }

    #[test]
    fn flags_out_parameter_pushed_into_front() {
        let src = "\
pub fn f(model: &ResponseSurface, x: &[f64], front: &mut Front) {
    let mut mu = vec![0.0; 2];
    model.predict_into(x, &mut mu);
    front.push(mu);
}
";
        let hits = run(src);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("`mu`"));
        let chained = "\
pub fn f(screen: &SurrogateScreen, x: &[f64], cache: &mut Map, key: u64) {
    let mut pred = [0.0];
    screen.predict_into(x, &mut pred);
    let best = pred[0];
    cache.insert(key, best);
}
";
        assert_eq!(run(chained).len(), 1);
    }

    #[test]
    fn quiet_for_the_input_argument_of_predict_into() {
        let src = "\
pub fn f(model: &ResponseSurface, x: Vec<f64>, front: &mut Front) {
    let mut mu = vec![0.0; 2];
    model.predict_into(&x, &mut mu);
    front.push(x);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn flags_chained_flow_into_cache_insert() {
        let src = "\
pub fn f(model: &ResponseSurface, cache: &mut Map, key: u64, x: &[f64]) {
    let mu = model.predict(x);
    let value = mu.clone();
    cache.insert(key, value);
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn flags_prediction_fed_back_into_training() {
        let src = "\
pub fn f(model: &ResponseSurface, screen: &mut SurrogateScreen, x: &[f64]) {
    let guess = model.predict(x);
    screen.observe(x, &guess);
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn flags_prediction_in_report_writer() {
        let src = "\
pub fn f(model: &ResponseSurface, x: &[f64]) -> String {
    let nf = model.predict(x);
    write_report(&nf)
}
";
        assert_eq!(run(src).len(), 1);
    }

    #[test]
    fn quiet_when_predictions_only_compare() {
        let src = "\
pub fn f(model: &ResponseSurface, x: &[f64], incumbent: &[f64]) -> bool {
    let mu = model.predict(x);
    dominates(incumbent, &mu)
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn quiet_for_true_values_and_tests() {
        let src = "\
pub fn f(front: &mut Front, objs: Vec<f64>) {
    front.push(objs);
}
";
        assert!(run(src).is_empty());
        let test = "\
#[cfg(test)]
mod tests {
    fn t(model: &ResponseSurface, front: &mut Front, x: &[f64]) {
        let p = model.predict(x);
        front.push(p);
    }
}
";
        assert!(run(test).is_empty());
    }

    #[test]
    fn quiet_for_unrelated_push_on_plain_vec() {
        let src = "\
pub fn f(model: &ResponseSurface, x: &[f64]) -> Vec<f64> {
    let mu = model.predict(x);
    let mut scratch = Vec::new();
    scratch.push(1.0);
    mu
}
";
        assert!(run(src).is_empty());
    }
}
