//! The aggregate profile: its one writer, its one reader, and the views
//! built on them.
//!
//! An armed run's flush ([`crate::agg`]) builds a [`Profile`] — a
//! call-path tree plus counter/histogram/event snapshots — and writes
//! it with [`render_profile_json`]; [`parse`] reads a `PROFILE_*.json`
//! back, and re-serializing what it returns reproduces the file byte
//! for byte. `rfkit-trace` renders a profile as an indented call-path
//! profile ([`render_tree`]), folded flamegraph stacks
//! ([`render_flame`] — one `path self_us` line per call path, directly
//! consumable by flamegraph tooling), or the by-name summary
//! ([`render_summary`]) whose names the `--expect*` assertions check.
//! [`diff`] compares two profiles path-by-path with noise-aware
//! thresholds and backs the CI perf-regression gate.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use crate::json::{self, Json, JsonObj};

/// One call-path node of a parsed profile.
#[derive(Debug, Clone)]
pub struct ProfNode {
    /// Full `;`-joined call path (root first).
    pub path: String,
    /// Leaf span name (last path segment).
    pub name: String,
    /// Spans closed at this path.
    pub count: u64,
    /// Total wall microseconds across all calls.
    pub total_us: u64,
    /// Self microseconds (total minus child spans).
    pub self_us: u64,
    /// Longest single call in microseconds.
    pub max_us: u64,
    /// Median single-call duration (sketch estimate).
    pub p50_us: f64,
    /// 95th-percentile single-call duration (sketch estimate).
    pub p95_us: f64,
}

/// One histogram snapshot of a parsed profile.
#[derive(Debug, Clone, Default)]
pub struct ProfHist {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// Median (sketch estimate, computed at flush time).
    pub p50: f64,
    /// 90th percentile (sketch estimate).
    pub p90: f64,
    /// 99th percentile (sketch estimate).
    pub p99: f64,
}

/// A named event series (e.g. `opt.de.gen`), keeping the first and
/// last numeric field sets so convergence start -> end is visible
/// without storing every point.
#[derive(Debug, Clone)]
pub struct SeriesAgg {
    /// Event name.
    pub name: String,
    /// Number of events observed.
    pub points: u64,
    /// Numeric fields of the first event.
    pub first: BTreeMap<String, f64>,
    /// Numeric fields of the last event.
    pub last: BTreeMap<String, f64>,
}

/// A parsed aggregate profile.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// `meta` fields (pid, threads_env, wall_us) as strings.
    pub meta: BTreeMap<String, String>,
    /// Call-path nodes, sorted by path.
    pub nodes: Vec<ProfNode>,
    /// Counter name -> value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name -> snapshot.
    pub hists: BTreeMap<String, ProfHist>,
    /// Event first/last summaries.
    pub events: Vec<SeriesAgg>,
}

fn num_of(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

fn fields_of(v: &Json, key: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    if let Some(Json::Obj(m)) = v.get(key) {
        for (k, field) in m {
            if let Some(x) = field.as_f64() {
                out.insert(k.clone(), x);
            }
        }
    }
    out
}

/// Parse a profile document. Rejects non-profile JSON with a message
/// naming the expected `kind`, so feeding an event stream or any other
/// document here fails loudly instead of producing an empty profile.
/// Keys the writer no longer emits (a histogram's old `buckets`) are
/// ignored.
pub fn parse(text: &str) -> Result<Profile, String> {
    let v = json::parse(text)?;
    if v.get("kind").and_then(Json::as_str) != Some("rfkit-profile") {
        return Err("not an aggregate profile (kind != rfkit-profile)".to_string());
    }
    let mut p = Profile::default();
    if let Some(Json::Obj(m)) = v.get("meta") {
        for (k, field) in m {
            let text = match field {
                Json::Str(s) => s.clone(),
                Json::Num(n) => json::fmt_f64(*n),
                other => format!("{other:?}"),
            };
            p.meta.insert(k.clone(), text);
        }
    }
    for node in v.get("nodes").and_then(Json::as_arr).unwrap_or_default() {
        let path = node
            .get("path")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        let name = node
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_else(|| path.rsplit(';').next().unwrap_or_default())
            .to_string();
        p.nodes.push(ProfNode {
            path,
            name,
            count: num_of(node, "count") as u64,
            total_us: num_of(node, "total_us") as u64,
            self_us: num_of(node, "self_us") as u64,
            max_us: num_of(node, "max_us") as u64,
            p50_us: num_of(node, "p50_us"),
            p95_us: num_of(node, "p95_us"),
        });
    }
    p.nodes.sort_by(|a, b| a.path.cmp(&b.path));
    if let Some(Json::Obj(m)) = v.get("counters") {
        for (k, field) in m {
            if let Some(x) = field.as_f64() {
                p.counters.insert(k.clone(), x as u64);
            }
        }
    }
    for h in v.get("hists").and_then(Json::as_arr).unwrap_or_default() {
        let name = h
            .get("name")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string();
        p.hists.insert(
            name,
            ProfHist {
                count: num_of(h, "count") as u64,
                sum: num_of(h, "sum") as u64,
                p50: num_of(h, "p50"),
                p90: num_of(h, "p90"),
                p99: num_of(h, "p99"),
            },
        );
    }
    for e in v.get("events").and_then(Json::as_arr).unwrap_or_default() {
        p.events.push(SeriesAgg {
            name: e
                .get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
            points: num_of(e, "points") as u64,
            first: fields_of(e, "first"),
            last: fields_of(e, "last"),
        });
    }
    Ok(p)
}

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn depth_of(path: &str) -> usize {
    path.matches(';').count()
}

/// Render the indented call-path profile. Because nodes sort by path,
/// every parent precedes its children and siblings stay adjacent, so
/// plain indentation by depth reconstructs the tree. `top` caps the
/// number of printed rows (deepest-self rows are never elided before
/// shallower ones — rows print in tree order and the cap truncates the
/// tail, with a note saying how many were hidden).
pub fn render_tree(p: &Profile, top: usize) -> String {
    let wall: u64 = p
        .nodes
        .iter()
        .filter(|n| depth_of(&n.path) == 0)
        .map(|n| n.total_us)
        .sum();
    let mut out = String::new();
    out.push_str("call-path profile");
    if let Some(w) = p.meta.get("wall_us") {
        out.push_str(&format!(" (wall {w}us)"));
    }
    out.push('\n');
    out.push_str(&format!(
        "{:<44} {:>8} {:>10} {:>10} {:>6} {:>10}\n",
        "path", "count", "self", "total", "self%", "p95"
    ));
    for n in p.nodes.iter().take(top) {
        let depth = depth_of(&n.path);
        let label = format!("{}{}", "  ".repeat(depth), n.name);
        let pct = if wall > 0 {
            100.0 * n.self_us as f64 / wall as f64
        } else {
            0.0
        };
        out.push_str(&format!(
            "{:<44} {:>8} {:>10} {:>10} {:>5.1}% {:>10}\n",
            label,
            n.count,
            fmt_us(n.self_us),
            fmt_us(n.total_us),
            pct,
            fmt_us(n.p95_us as u64),
        ));
    }
    if p.nodes.len() > top {
        out.push_str(&format!(
            "  ... {} more paths (--top N)\n",
            p.nodes.len() - top
        ));
    }
    out
}

/// Render the by-name summary: the profile's meta, the top `top` span
/// names by self time (every call path of a name folded into one row),
/// counter totals, each histogram's mean and the file's own
/// p50/p90/p99, and the event series (optimizer convergence first ->
/// last, then the rest).
pub fn render_summary(p: &Profile, top: usize) -> String {
    let records = p.nodes.len() + p.counters.len() + p.hists.len() + p.events.len();
    let mut out = format!("profile: {records} records\n");
    for (k, v) in &p.meta {
        out.push_str(&format!("  {k}: {v}\n"));
    }

    // name -> (count, self, total, max), folded over call paths.
    let mut by_name: BTreeMap<&str, (u64, u64, u64, u64)> = BTreeMap::new();
    for n in &p.nodes {
        let row = by_name.entry(&n.name).or_default();
        row.0 += n.count;
        row.1 += n.self_us;
        row.2 += n.total_us;
        row.3 = row.3.max(n.max_us);
    }
    let mut spans: Vec<_> = by_name.into_iter().collect();
    spans.sort_by_key(|&(name, (_, self_us, _, _))| (Reverse(self_us), name));
    if !spans.is_empty() {
        out.push_str(&format!("\nTop spans by self time (of {}):\n", spans.len()));
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
            "name", "count", "self", "total", "max"
        ));
        for (name, (count, self_us, total_us, max_us)) in spans.iter().take(top) {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
                name,
                count,
                fmt_us(*self_us),
                fmt_us(*total_us),
                fmt_us(*max_us)
            ));
        }
    }

    if !p.counters.is_empty() {
        out.push_str("\nCounters:\n");
        for (name, value) in &p.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
    }

    if !p.hists.is_empty() {
        out.push_str("\nHistograms:\n");
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>8} {:>8} {:>8}\n",
            "name", "count", "mean", "p50", "p90", "p99"
        ));
        for (name, h) in &p.hists {
            let mean = if h.count == 0 {
                0.0
            } else {
                h.sum as f64 / h.count as f64
            };
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10.1} {:>8} {:>8} {:>8}\n",
                name,
                h.count,
                mean,
                json::fmt_f64(h.p50),
                json::fmt_f64(h.p90),
                json::fmt_f64(h.p99)
            ));
        }
    }

    let is_opt = |e: &&SeriesAgg| e.name.starts_with("opt.") || e.name.starts_with("design.");
    let (opt, other): (Vec<&SeriesAgg>, Vec<&SeriesAgg>) = p.events.iter().partition(is_opt);
    if !opt.is_empty() {
        out.push_str("\nConvergence (first -> last event):\n");
        for e in opt {
            out.push_str(&format!("  {} ({} events)\n", e.name, e.points));
            out.push_str(&format!("    first: {}\n", fields_line(&e.first)));
            if e.points > 1 {
                out.push_str(&format!("    last:  {}\n", fields_line(&e.last)));
            }
        }
    }
    if !other.is_empty() {
        out.push_str("\nOther events:\n");
        for e in other {
            out.push_str(&format!(
                "  {:<28} {:>7} events; last: {}\n",
                e.name,
                e.points,
                fields_line(&e.last)
            ));
        }
    }
    out
}

fn fields_line(fields: &BTreeMap<String, f64>) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render folded flamegraph stacks: one `path self_us` line per call
/// path, semicolon-separated frames, value = self time in
/// microseconds. Pipe into any folded-stack consumer
/// (e.g. `flamegraph.pl`, speedscope) to visualize.
pub fn render_flame(p: &Profile) -> String {
    let mut out = String::new();
    for n in &p.nodes {
        if n.self_us == 0 {
            continue;
        }
        out.push_str(&format!("{} {}\n", n.path, n.self_us));
    }
    out
}

/// How one call path moved between baseline and current.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffClass {
    /// Slower than the baseline beyond the tolerance (gate failure).
    Regressed,
    /// Faster than the baseline beyond the tolerance.
    Improved,
    /// Present only in the current profile (above the floor).
    New,
    /// Present only in the baseline (above the floor).
    Missing,
}

/// One classified row of a profile diff.
#[derive(Debug, Clone)]
pub struct DiffRow {
    /// Call path.
    pub path: String,
    /// Baseline self time in microseconds (0 for `New`).
    pub base_self_us: u64,
    /// Current self time in microseconds (0 for `Missing`).
    pub cur_self_us: u64,
    /// current/baseline self-time ratio (inf for `New`, 0 for
    /// `Missing`).
    pub ratio: f64,
    /// Classification.
    pub class: DiffClass,
}

/// Result of diffing two profiles.
#[derive(Debug, Clone, Default)]
pub struct DiffReport {
    /// Classified rows (unchanged paths are omitted), regressions
    /// first, then by descending current self time.
    pub rows: Vec<DiffRow>,
    /// Paths compared (present in both, either side above the floor).
    pub compared: usize,
    /// Count of [`DiffClass::Regressed`] rows.
    pub regressed: usize,
}

/// Compare two profiles path-by-path on self time with noise-aware
/// thresholds:
///
/// * `rel_tol` — the tolerated ratio (must be `> 1`). A path regresses
///   when `current > baseline * rel_tol`, improves when
///   `current < baseline / rel_tol`.
/// * `min_self_us` — the noise floor. Paths where *both* sides spend
///   less self time than this are ignored entirely: microsecond-scale
///   paths flap with scheduler jitter and would make the gate cry
///   wolf. `New`/`Missing` rows also only count above the floor.
///
/// The gate (exit status of `rfkit-trace diff`) fails only on
/// `Regressed` rows; new, missing and improved paths are reported but
/// never fail CI.
pub fn diff(base: &Profile, cur: &Profile, rel_tol: f64, min_self_us: u64) -> DiffReport {
    let bmap: BTreeMap<&str, u64> = base
        .nodes
        .iter()
        .map(|n| (n.path.as_str(), n.self_us))
        .collect();
    let cmap: BTreeMap<&str, u64> = cur
        .nodes
        .iter()
        .map(|n| (n.path.as_str(), n.self_us))
        .collect();
    let mut report = DiffReport::default();
    for (path, &b) in &bmap {
        match cmap.get(path) {
            Some(&c) => {
                if b < min_self_us && c < min_self_us {
                    continue;
                }
                report.compared += 1;
                let ratio = if b == 0 {
                    if c == 0 {
                        1.0
                    } else {
                        f64::INFINITY
                    }
                } else {
                    c as f64 / b as f64
                };
                let class = if c as f64 > b as f64 * rel_tol {
                    Some(DiffClass::Regressed)
                } else if (c as f64) < b as f64 / rel_tol {
                    Some(DiffClass::Improved)
                } else {
                    None
                };
                if let Some(class) = class {
                    report.rows.push(DiffRow {
                        path: (*path).to_string(),
                        base_self_us: b,
                        cur_self_us: c,
                        ratio,
                        class,
                    });
                }
            }
            None => {
                if b >= min_self_us {
                    report.rows.push(DiffRow {
                        path: (*path).to_string(),
                        base_self_us: b,
                        cur_self_us: 0,
                        ratio: 0.0,
                        class: DiffClass::Missing,
                    });
                }
            }
        }
    }
    for (path, &c) in &cmap {
        if !bmap.contains_key(path) && c >= min_self_us {
            report.rows.push(DiffRow {
                path: (*path).to_string(),
                base_self_us: 0,
                cur_self_us: c,
                ratio: f64::INFINITY,
                class: DiffClass::New,
            });
        }
    }
    report.rows.sort_by(|a, b| {
        let rank = |r: &DiffRow| match r.class {
            DiffClass::Regressed => 0,
            DiffClass::New => 1,
            DiffClass::Missing => 2,
            DiffClass::Improved => 3,
        };
        rank(a)
            .cmp(&rank(b))
            .then(b.cur_self_us.cmp(&a.cur_self_us))
            .then(a.path.cmp(&b.path))
    });
    report.regressed = report
        .rows
        .iter()
        .filter(|r| r.class == DiffClass::Regressed)
        .count();
    report
}

/// Render the diff table. Empty-row reports render a single "no
/// significant change" line so the CI log stays readable.
pub fn render_diff(r: &DiffReport, rel_tol: f64, min_self_us: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "profile diff: {} paths compared (rel-tol {rel_tol}x, floor {min_self_us}us)\n",
        r.compared
    ));
    if r.rows.is_empty() {
        out.push_str("  no significant change\n");
        return out;
    }
    out.push_str(&format!(
        "  {:<10} {:<44} {:>10} {:>10} {:>8}\n",
        "class", "path", "base", "current", "ratio"
    ));
    for row in &r.rows {
        let class = match row.class {
            DiffClass::Regressed => "regressed",
            DiffClass::Improved => "improved",
            DiffClass::New => "new",
            DiffClass::Missing => "missing",
        };
        let ratio = if row.ratio.is_finite() {
            format!("{:.2}x", row.ratio)
        } else {
            "-".to_string()
        };
        out.push_str(&format!(
            "  {:<10} {:<44} {:>10} {:>10} {:>8}\n",
            class,
            row.path,
            fmt_us(row.base_self_us),
            fmt_us(row.cur_self_us),
            ratio
        ));
    }
    out.push_str(&format!(
        "  regressed {}  improved {}  new {}  missing {}\n",
        r.regressed,
        r.rows
            .iter()
            .filter(|x| x.class == DiffClass::Improved)
            .count(),
        r.rows.iter().filter(|x| x.class == DiffClass::New).count(),
        r.rows
            .iter()
            .filter(|x| x.class == DiffClass::Missing)
            .count()
    ));
    out
}

/// Serialise a profile to its document form: the writer behind every
/// armed run's flush, and the inverse of [`parse`] — parsing the output
/// and serialising again is byte-identical. Meta values that read as
/// finite numbers are written as numbers, the rest as strings;
/// non-finite event fields are left out, as `parse` would drop them.
pub fn render_profile_json(p: &Profile) -> String {
    let mut out = String::from("{\n\"kind\":\"rfkit-profile\",\n\"version\":1,\n");
    let mut meta = JsonObj::new();
    for (k, v) in &p.meta {
        match v.parse::<f64>() {
            Ok(n) if n.is_finite() => meta.num(k, n),
            _ => meta.str(k, v),
        }
    }
    out.push_str(&format!("\"meta\":{},\n", meta.finish()));
    out.push_str("\"nodes\":[\n");
    for (i, n) in p.nodes.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("path", &n.path);
        o.str("name", &n.name);
        o.num("count", n.count as f64);
        o.num("total_us", n.total_us as f64);
        o.num("self_us", n.self_us as f64);
        o.num("max_us", n.max_us as f64);
        o.num("p50_us", n.p50_us);
        o.num("p95_us", n.p95_us);
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.nodes.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");
    let mut cobj = JsonObj::new();
    for (name, value) in &p.counters {
        cobj.num(name, *value as f64);
    }
    out.push_str(&format!("\"counters\":{},\n", cobj.finish()));
    out.push_str("\"hists\":[\n");
    for (i, (name, h)) in p.hists.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", name);
        o.num("count", h.count as f64);
        o.num("sum", h.sum as f64);
        o.num("p50", h.p50);
        o.num("p90", h.p90);
        o.num("p99", h.p99);
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.hists.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");
    out.push_str("\"events\":[\n");
    for (i, e) in p.events.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", &e.name);
        o.num("points", e.points as f64);
        o.raw("first", &finite_fields(&e.first));
        o.raw("last", &finite_fields(&e.last));
        out.push_str(&o.finish());
        out.push_str(if i + 1 == p.events.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n}\n");
    out
}

/// An event's fields as a JSON object, without the non-finite ones.
fn finite_fields(fields: &BTreeMap<String, f64>) -> String {
    let mut o = JsonObj::new();
    for (k, v) in fields.iter().filter(|(_, v)| v.is_finite()) {
        o.num(k, *v);
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Profile {
        let mut p = Profile::default();
        p.meta.insert("wall_us".to_string(), "5000".to_string());
        p.nodes = vec![
            ProfNode {
                path: "design.total".to_string(),
                name: "design.total".to_string(),
                count: 1,
                total_us: 5000,
                self_us: 1000,
                max_us: 5000,
                p50_us: 5000.0,
                p95_us: 5000.0,
            },
            ProfNode {
                path: "design.total;circuit.ac.sweep".to_string(),
                name: "circuit.ac.sweep".to_string(),
                count: 4,
                total_us: 4000,
                self_us: 4000,
                max_us: 1300,
                p50_us: 990.0,
                p95_us: 1280.0,
            },
        ];
        p.counters.insert("plan.cache.hit".to_string(), 3);
        p.hists.insert(
            "circuit.dc.iters".to_string(),
            ProfHist {
                count: 4,
                sum: 20,
                p50: 5.0625,
                p90: 7.0,
                p99: 7.25,
            },
        );
        p.events.push(SeriesAgg {
            name: "opt.de.gen".to_string(),
            points: 10,
            first: BTreeMap::from([("best".to_string(), 5.0)]),
            last: BTreeMap::from([("best".to_string(), 1.25)]),
        });
        p
    }

    #[test]
    fn profile_round_trips_through_its_json_form() {
        let p = sample();
        let text = render_profile_json(&p);
        let q = parse(&text).expect("round-trip parse");
        assert_eq!(q.nodes.len(), 2);
        assert_eq!(q.nodes[1].path, "design.total;circuit.ac.sweep");
        assert_eq!(q.nodes[1].self_us, 4000);
        assert_eq!(q.counters.get("plan.cache.hit"), Some(&3));
        assert_eq!(q.hists["circuit.dc.iters"].p50, 5.0625);
        assert_eq!(q.events[0].points, 10);
        // Serialising the reparse is byte-identical: the format is a
        // fixed point, so baseline refreshes never churn spuriously.
        assert_eq!(render_profile_json(&q), text);
    }

    #[test]
    fn parse_rejects_event_streams_and_other_documents() {
        assert!(parse("{\"t_us\":0,\"kind\":\"meta\",\"name\":\"run\"}\n").is_err());
        assert!(parse("{\"kind\":\"meta\"}\n{\"kind\":\"span\"}\n").is_err());
        assert!(parse("").is_err());
        assert!(parse("{\"kind\":\"other\"}").is_err());
    }

    #[test]
    fn parse_ignores_the_old_histogram_buckets() {
        let text = render_profile_json(&sample())
            .replace("\"p99\":7.25}", "\"p99\":7.25,\"buckets\":[[3,1],[7,3]]}");
        assert!(text.contains("\"buckets\""));
        let q = parse(&text).expect("profile with buckets parses");
        assert_eq!(q.hists["circuit.dc.iters"].count, 4);
        assert_eq!(q.hists["circuit.dc.iters"].p99, 7.25);
        assert_eq!(render_profile_json(&q), render_profile_json(&sample()));
    }

    #[test]
    fn summary_merges_same_name_paths_and_prints_the_file_percentiles() {
        let mut p = sample();
        // Same span name reached via a second path.
        p.nodes.push(ProfNode {
            path: "other.root;circuit.ac.sweep".to_string(),
            name: "circuit.ac.sweep".to_string(),
            count: 1,
            total_us: 500,
            self_us: 500,
            max_us: 500,
            p50_us: 500.0,
            p95_us: 500.0,
        });
        p.meta.insert("threads_env".to_string(), "4".to_string());
        let text = render_summary(&p, 10);
        let row = |name: &str| {
            text.lines()
                .map(|l| l.split_whitespace().collect::<Vec<_>>())
                .find(|cols| cols.first() == Some(&name))
                .unwrap_or_else(|| panic!("no `{name}` row in:\n{text}"))
        };
        // Both circuit.ac.sweep paths fold into one row: 4 + 1 calls,
        // 4000 + 500 us of self and total time.
        assert_eq!(row("circuit.ac.sweep")[1..4], ["5", "4.50ms", "4.50ms"]);
        assert_eq!(row("plan.cache.hit")[1], "3");
        // count, mean, then the file's p50/p90/p99 as written.
        assert_eq!(
            row("circuit.dc.iters")[1..],
            ["4", "5.0", "5.0625", "7", "7.25"]
        );
        assert!(text.contains("threads_env: 4"));
        assert!(text.contains("opt.de.gen (10 events)"));
    }

    #[test]
    fn tree_and_flame_render_paths() {
        let p = sample();
        let tree = render_tree(&p, 50);
        assert!(tree.contains("design.total"));
        // Child is indented under the root and shows a percentage.
        assert!(tree.contains("  circuit.ac.sweep"));
        assert!(tree.contains('%'));
        let flame = render_flame(&p);
        assert!(flame.contains("design.total 1000\n"));
        assert!(flame.contains("design.total;circuit.ac.sweep 4000\n"));
    }

    #[test]
    fn diff_classifies_with_tolerance_and_floor() {
        let base = sample();
        let mut cur = sample();
        // 2.5x slowdown on the sweep path: regression at rel_tol 1.5.
        cur.nodes[1].self_us = 10_000;
        // A new path below the floor must be ignored...
        cur.nodes.push(ProfNode {
            path: "noise.tiny".to_string(),
            name: "noise.tiny".to_string(),
            count: 1,
            total_us: 5,
            self_us: 5,
            max_us: 5,
            p50_us: 5.0,
            p95_us: 5.0,
        });
        let r = diff(&base, &cur, 1.5, 100);
        assert_eq!(r.regressed, 1);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].class, DiffClass::Regressed);
        assert!((r.rows[0].ratio - 2.5).abs() < 1e-12);
        let table = render_diff(&r, 1.5, 100);
        assert!(table.contains("regressed"));
        assert!(table.contains("circuit.ac.sweep"));

        // Self-diff: identical profiles produce an empty, passing diff.
        let clean = diff(&base, &base, 1.5, 100);
        assert_eq!(clean.regressed, 0);
        assert!(clean.rows.is_empty());
        assert!(render_diff(&clean, 1.5, 100).contains("no significant change"));

        // Improvement is reported but is not a regression.
        let mut faster = sample();
        faster.nodes[1].self_us = 1000;
        let r = diff(&base, &faster, 1.5, 100);
        assert_eq!(r.regressed, 0);
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0].class, DiffClass::Improved);

        // Paths only on one side classify as new/missing above floor.
        let mut extra = sample();
        extra.nodes.push(ProfNode {
            path: "design.total;new.stage".to_string(),
            name: "new.stage".to_string(),
            count: 1,
            total_us: 900,
            self_us: 900,
            max_us: 900,
            p50_us: 900.0,
            p95_us: 900.0,
        });
        let r = diff(&base, &extra, 1.5, 100);
        assert!(r.rows.iter().any(|x| x.class == DiffClass::New));
        let r = diff(&extra, &base, 1.5, 100);
        assert!(r.rows.iter().any(|x| x.class == DiffClass::Missing));

        // Noise floor: both sides under the floor compare as equal even
        // at a wild ratio (5us -> 50us is jitter, not a regression).
        let mut b2 = sample();
        b2.nodes[1].self_us = 5;
        let mut c2 = sample();
        c2.nodes[1].self_us = 50;
        let r = diff(&b2, &c2, 1.5, 100);
        assert_eq!(r.regressed, 0);
        assert!(r.rows.is_empty());
    }
}
