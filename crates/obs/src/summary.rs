//! The by-name view of a profile that `rfkit-trace` prints and its
//! `--expect*` assertions check: span totals merged across call paths,
//! counter values, histogram percentiles and per-optimizer convergence
//! series ([`crate::profile::to_summary`] builds it), rendered as text
//! or JSON.

use std::collections::BTreeMap;

use crate::json::JsonObj;

/// By-name view of one profile.
#[derive(Debug, Default)]
pub struct Summary {
    /// Profile entries: call-path nodes, counters, histograms, events.
    pub records: usize,
    /// `meta` fields (pid, threads_env, wall_us) as strings.
    pub meta: BTreeMap<String, String>,
    /// Per-span-name aggregates, sorted by self-time descending.
    pub spans: Vec<SpanAgg>,
    /// Counter name -> value.
    pub counters: BTreeMap<String, u64>,
    /// Histogram name -> snapshot.
    pub hists: BTreeMap<String, HistAgg>,
    /// Event series, in profile order.
    pub series: Vec<SeriesAgg>,
}

/// Aggregate over all spans sharing a name.
#[derive(Debug, Clone)]
pub struct SpanAgg {
    /// Span name.
    pub name: String,
    /// Number of closed spans.
    pub count: u64,
    /// Total wall duration in microseconds.
    pub total_us: u64,
    /// Total self time (duration minus child spans) in microseconds.
    pub self_us: u64,
    /// Longest single span in microseconds.
    pub max_us: u64,
}

/// Final snapshot of one histogram.
#[derive(Debug, Clone, Default)]
pub struct HistAgg {
    /// Sample count.
    pub count: u64,
    /// Sample sum.
    pub sum: u64,
    /// `(inclusive_upper, count)` buckets in ascending order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistAgg {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in `[0,1]`: the upper bound of the
    /// first bucket whose cumulative count reaches `q * count`.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for &(upper, c) in &self.buckets {
            seen += c;
            if seen >= target {
                return upper;
            }
        }
        self.buckets.last().map(|&(u, _)| u).unwrap_or(0)
    }
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

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

fn series_key_line(fields: &BTreeMap<String, f64>) -> String {
    fields
        .iter()
        .map(|(k, v)| format!("{k}={v:.6}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Render the human-readable report. `top` caps the span table.
pub fn render_human(s: &Summary, top: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!("profile: {} records\n", s.records));
    for (k, v) in &s.meta {
        out.push_str(&format!("  {k}: {v}\n"));
    }

    if !s.spans.is_empty() {
        out.push_str(&format!(
            "\nTop spans by self time (of {}):\n",
            s.spans.len()
        ));
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
            "name", "count", "self", "total", "max"
        ));
        for a in s.spans.iter().take(top) {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10} {:>10} {:>10}\n",
                a.name,
                a.count,
                fmt_us(a.self_us),
                fmt_us(a.total_us),
                fmt_us(a.max_us)
            ));
        }
    }

    if !s.counters.is_empty() {
        out.push_str("\nCounters:\n");
        for (name, value) in &s.counters {
            out.push_str(&format!("  {name:<28} {value}\n"));
        }
    }

    if !s.hists.is_empty() {
        out.push_str("\nHistograms (log2 buckets):\n");
        out.push_str(&format!(
            "  {:<28} {:>7} {:>10} {:>8} {:>8} {:>8}\n",
            "name", "count", "mean", "p50", "p90", "p99"
        ));
        for (name, h) in &s.hists {
            out.push_str(&format!(
                "  {:<28} {:>7} {:>10.1} {:>8} {:>8} {:>8}\n",
                name,
                h.count,
                h.mean(),
                h.percentile(0.50),
                h.percentile(0.90),
                h.percentile(0.99)
            ));
        }
    }

    let opt_series: Vec<&SeriesAgg> = s
        .series
        .iter()
        .filter(|sa| sa.name.starts_with("opt.") || sa.name.starts_with("design."))
        .collect();
    if !opt_series.is_empty() {
        out.push_str("\nConvergence (first -> last event):\n");
        for sa in opt_series {
            out.push_str(&format!("  {} ({} events)\n", sa.name, sa.points));
            out.push_str(&format!("    first: {}\n", series_key_line(&sa.first)));
            if sa.points > 1 {
                out.push_str(&format!("    last:  {}\n", series_key_line(&sa.last)));
            }
        }
    }
    let other: Vec<&SeriesAgg> = s
        .series
        .iter()
        .filter(|sa| !sa.name.starts_with("opt.") && !sa.name.starts_with("design."))
        .collect();
    if !other.is_empty() {
        out.push_str("\nOther events:\n");
        for sa in other {
            out.push_str(&format!(
                "  {:<28} {:>7} events; last: {}\n",
                sa.name,
                sa.points,
                series_key_line(&sa.last)
            ));
        }
    }
    out
}

/// Render the machine-readable report.
pub fn render_json(s: &Summary) -> String {
    let mut root = JsonObj::new();
    root.num("records", s.records as f64);

    let mut meta = JsonObj::new();
    for (k, v) in &s.meta {
        meta.str(k, v);
    }
    root.raw("meta", &meta.finish());

    let mut spans = String::from("[");
    for (i, a) in s.spans.iter().enumerate() {
        if i > 0 {
            spans.push(',');
        }
        let mut o = JsonObj::new();
        o.str("name", &a.name);
        o.num("count", a.count as f64);
        o.num("total_us", a.total_us as f64);
        o.num("self_us", a.self_us as f64);
        o.num("max_us", a.max_us as f64);
        spans.push_str(&o.finish());
    }
    spans.push(']');
    root.raw("spans", &spans);

    let mut counters = JsonObj::new();
    for (name, value) in &s.counters {
        counters.num(name, *value as f64);
    }
    root.raw("counters", &counters.finish());

    let mut hists = String::from("[");
    for (i, (name, h)) in s.hists.iter().enumerate() {
        if i > 0 {
            hists.push(',');
        }
        let mut o = JsonObj::new();
        o.str("name", name);
        o.num("count", h.count as f64);
        o.num("sum", h.sum as f64);
        o.num("mean", h.mean());
        o.num("p50", h.percentile(0.50) as f64);
        o.num("p90", h.percentile(0.90) as f64);
        o.num("p99", h.percentile(0.99) as f64);
        hists.push_str(&o.finish());
    }
    hists.push(']');
    root.raw("hists", &hists);

    let mut series = String::from("[");
    for (i, sa) in s.series.iter().enumerate() {
        if i > 0 {
            series.push(',');
        }
        let mut o = JsonObj::new();
        o.str("name", &sa.name);
        o.num("points", sa.points as f64);
        let mut first = JsonObj::new();
        for (k, v) in &sa.first {
            first.num(k, *v);
        }
        o.raw("first", &first.finish());
        let mut last = JsonObj::new();
        for (k, v) in &sa.last {
            last.num(k, *v);
        }
        o.raw("last", &last.finish());
        series.push_str(&o.finish());
    }
    series.push(']');
    root.raw("series", &series);
    root.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{to_summary, ProfHist, ProfNode, Profile};

    fn sample() -> Summary {
        let mut p = Profile::default();
        p.meta.insert("threads_env".to_string(), "4".to_string());
        p.nodes.push(ProfNode {
            path: "design.total".to_string(),
            name: "design.total".to_string(),
            count: 2,
            total_us: 4000,
            self_us: 1000,
            max_us: 3000,
            p50_us: 1000.0,
            p95_us: 3000.0,
        });
        p.counters.insert("par.tasks".to_string(), 700);
        p.hists.insert(
            "circuit.dc.iters".to_string(),
            ProfHist {
                count: 4,
                sum: 20,
                buckets: vec![(3, 1), (7, 3)],
                ..ProfHist::default()
            },
        );
        p.events.push(SeriesAgg {
            name: "opt.de.gen".to_string(),
            points: 2,
            first: BTreeMap::from([("best".to_string(), 5.0)]),
            last: BTreeMap::from([("best".to_string(), 1.25)]),
        });
        to_summary(&p)
    }

    #[test]
    fn renderers_cover_sample_and_json_parses() {
        let s = sample();
        let h = s.hists.get("circuit.dc.iters").expect("hist");
        assert_eq!(h.percentile(0.25), 3);
        assert_eq!(h.percentile(0.99), 7);
        assert!((h.mean() - 5.0).abs() < 1e-12);
        let human = render_human(&s, 10);
        assert!(human.contains("design.total"));
        assert!(human.contains("opt.de.gen"));
        assert!(human.contains("par.tasks"));
        assert!(human.contains("threads_env: 4"));
        let j = render_json(&s);
        let v = crate::json::parse(&j).expect("summary json parses");
        assert_eq!(
            v.get("records").and_then(crate::json::Json::as_f64),
            Some(4.0)
        );
        assert_eq!(
            v.get("spans")
                .and_then(crate::json::Json::as_arr)
                .map(|a| a.len()),
            Some(1)
        );
    }

    #[test]
    fn empty_hist_percentiles_are_zero() {
        let h = HistAgg::default();
        assert_eq!(h.percentile(0.5), 0);
        assert_eq!(h.mean(), 0.0);
    }
}
