//! End to end: arm tracing into a temp file, run nested / same-name /
//! zero-duration spans plus metrics and events, flush, and parse the
//! PROFILE json back.
//!
//! Trace arming is process-global, so this file holds exactly ONE
//! test (the same single-test-per-file pattern as the determinism
//! test in crates/opt).

use rfkit_obs::{profile, Counter, Hist, TraceConfig};

static TASKS: Counter = Counter::new("test.agg.tasks");
static ITERS: Hist = Hist::new("test.agg.iters");
static STAGE: Hist = Hist::new("test.agg.stage");

const ITER_SAMPLES: [u64; 4] = [1, 2, 400, 900];
const STAGE_SAMPLES: [u64; 3] = [0, 0, 2];

/// Exact nearest-rank percentile: the sample at 1-based rank
/// `ceil(q * n)`, the rank the sketch's estimate targets.
fn nearest_rank(samples: &[u64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

fn busy_wait_us(us: u64) {
    let t0 = std::time::Instant::now();
    while t0.elapsed().as_micros() < us as u128 {
        std::hint::spin_loop();
    }
}

#[test]
fn agg_mode_folds_spans_into_a_call_path_profile() {
    let path = std::env::temp_dir().join(format!("rfkit_obs_agg_{}.json", std::process::id()));
    rfkit_obs::init(&TraceConfig {
        trace: true,
        out: Some(path.clone()),
        ..TraceConfig::default()
    });
    assert!(rfkit_obs::enabled());
    assert_eq!(rfkit_obs::trace_path().as_deref(), Some(path.as_path()));

    {
        let _run = rfkit_obs::span("test.run");
        for _ in 0..3 {
            let _outer = rfkit_obs::span("test.step");
            busy_wait_us(300);
            {
                // Nested same-name span: must land on its own deeper
                // path (test.run;test.step;test.step), not fold into
                // the parent, and self time stays non-negative.
                let _inner = rfkit_obs::span("test.step");
                busy_wait_us(200);
            }
        }
        // Zero-duration span: closes in well under a microsecond.
        let _zero = rfkit_obs::span("test.zero");
        drop(_zero);
        rfkit_obs::event("test.agg.gen", &[("gen", 0.0), ("best", 9.0)]);
        rfkit_obs::event("test.agg.gen", &[("gen", 4.0), ("best", 1.5)]);
        rfkit_obs::event("test.agg.nan", &[("bad", f64::NAN), ("ok", 2.0)]);
        TASKS.add(11);
        for v in ITER_SAMPLES {
            ITERS.record(v);
        }
        // The fault smoke's DC fallback shape: ladders that ended at
        // rungs 0, 0 and 2.
        for v in STAGE_SAMPLES {
            STAGE.record(v);
        }
    }
    // Each thread folds spans into its own tree; the flush merges them
    // by path.
    std::thread::scope(|s| {
        for _ in 0..2 {
            s.spawn(|| {
                for _ in 0..5 {
                    let _work = rfkit_obs::span("test.worker");
                    busy_wait_us(20);
                }
            });
        }
    });
    rfkit_obs::flush();

    let text = std::fs::read_to_string(&path).expect("profile file readable");
    let _ = std::fs::remove_file(&path);
    let p = profile::parse(&text).expect("profile parses");
    // One writer, one reader: the flushed file is a serialization fixed
    // point, so re-rendering what the reader returns is byte-identical.
    assert_eq!(profile::render_profile_json(&p), text);
    assert!(p.meta.contains_key("pid"), "meta without pid:\n{text}");

    let node = |path: &str| {
        p.nodes
            .iter()
            .find(|n| n.path == path)
            .unwrap_or_else(|| panic!("path `{path}` missing from profile:\n{text}"))
    };
    let outer = node("test.run;test.step");
    let inner = node("test.run;test.step;test.step");
    assert_eq!(outer.count, 3);
    assert_eq!(inner.count, 3);
    assert_eq!(outer.name, "test.step");
    // ~300us busy self per outer call; the inner ~200us must be
    // attributed to the inner path, not the outer one.
    assert!(outer.total_us > outer.self_us, "outer has a child");
    assert!(
        inner.self_us >= 300,
        "inner self {}us too small:\n{text}",
        inner.self_us
    );
    // Self times are u64 by construction; the clamp satellite
    // guarantees they came out of a non-wrapping subtraction. The
    // whole-tree invariant: self <= total at every path.
    for n in &p.nodes {
        assert!(
            n.self_us <= n.total_us,
            "self {} > total {} at {}",
            n.self_us,
            n.total_us,
            n.path
        );
    }
    let zero = node("test.run;test.zero");
    assert_eq!(zero.count, 1, "zero-duration span still counts");
    let worker = node("test.worker");
    assert_eq!(worker.count, 10, "both threads' spans merge into one path");
    assert!(
        worker.total_us >= 10 * 20,
        "merged total {}us",
        worker.total_us
    );

    assert_eq!(p.counters.get("test.agg.tasks"), Some(&11));
    let h = p.hists.get("test.agg.iters").expect("hist in profile");
    assert_eq!(h.count, 4);
    assert_eq!(h.sum, 1303);
    // Every reported percentile is the sketch's estimate of the exact
    // nearest-rank sample: within 1/32 of it.
    for (name, samples) in [
        ("test.agg.iters", &ITER_SAMPLES[..]),
        ("test.agg.stage", &STAGE_SAMPLES[..]),
    ] {
        let h = &p.hists[name];
        for (q, got) in [(0.50, h.p50), (0.90, h.p90), (0.99, h.p99)] {
            let exact = nearest_rank(samples, q);
            assert!(
                (got - exact).abs() <= exact / 32.0,
                "{name} q={q}: reported {got}, exact {exact}"
            );
        }
    }
    // One sample of 2 among zeros: p90 is that sample, not the upper
    // edge of a power-of-two bucket (3).
    let stage = &p.hists["test.agg.stage"];
    assert_eq!((stage.count, stage.sum, stage.p50), (3, 2, 0.0));
    assert!((stage.p90 - 2.0).abs() <= 2.0 / 32.0, "p90 = {}", stage.p90);

    let gen = p
        .events
        .iter()
        .find(|e| e.name == "test.agg.gen")
        .expect("event series in profile");
    assert_eq!(gen.points, 2);
    assert_eq!(gen.first.get("best"), Some(&9.0));
    assert_eq!(gen.last.get("best"), Some(&1.5));
    // A non-finite field drops out of the written event; the rest stay.
    let nan = p
        .events
        .iter()
        .find(|e| e.name == "test.agg.nan")
        .expect("nan event present");
    assert_eq!(nan.last.keys().collect::<Vec<_>>(), ["ok"]);
    // The flush records its own shape.
    assert!(p.events.iter().any(|e| e.name == "profile.flush"));

    // The summary view folds the two test.step paths into one row by
    // name, and prints each histogram's percentiles as the file has them.
    let summary = profile::render_summary(&p, 100);
    let row = |name: &str| {
        summary
            .lines()
            .map(|l| l.split_whitespace().collect::<Vec<_>>())
            .find(|cols| cols.first() == Some(&name))
            .unwrap_or_else(|| panic!("no `{name}` row in:\n{summary}"))
    };
    assert_eq!(row("test.step")[1], "6");
    let stage_row = row("test.agg.stage");
    let printed: Vec<f64> = stage_row[3..]
        .iter()
        .map(|c| c.parse().expect("numeric percentile"))
        .collect();
    assert_eq!(printed, [stage.p50, stage.p90, stage.p99]);

    // Tree + flame renderings cover the recorded paths.
    let tree = profile::render_tree(&p, 100);
    assert!(tree.contains("test.run"));
    assert!(tree.contains("    test.step"), "nested indent in:\n{tree}");
    let flame = profile::render_flame(&p);
    assert!(flame.contains("test.run;test.step;test.step "));
}
