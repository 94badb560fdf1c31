//! In-process streaming profile aggregation (`RFKIT_TRACE_MODE=agg`).
//!
//! Instead of one JSONL line per span, closing spans fold into a
//! hierarchical call-path tree, one per thread and merged by path at
//! flush: each node is keyed by
//! `(parent, name)` and accumulates call count, total wall time, self
//! time (duration minus child spans) and a mergeable
//! [`QuantileSketch`] of durations. Events fold into per-name
//! first/last summaries. On [`flush`](crate::flush) the tree plus the
//! counter/histogram registry serialize into one compact
//! `PROFILE_*.json` — kilobytes where a traced run writes megabytes —
//! which `rfkit-trace` renders as an indented call-path profile
//! (`tree`), folded flamegraph stacks (`flame`), and diffs against a
//! baseline as the CI perf-regression gate (`diff`).
//!
//! Costs when armed: one tree lookup per span enter and one per exit,
//! in a tree of the calling thread's own. Span paths are tracked per
//! thread, so spans opened on pool workers root at the worker's own
//! stack (see `par.task` in rfkit-par), and each thread folds its spans
//! into its own tree behind a mutex only [`reset`] and the flush ever
//! contend for: workers closing spans at the same time never wait on one
//! another. The flush merges the trees path by path. Counters and
//! histograms keep their lock-free hot path; only the sketch feed in
//! [`crate::metrics`] adds a short uncontended lock per histogram sample.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rfkit_num::QuantileSketch;

use crate::json::JsonObj;
use crate::metrics;

/// Parent marker for root-level nodes.
const ROOT: u32 = u32::MAX;

/// One call-path node: everything spans at this path accumulated.
#[derive(Clone)]
struct Node {
    name: &'static str,
    parent: u32,
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
    durations_us: QuantileSketch,
}

/// Aggregate of one event name.
struct EventAgg {
    points: u64,
    first: Vec<(String, f64)>,
    last: Vec<(String, f64)>,
}

/// One thread's call-path tree; node ids index `nodes`.
#[derive(Default)]
struct Tree {
    nodes: Vec<Node>,
    index: BTreeMap<(u32, &'static str), u32>,
}

/// Every thread's tree, in the order threads first opened a span. Trees
/// live until the process ends, one per thread that ever opened a span
/// (the main thread, pool and server workers).
static TREES: Mutex<Vec<Arc<Mutex<Tree>>>> = Mutex::new(Vec::new());
static EVENTS: Mutex<BTreeMap<String, EventAgg>> = Mutex::new(BTreeMap::new());

thread_local! {
    // Per-thread stack of live node ids, parallel to the span stack in
    // `crate::span`.
    static NODE_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    // This thread's tree, registered in `TREES` on first use so it
    // outlives the thread and reaches the flush.
    static LOCAL: Arc<Mutex<Tree>> = {
        let tree = Arc::new(Mutex::new(Tree::default()));
        lock(&TREES).push(Arc::clone(&tree));
        tree
    };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Drop all aggregated state. Called when (re)arming aggregation so a
/// profile covers exactly one armed window; stale ids left on threads'
/// stacks are bounds-checked away in [`exit`].
pub(crate) fn reset() {
    for tree in lock(&TREES).iter() {
        let mut t = lock(tree);
        t.nodes.clear();
        t.index.clear();
    }
    lock(&EVENTS).clear();
}

/// Open a span at `name` under the current thread's path.
pub(crate) fn enter(name: &'static str) {
    let parent = NODE_STACK
        .with(|s| s.borrow().last().copied())
        .unwrap_or(ROOT);
    let id = LOCAL.with(|tree| {
        let mut t = lock(tree);
        match t.index.get(&(parent, name)) {
            Some(&id) => id,
            None => {
                let id = t.nodes.len() as u32;
                t.nodes.push(Node {
                    name,
                    parent,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                    max_ns: 0,
                    durations_us: QuantileSketch::new(),
                });
                t.index.insert((parent, name), id);
                id
            }
        }
    });
    NODE_STACK.with(|s| s.borrow_mut().push(id));
}

/// Close the current thread's innermost span with its measured times.
pub(crate) fn exit(dur_ns: u64, self_ns: u64) {
    let Some(id) = NODE_STACK.with(|s| s.borrow_mut().pop()) else {
        return;
    };
    LOCAL.with(|tree| {
        let mut t = lock(tree);
        // A reset between enter and exit (re-init mid-span) may have
        // invalidated the id; drop the sample rather than misattributing.
        let Some(node) = t.nodes.get_mut(id as usize) else {
            return;
        };
        node.count += 1;
        node.total_ns = node.total_ns.saturating_add(dur_ns);
        node.self_ns = node.self_ns.saturating_add(self_ns);
        node.max_ns = node.max_ns.max(dur_ns);
        node.durations_us.record(dur_ns as f64 / 1_000.0);
    });
}

/// Fold one event into its per-name summary.
pub(crate) fn record_event(name: &str, fields: &[(&str, f64)]) {
    let mut events = lock(&EVENTS);
    match events.get_mut(name) {
        Some(agg) => {
            agg.points += 1;
            agg.last = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        }
        None => {
            let snap: Vec<(String, f64)> =
                fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
            events.insert(
                name.to_string(),
                EventAgg {
                    points: 1,
                    first: snap.clone(),
                    last: snap,
                },
            );
        }
    }
}

/// Every thread's tree merged by call path. Paths are rebuilt by walking
/// parents, and the map orders them by path string, so the serialized
/// profile is independent of node discovery order and of which thread
/// ran what.
fn merged_paths() -> BTreeMap<String, Node> {
    let mut merged: BTreeMap<String, Node> = BTreeMap::new();
    for tree in lock(&TREES).iter() {
        let t = lock(tree);
        for n in &t.nodes {
            let mut parts = vec![n.name];
            let mut p = n.parent;
            while let Some(parent) = t.nodes.get(p as usize) {
                parts.push(parent.name);
                p = parent.parent;
            }
            parts.reverse();
            match merged.entry(parts.join(";")) {
                Entry::Vacant(slot) => {
                    slot.insert(n.clone());
                }
                Entry::Occupied(mut slot) => {
                    let m = slot.get_mut();
                    m.count += n.count;
                    m.total_ns = m.total_ns.saturating_add(n.total_ns);
                    m.self_ns = m.self_ns.saturating_add(n.self_ns);
                    m.max_ns = m.max_ns.max(n.max_ns);
                    m.durations_us.merge(&n.durations_us);
                }
            }
        }
    }
    merged
}

/// Serialize the whole aggregate — tree, counters, histograms, events —
/// as one profile JSON document and hand it to the sink.
pub(crate) fn flush_profile() {
    // The flush itself is telemetry: record it as a `profile.flush`
    // event so the artifact documents its own shape, then snapshot.
    let (counters, hists) = metrics::registry_snapshot();
    let rows = merged_paths();
    let events = lock(&EVENTS).len();
    crate::event(
        "profile.flush",
        &[
            ("nodes", rows.len() as f64),
            ("counters", counters.len() as f64),
            ("hists", hists.len() as f64),
            ("events", events as f64),
        ],
    );

    let mut out = String::from("{\n");
    out.push_str("\"kind\":\"rfkit-profile\",\n\"version\":1,\n");
    let mut meta = JsonObj::new();
    meta.num("pid", std::process::id() as f64);
    meta.str(
        "threads_env",
        &std::env::var("RFKIT_THREADS").unwrap_or_default(),
    );
    meta.num("wall_us", crate::now_us() as f64);
    out.push_str(&format!("\"meta\":{},\n", meta.finish()));

    out.push_str("\"nodes\":[\n");
    for (i, (path, n)) in rows.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("path", path);
        o.str("name", n.name);
        o.num("count", n.count as f64);
        o.num("total_us", (n.total_ns / 1_000) as f64);
        o.num("self_us", (n.self_ns / 1_000) as f64);
        o.num("max_us", (n.max_ns / 1_000) as f64);
        o.num("p50_us", n.durations_us.quantile(0.50));
        o.num("p95_us", n.durations_us.quantile(0.95));
        out.push_str(&o.finish());
        out.push_str(if i + 1 == rows.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");

    let mut cobj = JsonObj::new();
    for (name, value) in &counters {
        cobj.num(name, *value as f64);
    }
    out.push_str(&format!("\"counters\":{},\n", cobj.finish()));

    out.push_str("\"hists\":[\n");
    for (i, h) in hists.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", h.name);
        o.num("count", h.count as f64);
        o.num("sum", h.sum as f64);
        o.num("p50", h.p50);
        o.num("p90", h.p90);
        o.num("p99", h.p99);
        let mut arr = String::from("[");
        for (j, (upper, c)) in h.buckets.iter().enumerate() {
            if j > 0 {
                arr.push(',');
            }
            arr.push_str(&format!("[{upper},{c}]"));
        }
        arr.push(']');
        o.raw("buckets", &arr);
        if let Some(sk) = &h.sketch {
            let mut sobj = JsonObj::new();
            sobj.num("zeros", sk.zeros() as f64);
            let mut sarr = String::from("[");
            for (j, (k, c)) in sk.buckets().enumerate() {
                if j > 0 {
                    sarr.push(',');
                }
                sarr.push_str(&format!("[{k},{c}]"));
            }
            sarr.push(']');
            sobj.raw("buckets", &sarr);
            o.raw("sketch", &sobj.finish());
        }
        out.push_str(&o.finish());
        out.push_str(if i + 1 == hists.len() { "\n" } else { ",\n" });
    }
    out.push_str("],\n");

    out.push_str("\"events\":[\n");
    let events = lock(&EVENTS);
    for (i, (name, e)) in events.iter().enumerate() {
        let mut o = JsonObj::new();
        o.str("name", name);
        o.num("points", e.points as f64);
        let mut first = JsonObj::new();
        for (k, v) in &e.first {
            first.num(k, *v);
        }
        o.raw("first", &first.finish());
        let mut last = JsonObj::new();
        for (k, v) in &e.last {
            last.num(k, *v);
        }
        o.raw("last", &last.finish());
        out.push_str(&o.finish());
        out.push_str(if i + 1 == events.len() { "\n" } else { ",\n" });
    }
    out.push_str("]\n}\n");
    drop(events);

    crate::sink::write_whole(&out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_without_enter_is_inert() {
        // A stale stack (e.g. after a reset) must not panic or corrupt.
        exit(1_000, 1_000);
        NODE_STACK.with(|s| assert!(s.borrow().is_empty()));
    }
}
