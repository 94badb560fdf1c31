//! In-process streaming profile aggregation.
//!
//! Closing spans fold into a hierarchical call-path tree, one per
//! thread and merged by path at flush: each node is keyed by
//! `(parent, name)` and accumulates call count, total wall time, self
//! time (duration minus child spans) and a mergeable
//! [`QuantileSketch`] of durations. Events fold into per-name
//! first/last summaries. On [`flush`](crate::flush) the tree, the
//! counter/histogram registry and the events become one
//! [`Profile`], written by [`render_profile_json`] — the serializer
//! whose output [`crate::profile::parse`] reads back — as one compact
//! `PROFILE_*.json` that `rfkit-trace` renders as an indented call-path
//! profile (`tree`), folded flamegraph stacks (`flame`), and diffs
//! against a baseline as the CI perf-regression gate (`diff`).
//!
//! Costs when armed: one tree lookup per span enter and one per exit,
//! in a tree of the calling thread's own. Span paths are tracked per
//! thread, so spans opened on pool workers root at the worker's own
//! stack (see `par.task` in rfkit-par), and each thread folds its spans
//! into its own tree behind a mutex only `reset` and the flush ever
//! contend for: workers closing spans at the same time never wait on one
//! another. The flush merges the trees path by path. Counters stay
//! lock-free; a histogram sample takes only its own histogram's mutex.

use std::cell::RefCell;
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rfkit_num::QuantileSketch;

use crate::metrics;
use crate::profile::{render_profile_json, ProfNode, Profile, SeriesAgg};

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
static EVENTS: Mutex<BTreeMap<String, SeriesAgg>> = Mutex::new(BTreeMap::new());

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
    let snap: BTreeMap<String, f64> = fields.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let mut events = lock(&EVENTS);
    match events.get_mut(name) {
        Some(agg) => {
            agg.points += 1;
            agg.last = snap;
        }
        None => {
            events.insert(
                name.to_string(),
                SeriesAgg {
                    name: name.to_string(),
                    points: 1,
                    first: snap.clone(),
                    last: snap,
                },
            );
        }
    }
}

/// Every thread's tree merged by call path. Paths are rebuilt by walking
/// parents, and the map orders them by path string, so the profile is
/// independent of node discovery order and of which thread ran what.
fn merged_nodes() -> Vec<ProfNode> {
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
        .into_iter()
        .map(|(path, n)| ProfNode {
            path,
            name: n.name.to_string(),
            count: n.count,
            total_us: n.total_ns / 1_000,
            self_us: n.self_ns / 1_000,
            max_us: n.max_ns / 1_000,
            p50_us: n.durations_us.quantile(0.50),
            p95_us: n.durations_us.quantile(0.95),
        })
        .collect()
}

/// Build the whole aggregate — tree, counters, histograms, events — as
/// one [`Profile`] and hand its document form to the sink.
pub(crate) fn flush_profile() {
    let mut p = Profile {
        nodes: merged_nodes(),
        ..Profile::default()
    };
    metrics::snapshot_into(&mut p);
    // The flush itself is telemetry: record it as a `profile.flush`
    // event so the artifact documents its own shape.
    let events = lock(&EVENTS).len();
    crate::event(
        "profile.flush",
        &[
            ("nodes", p.nodes.len() as f64),
            ("counters", p.counters.len() as f64),
            ("hists", p.hists.len() as f64),
            ("events", events as f64),
        ],
    );
    p.events = lock(&EVENTS).values().cloned().collect();
    p.meta = BTreeMap::from([
        ("pid".to_string(), std::process::id().to_string()),
        (
            "threads_env".to_string(),
            std::env::var("RFKIT_THREADS").unwrap_or_default(),
        ),
        ("wall_us".to_string(), crate::now_us().to_string()),
    ]);
    crate::sink::write_whole(&render_profile_json(&p));
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
