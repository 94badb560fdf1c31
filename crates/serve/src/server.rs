//! The batch server: accept loop, per-connection readers, work-stealing
//! workers with warm per-worker solver state, shared caches, admission
//! control, per-request deadlines, and draining shutdown.

use std::collections::BTreeMap;
use std::convert::Infallible;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Instant;

use lna::{
    cached_sweep, design_lna, reference_netlist, yield_analysis_robust, BandOutcome, BandSpec,
    BuildConfig, DesignCache, DesignConfig, DesignVariables, LnaDesign, PointDiagnostic,
    YieldOutcome, DEFAULT_CACHE_CAPACITY,
};
use rfkit_circuit::{shared_plan_cache, AcWorkspace};
use rfkit_device::Phemt;
use rfkit_num::MemoMap;
use rfkit_obs::json::{fmt_f64, JsonObj};

use crate::protocol::{self, FrameError, Request, RequestBody};
use crate::scheduler::{Refusal, Scheduler};

// Request-lifecycle telemetry (runtime-gated, write-only; the contract
// checker ties these names to DESIGN.md and the CI trace assertions).
static OBS_ACCEPTED: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.requests.accepted");
static OBS_REJECTED: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.requests.rejected");
static OBS_COMPLETED: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.requests.completed");
static OBS_DEGRADED: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.requests.degraded");
static OBS_EXPIRED: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.requests.expired");
static OBS_PROTOCOL_ERRORS: rfkit_obs::Counter = rfkit_obs::Counter::new("serve.protocol.errors");
static OBS_LATENCY: rfkit_obs::Hist = rfkit_obs::Hist::new("serve.request.latency_us");

/// Most per-band design caches kept at once. Clients may name any band,
/// so the map is bounded; an evicted band's cache starts cold on its next
/// request.
pub const MAX_BAND_CACHES: usize = 8;

/// Server configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing queued requests.
    pub workers: usize,
    /// Bounded admission queue: past this many queued requests, new work
    /// is answered `overloaded` (explicit backpressure, never a drop).
    pub queue_capacity: usize,
    /// Ceiling on one frame's payload; larger length prefixes are
    /// rejected before any allocation.
    pub max_frame_bytes: usize,
    /// Default queue-to-start deadline applied when a request carries
    /// none. `None` = wait indefinitely.
    pub default_deadline_ms: Option<u64>,
    /// Capacity of each per-band design memo cache.
    pub design_cache_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            max_frame_bytes: protocol::DEFAULT_MAX_FRAME_BYTES,
            default_deadline_ms: None,
            design_cache_capacity: DEFAULT_CACHE_CAPACITY,
        }
    }
}

/// Monotonic server counters (thread lifecycle included, so shutdown
/// tests can assert nothing leaked).
#[derive(Default)]
struct ServerStats {
    accepted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    degraded: AtomicU64,
    expired: AtomicU64,
    protocol_errors: AtomicU64,
    internal_errors: AtomicU64,
    in_flight: AtomicU64,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    workers_spawned: AtomicU64,
    workers_exited: AtomicU64,
    readers_exited: AtomicU64,
}

/// Point-in-time view of the server's counters and cache economics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Requests admitted (queued or answered inline).
    pub accepted: u64,
    /// Requests refused with `overloaded` or during drain.
    pub rejected: u64,
    /// Requests answered with a terminal evaluation result.
    pub completed: u64,
    /// Completed requests whose result was flagged degraded/failed.
    pub degraded: u64,
    /// Admitted requests answered `expired` past their deadline.
    pub expired: u64,
    /// Malformed frames/JSON/fields observed (each got a structured
    /// error response or a clean close, never a panic).
    pub protocol_errors: u64,
    /// Handler panics converted to structured `error` responses.
    pub internal_errors: u64,
    /// Requests being evaluated right now.
    pub in_flight: u64,
    /// Requests admitted but not yet started.
    pub queue_depth: usize,
    /// Connections accepted / fully closed.
    pub connections_opened: u64,
    /// Reader threads that have exited.
    pub connections_closed: u64,
    /// Worker threads spawned / exited — equal after shutdown, which is
    /// the "no leaked threads" assertion.
    pub workers_spawned: u64,
    /// See `workers_spawned`.
    pub workers_exited: u64,
    /// Shared design-cache hits across all bands served, evicted band
    /// caches included.
    pub design_cache_hits: u64,
    /// Shared design-cache misses.
    pub design_cache_misses: u64,
    /// Evaluations refused memoization (degraded/failed outcomes).
    pub design_cache_uncacheable: u64,
    /// Entries currently memoized.
    pub design_cache_entries: usize,
    /// Process-wide compiled-plan cache hits (shared beyond this server).
    pub plan_cache_hits: u64,
    /// Process-wide compiled-plan cache misses.
    pub plan_cache_misses: u64,
    /// Compiled plans currently cached process-wide.
    pub plan_cache_entries: usize,
}

/// One admitted unit of work: the request plus the connection to answer.
struct Job {
    request: Request,
    conn: Arc<ConnWriter>,
    admitted: Instant,
}

/// Serialized write half of a connection: responses from the reader (for
/// inline/overload answers) and from any worker interleave frame-atomically.
struct ConnWriter {
    stream: Mutex<TcpStream>,
}

impl ConnWriter {
    fn send(&self, payload: &str) {
        let mut s = self.stream.lock().unwrap_or_else(PoisonError::into_inner);
        // A peer that vanished mid-response is not an error worth
        // propagating; the reader observes the close independently.
        let _ = protocol::write_frame(&mut *s, payload);
    }
}

/// Design-cache counters folded in from evicted band caches.
#[derive(Clone, Copy, Default)]
struct CacheTotals {
    hits: u64,
    misses: u64,
    uncacheable: u64,
}

impl CacheTotals {
    fn add(&mut self, cache: &DesignCache) {
        self.hits += cache.hits();
        self.misses += cache.misses();
        self.uncacheable += cache.uncacheable();
    }
}

struct Shared {
    cfg: ServeConfig,
    device: Phemt,
    sched: Scheduler<Job>,
    stats: ServerStats,
    /// Per-band design memo caches, keyed by the band's defining bits and
    /// bounded at [`MAX_BAND_CACHES`]. `DesignCache` itself refuses to
    /// memoize degraded/failed outcomes, so a fault-window result can
    /// never poison a later request.
    caches: MemoMap<[u64; 3], Arc<DesignCache>>,
    /// Counters of evicted band caches. Held across every band lookup, so
    /// a stats snapshot sees an evicted cache's counters in exactly one of
    /// `caches` and here, and the totals never drop.
    retired: Mutex<CacheTotals>,
    /// Raw handles of live connections, kept to unblock readers at
    /// shutdown. Keyed by connection id so a reader can retire its own
    /// entry when it exits — otherwise the stashed clone would hold the
    /// socket open (no FIN to the peer) and leak one fd per connection
    /// for the server's lifetime.
    conns: Mutex<BTreeMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
    readers: Mutex<Vec<JoinHandle<()>>>,
    accepting: AtomicBool,
}

impl Shared {
    fn design_cache_for(&self, band: &BandSpec) -> Arc<DesignCache> {
        let key = [
            band.f_lo().to_bits(),
            band.f_hi().to_bits(),
            band.n_points() as u64,
        ];
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        let Ok(fetched) = self.caches.get_or_insert_with(key, || {
            Ok::<_, Infallible>(Arc::new(DesignCache::new(self.cfg.design_cache_capacity)))
        });
        if let Some(evicted) = fetched.evicted {
            retired.add(&evicted);
        }
        fetched.value
    }

    fn note_protocol_error(&self) {
        OBS_PROTOCOL_ERRORS.add(1);
        self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running batch server. Dropping it (or calling [`Server::shutdown`])
/// drains and joins every thread.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns workers and the acceptor, and starts serving.
    pub fn start(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let local_addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            sched: Scheduler::new(workers_n, cfg.queue_capacity),
            cfg,
            device: Phemt::atf54143_like(),
            stats: ServerStats::default(),
            caches: MemoMap::new(MAX_BAND_CACHES),
            retired: Mutex::new(CacheTotals::default()),
            conns: Mutex::new(BTreeMap::new()),
            next_conn_id: AtomicU64::new(0),
            readers: Mutex::new(Vec::new()),
            accepting: AtomicBool::new(true),
        });
        let mut workers = Vec::with_capacity(workers_n);
        for i in 0..workers_n {
            let sh = Arc::clone(&shared);
            let h = thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_main(i, &sh))?;
            shared.stats.workers_spawned.fetch_add(1, Ordering::Relaxed);
            workers.push(h);
        }
        let sh = Arc::clone(&shared);
        let acceptor = thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || acceptor_main(listener, &sh))?;
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshot of the server counters and cache economics.
    pub fn stats(&self) -> StatsSnapshot {
        snapshot(&self.shared)
    }

    /// Graceful shutdown: stop accepting, refuse new submissions, finish
    /// everything already admitted, join every thread, then flush the
    /// observability sink so an armed profile reaches disk. Returns the
    /// final counter snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown_impl();
        snapshot(&self.shared)
    }

    fn shutdown_impl(&mut self) {
        if self.acceptor.is_none() {
            return; // already stopped
        }
        // 1. Draining listener: stop accepting, wake accept() with a
        //    no-op connection, reclaim the thread (drops the listener).
        self.shared.accepting.store(false, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        // 2. Drain the scheduler: readers now get `Draining` refusals,
        //    workers finish every admitted request, then exit.
        self.shared.sched.drain();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        // 3. Unblock readers parked in read() and join them. Responses
        //    already written stay deliverable to the peer.
        let live = std::mem::take(
            &mut *self
                .shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        );
        for s in live.values() {
            let _ = s.shutdown(Shutdown::Both);
        }
        drop(live);
        let handles: Vec<JoinHandle<()>> = self
            .shared
            .readers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // 4. Final flush: an armed aggregate profile / trace reaches disk.
        rfkit_obs::flush();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

fn snapshot(shared: &Shared) -> StatsSnapshot {
    let st = &shared.stats;
    let (design, entries) = {
        let retired = shared
            .retired
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut totals = *retired;
        let mut entries = 0;
        for (_, cache) in shared.caches.entries() {
            totals.add(&cache);
            entries += cache.len();
        }
        (totals, entries)
    };
    let plans = shared_plan_cache();
    StatsSnapshot {
        accepted: st.accepted.load(Ordering::Relaxed),
        rejected: st.rejected.load(Ordering::Relaxed),
        completed: st.completed.load(Ordering::Relaxed),
        degraded: st.degraded.load(Ordering::Relaxed),
        expired: st.expired.load(Ordering::Relaxed),
        protocol_errors: st.protocol_errors.load(Ordering::Relaxed),
        internal_errors: st.internal_errors.load(Ordering::Relaxed),
        in_flight: st.in_flight.load(Ordering::Relaxed),
        queue_depth: shared.sched.depth(),
        connections_opened: st.connections_opened.load(Ordering::Relaxed),
        connections_closed: st.connections_closed.load(Ordering::Relaxed),
        workers_spawned: st.workers_spawned.load(Ordering::Relaxed),
        workers_exited: st.workers_exited.load(Ordering::Relaxed),
        design_cache_hits: design.hits,
        design_cache_misses: design.misses,
        design_cache_uncacheable: design.uncacheable,
        design_cache_entries: entries,
        plan_cache_hits: plans.hits(),
        plan_cache_misses: plans.misses(),
        plan_cache_entries: plans.len(),
    }
}

fn acceptor_main(listener: TcpListener, shared: &Arc<Shared>) {
    for conn in listener.incoming() {
        if !shared.accepting.load(Ordering::Acquire) {
            break; // the shutdown wake-up connection lands here
        }
        let stream = match conn {
            Ok(s) => s,
            Err(_) => continue,
        };
        shared
            .stats
            .connections_opened
            .fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        if let Ok(raw) = stream.try_clone() {
            shared
                .conns
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .insert(conn_id, raw);
        }
        let sh = Arc::clone(shared);
        match thread::Builder::new()
            .name("serve-conn".into())
            .spawn(move || reader_main(stream, conn_id, &sh))
        {
            Ok(h) => shared
                .readers
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(h),
            Err(_) => {
                // Spawn failure: drop the connection (registry entry
                // included); the peer sees a close rather than a hang.
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .remove(&conn_id);
                shared
                    .stats
                    .connections_closed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

fn reader_main(mut stream: TcpStream, conn_id: u64, shared: &Arc<Shared>) {
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(ConnWriter {
            stream: Mutex::new(w),
        }),
        Err(_) => {
            finish_reader(shared, conn_id);
            return;
        }
    };
    loop {
        let payload = match protocol::read_frame(&mut stream, shared.cfg.max_frame_bytes) {
            Ok(p) => p,
            Err(e) => {
                match &e {
                    FrameError::Closed | FrameError::Io(_) => {}
                    FrameError::Truncated => shared.note_protocol_error(),
                    FrameError::Empty | FrameError::NotUtf8 | FrameError::Oversized(_) => {
                        shared.note_protocol_error();
                        writer.send(&protocol::error_response(0, &e.to_string()));
                    }
                }
                if e.recoverable() {
                    continue;
                }
                break;
            }
        };
        let request = match Request::parse(&payload) {
            Ok(r) => r,
            Err((id, msg)) => {
                shared.note_protocol_error();
                writer.send(&protocol::error_response(id, &msg));
                continue;
            }
        };
        match &request.body {
            // Cheap introspection answered inline: stats must stay
            // observable even when every worker is busy.
            RequestBody::Ping => {
                note_accepted(shared);
                let mut o = protocol::response_base(request.id, "ok");
                o.raw("result", "{\"pong\":1}");
                writer.send(&o.finish());
                note_completed(shared, false);
            }
            RequestBody::Stats => {
                note_accepted(shared);
                writer.send(&stats_response(request.id, shared));
                note_completed(shared, false);
            }
            _ => {
                let job = Job {
                    request,
                    conn: Arc::clone(&writer),
                    admitted: Instant::now(),
                };
                match shared.sched.submit(job) {
                    Ok(_depth) => note_accepted(shared),
                    Err((job, Refusal::Overloaded)) => {
                        OBS_REJECTED.add(1);
                        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        job.conn.send(&protocol::overloaded_response(
                            job.request.id,
                            shared.cfg.queue_capacity,
                        ));
                    }
                    Err((job, Refusal::Draining)) => {
                        OBS_REJECTED.add(1);
                        shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        job.conn.send(&protocol::error_response(
                            job.request.id,
                            "server is shutting down",
                        ));
                    }
                }
            }
        }
    }
    finish_reader(shared, conn_id);
}

/// Retires a finished connection: drops the registry's fd clone (so the
/// close actually reaches the peer as EOF once outstanding responses are
/// written) and records the lifecycle counters.
fn finish_reader(shared: &Shared, conn_id: u64) {
    shared
        .conns
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&conn_id);
    shared.stats.readers_exited.fetch_add(1, Ordering::Relaxed);
    shared
        .stats
        .connections_closed
        .fetch_add(1, Ordering::Relaxed);
}

fn note_accepted(shared: &Shared) {
    OBS_ACCEPTED.add(1);
    shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
}

fn note_completed(shared: &Shared, degraded: bool) {
    OBS_COMPLETED.add(1);
    shared.stats.completed.fetch_add(1, Ordering::Relaxed);
    if degraded {
        OBS_DEGRADED.add(1);
        shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
    }
}

fn worker_main(worker: usize, shared: &Arc<Shared>) {
    // Per-worker warm solver state: the workspace's factorization and
    // scratch buffers persist across requests, so steady-state verify
    // sweeps allocate nothing. Compiled `StampPlan`s come from the
    // process-wide shared cache.
    let mut ws = AcWorkspace::new();
    while let Some(job) = shared.sched.next(worker) {
        shared.stats.in_flight.fetch_add(1, Ordering::Relaxed);
        let _span = rfkit_obs::span("serve.request");
        let waited_ms = job.admitted.elapsed().as_millis().min(u64::MAX as u128) as u64;
        let deadline = job.request.deadline_ms.or(shared.cfg.default_deadline_ms);
        let payload = match deadline {
            Some(d) if waited_ms > d => {
                OBS_EXPIRED.add(1);
                shared.stats.expired.fetch_add(1, Ordering::Relaxed);
                protocol::expired_response(job.request.id, waited_ms, d)
            }
            _ => {
                // A panicking handler must cost one structured error
                // response, never the worker thread.
                match panic::catch_unwind(AssertUnwindSafe(|| {
                    handle(shared, &mut ws, &job.request)
                })) {
                    Ok((payload, degraded)) => {
                        note_completed(shared, degraded);
                        payload
                    }
                    Err(_) => {
                        shared.stats.internal_errors.fetch_add(1, Ordering::Relaxed);
                        protocol::error_response(
                            job.request.id,
                            &format!(
                                "internal error: `{}` handler panicked",
                                job.request.body.kind()
                            ),
                        )
                    }
                }
            }
        };
        OBS_LATENCY.record(job.admitted.elapsed().as_micros().min(u64::MAX as u128) as u64);
        job.conn.send(&payload);
        shared.stats.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
    shared.stats.workers_exited.fetch_add(1, Ordering::Relaxed);
}

/// Evaluates one queued request. Returns the response payload and
/// whether the outcome was flagged degraded/failed.
fn handle(shared: &Shared, ws: &mut AcWorkspace, req: &Request) -> (String, bool) {
    match &req.body {
        RequestBody::Sweep { vars, band, policy } => {
            let cache = shared.design_cache_for(band);
            let outcome = cache.evaluate_with(&shared.device, *vars, band, policy);
            sweep_response(req.id, &outcome)
        }
        RequestBody::Verify { vars, band } => verify_response(req.id, vars, band, ws),
        RequestBody::Design {
            goals,
            max_evals,
            seed,
            band,
        } => {
            let cfg = DesignConfig {
                max_evals: *max_evals,
                seed: *seed,
                band: band.clone(),
                improved: true,
            };
            let design = design_lna(&shared.device, goals, &cfg);
            (design_response(req.id, &design), false)
        }
        RequestBody::Yield {
            vars,
            band,
            spec,
            units,
            seed,
            policy,
        } => {
            let outcome = yield_analysis_robust(
                &shared.device,
                vars,
                spec,
                band,
                *units,
                &BuildConfig::default(),
                *seed,
                policy,
            );
            yield_response(req.id, &outcome)
        }
        // Inline types normally never reach a worker; answering them
        // here anyway keeps the dispatch total.
        RequestBody::Ping => {
            let mut o = protocol::response_base(req.id, "ok");
            o.raw("result", "{\"pong\":1}");
            (o.finish(), false)
        }
        RequestBody::Stats => (stats_response(req.id, shared), false),
    }
}

fn sweep_response(id: u64, outcome: &BandOutcome) -> (String, bool) {
    match outcome {
        BandOutcome::Complete(m) => {
            let mut o = protocol::response_base(id, "ok");
            o.raw("result", &protocol::metrics_json(m));
            (o.finish(), false)
        }
        BandOutcome::Degraded {
            metrics,
            diagnostics,
        } => {
            let mut o = protocol::response_base(id, "degraded");
            o.raw("result", &protocol::metrics_json(metrics));
            o.raw("diagnostics", &protocol::diagnostics_json(diagnostics));
            o.str(
                "error",
                "partial: metrics reduce over surviving grid points only",
            );
            (o.finish(), true)
        }
        BandOutcome::Infeasible => {
            let mut o = protocol::response_base(id, "infeasible");
            o.str("error", "bias point unreachable for these design variables");
            (o.finish(), false)
        }
        BandOutcome::Failed { diagnostics } => {
            let mut o = protocol::response_base(id, "failed");
            o.raw("diagnostics", &protocol::diagnostics_json(diagnostics));
            o.str(
                "error",
                &format!(
                    "{} grid points failed beyond the degrade policy",
                    diagnostics.len()
                ),
            );
            (o.finish(), true)
        }
    }
}

fn verify_response(
    id: u64,
    vars: &DesignVariables,
    band: &BandSpec,
    ws: &mut AcWorkspace,
) -> (String, bool) {
    let circuit = reference_netlist(vars);
    let freqs = band.grid();
    let batch = match cached_sweep(&circuit, freqs, ws) {
        Ok(b) => b,
        Err(e) => {
            return (
                protocol::error_response(id, &format!("netlist rejected: {e}")),
                false,
            )
        }
    };
    let mut s21_db = String::from("[");
    let mut s11_db = String::from("[");
    for p in 0..batch.len() {
        if p > 0 {
            s21_db.push(',');
            s11_db.push(',');
        }
        match batch.two_port(p) {
            Some(sp) => {
                s21_db.push_str(&fmt_f64(20.0 * sp.s21().abs().log10()));
                s11_db.push_str(&fmt_f64(20.0 * sp.s11().abs().log10()));
            }
            None => {
                s21_db.push_str("null");
                s11_db.push_str("null");
            }
        }
    }
    s21_db.push(']');
    s11_db.push(']');
    let diagnostics: Vec<PointDiagnostic> = batch
        .failures()
        .iter()
        .map(|(p, e)| PointDiagnostic {
            index: *p,
            at: freqs[*p],
            detail: e.to_string(),
        })
        .collect();
    let failed = diagnostics.len();
    let status = if failed == 0 {
        "ok"
    } else if failed < batch.len() {
        "degraded"
    } else {
        "failed"
    };
    let mut result = JsonObj::new();
    result.num("points", batch.len() as f64);
    result.num("failed", failed as f64);
    result.raw("s21_db", &s21_db);
    result.raw("s11_db", &s11_db);
    let mut o = protocol::response_base(id, status);
    o.raw("result", &result.finish());
    if failed > 0 {
        o.raw("diagnostics", &protocol::diagnostics_json(&diagnostics));
    }
    (o.finish(), failed > 0)
}

fn design_response(id: u64, design: &LnaDesign) -> String {
    let mut result = JsonObj::new();
    result.raw("snapped", &protocol::vars_json(&design.snapped));
    result.raw("continuous", &protocol::vars_json(&design.continuous));
    result.raw(
        "snapped_metrics",
        &protocol::metrics_json(&design.snapped_metrics),
    );
    result.raw(
        "continuous_metrics",
        &protocol::metrics_json(&design.continuous_metrics),
    );
    result.num("attainment", design.attainment);
    result.num("evaluations", design.evaluations as f64);
    let mut o = protocol::response_base(id, "ok");
    o.raw("result", &result.finish());
    o.finish()
}

fn yield_response(id: u64, outcome: &YieldOutcome) -> (String, bool) {
    let r = &outcome.report;
    let mut result = JsonObj::new();
    result.num("units", r.units as f64);
    result.num("passing", r.passing as f64);
    result.num("yield_fraction", r.yield_fraction());
    result.raw(
        "failures",
        &protocol::f64_array_json(&r.failures.map(|n| n as f64)),
    );
    match r.dominant_failure() {
        Some(name) => result.str("dominant_failure", name),
        None => result.raw("dominant_failure", "null"),
    }
    result.num("excluded_units", outcome.diagnostics.len() as f64);
    let status = if outcome.degraded { "degraded" } else { "ok" };
    let mut o = protocol::response_base(id, status);
    o.raw("result", &result.finish());
    if !outcome.diagnostics.is_empty() {
        o.raw(
            "diagnostics",
            &protocol::diagnostics_json(&outcome.diagnostics),
        );
    }
    (o.finish(), outcome.degraded)
}

fn stats_response(id: u64, shared: &Shared) -> String {
    let s = snapshot(shared);
    let mut design_cache = JsonObj::new();
    design_cache.num("hits", s.design_cache_hits as f64);
    design_cache.num("misses", s.design_cache_misses as f64);
    design_cache.num("uncacheable", s.design_cache_uncacheable as f64);
    design_cache.num("entries", s.design_cache_entries as f64);
    let mut plan_cache = JsonObj::new();
    plan_cache.num("hits", s.plan_cache_hits as f64);
    plan_cache.num("misses", s.plan_cache_misses as f64);
    plan_cache.num("entries", s.plan_cache_entries as f64);
    let mut result = JsonObj::new();
    result.num("accepted", s.accepted as f64);
    result.num("rejected", s.rejected as f64);
    result.num("completed", s.completed as f64);
    result.num("degraded", s.degraded as f64);
    result.num("expired", s.expired as f64);
    result.num("protocol_errors", s.protocol_errors as f64);
    result.num("internal_errors", s.internal_errors as f64);
    result.num("in_flight", s.in_flight as f64);
    result.num("queue_depth", s.queue_depth as f64);
    result.num("workers", s.workers_spawned as f64);
    result.num("pool_threads", rfkit_par::num_threads() as f64);
    result.raw("design_cache", &design_cache.finish());
    result.raw("plan_cache", &plan_cache.finish());
    let mut o = protocol::response_base(id, "ok");
    o.raw("result", &result.finish());
    o.finish()
}
