//! # rfkit-par
//!
//! Dependency-free parallel evaluation engine for the rfkit workspace.
//!
//! The crate provides an ordered parallel map over slices and index ranges,
//! built entirely on `std`: a lazily-started persistent worker pool,
//! guided work distribution through a single atomic index, and panic
//! propagation back to the caller. It exists because every hot loop in the
//! reproduction — optimizer population evaluation, Monte-Carlo yield runs,
//! band-objective frequency sweeps, extraction residuals — is
//! embarrassingly parallel across items, and the offline build environment
//! rules out rayon.
//!
//! ## Determinism contract
//!
//! `par_map` and friends return results in **input order**, and the worker
//! pool never touches an RNG. Callers keep every random draw in their
//! serial control loop and hand the engine pure `Fn + Sync` evaluations,
//! so a fixed seed yields bit-identical output at any thread count. The
//! optimizers in `rfkit-opt` are structured this way and covered by a
//! `RFKIT_THREADS=1` vs `RFKIT_THREADS=4` determinism test.
//!
//! ## Scheduling
//!
//! Participants claim contiguous index ranges from one shared atomic
//! index. Each claim is guided: it takes `max(1, remaining / (2·threads))`
//! items by compare-and-swap, so early claims are large (little contention
//! on the index) and the last ones are single items (no participant is
//! left holding a long tail while the others idle).
//!
//! ## Thread count
//!
//! The effective thread count is, in priority order: `ParConfig::threads`
//! if non-zero, else the `RFKIT_THREADS` environment variable, else
//! [`std::thread::available_parallelism`]. Batches at or below
//! `ParConfig::serial_threshold` run serially on the caller — dispatching
//! a handful of microsecond-scale evaluations costs more than it saves.
//! Nested calls (a `par_map` inside a worker) also run serially, which
//! makes composition deadlock-free by construction. Both serial cases are
//! decided before the thread count is resolved, so a small or nested
//! batch (a 15-point band sweep, say) costs a comparison and a
//! thread-local read. `RFKIT_THREADS` is re-read whenever the count is
//! needed; `available_parallelism()` is resolved once per process.
//!
//! ## Example
//!
//! ```
//! let xs: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let squares = rfkit_par::par_map(&xs, |x| x * x);
//! assert_eq!(squares[17], 17.0 * 17.0);
//! ```

#![warn(missing_docs)]
// UNSAFE AUDIT: rfkit-par is the only workspace crate allowed to contain
// `unsafe` (the workspace lint table denies `unsafe_code` on every target,
// and every other library crate also carries `#![forbid(unsafe_code)]`;
// the `allow` below is the one exemption). The crate uses unsafe for
// exactly three things, each with a SAFETY comment at the site, which
// `clippy::undocumented_unsafe_blocks` checks for:
//   1. writing each result slot exactly once from whichever worker claims
//      its index (`Slot<R>`: disjoint writes, no reads until the latch
//      drains, then a layout-compatible Vec reinterpretation);
//   2. erasing the lifetime of the caller's borrowed closure so it can
//      cross into the pool queue (the caller blocks on a latch until every
//      helper is done with it);
//   3. the `Send`/`Sync` impls that state those two invariants to the
//      compiler.
// Audit checklist: any new unsafe block must (a) keep all writes disjoint,
// (b) never extend a borrow beyond the latch it is guarded by, and
// (c) carry a `// SAFETY:` comment directly above it.
#![allow(unsafe_code)]

use std::any::Any;
use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};
use std::thread;

/// Hard ceiling on pool size; `RFKIT_THREADS` is clamped to this.
const MAX_THREADS: usize = 64;

// Pool telemetry (rfkit-obs, runtime-gated, write-only: never read back
// by the engine, so it cannot perturb scheduling or results).
static OBS_TASKS: rfkit_obs::Counter = rfkit_obs::Counter::new("par.tasks");
static OBS_BATCHES: rfkit_obs::Counter = rfkit_obs::Counter::new("par.batches");
static OBS_SERIAL_FALLBACK: rfkit_obs::Counter = rfkit_obs::Counter::new("par.serial_fallback");
static OBS_ITEMS_PER_PARTICIPANT: rfkit_obs::Hist =
    rfkit_obs::Hist::new("par.items_per_participant");
static OBS_QUEUE_WAIT_US: rfkit_obs::Hist = rfkit_obs::Hist::new("par.queue_wait_us");

/// Tuning knobs for a parallel map call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParConfig {
    /// Number of participating threads including the caller.
    /// `0` means auto: `RFKIT_THREADS` if set, else `available_parallelism()`.
    pub threads: usize,
    /// Batches of at most this many items run serially on the caller.
    pub serial_threshold: usize,
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig {
            threads: 0,
            serial_threshold: 16,
        }
    }
}

impl ParConfig {
    /// Config that always runs serially, regardless of environment.
    pub fn serial() -> Self {
        ParConfig {
            threads: 1,
            ..ParConfig::default()
        }
    }

    /// Config pinned to exactly `threads` participants with no serial
    /// fallback threshold (used by benches and determinism tests).
    pub fn exact(threads: usize) -> Self {
        ParConfig {
            threads: threads.max(1),
            serial_threshold: 0,
        }
    }
}

/// Effective auto thread count: `RFKIT_THREADS` if set to a positive
/// integer, else `available_parallelism()`, clamped to `MAX_THREADS` (64).
///
/// `RFKIT_THREADS` is read on every call so tests and callers can vary it
/// at runtime; `available_parallelism()` (which may read cgroup files) is
/// resolved once per process.
pub fn num_threads() -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    let n = match std::env::var("RFKIT_THREADS") {
        Ok(s) => s.trim().parse::<usize>().ok().filter(|&v| v >= 1),
        Err(_) => None,
    };
    n.unwrap_or_else(|| {
        *AVAILABLE.get_or_init(|| thread::available_parallelism().map_or(1, |p| p.get()))
    })
    .min(MAX_THREADS)
}

/// True while the current thread is executing inside a parallel region;
/// nested parallel maps detect this and run serially.
pub fn in_parallel_region() -> bool {
    IN_PAR.with(|flag| flag.get())
}

/// Ordered parallel map over a slice with auto configuration.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_cfg(&ParConfig::default(), items, f)
}

/// Ordered parallel map over a slice where the closure also receives the
/// item index.
pub fn par_map_indexed<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_indexed_cfg(&ParConfig::default(), items, f)
}

/// [`par_map`] with explicit configuration.
pub fn par_map_cfg<T, R, F>(cfg: &ParConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_collect(items.len(), cfg, |i| f(&items[i]))
}

/// [`par_map_indexed`] with explicit configuration.
pub fn par_map_indexed_cfg<T, R, F>(cfg: &ParConfig, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_collect(items.len(), cfg, |i| f(i, &items[i]))
}

/// Core primitive: evaluate `f(0), f(1), …, f(n-1)` across the pool and
/// collect the results in index order.
///
/// This is the right entry point when there is no input slice — e.g. a
/// Monte-Carlo loop over unit indices or a multistart loop over seeds.
///
/// # Panics
///
/// If `f` panics on any index, the first panic payload is re-thrown on
/// the caller after all in-flight work has drained. Results computed
/// before the panic are leaked, not dropped.
pub fn par_collect<R, F>(n: usize, cfg: &ParConfig, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    // The two serial conditions that need no thread count come first: a
    // band sweep is below the threshold on every call and should not pay
    // for resolving the pool size.
    if n <= cfg.serial_threshold || in_parallel_region() {
        return run_serial(n, f);
    }
    let threads = if cfg.threads == 0 {
        num_threads()
    } else {
        cfg.threads.min(MAX_THREADS)
    };
    if threads <= 1 {
        return run_serial(n, f);
    }

    // A batch of n items takes at least min(n, 2) guided claims and at
    // most n; no point dispatching more helpers than there are items
    // beyond the caller's first.
    let wanted_helpers = (threads - 1).min(n - 1);
    let helpers = Pool::global().ensure_workers(wanted_helpers);
    if helpers == 0 {
        return run_serial(n, f);
    }

    // Telemetry is gated once per batch; queue wait is measured from just
    // before submit to each participant's first successful claim.
    let armed = rfkit_obs::enabled();
    if armed {
        OBS_BATCHES.add(1);
        OBS_TASKS.add(n as u64);
    }
    let submit_us = if armed { rfkit_obs::now_us() } else { 0 };

    let results: Vec<Slot<R>> = (0..n).map(|_| Slot::new()).collect();
    let next = AtomicUsize::new(0);
    let abort = AtomicBool::new(false);
    let latch = Latch::new(helpers);

    let work = || {
        let _region = RegionGuard::enter();
        // Call-path anchor for aggregate profiles: spans opened by the
        // evaluated closure nest under `par.task` on every participant.
        // Pool workers have no caller stack of their own, so without
        // this anchor their spans would sit at the profile root,
        // indistinguishable from top-level phases.
        let _task = rfkit_obs::span("par.task");
        let mut my_items = 0u64;
        let mut first_claim = true;
        let outcome = catch_unwind(AssertUnwindSafe(|| loop {
            if abort.load(Ordering::Relaxed) {
                break;
            }
            let Some((start, end)) = claim(&next, n, threads) else {
                break;
            };
            if armed && first_claim {
                first_claim = false;
                OBS_QUEUE_WAIT_US.record(rfkit_obs::now_us().saturating_sub(submit_us));
            }
            #[allow(clippy::needless_range_loop)] // i is the work-item id, not just an index
            for i in start..end {
                my_items += 1;
                let value = f(i);
                // SAFETY: claimed ranges never overlap, so each i goes to
                // exactly one participant and this is the only write to
                // slot i; the caller does not read slots until the latch
                // drains.
                unsafe { (*results[i].0.get()).write(value) };
            }
        }));
        if armed && my_items > 0 {
            OBS_ITEMS_PER_PARTICIPANT.record(my_items);
        }
        if let Err(payload) = outcome {
            abort.store(true, Ordering::Relaxed);
            latch.record_panic(payload);
        }
    };

    {
        // The guard's Drop waits for every helper to finish before `work`,
        // `results`, `next`, `abort` or `latch` can leave scope — even if
        // something on the caller path unwinds first.
        let _wait = WaitGuard(&latch);
        let task: &(dyn Fn() + Sync) = &work;
        // SAFETY: the lifetime is erased so the borrow can cross into the
        // pool's queue; the pointer is only dereferenced by helpers that
        // count down `latch` afterwards, and `_wait` blocks this scope's
        // exit until the count reaches zero, so the referent outlives all
        // uses.
        let task: &'static (dyn Fn() + Sync) = unsafe { std::mem::transmute(task) };
        let job = Job {
            task: task as *const (dyn Fn() + Sync),
            latch: &latch as *const Latch,
        };
        Pool::global().submit(job, helpers);
        work();
    }

    if let Some(payload) = latch.take_panic() {
        resume_unwind(payload);
    }

    let mut raw = ManuallyDrop::new(results);
    // SAFETY: every index was claimed exactly once and no panic occurred,
    // so all n slots are initialized. `Slot<R>` is `repr(transparent)`
    // over `UnsafeCell<MaybeUninit<R>>`, which has the layout of `R`.
    unsafe { Vec::from_raw_parts(raw.as_mut_ptr() as *mut R, raw.len(), raw.capacity()) }
}

/// Claims the next guided range `start..end` of `0..n` from `next`:
/// `max(1, remaining / (2·threads))` items, or `None` once every index is
/// taken. The compare-and-swap retries when another participant claimed
/// first, so claimed ranges never overlap. `Relaxed` suffices: the index
/// publishes no data, and the results reach the caller through the
/// latch's mutex.
fn claim(next: &AtomicUsize, n: usize, threads: usize) -> Option<(usize, usize)> {
    let mut start = next.load(Ordering::Relaxed);
    loop {
        if start >= n {
            return None;
        }
        let end = start + ((n - start) / (2 * threads)).max(1);
        match next.compare_exchange_weak(start, end, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return Some((start, end)),
            Err(current) => start = current,
        }
    }
}

/// The serial fallback of [`par_collect`]: `f` over `0..n` on the caller.
fn run_serial<R, F: Fn(usize) -> R>(n: usize, f: F) -> Vec<R> {
    if rfkit_obs::enabled() {
        OBS_SERIAL_FALLBACK.add(1);
        OBS_TASKS.add(n as u64);
    }
    (0..n).map(f).collect()
}

thread_local! {
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// RAII marker for "this thread is inside a parallel region".
struct RegionGuard {
    was: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let was = IN_PAR.with(|flag| flag.replace(true));
        RegionGuard { was }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let was = self.was;
        IN_PAR.with(|flag| flag.set(was));
    }
}

/// One result slot, written exactly once by whichever participant claims
/// its index.
#[repr(transparent)]
struct Slot<R>(UnsafeCell<MaybeUninit<R>>);

impl<R> Slot<R> {
    fn new() -> Self {
        Slot(UnsafeCell::new(MaybeUninit::uninit()))
    }
}

// SAFETY: concurrent access is disjoint by construction (one writer per
// index, no readers until the latch drains); R crosses threads, hence
// the R: Send bound.
unsafe impl<R: Send> Sync for Slot<R> {}

/// Countdown latch with a slot for the first panic payload.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panic: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut rem = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *rem -= 1;
        if *rem == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut rem = self
            .remaining
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        while *rem > 0 {
            rem = self.done.wait(rem).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn record_panic(&self, payload: Box<dyn Any + Send>) {
        let mut slot = self.panic.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// Blocks on drop until the latch drains; keeps borrowed job state alive
/// for as long as any helper might touch it.
struct WaitGuard<'a>(&'a Latch);

impl Drop for WaitGuard<'_> {
    fn drop(&mut self) {
        self.0.wait();
    }
}

/// A unit of work queued to the pool: a type-erased borrow of the
/// caller's closure plus the latch it must count down.
struct Job {
    task: *const (dyn Fn() + Sync),
    latch: *const Latch,
}

// SAFETY: both pointers target stack data of a caller that is blocked (via
// WaitGuard) until the latch — which this job counts down after its last
// use of `task` — reaches zero. The referents are Sync.
unsafe impl Send for Job {}

/// The process-wide persistent worker pool.
struct Pool {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    spawned: Mutex<usize>,
}

impl Pool {
    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            spawned: Mutex::new(0),
        })
    }

    /// Grows the pool to at least `target` workers (capped); returns the
    /// number of workers actually available.
    fn ensure_workers(&'static self, target: usize) -> usize {
        let mut count = self.spawned.lock().unwrap_or_else(PoisonError::into_inner);
        while *count < target.min(MAX_THREADS - 1) {
            let spawned = thread::Builder::new()
                .name(format!("rfkit-par-{}", *count))
                .spawn(move || self.worker_main());
            if spawned.is_err() {
                break;
            }
            *count += 1;
        }
        (*count).min(target)
    }

    fn submit(&self, job: Job, copies: usize) {
        let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        for _ in 0..copies {
            queue.push_back(job.clone());
        }
        drop(queue);
        self.available.notify_all();
    }

    fn worker_main(&self) {
        IN_PAR.with(|flag| flag.set(true));
        loop {
            let job = {
                let mut queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
                loop {
                    if let Some(job) = queue.pop_front() {
                        break job;
                    }
                    queue = self
                        .available
                        .wait(queue)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            // SAFETY: the submitting caller is latched until count_down,
            // so both referents are alive for the duration of this block.
            unsafe {
                let task = &*job.task;
                // Backstop only: tasks built by par_collect already catch
                // their own unwinds.
                let _ = catch_unwind(AssertUnwindSafe(task));
                (*job.latch).count_down();
            }
        }
    }
}

impl Clone for Job {
    fn clone(&self) -> Self {
        Job {
            task: self.task,
            latch: self.latch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg4() -> ParConfig {
        ParConfig::exact(4)
    }

    #[test]
    fn matches_serial_on_adversarial_sizes() {
        // 0, 1, below the default threshold, at it, and far above the
        // thread count.
        for n in [0usize, 1, 15, 16, 17, 64, 1000, 4097] {
            let items: Vec<u64> = (0..n as u64).collect();
            let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
            let parallel = par_map_cfg(&cfg4(), &items, |x| x * x + 1);
            assert_eq!(parallel, serial, "n = {n}");
        }
    }

    #[test]
    fn preserves_input_ordering() {
        let items: Vec<usize> = (0..5000).collect();
        let out = par_map_indexed_cfg(&cfg4(), &items, |i, &x| {
            assert_eq!(i, x);
            i * 3
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 3);
        }
    }

    #[test]
    fn par_collect_without_input_slice() {
        let out = par_collect(257, &cfg4(), |i| i as f64 * 0.5);
        assert_eq!(out.len(), 257);
        assert_eq!(out[200], 100.0);
    }

    #[test]
    fn serial_threshold_short_circuits() {
        // Threshold larger than n: must run on the caller thread.
        let caller = thread::current().id();
        let cfg = ParConfig {
            threads: 4,
            serial_threshold: 100,
        };
        let out = par_collect(50, &cfg, |i| {
            assert_eq!(thread::current().id(), caller);
            i
        });
        assert_eq!(out, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn nested_calls_run_serially_without_deadlock() {
        let outer: Vec<usize> = (0..64).collect();
        let out = par_map_cfg(&cfg4(), &outer, |&i| {
            let inner: Vec<usize> = (0..32).collect();
            par_map_cfg(&cfg4(), &inner, |&j| i * 100 + j)
                .iter()
                .sum::<usize>()
        });
        for (i, v) in out.iter().enumerate() {
            let expected: usize = (0..32).map(|j| i * 100 + j).sum();
            assert_eq!(*v, expected);
        }
    }

    #[test]
    fn propagates_worker_panics() {
        let items: Vec<usize> = (0..512).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            par_map_cfg(&cfg4(), &items, |&x| {
                if x == 300 {
                    panic!("boom at {x}");
                }
                x
            })
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("boom at 300"), "payload: {msg}");
        // The pool must still be usable afterwards.
        let ok = par_map_cfg(&cfg4(), &items, |&x| x + 1);
        assert_eq!(ok[0], 1);
        assert_eq!(ok[511], 512);
    }

    #[test]
    fn pool_survives_many_batches() {
        for round in 0..200 {
            let items: Vec<usize> = (0..97).collect();
            let out = par_map_cfg(&cfg4(), &items, |&x| x + round);
            assert_eq!(out[96], 96 + round);
        }
    }

    #[test]
    fn guided_claims_tile_the_range_shrinking_to_single_items() {
        // Claimed back to back, the ranges cover 0..n without a gap or an
        // overlap, never grow, and end in single items.
        for (n, threads) in [(1usize, 2usize), (16, 2), (70, 2), (333, 4), (4097, 64)] {
            let next = AtomicUsize::new(0);
            let mut covered = 0;
            let mut last_len = usize::MAX;
            while let Some((start, end)) = claim(&next, n, threads) {
                assert_eq!(start, covered, "n = {n}: gap or overlap");
                let len = end - start;
                assert!(len >= 1 && len <= last_len, "n = {n}: claim grew");
                assert!(len <= (n / (2 * threads)).max(1));
                last_len = len;
                covered = end;
            }
            assert_eq!(covered, n);
            assert_eq!(last_len, 1, "n = {n}: tail claim is a single item");
        }
        // Pinned thread counts at every size from empty to past the
        // single-item regime.
        for threads in [2usize, 3, 4] {
            for n in 0..=40 {
                let cfg = ParConfig::exact(threads);
                let out = par_collect(n, &cfg, |i| i * 2);
                assert_eq!(out, (0..n).map(|i| i * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn num_threads_reads_environment_dynamically() {
        // This is the only test that touches the env var, so there is no
        // cross-test race despite the parallel test harness.
        std::env::set_var("RFKIT_THREADS", "3");
        assert_eq!(num_threads(), 3);
        std::env::set_var("RFKIT_THREADS", "not-a-number");
        assert!(num_threads() >= 1);
        std::env::remove_var("RFKIT_THREADS");
        assert!(num_threads() >= 1);
    }

    #[test]
    fn non_copy_results_are_moved_intact() {
        let items: Vec<usize> = (0..300).collect();
        let out = par_map_cfg(&cfg4(), &items, |&x| vec![x; 3]);
        assert_eq!(out[299], vec![299, 299, 299]);
        assert_eq!(out.len(), 300);
    }
}
