//! FIFO request scheduler with bounded admission.
//!
//! One queue, shared by every worker: a worker takes the oldest admitted
//! request, so requests start in admission order whichever worker is
//! free. Admission is bounded: past `capacity` queued requests, `submit`
//! hands the item back with [`Refusal::Overloaded`] so the caller can
//! answer with explicit backpressure — the scheduler never drops work
//! silently.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

// Queue depth observed at each admission (runtime-gated, write-only).
static OBS_QUEUE_DEPTH: rfkit_obs::Hist = rfkit_obs::Hist::new("serve.queue.depth");

/// Why a submission was refused. The item is handed back alongside.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// The bounded queue is at capacity — backpressure, not a drop.
    Overloaded,
    /// The scheduler is draining for shutdown.
    Draining,
}

pub(crate) struct Scheduler<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
    capacity: usize,
}

struct State<T> {
    queue: VecDeque<T>,
    draining: bool,
}

impl<T> Scheduler<T> {
    pub fn new(capacity: usize) -> Self {
        Scheduler {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                draining: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Admits `item` and returns the queue depth after admission, or
    /// refuses and hands the item back so the caller can respond.
    pub fn submit(&self, item: T) -> Result<usize, (T, Refusal)> {
        let mut s = self.lock();
        if s.draining {
            return Err((item, Refusal::Draining));
        }
        if s.queue.len() >= self.capacity {
            return Err((item, Refusal::Overloaded));
        }
        s.queue.push_back(item);
        let depth = s.queue.len();
        drop(s);
        OBS_QUEUE_DEPTH.record(depth as u64);
        self.ready.notify_one();
        Ok(depth)
    }

    /// The oldest queued item. Blocks while idle; returns `None` once
    /// draining *and* the queue is empty.
    pub fn next(&self) -> Option<T> {
        let mut s = self.lock();
        loop {
            if let Some(item) = s.queue.pop_front() {
                return Some(item);
            }
            if s.draining {
                return None;
            }
            s = self.ready.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Queued (admitted, not yet started) request count.
    pub fn depth(&self) -> usize {
        self.lock().queue.len()
    }

    /// Marks the scheduler draining: new submissions are refused, every
    /// parked worker wakes, and workers exit once the queue is empty —
    /// queued work still completes.
    pub fn drain(&self) {
        self.lock().draining = true;
        self.ready.notify_all();
    }

    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    /// The backpressure contract at scheduler level with an airtight
    /// gate: while one request is in flight and K are queued, the K+1th
    /// is refused `Overloaded`; everything admitted still completes.
    #[test]
    fn kth_plus_one_is_refused_while_in_flight_completes() {
        const K: usize = 3;
        let sched: Arc<Scheduler<u32>> = Arc::new(Scheduler::new(K));
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<u32>();

        let worker = {
            let sched = Arc::clone(&sched);
            std::thread::spawn(move || {
                while let Some(item) = sched.next() {
                    if item == 0 {
                        started_tx.send(()).unwrap();
                        gate_rx.recv().unwrap(); // hold the item in flight
                    }
                    done_tx.send(item).unwrap();
                }
            })
        };

        sched.submit(0).unwrap();
        started_rx.recv().unwrap(); // item 0 is now in flight, not queued
        for i in 1..=K as u32 {
            assert_eq!(sched.submit(i).unwrap(), i as usize);
        }
        assert_eq!(sched.depth(), K);
        let (refused, why) = sched.submit(99).unwrap_err();
        assert_eq!(refused, 99);
        assert_eq!(why, Refusal::Overloaded);

        gate_tx.send(()).unwrap(); // release the in-flight item
        sched.drain();
        worker.join().unwrap();
        let done: Vec<u32> = done_rx.try_iter().collect();
        assert_eq!(done, vec![0, 1, 2, 3], "admitted work completed in order");
        assert!(matches!(sched.submit(100), Err((100, Refusal::Draining))));
    }

    /// Workers take requests in admission order, and a drained
    /// scheduler still hands out everything it admitted before `None`.
    #[test]
    fn requests_start_in_admission_order() {
        let sched: Scheduler<u32> = Scheduler::new(64);
        for i in 0..8 {
            assert_eq!(sched.submit(i).unwrap(), i as usize + 1);
        }
        assert_eq!(sched.next(), Some(0));
        assert_eq!(sched.next(), Some(1));
        sched.drain();
        let rest: Vec<u32> = std::iter::from_fn(|| sched.next()).collect();
        assert_eq!(rest, (2..8).collect::<Vec<_>>());
        assert_eq!(sched.depth(), 0);
    }
}
