//! A bounded, deterministic memo map: the one cache shape the suite uses
//! for compiled plans, band evaluations and per-band serving state.
//!
//! * **Exact keys**, compared with `Ord`: no hashing, no tolerance.
//! * **Deterministic eviction**: when full, the smallest key goes, so
//!   contents never depend on a hasher seed.
//! * **Compute outside the lock**: [`MemoMap::get_or_insert_with`] runs
//!   the caller's computation with the lock released. Concurrent misses
//!   on one key may both compute; the first insert wins and every caller
//!   gets the resident value.
//! * **Poison recovery**: every update leaves the map valid, so a lock
//!   poisoned by a panic elsewhere is recovered, not propagated.
//! * **Counters** for hits, misses and evictions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// How one [`MemoMap::get_or_insert_with`] call was served.
#[derive(Debug, PartialEq)]
pub struct Fetched<V> {
    /// The value resident for the key.
    pub value: V,
    /// `true` when the key was present and nothing was computed.
    pub hit: bool,
    /// The value this call evicted to make room, if any. At most one
    /// entry is evicted per call: the map never exceeds its capacity.
    pub evicted: Option<V>,
}

/// A bounded, thread-safe memo map with exact keys and smallest-key-first
/// eviction (see the [module docs](self)).
#[derive(Debug)]
pub struct MemoMap<K, V> {
    capacity: usize,
    map: Mutex<BTreeMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl<K: Ord, V: Clone> MemoMap<K, V> {
    /// Creates a map bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        MemoMap {
            capacity: capacity.max(1),
            map: Mutex::new(BTreeMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<K, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the value for `key`, computing it with `compute` on a miss.
    ///
    /// One lookup, and on a miss at most one insert. An `Err` from
    /// `compute` is returned unchanged and nothing is stored, so failures
    /// are never memoized; the lookup still counts as a miss.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns.
    pub fn get_or_insert_with<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<Fetched<V>, E> {
        if let Some(value) = self.lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Fetched {
                value: value.clone(),
                hit: true,
                evicted: None,
            });
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compute()?;
        let mut map = self.lock();
        if let Some(resident) = map.get(&key) {
            return Ok(Fetched {
                value: resident.clone(),
                hit: false,
                evicted: None,
            });
        }
        let evicted = if map.len() >= self.capacity {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            map.pop_first().map(|(_, v)| v)
        } else {
            None
        };
        map.insert(key, value.clone());
        Ok(Fetched {
            value,
            hit: false,
            evicted,
        })
    }

    /// Every entry, cloned, in ascending key order. The order is a pure
    /// function of the contents, not of insertion order.
    pub fn entries(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        self.lock()
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Lookups served from the map.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compute.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(v: u32) -> impl FnOnce() -> Result<u32, ()> {
        move || Ok(v)
    }

    #[test]
    fn hit_serves_the_stored_value_without_computing() {
        let m = MemoMap::new(4);
        let first = m.get_or_insert_with(7u64, ok(70)).unwrap();
        assert_eq!((first.value, first.hit, first.evicted), (70, false, None));
        let second = m
            .get_or_insert_with(7u64, || -> Result<u32, ()> { panic!("recomputed a hit") })
            .unwrap();
        assert_eq!((second.value, second.hit), (70, true));
        assert_eq!((m.hits(), m.misses(), m.len()), (1, 1, 1));
    }

    #[test]
    fn full_map_evicts_the_smallest_key() {
        let m = MemoMap::new(2);
        for k in [5u64, 3, 9] {
            m.get_or_insert_with(k, ok(k as u32 * 10)).unwrap();
        }
        // Inserting 9 into {3, 5} evicted 3, regardless of insertion order.
        assert_eq!(m.entries(), vec![(5, 50), (9, 90)]);
        assert_eq!(m.evictions(), 1);
        let f = m.get_or_insert_with(1u64, ok(10)).unwrap();
        assert_eq!(f.evicted, Some(50));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn errors_are_returned_and_never_stored() {
        let m: MemoMap<u64, u32> = MemoMap::new(4);
        assert_eq!(
            m.get_or_insert_with(1, || Err("transient")),
            Err("transient")
        );
        assert!(m.is_empty());
        assert_eq!((m.hits(), m.misses()), (0, 1));
        // The next lookup computes again and stores the value.
        assert!(!m.get_or_insert_with(1, ok(5)).unwrap().hit);
        assert!(m.get_or_insert_with(1, ok(6)).unwrap().hit);
    }

    #[test]
    fn resident_value_wins_a_racing_insert() {
        let m = MemoMap::new(4);
        // The computation of the outer miss inserts the same key first,
        // as a concurrent thread would; the outer call must return the
        // resident value, not its own.
        let f = m
            .get_or_insert_with(2u64, || {
                m.get_or_insert_with(2u64, ok(20)).unwrap();
                Ok::<_, ()>(21)
            })
            .unwrap();
        assert_eq!((f.value, f.hit, m.len()), (20, false, 1));
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = MemoMap::new(4);
        m.get_or_insert_with(1u64, ok(1)).unwrap();
        let poisoner = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.lock();
            panic!("poison the lock");
        }));
        assert!(poisoner.is_err());
        assert!(m.get_or_insert_with(1u64, ok(9)).unwrap().hit);
        assert_eq!(m.len(), 1);
    }
}
