//! Memoization of band evaluations at snapped design points.
//!
//! E24 snapping and snap-repair quantize optimizer candidates onto a
//! coarse lattice, so different search iterates frequently collide on the
//! *same* quantized [`DesignVariables`] — and a full
//! [`BandMetrics::evaluate`] (15 frequency points through the noisy-ABCD
//! cascade) is pure in those variables. [`DesignCache`] keys a bounded
//! map on the exact bit patterns of the seven design variables and skips
//! the whole band evaluation on a hit.
//!
//! ## Determinism rules
//!
//! The cache preserves the repo's 1-vs-4-thread bit-identical contract
//! because it can only substitute a value for itself:
//!
//! * keys are the `f64::to_bits` of the variables — no rounding, no
//!   tolerance, so a hit means *exactly* the same inputs;
//! * the cached value is a pure function of the key (device and band are
//!   fixed per cache), so whichever thread populates an entry first, every
//!   later reader observes the value it would have computed itself;
//! * eviction pops the smallest key — a deterministic order — and at
//!   worst turns a would-be hit into a recomputation of the identical
//!   value.
//!
//! The map is an [`rfkit_num::MemoMap`]: poison-tolerant, and evaluation
//! runs *outside* its lock so parallel workers never serialize on the
//! expensive part.

use crate::amplifier::{Amplifier, DesignVariables};
use crate::band::{BandMetrics, BandOutcome, BandSpec};
use rfkit_device::Phemt;
use rfkit_num::MemoMap;
use rfkit_robust::DegradePolicy;
use std::sync::atomic::{AtomicU64, Ordering};

// Hit/miss/eviction telemetry (runtime-gated, write-only; see rfkit-obs).
// A cache thrashes when `design.cache.evict` outgrows `design.cache.hit`.
static OBS_CACHE_HIT: rfkit_obs::Counter = rfkit_obs::Counter::new("design.cache.hit");
static OBS_CACHE_MISS: rfkit_obs::Counter = rfkit_obs::Counter::new("design.cache.miss");
static OBS_CACHE_EVICT: rfkit_obs::Counter = rfkit_obs::Counter::new("design.cache.evict");
static OBS_CACHE_UNCACHEABLE: rfkit_obs::Counter =
    rfkit_obs::Counter::new("design.cache.uncacheable");

/// Default entry capacity: generous for a 6k-evaluation design run while
/// bounding memory to a few hundred kilobytes.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Exact-bits key: the seven design variables as `u64` bit patterns.
type Key = [u64; 7];

/// A bounded, thread-safe, deterministic memo cache for
/// [`BandMetrics::evaluate`] results at quantized design points.
#[derive(Debug)]
pub struct DesignCache {
    map: MemoMap<Key, Option<BandMetrics>>,
    uncacheable: AtomicU64,
}

impl DesignCache {
    /// Creates a cache bounded to `capacity` entries (at least 1).
    pub fn new(capacity: usize) -> Self {
        DesignCache {
            map: MemoMap::new(capacity),
            uncacheable: AtomicU64::new(0),
        }
    }

    /// Creates a cache with [`DEFAULT_CACHE_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        DesignCache::new(DEFAULT_CACHE_CAPACITY)
    }

    fn key(vars: &DesignVariables) -> Key {
        [
            vars.vds.to_bits(),
            vars.ids.to_bits(),
            vars.l1.to_bits(),
            vars.ls_deg.to_bits(),
            vars.l2.to_bits(),
            vars.c2.to_bits(),
            vars.r_bias.to_bits(),
        ]
    }

    /// Inverse of [`DesignCache::key`]: exact-bits round trip, so the
    /// reconstructed variables are the very values that were evaluated.
    fn vars_from_key(key: &Key) -> DesignVariables {
        DesignVariables {
            vds: f64::from_bits(key[0]),
            ids: f64::from_bits(key[1]),
            l1: f64::from_bits(key[2]),
            ls_deg: f64::from_bits(key[3]),
            l2: f64::from_bits(key[4]),
            c2: f64::from_bits(key[5]),
            r_bias: f64::from_bits(key[6]),
        }
    }

    /// Deterministic read-only export of every cached entry as
    /// `(variables, metrics)`, in ascending key order (`None` marks a
    /// cached-infeasible point).
    ///
    /// The order is a pure function of the cache *contents* — the map
    /// sorts on the exact variable bits — so two caches
    /// holding the same set of evaluated points snapshot identically no
    /// matter how many threads raced to populate them or in which order
    /// insertions happened. This is the property that lets a surrogate
    /// model train from a warm cache without bending the repo's
    /// thread-count determinism contract. (Under eviction pressure the
    /// *contents* themselves can depend on insertion order; keep the
    /// cache under capacity when a snapshot must be reproducible.)
    pub fn snapshot(&self) -> Vec<(DesignVariables, Option<BandMetrics>)> {
        self.map
            .entries()
            .into_iter()
            .map(|(k, v)| (Self::vars_from_key(&k), v))
            .collect()
    }

    /// Band metrics at `vars`, served from the cache when the exact bit
    /// pattern was evaluated before. Infeasible results (`None`) are
    /// cached too — a repeatedly probed infeasible corner is as expensive
    /// as a feasible one.
    pub fn evaluate(
        &self,
        device: &Phemt,
        vars: DesignVariables,
        band: &BandSpec,
    ) -> Option<BandMetrics> {
        match self.evaluate_with(device, vars, band, &DegradePolicy::strict()) {
            BandOutcome::Complete(m) => Some(m),
            _ => None,
        }
    }

    /// Like [`DesignCache::evaluate`], but evaluates through
    /// [`BandMetrics::evaluate_robust`] and returns the full
    /// [`BandOutcome`].
    ///
    /// Only outcomes that are pure functions of the design — complete
    /// sweeps and deterministic infeasibility — enter the cache. Degraded
    /// and failed sweeps reflect transient solver trouble: memoizing one
    /// would pin a corrupted partial to the design point and keep serving
    /// it after the fault clears, so they are recomputed on every query
    /// (and counted by [`DesignCache::uncacheable`]).
    pub fn evaluate_with(
        &self,
        device: &Phemt,
        vars: DesignVariables,
        band: &BandSpec,
        policy: &DegradePolicy,
    ) -> BandOutcome {
        let fetched = self.map.get_or_insert_with(Self::key(&vars), || {
            let outcome = BandMetrics::evaluate_robust(&Amplifier::new(device, vars), band, policy);
            if outcome.cacheable() {
                Ok(outcome.metrics().copied())
            } else {
                Err(outcome)
            }
        });
        match fetched {
            Ok(f) => {
                if f.hit {
                    OBS_CACHE_HIT.add(1);
                } else {
                    OBS_CACHE_MISS.add(1);
                }
                if f.evicted.is_some() {
                    OBS_CACHE_EVICT.add(1);
                }
                f.value
                    .map_or(BandOutcome::Infeasible, BandOutcome::Complete)
            }
            Err(uncacheable) => {
                OBS_CACHE_MISS.add(1);
                self.uncacheable.fetch_add(1, Ordering::Relaxed);
                OBS_CACHE_UNCACHEABLE.add(1);
                uncacheable
            }
        }
    }

    /// Cache hits so far.
    pub fn hits(&self) -> u64 {
        self.map.hits()
    }

    /// Cache misses (full evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.map.misses()
    }

    /// Entries evicted by the capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.map.evictions()
    }

    /// Evaluations whose outcome was degraded or failed and therefore
    /// never entered the cache.
    pub fn uncacheable(&self) -> u64 {
        self.uncacheable.load(Ordering::Relaxed)
    }

    /// Current number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Hit fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hits();
        let total = hits + self.misses();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> DesignVariables {
        DesignVariables {
            vds: 3.0,
            ids: 0.050,
            l1: 6.8e-9,
            ls_deg: 0.4e-9,
            l2: 10e-9,
            c2: 2.2e-12,
            r_bias: 30.0,
        }
    }

    #[test]
    fn hit_returns_bit_identical_metrics() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(16);
        let first = cache.evaluate(&d, vars(), &band);
        let second = cache.evaluate(&d, vars(), &band);
        let amp = Amplifier::new(&d, vars());
        let fresh = BandMetrics::evaluate(&amp, &band);
        assert_eq!(first, fresh);
        assert_eq!(second, fresh);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-15);
    }

    #[test]
    fn infeasible_results_are_cached() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(16);
        let mut bad = vars();
        bad.ids = 3.0;
        assert_eq!(cache.evaluate(&d, bad, &band), None);
        assert_eq!(cache.evaluate(&d, bad, &band), None);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn capacity_bound_evicts_deterministically() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(2);
        let mut v = vars();
        for i in 0..4 {
            v.r_bias = 30.0 + i as f64;
            cache.evaluate(&d, v, &band);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 2);
        assert_eq!(cache.misses(), 4);
        // A re-query of an evicted key recomputes the identical value.
        v.r_bias = 30.0;
        let amp = Amplifier::new(&d, v);
        assert_eq!(
            cache.evaluate(&d, v, &band),
            BandMetrics::evaluate(&amp, &band)
        );
    }

    #[test]
    fn robust_lookup_serves_hits_as_outcomes() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(16);
        let policy = DegradePolicy::strict();
        // Miss then hit: both Complete, bit-identical, and a feasible
        // sweep is cached (nothing marked uncacheable).
        let first = cache.evaluate_with(&d, vars(), &band, &policy);
        let second = cache.evaluate_with(&d, vars(), &band, &policy);
        assert!(matches!(first, BandOutcome::Complete(_)));
        assert_eq!(first, second);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.uncacheable(), 0);
        // An infeasible corner round-trips as Infeasible, also cached.
        let mut bad = vars();
        bad.ids = 3.0;
        assert_eq!(
            cache.evaluate_with(&d, bad, &band, &policy),
            BandOutcome::Infeasible
        );
        assert_eq!(
            cache.evaluate_with(&d, bad, &band, &policy),
            BandOutcome::Infeasible
        );
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.len(), 2);
        // The strict evaluate() view agrees with the outcome view.
        assert_eq!(cache.evaluate(&d, vars(), &band), first.metrics().copied());
    }

    #[test]
    fn snapshot_round_trips_exact_bits_in_key_order() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(16);
        let mut evaluated = Vec::new();
        // Insert in descending r_bias order; the snapshot must come back
        // sorted by key bits regardless.
        for i in (0..3).rev() {
            let mut v = vars();
            v.r_bias = 30.0 + i as f64;
            let m = cache.evaluate(&d, v, &band);
            evaluated.push((v, m));
        }
        let mut bad = vars();
        bad.ids = 3.0; // cached-infeasible entry must appear as None
        assert_eq!(cache.evaluate(&d, bad, &band), None);

        let snap = cache.snapshot();
        assert_eq!(snap.len(), 4);
        for (v, m) in &evaluated {
            let hit = snap.iter().find(|(sv, _)| sv == v).expect("entry present");
            assert_eq!(hit.1, *m, "snapshot metrics differ from evaluation");
        }
        assert!(snap.iter().any(|(sv, sm)| *sv == bad && sm.is_none()));
        // Key order is bit order: vds ties, then ids bits decide.
        let keys: Vec<_> = snap.iter().map(|(v, _)| DesignCache::key(v)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "snapshot is not in ascending key order");
    }

    #[test]
    fn distinct_bits_never_collide() {
        let d = Phemt::atf54143_like();
        let band = BandSpec::gnss();
        let cache = DesignCache::new(16);
        let a = cache.evaluate(&d, vars(), &band).expect("feasible");
        let mut v = vars();
        v.l1 = f64::from_bits(v.l1.to_bits() + 1); // 1 ulp away
        let b = cache.evaluate(&d, v, &band).expect("feasible");
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        // The two keys are different entries even though the values are
        // numerically indistinguishable for all practical purposes.
        assert_eq!(cache.len(), 2);
        let _ = (a, b);
    }
}
