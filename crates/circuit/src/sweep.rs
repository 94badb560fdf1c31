//! Batched AC sweep engine.
//!
//! Every caller in the suite (band verification, yield Monte-Carlo,
//! benchmark sweeps) wants a whole frequency *grid*, so a compiled
//! [`StampPlan`](crate::StampPlan) has one solve entry point,
//! [`StampPlan::sweep_batch`]. It is fast through **pivot reuse**: the
//! MNA matrix changes smoothly along the grid, so the pivot sequence
//! chosen at one point is reused at the next via
//! [`LuWorkspace::try_refactor_with_current_perm`](rfkit_num::LuWorkspace::try_refactor_with_current_perm)
//! — no pivot search, no row swaps — with a growth guard that forces a
//! full refactorization only when the reused order turns unstable.
//!
//! Results are stored in split re/im (SoA) buffers
//! ([`rfkit_num::soa::SoaComplex`]).
//!
//! ## Equivalence contract
//!
//! The legacy per-call solver ([`s_matrix`](crate::ac::s_matrix)) is the
//! reference oracle. `sweep_batch` is held to a **documented tolerance
//! contract** against it: every S-matrix entry it produces agrees with the
//! legacy result to within `1e-8` absolute error (see [`SWEEP_TOL`]), and
//! `Err` outcomes (singular systems, non-positive frequencies, injected
//! faults) are point-for-point identical. The pivot-reuse path refuses
//! numerically risky factorizations (growth guard) and falls back to a
//! fully pivoted LU, so the bound holds on pathological grids too.
//! `tests/fastpath_equivalence.rs` pins the contract with seeded random
//! netlists.
//!
//! ## Plan sharing
//!
//! [`shared_plan`] memoizes compiled plans per netlist fingerprint behind
//! `Arc` in a process-wide [`MemoMap`], so band sweeps, yield Monte-Carlo
//! units and parallel workers all reuse one immutable compiled plan per
//! topology with zero re-stamping.

use std::sync::{Arc, OnceLock};

use crate::ac::{AcError, AcStamps};
use crate::netlist::{Circuit, Element};
use crate::plan::{AcWorkspace, StampPlan};
use rfkit_net::SParams;
use rfkit_num::soa::SoaComplex;
use rfkit_num::{Complex, Fetched, MemoMap};

static OBS_SWEEP_POINTS: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.ac.sweep.points");
static OBS_SWEEP_REFACTORS: rfkit_obs::Counter =
    rfkit_obs::Counter::new("circuit.ac.sweep.refactors");
static OBS_SWEEP_US: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.ac.sweep_us");
static OBS_PLAN_HIT: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.hit");
static OBS_PLAN_MISS: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.miss");

/// Absolute per-entry tolerance of the batched sweep against the legacy
/// per-call solver. S-parameters are bounded by ~1 in magnitude for
/// passive networks and stay O(1) for the amplifier stamps the suite
/// uses, so an absolute bound is meaningful; the pivot-reuse growth
/// guard keeps element growth (and therefore backward error) far inside
/// this margin.
pub const SWEEP_TOL: f64 = 1e-8;

/// Aggregate statistics of one [`StampPlan::sweep_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points processed (successful or not).
    pub points: usize,
    /// Full pivoted refactorizations forced *beyond* the initial one:
    /// growth-guard trips on the pivot-reuse path. Healthy sweeps keep
    /// this ≪ `points`.
    pub refactors: usize,
    /// Points that returned an error.
    pub failures: usize,
}

/// Results of a batched frequency sweep: the S-matrix grid in SoA (split
/// re/im) storage, per-point failures, and sweep statistics.
#[derive(Debug, Clone)]
pub struct SweepBatch {
    n_ports: usize,
    z0: f64,
    freqs: Vec<f64>,
    /// Point-major: entry `(p, i, j)` at index `(p·m + i)·m + j`.
    s: SoaComplex,
    /// `(point index, error)`, ascending by point.
    failures: Vec<(usize, AcError)>,
    stats: SweepStats,
}

impl SweepBatch {
    /// Number of grid points (including failed ones).
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// True when the sweep covered no points.
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }

    /// Port count of every S-matrix in the grid.
    pub fn n_ports(&self) -> usize {
        self.n_ports
    }

    /// Shared port reference impedance.
    pub fn z0(&self) -> f64 {
        self.z0
    }

    /// Frequency of grid point `p`.
    pub fn freq(&self, p: usize) -> f64 {
        self.freqs[p]
    }

    /// True when point `p` solved successfully.
    pub fn is_ok(&self, p: usize) -> bool {
        self.failures.binary_search_by_key(&p, |f| f.0).is_err()
    }

    /// S-matrix entry `(i, j)` at point `p`. Failed points hold zeros;
    /// check [`SweepBatch::is_ok`] / [`SweepBatch::failures`].
    ///
    /// # Panics
    ///
    /// Panics when `p`, `i` or `j` is out of range.
    pub fn s(&self, p: usize, i: usize, j: usize) -> Complex {
        assert!(i < self.n_ports && j < self.n_ports, "port out of range");
        self.s.get((p * self.n_ports + i) * self.n_ports + j)
    }

    /// Two-port S-parameters at point `p`, or `None` when the point
    /// failed or the plan is not a 2-port.
    pub fn two_port(&self, p: usize) -> Option<SParams> {
        if self.n_ports != 2 || !self.is_ok(p) {
            return None;
        }
        Some(SParams::new(
            self.s(p, 0, 0),
            self.s(p, 0, 1),
            self.s(p, 1, 0),
            self.s(p, 1, 1),
            self.z0,
        ))
    }

    /// The raw SoA `(re, im)` streams of the point-major S grid.
    pub fn s_slices(&self) -> (&[f64], &[f64]) {
        self.s.as_slices()
    }

    /// Per-point failures, ascending by point index.
    pub fn failures(&self) -> &[(usize, AcError)] {
        &self.failures
    }

    /// Sweep statistics (refactor count, failures, …).
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }
}

impl StampPlan {
    /// Sweeps the whole frequency grid through the pivot-reuse batch
    /// engine, returning the S grid in SoA storage.
    ///
    /// Per-point errors (non-positive frequency, singular system,
    /// injected fault) do not abort the sweep; they are recorded in
    /// [`SweepBatch::failures`] with the same `AcError` values the legacy
    /// solver produces, and the corresponding grid entries hold zeros.
    /// Results agree with [`crate::ac::s_matrix`] within [`SWEEP_TOL`] per
    /// entry.
    pub fn sweep_batch(
        &self,
        freqs: &[f64],
        stamps: &AcStamps<'_>,
        ws: &mut AcWorkspace,
    ) -> SweepBatch {
        let watch = rfkit_obs::stopwatch();
        let m = self.port_nodes.len();
        OBS_SWEEP_POINTS.add(freqs.len() as u64);

        let mut s = SoaComplex::with_capacity(freqs.len() * m * m);
        let mut failures = Vec::new();
        let mut refactors = 0usize;
        // Pivot reuse: valid once the first full factorization of the
        // internal block lands in `ws.sweep_lu`.
        let mut have_factor = false;

        for (p, &freq_hz) in freqs.iter().enumerate() {
            match self.sweep_point(freq_hz, stamps, ws, &mut have_factor, &mut refactors) {
                Ok(()) => {
                    for i in 0..m {
                        for j in 0..m {
                            s.push(ws.smat[(i, j)]);
                        }
                    }
                }
                Err(e) => {
                    failures.push((p, e));
                    for _ in 0..m * m {
                        s.push(Complex::ZERO);
                    }
                }
            }
        }

        OBS_SWEEP_REFACTORS.add(refactors as u64);
        if let Some(us) = watch.elapsed_us() {
            OBS_SWEEP_US.record(us);
        }
        let stats = SweepStats {
            points: freqs.len(),
            refactors,
            failures: failures.len(),
        };
        SweepBatch {
            n_ports: m,
            z0: self.z0,
            freqs: freqs.to_vec(),
            s,
            failures,
            stats,
        }
    }

    /// Solves one grid point, leaving the S-matrix in `ws.smat`.
    fn sweep_point(
        &self,
        freq_hz: f64,
        stamps: &AcStamps<'_>,
        ws: &mut AcWorkspace,
        have_factor: &mut bool,
        refactors: &mut usize,
    ) -> Result<(), AcError> {
        if freq_hz <= 0.0 {
            return Err(AcError::NonPositiveFrequency(freq_hz));
        }
        // Same fault site and key as the legacy solver: an armed plan
        // fails the batch at exactly the same grid points.
        if rfkit_robust::faults::inject("ac.solve", freq_hz.to_bits()).is_some() {
            return Err(AcError::Singular(freq_hz));
        }
        ws.track_dims(self.n, self.port_nodes.len());
        self.assemble_into(freq_hz, stamps, ws);

        if self.internal.is_empty() {
            ws.yred
                .gather_from(&ws.y, &self.port_nodes, &self.port_nodes);
            return self.s_convert(freq_hz, ws);
        }

        ws.ypp
            .gather_from(&ws.y, &self.port_nodes, &self.port_nodes);
        ws.ypi.gather_from(&ws.y, &self.port_nodes, &self.internal);
        self.solve_internal(freq_hz, ws, have_factor, refactors)?;

        ws.ypi
            .matmul_into(&ws.solved, &mut ws.prod)
            .expect("dimensions chain");
        ws.ypp.sub_into(&ws.prod, &mut ws.yred);
        self.s_convert(freq_hz, ws)
    }

    /// Internal-block solve with cross-point pivot reuse. Leaves
    /// `yii⁻¹·yip` in `ws.solved`.
    fn solve_internal(
        &self,
        freq_hz: f64,
        ws: &mut AcWorkspace,
        have_factor: &mut bool,
        refactors: &mut usize,
    ) -> Result<(), AcError> {
        ws.yii.gather_from(&ws.y, &self.internal, &self.internal);
        ws.yip.gather_from(&ws.y, &self.internal, &self.port_nodes);
        let reused = *have_factor && ws.sweep_lu.try_refactor_with_current_perm(&ws.yii);
        if !reused {
            if *have_factor {
                // The reused pivot order went unstable: full pivot search
                // again.
                *refactors += 1;
            }
            *have_factor = false;
            ws.yii
                .lu_into(&mut ws.sweep_lu)
                .map_err(|_| AcError::Singular(freq_hz))?;
            *have_factor = true;
        }
        ws.sweep_lu
            .solve_matrix_into(&ws.yip, &mut ws.solved, &mut ws.x)
            .map_err(|_| AcError::Singular(freq_hz))?;
        Ok(())
    }
}

/// Capacity of the process-wide plan cache behind [`shared_plan`].
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 64;

/// AC-structural fingerprint of a netlist: the key of the shared plan
/// cache.
///
/// It covers node count, ports (node + z0 bits), and every R/C/L/V element
/// with its resolved node pair and value bits. AC-irrelevant content is
/// deliberately excluded — current sources (AC opens), FET elements
/// (linearized externally via [`AcStamps`]) and V-source DC values (a V
/// source stamps the same AC short regardless of voltage) — so designs
/// differing only in those share one compiled plan.
pub(crate) fn fingerprint(circuit: &Circuit) -> Vec<u64> {
    fn enc(n: Option<usize>) -> u64 {
        match n {
            None => 0,
            Some(i) => i as u64 + 1,
        }
    }
    let mut key = vec![circuit.n_nodes() as u64];
    for p in circuit.ports() {
        key.extend([5, p.node as u64 + 1, p.z0.to_bits()]);
    }
    for e in &circuit.elements {
        match e {
            Element::Resistor { a, b, ohms } => key.extend([1, enc(*a), enc(*b), ohms.to_bits()]),
            Element::Capacitor { a, b, farads } => {
                key.extend([2, enc(*a), enc(*b), farads.to_bits()])
            }
            Element::Inductor { a, b, henries } => {
                key.extend([3, enc(*a), enc(*b), henries.to_bits()])
            }
            Element::VSource { plus, minus, .. } => key.extend([4, enc(*plus), enc(*minus)]),
            // AC opens / externally stamped devices: no AC footprint.
            Element::ISource { .. } | Element::Fet { .. } => {}
        }
    }
    key
}

static SHARED_PLANS: OnceLock<MemoMap<Vec<u64>, Arc<StampPlan>>> = OnceLock::new();

/// The process-wide plan cache behind [`shared_plan`]; exposed for
/// statistics inspection.
pub fn shared_plan_cache() -> &'static MemoMap<Vec<u64>, Arc<StampPlan>> {
    SHARED_PLANS.get_or_init(|| MemoMap::new(DEFAULT_PLAN_CACHE_CAPACITY))
}

/// Compiles (or fetches) the shared plan for this netlist topology.
///
/// All callers — band sweeps, yield Monte-Carlo units, parallel workers —
/// get `Arc` handles to the **same** immutable compiled plan, so a
/// topology is stamped once per process no matter how many threads sweep
/// it. The plan itself is immutable; per-thread mutable state lives in
/// each caller's own [`AcWorkspace`].
///
/// # Errors
///
/// Propagates [`StampPlan::compile`] errors; failures are not cached.
pub fn shared_plan(circuit: &Circuit) -> Result<Arc<StampPlan>, AcError> {
    let fetched = shared_plan_cache().get_or_insert_with(fingerprint(circuit), || {
        StampPlan::compile(circuit).map(Arc::new)
    });
    if matches!(fetched, Ok(Fetched { hit: true, .. })) {
        OBS_PLAN_HIT.add(1);
    } else {
        OBS_PLAN_MISS.add(1);
    }
    fetched.map(|f| f.value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ac::two_port_s;

    /// `n`-section LC ladder: series L, shunt C per section.
    fn lc_ladder(sections: usize) -> Circuit {
        let mut c = Circuit::new();
        for i in 0..sections {
            let a = if i == 0 {
                "in".to_string()
            } else {
                format!("n{i}")
            };
            let b = if i == sections - 1 {
                "out".to_string()
            } else {
                format!("n{}", i + 1)
            };
            c.inductor(&a, &b, 3e-9 + 0.2e-9 * i as f64);
            c.capacitor(&b, "gnd", 1e-12 + 0.05e-12 * i as f64);
        }
        c.port("in", 50.0).port("out", 50.0);
        c
    }

    /// Multi-stage network with a shared supply rail: per-stage drain
    /// resistor to "vdd" turns that node into a high-degree hub.
    fn hub_network(stages: usize) -> Circuit {
        let mut c = Circuit::new();
        c.vsource("vdd", "gnd", 3.0);
        for i in 0..stages {
            let a = if i == 0 {
                "in".to_string()
            } else {
                format!("s{i}")
            };
            let b = if i == stages - 1 {
                "out".to_string()
            } else {
                format!("s{}", i + 1)
            };
            c.inductor(&a, &b, 4e-9 + 0.1e-9 * i as f64);
            c.capacitor(&b, "gnd", 0.8e-12 + 0.03e-12 * i as f64);
            c.resistor(&b, "vdd", 150.0 + 10.0 * i as f64);
        }
        c.port("in", 50.0).port("out", 50.0);
        c
    }

    fn grid(n: usize) -> Vec<f64> {
        rfkit_num::linspace(1.0e9, 1.8e9, n)
    }

    #[test]
    fn sweep_batch_matches_legacy_within_tolerance() {
        for c in [lc_ladder(12), hub_network(10)] {
            let plan = StampPlan::compile(&c).unwrap();
            let mut ws = AcWorkspace::new();
            let freqs = grid(40);
            let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
            assert_eq!(batch.len(), 40);
            assert!(batch.failures().is_empty());
            // A pure-LC ladder has node resonances inside the band where
            // a reused pivot order can degenerate; the growth guard must
            // refactor on those points (correctness) but only on a
            // minority of the grid (performance).
            assert!(
                batch.stats().refactors < freqs.len() / 2,
                "guard fell back on {}/{} points",
                batch.stats().refactors,
                freqs.len()
            );
            for (p, &f) in freqs.iter().enumerate() {
                let legacy = two_port_s(&c, f, &AcStamps::none()).unwrap();
                let got = batch.two_port(p).unwrap();
                for (a, b) in [
                    (got.s11(), legacy.s11()),
                    (got.s21(), legacy.s21()),
                    (got.s12(), legacy.s12()),
                    (got.s22(), legacy.s22()),
                ] {
                    assert!(
                        (a - b).abs() <= SWEEP_TOL,
                        "point {p}: {} vs {} (diff {})",
                        a,
                        b,
                        (a - b).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn sweep_batch_error_parity_per_point() {
        let c = lc_ladder(10);
        let plan = StampPlan::compile(&c).unwrap();
        let mut ws = AcWorkspace::new();
        let freqs = [1.0e9, 0.0, 1.2e9, -5.0, 1.4e9];
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        assert_eq!(batch.failures().len(), 2);
        assert_eq!(batch.failures()[0], (1, AcError::NonPositiveFrequency(0.0)));
        assert_eq!(
            batch.failures()[1],
            (3, AcError::NonPositiveFrequency(-5.0))
        );
        assert!(batch.is_ok(0) && !batch.is_ok(1) && batch.is_ok(4));
        assert!(batch.two_port(1).is_none());
        assert_eq!(batch.stats().failures, 2);
        // Good points unaffected by the bad neighbors.
        let legacy = two_port_s(&c, 1.4e9, &AcStamps::none()).unwrap();
        assert!((batch.two_port(4).unwrap().s21() - legacy.s21()).abs() <= SWEEP_TOL);
    }

    #[test]
    fn stamp_bridging_distant_internal_nodes_matches_legacy() {
        // A device stamp bridging the first and last internal ladder nodes
        // couples rows the netlist alone never couples; the sweep must
        // still agree with the legacy solver.
        let c = lc_ladder(12);
        let plan = StampPlan::compile(&c).unwrap();
        let y_of = |f: f64| {
            let w = rfkit_num::units::angular(f);
            rfkit_net::YParams::new(
                Complex::imag(w * 0.2e-12),
                Complex::imag(-w * 0.2e-12),
                Complex::imag(-w * 0.2e-12),
                Complex::imag(w * 0.2e-12),
            )
        };
        // Find two internal node ids far apart in the ladder.
        let a = plan.internal[1];
        let b = plan.internal[plan.internal.len() - 1];
        let stamps = AcStamps::none().two_port(Some(a), Some(b), &y_of);
        let mut ws = AcWorkspace::new();
        let freqs = grid(12);
        let batch = plan.sweep_batch(&freqs, &stamps, &mut ws);
        assert!(batch.failures().is_empty());
        for (p, &f) in freqs.iter().enumerate() {
            let legacy = two_port_s(&c, f, &stamps).unwrap();
            assert!((batch.two_port(p).unwrap().s21() - legacy.s21()).abs() <= SWEEP_TOL);
        }
    }

    #[test]
    fn fingerprint_ignores_ac_irrelevant_content() {
        // V-source DC value does not change the AC plan.
        let mut c1 = Circuit::new();
        c1.vsource("vdd", "gnd", 3.0)
            .resistor("in", "vdd", 100.0)
            .port("in", 50.0);
        let mut c2 = Circuit::new();
        c2.vsource("vdd", "gnd", 5.0)
            .resistor("in", "vdd", 100.0)
            .port("in", 50.0);
        assert_eq!(fingerprint(&c1), fingerprint(&c2));
        // A value change does.
        let mut c3 = Circuit::new();
        c3.vsource("vdd", "gnd", 3.0)
            .resistor("in", "vdd", 101.0)
            .port("in", 50.0);
        assert_ne!(fingerprint(&c1), fingerprint(&c3));
    }

    #[test]
    fn shared_plan_is_process_wide() {
        let c = lc_ladder(9);
        let a = shared_plan(&c).unwrap();
        let b = shared_plan(&c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        // A different topology compiles its own plan.
        let other = shared_plan(&lc_ladder(8)).unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
    }
}
