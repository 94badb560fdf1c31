//! Compiled AC frequency sweeps.
//!
//! Every caller in the suite (the serve `verify` request, the design
//! example's output-match check, the equivalence tests) wants a whole
//! frequency *grid*, so a compiled [`StampPlan`] has one solve entry
//! point, [`StampPlan::sweep_batch`]. Per grid point it assembles Y inside
//! the caller's [`AcWorkspace`], factors the internal block with the same
//! pivoted [`Matrix::lu_into`](rfkit_num::Matrix::lu_into) the legacy
//! solver runs, eliminates it and converts the port block to S.
//!
//! ## Equivalence contract
//!
//! The legacy per-call solver ([`s_matrix`](crate::ac::s_matrix)) is the
//! reference oracle. `sweep_batch` performs the oracle's floating-point
//! operations in the oracle's order, so every S-matrix entry equals the
//! legacy result **bit for bit**, and `Err` outcomes (singular systems,
//! non-positive frequencies, injected faults) are point-for-point
//! identical. `tests/fastpath_equivalence.rs` pins the contract with
//! seeded random netlists.
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
use rfkit_num::{Complex, Fetched, MemoMap};

static OBS_SWEEP_POINTS: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.ac.sweep.points");
static OBS_SWEEP_US: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.ac.sweep_us");
static OBS_PLAN_HIT: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.hit");
static OBS_PLAN_MISS: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.miss");

/// Results of a batched frequency sweep: the S-matrix grid and the
/// per-point failures.
#[derive(Debug, Clone)]
pub struct SweepBatch {
    n_ports: usize,
    z0: f64,
    /// Number of grid points.
    len: usize,
    /// Point-major: entry `(p, i, j)` at index `(p·m + i)·m + j`.
    s: Vec<Complex>,
    /// `(point index, error)`, ascending by point.
    failures: Vec<(usize, AcError)>,
}

impl SweepBatch {
    /// Number of grid points (including failed ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the sweep covered no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
        self.s[(p * self.n_ports + i) * self.n_ports + j]
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

    /// Per-point failures, ascending by point index.
    pub fn failures(&self) -> &[(usize, AcError)] {
        &self.failures
    }
}

impl StampPlan {
    /// Sweeps the whole frequency grid, one pivoted factorization per
    /// point.
    ///
    /// Per-point errors (non-positive frequency, singular system,
    /// injected fault) do not abort the sweep; they are recorded in
    /// [`SweepBatch::failures`] with the same `AcError` values the legacy
    /// solver produces, and the corresponding grid entries hold zeros.
    /// Every solved entry equals [`crate::ac::s_matrix`]'s bit for bit.
    pub fn sweep_batch(
        &self,
        freqs: &[f64],
        stamps: &AcStamps<'_>,
        ws: &mut AcWorkspace,
    ) -> SweepBatch {
        let watch = rfkit_obs::stopwatch();
        let m = self.port_nodes.len();
        OBS_SWEEP_POINTS.add(freqs.len() as u64);

        let mut s = Vec::with_capacity(freqs.len() * m * m);
        let mut failures = Vec::new();
        for (p, &freq_hz) in freqs.iter().enumerate() {
            match self.sweep_point(freq_hz, stamps, ws) {
                Ok(()) => s.extend_from_slice(ws.smat.as_slice()),
                Err(e) => {
                    failures.push((p, e));
                    s.resize(s.len() + m * m, Complex::ZERO);
                }
            }
        }

        if let Some(us) = watch.elapsed_us() {
            OBS_SWEEP_US.record(us);
        }
        SweepBatch {
            n_ports: m,
            z0: self.z0,
            len: freqs.len(),
            s,
            failures,
        }
    }

    /// Solves one grid point, leaving the S-matrix in `ws.smat`.
    fn sweep_point(
        &self,
        freq_hz: f64,
        stamps: &AcStamps<'_>,
        ws: &mut AcWorkspace,
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
        ws.yip.gather_from(&ws.y, &self.internal, &self.port_nodes);
        ws.yii.gather_from(&ws.y, &self.internal, &self.internal);
        // `yii⁻¹·yip` through the legacy `solve_matrix`'s factorization.
        // The factor is consumed here, before `s_convert` refactors `lu`.
        ws.yii
            .lu_into(&mut ws.lu)
            .map_err(|_| AcError::Singular(freq_hz))?;
        ws.lu
            .solve_matrix_into(&ws.yip, &mut ws.solved, &mut ws.x)
            .map_err(|_| AcError::Singular(freq_hz))?;
        ws.ypi
            .matmul_into(&ws.solved, &mut ws.prod)
            .expect("dimensions chain");
        ws.ypp.sub_into(&ws.prod, &mut ws.yred);
        self.s_convert(freq_hz, ws)
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

    /// Bit-level equality of every entry, re and im: the compiled sweep
    /// runs the legacy solver's operations in the legacy order.
    fn assert_bits_eq(got: &SParams, legacy: &SParams, what: &str) {
        for (a, b) in [
            (got.s11(), legacy.s11()),
            (got.s21(), legacy.s21()),
            (got.s12(), legacy.s12()),
            (got.s22(), legacy.s22()),
        ] {
            assert!(
                a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                "{what}: {a} vs {b}"
            );
        }
    }

    #[test]
    fn sweep_batch_matches_legacy_bit_for_bit() {
        for c in [lc_ladder(12), hub_network(10)] {
            let plan = StampPlan::compile(&c).unwrap();
            let mut ws = AcWorkspace::new();
            let freqs = grid(40);
            let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
            assert_eq!(batch.len(), 40);
            assert!(batch.failures().is_empty());
            for (p, &f) in freqs.iter().enumerate() {
                let legacy = two_port_s(&c, f, &AcStamps::none()).unwrap();
                assert_bits_eq(&batch.two_port(p).unwrap(), &legacy, &format!("point {p}"));
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
        // Good points unaffected by the bad neighbors.
        let legacy = two_port_s(&c, 1.4e9, &AcStamps::none()).unwrap();
        assert_bits_eq(&batch.two_port(4).unwrap(), &legacy, "point 4");
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
            assert_bits_eq(&batch.two_port(p).unwrap(), &legacy, &format!("point {p}"));
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
