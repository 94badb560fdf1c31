//! Batched, structure-aware AC sweep engine.
//!
//! Every caller in the suite (band verification, yield Monte-Carlo,
//! benchmark sweeps) wants a whole frequency *grid*, so a compiled
//! [`StampPlan`](crate::StampPlan) has one solve entry point,
//! [`StampPlan::sweep_batch`]. Two pieces of machinery make it fast:
//!
//! * **Structure classification.** At compile time the plan's internal
//!   (non-port) block is classified from its stamp adjacency. Ladder
//!   networks reorder (reverse Cuthill–McKee) to a narrow band and take a
//!   banded-LU kernel; multi-stage networks with a few high-degree hub
//!   nodes (shared bias rails, splitter junctions) peel the hubs into a
//!   bordered block and take a banded-plus-Schur kernel; everything else
//!   stays dense. The per-point factorization cost drops from `O(n³)` to
//!   `O(n·b²)` on the structured paths.
//! * **Pivot reuse.** On the dense path the MNA matrix changes smoothly
//!   along the grid, so the pivot sequence chosen at one point is reused
//!   at the next via
//!   [`LuWorkspace::try_refactor_with_current_perm`](rfkit_num::LuWorkspace::try_refactor_with_current_perm)
//!   — no pivot search, no row swaps — with a growth guard that forces a
//!   full refactorization only when the reused order turns unstable.
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
//! faults) are point-for-point identical. The banded/bordered kernels and
//! the pivot-reuse dense path all refuse numerically risky factorizations
//! (growth guard) and fall back to fully pivoted dense LU, so the bound
//! holds on pathological grids too — at dense-path cost.
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
use crate::plan::{AcWorkspace, BStamp, StampPlan};
use rfkit_net::SParams;
use rfkit_num::soa::SoaComplex;
use rfkit_num::{CMatrix, Complex, Fetched, MemoMap};

static OBS_SWEEP_POINTS: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.ac.sweep.points");
static OBS_SWEEP_REFACTORS: rfkit_obs::Counter =
    rfkit_obs::Counter::new("circuit.ac.sweep.refactors");
static OBS_PATH_DENSE: rfkit_obs::Counter = rfkit_obs::Counter::new("circuit.ac.sweep.path.dense");
static OBS_PATH_BANDED: rfkit_obs::Counter =
    rfkit_obs::Counter::new("circuit.ac.sweep.path.banded");
static OBS_PATH_BORDERED: rfkit_obs::Counter =
    rfkit_obs::Counter::new("circuit.ac.sweep.path.bordered");
static OBS_SWEEP_US: rfkit_obs::Hist = rfkit_obs::Hist::new("circuit.ac.sweep_us");
static OBS_PLAN_HIT: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.hit");
static OBS_PLAN_MISS: rfkit_obs::Counter = rfkit_obs::Counter::new("plan.cache.miss");

/// Absolute per-entry tolerance of the batched sweep against the legacy
/// per-call solver. S-parameters are bounded by ~1 in magnitude for
/// passive networks and stay O(1) for the amplifier stamps the suite
/// uses, so an absolute bound is meaningful; the structured kernels'
/// growth guards keep element growth (and therefore backward error) far
/// inside this margin.
pub const SWEEP_TOL: f64 = 1e-8;

/// Minimum internal-block size before a structured path is worth the
/// bookkeeping; below this, dense LU on a cache-resident matrix wins.
const MIN_STRUCTURED: usize = 8;

/// Maximum number of hub rows the bordered path will peel off.
const MAX_BORDER: usize = 4;

/// Classifier-selected solve path for a plan's internal block. Orders are
/// permutations of internal *slots* (positions in `StampPlan::internal`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum SolvePath {
    /// Fully pivoted dense LU with cross-point pivot reuse.
    Dense,
    /// Banded LU over the RCM-permuted internal block.
    Banded {
        /// Permuted position → internal slot.
        order: Vec<usize>,
        /// Half-bandwidth under `order`.
        bw: usize,
    },
    /// Banded-plus-Schur: band rows first, then `k` peeled hub rows.
    Bordered {
        /// Permuted position → internal slot; last `k` entries are hubs.
        order: Vec<usize>,
        /// Band dimension (`order.len() - k`).
        nb: usize,
        /// Border rank.
        k: usize,
        /// Half-bandwidth of the band part.
        bw: usize,
    },
}

impl SolvePath {
    fn name(&self) -> &'static str {
        match self {
            SolvePath::Dense => "dense",
            SolvePath::Banded { .. } => "banded",
            SolvePath::Bordered { .. } => "bordered",
        }
    }
}

/// Compile-time structural classification of a plan's internal block:
/// the stamp adjacency graph plus the solve path chosen from it.
#[derive(Debug, Clone)]
pub(crate) struct PlanStructure {
    /// Sorted neighbor lists over internal slots (G pattern ∪ reactive
    /// stamps). Device stamps added at sweep time are checked against
    /// this and trigger reclassification when they add new coupling.
    adj: Vec<Vec<usize>>,
    pub(crate) path: SolvePath,
}

impl PlanStructure {
    pub(crate) fn path_name(&self) -> &'static str {
        self.path.name()
    }

    fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&b).is_ok()
    }
}

/// Classifies the internal block of a plan under compilation: builds the
/// adjacency of internal slots from the G pattern and the reactive stamp
/// list, then applies the decision rule (see [`choose_path`]).
pub(crate) fn classify(g: &CMatrix, b_stamps: &[BStamp], internal: &[usize]) -> PlanStructure {
    let n_nodes = g.rows();
    let mut slot_of = vec![None; n_nodes];
    for (s, &node) in internal.iter().enumerate() {
        slot_of[node] = Some(s);
    }
    let n_i = internal.len();
    let mut edges = std::collections::BTreeSet::new();
    for (i, &ni) in internal.iter().enumerate() {
        for (j, &nj) in internal.iter().enumerate().skip(i + 1) {
            if g[(ni, nj)] != Complex::ZERO || g[(nj, ni)] != Complex::ZERO {
                edges.insert((i, j));
            }
        }
    }
    for s in b_stamps {
        if let (Some(a), Some(b)) = (s.a, s.b) {
            if let (Some(sa), Some(sb)) = (
                slot_of.get(a).copied().flatten(),
                slot_of.get(b).copied().flatten(),
            ) {
                if sa != sb {
                    edges.insert((sa.min(sb), sa.max(sb)));
                }
            }
        }
    }
    let adj = adjacency_from_edges(n_i, &edges);
    let path = choose_path(&adj);
    PlanStructure { adj, path }
}

fn adjacency_from_edges(
    n: usize,
    edges: &std::collections::BTreeSet<(usize, usize)>,
) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); n];
    for &(a, b) in edges {
        adj[a].push(b);
        adj[b].push(a);
    }
    for l in &mut adj {
        l.sort_unstable();
        l.dedup();
    }
    adj
}

/// The classifier decision rule (documented in DESIGN.md):
///
/// 1. `n < 8` → **dense** (structured bookkeeping costs more than it
///    saves on cache-resident matrices).
/// 2. RCM-order the graph; with half-bandwidth `b`, accept **banded**
///    when `2b + 1 ≤ n / 2` (the band stores at most half the dense
///    entries, so the `O(n·b²)` factorization is a clear win).
/// 3. Otherwise peel the `k ∈ 1..=4` highest-degree nodes (ties broken
///    by slot index) into a border; accept **bordered** with the
///    smallest such `k` whose remainder has `nb = n − k ≥ 8` and
///    re-RCM'd half-bandwidth `b'` with `2b' + 1 ≤ nb / 2`.
/// 4. Otherwise → **dense**.
///
/// Every step is deterministic: RCM starts from the minimum
/// `(degree, slot)` node per component and expands neighbors in
/// `(degree, slot)` order.
// rfkit-cold: runs once per plan compile / stamp repath, never per point.
fn choose_path(adj: &[Vec<usize>]) -> SolvePath {
    let n = adj.len();
    if n < MIN_STRUCTURED {
        return SolvePath::Dense;
    }
    let members: Vec<usize> = (0..n).collect();
    let order = rcm_order(adj, &members);
    let bw = bandwidth(adj, &order);
    // Band test `2b+1 ≤ n/2` (band width at most half the matrix).
    if 2 * bw < n / 2 {
        return SolvePath::Banded { order, bw };
    }
    // Hub extraction: try peeling the highest-degree nodes.
    let mut by_degree: Vec<usize> = (0..n).collect();
    by_degree.sort_by_key(|&i| (std::cmp::Reverse(adj[i].len()), i));
    for k in 1..=MAX_BORDER.min(n) {
        if n - k < MIN_STRUCTURED {
            break;
        }
        let mut hubs: Vec<usize> = by_degree[..k].to_vec();
        hubs.sort_unstable();
        let rest: Vec<usize> = (0..n).filter(|i| !hubs.contains(i)).collect();
        let sub = subgraph(adj, &rest);
        let sub_order = rcm_order(&sub, &(0..rest.len()).collect::<Vec<_>>());
        let bw_r = bandwidth(&sub, &sub_order);
        if 2 * bw_r < (n - k) / 2 {
            let mut order: Vec<usize> = sub_order.iter().map(|&l| rest[l]).collect();
            order.extend_from_slice(&hubs);
            return SolvePath::Bordered {
                order,
                nb: n - k,
                k,
                bw: bw_r,
            };
        }
    }
    SolvePath::Dense
}

/// Induced subgraph on `keep` (ascending), relabeled to local indices.
fn subgraph(adj: &[Vec<usize>], keep: &[usize]) -> Vec<Vec<usize>> {
    let mut local = vec![None; adj.len()];
    for (l, &g) in keep.iter().enumerate() {
        local[g] = Some(l);
    }
    keep.iter()
        .map(|&g| {
            adj[g]
                .iter()
                .filter_map(|&nb| local[nb])
                .collect::<Vec<usize>>()
        })
        .collect()
}

/// Reverse Cuthill–McKee ordering of `members` (local node ids of `adj`).
/// Deterministic: each component starts from its minimum `(degree, id)`
/// node, and neighbors are appended in `(degree, id)` order.
// rfkit-cold: structural analysis, once per plan compile — not per point.
fn rcm_order(adj: &[Vec<usize>], members: &[usize]) -> Vec<usize> {
    let n = adj.len();
    let mut visited = vec![false; n];
    let mut order = Vec::with_capacity(members.len());
    loop {
        let start = members
            .iter()
            .copied()
            .filter(|&i| !visited[i])
            .min_by_key(|&i| (adj[i].len(), i));
        let Some(start) = start else { break };
        visited[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            let mut nbs: Vec<usize> = adj[u].iter().copied().filter(|&v| !visited[v]).collect();
            nbs.sort_by_key(|&v| (adj[v].len(), v));
            for v in nbs {
                visited[v] = true;
                queue.push_back(v);
            }
        }
    }
    order.reverse();
    order
}

/// Half-bandwidth of `adj` under `order` (max |pos(u) − pos(v)| over
/// edges).
fn bandwidth(adj: &[Vec<usize>], order: &[usize]) -> usize {
    let mut pos = vec![0usize; adj.len()];
    for (p, &node) in order.iter().enumerate() {
        pos[node] = p;
    }
    let mut bw = 0usize;
    for (u, nbs) in adj.iter().enumerate() {
        for &v in nbs {
            bw = bw.max(pos[u].abs_diff(pos[v]));
        }
    }
    bw
}

/// Aggregate statistics of one [`StampPlan::sweep_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepStats {
    /// Grid points processed (successful or not).
    pub points: usize,
    /// Full pivoted refactorizations forced *beyond* the initial one:
    /// growth-guard trips on the pivot-reuse dense path plus per-point
    /// fallbacks from the banded/bordered kernels. Healthy sweeps keep
    /// this ≪ `points`.
    pub refactors: usize,
    /// Points that returned an error.
    pub failures: usize,
    /// Solve path actually used: `"dense"`, `"banded"` or `"bordered"`.
    pub path: &'static str,
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

    /// Sweep statistics (path taken, refactor count, …).
    pub fn stats(&self) -> &SweepStats {
        &self.stats
    }
}

impl StampPlan {
    /// Sweeps the whole frequency grid through the structure-aware batch
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
        let path = self.effective_path(stamps);
        match path {
            SolvePath::Dense => OBS_PATH_DENSE.add(1),
            SolvePath::Banded { .. } => OBS_PATH_BANDED.add(1),
            SolvePath::Bordered { .. } => OBS_PATH_BORDERED.add(1),
        }
        OBS_SWEEP_POINTS.add(freqs.len() as u64);

        let mut s = SoaComplex::with_capacity(freqs.len() * m * m);
        let mut failures = Vec::new();
        let mut refactors = 0usize;
        // Dense pivot reuse: valid once the first full factorization of
        // the internal block lands in `ws.sweep_lu`.
        let mut have_factor = false;

        for (p, &freq_hz) in freqs.iter().enumerate() {
            match self.sweep_point(freq_hz, stamps, ws, &path, &mut have_factor, &mut refactors) {
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
            path: path.name(),
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

    /// The compile-time path, downgraded/reclassified when external
    /// device stamps couple internal nodes the classified structure does
    /// not connect.
    fn effective_path(&self, stamps: &AcStamps<'_>) -> SolvePath {
        let mut slot_of = vec![None; self.n];
        for (s, &node) in self.internal.iter().enumerate() {
            slot_of[node] = Some(s);
        }
        let mut extra = Vec::new();
        for (a, b) in stamps.node_pairs() {
            if let (Some(a), Some(b)) = (a, b) {
                if a == b {
                    continue;
                }
                if let (Some(sa), Some(sb)) = (slot_of[a], slot_of[b]) {
                    if !self.structure.has_edge(sa, sb) {
                        extra.push((sa.min(sb), sa.max(sb)));
                    }
                }
            }
        }
        if extra.is_empty() {
            return self.structure.path.clone();
        }
        // Reclassify with the stamp edges merged in.
        let mut edges = std::collections::BTreeSet::new();
        for (u, nbs) in self.structure.adj.iter().enumerate() {
            for &v in nbs {
                edges.insert((u.min(v), u.max(v)));
            }
        }
        edges.extend(extra);
        choose_path(&adjacency_from_edges(self.internal.len(), &edges))
    }

    /// Solves one grid point, leaving the S-matrix in `ws.smat`.
    fn sweep_point(
        &self,
        freq_hz: f64,
        stamps: &AcStamps<'_>,
        ws: &mut AcWorkspace,
        path: &SolvePath,
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

        let structured_ok = match path {
            SolvePath::Dense => false,
            SolvePath::Banded { order, bw } => self.solve_banded(ws, order, *bw),
            SolvePath::Bordered { order, nb, k, bw } => {
                self.solve_bordered(ws, order, *nb, *k, *bw)
            }
        };
        if !structured_ok {
            // Dense solve — as a path of its own (with pivot reuse) or as
            // the growth-guard fallback of a structured kernel.
            if !matches!(path, SolvePath::Dense) {
                *refactors += 1;
            }
            self.solve_dense(freq_hz, ws, have_factor, refactors)?;
        }

        ws.ypi
            .matmul_into(&ws.solved, &mut ws.prod)
            .expect("dimensions chain");
        ws.ypp.sub_into(&ws.prod, &mut ws.yred);
        self.s_convert(freq_hz, ws)
    }

    /// Dense internal solve with cross-point pivot reuse. Leaves
    /// `yii⁻¹·yip` in `ws.solved`.
    fn solve_dense(
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
                // The reused pivot order went unstable (or the first
                // structured fallback landed here after a prior dense
                // factorization): full pivot search again.
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

    /// Banded internal solve; `false` = growth guard tripped, caller
    /// falls back to dense for this point.
    fn solve_banded(&self, ws: &mut AcWorkspace, order: &[usize], bw: usize) -> bool {
        let n_i = self.internal.len();
        let m = self.port_nodes.len();
        let AcWorkspace {
            ref mut banded,
            ref y,
            ref mut solved,
            ref mut col,
            ..
        } = *ws;
        let internal = &self.internal;
        banded.load(n_i, bw, bw, |p, q| {
            y[(internal[order[p]], internal[order[q]])]
        });
        if banded.factor().is_err() {
            return false;
        }
        solved.reset(n_i, m);
        for (j, &port_node) in self.port_nodes.iter().enumerate() {
            col.clear();
            col.extend(order.iter().map(|&slot| y[(internal[slot], port_node)]));
            banded.solve_in_place(col);
            for (p, &v) in col.iter().enumerate() {
                solved[(order[p], j)] = v;
            }
        }
        true
    }

    /// Bordered internal solve; `false` = growth guard tripped.
    fn solve_bordered(
        &self,
        ws: &mut AcWorkspace,
        order: &[usize],
        nb: usize,
        k: usize,
        bw: usize,
    ) -> bool {
        let n_i = self.internal.len();
        debug_assert_eq!(n_i, nb + k);
        let m = self.port_nodes.len();
        let AcWorkspace {
            ref mut bordered,
            ref y,
            ref mut solved,
            ref mut col,
            ..
        } = *ws;
        let internal = &self.internal;
        bordered.load(nb, k, bw, bw, |p, q| {
            y[(internal[order[p]], internal[order[q]])]
        });
        if bordered.factor().is_err() {
            return false;
        }
        solved.reset(n_i, m);
        for (j, &port_node) in self.port_nodes.iter().enumerate() {
            col.clear();
            col.extend(order.iter().map(|&slot| y[(internal[slot], port_node)]));
            bordered.solve_in_place(col);
            for (p, &v) in col.iter().enumerate() {
                solved[(order[p], j)] = v;
            }
        }
        true
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
    fn ladder_classifies_banded() {
        let plan = StampPlan::compile(&lc_ladder(12)).unwrap();
        assert_eq!(plan.solve_path_name(), "banded");
    }

    #[test]
    fn hub_network_classifies_bordered() {
        let plan = StampPlan::compile(&hub_network(12)).unwrap();
        assert_eq!(plan.solve_path_name(), "bordered");
    }

    #[test]
    fn small_network_stays_dense() {
        let mut c = Circuit::new();
        c.resistor("in", "out", 50.0)
            .port("in", 50.0)
            .port("out", 50.0);
        let plan = StampPlan::compile(&c).unwrap();
        assert_eq!(plan.solve_path_name(), "dense");
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
            // the unpivoted pivot degenerates; the growth guard must fall
            // back on those points (correctness) but only on a minority of
            // the grid (performance).
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
    fn stamps_between_internal_nodes_trigger_reclassification() {
        // A device stamp bridging the first and last internal ladder nodes
        // destroys the band; the sweep must not silently produce wrong
        // numbers.
        let c = lc_ladder(12);
        let plan = StampPlan::compile(&c).unwrap();
        assert_eq!(plan.solve_path_name(), "banded");
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
