//! Prediction screening of expensive candidate evaluations.
//!
//! [`SurrogateScreen`] sits between an optimizer's candidate generation
//! and its batch of true evaluations. For each candidate it predicts
//! every objective with the current [`ResponseSurface`] and adds an
//! improvement margin. A candidate whose shifted prediction is still
//! Pareto-dominated by what the optimizer already holds does not promise
//! an improvement, so its true evaluation is skipped.
//!
//! The screen has one configuration, the one the band study runs (see
//! the constants below); only the exploration seed is a parameter. The
//! plain prediction is compared, not a lower confidence bound: on the
//! study's cliff-dominated landscape a confidence band is
//! over-conservative next to the feasibility boundary (the penalty
//! plateau inflates the spread exactly where pruning pays), so the
//! always-on margin does the pruning and the keep floor and exploration
//! trickle act as safety valves.
//!
//! ## What a verdict means — the prune-never-propagate contract
//!
//! The screen returns only booleans: `true` = spend a true evaluation,
//! `false` = skip this candidate entirely. Predicted values never leave
//! this module; no Pareto front, report, or cache entry can ever hold a
//! surrogate number. The `surrogate-leak` lint in `rfkit-analyze`
//! enforces this structurally across the workspace.
//!
//! ## Determinism
//!
//! All decisions — including the ε-greedy exploration draws from the
//! screen's private seeded [`Rng64`] — are made serially by the caller's
//! generation loop before any parallel evaluation starts, so a fixed
//! seed produces bit-identical decision sequences at any
//! `RFKIT_THREADS`. The screen never reads clocks or ambient state.
//!
//! ## Safety valves
//!
//! * With no model yet (cold start, too few points, failed fit) every
//!   candidate passes (`surrogate.fallback`).
//! * A non-finite prediction passes the candidate.
//! * A batch keep floor (an eighth of the batch, never below one
//!   candidate) flips the most promising rejected candidates back in,
//!   so generation loops can never starve and a confidently wrong model
//!   cannot freeze a search.
//! * An ε-greedy schedule keeps spending occasional true evaluations on
//!   model-rejected candidates, which both bounds the cost of a wrong
//!   model and keeps feeding it training points off the incumbent path.

use crate::model::ResponseSurface;
use rfkit_num::rng::Rng64;

/// Most-recent training window used per fit (older points age out).
///
/// A fit factors an n × n kernel (n³/3 LU work, n²/2 `exp` pairs) and
/// each screened candidate costs n kernel `exp` calls, so the window
/// sets the screen's price. At 256 rows the study's refits took about
/// half of a perfbench `study`; at 128 each refit does an eighth of the
/// LU work and the study runs about 2× faster at equal or better
/// hypervolume. At 64 rows the model can no longer hold the feasibility
/// cliff: the warm-cache study test's screened front collapses to
/// hypervolume 0.
const MAX_TRAIN: usize = 128;
/// Refit after this many new observations.
const RETRAIN_EVERY: usize = 32;
/// Dimensionless ridge weight added to the unit kernel diagonal.
const RIDGE: f64 = 1e-6;
/// Initial ε-greedy exploration probability.
const EXPLORE: f64 = 0.15;
/// Exploration probability floor.
const EXPLORE_MIN: f64 = 0.05;
/// Screening decisions per halving of the exploration probability.
const EXPLORE_HALF_LIFE: u64 = 512;
/// Observations with any `|f_j|` above this are excluded from training.
/// It is 10 × the band study's infeasibility penalty (1e3), so penalty
/// rows still train the model — that is how the RBF learns where the
/// feasibility cliff is — while genuinely broken values stay out.
const OUTLIER_CAP: f64 = 1e4;
/// Improvement margin as a fraction of the per-objective robust
/// training spread: a candidate is worth a true evaluation only if its
/// prediction beats the reference by this much. A margin of zero keeps
/// paying for lateral churn along a converged front.
const MIN_IMPROVEMENT: f64 = 0.3;
/// Minimum fraction of each batch that survives screening (rounded up,
/// never below one candidate).
const MIN_KEEP_FRAC: f64 = 0.125;

/// Configuration of a [`SurrogateScreen`]: the seed of its private
/// exploration RNG. Every other setting is fixed by the screen.
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Seed for the private exploration RNG.
    pub seed: u64,
}

/// Counters describing what a [`SurrogateScreen`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Successful model fits.
    pub fits: u64,
    /// Candidates kept because their prediction was competitive, plus
    /// those the keep floor forced back in.
    pub accepted: u64,
    /// Candidates pruned (no true evaluation spent).
    pub rejected: u64,
    /// Candidates kept by the ε-greedy exploration draw.
    pub explored: u64,
    /// Candidates kept because no usable model/prediction existed.
    pub fallbacks: u64,
    /// Rejected candidates the batch keep floor forced back in so a
    /// generation can never starve.
    pub forced: u64,
}

impl ScreenStats {
    /// Total candidates the screen let through to true evaluation.
    pub fn true_evals(&self) -> u64 {
        self.accepted + self.explored + self.fallbacks
    }
}

static OBS_FIT_COUNT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.fit");
static OBS_ACCEPT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.accept");
static OBS_REJECT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.reject");
static OBS_TRUE_EVALS: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.true_evals");
static OBS_FALLBACK: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.fallback");

/// Online surrogate screen: observes true evaluations, refits on a
/// cadence, and vetoes candidates whose predicted outlook is already
/// beaten. See the module docs for the contract.
#[derive(Debug)]
pub struct SurrogateScreen {
    dim: usize,
    n_obj: usize,
    train_x: Vec<Vec<f64>>,
    train_f: Vec<Vec<f64>>,
    model: Option<ResponseSurface>,
    rng: Rng64,
    decisions: u64,
    since_fit: usize,
    stats: ScreenStats,
}

impl SurrogateScreen {
    /// Creates an empty screen for `dim` design variables and `n_obj`
    /// objectives (all minimized).
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `n_obj` is zero.
    pub fn new(dim: usize, n_obj: usize, cfg: SurrogateConfig) -> Self {
        assert!(
            dim > 0 && n_obj > 0,
            "need at least one variable and objective"
        );
        SurrogateScreen {
            dim,
            n_obj,
            train_x: Vec::new(),
            train_f: Vec::new(),
            model: None,
            rng: Rng64::new(cfg.seed),
            decisions: 0,
            since_fit: 0,
            stats: ScreenStats::default(),
        }
    }

    /// Records a completed true evaluation as training data.
    ///
    /// Non-finite rows and rows with an objective beyond the outlier
    /// cap (10 × the band study's infeasibility penalty) are ignored.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn observe(&mut self, x: &[f64], f: &[f64]) {
        if self.push_training(x, f) {
            self.since_fit += 1;
        }
    }

    /// Seeds the training set from already-evaluated `(x, f)` pairs —
    /// e.g. a `DesignCache` snapshot — without counting toward the
    /// retrain cadence. Rows are filtered as in [`observe`](Self::observe).
    ///
    /// Seed rows join the same window as observed ones: a fit reads only
    /// the newest 128 rows, so of a larger seed only its tail (in the
    /// order given) trains the model, and rows observed later push the
    /// seed out.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn seed_training(&mut self, pts: &[(Vec<f64>, Vec<f64>)]) {
        for (x, f) in pts {
            self.push_training(x, f);
        }
    }

    /// Appends one usable `(x, f)` row to the training window; returns
    /// whether the row was kept.
    fn push_training(&mut self, x: &[f64], f: &[f64]) -> bool {
        assert_eq!(x.len(), self.dim, "design-point dimension mismatch");
        assert_eq!(f.len(), self.n_obj, "objective-count mismatch");
        let usable = x.iter().all(|v| v.is_finite())
            && f.iter().all(|v| v.is_finite() && v.abs() <= OUTLIER_CAP);
        if !usable {
            return false;
        }
        self.train_x.push(x.to_vec());
        self.train_f.push(f.to_vec());
        // Age out old points in deterministic blocks so memory stays
        // bounded on long runs while fits always see the newest window.
        if self.train_x.len() >= 2 * MAX_TRAIN {
            let cut = self.train_x.len() - MAX_TRAIN;
            self.train_x.drain(..cut);
            self.train_f.drain(..cut);
        }
        true
    }

    /// Screens a batch of candidates.
    ///
    /// A candidate is pruned when its prediction, shifted up by the
    /// improvement margin in every objective, is still Pareto-dominated
    /// by some point of `reference` (typically the parent population's
    /// objective vectors). With one objective that is a shifted
    /// prediction above the best reference value. Returns one verdict
    /// per candidate; at least one is `true`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or if `reference` rows disagree
    /// with the screen's objective count.
    pub fn screen_multi(&mut self, candidates: &[Vec<f64>], reference: &[Vec<f64>]) -> Vec<bool> {
        for r in reference {
            assert_eq!(r.len(), self.n_obj, "reference objective-count mismatch");
        }
        self.ensure_fitted();
        let margin: Vec<f64> = match &self.model {
            Some(m) => m
                .robust_spread()
                .iter()
                .map(|s| MIN_IMPROVEMENT * s)
                .collect(),
            None => vec![0.0; self.n_obj],
        };
        let mut keep = Vec::with_capacity(candidates.len());
        // Rejected candidates ranked for the keep-floor flips: fewest
        // dominating reference rows first, then lowest shifted
        // prediction sum, then lowest index (all deterministic
        // tie-breaks).
        let mut rejected: Vec<(usize, usize, f64)> = Vec::new();
        let mut pred = vec![0.0; self.n_obj];
        for (i, x) in candidates.iter().enumerate() {
            let verdict = if self.predict_into(x, &mut pred) {
                // The shifted prediction must still be undominated: the
                // candidate has to *promise* an improvement, not merely
                // a lateral move along the front.
                for (p, m) in pred.iter_mut().zip(&margin) {
                    *p += m;
                }
                let dominated_by = reference.iter().filter(|r| dominates(r, &pred)).count();
                if self.draw_explore() {
                    Verdict::Explored
                } else if dominated_by == 0 {
                    Verdict::Accepted
                } else {
                    let sum: f64 = pred.iter().sum();
                    rejected.push((i, dominated_by, sum));
                    Verdict::Rejected
                }
            } else {
                Verdict::Fallback
            };
            keep.push(verdict);
        }
        rejected.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then(rfkit_num::total_cmp_f64(&a.2, &b.2))
                .then(a.0.cmp(&b.0))
        });
        let ranked: Vec<usize> = rejected.into_iter().map(|(i, ..)| i).collect();
        self.finalize(&mut keep, &ranked)
    }

    /// Decision counters accumulated so far.
    pub fn stats(&self) -> ScreenStats {
        self.stats
    }

    /// Whether a fitted model is currently armed.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Training points currently held.
    pub fn training_len(&self) -> usize {
        self.train_x.len()
    }

    /// Refits lazily at screen entry: first fit once enough training
    /// points exist, then on the retrain cadence.
    fn ensure_fitted(&mut self) {
        let enough = self.train_x.len() >= ResponseSurface::min_train_points(self.dim);
        let due = self.model.is_none() || self.since_fit >= RETRAIN_EVERY;
        if !(enough && due) {
            return;
        }
        let start = self.train_x.len().saturating_sub(MAX_TRAIN);
        self.since_fit = 0;
        let window = &self.train_f[start..];
        if window.iter().all(|row| same_bits(row, &window[0])) {
            // Every row sits on one value (e.g. the penalty plateau): a
            // mean-offset model predicts that constant everywhere, the
            // improvement margin is zero and nothing can be dominated, so
            // the fit could never reject. Fall back to true evaluation.
            self.model = None;
            return;
        }
        let _span = rfkit_obs::span("surrogate.fit");
        match ResponseSurface::fit(&self.train_x[start..], window, RIDGE) {
            Ok(m) => {
                self.model = Some(m);
                self.stats.fits += 1;
                OBS_FIT_COUNT.add(1);
            }
            Err(_) => {
                // Degenerate window (e.g. coincident points): drop the
                // model and fall back to true evaluation until the data
                // improves.
                self.model = None;
            }
        }
    }

    /// Predicts every objective of `x` into `out`; `false` when no model
    /// is armed or a prediction is not finite.
    fn predict_into(&self, x: &[f64], out: &mut [f64]) -> bool {
        match &self.model {
            Some(model) => {
                model.predict_into(x, out);
                out.iter().all(|o| o.is_finite())
            }
            None => false,
        }
    }

    /// One ε-greedy draw per modeled candidate, with deterministic
    /// exponential decay of the exploration probability.
    fn draw_explore(&mut self) -> bool {
        let t = self.decisions as f64 / EXPLORE_HALF_LIFE as f64;
        let eps = (EXPLORE * 0.5_f64.powf(t)).max(EXPLORE_MIN);
        self.decisions += 1;
        self.rng.chance(eps)
    }

    /// Applies the batch keep floor (flipping ranked rejected
    /// candidates back in, best first), emits telemetry, and converts
    /// verdicts to booleans.
    fn finalize(&mut self, verdicts: &mut [Verdict], ranked_rejected: &[usize]) -> Vec<bool> {
        let min_keep = ((MIN_KEEP_FRAC * verdicts.len() as f64).ceil() as usize).max(1);
        let kept_n = verdicts.iter().filter(|v| **v != Verdict::Rejected).count();
        for &i in ranked_rejected.iter().take(min_keep.saturating_sub(kept_n)) {
            verdicts[i] = Verdict::Forced;
            self.stats.forced += 1;
        }
        let mut kept = 0u64;
        for v in verdicts.iter() {
            match v {
                Verdict::Accepted | Verdict::Forced => {
                    self.stats.accepted += 1;
                    OBS_ACCEPT.add(1);
                }
                Verdict::Explored => {
                    self.stats.explored += 1;
                    OBS_ACCEPT.add(1);
                }
                Verdict::Fallback => {
                    self.stats.fallbacks += 1;
                    OBS_FALLBACK.add(1);
                }
                Verdict::Rejected => {
                    self.stats.rejected += 1;
                    OBS_REJECT.add(1);
                }
            }
            if *v != Verdict::Rejected {
                kept += 1;
            }
        }
        OBS_TRUE_EVALS.add(kept);
        verdicts.iter().map(|v| *v != Verdict::Rejected).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Accepted,
    Explored,
    Fallback,
    Rejected,
    Forced,
}

/// `a` Pareto-dominates `b` under minimization: no worse everywhere,
/// strictly better somewhere.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (ai, bi) in a.iter().zip(b) {
        if ai > bi {
            return false;
        }
        if ai < bi {
            strictly = true;
        }
    }
    strictly
}

/// `a` and `b` hold the same values bit for bit (rows of one training
/// set, so the lengths match).
fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn new_screen(dim: usize, n_obj: usize) -> SurrogateScreen {
        SurrogateScreen::new(dim, n_obj, SurrogateConfig { seed: 99 })
    }

    /// Deterministic 2-D sample cloud and a smooth scalar objective
    /// whose minimum (≈ −0.02) sits at (−0.15, 0).
    fn scalar_training(n: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = Rng64::new(42);
        let mut xs = Vec::new();
        let mut fs = Vec::new();
        for _ in 0..n {
            let x = vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
            let f = x[0] * x[0] + 2.0 * x[1] * x[1] + 0.3 * x[0];
            fs.push(vec![f]);
            xs.push(x);
        }
        (xs, fs)
    }

    /// A scalar screen that has observed 60 true evaluations.
    fn trained_scalar_screen() -> SurrogateScreen {
        let mut s = new_screen(2, 1);
        let (xs, fs) = scalar_training(60);
        for (x, f) in xs.iter().zip(&fs) {
            s.observe(x, f);
        }
        s
    }

    /// `n` candidates on the ring |x| = 0.9, where the objective lies
    /// between ~0.5 and ~1.6.
    fn ring(n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                let a = std::f64::consts::TAU * i as f64 / n as f64;
                vec![0.9 * a.cos(), 0.9 * a.sin()]
            })
            .collect()
    }

    fn kept(keep: &[bool]) -> u64 {
        keep.iter().filter(|k| **k).count() as u64
    }

    #[test]
    fn constant_training_window_is_not_fitted() {
        // Every observation on one plateau value: a model of it predicts
        // that constant with a zero margin and could never reject, so the
        // screen skips the fit and lets every candidate through.
        let mut s = new_screen(2, 1);
        let (xs, _) = scalar_training(60);
        for x in &xs {
            s.observe(x, &[1e3]);
        }
        let keep = s.screen_multi(&ring(8), &[vec![1e3]]);
        assert_eq!(kept(&keep), 8);
        assert!(!s.has_model());
        assert_eq!(s.stats().fits, 0);
        assert_eq!(s.stats().fallbacks, 8);
        // One observation off the plateau makes the window fittable.
        s.observe(&[0.0, 0.0], &[0.0]);
        s.screen_multi(&ring(8), &[vec![1e3]]);
        assert!(s.has_model());
        assert_eq!(s.stats().fits, 1);
    }

    #[test]
    fn cold_start_passes_everything_as_fallback() {
        let mut s = new_screen(2, 1);
        let cands = vec![vec![0.1, 0.2], vec![0.5, -0.4]];
        let keep = s.screen_multi(&cands, &[vec![0.0]]);
        assert_eq!(keep, vec![true, true]);
        assert_eq!(s.stats().fallbacks, 2);
        assert_eq!(s.stats().rejected, 0);
        assert!(!s.has_model());
    }

    #[test]
    fn fitted_screen_prunes_hopeless_candidates() {
        let mut s = trained_scalar_screen();
        // Against an excellent incumbent no candidate on the ring
        // promises an improvement: survivors are exploration draws or
        // keep-floor flips, never accepted on merit.
        let keep = s.screen_multi(&ring(40), &[vec![-0.01]]);
        let st = s.stats();
        assert!(s.has_model());
        assert_eq!(st.fits, 1);
        assert_eq!(st.fallbacks, 0);
        assert_eq!(st.accepted, st.forced, "a hopeless candidate was accepted");
        assert!(st.rejected >= 30, "{st:?}");
        assert_eq!(st.rejected + st.true_evals(), 40);
        assert_eq!(kept(&keep), st.true_evals());
    }

    #[test]
    fn candidates_predicted_well_below_the_reference_survive() {
        let mut s = trained_scalar_screen();
        let cands = vec![
            vec![-0.15, 0.0],
            vec![0.0, 0.05],
            vec![-0.3, -0.1],
            vec![0.1, 0.1],
        ];
        let keep = s.screen_multi(&cands, &[vec![1.0]]);
        assert_eq!(keep, vec![true; 4]);
        assert_eq!(s.stats().rejected, 0);
        assert_eq!(s.stats().forced, 0);
    }

    #[test]
    fn multi_objective_dominated_predictions_are_pruned() {
        let mut s = new_screen(2, 2);
        let mut rng = Rng64::new(7);
        for _ in 0..80 {
            let x = vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
            // Conflicting objectives: f1 wants x near (1,1), f2 near (-1,-1).
            let f1 = (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2);
            let f2 = (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2);
            s.observe(&x, &[f1, f2]);
        }
        // On the anti-diagonal (t, −t) both objectives are 2 + 2t², so
        // the reference (2, 2) dominates every such candidate. Near the
        // attractors on the diagonal one objective beats 2 by far: a
        // trade-off the reference cannot dominate.
        let middle: Vec<Vec<f64>> = [-0.4, -0.2, 0.0, 0.2, 0.4]
            .iter()
            .map(|t| vec![*t, -t])
            .collect();
        let trade_offs = vec![
            vec![0.8, 0.8],
            vec![0.6, 0.6],
            vec![-0.6, -0.6],
            vec![-0.8, -0.8],
        ];
        let cands: Vec<Vec<f64>> = middle.iter().chain(&trade_offs).cloned().collect();
        let keep = s.screen_multi(&cands, &[vec![2.0, 2.0]]);
        let st = s.stats();
        assert!(s.has_model());
        assert!(
            keep[middle.len()..].iter().all(|k| *k),
            "a trade-off candidate was pruned: {keep:?}"
        );
        assert_eq!(st.forced, 0);
        assert!(st.rejected > 0, "{st:?}");
        assert!(
            kept(&keep[..middle.len()]) <= st.explored,
            "{keep:?} {st:?}"
        );
    }

    #[test]
    fn keep_floor_forces_the_best_ranked_rejects_back() {
        let mut s = trained_scalar_screen();
        let unbeatable = [vec![-100.0]];
        // Spend the exploration schedule down to its floor (5 %, below
        // the 12.5 % keep floor) so the floor has work to do.
        for _ in 0..16 {
            s.screen_multi(&ring(64), &unbeatable);
        }
        let before = s.stats();
        // The best-ranked reject (lowest prediction) comes first.
        let mut cands = vec![vec![-0.15, 0.0]];
        cands.extend(ring(63));
        let keep = s.screen_multi(&cands, &unbeatable);
        let st = s.stats();
        let explored = st.explored - before.explored;
        let forced = st.forced - before.forced;
        assert!(forced > 0, "keep floor never engaged");
        assert_eq!(st.accepted - before.accepted, forced);
        assert_eq!(kept(&keep), 8.max(explored), "64 candidates keep 8");
        assert!(keep[0], "the best-ranked reject was not forced back");
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = || {
            let mut s = trained_scalar_screen();
            let mut rng = Rng64::new(5);
            let mut verdicts = Vec::new();
            for _ in 0..10 {
                let cands: Vec<Vec<f64>> = (0..8)
                    .map(|_| vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
                    .collect();
                verdicts.push(s.screen_multi(&cands, &[vec![0.05]]));
            }
            (verdicts, s.stats())
        };
        let (v1, s1) = run();
        let (v2, s2) = run();
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
        assert!(s1.rejected > 0 && s1.explored > 0, "{s1:?}");
    }

    #[test]
    fn capped_and_non_finite_rows_are_excluded() {
        let mut s = new_screen(2, 1);
        s.observe(&[0.0, 0.0], &[2e4]); // beyond the cap: ignored
        s.observe(&[0.0, 0.1], &[1e3]); // the study's penalty: trains
        s.observe(&[0.1, 0.1], &[2.0]);
        s.observe(&[0.2, 0.1], &[f64::NAN]); // non-finite: ignored
        s.observe(&[f64::INFINITY, 0.1], &[2.0]); // non-finite: ignored
        assert_eq!(s.training_len(), 2);
    }

    #[test]
    fn retrain_cadence_refits_after_32_observations() {
        let mut s = trained_scalar_screen();
        let cands = vec![vec![0.0, 0.0]];
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1);
        let (xs, fs) = scalar_training(92);
        for (x, f) in xs.iter().zip(&fs).skip(60).take(31) {
            s.observe(x, f);
        }
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1, "refit before the cadence was due");
        s.observe(&xs[91], &fs[91]);
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 2, "cadence-due refit did not happen");
    }

    #[test]
    fn fit_reads_exactly_the_newest_window() {
        let mut s = new_screen(2, 1);
        let (xs, fs) = scalar_training(3 * MAX_TRAIN);
        for (x, f) in xs.iter().zip(&fs) {
            s.observe(x, f);
            assert!(s.training_len() < 2 * MAX_TRAIN, "{}", s.training_len());
        }
        s.screen_multi(&ring(8), &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1);
        let start = xs.len() - MAX_TRAIN;
        let reference = ResponseSurface::fit(&xs[start..], &fs[start..], RIDGE).expect("fits");
        let armed = s.model.as_ref().expect("model armed");
        let (mut got, mut want) = ([0.0], [0.0]);
        for x in ring(16).iter().chain(&xs[..4]) {
            armed.predict_into(x, &mut got);
            reference.predict_into(x, &mut want);
            assert_eq!(got[0].to_bits(), want[0].to_bits(), "at {x:?}");
        }
    }

    #[test]
    fn seeding_does_not_advance_the_retrain_cadence() {
        let mut s = trained_scalar_screen();
        let cands = vec![vec![0.0, 0.0]];
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1);
        let (xs, fs) = scalar_training(100);
        let seeded: Vec<(Vec<f64>, Vec<f64>)> = xs
            .iter()
            .cloned()
            .zip(fs.iter().cloned())
            .skip(60)
            .collect();
        s.seed_training(&seeded);
        assert_eq!(s.training_len(), 100);
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1, "seeded points triggered a refit");
    }

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }
}
