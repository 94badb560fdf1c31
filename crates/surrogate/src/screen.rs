//! Lower-confidence-bound screening of expensive candidate evaluations.
//!
//! [`SurrogateScreen`] sits between an optimizer's candidate generation
//! and its batch of true evaluations. For each candidate it predicts
//! every objective with the current [`ResponseSurface`] and computes a
//! lower confidence bound `LCB_j = μ_j − κ·σ_j`: the most optimistic
//! value the model considers plausible. A candidate whose *optimistic*
//! outlook is still worse than what the optimizer already holds cannot
//! be accepted by the true evaluation either, so skipping it changes
//! nothing but the bill.
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
//! * A batch keep floor ([`SurrogateConfig::min_keep_frac`], never
//!   below one candidate) flips the most promising rejected candidates
//!   back in, so generation loops can never starve and aggressive
//!   thresholds cannot freeze a search.
//! * An ε-greedy schedule (decaying by `explore_half_life`, floored at
//!   `explore_min`) keeps spending occasional true evaluations on
//!   model-rejected candidates, which both bounds the cost of a wrong
//!   model and keeps feeding it training points off the incumbent path.

use crate::model::{ModelKind, ResponseSurface};
use rfkit_num::rng::Rng64;

/// Tuning knobs for [`SurrogateScreen`].
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Model family to fit.
    pub model: ModelKind,
    /// Training points required before the first fit; `0` selects
    /// [`ResponseSurface::min_train_points`] for the model and dimension.
    pub min_train: usize,
    /// Most-recent training window used per fit (older points age out).
    pub max_train: usize,
    /// Refit after this many new observations.
    pub retrain_every: usize,
    /// Dimensionless ridge weight for the fit.
    pub ridge: f64,
    /// Confidence multiplier κ in `LCB = μ − κ·σ`. Larger is more
    /// conservative (fewer rejections).
    pub kappa: f64,
    /// Initial ε-greedy exploration probability.
    pub explore: f64,
    /// Exploration probability floor.
    pub explore_min: f64,
    /// Screening decisions per halving of the exploration probability;
    /// `0` keeps it constant.
    pub explore_half_life: u64,
    /// Confidence floor as a fraction of the per-objective *robust*
    /// (interquartile) training spread:
    /// `σ_eff = max(σ_fit, sigma_floor · robust_spread)`, further
    /// widened by the model's data-support slack. Guards against an
    /// interpolating fit reporting zero residual.
    pub sigma_floor: f64,
    /// Observations with any `|f_j|` above this cap are excluded from
    /// training (penalty values poison polynomial fits).
    pub outlier_cap: f64,
    /// Improvement threshold as a fraction of the per-objective robust
    /// training spread: a candidate is only worth a true evaluation if
    /// its LCB beats the incumbent/reference by this much. `0` (the
    /// default) accepts any candidate that is merely not predicted
    /// worse — on a converged population that keeps paying for
    /// trade-off churn along the front, so optimization-until-plateau
    /// workloads should set a small positive value. The threshold is
    /// stagnation-gated: it stays at zero while the incumbents keep
    /// advancing and ramps in over [`improvement_patience`]
    /// (`Self::improvement_patience`) stagnant screening batches, so it
    /// never throttles a search that is still making progress.
    pub min_improvement: f64,
    /// Screening batches without incumbent progress before
    /// `min_improvement` reaches full strength (the threshold ramps in
    /// linearly). `0` applies the full threshold unconditionally.
    pub improvement_patience: u64,
    /// Minimum fraction of each batch that must survive screening
    /// (rounded up, never below one candidate). When rejections would
    /// leave fewer survivors, the most promising rejected candidates
    /// are forced back in, best first. This bounds the worst case of a
    /// wrong or over-confident model: the optimizer always retains
    /// enough true evaluations per batch to keep learning and advancing,
    /// so aggressive thresholds cannot freeze the search.
    pub min_keep_frac: f64,
    /// Seed for the private exploration RNG.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            model: ModelKind::Quadratic,
            min_train: 0,
            max_train: 256,
            retrain_every: 32,
            ridge: 1e-6,
            kappa: 1.5,
            explore: 0.15,
            explore_min: 0.02,
            explore_half_life: 512,
            sigma_floor: 0.02,
            outlier_cap: f64::INFINITY,
            min_improvement: 0.0,
            improvement_patience: 8,
            min_keep_frac: 0.0,
            seed: 0x5eed5,
        }
    }
}

/// Counters describing what a [`SurrogateScreen`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Successful model fits.
    pub fits: u64,
    /// Candidates kept because their LCB was competitive.
    pub accepted: u64,
    /// Candidates pruned (no true evaluation spent).
    pub rejected: u64,
    /// Candidates kept by the ε-greedy exploration draw.
    pub explored: u64,
    /// Candidates kept because no usable model/prediction existed.
    pub fallbacks: u64,
    /// Batch-level interventions that forced the best rejected
    /// candidate back in so a generation can never starve.
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
/// cadence, and vetoes candidates whose optimistic outlook is already
/// beaten. See the module docs for the contract.
#[derive(Debug)]
pub struct SurrogateScreen {
    dim: usize,
    n_obj: usize,
    cfg: SurrogateConfig,
    train_x: Vec<Vec<f64>>,
    train_f: Vec<Vec<f64>>,
    model: Option<ResponseSurface>,
    rng: Rng64,
    decisions: u64,
    since_fit: usize,
    /// Non-dominated subset of the previous batch's incumbents, for
    /// stagnation detection.
    prev_incumbents: Vec<Vec<f64>>,
    /// Consecutive screening batches whose incumbents did not advance.
    stagnant_batches: u64,
    stats: ScreenStats,
}

impl SurrogateScreen {
    /// Creates an empty screen for `dim` design variables and `n_obj`
    /// objectives (all minimized).
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `n_obj` is zero, or the config is out of
    /// range (`max_train < 2`, negative ridge, κ < 0, exploration
    /// probabilities outside `[0, 1]`).
    pub fn new(dim: usize, n_obj: usize, cfg: SurrogateConfig) -> Self {
        assert!(
            dim > 0 && n_obj > 0,
            "need at least one variable and objective"
        );
        assert!(cfg.max_train >= 2, "max_train must be at least 2");
        assert!(cfg.ridge >= 0.0, "ridge must be non-negative");
        assert!(cfg.kappa >= 0.0, "kappa must be non-negative");
        assert!(
            (0.0..=1.0).contains(&cfg.explore) && (0.0..=1.0).contains(&cfg.explore_min),
            "exploration probabilities must lie in [0, 1]"
        );
        assert!(
            cfg.min_improvement >= 0.0,
            "min_improvement must be non-negative"
        );
        assert!(
            (0.0..=1.0).contains(&cfg.min_keep_frac),
            "min_keep_frac must lie in [0, 1]"
        );
        let rng = Rng64::new(cfg.seed);
        SurrogateScreen {
            dim,
            n_obj,
            cfg,
            train_x: Vec::new(),
            train_f: Vec::new(),
            model: None,
            rng,
            decisions: 0,
            since_fit: 0,
            prev_incumbents: Vec::new(),
            stagnant_batches: 0,
            stats: ScreenStats::default(),
        }
    }

    /// Records a completed true evaluation as training data.
    ///
    /// Non-finite objective vectors and rows beyond
    /// [`SurrogateConfig::outlier_cap`] are ignored — penalty encodings
    /// (e.g. infeasible-point constants) would poison the fit.
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
            && f.iter()
                .all(|v| v.is_finite() && v.abs() <= self.cfg.outlier_cap);
        if !usable {
            return false;
        }
        self.train_x.push(x.to_vec());
        self.train_f.push(f.to_vec());
        // Age out old points in deterministic blocks so memory stays
        // bounded on long runs while fits always see the newest window.
        if self.train_x.len() >= 2 * self.cfg.max_train {
            let cut = self.train_x.len() - self.cfg.max_train;
            self.train_x.drain(..cut);
            self.train_f.drain(..cut);
        }
        true
    }

    /// Screens a batch of candidates.
    ///
    /// A candidate is pruned when its LCB vector — optimistic in every
    /// objective at once — is still Pareto-dominated by some point of
    /// `reference` (typically the parent population's objective
    /// vectors). With one objective that is an LCB above the best
    /// reference value. Returns one verdict per candidate; at least one
    /// is `true`.
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
        let eps = self.improvement_margin(reference);
        let mut keep = Vec::with_capacity(candidates.len());
        // Rejected candidates ranked for the keep-floor flips: fewest
        // dominating reference rows first, then lowest LCB sum, then
        // lowest index (all deterministic tie-breaks).
        let mut rejected: Vec<(usize, usize, f64)> = Vec::new();
        let mut lcb = vec![0.0; self.n_obj];
        for (i, x) in candidates.iter().enumerate() {
            let verdict = match self.lcb_into(x, &mut lcb) {
                None => Verdict::Fallback,
                Some(()) => {
                    // The ε-shifted LCB must still be undominated: the
                    // candidate has to *promise* an improvement, not
                    // merely a lateral move along the front.
                    for (l, e) in lcb.iter_mut().zip(&eps) {
                        *l += e;
                    }
                    let dominated_by = reference.iter().filter(|r| dominates(r, &lcb)).count();
                    if self.draw_explore() {
                        Verdict::Explored
                    } else if dominated_by == 0 {
                        Verdict::Accepted
                    } else {
                        let sum: f64 = lcb.iter().sum();
                        rejected.push((i, dominated_by, sum));
                        Verdict::Rejected
                    }
                }
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

    /// The lower confidence bound the screen would use for `x`, or
    /// `None` when no usable model exists. Exposed for tests and
    /// diagnostics — never feed these values into results.
    pub fn predict_lcb(&self, x: &[f64]) -> Option<Vec<f64>> {
        let mut out = vec![0.0; self.n_obj];
        self.lcb_into(x, &mut out).map(|()| out)
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

    fn min_train(&self) -> usize {
        if self.cfg.min_train > 0 {
            self.cfg.min_train
        } else {
            ResponseSurface::min_train_points(self.cfg.model, self.dim)
        }
    }

    /// Refits lazily at screen entry: first fit once enough training
    /// points exist, then on the retrain cadence.
    fn ensure_fitted(&mut self) {
        let enough = self.train_x.len() >= self.min_train();
        let due = self.model.is_none() || self.since_fit >= self.cfg.retrain_every;
        if !(enough && due) {
            return;
        }
        let start = self.train_x.len().saturating_sub(self.cfg.max_train);
        let _span = rfkit_obs::span("surrogate.fit");
        match ResponseSurface::fit(
            self.cfg.model,
            &self.train_x[start..],
            &self.train_f[start..],
            self.cfg.ridge,
        ) {
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
        self.since_fit = 0;
    }

    /// Updates the stagnation gate from this batch's incumbent set and
    /// returns the per-objective improvement threshold in objective
    /// units (zero while no model is armed).
    ///
    /// Only the *non-dominated subset* of the incumbents is tracked —
    /// against the full set, any offspring that displaces a dominated
    /// straggler would register as progress, and an actively-selecting
    /// optimizer does that every batch. The front "advanced" when some
    /// current front row strictly dominates a previous front row, or
    /// pushes past the previous per-objective minimum (an extreme
    /// extension). Lateral in-fill along an unchanged front counts as
    /// stagnation — that is exactly the churn the threshold exists to
    /// stop paying for. The threshold ramps in linearly over
    /// `improvement_patience` stagnant batches and resets to zero the
    /// moment progress reappears, so a search that is still advancing
    /// is never throttled, while a plateaued one drains to the
    /// keep-floor-plus-exploration trickle.
    fn improvement_margin(&mut self, incumbents: &[Vec<f64>]) -> Vec<f64> {
        let front: Vec<Vec<f64>> = incumbents
            .iter()
            .filter(|r| !incumbents.iter().any(|o| dominates(o, r)))
            .cloned()
            .collect();
        if !self.prev_incumbents.is_empty() {
            let mut prev_min = vec![f64::INFINITY; self.n_obj];
            for p in &self.prev_incumbents {
                for (slot, v) in prev_min.iter_mut().zip(p) {
                    *slot = slot.min(*v);
                }
            }
            let advanced = front.iter().any(|r| {
                self.prev_incumbents.iter().any(|p| dominates(r, p))
                    || r.iter().zip(&prev_min).any(|(v, m)| v < m)
            });
            if advanced {
                self.stagnant_batches = 0;
            } else {
                self.stagnant_batches += 1;
            }
        }
        self.prev_incumbents = front;
        let ramp = if self.cfg.improvement_patience == 0 {
            1.0
        } else {
            (self.stagnant_batches as f64 / self.cfg.improvement_patience as f64).min(1.0)
        };
        match &self.model {
            Some(m) => m
                .robust_spread()
                .iter()
                .map(|s| self.cfg.min_improvement * ramp * s)
                .collect(),
            None => vec![0.0; self.n_obj],
        }
    }

    fn lcb_into(&self, x: &[f64], out: &mut [f64]) -> Option<()> {
        let model = self.model.as_ref()?;
        let support = model.predict_into(x, out);
        // Confidence widens as data support drops: at a training point
        // the band is the fit residual (floored), with no support it
        // opens by the robust training spread. Both the floor and the
        // support slack scale with the *robust* (interquartile) spread —
        // a penalty plateau in the training values stretches the full
        // spread a thousandfold, and a band on that scale would swallow
        // every comparison ordinary candidates face.
        let slack = 1.0 - support;
        let mut ok = true;
        for (j, o) in out.iter_mut().enumerate() {
            let spread = model.robust_spread()[j];
            let sigma = model.sigma()[j].max(self.cfg.sigma_floor * spread) + slack * spread;
            *o -= self.cfg.kappa * sigma;
            ok &= o.is_finite();
        }
        ok.then_some(())
    }

    /// One ε-greedy draw per modeled candidate, with deterministic
    /// exponential decay of the exploration probability.
    fn draw_explore(&mut self) -> bool {
        let eps = if self.cfg.explore_half_life == 0 {
            self.cfg.explore
        } else {
            let t = self.decisions as f64 / self.cfg.explore_half_life as f64;
            (self.cfg.explore * 0.5_f64.powf(t)).max(self.cfg.explore_min)
        };
        self.decisions += 1;
        self.rng.chance(eps)
    }

    /// Applies the batch keep floor (flipping ranked rejected
    /// candidates back in, best first), emits telemetry, and converts
    /// verdicts to booleans.
    fn finalize(&mut self, verdicts: &mut [Verdict], ranked_rejected: &[usize]) -> Vec<bool> {
        let min_keep = ((self.cfg.min_keep_frac * verdicts.len() as f64).ceil() as usize).max(1);
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

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_no_explore(model: ModelKind) -> SurrogateConfig {
        SurrogateConfig {
            model,
            explore: 0.0,
            explore_min: 0.0,
            kappa: 1.0,
            ..SurrogateConfig::default()
        }
    }

    /// Deterministic 2-D sample cloud and a smooth scalar objective.
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

    #[test]
    fn cold_start_passes_everything_as_fallback() {
        let mut s = SurrogateScreen::new(2, 1, cfg_no_explore(ModelKind::Quadratic));
        let cands = vec![vec![0.1, 0.2], vec![0.5, -0.4]];
        let keep = s.screen_multi(&cands, &[vec![0.0]]);
        assert_eq!(keep, vec![true, true]);
        assert_eq!(s.stats().fallbacks, 2);
        assert_eq!(s.stats().rejected, 0);
        assert!(!s.has_model());
    }

    #[test]
    fn fitted_screen_prunes_hopeless_scalar_candidates() {
        let mut s = SurrogateScreen::new(2, 1, cfg_no_explore(ModelKind::Quadratic));
        let (xs, fs) = scalar_training(60);
        for (x, f) in xs.iter().zip(&fs) {
            s.observe(x, f);
        }
        // Incumbent is excellent; a far-out candidate's LCB can't beat it.
        let cands = vec![vec![0.9, 0.9], vec![0.02, -0.03]];
        let keep = s.screen_multi(&cands, &[vec![0.01]]);
        assert!(s.has_model());
        assert!(!keep[0], "hopeless candidate should be pruned");
        assert!(keep[1], "near-optimal candidate must survive");
        assert!(s.stats().rejected >= 1);
        assert!(s.stats().true_evals() >= 1);
    }

    #[test]
    fn at_least_one_candidate_always_survives() {
        let mut s = SurrogateScreen::new(2, 1, cfg_no_explore(ModelKind::Quadratic));
        let (xs, fs) = scalar_training(60);
        for (x, f) in xs.iter().zip(&fs) {
            s.observe(x, f);
        }
        // All candidates are terrible against an unbeatable incumbent.
        let cands = vec![vec![0.9, 0.9], vec![-0.8, 0.95], vec![0.85, -0.9]];
        let keep = s.screen_multi(&cands, &[vec![-100.0]]);
        assert_eq!(keep.iter().filter(|k| **k).count(), 1);
        assert_eq!(s.stats().forced, 1);
    }

    #[test]
    fn multi_objective_dominated_lcb_is_pruned() {
        let mut s = SurrogateScreen::new(2, 2, cfg_no_explore(ModelKind::Quadratic));
        let mut rng = Rng64::new(7);
        for _ in 0..80 {
            let x = vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
            // Conflicting objectives: f1 wants x near (1,1), f2 near (-1,-1).
            let f1 = (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2);
            let f2 = (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2);
            s.observe(&x, &[f1, f2]);
        }
        // Reference: a point near each attractor — together they
        // dominate the middle-of-nowhere corner (1, -1) region? No:
        // corner (1,-1) trades off. Use a reference that dominates
        // everything far from the diagonal.
        let reference = vec![vec![0.1, 0.1]];
        // (0,0) has f ≈ (2,2): dominated by (0.1,0.1). On-diagonal
        // optimum (1,1) has f ≈ (0,8): not dominated.
        let cands = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let keep = s.screen_multi(&cands, &reference);
        assert!(s.has_model());
        assert!(!keep[0], "dominated-LCB candidate should be pruned");
        assert!(keep[1], "trade-off candidate must survive");
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = || {
            let mut cfg = cfg_no_explore(ModelKind::Quadratic);
            cfg.explore = 0.3;
            cfg.explore_min = 0.05;
            cfg.seed = 99;
            let mut s = SurrogateScreen::new(2, 1, cfg);
            let (xs, fs) = scalar_training(80);
            for (x, f) in xs.iter().zip(&fs) {
                s.observe(x, f);
            }
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
    }

    #[test]
    fn outlier_cap_excludes_penalty_rows() {
        let mut cfg = cfg_no_explore(ModelKind::Quadratic);
        cfg.outlier_cap = 100.0;
        let mut s = SurrogateScreen::new(2, 1, cfg);
        s.observe(&[0.0, 0.0], &[1e3]); // penalty encoding: ignored
        s.observe(&[0.1, 0.1], &[2.0]);
        s.observe(&[0.2, 0.1], &[f64::NAN]); // non-finite: ignored
        assert_eq!(s.training_len(), 1);
    }

    #[test]
    fn retrain_cadence_refits_with_new_data() {
        let mut cfg = cfg_no_explore(ModelKind::Quadratic);
        cfg.retrain_every = 10;
        let mut s = SurrogateScreen::new(2, 1, cfg);
        let (xs, fs) = scalar_training(90);
        for (x, f) in xs.iter().zip(&fs).take(60) {
            s.observe(x, f);
        }
        let cands = vec![vec![0.0, 0.0]];
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1);
        for (x, f) in xs.iter().zip(&fs).skip(60) {
            s.observe(x, f);
        }
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 2, "cadence-due refit did not happen");
    }

    #[test]
    fn seeding_does_not_advance_the_retrain_cadence() {
        let mut cfg = cfg_no_explore(ModelKind::Quadratic);
        cfg.retrain_every = 10;
        let mut s = SurrogateScreen::new(2, 1, cfg);
        let (xs, fs) = scalar_training(70);
        for (x, f) in xs.iter().zip(&fs).take(60) {
            s.observe(x, f);
        }
        let cands = vec![vec![0.0, 0.0]];
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1);
        let seeded: Vec<(Vec<f64>, Vec<f64>)> = xs
            .iter()
            .cloned()
            .zip(fs.iter().cloned())
            .skip(60)
            .collect();
        s.seed_training(&seeded);
        assert_eq!(s.training_len(), 70);
        s.screen_multi(&cands, &[vec![10.0]]);
        assert_eq!(s.stats().fits, 1, "seeded points triggered a refit");
    }

    #[test]
    fn rbf_screen_also_arms() {
        let mut s = SurrogateScreen::new(2, 1, cfg_no_explore(ModelKind::Rbf));
        let (xs, fs) = scalar_training(40);
        for (x, f) in xs.iter().zip(&fs) {
            s.observe(x, f);
        }
        s.screen_multi(&[vec![0.0, 0.0]], &[vec![10.0]]);
        assert!(s.has_model());
        let lcb = s.predict_lcb(&[0.0, 0.0]).unwrap();
        assert!(lcb[0].is_finite());
    }

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }
}
