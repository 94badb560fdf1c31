//! # rfkit-opt
//!
//! Scalar and multi-objective optimization for the rfkit suite, written
//! from scratch:
//!
//! * direct methods: [`nelder_mead`], [`pattern_search`],
//!   [`levenberg_marquardt`];
//! * meta-heuristics: [`differential_evolution`], [`simulated_annealing`],
//!   [`particle_swarm`];
//! * multi-objective: Pareto utilities ([`pareto`]), weighted-sum and
//!   ε-constraint baselines ([`scalarize`]), NSGA-II ([`nsga2`]) and the
//!   goal-attainment method in standard and improved form ([`goal`]) —
//!   the paper's methodological contribution;
//! * a surrogate-screened NSGA-II ([`nsga2_screened`]) that consults an
//!   `rfkit-surrogate` response-surface model serially before each
//!   parallel batch, pruning offspring whose optimistic outlook is
//!   already dominated — predictions only veto evaluations, they never
//!   enter results.
//!
//! Each solver runs at one setting. Its configuration names only what
//! callers vary: the evaluation budget and the seed, the goal solver's
//! restart count and global fraction, NSGA-II's population, generations
//! and warm start, and the pattern search's initial mesh. Every other
//! setting (DE's weight and crossover, PSO's coefficients, the
//! tolerances, NSGA-II's variation operators) is a constant of the
//! solver's module.
//!
//! ## Example: trade off two competing objectives
//!
//! ```
//! use rfkit_opt::{improved_goal_attainment, Bounds, GoalConfig, GoalProblem};
//!
//! // Minimize both x² and (x−2)² — the Pareto set is x ∈ [0, 2].
//! let objectives = |x: &[f64]| vec![x[0] * x[0], (x[0] - 2.0) * (x[0] - 2.0)];
//! let problem = GoalProblem::new(
//!     &objectives,
//!     vec![0.0, 0.0],      // aspire to both being 0
//!     vec![1.0, 1.0],      // equal priority
//!     Bounds::uniform(1, -1.0, 3.0),
//! );
//! let r = improved_goal_attainment(&problem, &GoalConfig::default());
//! assert!((r.x[0] - 1.0).abs() < 1e-2); // the balanced trade-off
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod de;
pub mod goal;
mod lm;
mod nelder_mead;
mod nsga2;
pub mod pareto;
mod pattern;
mod problem;
mod pso;
mod sa;
pub mod scalarize;

pub use de::{differential_evolution, DeConfig};
pub use goal::{
    auto_weights, improved_goal_attainment, standard_goal_attainment, trace_front, GoalConfig,
    GoalProblem, GoalResult, NON_FINITE_PENALTY,
};
pub use lm::{levenberg_marquardt, LmConfig};
pub use nelder_mead::{nelder_mead, NelderMeadConfig};
pub use nsga2::{nsga2, nsga2_screened, Individual, Nsga2Config, Nsga2Result};
pub use pattern::{pattern_search, PatternConfig};
pub use problem::{Bounds, BoundsError, CountingObjective, OptResult};
pub use pso::{particle_swarm, PsoConfig};
pub use sa::{simulated_annealing, SaConfig};
