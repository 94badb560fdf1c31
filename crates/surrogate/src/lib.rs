//! # rfkit-surrogate
//!
//! Online response-surface surrogates that cut the number of *true*
//! band evaluations an optimization run spends, without ever letting a
//! predicted number into a result.
//!
//! The LNA design flow's cost is dominated by full band sweeps: tens of
//! frequency points times process corners per candidate, for thousands
//! of candidates, most of which an accurate cheap model could have
//! rejected outright. This crate fits regularized quadratic or RBF
//! response surfaces ([`ResponseSurface`]) to the points the design
//! cache has already true-evaluated, and wraps them in a
//! lower-confidence-bound screening rule ([`SurrogateScreen`]) that
//! NSGA-II's generation loop consults before paying for a sweep.
//!
//! Two invariants shape the whole crate:
//!
//! * **Prune, never propagate** — the screen only answers "is this
//!   candidate worth a true evaluation?". Predicted objective values
//!   never reach a Pareto front, report, or cache entry; the
//!   `surrogate-leak` lint in `rfkit-analyze` checks this structurally.
//! * **Determinism** — decisions happen serially in the caller's
//!   generation loop using a private seeded RNG, so fixed-seed runs
//!   remain bit-identical at any `RFKIT_THREADS`.
//!
//! ## Example
//!
//! ```
//! use rfkit_surrogate::{ModelKind, SurrogateConfig, SurrogateScreen};
//!
//! let cfg = SurrogateConfig { explore: 0.0, explore_min: 0.0, ..Default::default() };
//! let mut screen = SurrogateScreen::new(2, 1, cfg);
//! // Feed true evaluations of f(x) = x0² + x1² as they happen...
//! let mut rng = rfkit_num::rng::Rng64::new(1);
//! for _ in 0..80 {
//!     let x = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
//!     screen.observe(&x, &[x[0] * x[0] + x[1] * x[1]]);
//! }
//! // ...then let it veto candidates whose optimistic outlook is still
//! // dominated by (here: worse than) the incumbent's value.
//! let keep = screen.screen_multi(&[vec![0.9, 0.9], vec![0.05, 0.0]], &[vec![0.01]]);
//! assert!(keep[1]); // the near-optimal candidate always survives
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod model;
mod screen;

pub use model::{n_quad_terms, ModelKind, ResponseSurface};
pub use screen::{ScreenStats, SurrogateConfig, SurrogateScreen};
