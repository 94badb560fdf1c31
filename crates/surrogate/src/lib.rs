//! # rfkit-surrogate
//!
//! An online response-surface surrogate that cuts the number of *true*
//! band evaluations an optimization run spends, without ever letting a
//! predicted number into a result.
//!
//! The LNA design flow's cost is dominated by full band sweeps: tens of
//! frequency points times process corners per candidate, for thousands
//! of candidates, most of which an accurate cheap model could have
//! rejected outright. This crate fits a Gaussian RBF response surface
//! ([`ResponseSurface`]) to the points the design cache has already
//! true-evaluated, and wraps it in a screening rule
//! ([`SurrogateScreen`]) that NSGA-II's generation loop consults before
//! paying for a sweep: a candidate whose prediction, plus an
//! improvement margin, is still dominated by the current population is
//! skipped.
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
//! use rfkit_surrogate::{SurrogateConfig, SurrogateScreen};
//!
//! let mut screen = SurrogateScreen::new(2, 1, SurrogateConfig { seed: 1 });
//! // Feed true evaluations of f(x) = x0² + x1² as they happen...
//! let mut rng = rfkit_num::rng::Rng64::new(1);
//! for _ in 0..80 {
//!     let x = [rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
//!     screen.observe(&x, &[x[0] * x[0] + x[1] * x[1]]);
//! }
//! // ...then let it veto candidates that do not promise to beat the
//! // incumbent's value (0.5) by the improvement margin.
//! let keep = screen.screen_multi(&[vec![0.9, 0.9], vec![0.05, 0.0]], &[vec![0.5]]);
//! assert!(keep[1]); // predicted well below the incumbent: never pruned
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod model;
mod screen;

pub use model::ResponseSurface;
pub use screen::{ScreenStats, SurrogateConfig, SurrogateScreen};
