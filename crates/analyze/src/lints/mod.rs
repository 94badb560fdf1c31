//! The lint registry. Each lint lives in its own module and exposes
//! `NAME`, `DESCRIPTION`, and `check(&SourceFile, &mut Vec<Finding>)`.

pub mod alloc_in_hot_loop;
pub mod fault_hook_coverage;
pub mod float_eq;
pub mod lock_across_solve;
pub mod nan_unsafe_sort;
pub mod nondeterminism;
pub mod obs_span_leak;
pub mod surrogate_leak;
pub mod swallowed_error;
pub mod unseeded_rng_flow;

use crate::report::Finding;
use crate::source::SourceFile;

/// A registered lint: its name, one-line description, and entry point.
pub struct Lint {
    /// Kebab-case lint name, used in diagnostics and `rfkit-allow(...)`.
    pub name: &'static str,
    /// One-line description for `--list-lints`.
    pub description: &'static str,
    /// The check function.
    pub check: fn(&SourceFile, &mut Vec<Finding>),
}

/// Every lint the engine runs, in a fixed order.
pub fn all() -> Vec<Lint> {
    vec![
        Lint {
            name: float_eq::NAME,
            description: float_eq::DESCRIPTION,
            check: float_eq::check,
        },
        Lint {
            name: nan_unsafe_sort::NAME,
            description: nan_unsafe_sort::DESCRIPTION,
            check: nan_unsafe_sort::check,
        },
        Lint {
            name: nondeterminism::NAME,
            description: nondeterminism::DESCRIPTION,
            check: nondeterminism::check,
        },
        Lint {
            name: obs_span_leak::NAME,
            description: obs_span_leak::DESCRIPTION,
            check: obs_span_leak::check,
        },
        Lint {
            name: swallowed_error::NAME,
            description: swallowed_error::DESCRIPTION,
            check: swallowed_error::check,
        },
        Lint {
            name: alloc_in_hot_loop::NAME,
            description: alloc_in_hot_loop::DESCRIPTION,
            check: alloc_in_hot_loop::check,
        },
        Lint {
            name: lock_across_solve::NAME,
            description: lock_across_solve::DESCRIPTION,
            check: lock_across_solve::check,
        },
        Lint {
            name: unseeded_rng_flow::NAME,
            description: unseeded_rng_flow::DESCRIPTION,
            check: unseeded_rng_flow::check,
        },
        Lint {
            name: surrogate_leak::NAME,
            description: surrogate_leak::DESCRIPTION,
            check: surrogate_leak::check,
        },
        Lint {
            name: fault_hook_coverage::NAME,
            description: fault_hook_coverage::DESCRIPTION,
            check: fault_hook_coverage::check,
        },
    ]
}
