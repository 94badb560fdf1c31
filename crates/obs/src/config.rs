//! Trace configuration, normally derived from the environment.

use std::path::PathBuf;

/// What an armed trace records. The aggregate profile is the only
/// format; the enum stays because the benchmark builds [`TraceConfig`]
/// as a struct literal, and the next benchmark change drops it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// In-process streaming aggregation: spans fold into a call-path
    /// tree, and the run writes one compact `PROFILE_*.json` on flush.
    /// Cheap enough to leave armed under load and in every CI stage.
    #[default]
    Agg,
}

/// Runtime telemetry configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record a profile.
    pub trace: bool,
    /// Ignored. Kept, like [`TraceMode`], for the benchmark's struct
    /// literal until the next benchmark change drops it.
    pub log: bool,
    /// Explicit profile path; `None` means the default
    /// `results/PROFILE_<secs>_<pid>.json`.
    pub out: Option<PathBuf>,
    /// Recording mode; always [`TraceMode::Agg`].
    pub mode: TraceMode,
}

impl TraceConfig {
    /// Read `RFKIT_TRACE` and `RFKIT_TRACE_OUT`. Setting
    /// `RFKIT_TRACE_OUT` implies `RFKIT_TRACE`.
    pub fn from_env() -> Self {
        Self::from_lookup(|k| std::env::var(k).ok())
    }

    /// Like [`from_env`](Self::from_env) but with an injectable
    /// variable lookup, so tests need not mutate process state.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Self {
        let truthy = |v: Option<String>| {
            v.map(|s| {
                let t = s.trim();
                !t.is_empty() && t != "0"
            })
            .unwrap_or(false)
        };
        let out = get("RFKIT_TRACE_OUT")
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .map(PathBuf::from);
        TraceConfig {
            trace: truthy(get("RFKIT_TRACE")) || out.is_some(),
            out,
            ..TraceConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup<'a>(pairs: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Option<String> + 'a {
        move |k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn unset_environment_is_fully_disabled() {
        let cfg = TraceConfig::from_lookup(lookup(&[]));
        assert_eq!(cfg, TraceConfig::default());
        assert!(!cfg.trace);
    }

    #[test]
    fn zero_and_empty_are_falsey() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE", "0")]));
        assert!(!cfg.trace);
        let cfg =
            TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE", "  "), ("RFKIT_TRACE_OUT", " ")]));
        assert!(!cfg.trace);
        assert_eq!(cfg.out, None);
    }

    #[test]
    fn one_arms_trace() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE", "1")]));
        assert!(cfg.trace);
        assert_eq!(cfg.mode, TraceMode::Agg);
    }

    #[test]
    fn trace_out_implies_trace_and_sets_path() {
        let cfg = TraceConfig::from_lookup(lookup(&[("RFKIT_TRACE_OUT", "/tmp/p.json")]));
        assert!(cfg.trace);
        assert_eq!(
            cfg.out.as_deref(),
            Some(std::path::Path::new("/tmp/p.json"))
        );
    }
}
