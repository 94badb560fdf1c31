//! Telemetry name-registry export: reads the set of instrument names
//! back out of an aggregate profile, so external tooling (the
//! `rfkit-analyze` contract checker, dashboards) can cross-validate
//! recorded profiles against the names the code actually emits without
//! re-implementing the profile format.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::Path;

/// Distinct instrument names recorded in an aggregate profile: every
/// node's span name, counter key, histogram name and event name. A file
/// that does not parse as a profile (a truncated write, a stray event
/// stream) is an `InvalidData` error, never an empty set, so a broken
/// artifact cannot silently drop out of the contract check.
pub fn profile_names(path: &Path) -> io::Result<BTreeSet<String>> {
    let text = fs::read_to_string(path)?;
    let p =
        crate::profile::parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let mut names = BTreeSet::new();
    for n in &p.nodes {
        names.insert(n.name.clone());
    }
    names.extend(p.counters.keys().cloned());
    names.extend(p.hists.keys().cloned());
    names.extend(p.events.iter().map(|e| e.name.clone()));
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_names_cover_all_instrument_kinds() {
        let text = "{\"kind\":\"rfkit-profile\",\"version\":1,\"meta\":{},\
                    \"nodes\":[{\"path\":\"a;b\",\"name\":\"b\",\"count\":1,\
                    \"total_us\":5,\"self_us\":5,\"max_us\":5,\"p50_us\":5,\"p95_us\":5}],\
                    \"counters\":{\"plan.cache.hit\":2},\
                    \"hists\":[{\"name\":\"circuit.dc.iters\",\"count\":1,\"sum\":3,\
                    \"p50\":3,\"p90\":3,\"p99\":3}],\
                    \"events\":[{\"name\":\"opt.de.gen\",\"points\":1,\"first\":{},\"last\":{}}]}";
        let dir = std::env::temp_dir().join(format!("rfkit_obs_regtest_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("PROFILE_test.json");
        std::fs::write(&path, text).expect("write profile");
        let names = profile_names(&path).expect("profile names");
        for want in ["b", "plan.cache.hit", "circuit.dc.iters", "opt.de.gen"] {
            assert!(names.contains(want), "missing {want}");
        }
        // A truncated profile is an error, not an empty name set.
        std::fs::write(&path, &text[..text.len() / 2]).expect("write truncated");
        let err = profile_names(&path).expect_err("truncated profile");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
