//! Where the profile goes: the path an armed run writes on flush.
//! Nothing streams; `write_whole` replaces the file in one write at
//! each flush.

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, PoisonError};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::config::TraceConfig;

/// Profile path of the armed configuration; `None` when disarmed.
static PATH: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Remember the profile path for `cfg`, creating its directory; called
/// under the init lock. A directory that cannot be created surfaces as
/// a warning at the first [`write_whole`], never as a panic inside
/// instrumented numeric code.
pub(crate) fn install(cfg: &TraceConfig) {
    let path = cfg.trace.then(|| {
        let path = cfg.out.clone().unwrap_or_else(default_path);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = fs::create_dir_all(dir);
        }
        path
    });
    *PATH.lock().unwrap_or_else(PoisonError::into_inner) = path;
}

fn default_path() -> PathBuf {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let pid = std::process::id();
    PathBuf::from("results").join(format!("PROFILE_{secs}_{pid}.json"))
}

/// Replace the profile file's entire contents. Creates the file on
/// first use; errors degrade to a warning.
pub(crate) fn write_whole(text: &str) {
    let Some(path) = path() else { return };
    if let Err(e) = fs::write(&path, text) {
        eprintln!("rfkit-obs: cannot write profile {}: {e}", path.display());
    }
}

/// Path of the armed profile, if any.
pub(crate) fn path() -> Option<PathBuf> {
    PATH.lock().unwrap_or_else(PoisonError::into_inner).clone()
}
