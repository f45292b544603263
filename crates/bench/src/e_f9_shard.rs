//! Locating the `ee-serve` binary for benches that drive it as a real
//! process.
//!
//! The module keeps its E-f9 name because the benchmark suite under
//! `src/bin/suite/` imports [`find_serve_binary`] at this path.

use std::path::PathBuf;

/// Locate the `ee-serve` binary next to the running executable (same
/// target directory, up to three levels up), or via `EE_SERVE_BIN`.
pub fn find_serve_binary() -> Option<PathBuf> {
    if let Ok(p) = std::env::var("EE_SERVE_BIN") {
        let p = PathBuf::from(p);
        return p.is_file().then_some(p);
    }
    let exe = std::env::current_exe().ok()?;
    let mut dir = exe.parent()?.to_path_buf();
    for _ in 0..3 {
        let candidate = dir.join("ee-serve");
        if candidate.is_file() {
            return Some(candidate);
        }
        dir = dir.parent()?.to_path_buf();
    }
    None
}
