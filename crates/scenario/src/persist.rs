//! Crash-safe batch output: atomic file replacement and the
//! pid-stamped lock `scenario run` holds on its output directory.
//!
//! Every `batch.json` the runner or the CLI writes — mid-run
//! checkpoints and the final artifacts alike — goes through
//! [`write_atomic`], so a kill at any moment leaves either the old
//! file or the new one. [`BatchLock`] keeps two concurrent runs from
//! interleaving those writes.

use crate::runner::ScenarioError;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Writes `contents` to `path` atomically: write `<file name>.tmp`
/// beside it, then rename over `path`. A concurrent reader or a
/// mid-write kill sees either the old file or the new one, never a
/// torn mix.
pub fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// A pid-stamped exclusive lock on a batch output directory.
///
/// `scenario run` takes the lock before touching `batch.json`; a
/// second invocation against the same directory fails instead of
/// silently interleaving checkpoint writes. A lock whose owner pid is
/// no longer alive (per `/proc`) is stale — left behind by a hard
/// kill — and is stolen.
#[derive(Debug)]
pub struct BatchLock {
    path: PathBuf,
}

impl BatchLock {
    /// Acquires the lock file `batch.json.lock` inside `dir`,
    /// creating the directory if needed.
    pub fn acquire(dir: &Path) -> Result<BatchLock, ScenarioError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| ScenarioError(format!("cannot create {}: {e}", dir.display())))?;
        let path = dir.join("batch.json.lock");
        for attempt in 0..2 {
            match std::fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = write!(file, "{}", std::process::id());
                    return Ok(BatchLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let owner = std::fs::read_to_string(&path).unwrap_or_default();
                    let alive = owner
                        .trim()
                        .parse::<u32>()
                        .is_ok_and(|pid| Path::new(&format!("/proc/{pid}")).exists());
                    if alive || attempt > 0 {
                        return Err(ScenarioError(format!(
                            "{} is locked by pid {} — another `scenario run` \
                             is writing this batch (remove the lock file if that \
                             process is gone)",
                            dir.display(),
                            owner.trim()
                        )));
                    }
                    // stale lock from a killed run: steal it
                    let _ = std::fs::remove_file(&path);
                }
                Err(e) => {
                    return Err(ScenarioError(format!(
                        "cannot create lock {}: {e}",
                        path.display()
                    )));
                }
            }
        }
        unreachable!("lock acquisition loops at most twice");
    }
}

impl Drop for BatchLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_lock_excludes_and_steals_stale() {
        let dir = std::env::temp_dir().join(format!("msn-persist-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lock = BatchLock::acquire(&dir).unwrap();
        let err = BatchLock::acquire(&dir).unwrap_err();
        assert!(err.to_string().contains("locked by pid"));
        drop(lock);
        // lock released on drop: reacquire works
        let lock = BatchLock::acquire(&dir).unwrap();
        drop(lock);
        // a lock held by a dead pid is stale and stolen
        std::fs::write(dir.join("batch.json.lock"), "4294000000").unwrap();
        let _lock = BatchLock::acquire(&dir).unwrap();
        let _ = std::fs::remove_dir_all(dir);
    }
}
