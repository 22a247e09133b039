//! A scratch directory for spill files that never outlives its owner.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A uniquely named directory, removed with everything in it on drop —
/// also when a workload panics, since unwinding runs the drop.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Creates `<base>/aggcache-bench-<pid>-<n>`.
    pub fn create(base: &Path) -> std::io::Result<Self> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("aggcache-bench-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        // Best effort: a drop must not panic, and there is nobody to
        // return the error to.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn removed_on_drop_and_on_panic() {
        let base = std::env::temp_dir();
        let kept = {
            let dir = ScratchDir::create(&base).unwrap();
            std::fs::write(dir.path().join("chunk.bin"), b"x").unwrap();
            dir.path().to_path_buf()
        };
        assert!(!kept.exists());

        let seen = std::sync::Mutex::new(None);
        let result = std::panic::catch_unwind(|| {
            let dir = ScratchDir::create(&base).unwrap();
            std::fs::write(dir.path().join("chunk.bin"), b"x").unwrap();
            *seen.lock().unwrap() = Some(dir.path().to_path_buf());
            panic!("workload blew up");
        });
        assert!(result.is_err());
        let path = seen.lock().unwrap().take().unwrap();
        assert!(!path.exists());
    }

    #[test]
    fn two_dirs_do_not_collide() {
        let base = std::env::temp_dir();
        let a = ScratchDir::create(&base).unwrap();
        let b = ScratchDir::create(&base).unwrap();
        assert_ne!(a.path(), b.path());
    }
}
