//! Multi-writer protection for a store directory.
//!
//! A [`StoreLock`] is an exclusive kernel lock (`File::try_lock`, `flock`
//! on Unix) on `journal.lock` next to the journal. Opening a store takes
//! it; a second open, in this process or another — most dangerously a
//! concurrent `store gc`, whose rewrite would drop another writer's
//! appends — gets [`StoreError::Locked`] instead. The lock is advisory:
//! nothing stops an external process from editing the journal.
//!
//! The kernel drops the lock when its holder exits, SIGKILL included, so a
//! killed sweep leaves nothing stale for `--resume` to break. The file
//! holds its last holder's pid, for error messages only, and is never
//! removed: unlinking a locked file would let a waiting opener lock the
//! orphaned inode while a third process locks a new one.

use std::fs::{File, TryLockError};
use std::io::{Read, Write};
use std::path::Path;

use crate::StoreError;

/// Lock file name inside a store directory.
const LOCK_FILE: &str = "journal.lock";

/// A held store lock; the kernel releases it when the file closes.
#[derive(Debug)]
pub(crate) struct StoreLock {
    _file: File,
}

impl StoreLock {
    /// Takes the lock in `dir`, failing at once if another open holds it.
    pub(crate) fn acquire(dir: &Path) -> Result<StoreLock, StoreError> {
        let path = dir.join(LOCK_FILE);
        // std opens files O_CLOEXEC: spawned fabric workers never inherit it.
        let mut file =
            File::options().read(true).write(true).create(true).truncate(false).open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                // Diagnostic only. Cut the tail after writing: truncating to
                // zero first makes ext4 flush the file on close.
                let stamp = format!("{}\n", std::process::id());
                let _ = file.write_all(stamp.as_bytes());
                let _ = file.set_len(stamp.len() as u64);
                Ok(StoreLock { _file: file })
            }
            Err(TryLockError::WouldBlock) => {
                let mut pid = String::new();
                let _ = file.read_to_string(&mut pid);
                let holder = match pid.trim() {
                    "" => "another process".to_string(),
                    pid => format!("pid {pid}"),
                };
                Err(StoreError::Locked(format!("{} is held by {holder}", path.display())))
            }
            Err(TryLockError::Error(e)) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cochar-lock-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn refusal(dir: &Path) -> String {
        match StoreLock::acquire(dir) {
            Err(StoreError::Locked(msg)) => msg,
            other => panic!("expected Locked, got {other:?}"),
        }
    }

    #[test]
    fn second_open_is_refused_naming_the_holder_until_released() {
        let dir = tmpdir("held");
        let lock = StoreLock::acquire(&dir).unwrap();
        let msg = refusal(&dir);
        assert!(msg.ends_with(&format!("held by pid {}", std::process::id())), "{msg}");
        // A holder whose pid never landed is still a holder.
        std::fs::write(dir.join(LOCK_FILE), "").unwrap();
        let msg = refusal(&dir);
        assert!(msg.ends_with("held by another process"), "{msg}");
        drop(lock);
        let _relock = StoreLock::acquire(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn leftover_lock_file_without_a_holder_does_not_block() {
        let dir = tmpdir("leftover");
        let pid = std::process::id();
        for content in
            [format!("{pid}\n"), format!("{pid} 18446744073709551615\n"), "garbage".into()]
        {
            std::fs::write(dir.join(LOCK_FILE), &content).unwrap();
            let lock = StoreLock::acquire(&dir).unwrap_or_else(|e| panic!("{content:?}: {e}"));
            let stamp = std::fs::read_to_string(dir.join(LOCK_FILE)).unwrap();
            assert_eq!(stamp, format!("{pid}\n"), "{content:?} was not replaced");
            drop(lock);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
