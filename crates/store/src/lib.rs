//! # cochar-store
//!
//! Content-addressed, crash-safe persistence for simulation results — the
//! substrate of resumable sweeps.
//!
//! Every `Machine::run` a study performs is identified by a [`RunKey`]: a
//! stable 64-bit fingerprint (FNV-1a with a SplitMix64 finalizer, via
//! `cochar_machine::StableHasher`) over everything that determines the
//! outcome — machine config, prefetcher MSR, workload names and scale,
//! thread counts, role layout, seeds, and [`SCHEMA_VERSION`]. Completed
//! [`cochar_machine::RunOutcome`]s are appended to a JSON-lines journal
//! (`journal.jsonl`) with a per-record checksum, flushed as each record
//! lands. Kill the process at any point and reopen: replay drops the torn
//! final line (if any) and truncates the file back to the last good
//! record, reports interior corruption, and rebuilds the index — only the
//! cells that never completed are simulated again. The [`faults`] module
//! provides a fault-injecting journal sink ([`faults::ChaosFile`]) that
//! makes this crash model testable: ENOSPC, short writes, bit flips, and
//! kill-mid-append on a schedule.
//!
//! Because the simulator is deterministic, a cache hit is not an
//! approximation: the stored outcome is bit-identical to what a fresh run
//! would produce (a property the test suite asserts), so downstream CSVs
//! come out byte-for-byte the same whether they were computed or replayed.
//!
//! ```
//! use cochar_store::{RunKey, RunStore};
//! # let dir = std::env::temp_dir().join(format!("cochar-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = RunStore::open(&dir).unwrap();
//! assert!(store.get(RunKey(42)).is_none());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod faults;
pub mod json;
pub mod journal;
mod lock;
pub mod sidecar;
pub mod store;

pub use faults::{ChaosFile, Fault, FaultPlan};
pub use journal::{read_records, AppendSink, ReplayReport};
pub use store::{MergeReport, RunKey, RunStore, StoreStats, SCHEMA_VERSION};

use std::fmt;

/// Errors from store operations.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem failure.
    Io(std::io::Error),
    /// The store directory was written by an incompatible schema version.
    Schema(String),
    /// A journal record failed to parse or verify.
    Corrupt(String),
    /// Another open store, in this process or another, holds the
    /// directory's writer lock.
    Locked(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io: {e}"),
            StoreError::Schema(msg) => write!(f, "store schema: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store record: {msg}"),
            StoreError::Locked(msg) => write!(f, "store locked: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}
