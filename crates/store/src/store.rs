//! The content-addressed run store.
//!
//! A [`RunStore`] maps a deterministic [`RunKey`] (a stable fingerprint of
//! everything that determines a simulation: machine config, MSR, workload
//! specs, placement, seeds, schema version) to the [`RunOutcome`] it
//! produced. Completed outcomes are appended to an on-disk journal as they
//! finish, so a killed sweep resumes by reopening the store: replay
//! rebuilds the index and only the missing cells are simulated again.

use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use cochar_machine::RunOutcome;

use crate::journal::{Journal, ReplayReport};
use crate::StoreError;

/// Bumped whenever the fingerprint inputs or the journal encoding change
/// in a way that invalidates cached outcomes. The version participates in
/// every run key, so a schema bump silently misses old records instead of
/// misreading them.
///
/// v2: `RunOutcome` gained the `stalled` flag and truncated runs report
/// the horizon (not a placeholder) for unfinished foregrounds.
///
/// v3: `CoreCounters` gained `idle_cycles` (the zero-progress livelock
/// guard attributes skipped quanta instead of dropping them) and the
/// prefetch-usefulness accounting no longer lets a demand re-insert keep
/// a stale prefetch bit.
pub const SCHEMA_VERSION: u32 = 3;

/// A 64-bit content fingerprint identifying one simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RunKey(pub u64);

impl RunKey {
    /// Lower-case 16-digit hex form (the journal's key encoding).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the 16-digit hex form: exactly what [`RunKey::to_hex`]
    /// writes, so every accepted spelling renders back to itself.
    pub fn from_hex(s: &str) -> Option<RunKey> {
        parse_hex16(s).map(RunKey)
    }
}

/// Parses exactly 16 lower-case hex digits — the journal's spelling of
/// keys and checksums. `u64::from_str_radix` would also take a leading
/// `+` and upper-case digits, which name the same value but not the same
/// bytes.
pub(crate) fn parse_hex16(s: &str) -> Option<u64> {
    if s.len() != 16 {
        return None;
    }
    s.bytes().try_fold(0u64, |acc, b| {
        let digit = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            _ => return None,
        };
        Some(acc << 4 | u64::from(digit))
    })
}

impl fmt::Display for RunKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

/// Counter snapshot for one store (cumulative since open).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Outcomes appended this session.
    pub puts: u64,
    /// Records resident in the index right now.
    pub resident: u64,
}

/// Tallies from merging foreign records into a store.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Records that were new and were appended to the journal.
    pub added: u64,
    /// Records already resident (same fingerprint), skipped.
    pub duplicates: u64,
}

struct Inner {
    index: HashMap<RunKey, Arc<RunOutcome>>,
    journal: Journal,
    /// Held for the store's whole lifetime; the kernel releases it when
    /// the last clone drops.
    _lock: crate::lock::StoreLock,
}

/// A content-addressed, crash-safe store of run outcomes.
///
/// Thread-safe: sweeps call [`RunStore::get`] / [`RunStore::put`]
/// concurrently from worker threads. Clones share the same store.
#[derive(Clone)]
pub struct RunStore {
    inner: Arc<Mutex<Inner>>,
    dir: PathBuf,
    replay: ReplayReport,
    puts: Arc<AtomicU64>,
}

impl RunStore {
    /// Opens (creating if needed) the store at `dir` and replays its
    /// journal. Later records win for duplicate keys.
    pub fn open(dir: impl AsRef<Path>) -> Result<RunStore, StoreError> {
        Self::open_with_faults(dir, crate::faults::FaultPlan::new())
    }

    /// Opens the store with journal appends routed through a
    /// [`ChaosFile`](crate::faults::ChaosFile) executing `plan`.
    ///
    /// An empty plan behaves identically to [`RunStore::open`] except for
    /// the extra indirection; a non-empty plan makes scheduled appends
    /// fail the way real disks fail, which is how the fault-injection
    /// suite (and `COCHAR_CHAOS_STORE` in the CLI) proves the degradation
    /// path.
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        plan: crate::faults::FaultPlan,
    ) -> Result<RunStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        Self::check_schema(&dir)?;
        // Writer lock before replay: two processes replaying and then
        // appending to the same journal would interleave their records
        // and, worse, a concurrent gc rewrite would drop the other
        // writer's appends. One live store handle per directory.
        let lock = crate::lock::StoreLock::acquire(&dir)?;
        let mut index: HashMap<RunKey, Arc<RunOutcome>> = HashMap::new();
        let wrap: crate::journal::SinkFactory = if plan.is_empty() {
            Box::new(|f| Box::new(crate::journal::FileSink::new(f)))
        } else {
            Box::new(move |f| Box::new(crate::faults::ChaosFile::new(f, plan.clone())))
        };
        let (journal, replay) = Journal::open_with(
            &dir,
            |key, outcome| index.insert(key, Arc::new(outcome)).is_none(),
            wrap,
        )?;
        Ok(RunStore {
            inner: Arc::new(Mutex::new(Inner { index, journal, _lock: lock })),
            dir,
            replay,
            puts: Arc::new(AtomicU64::new(0)),
        })
    }

    /// Validates (writing on first open) the store's schema marker so a
    /// journal written by an incompatible version is refused instead of
    /// replayed as all-corrupt.
    fn check_schema(dir: &Path) -> Result<(), StoreError> {
        let marker = dir.join("schema");
        let want = format!("cochar-store v{SCHEMA_VERSION}\n");
        match std::fs::read_to_string(&marker) {
            Ok(found) if found == want => Ok(()),
            Ok(found) => Err(StoreError::Schema(format!(
                "{} holds {:?}, this build writes {:?}",
                marker.display(),
                found.trim(),
                want.trim()
            ))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                std::fs::write(&marker, want)?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// What replay found when the store was opened.
    pub fn replay_report(&self) -> ReplayReport {
        self.replay
    }

    /// Looks a key up.
    pub fn get(&self, key: RunKey) -> Option<Arc<RunOutcome>> {
        self.inner.lock().unwrap().index.get(&key).cloned()
    }

    /// Checks presence without cloning the outcome (used by resume-status
    /// reporting).
    pub fn contains(&self, key: RunKey) -> bool {
        self.inner.lock().unwrap().index.contains_key(&key)
    }

    /// Journals an outcome and installs it in the index.
    ///
    /// A key already resident is **not** re-appended: outcomes are
    /// deterministic functions of their key, so the resident record is
    /// already correct and re-writing it would only grow the journal.
    pub fn put(&self, key: RunKey, outcome: Arc<RunOutcome>) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        if inner.index.contains_key(&key) {
            return Ok(());
        }
        inner.journal.append(key, &outcome)?;
        inner.index.insert(key, outcome);
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Number of resident records.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().index.len()
    }

    /// True when no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All resident records, sorted by key for stable listings.
    pub fn entries(&self) -> Vec<(RunKey, Arc<RunOutcome>)> {
        let inner = self.inner.lock().unwrap();
        let mut v: Vec<_> = inner.index.iter().map(|(k, o)| (*k, Arc::clone(o))).collect();
        v.sort_by_key(|(k, _)| *k);
        v
    }

    /// Merges foreign records (another store's replayed journal, records
    /// off the fabric wire) into this store under one index lock.
    ///
    /// Pure dedup by fingerprint: a key already resident is counted as a
    /// duplicate and skipped — outcomes are deterministic functions of
    /// their key, so the resident record is already the right bytes. New
    /// records are journaled and installed. An append failure aborts the
    /// merge mid-way; everything already appended stays valid.
    pub fn merge_records(
        &self,
        records: impl IntoIterator<Item = (RunKey, Arc<RunOutcome>)>,
    ) -> Result<MergeReport, StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let mut report = MergeReport::default();
        for (key, outcome) in records {
            if inner.index.contains_key(&key) {
                report.duplicates += 1;
                continue;
            }
            inner.journal.append(key, &outcome)?;
            inner.index.insert(key, outcome);
            self.puts.fetch_add(1, Ordering::Relaxed);
            report.added += 1;
        }
        Ok(report)
    }

    /// Merges every trustworthy record of the journal file at `path`
    /// (typically a dead worker's store) into this store. The file is
    /// only read — torn tails and corrupt lines are dropped exactly as a
    /// replay would, and reported alongside the merge tallies.
    pub fn merge_journal(
        &self,
        path: &Path,
    ) -> Result<(MergeReport, crate::journal::ReplayReport), StoreError> {
        let (records, replay) = crate::journal::read_records(path)?;
        let report =
            self.merge_records(records.into_iter().map(|(k, o)| (k, Arc::new(o))))?;
        Ok((report, replay))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats { puts: self.puts.load(Ordering::Relaxed), resident: self.len() as u64 }
    }

    /// Re-reads the journal from disk and verifies every line, without
    /// disturbing the live index. Returns what a fresh open would see.
    pub fn verify(&self) -> Result<ReplayReport, StoreError> {
        // Hold the lock so no append interleaves with the scan.
        let _guard = self.inner.lock().unwrap();
        let mut seen = std::collections::HashSet::new();
        let (_, report) = Journal::open(&self.dir, |key, _| seen.insert(key))?;
        Ok(report)
    }

    /// Compacts the journal: drops corrupt/torn lines and duplicate keys,
    /// keeping the resident (latest-wins) record set. Returns journal
    /// bytes before and after.
    pub fn gc(&self) -> Result<(u64, u64), StoreError> {
        let mut inner = self.inner.lock().unwrap();
        let before = inner.journal.file_bytes()?;
        let mut records: Vec<(RunKey, Arc<RunOutcome>)> =
            inner.index.iter().map(|(k, o)| (*k, Arc::clone(o))).collect();
        records.sort_by_key(|(k, _)| *k);
        inner.journal.rewrite(records.iter().map(|(k, o)| (*k, o.as_ref())))?;
        let after = inner.journal.file_bytes()?;
        Ok((before, after))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::sample_outcome;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cochar-store-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn put_get_persists_across_reopen() {
        let dir = tmpdir("persist");
        let o = Arc::new(sample_outcome());
        {
            let store = RunStore::open(&dir).unwrap();
            assert!(store.get(RunKey(7)).is_none());
            store.put(RunKey(7), Arc::clone(&o)).unwrap();
            assert_eq!(store.get(RunKey(7)).unwrap().as_ref(), o.as_ref());
            let s = store.stats();
            assert_eq!((s.puts, s.resident), (1, 1));
        }
        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.get(RunKey(7)).unwrap().as_ref(), o.as_ref());
        assert_eq!(store.replay_report().valid, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_put_does_not_grow_journal() {
        let dir = tmpdir("dup");
        let o = Arc::new(sample_outcome());
        let store = RunStore::open(&dir).unwrap();
        store.put(RunKey(1), Arc::clone(&o)).unwrap();
        let one = std::fs::metadata(dir.join(crate::journal::JOURNAL_FILE)).unwrap().len();
        store.put(RunKey(1), Arc::clone(&o)).unwrap();
        let two = std::fs::metadata(dir.join(crate::journal::JOURNAL_FILE)).unwrap().len();
        assert_eq!(one, two);
        assert_eq!(store.stats().puts, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_mismatch_is_refused() {
        let dir = tmpdir("schema");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("schema"), "cochar-store v999\n").unwrap();
        match RunStore::open(&dir) {
            Err(StoreError::Schema(_)) => {}
            other => panic!("expected schema error, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn gc_drops_corrupt_lines_and_shrinks() {
        let dir = tmpdir("gc");
        let o = Arc::new(sample_outcome());
        {
            let store = RunStore::open(&dir).unwrap();
            store.put(RunKey(1), Arc::clone(&o)).unwrap();
            store.put(RunKey(2), Arc::clone(&o)).unwrap();
        }
        // Inject garbage between valid records.
        let path = dir.join(crate::journal::JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        std::fs::write(&path, format!("{}\nthis is not json\n{}\n", lines[0], lines[1])).unwrap();

        let store = RunStore::open(&dir).unwrap();
        assert_eq!(store.replay_report().corrupt, 1);
        assert_eq!(store.len(), 2);
        let (before, after) = store.gc().unwrap();
        assert!(after < before);
        assert_eq!(store.verify().unwrap(), ReplayReport { valid: 2, ..Default::default() });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_put_get_is_safe() {
        let dir = tmpdir("mt");
        let store = RunStore::open(&dir).unwrap();
        let o = Arc::new(sample_outcome());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let store = store.clone();
                let o = Arc::clone(&o);
                s.spawn(move || {
                    for i in 0..25u64 {
                        let key = RunKey(t * 100 + i);
                        store.put(key, Arc::clone(&o)).unwrap();
                        assert!(store.get(key).is_some());
                    }
                });
            }
        });
        assert_eq!(store.len(), 100);
        drop(store);
        let fresh = RunStore::open(&dir).unwrap();
        assert_eq!(fresh.len(), 100);
        assert_eq!(fresh.replay_report().corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn key_hex_round_trip() {
        let k = RunKey(0x0123_4567_89ab_cdef);
        assert_eq!(k.to_hex(), "0123456789abcdef");
        assert_eq!(RunKey::from_hex(&k.to_hex()), Some(k));
        assert_eq!(RunKey::from_hex("xyz"), None);
        assert_eq!(RunKey::from_hex("0123"), None);
        assert_eq!(RunKey::from_hex("ffffffffffffffff"), Some(RunKey(u64::MAX)));
        // Same value, other bytes: a leading `+` or upper-case digits.
        assert_eq!(RunKey::from_hex("+00000000000000f"), None);
        assert_eq!(RunKey::from_hex("0123456789ABCDEF"), None);
        assert_eq!(RunKey::from_hex("0123456789abcdeF"), None);
        assert_eq!(RunKey::from_hex("-00000000000000f"), None);
    }
}
