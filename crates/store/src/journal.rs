//! The append-only run journal.
//!
//! One record per line:
//!
//! ```text
//! {"k":"<16-hex run key>","c":"<16-hex checksum>","o":{...outcome...}}
//! ```
//!
//! The checksum is FNV-1a/SplitMix64 (the same [`StableHasher`] used for
//! run keys) over the canonical rendering of the `"o"` value, and replay
//! re-verifies it over the raw payload bytes of the line as they are. The
//! payload is then decoded in one pass straight from those bytes.
//!
//! Replay accepts only canonical lines: exactly the frame above, keys and
//! checksums as 16 lower-case hex digits, and a payload that re-encodes to
//! itself byte for byte. Anything else — whitespace, reordered fields, a
//! leading zero, a `pc` wider than `u32` — is corrupt, so the run it
//! would have answered is simply simulated again.
//!
//! Crash model: a record is only meaningful once its full line (including
//! the trailing `\n`) hits the file. A process killed mid-append leaves a
//! **torn** final line, which replay drops — and then *repairs*: the file
//! is truncated back to the last newline-terminated record before the
//! append handle opens, so new records never land after garbage. Any
//! *interior* line that fails to parse or whose checksum mismatches is
//! **corrupt** and is reported, not trusted.
//!
//! Appends go through the [`AppendSink`] trait — a plain buffered file in
//! production, a fault-injecting [`crate::faults::ChaosFile`] under test —
//! so the crash model above is provable, not aspirational.

use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use cochar_machine::{RunOutcome, StableHasher};

use crate::codec::{decode_payload, encode_outcome};
use crate::store::{parse_hex16, RunKey};
use crate::StoreError;

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.jsonl";

/// Classification tallies from replaying a journal.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Records that parsed and verified.
    pub valid: usize,
    /// Interior lines that failed to parse or verify.
    pub corrupt: usize,
    /// A truncated final line (0 or 1).
    pub torn: usize,
    /// Valid records whose key repeated an earlier valid record.
    pub duplicates: usize,
}

/// Destination for rendered journal lines.
///
/// The contract is all-or-nothing *per call as observed by this process*:
/// an `Ok` return means the line (and its trailing newline) reached the
/// OS. The crash model tolerates a torn write under the hood — replay
/// drops and repairs an unterminated tail — so a fault-injecting sink may
/// write a prefix and then fail, exactly like a real ENOSPC or kill.
pub trait AppendSink: Send {
    /// Writes `buf` (one full line including `\n`) and flushes to the OS.
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()>;
}

/// The production sink: a buffered file flushed on every append.
pub struct FileSink {
    writer: BufWriter<File>,
}

impl FileSink {
    /// Wraps an already-opened append-mode file.
    pub fn new(file: File) -> Self {
        FileSink { writer: BufWriter::new(file) }
    }
}

impl AppendSink for FileSink {
    fn append(&mut self, buf: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(buf)?;
        self.writer.flush()
    }
}

/// The fixed text around a record's key, checksum and payload.
const KEY_OPEN: &str = "{\"k\":\"";
const SUM_OPEN: &str = "\",\"c\":\"";
const PAYLOAD_OPEN: &str = "\",\"o\":";

/// Renders one journal line (without the trailing newline).
pub fn render_record(key: RunKey, outcome: &RunOutcome) -> String {
    frame(key, &encode_outcome(outcome).render())
}

/// Wraps a rendered payload in the record frame with its checksum.
fn frame(key: RunKey, payload: &str) -> String {
    format!("{KEY_OPEN}{key}{SUM_OPEN}{:016x}{PAYLOAD_OPEN}{payload}}}", checksum(payload))
}

/// Checksum over a canonical payload string.
fn checksum(payload: &str) -> u64 {
    let mut h = StableHasher::new();
    h.write_str(payload);
    h.finish()
}

/// Parses and verifies one journal line.
///
/// Returns `Err` for anything that should not be trusted: a line that is
/// not exactly the canonical frame, a checksum mismatch over the payload
/// bytes, or a payload that is not the canonical encoding of an outcome.
pub fn parse_record(line: &str) -> Result<(RunKey, RunOutcome), StoreError> {
    let corrupt = StoreError::Corrupt;
    let (key, sum, payload) =
        split_frame(line).ok_or_else(|| corrupt("not a canonical record frame".into()))?;
    let key = RunKey::from_hex(key).ok_or_else(|| corrupt(format!("bad key {key:?}")))?;
    let sum = parse_hex16(sum).ok_or_else(|| corrupt(format!("bad checksum {sum:?}")))?;
    if checksum(payload) != sum {
        return Err(corrupt("checksum mismatch".into()));
    }
    let outcome = decode_payload(payload).map_err(|e| corrupt(e.to_string()))?;
    Ok((key, outcome))
}

/// Splits a line into its key, checksum and payload text.
fn split_frame(line: &str) -> Option<(&str, &str, &str)> {
    let rest = line.strip_prefix(KEY_OPEN)?;
    let (key, rest) = rest.split_at_checked(16)?;
    let rest = rest.strip_prefix(SUM_OPEN)?;
    let (sum, rest) = rest.split_at_checked(16)?;
    let payload = rest.strip_prefix(PAYLOAD_OPEN)?.strip_suffix('}')?;
    Some((key, sum, payload))
}

/// Classifies every line of raw journal bytes under the crash model:
/// interior lines parse-and-verify or count as corrupt; an unterminated
/// final line is torn regardless of content. Valid records stream through
/// `on_record` in file order (its return distinguishes first-seen from
/// duplicate for the tallies). Returns the report and the torn tail's
/// byte length (for callers that repair the file).
fn replay(
    raw: &[u8],
    mut on_record: impl FnMut(RunKey, RunOutcome) -> bool,
) -> (ReplayReport, usize) {
    let mut report = ReplayReport::default();
    let complete = raw.split_last().map(|(last, _)| *last == b'\n').unwrap_or(true);
    let lines: Vec<&[u8]> = raw.split(|&b| b == b'\n').filter(|l| !l.is_empty()).collect();
    let n = lines.len();
    let mut torn_bytes = 0usize;
    for (i, line) in lines.into_iter().enumerate() {
        // Strict crash model: a final line with no trailing newline is
        // torn no matter what it contains — even if it happens to parse,
        // the append that produced it did not complete, so it is not
        // trusted.
        if i + 1 == n && !complete {
            report.torn += 1;
            torn_bytes = line.len();
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .map_err(|_| StoreError::Corrupt("non-utf8 line".into()))
            .and_then(parse_record);
        match parsed {
            Ok((key, outcome)) => {
                if on_record(key, outcome) {
                    report.valid += 1;
                } else {
                    report.duplicates += 1;
                }
            }
            Err(_) => report.corrupt += 1,
        }
    }
    (report, torn_bytes)
}

/// Reads every trustworthy record from the journal file at `path`
/// without opening it for appending: no tail repair, no writer lock —
/// safe on a file whose owning process was killed mid-append. A missing
/// file is an empty journal. Records come back in file order, duplicates
/// included (the report tallies them); torn tails and corrupt lines are
/// classified exactly as a store open would.
pub fn read_records(
    path: &Path,
) -> Result<(Vec<(RunKey, RunOutcome)>, ReplayReport), StoreError> {
    let mut raw = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Ok((Vec::new(), ReplayReport::default()));
        }
        Err(e) => return Err(e.into()),
    }
    let mut seen = std::collections::HashSet::new();
    let mut records = Vec::new();
    let (report, _torn) = replay(&raw, |key, outcome| {
        records.push((key, outcome));
        seen.insert(key)
    });
    Ok((records, report))
}

/// Factory recreating the append sink after the file is (re)opened.
pub type SinkFactory = Box<dyn Fn(File) -> Box<dyn AppendSink> + Send>;

/// An open journal: replay on open, then append-only.
pub struct Journal {
    path: PathBuf,
    sink: Box<dyn AppendSink>,
    wrap: SinkFactory,
    /// Set when an append fails: the file may end in a partial line, so
    /// the next append must re-frame before writing (see [`Journal::append`]).
    dirty: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal in `dir` and replays it.
    ///
    /// Every valid record is handed to `on_record` in file order, so the
    /// caller can build its index (last record wins for duplicate keys).
    pub fn open(
        dir: &Path,
        on_record: impl FnMut(RunKey, RunOutcome) -> bool,
    ) -> Result<(Journal, ReplayReport), StoreError> {
        Self::open_with(dir, on_record, Box::new(|f| Box::new(FileSink::new(f))))
    }

    /// Opens the journal with a caller-supplied append sink.
    ///
    /// `wrap` is invoked on every (re)open of the underlying file — once
    /// here and again after each [`Journal::rewrite`] — so a fault plan
    /// survives compaction.
    pub fn open_with(
        dir: &Path,
        on_record: impl FnMut(RunKey, RunOutcome) -> bool,
        wrap: SinkFactory,
    ) -> Result<(Journal, ReplayReport), StoreError> {
        let path = dir.join(JOURNAL_FILE);
        let mut report = ReplayReport::default();
        if path.exists() {
            let mut raw = Vec::new();
            File::open(&path)?.read_to_end(&mut raw)?;
            let (rep, torn_bytes) = replay(&raw, on_record);
            report = rep;
            // Tail repair: chop the torn fragment off the file before the
            // append handle opens, so the next record starts at a line
            // boundary instead of gluing itself onto garbage.
            if torn_bytes > 0 {
                let good_len = (raw.len() - torn_bytes) as u64;
                OpenOptions::new().write(true).open(&path)?.set_len(good_len)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let sink = wrap(file);
        Ok((Journal { path, sink, wrap, dirty: false }, report))
    }

    /// Appends one record and flushes it to the OS.
    ///
    /// The flush bounds crash loss to the record currently being written:
    /// everything previously appended survives a kill.
    ///
    /// After a *failed* append the file may end in a partial line, and a
    /// record appended directly after it would fuse with the fragment and
    /// be lost as corrupt on replay. So the first append after a failure
    /// leads with an extra `\n` to close any fragment — replay filters
    /// empty lines, and the fragment (if any) becomes an isolated interior
    /// line that is classified corrupt instead of swallowing a good record.
    pub fn append(&mut self, key: RunKey, outcome: &RunOutcome) -> Result<(), StoreError> {
        let record = render_record(key, outcome);
        let mut line = String::with_capacity(record.len() + 2);
        if self.dirty {
            line.push('\n');
        }
        line.push_str(&record);
        line.push('\n');
        match self.sink.append(line.as_bytes()) {
            Ok(()) => {
                self.dirty = false;
                Ok(())
            }
            Err(e) => {
                self.dirty = true;
                Err(e.into())
            }
        }
    }

    /// Rewrites the journal to contain exactly `records`, atomically.
    ///
    /// Used by `gc`: the compacted content is written to a temp file in
    /// the same directory and renamed over the journal, so a crash during
    /// compaction leaves either the old or the new journal, never a mix.
    pub fn rewrite<'a>(
        &mut self,
        records: impl Iterator<Item = (RunKey, &'a RunOutcome)>,
    ) -> Result<(), StoreError> {
        let tmp = self.path.with_extension("jsonl.tmp");
        {
            let mut w = BufWriter::new(File::create(&tmp)?);
            for (key, outcome) in records {
                let mut line = render_record(key, outcome);
                line.push('\n');
                w.write_all(line.as_bytes())?;
            }
            w.flush()?;
            w.get_ref().sync_all()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The old append handle points at the unlinked inode; reopen.
        let file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        self.sink = (self.wrap)(file);
        self.dirty = false;
        Ok(())
    }

    /// Size of the journal file in bytes.
    pub fn file_bytes(&self) -> Result<u64, StoreError> {
        Ok(std::fs::metadata(&self.path)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::tests::sample_outcome;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cochar-journal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn record_round_trips() {
        let o = sample_outcome();
        let line = render_record(RunKey(0xdead_beef_0123_4567), &o);
        let (key, back) = parse_record(&line).unwrap();
        assert_eq!(key, RunKey(0xdead_beef_0123_4567));
        assert_eq!(back, o);
    }

    #[test]
    fn textual_round_trip_is_canonical() {
        // A parsed record re-renders to the very line it was read from.
        let line = render_record(RunKey(9), &sample_outcome());
        let (key, o) = parse_record(&line).unwrap();
        assert_eq!(render_record(key, &o), line);
    }

    /// Parses `payload` framed with a valid checksum, so only the decoder
    /// can object.
    fn decode_framed(payload: &str) -> Result<RunOutcome, String> {
        match parse_record(&frame(RunKey(1), payload)) {
            Ok((_, o)) => Ok(o),
            Err(StoreError::Corrupt(msg)) => Err(msg),
            Err(other) => panic!("expected a corrupt record, got {other:?}"),
        }
    }

    #[test]
    fn missing_field_is_corrupt() {
        let payload = encode_outcome(&sample_outcome()).render();
        let cut = payload.replace(",\"horizon\":123456789012", "");
        assert_ne!(cut, payload, "replacement must hit");
        let msg = decode_framed(&cut).unwrap_err();
        assert!(msg.contains("horizon"), "{msg}");
    }

    #[test]
    fn bad_role_is_corrupt() {
        let payload = encode_outcome(&sample_outcome()).render();
        let msg = decode_framed(&payload.replace("\"fg\"", "\"xx\"")).unwrap_err();
        assert!(msg.contains("role"), "{msg}");
    }

    #[test]
    fn non_canonical_payloads_are_corrupt() {
        let payload = encode_outcome(&sample_outcome()).render();
        assert_eq!(decode_framed(&payload), Ok(sample_outcome()));
        for (from, to) in [
            ("\"horizon\":123456789012", "\"horizon\": 123456789012"),
            ("\"horizon\":123456789012", "\"horizon\":0123456789012"),
            ("\"horizon\":123456789012", "\"horizon\":123456789012.0"),
            ("\"horizon\":123456789012", "\"horizon\":-123456789012"),
            ("\"trunc\":true,\"stall\":true", "\"stall\":true,\"trunc\":true"),
            ("\"freq_ghz\":2.7", "\"freq_ghz\":2.70"),
            ("\"freq_ghz\":2.7", "\"freq_ghz\":27e-1"),
            ("\"name\":\"pr.graph\"", "\"name\":\"pr\\u002egraph\""),
            ("\"r\":[64,0]", "\"r\":[64,0,]"),
            ("[3,17,5,999]", "[3,17,5,999,1]"),
            ("[3,17,5,999]", "[4294967296,17,5,999]"),
            ("\"rd\":123456789", "\"rd\":18446744073709551616"),
        ] {
            let bad = payload.replacen(from, to, 1);
            assert_ne!(bad, payload, "replacement {from:?} must hit");
            assert!(decode_framed(&bad).is_err(), "{to:?} was accepted");
        }
        assert!(decode_framed(&format!("{payload} ")).is_err());
        assert!(decode_framed("").is_err());
    }

    #[test]
    fn frame_must_be_exact() {
        let line = render_record(RunKey(0xab), &sample_outcome());
        assert!(parse_record(&line).is_ok());
        let upper = line.replacen("00000000000000ab", "00000000000000AB", 1);
        let plus = line.replacen("00000000000000ab", "+0000000000000ab", 1);
        for bad in [
            format!(" {line}"),
            format!("{line} "),
            format!("{line}\r"),
            line.replacen("{\"k\":", "{ \"k\":", 1),
            line.replacen("\"k\"", "\"key\"", 1),
            upper,
            plus,
            line[..line.len() - 1].to_string(),
        ] {
            assert!(matches!(parse_record(&bad), Err(StoreError::Corrupt(_))), "{bad:.40}");
        }
    }

    #[test]
    fn flipped_value_fails_checksum() {
        let o = sample_outcome();
        let line = render_record(RunKey(1), &o);
        // Corrupt the horizon value without breaking JSON syntax.
        let bad = line.replace("\"horizon\":123456789012", "\"horizon\":123456789013");
        assert_ne!(bad, line, "replacement must hit");
        match parse_record(&bad) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum failure, got {other:?}"),
        }
    }

    #[test]
    fn torn_tail_is_dropped_and_interior_corruption_reported() {
        let dir = tmpdir("torn");
        let o = sample_outcome();
        {
            let (mut j, _) = Journal::open(&dir, |_, _| true).unwrap();
            j.append(RunKey(1), &o).unwrap();
            j.append(RunKey(2), &o).unwrap();
            j.append(RunKey(3), &o).unwrap();
        }
        // Corrupt record 2 in place and tear record 3 in half.
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let mangled = lines[1].replace("\"horizon\":123456789012", "\"horizon\":999999999999");
        let torn = &lines[2][..lines[2].len() / 2];
        std::fs::write(&path, format!("{}\n{}\n{}", lines[0], mangled, torn)).unwrap();

        let mut seen = Vec::new();
        let (_, report) = Journal::open(&dir, |k, _| {
            seen.push(k);
            true
        })
        .unwrap();
        assert_eq!(seen, vec![RunKey(1)]);
        assert_eq!(report, ReplayReport { valid: 1, corrupt: 1, torn: 1, duplicates: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unterminated_parseable_tail_is_still_torn() {
        // Strictness check: the final append may have lost only its
        // newline, leaving a line that parses — it is dropped anyway,
        // because the write provably did not complete.
        let dir = tmpdir("strict");
        let o = sample_outcome();
        {
            let (mut j, _) = Journal::open(&dir, |_, _| true).unwrap();
            j.append(RunKey(1), &o).unwrap();
            j.append(RunKey(2), &o).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let mut text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.pop(), Some('\n'));
        std::fs::write(&path, &text).unwrap();

        let mut seen = Vec::new();
        let (_, report) = Journal::open(&dir, |k, _| {
            seen.push(k);
            true
        })
        .unwrap();
        assert_eq!(seen, vec![RunKey(1)]);
        assert_eq!(report, ReplayReport { valid: 1, corrupt: 0, torn: 1, duplicates: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_repaired_before_new_appends() {
        let dir = tmpdir("repair");
        let o = sample_outcome();
        {
            let (mut j, _) = Journal::open(&dir, |_, _| true).unwrap();
            j.append(RunKey(1), &o).unwrap();
            j.append(RunKey(2), &o).unwrap();
        }
        let path = dir.join(JOURNAL_FILE);
        let text = std::fs::read_to_string(&path).unwrap();
        let cut = text.len() - text.lines().last().unwrap().len() / 2 - 1;
        std::fs::write(&path, &text[..cut]).unwrap();

        // Opening repairs the tail, so the next append lands on a clean
        // line boundary instead of fusing with the fragment.
        {
            let (mut j, report) = Journal::open(&dir, |_, _| true).unwrap();
            assert_eq!(report.torn, 1);
            j.append(RunKey(3), &o).unwrap();
        }
        let repaired = std::fs::read_to_string(&path).unwrap();
        assert!(repaired.ends_with('\n'));

        let mut seen = Vec::new();
        let (_, report) = Journal::open(&dir, |k, _| {
            seen.push(k);
            true
        })
        .unwrap();
        assert_eq!(seen, vec![RunKey(1), RunKey(3)]);
        assert_eq!(report, ReplayReport { valid: 2, corrupt: 0, torn: 0, duplicates: 0 });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_compacts_and_stays_appendable() {
        let dir = tmpdir("rewrite");
        let o = sample_outcome();
        let (mut j, _) = Journal::open(&dir, |_, _| true).unwrap();
        j.append(RunKey(1), &o).unwrap();
        j.append(RunKey(1), &o).unwrap();
        j.append(RunKey(2), &o).unwrap();
        j.rewrite([(RunKey(1), &o), (RunKey(2), &o)].into_iter()).unwrap();
        j.append(RunKey(3), &o).unwrap();

        let mut seen = Vec::new();
        let (_, report) = Journal::open(&dir, |k, _| {
            seen.push(k);
            true
        })
        .unwrap();
        assert_eq!(seen, vec![RunKey(1), RunKey(2), RunKey(3)]);
        assert_eq!(report.corrupt, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
