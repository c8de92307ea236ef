//! Coordinator crash recovery: durable campaign metadata beside the store.
//!
//! A store-backed campaign journals two small files next to
//! `journal.jsonl`, giving a SIGKILLed coordinator something to resume
//! from:
//!
//! * `campaign.json` — the [`CampaignSpec`] plus its fingerprint, written
//!   atomically ([`cochar_store::sidecar::write_atomic`]) before any cell
//!   is issued. On `--resume` the recorded fingerprint must match the
//!   fresh command line: the run store is content-addressed, so resuming
//!   with different flags would not corrupt anything, but it would
//!   silently compute a *different* campaign — that is an operator error
//!   worth refusing loudly.
//! * `fabric.ledger.jsonl` — one checksummed [`cochar_store::sidecar`]
//!   line per completed run, appending each run's [`FabricLedger`]. A
//!   resumed run reports the prior runs' totals so "how much work did
//!   this campaign really take" survives the crash.
//!
//! The cell results themselves need no recovery machinery: they live in
//! the content-addressed run journal, which is already crash-safe, and
//! the coordinator's cached-cell resolution re-adopts every stored cell
//! on startup. Resume is therefore metadata-only — cheap, and impossible
//! to double-count.

use std::path::Path;

use cochar_store::json::Json;
use cochar_store::sidecar;

use crate::coord::FabricLedger;
use crate::wire::{campaign_from_json, campaign_to_json, Fields};
use crate::CampaignSpec;

/// Campaign metadata file, beside the run journal.
pub const CAMPAIGN_FILE: &str = "campaign.json";

/// Per-run ledger log, beside the run journal.
pub const LEDGER_LOG: &str = "fabric.ledger.jsonl";

/// What a resumed campaign found in the ledger log.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResumePrior {
    /// Completed (or at least ledger-flushed) runs before this one.
    pub runs: u64,
    /// Their summed ledgers.
    pub ledger: FabricLedger,
}

/// Atomically writes `campaign.json` for `spec` in `dir`.
pub fn save_campaign(dir: &Path, spec: &CampaignSpec) -> Result<(), String> {
    let doc = Json::Obj(vec![
        ("fp".into(), Json::str(format!("{:016x}", spec.fingerprint()))),
        ("campaign".into(), campaign_to_json(spec)),
    ]);
    sidecar::write_atomic(&dir.join(CAMPAIGN_FILE), &format!("{}\n", doc.render()))
        .map_err(|e| format!("writing {CAMPAIGN_FILE}: {e}"))
}

/// Loads `campaign.json` from `dir`, if present.
///
/// Returns the recorded fingerprint alongside the spec; a fingerprint
/// that does not match `spec.fingerprint()` of the *recorded* spec means
/// the fingerprint algorithm (or schema version) changed underneath the
/// store, which callers must treat as a mismatch too.
pub fn load_campaign(dir: &Path) -> Result<Option<(u64, CampaignSpec)>, String> {
    let path = dir.join(CAMPAIGN_FILE);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("reading {}: {e}", path.display())),
    };
    let doc = Json::parse(text.trim()).map_err(|e| format!("parsing {}: {e}", path.display()))?;
    let f = Fields(&doc);
    let recorded = f.hex("fp").and_then(|fp| Ok((fp, campaign_from_json(f.get("campaign")?)?)));
    recorded.map(Some).map_err(|e| format!("{}: {e}", path.display()))
}

/// The ledger's counters by their log names: the one table that renders,
/// parses, and sums them.
fn counters(l: &mut FabricLedger) -> [(&'static str, &mut u64); 12] {
    [
        ("workers", &mut l.workers),
        ("worker_deaths", &mut l.worker_deaths),
        ("respawns", &mut l.respawns),
        ("reconnects", &mut l.reconnects),
        ("leases_issued", &mut l.leases_issued),
        ("leases_reissued", &mut l.leases_reissued),
        ("cell_retries", &mut l.cell_retries),
        ("cells_cached", &mut l.cells_cached),
        ("records_merged", &mut l.records_merged),
        ("records_duplicate", &mut l.records_duplicate),
        ("results_duplicate", &mut l.results_duplicate),
        ("wire_faults", &mut l.wire_faults),
    ]
}

fn ledger_to_json(mut l: FabricLedger) -> Json {
    Json::Obj(counters(&mut l).into_iter().map(|(k, v)| (k.to_string(), Json::u64(*v))).collect())
}

fn ledger_from_json(v: &Json) -> FabricLedger {
    // Missing fields read as 0 so a ledger log written by an older build
    // still loads (new counters simply start at zero).
    let mut l = FabricLedger::default();
    for (k, counter) in counters(&mut l) {
        *counter = v.get(k).and_then(|f| f.as_u64().ok()).unwrap_or(0);
    }
    l
}

/// Appends one run's ledger snapshot to the log in `dir`.
pub fn append_ledger(dir: &Path, run: u64, ledger: &FabricLedger) -> Result<(), String> {
    let payload =
        Json::Obj(vec![("run".into(), Json::u64(run)), ("ledger".into(), ledger_to_json(*ledger))]);
    sidecar::append_line(&dir.join(LEDGER_LOG), &payload)
        .map_err(|e| format!("appending {LEDGER_LOG}: {e}"))
}

/// Reads the ledger log in `dir`: run count and summed prior ledgers.
/// Corrupt or torn lines are dropped (they only cost accounting, never
/// results).
pub fn load_ledger_log(dir: &Path) -> ResumePrior {
    let (lines, _dropped) =
        sidecar::read_lines(&dir.join(LEDGER_LOG)).unwrap_or((Vec::new(), 0));
    let mut prior = ResumePrior::default();
    for line in &lines {
        let Some(mut ledger) = line.get("ledger").map(ledger_from_json) else {
            continue;
        };
        prior.runs += 1;
        let pairs = counters(&mut prior.ledger).into_iter().zip(counters(&mut ledger));
        for ((_, sum), (_, add)) in pairs {
            *sum += *add;
        }
    }
    prior
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("cochar-recover-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec() -> CampaignSpec {
        CampaignSpec {
            machine: "tiny".into(),
            work: 0.1,
            threads: 1,
            trials: 1,
            seed: 7,
            msr: 0,
            names: vec!["blackscholes".into(), "swaptions".into()],
        }
    }

    #[test]
    fn campaign_metadata_round_trips() {
        let dir = tmpdir("campaign");
        assert!(load_campaign(&dir).unwrap().is_none());
        let s = spec();
        save_campaign(&dir, &s).unwrap();
        let (fp, back) = load_campaign(&dir).unwrap().expect("saved");
        assert_eq!(fp, s.fingerprint());
        assert_eq!(back, s);
        // Overwriting (a fresh, non-resume run with new flags) replaces.
        let mut s2 = s.clone();
        s2.seed = 8;
        save_campaign(&dir, &s2).unwrap();
        let (fp2, _) = load_campaign(&dir).unwrap().expect("saved");
        assert_eq!(fp2, s2.fingerprint());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ledger_log_accumulates_and_survives_torn_tail() {
        let dir = tmpdir("ledger");
        assert_eq!(load_ledger_log(&dir), ResumePrior::default());
        let mut l = FabricLedger { leases_issued: 5, records_merged: 9, ..Default::default() };
        append_ledger(&dir, 1, &l).unwrap();
        l.leases_issued = 2;
        l.reconnects = 1;
        l.wire_faults = 3;
        append_ledger(&dir, 2, &l).unwrap();
        // A torn third append must not poison the first two.
        let path = dir.join(LEDGER_LOG);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"c\":\"00");
        std::fs::write(&path, &text).unwrap();
        let prior = load_ledger_log(&dir);
        assert_eq!(prior.runs, 2);
        assert_eq!(prior.ledger.leases_issued, 7);
        assert_eq!(prior.ledger.records_merged, 18);
        assert_eq!(prior.ledger.reconnects, 1);
        assert_eq!(prior.ledger.wire_faults, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
