//! Crash-and-resume integration tests for store-backed studies.
//!
//! These exercise the property the store exists for: kill a sweep at an
//! arbitrary byte boundary and the rerun simulates exactly the cells the
//! journal lost — everything else is replayed bit-identically.

use std::path::PathBuf;
use std::sync::Arc;

use cochar_colocation::{Heatmap, Study};
use cochar_machine::MachineConfig;
use cochar_store::RunStore;
use cochar_workloads::{Registry, Scale};

const APPS: [&str; 2] = ["blackscholes", "stream"];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cochar-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn study() -> Study {
    // tiny machine has 2 cores: 1 thread per app so pairs fit.
    Study::new(MachineConfig::tiny(), Arc::new(Registry::new(Scale::tiny()))).with_threads(1)
}

fn store_study(dir: &PathBuf) -> Study {
    study().with_store(RunStore::open(dir).unwrap())
}

#[test]
fn killed_sweep_resumes_running_only_missing_cells() {
    let dir = tmpdir("kill");

    // Full sweep: 2 solos + 4 ordered pairs = 6 journaled runs.
    let first = store_study(&dir);
    let heat1 = Heatmap::compute(&first, &APPS);
    assert_eq!(first.run_counts(), (6, 0), "fresh sweep simulates everything");
    drop(first); // release the journal lock before the resumed study opens

    // Simulate a kill: drop the last journal record entirely and tear the
    // one before it mid-line (a crash mid-append).
    let journal = dir.join("journal.jsonl");
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6);
    let mut truncated: String = lines[..4].join("\n");
    truncated.push('\n');
    truncated.push_str(&lines[4][..lines[4].len() / 2]);
    std::fs::write(&journal, truncated).unwrap();

    // Resume: the store replays 4 valid records, drops the torn tail, and
    // the sweep re-simulates exactly the 2 missing runs.
    let second = store_study(&dir);
    let store = second.store().unwrap();
    assert_eq!(store.replay_report().valid, 4);
    assert_eq!(store.replay_report().torn, 1);
    let heat2 = Heatmap::compute(&second, &APPS);
    assert_eq!(second.run_counts(), (2, 4), "resume reruns only the lost cells");

    // And the resumed heatmap is byte-identical to the original.
    assert_eq!(heat2.to_csv(), heat1.to_csv());

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_at_any_byte_offset_resumes_byte_identically() {
    // The generalized crash property: truncate the journal at *random*
    // byte offsets (not just line boundaries) and the resumed sweep must
    // always reproduce the reference CSV exactly. Offsets are drawn from
    // a deterministic stream so failures replay.
    let dir = tmpdir("randkill");

    let reference = {
        let s = store_study(&dir);
        Heatmap::compute(&s, &APPS).to_csv()
    };
    let journal = dir.join("journal.jsonl");
    let pristine = std::fs::read(&journal).unwrap();

    let mut rng = proptest::TestRng::from_label("kill-at-random-cell");
    for _ in 0..8 {
        let cut = (rng.below(pristine.len() as u64 - 1) + 1) as usize;
        std::fs::write(&journal, &pristine[..cut]).unwrap();

        let resumed = store_study(&dir);
        let report = resumed.store().unwrap().replay_report();
        assert!(report.torn <= 1, "cut at {cut}: {report:?}");
        assert_eq!(report.corrupt, 0, "a clean truncation never looks corrupt");
        let heat = Heatmap::compute(&resumed, &APPS);
        assert_eq!(heat.to_csv(), reference, "cut at byte {cut} diverged");

        // Restore the pristine journal for the next independent kill.
        std::fs::write(&journal, &pristine).unwrap();
    }

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cache_hit_is_bit_identical_to_fresh_simulation() {
    let dir = tmpdir("ident");

    // Reference: no store at all.
    let fresh = study().pair("stream", "blackscholes");

    // Populate the store, then read the same cell back cold.
    let writer = store_study(&dir);
    let written = writer.pair("stream", "blackscholes");
    drop(writer);
    let reader = store_study(&dir);
    let replayed = reader.pair("stream", "blackscholes");
    let (simulated, cached) = reader.run_counts();
    assert_eq!(simulated, 0, "second study must not simulate");
    assert!(cached >= 2, "solo + pair served from the store, got {cached}");

    // The journal round trip loses nothing: every counter, epoch, and
    // float of the outcome compares equal to a from-scratch simulation.
    assert_eq!(*replayed.outcome, *fresh.outcome);
    assert_eq!(*written.outcome, *fresh.outcome);
    assert_eq!(replayed.fg_slowdown, fresh.fg_slowdown);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn non_registry_specs_bypass_the_cache() {
    let dir = tmpdir("bypass");

    // A throttled variant reuses the registry name with different
    // behavior; caching it under the canonical key would poison the
    // store, so the study must simulate it every time.
    let a = store_study(&dir);
    let spec = cochar_colocation::throttle::throttled_spec(a.spec("stream"), 50, None);
    let slow_a = a.pair_against("blackscholes", &spec).fg_slowdown;
    drop(a);

    let b = store_study(&dir);
    let slow_b = b.pair_against("blackscholes", &spec).fg_slowdown;
    let (simulated, cached) = b.run_counts();
    // The solo leg is canonical and cached; the throttled pair is not.
    assert_eq!(cached, 1, "only the solo may come from the store");
    assert_eq!(simulated, 1, "the throttled pair must re-simulate");
    assert_eq!(slow_a, slow_b, "determinism still holds without the cache");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn derived_msr_studies_share_the_store() {
    let dir = tmpdir("derived");

    let base = store_study(&dir);
    let _ = cochar_colocation::prefetcher::sensitivity(&base, "stream");
    let (sim1, _) = base.run_counts();
    assert!(sim1 >= 2, "two MSR endpoints simulated, got {sim1}");
    drop(base);

    // A second invocation over the same directory replays both endpoint
    // solos, even though they ran under derived studies.
    let again = store_study(&dir);
    let _ = cochar_colocation::prefetcher::sensitivity(&again, "stream");
    assert_eq!(again.run_counts().0, 0, "endpoint solos must be cached");

    std::fs::remove_dir_all(&dir).unwrap();

    // Without a store the run table still spans derived studies: the
    // all-on endpoint is the study's own solo, so only the off endpoint
    // simulates.
    let plain = study();
    let _ = plain.solo("stream");
    assert_eq!(plain.run_counts(), (1, 0));
    let _ = cochar_colocation::prefetcher::sensitivity(&plain, "stream");
    assert_eq!(plain.run_counts(), (2, 0), "only the off endpoint is new");
    let _ = cochar_colocation::prefetcher::sensitivity(&plain, "stream");
    assert_eq!(plain.run_counts(), (2, 0), "a repeat simulates nothing");
}
