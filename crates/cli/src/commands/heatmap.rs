//! `cochar heatmap <apps...> [--csv FILE] [--max-retries N]
//! [--keep-going|--fail-fast]`
//!
//! The sweep runs under the fault-tolerant supervisor: a panicking cell
//! becomes a NaN hole (reported in `failures.jsonl`) instead of sinking
//! the other cells, and the exit code distinguishes a clean sweep (0)
//! from one with holes (2). Returns the number of failed cells.

use std::path::PathBuf;

use cochar_colocation::report::heat::ascii_heatmap;
use cochar_colocation::{CellFailure, Heatmap, Study, SweepPolicy};
use cochar_store::json::Json;

use crate::commands::maybe_write_csv;
use crate::opts::Opts;

pub fn run(study: &Study, opts: &Opts) -> Result<usize, String> {
    if opts.positional.len() < 2 {
        return Err("need at least two applications".into());
    }
    let names: Vec<&str> = opts.positional.iter().map(|s| s.as_str()).collect();
    for n in &names {
        if study.registry().get(n).is_none() {
            return Err(format!("unknown application {n:?}; try `cochar list`"));
        }
    }
    if opts.switch("keep-going") && opts.switch("fail-fast") {
        return Err("--keep-going and --fail-fast are mutually exclusive".into());
    }
    let policy = SweepPolicy {
        max_retries: opts.flag_parse("max-retries", 0u32)?,
        // Keep-going is the default: a 625-cell sweep should not forfeit
        // 624 results to one bad cell.
        keep_going: !opts.switch("fail-fast"),
    };
    // Progress goes to stderr (stdout stays clean for the matrix); each
    // tick is durable progress when a --store backs the study.
    let step = (names.len() * names.len() / 10).max(1);
    let (heat, failures) =
        Heatmap::compute_supervised(study, &names, policy, |completed, total| {
            if completed % step == 0 || completed == total {
                eprintln!("heatmap: {completed}/{total} cells");
            }
        });
    print_sweep(opts, study, &heat, &failures)?;
    Ok(failures.len())
}

/// Prints a finished sweep, the same for `heatmap` and `sweep`: the
/// ASCII matrix, the class and status ledgers, the failure records
/// (`failures.jsonl` plus a stderr list), and the `--csv` export.
pub(crate) fn print_sweep(
    opts: &Opts,
    study: &Study,
    heat: &Heatmap,
    failures: &[CellFailure],
) -> Result<(), String> {
    println!("{}", ascii_heatmap(heat));
    let (h, vo, bv) = heat.class_counts();
    println!("Harmony {h}, Victim-Offender {vo}, Both-Victim {bv} (unordered pairs)");
    let (truncated, stalled, failed) = heat.status_counts();
    println!("sweep: truncated {truncated} cells, stalled {stalled} cells, failed {failed} cells");
    if !failures.is_empty() {
        let path = failure_report_path(study);
        write_failure_report(&path, failures)?;
        eprintln!("sweep: {} cell failure(s) recorded in {}", failures.len(), path.display());
        for f in failures {
            eprintln!("  {} after {} attempt(s): {}", f.spec, f.attempts, f.cause);
        }
    }
    maybe_write_csv(opts, &heat.to_csv())
}

/// Failures land next to the journal when a store is configured (they
/// describe what that store is missing), else in the working directory.
fn failure_report_path(study: &Study) -> PathBuf {
    match study.store() {
        Some(store) => store.dir().join("failures.jsonl"),
        None => PathBuf::from("failures.jsonl"),
    }
}

fn write_failure_report(path: &PathBuf, failures: &[CellFailure]) -> Result<(), String> {
    let mut text = String::new();
    for f in failures {
        let record = Json::Obj(vec![
            ("spec".into(), Json::str(&f.spec)),
            ("cause".into(), Json::str(&f.cause)),
            ("attempts".into(), Json::u64(u64::from(f.attempts))),
            ("index".into(), Json::u64(f.index as u64)),
        ]);
        text.push_str(&record.render());
        text.push('\n');
    }
    std::fs::write(path, text)
        .map_err(|e| format!("cannot write failure report {}: {e}", path.display()))
}
