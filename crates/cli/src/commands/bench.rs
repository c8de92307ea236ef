//! `cochar bench` — the engine speed harness behind `BENCH_engine.json`.
//!
//! Measures the simulator's end-to-end throughput in two phases:
//!
//! * **solo**: every app of a fixed cross-domain set run alone (one run =
//!   one *cell*), the shape `cochar solo` and signature collection use;
//! * **pair**: a full FG×BG sweep over a 4-app subset (16 cells), the
//!   shape every heatmap campaign is built from.
//!
//! Reported per phase: cells/sec (wall) and simulated cycles/sec (how
//! much machine time the engine retires per wall second), plus two
//! *deterministic* workload fields — total simulated cycles and a stable
//! hash over every run's canonical-JSON `RunOutcome` encoding — which
//! must be byte-identical across reruns at a fixed seed. Nondeterminism
//! between measurement reps is a hard error, never averaged away.
//!
//! Modes:
//!
//! * `--pin ID` measures and appends (or replaces) an entry in the JSON
//!   trajectory file, recording the PR-over-PR perf history;
//! * `--check` (the default when the file exists) measures and compares
//!   against the **last** pinned entry: deterministic fields must match
//!   exactly, and neither pair nor solo cells/sec may regress by more
//!   than `--tolerance` (default 0.10). Both phases gate: a change that
//!   speeds the contended sweep by slowing every solo run (or vice
//!   versa) is a trade-off to make deliberately via `--pin`, not an
//!   accident to slip through. The file is never rewritten, so reruns
//!   leave it byte-identical.
//!
//! The file may also hold a `campaign` section: a fabric scaling series
//! (25 cells at 1/2/4/8 workers) and its `csv_hash`. It is a frozen pin —
//! `--pin` carries it forward byte for byte and `--check` ignores it —
//! because perfbench's cold campaign checks its own pins against it.
//!
//! The run store is deliberately rejected here: cached runs would
//! measure the journal, not the engine.

use std::process::ExitCode;
use std::time::Instant;

use cochar_machine::StableHasher;
use cochar_store::codec::encode_outcome;
use cochar_store::json::Json;

use crate::opts::Opts;

/// Default work scale: smoke-sized so the harness (and the CI check)
/// completes in seconds while still simulating hundreds of Mcycles.
pub const DEFAULT_WORK: f64 = 0.25;

/// Schema marker of the trajectory file.
const SCHEMA: &str = "cochar-bench-engine v1";

/// Solo phase: one run per app, cross-domain (graph, DL, PARSEC, SPEC,
/// HPC) so the measurement covers latency-bound, bandwidth-bound, and
/// compute-bound engine behaviour.
const SOLO_APPS: [&str; 10] = [
    "G-PR", "G-CC", "P-PR", "CIFAR", "LSTM", "blackscholes", "streamcluster", "mcf",
    "fotonik3d", "AMG2006",
];

/// Pair phase: FG×BG over offenders and victims — 16 co-run cells.
const PAIR_APPS: [&str; 4] = ["G-CC", "CIFAR", "mcf", "fotonik3d"];

/// One full measurement at the current build.
struct Measured {
    solo_wall_s: f64,
    pair_wall_s: f64,
    solo_sim_cycles: u64,
    pair_sim_cycles: u64,
    outcome_hash: String,
}

impl Measured {
    fn solo_cells_per_sec(&self) -> f64 {
        round3(SOLO_APPS.len() as f64 / self.solo_wall_s)
    }
    fn pair_cells_per_sec(&self) -> f64 {
        round3(PAIR_APPS.len().pow(2) as f64 / self.pair_wall_s)
    }
    fn solo_sim_cycles_per_sec(&self) -> f64 {
        round3(self.solo_sim_cycles as f64 / self.solo_wall_s)
    }
    fn pair_sim_cycles_per_sec(&self) -> f64 {
        round3(self.pair_sim_cycles as f64 / self.pair_wall_s)
    }
}

fn round3(v: f64) -> f64 {
    (v * 1000.0).round() / 1000.0
}

pub fn run(opts: &Opts) -> Result<ExitCode, String> {
    if opts.flag("store").is_some() {
        return Err("bench measures the engine, not the journal: drop --store".into());
    }
    let path = opts.flag("json").unwrap_or("BENCH_engine.json").to_string();
    let reps: u32 = opts.flag_parse("reps", 2)?;
    let tolerance: f64 = opts.flag_parse("tolerance", 0.10)?;
    if reps == 0 {
        return Err("--reps must be positive".into());
    }
    let pin = opts.flag("pin");
    let check = opts.switch("check");
    if pin.is_some() && check {
        return Err("--pin and --check are mutually exclusive".into());
    }
    if opts.switch("campaign") {
        return Err("bench measures the engine; campaign scaling is `sweep --workers N`".into());
    }

    let m = measure(opts, reps)?;
    println!("bench: engine throughput ({} rep(s), best wall time)", reps);
    println!(
        "  solo: {:>3} cells in {:.3}s = {:.3} cells/s, {:.1} Msim-cycles/s",
        SOLO_APPS.len(),
        m.solo_wall_s,
        m.solo_cells_per_sec(),
        m.solo_sim_cycles_per_sec() / 1e6,
    );
    println!(
        "  pair: {:>3} cells in {:.3}s = {:.3} cells/s, {:.1} Msim-cycles/s",
        PAIR_APPS.len().pow(2),
        m.pair_wall_s,
        m.pair_cells_per_sec(),
        m.pair_sim_cycles_per_sec() / 1e6,
    );
    println!("  outcome hash {}", m.outcome_hash);

    let existing = read_file(&path)?;
    match (pin, &existing) {
        (Some(id), _) => {
            let doc = pin_entry(opts, existing, &m, id)?;
            std::fs::write(&path, doc.render() + "\n")
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("bench: pinned entry {id:?} in {path}");
            Ok(ExitCode::SUCCESS)
        }
        (None, Some(doc)) => check_against(opts, doc, &m, tolerance),
        (None, None) => {
            println!("bench: no {path} yet; rerun with --pin <id> to record a baseline");
            Ok(ExitCode::SUCCESS)
        }
    }
}

/// Runs the two phases `reps` times on fresh studies; wall times keep the
/// best (min) rep, deterministic fields must agree across reps exactly.
fn measure(opts: &Opts, reps: u32) -> Result<Measured, String> {
    let mut best: Option<Measured> = None;
    for _ in 0..reps {
        let study = crate::build_study(opts, DEFAULT_WORK)?;
        for name in SOLO_APPS.iter().chain(PAIR_APPS.iter()) {
            if study.registry().get(name).is_none() {
                return Err(format!("bench app {name:?} missing from the registry"));
            }
        }

        let mut hasher = StableHasher::new();
        let mut solo_sim_cycles = 0u64;
        cochar_machine::engine_stats_reset();
        let t0 = Instant::now();
        for name in SOLO_APPS {
            let solo = study.solo(name);
            solo_sim_cycles += solo.outcome.horizon;
            hasher.write_str(&encode_outcome(&solo.outcome).render());
        }
        let solo_wall_s = t0.elapsed().as_secs_f64();
        // Phase shares ride along when COCHAR_ENGINE_STATS=1 (one line
        // per phase per rep); timer overhead inflates the wall numbers,
        // so stats-enabled runs are for steering, never for gating.
        if let Some(report) = cochar_machine::engine_stats_report() {
            eprintln!("  solo {report}");
        }

        let mut pair_sim_cycles = 0u64;
        cochar_machine::engine_stats_reset();
        let t0 = Instant::now();
        for fg in PAIR_APPS {
            for bg in PAIR_APPS {
                let pair = study.pair(fg, bg);
                pair_sim_cycles += pair.outcome.horizon;
                hasher.write_str(&encode_outcome(&pair.outcome).render());
            }
        }
        let pair_wall_s = t0.elapsed().as_secs_f64();
        if let Some(report) = cochar_machine::engine_stats_report() {
            eprintln!("  pair {report}");
        }

        let rep = Measured {
            solo_wall_s,
            pair_wall_s,
            solo_sim_cycles,
            pair_sim_cycles,
            outcome_hash: format!("{:016x}", hasher.finish()),
        };
        best = Some(match best {
            None => rep,
            Some(prev) => {
                if (prev.solo_sim_cycles, prev.pair_sim_cycles, &prev.outcome_hash)
                    != (rep.solo_sim_cycles, rep.pair_sim_cycles, &rep.outcome_hash)
                {
                    return Err(format!(
                        "nondeterministic workload between reps: \
                         {}/{} cycles, hash {} vs {}/{} cycles, hash {}",
                        prev.solo_sim_cycles,
                        prev.pair_sim_cycles,
                        prev.outcome_hash,
                        rep.solo_sim_cycles,
                        rep.pair_sim_cycles,
                        rep.outcome_hash
                    ));
                }
                Measured {
                    solo_wall_s: prev.solo_wall_s.min(rep.solo_wall_s),
                    pair_wall_s: prev.pair_wall_s.min(rep.pair_wall_s),
                    ..rep
                }
            }
        });
    }
    Ok(best.expect("reps >= 1"))
}

/// The measurement parameters that must match for entries (and checks)
/// to be comparable.
fn params_json(opts: &Opts) -> Result<Vec<(String, Json)>, String> {
    Ok(vec![
        ("machine".into(), Json::str(opts.flag("machine").unwrap_or("bench"))),
        ("work".into(), Json::f64(opts.flag_parse("work", DEFAULT_WORK)?)),
        ("threads".into(), Json::u64(opts.flag_parse("threads", 4u64)?)),
        ("trials".into(), Json::u64(opts.flag_parse("trials", 1u64)?)),
        ("seed".into(), Json::u64(opts.flag_parse("seed", 1u64)?)),
        ("solo_apps".into(), Json::Arr(SOLO_APPS.iter().map(|a| Json::str(*a)).collect())),
        ("pair_apps".into(), Json::Arr(PAIR_APPS.iter().map(|a| Json::str(*a)).collect())),
        ("solo_cells".into(), Json::u64(SOLO_APPS.len() as u64)),
        ("pair_cells".into(), Json::u64(PAIR_APPS.len().pow(2) as u64)),
    ])
}

fn entry_json(id: &str, m: &Measured, speedup: Option<f64>) -> Json {
    let mut pairs = vec![
        ("id".into(), Json::str(id)),
        ("solo_wall_s".into(), Json::f64(round3(m.solo_wall_s))),
        ("pair_wall_s".into(), Json::f64(round3(m.pair_wall_s))),
        ("solo_cells_per_sec".into(), Json::f64(m.solo_cells_per_sec())),
        ("pair_cells_per_sec".into(), Json::f64(m.pair_cells_per_sec())),
        ("solo_sim_cycles_per_sec".into(), Json::f64(m.solo_sim_cycles_per_sec())),
        ("pair_sim_cycles_per_sec".into(), Json::f64(m.pair_sim_cycles_per_sec())),
        ("solo_sim_cycles".into(), Json::u64(m.solo_sim_cycles)),
        ("pair_sim_cycles".into(), Json::u64(m.pair_sim_cycles)),
        ("outcome_hash".into(), Json::str(&m.outcome_hash)),
    ];
    if let Some(s) = speedup {
        pairs.push(("pair_speedup_vs_baseline".into(), Json::f64(round3(s))));
    }
    Json::Obj(pairs)
}

fn read_file(path: &str) -> Result<Option<Json>, String> {
    match std::fs::read_to_string(path) {
        Ok(text) => Json::parse(&text)
            .map(Some)
            .map_err(|e| format!("{path} is not valid bench JSON: {e}")),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(format!("cannot read {path}: {e}")),
    }
}

fn entries_of(doc: &Json) -> Result<Vec<Json>, String> {
    Ok(doc
        .field("entries")
        .and_then(|e| e.as_arr())
        .map_err(|e| format!("bench file: {e}"))?
        .to_vec())
}

/// Appends (or replaces, same id) an entry; verifies the file's recorded
/// parameters match the current invocation so entries stay comparable.
fn pin_entry(opts: &Opts, existing: Option<Json>, m: &Measured, id: &str) -> Result<Json, String> {
    let params = params_json(opts)?;
    let mut entries = match &existing {
        Some(doc) => {
            for (key, want) in &params {
                let found = doc.field(key).map_err(|e| format!("bench file: {e}"))?;
                if found.render() != want.render() {
                    return Err(format!(
                        "bench file was pinned with {key}={}, this run uses {}; \
                         delete the file to start a new trajectory",
                        found.render(),
                        want.render()
                    ));
                }
            }
            entries_of(doc)?
        }
        None => Vec::new(),
    };
    entries.retain(|e| e.get("id").and_then(|v| v.as_str().ok()) != Some(id));
    let speedup = entries.first().map(|baseline| -> Result<f64, String> {
        let base = baseline
            .field("pair_cells_per_sec")
            .and_then(|v| v.as_f64())
            .map_err(|e| format!("bench file: {e}"))?;
        Ok(m.pair_cells_per_sec() / base)
    });
    let speedup = speedup.transpose()?;
    if let Some(s) = speedup {
        println!("bench: pair-sweep speedup vs baseline entry: {s:.2}x");
    }
    entries.push(entry_json(id, m, speedup));

    let mut pairs = vec![("schema".into(), Json::str(SCHEMA))];
    pairs.extend(params);
    pairs.push(("entries".into(), Json::Arr(entries)));
    // The frozen `campaign` section rides along (see the module docs).
    if let Some(c) = existing.as_ref().and_then(|doc| doc.get("campaign")) {
        pairs.push(("campaign".into(), c.clone()));
    }
    Ok(Json::Obj(pairs))
}

/// Compares a fresh measurement against the last pinned entry:
/// deterministic fields exactly, throughput within `tolerance`.
fn check_against(
    opts: &Opts,
    doc: &Json,
    m: &Measured,
    tolerance: f64,
) -> Result<ExitCode, String> {
    for (key, want) in params_json(opts)? {
        let found = doc.field(&key).map_err(|e| format!("bench file: {e}"))?;
        if found.render() != want.render() {
            return Err(format!(
                "bench file was pinned with {key}={}, this run uses {}",
                found.render(),
                want.render()
            ));
        }
    }
    let entries = entries_of(doc)?;
    let last = entries.last().ok_or("bench file has no entries; --pin one first")?;
    let id = last.field("id").and_then(|v| v.as_str()).unwrap_or("?").to_string();
    let want_cycles = (
        last.field("solo_sim_cycles").and_then(|v| v.as_u64()).map_err(|e| e.to_string())?,
        last.field("pair_sim_cycles").and_then(|v| v.as_u64()).map_err(|e| e.to_string())?,
    );
    let want_hash =
        last.field("outcome_hash").and_then(|v| v.as_str()).map_err(|e| e.to_string())?;
    if want_cycles != (m.solo_sim_cycles, m.pair_sim_cycles) || want_hash != m.outcome_hash {
        eprintln!(
            "bench: DETERMINISM MISMATCH vs entry {id:?}: \
             pinned {}/{} cycles hash {}, measured {}/{} cycles hash {}",
            want_cycles.0,
            want_cycles.1,
            want_hash,
            m.solo_sim_cycles,
            m.pair_sim_cycles,
            m.outcome_hash
        );
        eprintln!("bench: the engine's measurement semantics changed; re-pin deliberately");
        return Ok(ExitCode::from(4));
    }
    // Both throughput phases gate within the same tolerance: pair (the
    // sweep shape campaigns run) and solo (the shape signature collection
    // runs). A regression in either is a failure even if the other holds.
    let gates = [
        ("pair", "pair_cells_per_sec", m.pair_cells_per_sec()),
        ("solo", "solo_cells_per_sec", m.solo_cells_per_sec()),
    ];
    let mut summary = Vec::new();
    for (phase, key, fresh) in gates {
        let base = last.field(key).and_then(|v| v.as_f64()).map_err(|e| e.to_string())?;
        let floor = base * (1.0 - tolerance);
        if fresh < floor {
            eprintln!(
                "bench: REGRESSION vs entry {id:?}: {fresh:.3} {phase} cells/s < {floor:.3} \
                 (pinned {base:.3}, tolerance {:.0}%)",
                tolerance * 100.0
            );
            return Ok(ExitCode::from(5));
        }
        summary.push(format!("{fresh:.3} {phase} cells/s (pinned {base:.3}, floor {floor:.3})"));
    }
    println!("bench: OK vs entry {id:?}: {}", summary.join(", "));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pinning an entry must carry the frozen `campaign` section forward
    /// byte for byte: perfbench reads its `csv_hash` and nothing else
    /// writes it.
    #[test]
    fn pin_entry_carries_the_campaign_section_forward() {
        let text = include_str!("../../../../BENCH_engine.json");
        let existing = Json::parse(text).expect("BENCH_engine.json parses");
        let campaign = existing.field("campaign").expect("campaign section").render();
        let m = Measured {
            solo_wall_s: 2.0,
            pair_wall_s: 4.0,
            solo_sim_cycles: 10,
            pair_sim_cycles: 20,
            outcome_hash: "0123456789abcdef".into(),
        };
        let doc = pin_entry(&Opts::default(), Some(existing.clone()), &m, "unit").expect("pins");
        assert_eq!(doc.field("campaign").expect("campaign carried").render(), campaign);
        let entries = entries_of(&doc).expect("entries");
        assert_eq!(entries.len(), entries_of(&existing).expect("entries").len() + 1);
        let id = entries.last().and_then(|e| e.get("id")).and_then(|id| id.as_str().ok());
        assert_eq!(id, Some("unit"));
    }
}
