//! The distributed sweep fabric, CLI side.
//!
//! Three entry points share this module:
//!
//! * `cochar sweep <apps...> --workers N` — one-shot sharded heatmap:
//!   serve on an ephemeral local port, spawn N worker processes (this
//!   same binary in `fabric work` mode), print the usual heatmap output
//!   plus the fabric ledger. Byte-identical CSV to `cochar heatmap` with
//!   the same flags, by construction.
//! * `cochar fabric serve <apps...> --bind ADDR` — the coordinator half
//!   alone, for remote workers (plus optional local ones via `--workers`).
//! * `cochar fabric work --connect ADDR` — the worker half alone; runs
//!   until the coordinator dismisses it.
//!
//! Exit codes match `heatmap`: 0 clean, 2 failed cells, 3 store degraded
//! (wins over 2). Workers exit 0 when dismissed, 1 on error.

use std::process::ExitCode;
use std::time::Duration;

use cochar_colocation::{Study, SweepPolicy};
use cochar_fabric::{
    run_campaign, run_worker, CampaignSpec, FabricConfig, FabricOutcome, WirePlan,
    WorkerChaos, WorkerCmd, WorkerConfig,
};

use crate::commands::exit_code;
use crate::commands::heatmap::print_sweep;
use crate::opts::Opts;

/// Dispatches `sweep` and the `fabric` subcommands.
pub fn run(opts: &Opts) -> Result<ExitCode, String> {
    match opts.command.as_str() {
        "sweep" => {
            let workers = match opts.flag("workers") {
                Some(v) => v.parse().map_err(|_| format!("invalid --workers value {v:?}"))?,
                None => std::thread::available_parallelism().map_or(2, |n| n.get()),
            };
            if workers == 0 {
                return Err("--workers must be positive for `sweep` (use `fabric serve` \
                            to wait for remote workers)"
                    .into());
            }
            coordinate(opts, workers, "127.0.0.1:0")
        }
        "fabric" => match opts.pos(0, "fabric subcommand (serve|work)")? {
            "serve" => {
                let workers = opts.flag_parse("workers", 0usize)?;
                let bind = opts.flag("bind").unwrap_or("127.0.0.1:0").to_string();
                coordinate(opts, workers, &bind)
            }
            "work" => work(opts),
            other => Err(format!("unknown fabric subcommand {other:?} (serve|work)")),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

/// The coordinator: `sweep` and `fabric serve` differ only in worker
/// count, bind address, and where the app list starts.
fn coordinate(opts: &Opts, workers: usize, bind: &str) -> Result<ExitCode, String> {
    // `sweep <apps...>` vs `fabric serve <apps...>`: skip the subcommand.
    let skip = usize::from(opts.command == "fabric");
    let names: Vec<String> = opts.positional.iter().skip(skip).cloned().collect();
    if names.len() < 2 {
        return Err("need at least two applications".into());
    }
    if opts.switch("keep-going") && opts.switch("fail-fast") {
        return Err("--keep-going and --fail-fast are mutually exclusive".into());
    }
    let study = crate::build_study(opts, 1.0)?;
    let spec = CampaignSpec {
        machine: opts.flag("machine").unwrap_or("bench").to_string(),
        work: opts.flag_parse("work", 1.0f64)?,
        threads: study.threads(),
        trials: opts.flag_parse("trials", 1u32)?,
        seed: opts.flag_parse("seed", 1u64)?,
        msr: study.msr().raw(),
        names,
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    // A chaos cell must travel the wire to the workers, not be resolved
    // from the coordinator's cache — fault-injection runs disable the
    // cached-cell fast path so every cell is exercised end to end.
    let chaos_armed = std::env::var_os("COCHAR_CHAOS_CELL").is_some()
        || std::env::var_os("COCHAR_CHAOS_WORKER").is_some();
    let (tx, rx) = std::sync::mpsc::channel();
    let cfg = FabricConfig {
        workers,
        bind: bind.to_string(),
        lease_cells: opts.flag_parse("lease-cells", 1usize)?,
        lease_timeout: Duration::from_millis(opts.flag_parse("lease-timeout-ms", 30_000u64)?),
        policy: SweepPolicy {
            max_retries: opts.flag_parse("max-retries", 0u32)?,
            keep_going: !opts.switch("fail-fast"),
        },
        worker_cmd: Some(WorkerCmd {
            exe,
            args: vec!["fabric".into(), "work".into()],
        }),
        resolve_cached: !chaos_armed,
        resume: opts.switch("resume"),
        on_bound: Some(tx),
        ..FabricConfig::default()
    };
    // The bound address goes to stderr as soon as the listener is up —
    // that is how remote workers (and tests) learn an ephemeral port.
    let announce = std::thread::spawn(move || {
        if let Ok(addr) = rx.recv() {
            eprintln!("fabric: listening on {addr}");
        }
    });

    let total = spec.names.len() * spec.names.len();
    let step = (total / 10).max(1);
    let outcome = run_campaign(&study, &spec, &cfg, |completed, total| {
        if completed % step == 0 || completed == total {
            eprintln!("sweep: {completed}/{total} cells");
        }
    });
    // A fully-cached campaign never binds a listener: drop our half of
    // the on_bound channel so the announce thread sees the end either way.
    drop(cfg);
    let _ = announce.join();
    report(opts, &study, &spec, &outcome?)
}

/// Prints the heatmap block (identical to `cochar heatmap`) plus the
/// fabric ledger, and maps the outcome to an exit code.
fn report(
    opts: &Opts,
    study: &Study,
    spec: &CampaignSpec,
    outcome: &FabricOutcome,
) -> Result<ExitCode, String> {
    print_sweep(opts, study, &outcome.heatmap, &outcome.failures)?;

    let l = &outcome.ledger;
    let cells = spec.names.len() * spec.names.len();
    let pair_secs = outcome.pair_wall.as_secs_f64();
    if let Some(prior) = &outcome.resumed {
        println!(
            "fabric: resumed after {} prior run(s) ({} lease(s) issued before this run)",
            prior.runs, prior.ledger.leases_issued
        );
    }
    println!(
        "fabric: workers {}, deaths {}, respawns {}, reconnects {}",
        l.workers, l.worker_deaths, l.respawns, l.reconnects
    );
    println!(
        "fabric: leases issued {}, re-issued {}, cell retries {}, cells cached {}",
        l.leases_issued, l.leases_reissued, l.cell_retries, l.cells_cached
    );
    println!(
        "fabric: records merged {}, duplicates {}, results dismissed {}, wire faults {}",
        l.records_merged, l.records_duplicate, l.results_duplicate, l.wire_faults
    );
    println!(
        "fabric: solo phase {:.2}s, pair phase {:.2}s ({:.2} cells/s)",
        outcome.solo_wall.as_secs_f64(),
        pair_secs,
        if pair_secs > 0.0 { cells as f64 / pair_secs } else { 0.0 }
    );
    if let Some(store) = study.store() {
        println!("store: {} resident in {}", store.len(), store.dir().display());
    }

    Ok(exit_code(outcome.store_degraded, outcome.failures.len()))
}

/// The worker half: connect, work until dismissed, report to stderr.
fn work(opts: &Opts) -> Result<ExitCode, String> {
    let connect = opts
        .flag("connect")
        .ok_or("fabric work needs --connect HOST:PORT")?
        .to_string();
    let mut cfg = WorkerConfig::new(connect);
    if let Some(dir) = opts.flag("worker-store") {
        cfg.store_dir = Some(dir.into());
    }
    if let Some(label) = opts.flag("label") {
        cfg.label = label.to_string();
    }
    if let Some(cpu) = opts.flag("pin-cpu") {
        cfg.pin_cpu = Some(cpu.parse().map_err(|_| format!("invalid --pin-cpu {cpu:?}"))?);
    }
    if let Ok(cell) = std::env::var("COCHAR_CHAOS_CELL") {
        cfg.chaos_cell = Some(parse_chaos_cell(&cell)?);
        eprintln!("chaos: worker {} armed cell {cell}", cfg.label);
    }
    if let Ok(spec) = std::env::var("COCHAR_CHAOS_WORKER") {
        cfg.chaos_worker = Some(WorkerChaos::parse(&spec).map_err(|e| {
            format!("COCHAR_CHAOS_WORKER: {e}")
        })?);
        eprintln!("chaos: worker {} armed {spec}", cfg.label);
    }
    if let Ok(spec) = std::env::var("COCHAR_CHAOS_WIRE") {
        cfg.chaos_wire =
            Some(WirePlan::parse(&spec).map_err(|e| format!("COCHAR_CHAOS_WIRE: {e}"))?);
        eprintln!("chaos: worker {} armed wire plan {spec}", cfg.label);
    }
    if let Some(ms) = opts.flag("connect-retry-ms") {
        let ms: u64 =
            ms.parse().map_err(|_| format!("invalid --connect-retry-ms {ms:?}"))?;
        cfg.connect_retry = Duration::from_millis(ms);
    }
    cfg.max_reconnects = opts.flag_parse("max-reconnects", cfg.max_reconnects)?;
    let summary = run_worker(&cfg)?;
    eprintln!(
        "fabric: worker {} done ({} lease(s), {} cell(s), {} panic(s), {} reconnect(s))",
        cfg.label, summary.leases, summary.cells, summary.panics, summary.reconnects
    );
    Ok(ExitCode::SUCCESS)
}

/// Same grammar as the coordinator's `COCHAR_CHAOS_CELL`: `fg/bg[@N]`.
fn parse_chaos_cell(spec: &str) -> Result<(String, String, u32), String> {
    let (pair, succeed_from) = match spec.split_once('@') {
        Some((pair, n)) => {
            let n: u32 = n
                .parse()
                .map_err(|_| format!("COCHAR_CHAOS_CELL: bad attempt threshold {n:?}"))?;
            (pair, n)
        }
        None => (spec, u32::MAX),
    };
    let (fg, bg) = pair
        .split_once('/')
        .ok_or_else(|| format!("COCHAR_CHAOS_CELL: expected fg/bg[@N], got {spec:?}"))?;
    Ok((fg.to_string(), bg.to_string(), succeed_from))
}
