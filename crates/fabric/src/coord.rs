//! The campaign coordinator: a thin TCP driver around the lease machine.
//!
//! Every campaign decision is made by the pure [`crate::lease`] machine,
//! which schedules the campaign's row-major pair cells with the same
//! [`cochar_colocation::CellBook`] that runs a single-process `heatmap`.
//! Workers are stateless cell evaluators that never retry on their own,
//! so no cell runs more than `max_retries + 1` attempts campaign-wide.
//! The driver turns sockets and time into events and carries out the
//! machine's actions:
//!
//! | event | what the machine does |
//! |---|---|
//! | `claim` | answer a foreign fingerprint with `done`; fold the worker's fault count (a high-water mark per worker id); count a first claim as a worker or a reconnect; reply `lease`, `wait` (nothing to lease yet), or `done` |
//! | `result` | drop the connection if the cell is outside the campaign; end the lease that named it; settle it in the book (a stale or repeated attempt is a duplicate); reply `ack` |
//! | `heartbeat` | push the lease's deadline `lease_timeout` past now |
//! | `disconnect` | log the fault that ended the connection; release its leases |
//! | `merged` | count the records merged; log refused records and the first store error |
//! | `tick` | release overdue leases; abort when no worker was active for `stall_timeout` |
//!
//! | action | what the driver does |
//! |---|---|
//! | reply | writes `lease`/`wait`/`done`/`ack` to the event's connection (`done` ends it); a `wait` only once the claim was held a whole tick (below) |
//! | drop | closes the event's connection with its fault |
//! | progress | ticks `on_cell(settled, total)` |
//! | abort | ends the campaign with the stall error, naming the last worker fault |
//!
//! A lease names one cell. A released lease hands its claim back to the
//! book at the same attempt if the claim is still live; a cell whose
//! lease is lost more than five times fails with a delivery error
//! instead of cycling forever.
//!
//! The driver is an accept loop, one thread per connection — which
//! writes `hello`, turns frames into events, merges a result's journal
//! records before the result settles (a progress tick marks durable
//! progress), and writes its own replies, so a worker that stops reading
//! a megabyte `hello` blocks no one else — and the main thread, which
//! spawns and respawns local workers and sends `tick` every 100 ms. They
//! share one `Mutex` around the machine and one condvar, signalled after
//! every `result`, `disconnect` and `tick`: the steps that can release a
//! cell, retry one, or settle the last.
//!
//! A claim the machine answers `wait` is held, not answered: its
//! connection thread waits on the condvar and re-applies the claim after
//! each of those steps, so the worker hears `lease` or `done` the moment
//! one exists. Only a claim held a whole tick is answered `wait`, and the
//! worker then claims again at once. The main thread's wait resumes after
//! those wake-ups until its tick is due, so ticks stay 100 ms apart.
//!
//! Teardown reaps each local worker as it exits (its stdout pipe closes),
//! kills any still running after 5 s, and merges their journal files,
//! caching whatever a killed worker computed but never reported; merges
//! are dedup by run fingerprint, so nothing is ever double-merged.
//!
//! A store-backed campaign is recoverable: it writes `campaign.json`
//! before issuing any cell and appends its ledger to
//! `fabric.ledger.jsonl` on completion (see [`crate::recover`]), so a
//! SIGKILLed coordinator can be rerun with [`FabricConfig::resume`],
//! which re-adopts every cell whose runs already landed in the journal.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use cochar_colocation::{CellFailure, CellStatus, Heatmap, Study, SweepPolicy};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::RunStore;

use crate::lease::{Action, Conn, Event, Machine};
use crate::recover::{self, ResumePrior};
use crate::wire::{write_frame, Frame, FrameReader, Msg, WireError};
use crate::CampaignSpec;

/// How often the main thread sends `tick`.
const TICK: Duration = Duration::from_millis(100);

/// How a local worker process is launched: the executable plus the
/// arguments that put it in worker mode (the CLI passes its own binary
/// and `["fabric", "work"]`). The coordinator appends `--connect ADDR`,
/// `--worker-store DIR`, `--label wN`, and `--pin-cpu N`.
#[derive(Clone, Debug)]
pub struct WorkerCmd {
    /// Executable to spawn.
    pub exe: PathBuf,
    /// Leading arguments selecting worker mode.
    pub args: Vec<String>,
}

/// Coordinator knobs.
#[derive(Clone)]
pub struct FabricConfig {
    /// Local worker processes to spawn (0 = remote workers only).
    pub workers: usize,
    /// Listen address (`127.0.0.1:0` for an ephemeral local port).
    pub bind: String,
    /// Lease lifetime; heartbeats extend it.
    pub lease_timeout: Duration,
    /// Retry policy for panicking cells (same semantics as the
    /// single-process supervisor).
    pub policy: SweepPolicy,
    /// How to launch local workers (required when `workers > 0`).
    pub worker_cmd: Option<WorkerCmd>,
    /// Resolve cells whose runs are already in the store locally (cache
    /// replay, no lease). Disabled by the CLI when a chaos cell is armed
    /// so fault-injection tests always exercise the wire path.
    pub resolve_cached: bool,
    /// Abort the campaign when no worker claims, results, or heartbeats
    /// for this long (dead fabric watchdog).
    pub stall_timeout: Duration,
    /// Resume a store-backed campaign after a coordinator crash: verify
    /// `campaign.json` matches these flags (refuse on mismatch), adopt
    /// cached cells, and report the prior runs' ledgers. Without a store
    /// this is a no-op.
    pub resume: bool,
    /// Receives the actual listen address once bound — how remote-worker
    /// tests (and a `--bind 127.0.0.1:0` serve) learn the ephemeral port.
    pub on_bound: Option<std::sync::mpsc::Sender<String>>,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            workers: 0,
            bind: "127.0.0.1:0".into(),
            lease_timeout: Duration::from_secs(30),
            policy: SweepPolicy::default(),
            worker_cmd: None,
            resolve_cached: true,
            stall_timeout: Duration::from_secs(300),
            resume: false,
            on_bound: None,
        }
    }
}

/// Campaign accounting, printed as the fabric ledger.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FabricLedger {
    /// Distinct worker connections that claimed work.
    pub workers: u64,
    /// Connections lost while holding a lease.
    pub worker_deaths: u64,
    /// Replacement local workers spawned after a death.
    pub respawns: u64,
    /// Workers that reconnected to the campaign after losing their
    /// connection (claims with `session > 0`).
    pub reconnects: u64,
    /// Leases handed out.
    pub leases_issued: u64,
    /// Leases lost (death or deadline) whose cells were re-queued.
    pub leases_reissued: u64,
    /// Panicking cells re-queued with a new attempt number.
    pub cell_retries: u64,
    /// Cells answered from the coordinator's store without a lease.
    pub cells_cached: u64,
    /// Journal records merged into the canonical store (wire + files).
    pub records_merged: u64,
    /// Records that were already resident (dedup hits).
    pub records_duplicate: u64,
    /// Result frames dismissed because their cell was already settled —
    /// resent after a reconnect, duplicated on the wire, or landed after
    /// the lease was re-issued. Dismissed, never double-merged.
    pub results_duplicate: u64,
    /// Wire protocol errors observed (coordinator-side frame corruption
    /// plus worker-reported counts riding in on claims).
    pub wire_faults: u64,
}

/// What a finished campaign hands back.
pub struct FabricOutcome {
    /// The assembled heatmap (failed cells are NaN holes).
    pub heatmap: Heatmap,
    /// Final per-cell failures, in row-major cell order.
    pub failures: Vec<CellFailure>,
    /// The campaign ledger.
    pub ledger: FabricLedger,
    /// Wall-clock of the lease-dispatch phase (pair cells only).
    pub pair_wall: Duration,
    /// Wall-clock of the sequential solo pre-seeding phase.
    pub solo_wall: Duration,
    /// The store could not persist everything (mirrors CLI exit code 3).
    pub store_degraded: bool,
    /// Set when [`FabricConfig::resume`] found a ledger log: the prior
    /// runs' accounting (this run's own ledger is `ledger`).
    pub resumed: Option<ResumePrior>,
}

/// The pair-cell progress callback, `on_cell(settled, total)`.
type OnCell<'a> = &'a (dyn Fn(usize, usize) + Sync);

/// What every driver thread shares: the machine, and the clock it runs on.
struct Driver<'a> {
    machine: Mutex<Machine>,
    /// Signalled after every step that can change a claim's answer: held
    /// claims re-apply, and the main thread checks for the campaign's end.
    wake: Condvar,
    /// How long a claim is held before it is answered `wait` ([`TICK`]).
    hold: Duration,
    /// Time zero of the machine's clock.
    epoch: Instant,
    on_cell: OnCell<'a>,
    store: &'a RunStore,
}

impl Driver<'_> {
    fn lock(&self) -> MutexGuard<'_, Machine> {
        self.machine.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Applies one event under the caller's lock and ticks its progress
    /// (so ticks stay in order); returns the actions left for the caller.
    fn apply(&self, machine: &mut Machine, event: Event) -> Vec<Action> {
        // A release, a retry or the last settle can turn a held claim's
        // `wait` into `lease` or `done`; only these events make them.
        let wakes = matches!(event, Event::Result { .. } | Event::Disconnect { .. } | Event::Tick);
        let mut actions = machine.on(event, self.epoch.elapsed());
        actions.retain(|action| match *action {
            Action::Progress { settled, total } => {
                (self.on_cell)(settled, total);
                false
            }
            _ => true,
        });
        if wakes {
            self.wake.notify_all();
        }
        actions
    }

    /// Applies one event under the lock.
    fn step(&self, event: Event) -> Vec<Action> {
        self.apply(&mut self.lock(), event)
    }

    /// Applies a claim and holds it while the machine answers `wait`,
    /// re-applying it on every wake, so the worker hears `lease` or `done`
    /// the moment one exists. A claim held for all of `hold` is answered
    /// `wait`, and the worker claims again.
    fn claim(&self, claim: Event) -> Vec<Action> {
        let mut actions = Vec::new();
        let held = self.wake.wait_timeout_while(self.lock(), self.hold, |machine| {
            actions = self.apply(machine, claim.clone());
            actions == [Action::Reply(Msg::Wait)]
        });
        drop(held.unwrap_or_else(PoisonError::into_inner));
        actions
    }

    /// One worker connection, on its own thread: `hello`, then frames in
    /// and replies out until it ends, then its `disconnect`.
    fn serve_conn(&self, conn: Conn, stream: TcpStream, hello: &[u8]) {
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
        let Ok(mut writer) = stream.try_clone() else { return };
        let cause = match writer.write_all(hello) {
            Ok(()) => self.converse(conn, FrameReader::new(stream), &mut writer),
            Err(_) => None,
        };
        self.step(Event::Disconnect { conn, cause });
    }

    /// Reads frames until the connection ends; returns the read error
    /// that ended it, if any.
    fn converse(
        &self,
        conn: Conn,
        mut reader: FrameReader<TcpStream>,
        writer: &mut TcpStream,
    ) -> Option<WireError> {
        loop {
            let msg = match reader.next_frame() {
                Ok(Frame::Msg(msg)) => msg,
                Ok(Frame::Idle) if !self.lock().done() => continue,
                Ok(Frame::Idle | Frame::Eof) => return None,
                Err(e) => return Some(e),
            };
            let actions = match msg {
                Msg::Claim { fp, worker, id, session, faults } => {
                    self.claim(Event::Claim { conn, fp, worker, id, session, faults })
                }
                Msg::Heartbeat { lease } => self.step(Event::Heartbeat { lease }),
                Msg::Result { lease, cell, outcome, records } => {
                    // Records land before the cell settles, so a progress
                    // tick marks durable progress; a result outside the
                    // campaign merges nothing.
                    if self.lock().index_of(cell).is_some() {
                        self.step(merge(self.store, &records));
                    }
                    self.step(Event::Result { lease, cell, outcome })
                }
                other => {
                    return Some(WireError::Protocol(format!(
                        "unexpected message from a worker: {other:?}"
                    )))
                }
            };
            for action in actions {
                match action {
                    Action::Reply(msg) => {
                        if write_frame(writer, &msg).is_err() || msg == Msg::Done {
                            return None;
                        }
                    }
                    Action::Drop { .. } => return None,
                    Action::Progress { .. } | Action::Abort(_) => {}
                }
            }
        }
    }
}

/// Verifies the journal lines riding on a result and merges them into
/// the store.
fn merge(store: &RunStore, records: &[String]) -> Event {
    let mut parsed = Vec::with_capacity(records.len());
    let mut rejected = Vec::new();
    for line in records {
        match parse_record(line) {
            Ok((key, outcome)) => parsed.push((key, Arc::new(outcome))),
            Err(e) => rejected.push(e.to_string()),
        }
    }
    match store.merge_records(parsed) {
        Ok(r) => Event::Merged { added: r.added, duplicates: r.duplicates, rejected, error: None },
        Err(e) => Event::Merged { added: 0, duplicates: 0, rejected, error: Some(e.to_string()) },
    }
}

/// Runs one sharded campaign to completion.
///
/// `study` supplies the store (a scratch store is created when it has
/// none), the solo pre-seed runs, and cached-cell resolution; it must
/// describe the same measurement protocol as `spec` — the CLI builds both
/// from the same flags. `on_cell(settled, total)` ticks as pair cells
/// settle.
pub fn run_campaign(
    study: &Study,
    spec: &CampaignSpec,
    cfg: &FabricConfig,
    on_cell: impl Fn(usize, usize) + Sync,
) -> Result<FabricOutcome, String> {
    if spec.names.len() < 2 {
        return Err("a campaign needs at least two applications".into());
    }
    for n in &spec.names {
        if study.registry().get(n.as_str()).is_none() {
            return Err(format!("unknown application {n:?}; try `cochar list`"));
        }
    }
    if cfg.workers > 0 && cfg.worker_cmd.is_none() {
        return Err("local workers requested but no worker command configured".into());
    }

    // The canonical store: the study's own, or a scratch store that only
    // lives for this campaign (workers still need somewhere to merge).
    let (store, scratch_store) = match study.store() {
        Some(s) => (s.clone(), None),
        None => {
            let dir = crate::scratch_dir("store");
            let s = RunStore::open(&dir).map_err(|e| e.to_string())?;
            (s, Some(dir))
        }
    };
    // Scratch space goes on every exit path, an aborted campaign's too.
    let mut worker_dirs = Vec::new();
    let persistent = scratch_store.is_none();
    let outcome = campaign(study, spec, cfg, &on_cell, store, persistent, &mut worker_dirs);
    for dir in worker_dirs.iter().chain(&scratch_store) {
        let _ = std::fs::remove_dir_all(dir);
    }
    outcome
}

/// [`run_campaign`] once its arguments are checked and its canonical
/// `store` is open; `persistent` when that store outlives the campaign.
/// Local worker stores are added to `worker_dirs` for the caller to
/// remove.
fn campaign(
    study: &Study,
    spec: &CampaignSpec,
    cfg: &FabricConfig,
    on_cell: OnCell<'_>,
    store: RunStore,
    persistent: bool,
    worker_dirs: &mut Vec<PathBuf>,
) -> Result<FabricOutcome, String> {
    // A store-less study cannot journal its solos; run the campaign
    // through a store-backed twin so solo pre-seeding lands in `store`.
    let seeded_study;
    let study: &Study = if study.store().is_some() {
        study
    } else {
        seeded_study = spec.build_study(Some(store.clone()))?;
        &seeded_study
    };

    // --- Phase 0: durable campaign metadata (crash recovery). Only a
    // store-backed campaign is resumable — a scratch store dies with the
    // process, so there is nothing to journal toward.
    let mut resumed: Option<ResumePrior> = None;
    if persistent {
        let dir = store.dir().to_path_buf();
        let recorded = recover::load_campaign(&dir).unwrap_or_else(|e| {
            eprintln!("warning: {e}; ignoring recorded campaign metadata");
            None
        });
        let here = spec.fingerprint();
        match recorded {
            Some((fp, recorded_spec)) => {
                // The recorded spec must re-fingerprint to its recorded
                // value (else the schema changed underneath the store)
                // AND match the flags on this command line.
                let matches = fp == here && recorded_spec.fingerprint() == here;
                if !matches && cfg.resume {
                    return Err(format!(
                        "--resume refused: store {} was journaled by campaign {fp:016x}, \
                         but these flags describe campaign {here:016x}; rerun without \
                         --resume to repurpose the store",
                        dir.display()
                    ));
                }
            }
            None if cfg.resume => {
                eprintln!(
                    "fabric: no {} in {}; resuming on cache contents alone",
                    recover::CAMPAIGN_FILE,
                    dir.display()
                );
            }
            None => {}
        }
        if let Err(e) = recover::save_campaign(&dir, spec) {
            eprintln!("warning: {e}; this campaign will not be resumable");
        }
        if cfg.resume {
            resumed = Some(recover::load_ledger_log(&dir));
        }
    }

    // --- Phase 1: solo pre-seeding (sequential, excluded from pair timing).
    // Every pair cell divides by its foreground's solo time; computing the
    // solos once here and shipping the records in `hello` means workers
    // answer them from cache instead of each re-simulating all N.
    let solo_start = Instant::now();
    for name in &spec.names {
        let _ =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| study.solo(name.as_str())));
    }
    let solo_wall = solo_start.elapsed();
    let mut solo_lines = Vec::new();
    for name in &spec.names {
        for key in study.solo_keys(name.as_str()) {
            if let Some(outcome) = store.get(key) {
                solo_lines.push(render_record(key, &outcome));
            }
        }
    }

    // --- Phase 2: open the lease machine, settling cached cells locally.
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let n = names.len();
    let mut machine = Machine::new(n, spec.fingerprint(), cfg);
    let pair_start = Instant::now();
    if cfg.resolve_cached {
        for (idx, &(i, j)) in Heatmap::pair_cells(n).iter().enumerate() {
            let keys = study.pair_keys(names[i], names[j], 0);
            if keys.is_empty() || !keys.iter().all(|&k| store.contains(k)) {
                continue;
            }
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                study.pair_attempt(names[i], names[j], 0)
            }));
            if let Ok(pair) = got {
                machine.adopt(idx, (pair.fg_slowdown, CellStatus::of(&pair)));
            }
        }
    }
    let cached = machine.ledger().cells_cached as usize;
    if cached > 0 {
        on_cell(cached, n * n);
    }

    // --- Phase 3: serve the uncached cells.
    let driver = Driver {
        machine: Mutex::new(machine),
        wake: Condvar::new(),
        hold: TICK,
        epoch: Instant::now(),
        on_cell,
        store: &store,
    };
    let mut respawns = 0;
    if !driver.lock().done() {
        // Rendered once: every connection is greeted with the same bytes.
        let hello = Msg::Hello {
            fp: spec.fingerprint(),
            lease_ms: cfg.lease_timeout.as_millis() as u64,
            campaign: spec.clone(),
            solo: solo_lines,
        };
        let mut frame = Vec::new();
        write_frame(&mut frame, &hello).map_err(|e| e.to_string())?;
        respawns = serve(&driver, cfg, &frame, worker_dirs)?;
    }
    let pair_wall = pair_start.elapsed();

    // --- Phase 4: merge local worker journals (catches anything a killed
    // worker computed but never reported).
    let machine = driver.machine.into_inner().unwrap_or_else(PoisonError::into_inner);
    let merge_failed = machine.store_failed();
    let mut ledger = *machine.ledger();
    let results = machine.results(|idx| format!("{}/{}", names[idx / n], names[idx % n]));
    ledger.respawns = respawns;
    for dir in worker_dirs.iter() {
        // A worker that never journaled anything merges as empty.
        let path = dir.join(cochar_store::journal::JOURNAL_FILE);
        match store.merge_journal(&path) {
            Ok((report, _)) => {
                ledger.records_merged += report.added;
                ledger.records_duplicate += report.duplicates;
            }
            Err(e) => eprintln!("warning: merging {} failed: {e}", path.display()),
        }
    }

    let (heatmap, failures) = Heatmap::from_cells(spec.names.clone(), results);
    let store_degraded = study.store_degraded() || merge_failed;
    if persistent {
        // Journal this run's ledger for whoever resumes or audits the
        // campaign next. The run index is informational only.
        let dir = store.dir().to_path_buf();
        let run = recover::load_ledger_log(&dir).runs + 1;
        if let Err(e) = recover::append_ledger(&dir, run, &ledger) {
            eprintln!("warning: {e}");
        }
    }
    Ok(FabricOutcome { heatmap, failures, ledger, pair_wall, solo_wall, store_degraded, resumed })
}

/// Phase 3: runs the listener and the local workers until the campaign
/// is done; returns how many local workers were respawned.
fn serve(
    driver: &Driver<'_>,
    cfg: &FabricConfig,
    hello: &[u8],
    worker_dirs: &mut Vec<PathBuf>,
) -> Result<u64, String> {
    let listener = TcpListener::bind(&cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    if let Some(tx) = &cfg.on_bound {
        let _ = tx.send(addr.clone());
    }

    std::thread::scope(|scope| -> Result<u64, String> {
        // Accept loop: one thread per connection, all inside this scope
        // so they are joined before serve() returns.
        scope.spawn(|| {
            for conn in 1.. {
                let Ok((stream, _)) = listener.accept() else { break };
                if driver.lock().done() {
                    // The teardown poke, or a worker arriving too late.
                    break;
                }
                scope.spawn(move || driver.serve_conn(conn, stream, hello));
            }
        });

        // Local worker `k`: its process and its private store. A thread
        // drains the worker's stdout and reports on `exits` when it ends:
        // the pipe closes when the process exits, so teardown hears of
        // each exit at once.
        let (exited, exits) = mpsc::channel();
        let spawn_worker = |k: usize| -> Result<(std::process::Child, PathBuf), String> {
            let cmd = cfg.worker_cmd.as_ref().expect("checked in run_campaign");
            let dir = crate::scratch_dir(&format!("worker{k}"));
            let (label, cpu) = (format!("w{k}"), k.to_string());
            let mut child = std::process::Command::new(&cmd.exe)
                .args(&cmd.args)
                .args(["--connect", addr.as_str(), "--worker-store"])
                .arg(&dir)
                .args(["--label", label.as_str(), "--pin-cpu", &cpu])
                .stdout(std::process::Stdio::piped())
                .stderr(std::process::Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning worker {}: {e}", cmd.exe.display()))?;
            let mut stdout = child.stdout.take().expect("stdout is piped");
            let exited = exited.clone();
            scope.spawn(move || {
                let _ = std::io::copy(&mut stdout, &mut std::io::sink());
                let _ = exited.send(());
            });
            Ok((child, dir))
        };
        let mut children = Vec::new();
        for k in 0..cfg.workers {
            let (child, dir) = spawn_worker(k)?;
            children.push(child);
            worker_dirs.push(dir);
        }

        // Tick until the campaign is done, respawning dead local workers
        // (budget: one replacement per original slot).
        let mut respawns = 0;
        let abort = loop {
            // Wakes for held claims do not tick: the wait resumes until
            // the tick is due or the campaign is done.
            let (machine, _) = driver
                .wake
                .wait_timeout_while(driver.lock(), TICK, |machine| !machine.done())
                .unwrap_or_else(PoisonError::into_inner);
            if machine.done() {
                break None;
            }
            drop(machine);
            // Progress is ticked inside `step`, so an abort is all a tick returns.
            if let Some(Action::Abort(msg)) = driver.step(Event::Tick).pop() {
                break Some(msg);
            }
            // Exited children stay in `children`, so any excess of deaths
            // over respawns means a slot is empty. Top it up one child per
            // tick while budget remains.
            let dead = children.iter_mut().filter_map(|c| c.try_wait().ok().flatten()).count();
            if dead as u64 > respawns && respawns < cfg.workers as u64 && !driver.lock().done() {
                let (child, dir) = spawn_worker(children.len())?;
                children.push(child);
                worker_dirs.push(dir);
                respawns += 1;
            }
        };

        // Poke the accept loop so it observes `done`.
        let _ = TcpStream::connect(&addr);

        // Give local workers a moment to claim, hear `done`, and exit;
        // then kill whatever is left (hung chaos workers, stuck leases).
        let grace = Instant::now() + Duration::from_secs(5);
        let all_exited = children
            .iter()
            .all(|_| exits.recv_timeout(grace.saturating_duration_since(Instant::now())).is_ok());
        for child in children.iter_mut() {
            if !all_exited && !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        match abort {
            Some(msg) => Err(msg),
            None => Ok(respawns),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lease::Conn;
    use crate::wire::{CellOutcome, WireCell};

    const FP: u64 = 0xf00d;

    fn no_progress(_: usize, _: usize) {}

    /// Runs `test` on the driver of a one-cell campaign that holds claims
    /// for a minute, so only a wake-up can answer a held claim in time.
    fn with_driver(test: impl FnOnce(&Driver<'_>)) {
        let dir = crate::scratch_dir("driver-test");
        let store = RunStore::open(&dir).expect("a scratch store opens");
        let driver = Driver {
            machine: Mutex::new(Machine::new(1, FP, &FabricConfig::default())),
            wake: Condvar::new(),
            hold: Duration::from_secs(60),
            epoch: Instant::now(),
            on_cell: &no_progress,
            store: &store,
        };
        test(&driver);
        drop(driver);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn claim(conn: Conn) -> Event {
        Event::Claim { conn, fp: FP, worker: format!("w{conn}"), id: conn, session: 0, faults: 0 }
    }

    /// Connection 1 claims and is leased the campaign's one cell.
    fn lease_the_cell(driver: &Driver<'_>) -> (u64, WireCell) {
        match driver.claim(claim(1)).as_slice() {
            [Action::Reply(Msg::Lease { id, cell, .. })] => (*id, *cell),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    /// Connection 2 claims on its own thread; once the driver holds that
    /// claim, `then` runs on this one. Returns the claim's answer.
    fn answer_to_held_claim(driver: &Driver<'_>, then: impl FnOnce()) -> Vec<Action> {
        std::thread::scope(|scope| {
            let held = scope.spawn(|| driver.claim(claim(2)));
            // Its claim counted the second worker, and after that the
            // claiming thread gives up the lock only to wait for a wake.
            while driver.lock().ledger().workers < 2 {
                std::thread::yield_now();
            }
            then();
            held.join().expect("the claiming thread returns")
        })
    }

    #[test]
    fn a_held_claim_is_leased_the_cell_a_disconnect_releases() {
        with_driver(|driver| {
            let (_, cell) = lease_the_cell(driver);
            let answer = answer_to_held_claim(driver, || {
                driver.step(Event::Disconnect { conn: 1, cause: None });
            });
            match answer.as_slice() {
                [Action::Reply(Msg::Lease { id: 2, cell: reissued, .. })] => {
                    assert_eq!(*reissued, WireCell { issue: 1, ..cell })
                }
                other => panic!("expected the released cell's lease, got {other:?}"),
            }
        });
    }

    #[test]
    fn a_held_claim_is_dismissed_by_the_last_settle() {
        with_driver(|driver| {
            let (lease, cell) = lease_the_cell(driver);
            let answer = answer_to_held_claim(driver, || {
                let outcome = CellOutcome::Value { value: 1.5, status: CellStatus::Ok };
                let acked = driver.step(Event::Result { lease, cell, outcome });
                assert_eq!(acked, vec![Action::Reply(Msg::Ack)]);
            });
            assert_eq!(answer, vec![Action::Reply(Msg::Done)]);
        });
    }
}
