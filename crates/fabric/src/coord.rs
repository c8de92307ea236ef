//! The campaign coordinator: the networked transport over the shared
//! cell scheduler.
//!
//! One coordinator owns one campaign: the row-major list of heatmap pair
//! cells over the campaign's names, scheduled by the same
//! [`CellBook`] that runs a single-process `heatmap`. The book decides
//! every retry, final [`cochar_colocation::CellFailure`], and fail-fast
//! skip; this module only moves its claims over TCP. Claims are handed
//! to workers in *leases* (small batches with a deadline), results stream
//! back one cell at a time and are settled into the book, and the
//! coordinator is the only writer of campaign state — workers are
//! stateless cell evaluators that never retry on their own, so no cell
//! ever simulates more than `max_retries + 1` attempts campaign-wide.
//!
//! What belongs to the transport alone is delivery: a *worker* that dies
//! (socket EOF) or goes silent (lease deadline passes without a
//! heartbeat) has its outstanding claims released back to the book; a
//! cell whose lease is lost [`FabricConfig::max_issues`] times is failed
//! with a delivery error instead of cycling forever. A result naming a
//! cell outside the campaign is a wire fault that drops its connection.
//!
//! Results are merged into the canonical store twice over: journal lines
//! riding on each `result` frame are verified and merged as they arrive,
//! and local workers' journal files are merged again at teardown (caching
//! whatever a killed worker computed but never reported). Both merges are
//! pure dedup by run fingerprint.
//!
//! The coordinator itself is recoverable: a store-backed campaign writes
//! `campaign.json` before issuing any cell and appends its ledger to
//! `fabric.ledger.jsonl` on completion (see [`crate::recover`]), so a
//! SIGKILLed coordinator can be rerun with [`FabricConfig::resume`] — the
//! cached-cell resolution pass re-adopts every cell whose runs already
//! landed in the journal, and only the missing ones are re-issued.
//! Duplicate results (a reconnecting worker resending an unacked result,
//! or a chaos-duplicated frame) are dismissed by the book and counted in
//! [`FabricLedger::results_duplicate`]; the record merge underneath is
//! content-addressed dedup either way, so nothing is ever double-merged.

use std::collections::HashMap;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use cochar_colocation::{CellBook, CellFailure, CellStatus, Heatmap, Settled, Study, SweepPolicy};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::RunStore;

use crate::recover::{self, ResumePrior};
use crate::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell, WireError};
use crate::CampaignSpec;

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
    /// Cells per lease.
    pub lease_cells: usize,
    /// Lease lifetime; heartbeats extend it.
    pub lease_timeout: Duration,
    /// Retry policy for panicking cells (same semantics as the
    /// single-process supervisor).
    pub policy: SweepPolicy,
    /// Give up on a cell after losing this many leases for it.
    pub max_issues: u32,
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
            lease_cells: 1,
            lease_timeout: Duration::from_secs(30),
            policy: SweepPolicy::default(),
            max_issues: 5,
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

struct LeaseRec {
    conn: u64,
    deadline: Instant,
    /// The book's `(index, attempt)` claims this lease carries.
    cells: Vec<(usize, u32)>,
}

struct CoordState {
    book: CellBook<(f64, CellStatus)>,
    /// Leases lost so far, per cell (the `max_issues` budget).
    issues: Vec<u32>,
    leases: HashMap<u64, LeaseRec>,
    /// The stall watchdog gave up on the campaign.
    aborted: bool,
    next_lease: u64,
    ledger: FabricLedger,
    last_activity: Instant,
}

impl CoordState {
    fn done(&self) -> bool {
        self.aborted || self.book.is_done()
    }
}

/// The pair-cell progress callback, `on_cell(settled, total)`.
type OnCell<'a> = &'a (dyn Fn(usize, usize) + Sync);

struct Coord {
    state: Mutex<CoordState>,
    cv: Condvar,
    store: RunStore,
    spec: CampaignSpec,
    fp: u64,
    cfg: FabricConfig,
    next_conn: AtomicU64,
    merge_failed: Mutex<Option<String>>,
    /// High-water mark of each worker's self-reported wire fault count
    /// (by label), so re-claims fold only the delta into the ledger.
    fault_reports: Mutex<HashMap<String, u64>>,
    /// The last worker fault logged, named by the stall error.
    last_fault: Mutex<Option<String>>,
}

impl Coord {
    fn lock(&self) -> std::sync::MutexGuard<'_, CoordState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Logs a worker fault (wire fault, read error, worker death, or
    /// dropped record) and remembers it as the latest one.
    fn worker_fault(&self, fault: String) {
        eprintln!("fabric: {fault}");
        *self.last_fault.lock().unwrap_or_else(PoisonError::into_inner) = Some(fault);
    }

    /// The latest worker fault, for the stall error.
    fn describe_last_fault(&self) -> String {
        let last = self.last_fault.lock().unwrap_or_else(PoisonError::into_inner);
        last.clone().unwrap_or_else(|| "none seen".to_string())
    }

    /// Hands a lost lease's unsettled claims back to the book (worker
    /// death or deadline expiry), failing cells past the issue budget.
    fn requeue_lease(&self, st: &mut CoordState, lease: LeaseRec, on_cell: OnCell<'_>) {
        st.ledger.leases_reissued += 1;
        for (idx, attempt) in lease.cells {
            if st.book.is_settled(idx) {
                continue;
            }
            st.issues[idx] += 1;
            let issue = st.issues[idx];
            if issue > self.cfg.max_issues {
                let cause = format!("lease lost {issue} times without a result (workers dying?)");
                if let Settled::Final { done } = st.book.fail(idx, cause, attempt) {
                    on_cell(done, st.book.total());
                }
            } else {
                st.book.release(idx, attempt);
            }
        }
        self.after_settle(st);
    }

    fn after_settle(&self, st: &CoordState) {
        if st.done() {
            self.cv.notify_all();
        }
    }

    /// Carves the next lease out of the book's claims for `conn`, if
    /// any work is claimable.
    fn carve(&self, st: &mut CoordState, conn: u64) -> Option<(u64, Vec<WireCell>)> {
        let cells: Vec<(usize, u32)> =
            std::iter::from_fn(|| st.book.claim()).take(self.cfg.lease_cells.max(1)).collect();
        if cells.is_empty() {
            return None;
        }
        let n = self.spec.names.len();
        let wire: Vec<WireCell> = cells
            .iter()
            .map(|&(idx, attempt)| WireCell {
                fg: idx / n,
                bg: idx % n,
                attempt,
                issue: st.issues[idx],
            })
            .collect();
        let id = st.next_lease;
        st.next_lease += 1;
        st.leases.insert(
            id,
            LeaseRec { conn, deadline: Instant::now() + self.cfg.lease_timeout, cells },
        );
        st.ledger.leases_issued += 1;
        Some((id, wire))
    }

    /// Merges journal lines that rode in on a result frame.
    fn merge_wire_records(&self, records: &[String]) {
        let mut parsed = Vec::with_capacity(records.len());
        for line in records {
            match parse_record(line) {
                Ok((key, outcome)) => parsed.push((key, Arc::new(outcome))),
                Err(e) => self.worker_fault(format!("dropping unverifiable worker record: {e}")),
            }
        }
        match self.store.merge_records(parsed) {
            Ok(report) => {
                let mut st = self.lock();
                st.ledger.records_merged += report.added;
                st.ledger.records_duplicate += report.duplicates;
            }
            Err(e) => {
                let mut failed = self.merge_failed.lock().unwrap_or_else(|p| p.into_inner());
                if failed.is_none() {
                    eprintln!(
                        "warning: fabric could not persist worker records ({e}); \
                         results are unaffected, but this campaign will not be resumable"
                    );
                    *failed = Some(e.to_string());
                }
            }
        }
    }

    /// Settles one worker result for cell `idx` into the book; `on_cell`
    /// ticks settled progress.
    fn settle_result(
        &self,
        lease_id: u64,
        idx: usize,
        attempt: u32,
        outcome: CellOutcome,
        on_cell: OnCell<'_>,
    ) {
        let mut st = self.lock();
        st.last_activity = Instant::now();
        // Strike the cell off its lease (the lease may already be gone if
        // it expired and was re-issued — the late result still counts if
        // the cell is unsettled, the work is deterministic either way).
        let mut lease_empty = false;
        if let Some(lease) = st.leases.get_mut(&lease_id) {
            lease.cells.retain(|&(i, _)| i != idx);
            lease_empty = lease.cells.is_empty();
        }
        if lease_empty {
            st.leases.remove(&lease_id);
        }
        let outcome = match outcome {
            CellOutcome::Value { value, status } => Ok((value, status)),
            CellOutcome::Panic { cause } => Err(cause),
        };
        match st.book.settle(idx, attempt, outcome) {
            // A resent (unacked), chaos-duplicated, or expired-lease
            // result for a settled cell: dismiss it. The records that
            // rode along were already deduped by the content-addressed
            // merge, so nothing is double-counted downstream.
            Settled::Duplicate => st.ledger.results_duplicate += 1,
            Settled::Retry => st.ledger.cell_retries += 1,
            Settled::Final { done } => on_cell(done, st.book.total()),
        }
        self.after_settle(&st);
    }

    /// Folds a worker's self-reported cumulative wire fault count into
    /// the ledger, crediting only what is new since its last claim.
    fn fold_worker_faults(&self, worker: &str, reported: u64) {
        let delta = {
            let mut map = self.fault_reports.lock().unwrap_or_else(PoisonError::into_inner);
            let prev = map.entry(worker.to_string()).or_insert(0);
            let delta = reported.saturating_sub(*prev);
            *prev = (*prev).max(reported);
            delta
        };
        if delta > 0 {
            self.lock().ledger.wire_faults += delta;
        }
    }

    /// One worker connection, handled on its own thread.
    fn handle_conn(&self, stream: TcpStream, solo_lines: &[String], on_cell: OnCell<'_>) {
        let n = self.spec.names.len();
        let conn = self.next_conn.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(1000)));
        let mut writer = match stream.try_clone() {
            Ok(w) => w,
            Err(_) => return,
        };
        let hello = Msg::Hello {
            fp: self.fp,
            lease_ms: self.cfg.lease_timeout.as_millis() as u64,
            campaign: self.spec.clone(),
            solo: solo_lines.to_vec(),
        };
        if write_frame(&mut writer, &hello).is_err() {
            return;
        }
        let mut reader = FrameReader::new(stream);
        let mut claimed = false;
        loop {
            let frame = match reader.next_frame() {
                Ok(frame) => frame,
                Err(WireError::Protocol(e)) => {
                    // Corrupt or desynced bytes: this link cannot be
                    // trusted any further. Drop it — the tail below
                    // requeues whatever it held, and the worker side
                    // reconnects on its own.
                    self.worker_fault(format!("dropping connection after wire fault: {e}"));
                    self.lock().ledger.wire_faults += 1;
                    break;
                }
                Err(WireError::Io(e)) => {
                    self.worker_fault(format!("connection read failed: {e}"));
                    break;
                }
            };
            match frame {
                Frame::Idle => {
                    if self.lock().done() {
                        break;
                    }
                }
                Frame::Eof => break,
                Frame::Msg(Msg::Claim { fp, worker, session, faults }) => {
                    if fp != self.fp {
                        eprintln!(
                            "fabric: worker {worker:?} echoed fingerprint {fp:016x}, \
                             campaign is {:016x}; dismissing it",
                            self.fp
                        );
                        let _ = write_frame(&mut writer, &Msg::Done);
                        break;
                    }
                    self.fold_worker_faults(&worker, faults);
                    let reply = {
                        let mut st = self.lock();
                        st.last_activity = Instant::now();
                        if !claimed {
                            claimed = true;
                            if session == 0 {
                                st.ledger.workers += 1;
                            } else {
                                st.ledger.reconnects += 1;
                                eprintln!(
                                    "fabric: worker {worker:?} reconnected (session {session})"
                                );
                            }
                        }
                        if st.done() {
                            Msg::Done
                        } else {
                            match self.carve(&mut st, conn) {
                                Some((id, cells)) => Msg::Lease {
                                    id,
                                    deadline_ms: self.cfg.lease_timeout.as_millis() as u64,
                                    cells,
                                },
                                None => Msg::Wait { ms: 100 },
                            }
                        }
                    };
                    let finished = matches!(reply, Msg::Done);
                    if write_frame(&mut writer, &reply).is_err() || finished {
                        break;
                    }
                }
                Frame::Msg(Msg::Result { lease, cell, outcome, records }) => {
                    if cell.fg >= n || cell.bg >= n {
                        // Not a cell of this campaign: the link is out of
                        // step, so neither the value nor its records are
                        // trusted. Dropping it requeues its leases.
                        self.worker_fault(format!(
                            "dropping connection after wire fault: result for cell \
                             ({}, {}) outside the {n}-application campaign",
                            cell.fg, cell.bg
                        ));
                        self.lock().ledger.wire_faults += 1;
                        break;
                    }
                    self.merge_wire_records(&records);
                    let idx = cell.fg * n + cell.bg;
                    self.settle_result(lease, idx, cell.attempt, outcome, on_cell);
                    if write_frame(&mut writer, &Msg::Ack).is_err() {
                        break;
                    }
                }
                Frame::Msg(Msg::Heartbeat { lease }) => {
                    let mut st = self.lock();
                    st.last_activity = Instant::now();
                    let deadline = Instant::now() + self.cfg.lease_timeout;
                    if let Some(l) = st.leases.get_mut(&lease) {
                        l.deadline = deadline;
                    }
                }
                Frame::Msg(other) => {
                    eprintln!("fabric: unexpected message from worker: {other:?}");
                    break;
                }
            }
        }
        // Connection is gone (or being dismissed): anything it still
        // holds goes back on the queue.
        let mut st = self.lock();
        let lost: Vec<u64> =
            st.leases.iter().filter(|(_, l)| l.conn == conn).map(|(id, _)| *id).collect();
        if !lost.is_empty() && !st.done() {
            self.worker_fault(format!(
                "worker on connection {conn} died holding {} lease(s)",
                lost.len()
            ));
            st.ledger.worker_deaths += 1;
            for id in lost {
                if let Some(lease) = st.leases.remove(&id) {
                    self.requeue_lease(&mut st, lease, on_cell);
                }
            }
        }
    }

    /// Expires overdue leases; runs every 100 ms on its own thread.
    fn expire_overdue(&self, on_cell: OnCell<'_>) {
        let mut st = self.lock();
        let now = Instant::now();
        let overdue: Vec<u64> = st
            .leases
            .iter()
            .filter(|(_, l)| l.deadline < now)
            .map(|(id, _)| *id)
            .collect();
        for id in overdue {
            if let Some(lease) = st.leases.remove(&id) {
                self.requeue_lease(&mut st, lease, on_cell);
            }
        }
    }
}

/// Counter for unique scratch directories within one process.
static SCRATCH: AtomicU64 = AtomicU64::new(0);

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "cochar-fabric-{tag}-{}-{}",
        std::process::id(),
        SCRATCH.fetch_add(1, Ordering::Relaxed)
    ))
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
            let dir = scratch_dir("store");
            let s = RunStore::open(&dir).map_err(|e| e.to_string())?;
            (s, Some(dir))
        }
    };
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
    let persistent = scratch_store.is_none();
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
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            study.solo(name.as_str())
        }));
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

    // --- Phase 2: open the cell book, settling cached cells locally.
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let cells = Heatmap::pair_cells(names.len());
    let total = cells.len();
    let mut st = CoordState {
        book: CellBook::new(total, cfg.policy),
        issues: vec![0; total],
        leases: HashMap::new(),
        aborted: false,
        next_lease: 1,
        ledger: FabricLedger::default(),
        last_activity: Instant::now(),
    };
    let pair_start = Instant::now();
    if cfg.resolve_cached {
        for (idx, &(i, j)) in cells.iter().enumerate() {
            let keys = study.pair_keys(names[i], names[j], 0);
            if keys.is_empty() || !keys.iter().all(|&k| store.contains(k)) {
                continue;
            }
            let got = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                study.pair_attempt(names[i], names[j], 0)
            }));
            if let Ok(pair) = got {
                st.book.settle(idx, 0, Ok((pair.fg_slowdown, CellStatus::of(&pair))));
                st.ledger.cells_cached += 1;
            }
        }
    }
    let cached = total - st.book.unsettled();
    if cached > 0 {
        on_cell(cached, total);
    }

    let coord = Coord {
        state: Mutex::new(st),
        cv: Condvar::new(),
        store: store.clone(),
        spec: spec.clone(),
        fp: spec.fingerprint(),
        cfg: cfg.clone(),
        next_conn: AtomicU64::new(1),
        merge_failed: Mutex::new(None),
        fault_reports: Mutex::new(HashMap::new()),
        last_fault: Mutex::new(None),
    };

    let mut worker_dirs: Vec<PathBuf> = Vec::new();
    if cached < total {
        serve(&coord, cfg, &solo_lines, &on_cell, &mut worker_dirs)?;
    }
    let pair_wall = pair_start.elapsed();

    // --- Phase 4: merge local worker journals (catches anything a killed
    // worker computed but never reported) and clean up scratch space.
    {
        let mut merged = (0u64, 0u64);
        for dir in &worker_dirs {
            let path = dir.join(cochar_store::journal::JOURNAL_FILE);
            if !path.exists() {
                continue;
            }
            match store.merge_journal(&path) {
                Ok((report, _)) => {
                    merged.0 += report.added;
                    merged.1 += report.duplicates;
                }
                Err(e) => eprintln!("warning: merging {} failed: {e}", path.display()),
            }
        }
        let mut st = coord.lock();
        st.ledger.records_merged += merged.0;
        st.ledger.records_duplicate += merged.1;
    }
    for dir in &worker_dirs {
        let _ = std::fs::remove_dir_all(dir);
    }

    let merge_failed = coord.merge_failed.lock().unwrap_or_else(PoisonError::into_inner).is_some();
    let st = coord.state.into_inner().unwrap_or_else(PoisonError::into_inner);
    let ledger = st.ledger;
    let n = names.len();
    let (heatmap, failures) = Heatmap::from_cells(
        spec.names.clone(),
        st.book.results(|idx| format!("{}/{}", names[idx / n], names[idx % n])),
    );
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
    if let Some(dir) = scratch_store {
        let _ = std::fs::remove_dir_all(&dir);
    }
    Ok(FabricOutcome { heatmap, failures, ledger, pair_wall, solo_wall, store_degraded, resumed })
}

/// Phase 3: run the listener + local workers until every cell settles.
fn serve(
    coord: &Coord,
    cfg: &FabricConfig,
    solo_lines: &[String],
    on_cell: OnCell<'_>,
    worker_dirs: &mut Vec<PathBuf>,
) -> Result<(), String> {
    let listener =
        TcpListener::bind(&cfg.bind).map_err(|e| format!("bind {}: {e}", cfg.bind))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    if let Some(tx) = &cfg.on_bound {
        let _ = tx.send(addr.clone());
    }

    std::thread::scope(|scope| -> Result<(), String> {
        // Accept loop: one handler thread per connection, all inside this
        // scope so they are joined before serve() returns.
        scope.spawn(|| {
            while let Ok((stream, _)) = listener.accept() {
                if coord.lock().done() {
                    // Poke connection or a late worker: greet it
                    // with done semantics via a normal handler —
                    // it will claim once and be dismissed.
                    drop(stream);
                    break;
                }
                scope.spawn(|| coord.handle_conn(stream, solo_lines, on_cell));
            }
        });
        // Lease-expiry sweeper.
        scope.spawn(|| loop {
            std::thread::sleep(Duration::from_millis(100));
            if coord.lock().done() {
                break;
            }
            coord.expire_overdue(on_cell);
        });

        // Local worker processes.
        let mut children: Vec<std::process::Child> = Vec::new();
        let mut next_worker = 0usize;
        let mut spawn_worker = |children: &mut Vec<std::process::Child>,
                                worker_dirs: &mut Vec<PathBuf>|
         -> Result<(), String> {
            let cmd = cfg.worker_cmd.as_ref().expect("checked in run_campaign");
            let dir = scratch_dir(&format!("worker{next_worker}"));
            let label = format!("w{next_worker}");
            let child = std::process::Command::new(&cmd.exe)
                .args(&cmd.args)
                .arg("--connect")
                .arg(&addr)
                .arg("--worker-store")
                .arg(&dir)
                .arg("--label")
                .arg(&label)
                .arg("--pin-cpu")
                .arg(next_worker.to_string())
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawning worker {}: {e}", cmd.exe.display()))?;
            next_worker += 1;
            worker_dirs.push(dir);
            children.push(child);
            Ok(())
        };
        for _ in 0..cfg.workers {
            spawn_worker(&mut children, worker_dirs)?;
        }

        // Wait for settlement, respawning dead local workers (budget: one
        // replacement per original slot) and watching for a dead fabric.
        let respawn_budget = cfg.workers;
        let abort: Option<String> = loop {
            let mut st = coord.lock();
            if st.done() {
                break None;
            }
            if st.last_activity.elapsed() > cfg.stall_timeout {
                let unsettled = st.book.unsettled();
                st.aborted = true;
                break Some(format!(
                    "fabric stalled: {unsettled} cell(s) unsettled and no worker \
                     activity for {:?} (no workers connected, or all of them hung); \
                     last worker error: {}",
                    cfg.stall_timeout,
                    coord.describe_last_fault()
                ));
            }
            drop(
                coord
                    .cv
                    .wait_timeout(st, Duration::from_millis(250))
                    .unwrap_or_else(PoisonError::into_inner),
            );
            // Local pool upkeep, outside the state lock: exited children
            // stay in `children`, so `len - workers` is the respawn count
            // and any excess of deaths over respawns means a slot is
            // empty. Top it up one child per tick while budget remains.
            let dead = children
                .iter_mut()
                .filter_map(|c| c.try_wait().ok().flatten())
                .count();
            let respawned_so_far = children.len() - cfg.workers;
            if dead > respawned_so_far
                && respawned_so_far < respawn_budget
                && !coord.lock().done()
            {
                spawn_worker(&mut children, worker_dirs)?;
                coord.lock().ledger.respawns += 1;
            }
        };

        // Settled (or stalled): wake everything up and tear down.
        coord.cv.notify_all();
        // Poke the accept loop so it observes `done`.
        let _ = TcpStream::connect(&addr);

        // Give local workers a moment to claim, hear `done`, and exit;
        // then kill whatever is left (hung chaos workers, stuck leases).
        let grace = Instant::now();
        loop {
            let all_gone =
                children.iter_mut().all(|c| matches!(c.try_wait(), Ok(Some(_))));
            if all_gone || grace.elapsed() > Duration::from_secs(5) {
                break;
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        for child in children.iter_mut() {
            if !matches!(child.try_wait(), Ok(Some(_))) {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(msg) = abort {
            return Err(msg);
        }
        Ok(())
    })
}
