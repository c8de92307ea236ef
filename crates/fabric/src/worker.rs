//! The worker loop: a stateless cell evaluator that survives its link.
//!
//! A worker connects, receives the campaign spec in `hello`, rebuilds the
//! exact same [`cochar_colocation::Study`] the coordinator holds (same
//! run keys — that is the merge invariant), pre-seeds its private store
//! with the solo records that rode in, and then claims leases until the
//! coordinator says `done`. A lease names one cell, computed under panic
//! isolation; the coordinator owns all retry policy, so the worker just
//! reports what happened. The coordinator holds a claim while it has
//! nothing to lease and answers `wait` only after a whole tick; the
//! worker then claims again at once, without sleeping.
//!
//! While a lease is held, a heartbeat thread extends it every
//! `lease_ms / 3`, so a slow cell does not get re-issued out from under a
//! healthy worker — only a dead or hung one. The thread parks between
//! beats and the session's end unparks it, so it stops at once.
//!
//! # Reconnect
//!
//! Losing the connection is not fatal. The worker runs *sessions*: each
//! session is one connection's lifetime, and when a session ends in
//! connection loss (EOF, a wire fault, an unacknowledged result) the
//! worker reconnects with bounded exponential backoff + jitter and
//! re-Hellos, up to `MAX_RECONNECTS` (8) times. The campaign fingerprint
//! must match the one it was working — a restarted coordinator offering
//! a *different* campaign is refused.
//! The one in-flight result that was sent but never acknowledged is
//! resent verbatim at the start of the new session; the coordinator
//! dismisses it if the cell already settled (counted in the ledger) and
//! the records it carries are content-addressed, so the resend is
//! idempotent by construction. Study, store, and the sent-record set all
//! persist across sessions — reconnecting costs one TCP handshake and one
//! hello, not a rebuild.
//!
//! The first connect also retries within [`WorkerConfig::connect_retry`],
//! so a worker racing `fabric serve` startup (or a coordinator mid-solo
//! phase) waits for the listener instead of failing instantly.
//!
//! Chaos hooks (armed by the CLI from `COCHAR_CHAOS_WORKER` and
//! `COCHAR_CHAOS_WIRE`, inert otherwise) let the test suite kill or hang
//! a worker at a precise cell, or sabotage its outbound frames on a
//! schedule (see [`crate::chaos`]): `die` raises SIGKILL mid-lease — the
//! crash the lease machinery exists for — and `hang` silences the
//! heartbeat and sleeps forever, which is how lease *expiry* (as opposed
//! to connection death) is exercised.

use std::collections::hash_map::RandomState;
use std::collections::HashSet;
use std::hash::BuildHasher;
use std::io::Write;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cochar_colocation::sweep::{affinity, panic_message};
use cochar_colocation::{CellStatus, Study};
use cochar_store::journal::{parse_record, render_record};
use cochar_store::{RunKey, RunStore};

use crate::chaos::{ChaosState, ChaosStream, WirePlan};
use crate::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell, WireError};

/// How many lost connections a worker survives before giving up.
const MAX_RECONNECTS: u32 = 8;

/// How long a worker waits for the coordinator's reply to a claim or
/// result before treating the session as lost. Replies are normally
/// immediate; this bounds the damage of a dropped frame.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// Worker-side fault injection, armed per-cell (see module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorkerChaos {
    /// SIGKILL this process when first issued the `(fg, bg)` cell.
    Die {
        /// Foreground name of the trigger cell.
        fg: String,
        /// Background name of the trigger cell.
        bg: String,
    },
    /// Stop heartbeating and sleep forever when first issued the cell.
    Hang {
        /// Foreground name of the trigger cell.
        fg: String,
        /// Background name of the trigger cell.
        bg: String,
    },
}

impl WorkerChaos {
    /// Parses the `COCHAR_CHAOS_WORKER` grammar: `die@fg/bg` | `hang@fg/bg`.
    pub fn parse(spec: &str) -> Result<WorkerChaos, String> {
        let (kind, pair) = spec
            .split_once('@')
            .ok_or_else(|| format!("expected die@fg/bg or hang@fg/bg, got {spec:?}"))?;
        let (fg, bg) = pair
            .split_once('/')
            .ok_or_else(|| format!("expected fg/bg after @, got {pair:?}"))?;
        let (fg, bg) = (fg.to_string(), bg.to_string());
        match kind {
            "die" => Ok(WorkerChaos::Die { fg, bg }),
            "hang" => Ok(WorkerChaos::Hang { fg, bg }),
            other => Err(format!("unknown worker chaos {other:?} (die|hang)")),
        }
    }
}

/// How a worker runs.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Coordinator address (`host:port`).
    pub connect: String,
    /// Private store directory; a scratch dir (removed on clean exit)
    /// when absent. The coordinator passes a directory it will harvest.
    pub store_dir: Option<PathBuf>,
    /// Label echoed in `claim` (diagnostics only).
    pub label: String,
    /// Pin this process to a CPU (skipped under `COCHAR_NO_PIN`).
    pub pin_cpu: Option<usize>,
    /// Cell-level fault injection (the study's chaos cell), as
    /// `(fg, bg, succeed_from)`.
    pub chaos_cell: Option<(String, String, u32)>,
    /// Worker-level fault injection.
    pub chaos_worker: Option<WorkerChaos>,
    /// Wire-level fault injection over outbound frames (the
    /// `COCHAR_CHAOS_WIRE` plan).
    pub chaos_wire: Option<WirePlan>,
    /// Total budget for (re)connect attempts before giving up — covers
    /// both racing a coordinator's startup and riding out its restart.
    pub connect_retry: Duration,
}

impl WorkerConfig {
    /// A plain worker aimed at `connect`.
    pub fn new(connect: impl Into<String>) -> Self {
        WorkerConfig {
            connect: connect.into(),
            store_dir: None,
            label: "worker".into(),
            pin_cpu: None,
            chaos_cell: None,
            chaos_worker: None,
            chaos_wire: None,
            connect_retry: Duration::from_secs(5),
        }
    }
}

/// What a worker did before the coordinator dismissed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Leases processed.
    pub leases: u64,
    /// Cells that computed to a value.
    pub cells: u64,
    /// Cells that panicked (reported, not retried here).
    pub panics: u64,
    /// Sessions re-established after connection loss.
    pub reconnects: u64,
    /// Wire protocol errors observed on the inbound side.
    pub wire_faults: u64,
}

/// How one session (one connection's lifetime) ended.
enum SessionEnd {
    /// The coordinator said `done`: the campaign settled, exit cleanly.
    Dismissed,
    /// The connection is gone or untrustworthy; reconnect and continue.
    Lost(String),
    /// Something no reconnect can fix (wrong campaign, bad lease).
    Fatal(String),
}

/// Worker state that survives across sessions.
struct WorkerState {
    /// This worker's identity in every claim: random, drawn once per
    /// [`run_worker`], so the coordinator counts its faults apart.
    id: u64,
    fp: Option<u64>,
    study: Option<Study>,
    names: Vec<String>,
    sent: HashSet<RunKey>,
    /// The one `result` sent but not yet acknowledged — resent verbatim
    /// on the next session so a result lost with its connection lands.
    pending: Option<Msg>,
    session: u32,
    summary: WorkerSummary,
}

type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Waits for the next message, riding out read-timeout idles up to
/// [`REPLY_TIMEOUT`]. Anything else — a close, the timeout, or an inbound
/// protocol error (counted) — comes back as the reason the connection is
/// lost: the reconnect machinery owns the recovery, never the parser.
fn recv(reader: &mut FrameReader<TcpStream>, wire_faults: &mut u64) -> Result<Msg, String> {
    let start = Instant::now();
    loop {
        match reader.next_frame() {
            Ok(Frame::Msg(m)) => return Ok(m),
            Ok(Frame::Eof) => return Err("connection closed".into()),
            Ok(Frame::Idle) if start.elapsed() > REPLY_TIMEOUT => {
                return Err(format!("no reply within the {REPLY_TIMEOUT:?} reply timeout"))
            }
            Ok(Frame::Idle) => {}
            Err(WireError::Protocol(e)) => {
                *wire_faults += 1;
                return Err(format!("wire fault: {e}"));
            }
            Err(WireError::Io(e)) => return Err(e),
        }
    }
}

fn send_to(writer: &SharedWriter, msg: &Msg) -> bool {
    let mut w = writer.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    write_frame(&mut *w, msg).is_ok()
}

/// Journal lines for every store record not yet shipped to the
/// coordinator; marks them shipped.
fn new_records(store: &RunStore, sent: &mut HashSet<RunKey>) -> Vec<String> {
    let mut lines = Vec::new();
    for (k, o) in store.entries() {
        if sent.insert(k) {
            lines.push(render_record(k, &o));
        }
    }
    lines
}

#[cfg(unix)]
fn kill_self_hard() {
    extern "C" {
        fn getpid() -> i32;
        fn kill(pid: i32, sig: i32) -> i32;
    }
    unsafe {
        kill(getpid(), 9); // SIGKILL: no destructors, no flushes
    }
}

#[cfg(not(unix))]
fn kill_self_hard() {}

/// Connects with exponential backoff + jitter inside a total `budget`.
///
/// The backoff doubles from 25 ms to a 1 s cap; jitter (±25%, from a
/// cheap xorshift seeded per-process) de-synchronizes a fleet of workers
/// all racing the same coordinator startup.
fn connect_with_retry(addr: &str, budget: Duration) -> Result<TcpStream, String> {
    let start = Instant::now();
    let mut delay = Duration::from_millis(25);
    let mut rng: u64 = u64::from(std::process::id()) ^ 0x9e37_79b9_7f4a_7c15;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                if start.elapsed() >= budget {
                    return Err(format!(
                        "connect {addr}: {e} (gave up after {:.1?} of retries)",
                        start.elapsed()
                    ));
                }
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                let base = delay.as_millis() as u64;
                let jitter = (base / 2).max(1);
                let ms = base - jitter / 2 + rng % (jitter + 1);
                let remaining = budget.saturating_sub(start.elapsed());
                std::thread::sleep(Duration::from_millis(ms).min(remaining));
                delay = (delay * 2).min(Duration::from_secs(1));
            }
        }
    }
}

/// Connects to a coordinator and works until dismissed, reconnecting
/// through connection loss (see the module docs).
pub fn run_worker(cfg: &WorkerConfig) -> Result<WorkerSummary, String> {
    if let Some(cpu) = cfg.pin_cpu {
        if std::env::var_os("COCHAR_NO_PIN").is_none() {
            // Best effort: an over-subscribed host just leaves it to the OS.
            let _ = affinity::pin_to(cpu);
        }
    }
    // Private store, pre-seeded with the solos so this worker never
    // simulates a denominator. Opened once; sessions share it.
    let (store_dir, scratch) = match &cfg.store_dir {
        Some(dir) => (dir.clone(), false),
        None => (crate::scratch_dir(&format!("worker-{}", cfg.label)), true),
    };
    let store = RunStore::open(&store_dir).map_err(|e| e.to_string())?;
    // One chaos state for the whole process: frame indices keep counting
    // across reconnects, so each scheduled fault fires exactly once.
    let chaos = cfg
        .chaos_wire
        .as_ref()
        .filter(|plan| !plan.is_empty())
        .map(|plan| Arc::new(Mutex::new(ChaosState::new(plan.clone()))));

    let mut st = WorkerState {
        // Each `RandomState` has fresh keys (seeded from the OS per
        // thread), so workers sharing a label, host or process differ.
        id: RandomState::new().hash_one(std::process::id()),
        fp: None,
        study: None,
        names: Vec::new(),
        sent: HashSet::new(),
        pending: None,
        session: 0,
        summary: WorkerSummary::default(),
    };
    let result = loop {
        let stream = match connect_with_retry(&cfg.connect, cfg.connect_retry) {
            Ok(stream) => stream,
            Err(e) if st.session == 0 => break Err(e),
            Err(e) => {
                // We already worked for this coordinator and now it is
                // unreachable: the likeliest story is that the campaign
                // settled and it exited. Our results either landed or sit
                // in the worker store for the teardown harvest.
                eprintln!(
                    "fabric: worker {}: coordinator unreachable after {} session(s) \
                     ({e}); assuming the campaign is over",
                    cfg.label,
                    st.session
                );
                break Ok(());
            }
        };
        match run_session(cfg, &store, &mut st, stream, chaos.as_ref()) {
            SessionEnd::Dismissed => break Ok(()),
            SessionEnd::Fatal(e) => break Err(e),
            SessionEnd::Lost(why) => {
                st.session += 1;
                st.summary.reconnects += 1;
                if st.session > MAX_RECONNECTS {
                    break Err(format!(
                        "connection lost {} times (last: {why}); giving up",
                        st.session
                    ));
                }
                eprintln!(
                    "fabric: worker {} lost its connection ({why}); reconnecting \
                     (session {})",
                    cfg.label, st.session
                );
            }
        }
    };
    let summary = st.summary;
    if scratch {
        st.study = None;
        drop(st);
        drop(store);
        let _ = std::fs::remove_dir_all(&store_dir);
    }
    result.map(|()| summary)
}

/// Runs one session: hello, (re)build state on the first one, resend the
/// pending result if any, then claim until dismissed or disconnected.
fn run_session(
    cfg: &WorkerConfig,
    store: &RunStore,
    st: &mut WorkerState,
    stream: TcpStream,
    chaos: Option<&Arc<Mutex<ChaosState>>>,
) -> SessionEnd {
    let _ = stream.set_nodelay(true);
    if let Err(e) = stream.set_read_timeout(Some(Duration::from_millis(250))) {
        return SessionEnd::Lost(format!("set_read_timeout: {e}"));
    }
    let raw = match stream.try_clone() {
        Ok(w) => w,
        Err(e) => return SessionEnd::Lost(format!("cloning stream: {e}")),
    };
    let writer: SharedWriter = Arc::new(Mutex::new(match chaos {
        Some(state) => Box::new(ChaosStream::new(raw, Arc::clone(state))),
        None => Box::new(raw),
    }));
    let mut reader = FrameReader::new(stream);

    // Greeting: the campaign by value, plus solo pre-seed records.
    let hello = match recv(&mut reader, &mut st.summary.wire_faults) {
        Ok(m) => m,
        Err(why) => return SessionEnd::Lost(format!("before hello: {why}")),
    };
    let (fp, lease_ms, campaign, solo) = match hello {
        Msg::Hello { fp, lease_ms, campaign, solo } => (fp, lease_ms, campaign, solo),
        other => return SessionEnd::Fatal(format!("expected hello, got {other:?}")),
    };
    match st.fp {
        // A coordinator restart must resume the *same* campaign; cells we
        // already journaled belong to the old fingerprint.
        Some(known) if known != fp => {
            return SessionEnd::Fatal(format!(
                "coordinator now offers campaign {fp:016x}, but this worker was \
                 computing {known:016x}; dismissing myself"
            ))
        }
        _ => st.fp = Some(fp),
    }
    if st.study.is_none() {
        let mut seeds = Vec::with_capacity(solo.len());
        for line in &solo {
            match parse_record(line) {
                Ok((key, outcome)) => seeds.push((key, Arc::new(outcome))),
                Err(e) => eprintln!("worker {}: dropping bad solo record: {e}", cfg.label),
            }
        }
        if let Err(e) = store.merge_records(seeds) {
            return SessionEnd::Fatal(e.to_string());
        }
        st.sent = store.entries().iter().map(|(k, _)| *k).collect();
        let mut study = match campaign.build_study(Some(store.clone())) {
            Ok(s) => s,
            Err(e) => return SessionEnd::Fatal(e),
        };
        if let Some((fg, bg, succeed_from)) = &cfg.chaos_cell {
            study = study.with_chaos_cell(fg, bg, *succeed_from);
        }
        st.names = campaign.names.clone();
        st.study = Some(study);
    }

    // Heartbeat thread: extends whichever lease is current. Writes share
    // the frame writer's mutex, so heartbeats never interleave with a
    // result frame. Per-session: the session's end unparks it, and it
    // exits at once.
    let current_lease = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let beat = {
        let writer = Arc::clone(&writer);
        let current_lease = Arc::clone(&current_lease);
        let stop = Arc::clone(&stop);
        let interval = Duration::from_millis((lease_ms / 3).max(100));
        std::thread::spawn(move || {
            let mut due = Instant::now() + interval;
            loop {
                std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                // `unpark` follows the store, and a park it ends sees it.
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                if Instant::now() < due {
                    continue; // a spurious wake-up
                }
                due = Instant::now() + interval;
                let lease = current_lease.load(Ordering::Relaxed);
                if lease != 0 {
                    let _ = send_to(&writer, &Msg::Heartbeat { lease });
                }
            }
        })
    };

    let end = session_loop(cfg, store, st, &writer, &mut reader, &current_lease);
    stop.store(true, Ordering::Relaxed);
    beat.thread().unpark();
    let _ = beat.join();
    end
}

/// The claim/compute/report loop of one established session.
fn session_loop(
    cfg: &WorkerConfig,
    store: &RunStore,
    st: &mut WorkerState,
    writer: &SharedWriter,
    reader: &mut FrameReader<TcpStream>,
    current_lease: &AtomicU64,
) -> SessionEnd {
    let WorkerState { id, fp, study, names, sent, pending, session, summary } = st;
    let fp = fp.expect("hello recorded the fingerprint");
    let study = study.as_ref().expect("hello built the study");

    // Resend the result the previous session never got acknowledged —
    // idempotent: the coordinator dismisses it if the cell settled
    // meanwhile, and the records dedup by content either way.
    if let Some(Msg::Result { cell, .. }) = pending {
        eprintln!(
            "fabric: worker {} resending unacknowledged result for cell ({}, {})",
            cfg.label, cell.fg, cell.bg
        );
        if let Err(end) = deliver(writer, reader, pending, &mut summary.wire_faults) {
            return end;
        }
    }

    loop {
        let claim = Msg::Claim {
            fp,
            worker: cfg.label.clone(),
            id: *id,
            session: *session,
            faults: summary.wire_faults,
        };
        if !send_to(writer, &claim) {
            return SessionEnd::Lost("sending claim".into());
        }
        let reply = loop {
            match recv(reader, &mut summary.wire_faults) {
                // A stray ack (e.g. the echo of a chaos-duplicated result
                // frame) is not the claim reply; keep waiting.
                Ok(Msg::Ack) => continue,
                Ok(m) => break m,
                Err(why) => return SessionEnd::Lost(why),
            }
        };
        match reply {
            Msg::Done => return SessionEnd::Dismissed,
            // The coordinator held the claim a whole tick: claim again.
            Msg::Wait => {}
            Msg::Lease { id, cell, .. } => {
                summary.leases += 1;
                current_lease.store(id, Ordering::Relaxed);
                let (Some(fg), Some(bg)) = (names.get(cell.fg), names.get(cell.bg)) else {
                    return SessionEnd::Fatal(format!(
                        "lease cell ({}, {}) out of range for {} names",
                        cell.fg,
                        cell.bg,
                        names.len()
                    ));
                };
                apply_worker_chaos(cfg, current_lease, fg, bg, cell);
                let computed =
                    catch_unwind(AssertUnwindSafe(|| study.pair_attempt(fg, bg, cell.attempt)));
                let outcome = match computed {
                    Ok(pair) => {
                        summary.cells += 1;
                        let status = CellStatus::of(&pair);
                        CellOutcome::Value { value: pair.fg_slowdown, status }
                    }
                    Err(e) => {
                        summary.panics += 1;
                        CellOutcome::Panic { cause: panic_message(e) }
                    }
                };
                let records = new_records(store, sent);
                *pending = Some(Msg::Result { lease: id, cell, outcome, records });
                if let Err(end) = deliver(writer, reader, pending, &mut summary.wire_faults) {
                    return end;
                }
                current_lease.store(0, Ordering::Relaxed);
            }
            other => return SessionEnd::Lost(format!("unexpected message {other:?}")),
        }
    }
}

/// Sends the pending result and waits for its ack, which clears it.
/// Anything but an ack ends the session: `done` is dismissal, an
/// unexpected frame means this link is out of step (e.g. a buffered
/// reply to a chaos-duplicated claim) and is cheaper to re-establish than
/// to re-synchronize.
fn deliver(
    writer: &SharedWriter,
    reader: &mut FrameReader<TcpStream>,
    pending: &mut Option<Msg>,
    wire_faults: &mut u64,
) -> Result<(), SessionEnd> {
    if !send_to(writer, pending.as_ref().expect("a result to deliver")) {
        return Err(SessionEnd::Lost("sending result".into()));
    }
    match recv(reader, wire_faults) {
        Ok(Msg::Ack) => {
            *pending = None;
            Ok(())
        }
        Ok(Msg::Done) => Err(SessionEnd::Dismissed),
        Ok(other) => Err(SessionEnd::Lost(format!("expected ack, got {other:?}"))),
        Err(why) => Err(SessionEnd::Lost(why)),
    }
}

/// Fires the armed worker chaos if this is its trigger cell, first issue.
///
/// Only `issue == 0` triggers: the re-issued lease for the same cell must
/// compute normally, which is exactly the recovery the tests assert.
fn apply_worker_chaos(
    cfg: &WorkerConfig,
    current_lease: &AtomicU64,
    fg: &str,
    bg: &str,
    cell: WireCell,
) {
    if cell.issue != 0 {
        return;
    }
    match &cfg.chaos_worker {
        Some(WorkerChaos::Die { fg: cfg_fg, bg: cfg_bg }) if cfg_fg == fg && cfg_bg == bg => {
            eprintln!("chaos: worker {} dying on cell {fg}/{bg}", cfg.label);
            kill_self_hard();
            // Unreachable on unix; elsewhere fall through to an abort so
            // the test still observes a dead worker.
            std::process::abort();
        }
        Some(WorkerChaos::Hang { fg: cfg_fg, bg: cfg_bg }) if cfg_fg == fg && cfg_bg == bg => {
            eprintln!("chaos: worker {} hanging on cell {fg}/{bg}", cfg.label);
            // Silence the heartbeat so the lease genuinely expires, then
            // sleep out the campaign (the coordinator reaps us at exit —
            // or, for an in-process test worker, the thread just leaks).
            current_lease.store(0, Ordering::Relaxed);
            loop {
                std::thread::sleep(Duration::from_secs(3600));
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_grammar_parses() {
        assert_eq!(
            WorkerChaos::parse("die@G-CC/mcf").unwrap(),
            WorkerChaos::Die { fg: "G-CC".into(), bg: "mcf".into() }
        );
        assert_eq!(
            WorkerChaos::parse("hang@a/b").unwrap(),
            WorkerChaos::Hang { fg: "a".into(), bg: "b".into() }
        );
        assert!(WorkerChaos::parse("explode@a/b").is_err());
        assert!(WorkerChaos::parse("die@ab").is_err());
        assert!(WorkerChaos::parse("die").is_err());
    }

    #[test]
    fn default_label_workers_get_distinct_scratch_stores() {
        let cfg = WorkerConfig::new("127.0.0.1:1");
        assert_ne!(crate::scratch_dir(&cfg.label), crate::scratch_dir(&cfg.label));
    }

    #[test]
    fn connect_retry_gives_up_within_budget() {
        // Port 1 is never listening; the budget bounds the wait.
        let start = Instant::now();
        let err = connect_with_retry("127.0.0.1:1", Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("connect"), "{err}");
        assert!(start.elapsed() < Duration::from_secs(5), "took {:?}", start.elapsed());
    }
}
