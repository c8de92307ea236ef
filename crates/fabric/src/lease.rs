//! The lease machine: every coordinator decision as a pure function of
//! an event and a clock reading.
//!
//! [`Machine::on`] applies one [`Event`] at a time since the campaign
//! began and returns the [`Action`]s the driver must carry out (the
//! tables are in the [`crate::coord`] docs). The machine owns all
//! campaign state: the [`CellBook`], each cell's issue budget, leases
//! and their deadlines, the [`FabricLedger`], each worker's wire-fault
//! high-water mark, and the last worker fault. It reads no clock and
//! touches no socket, thread, process or store, so every lease rule is
//! testable on a virtual clock.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Duration;

use cochar_colocation::{CellBook, CellFailure, CellStatus, Settled};

use crate::coord::{FabricConfig, FabricLedger};
use crate::wire::{CellOutcome, Msg, WireCell, WireError};

/// Leases a cell may lose before it fails with a delivery error.
pub(crate) const MAX_ISSUES: u32 = 5;

/// Back-off suggested to a worker that claims while nothing is claimable.
const WAIT_MS: u64 = 100;

/// One worker connection, numbered by the driver.
pub(crate) type Conn = u64;

/// Something that happened to the campaign; the fields mirror the wire
/// messages of the same names.
#[derive(Clone, Debug)]
pub(crate) enum Event {
    /// A worker on `conn` asks for work.
    Claim { conn: Conn, fp: u64, worker: String, id: u64, session: u32, faults: u64 },
    /// A worker reports its lease's cell.
    Result { lease: u64, cell: WireCell, outcome: CellOutcome },
    /// A worker keeps a lease alive.
    Heartbeat { lease: u64 },
    /// `conn` ended: cleanly (`None`), or on the read error `cause`.
    Disconnect { conn: Conn, cause: Option<WireError> },
    /// The records riding on an accepted result went to the store:
    /// counts, why each unverifiable record was refused, and the store's
    /// error if it could not persist them.
    Merged { added: u64, duplicates: u64, rejected: Vec<String>, error: Option<String> },
    /// Time passed.
    Tick,
}

/// What the driver must do in response to an event.
#[derive(Debug, PartialEq)]
pub(crate) enum Action {
    /// Send this message to the connection the event came from.
    Reply(Msg),
    /// Close the event's connection: it broke the protocol.
    Drop { fault: String },
    /// `settled` of the campaign's `total` pair cells have settled
    /// (fail-fast skips not counted).
    Progress { settled: usize, total: usize },
    /// Give up on the campaign with this error.
    Abort(String),
}

/// A lease in flight.
struct Lease {
    conn: Conn,
    deadline: Duration,
    /// The book's `(index, attempt)` claim on the leased cell.
    claim: (usize, u32),
}

/// The coordinator's campaign state (see the module docs).
pub(crate) struct Machine {
    book: CellBook<(f64, CellStatus)>,
    /// Applications in the campaign; cell `i` is `(i / names, i % names)`.
    names: usize,
    fp: u64,
    lease_timeout: Duration,
    stall_timeout: Duration,
    /// Leases lost so far, per cell.
    issues: Vec<u32>,
    /// Leases in flight by id; ids count up, so expiry runs in issue order.
    leases: BTreeMap<u64, Lease>,
    next_lease: u64,
    /// Open connections that have claimed at least once.
    claimed: HashSet<Conn>,
    /// The highest wire-fault count each worker id has reported.
    fault_marks: HashMap<u64, u64>,
    last_fault: Option<String>,
    store_error: Option<String>,
    last_activity: Duration,
    aborted: bool,
    ledger: FabricLedger,
}

impl Machine {
    /// A campaign over `names` applications (all `names²` pair cells
    /// unsettled) with fingerprint `fp`, starting at time zero.
    pub(crate) fn new(names: usize, fp: u64, cfg: &FabricConfig) -> Machine {
        let total = names * names;
        Machine {
            book: CellBook::new(total, cfg.policy),
            names,
            fp,
            lease_timeout: cfg.lease_timeout,
            stall_timeout: cfg.stall_timeout,
            issues: vec![0; total],
            leases: BTreeMap::new(),
            next_lease: 1,
            claimed: HashSet::new(),
            fault_marks: HashMap::new(),
            last_fault: None,
            store_error: None,
            last_activity: Duration::ZERO,
            aborted: false,
            ledger: FabricLedger::default(),
        }
    }

    /// Settles cell `index` from the coordinator's own store, before any
    /// worker connects.
    pub(crate) fn adopt(&mut self, index: usize, value: (f64, CellStatus)) {
        if let Settled::Final { .. } = self.book.settle(index, 0, Ok(value)) {
            self.ledger.cells_cached += 1;
        }
    }

    /// The ledger so far.
    pub(crate) fn ledger(&self) -> &FabricLedger {
        &self.ledger
    }

    /// The cell index of `cell`, or `None` when it names an application
    /// outside the campaign.
    pub(crate) fn index_of(&self, cell: WireCell) -> Option<usize> {
        (cell.fg < self.names && cell.bg < self.names).then(|| cell.fg * self.names + cell.bg)
    }

    /// True once every cell settled or the campaign aborted.
    pub(crate) fn done(&self) -> bool {
        self.aborted || self.book.is_done()
    }

    /// True once the store refused a merge: the campaign ran, but it is
    /// not resumable.
    pub(crate) fn store_failed(&self) -> bool {
        self.store_error.is_some()
    }

    /// The per-cell results in cell order, failures named by
    /// `label(index)`. Call once every cell has settled.
    pub(crate) fn results(
        self,
        label: impl Fn(usize) -> String,
    ) -> Vec<Result<(f64, CellStatus), CellFailure>> {
        self.book.results(label)
    }

    /// Applies one event at time `now` (since the campaign began).
    pub(crate) fn on(&mut self, event: Event, now: Duration) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Claim { conn, fp, worker, id, session, faults } => {
                let reply = if fp == self.fp {
                    self.last_activity = now;
                    self.greet(conn, &worker, id, session, faults);
                    self.lease_for(conn, now)
                } else {
                    eprintln!(
                        "fabric: worker {worker:?} echoed fingerprint {fp:016x}, \
                         campaign is {:016x}; dismissing it",
                        self.fp
                    );
                    Msg::Done
                };
                out.push(Action::Reply(reply));
            }
            Event::Result { lease, cell, outcome } => {
                self.result(lease, cell, outcome, now, &mut out)
            }
            Event::Heartbeat { lease } => {
                self.last_activity = now;
                if let Some(l) = self.leases.get_mut(&lease) {
                    l.deadline = now + self.lease_timeout;
                }
            }
            Event::Disconnect { conn, cause } => self.disconnect(conn, cause, &mut out),
            Event::Merged { added, duplicates, rejected, error } => {
                self.ledger.records_merged += added;
                self.ledger.records_duplicate += duplicates;
                for why in rejected {
                    self.fault(format!("dropping unverifiable worker record: {why}"));
                }
                if let (Some(e), None) = (error, &self.store_error) {
                    eprintln!(
                        "warning: fabric could not persist worker records ({e}); \
                         results are unaffected, but this campaign will not be resumable"
                    );
                    self.store_error = Some(e);
                }
            }
            Event::Tick => self.tick(now, &mut out),
        }
        out
    }

    /// Logs a worker fault and remembers it for the stall error.
    fn fault(&mut self, fault: String) {
        eprintln!("fabric: {fault}");
        self.last_fault = Some(fault);
    }

    /// Folds a claimant's cumulative fault count into the ledger (only
    /// what is new since that worker's last claim) and counts a
    /// connection's first claim as a new worker or a reconnect.
    fn greet(&mut self, conn: Conn, worker: &str, id: u64, session: u32, faults: u64) {
        let mark = self.fault_marks.entry(id).or_insert(0);
        self.ledger.wire_faults += faults.saturating_sub(*mark);
        *mark = (*mark).max(faults);
        if self.claimed.insert(conn) {
            if session == 0 {
                self.ledger.workers += 1;
            } else {
                self.ledger.reconnects += 1;
                eprintln!("fabric: worker {worker:?} reconnected (session {session})");
            }
        }
    }

    /// The reply to a claim: a lease of the book's next claim, `wait`
    /// while every unsettled cell is in flight, or `done`.
    fn lease_for(&mut self, conn: Conn, now: Duration) -> Msg {
        if self.done() {
            return Msg::Done;
        }
        let Some((idx, attempt)) = self.book.claim() else {
            return Msg::Wait { ms: WAIT_MS };
        };
        let cell = WireCell {
            fg: idx / self.names,
            bg: idx % self.names,
            attempt,
            issue: self.issues[idx],
        };
        let id = self.next_lease;
        self.next_lease += 1;
        let deadline = now + self.lease_timeout;
        self.leases.insert(id, Lease { conn, deadline, claim: (idx, attempt) });
        self.ledger.leases_issued += 1;
        Msg::Lease { id, deadline_ms: self.lease_timeout.as_millis() as u64, cell }
    }

    fn result(
        &mut self,
        lease: u64,
        cell: WireCell,
        outcome: CellOutcome,
        now: Duration,
        out: &mut Vec<Action>,
    ) {
        let Some(idx) = self.index_of(cell) else {
            // Not a cell of this campaign: the link is out of step, so
            // neither the value nor its records are trusted.
            let fault = format!(
                "dropping connection after wire fault: result for cell ({}, {}) outside \
                 the {}-application campaign",
                cell.fg, cell.bg, self.names
            );
            self.fault(fault.clone());
            self.ledger.wire_faults += 1;
            out.push(Action::Drop { fault });
            return;
        };
        self.last_activity = now;
        // The lease may be gone already (it expired and its cell was
        // released); a late result still counts if its attempt does.
        if self.leases.get(&lease).is_some_and(|l| l.claim.0 == idx) {
            self.leases.remove(&lease);
        }
        let outcome = match outcome {
            CellOutcome::Value { value, status } => Ok((value, status)),
            CellOutcome::Panic { cause } => Err(cause),
        };
        match self.book.settle(idx, cell.attempt, outcome) {
            // A resent, duplicated, or stale result: dismissed. Its
            // records merge as content-addressed dedup either way.
            Settled::Duplicate => self.ledger.results_duplicate += 1,
            Settled::Retry => self.ledger.cell_retries += 1,
            Settled::Final { done } => {
                out.push(Action::Progress { settled: done, total: self.book.total() })
            }
        }
        out.push(Action::Reply(Msg::Ack));
    }

    fn disconnect(&mut self, conn: Conn, cause: Option<WireError>, out: &mut Vec<Action>) {
        match cause {
            Some(WireError::Protocol(e)) => {
                // Corrupt or desynced bytes: the worker reconnects on its
                // own, and whatever this link held is released below.
                self.fault(format!("dropping connection after wire fault: {e}"));
                self.ledger.wire_faults += 1;
            }
            Some(WireError::Io(e)) => self.fault(format!("connection read failed: {e}")),
            None => {}
        }
        self.claimed.remove(&conn);
        if self.done() {
            return;
        }
        let lost: Vec<u64> =
            self.leases.iter().filter(|(_, l)| l.conn == conn).map(|(&id, _)| id).collect();
        if !lost.is_empty() {
            self.fault(format!("worker on connection {conn} died holding {} lease(s)", lost.len()));
            self.ledger.worker_deaths += 1;
            for id in lost {
                self.release(id, out);
            }
        }
    }

    fn tick(&mut self, now: Duration, out: &mut Vec<Action>) {
        if self.done() {
            return;
        }
        let overdue: Vec<u64> =
            self.leases.iter().filter(|(_, l)| l.deadline < now).map(|(&id, _)| id).collect();
        for id in overdue {
            self.release(id, out);
        }
        if !self.done() && now.saturating_sub(self.last_activity) > self.stall_timeout {
            self.aborted = true;
            out.push(Action::Abort(format!(
                "fabric stalled: {} cell(s) unsettled and no worker activity for {:?} \
                 (no workers connected, or all of them hung); last worker error: {}",
                self.book.unsettled(),
                self.stall_timeout,
                self.last_fault.as_deref().unwrap_or("none seen")
            )));
        }
    }

    /// Hands a lost lease's claim back to the book if it is still live,
    /// failing the cell past its issue budget.
    fn release(&mut self, lease: u64, out: &mut Vec<Action>) {
        let Some(Lease { claim: (idx, attempt), .. }) = self.leases.remove(&lease) else { return };
        self.ledger.leases_reissued += 1;
        if !self.book.is_current(idx, attempt) {
            return;
        }
        self.issues[idx] += 1;
        let issue = self.issues[idx];
        if issue <= MAX_ISSUES {
            self.book.release(idx, attempt);
            return;
        }
        let cause = format!("lease lost {issue} times without a result (workers dying?)");
        if let Settled::Final { done } = self.book.fail(idx, cause, attempt) {
            out.push(Action::Progress { settled: done, total: self.book.total() });
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use cochar_colocation::sweep::supervised_map;
    use cochar_colocation::SweepPolicy;
    use proptest::prelude::*;

    use super::*;

    const FP: u64 = 0xf00d;

    fn config(policy: SweepPolicy) -> FabricConfig {
        FabricConfig {
            lease_timeout: Duration::from_millis(100),
            stall_timeout: Duration::from_millis(1000),
            policy,
            ..FabricConfig::default()
        }
    }

    fn ms(t: u64) -> Duration {
        Duration::from_millis(t)
    }

    fn claim(conn: Conn, id: u64, session: u32, faults: u64) -> Event {
        Event::Claim { conn, fp: FP, worker: "worker".into(), id, session, faults }
    }

    /// Claims on `conn` at `now` and returns the lease id and cell.
    fn take_lease(m: &mut Machine, conn: Conn, now: Duration) -> (u64, WireCell) {
        match m.on(claim(conn, conn, 0, 0), now).pop() {
            Some(Action::Reply(Msg::Lease { id, cell, .. })) => (id, cell),
            other => panic!("expected a lease, got {other:?}"),
        }
    }

    fn value(v: f64) -> CellOutcome {
        CellOutcome::Value { value: v, status: CellStatus::Ok }
    }

    #[test]
    fn a_foreign_fingerprint_is_dismissed_with_done() {
        let mut m = Machine::new(2, FP, &config(SweepPolicy::default()));
        let event = Event::Claim {
            conn: 1,
            fp: FP ^ 1,
            worker: "impostor".into(),
            id: 7,
            session: 0,
            faults: 3,
        };
        assert_eq!(m.on(event, ms(0)), vec![Action::Reply(Msg::Done)]);
        assert_eq!(*m.ledger(), FabricLedger::default(), "an impostor counts for nothing");
    }

    #[test]
    fn an_out_of_range_result_drops_the_connection_with_a_wire_fault() {
        let mut m = Machine::new(1, FP, &config(SweepPolicy::default()));
        let (lease, cell) = take_lease(&mut m, 1, ms(0));
        let bogus = WireCell { fg: 0, bg: 1, ..cell };
        let actions = m.on(Event::Result { lease, cell: bogus, outcome: value(9.99) }, ms(1));
        match actions.as_slice() {
            [Action::Drop { fault }] => {
                assert!(fault.contains("outside the 1-application"), "{fault}")
            }
            other => panic!("expected a drop, got {other:?}"),
        }
        assert_eq!(m.ledger().wire_faults, 1);
        // The driver then reports the disconnect, which releases the
        // lease: its cell is leased again, unsettled by the bogus value.
        m.on(Event::Disconnect { conn: 1, cause: None }, ms(2));
        assert_eq!(m.ledger().leases_reissued, 1);
        assert_eq!(take_lease(&mut m, 2, ms(3)).1, WireCell { issue: 1, ..cell });
    }

    #[test]
    fn a_heartbeat_extends_the_lease_deadline() {
        let mut m = Machine::new(2, FP, &config(SweepPolicy::default()));
        let (lease, _) = take_lease(&mut m, 1, ms(0));
        m.on(Event::Heartbeat { lease }, ms(80));
        m.on(Event::Tick, ms(150));
        assert_eq!(m.ledger().leases_reissued, 0, "the heartbeat moved the deadline to 180 ms");
        m.on(Event::Tick, ms(181));
        assert_eq!(m.ledger().leases_reissued, 1, "past the extended deadline the lease expires");
    }

    #[test]
    fn the_stall_abort_names_the_last_worker_fault() {
        let mut m = Machine::new(2, FP, &config(SweepPolicy::default()));
        take_lease(&mut m, 1, ms(0));
        // A second worker's first frame is corrupt; the first goes silent
        // holding its lease.
        let cause = Some(WireError::Protocol("frame checksum mismatch".into()));
        m.on(Event::Disconnect { conn: 2, cause }, ms(10));
        assert!(m.on(Event::Tick, ms(1000)).is_empty(), "1000 ms since the claim is no stall");
        let actions = m.on(Event::Tick, ms(1001));
        let [Action::Abort(err)] = actions.as_slice() else {
            panic!("expected an abort, got {actions:?}")
        };
        assert!(err.starts_with("fabric stalled: 4 cell(s) unsettled"), "{err}");
        assert!(
            err.ends_with(
                "last worker error: dropping connection after wire fault: frame checksum mismatch"
            ),
            "{err}"
        );
        assert!(m.done());
        assert_eq!(m.on(claim(2, 2, 0, 0), ms(1002)), vec![Action::Reply(Msg::Done)]);
    }

    #[test]
    fn workers_sharing_a_label_count_their_faults_apart() {
        let mut m = Machine::new(2, FP, &config(SweepPolicy::default()));
        // Two default-labelled workers, different ids.
        m.on(claim(1, 11, 0, 2), ms(0));
        m.on(claim(2, 22, 0, 3), ms(0));
        assert_eq!(m.ledger().wire_faults, 5, "neither count hides the other");
        // Re-claims report cumulative counts; only the growth is new, also
        // after a reconnect on a fresh connection.
        m.on(claim(1, 11, 0, 2), ms(1));
        m.on(claim(3, 22, 1, 4), ms(1));
        assert_eq!(m.ledger().wire_faults, 6);
        assert_eq!((m.ledger().workers, m.ledger().reconnects), (2, 1));
    }

    #[test]
    fn a_stale_panic_result_is_a_duplicate_and_costs_no_issue_budget() {
        let policy = SweepPolicy { max_retries: 1, keep_going: true };
        let mut m = Machine::new(1, FP, &config(policy));
        let (first, cell) = take_lease(&mut m, 1, ms(0));
        // The lease expires; the cell is leased again at the same attempt.
        m.on(Event::Tick, ms(101));
        take_lease(&mut m, 2, ms(102));
        // The first holder reports late, twice (a duplicated frame): its
        // panic counts once and moves the cell on to attempt 1.
        let panic = CellOutcome::Panic { cause: "boom".into() };
        let report = Event::Result { lease: first, cell, outcome: panic };
        m.on(report.clone(), ms(103));
        m.on(report, ms(104));
        assert_eq!((m.ledger().cell_retries, m.ledger().results_duplicate), (1, 1));
        // The second holder dies holding a claim that went stale: that
        // costs no issue budget, so the retry goes out as issue 1, not 2.
        m.on(Event::Disconnect { conn: 2, cause: None }, ms(105));
        assert_eq!(m.ledger().leases_reissued, 2);
        let (_, retry) = take_lease(&mut m, 3, ms(106));
        assert_eq!(retry, WireCell { attempt: 1, issue: 1, ..cell });
    }

    #[test]
    fn merge_reports_count_and_their_faults_are_remembered() {
        let mut m = Machine::new(1, FP, &config(SweepPolicy::default()));
        let rejected = vec!["checksum mismatch".to_string()];
        m.on(Event::Merged { added: 2, duplicates: 1, rejected, error: None }, ms(0));
        assert!(!m.store_failed());
        let error = Some("disk full".to_string());
        m.on(Event::Merged { added: 0, duplicates: 0, rejected: Vec::new(), error }, ms(1));
        assert!(m.store_failed(), "a refused merge makes the campaign unresumable");
        assert_eq!((m.ledger().records_merged, m.ledger().records_duplicate), (2, 1));
        let actions = m.on(Event::Tick, ms(1001));
        let [Action::Abort(err)] = actions.as_slice() else {
            panic!("expected an abort, got {actions:?}")
        };
        assert!(err.ends_with("dropping unverifiable worker record: checksum mismatch"), "{err}");
    }

    #[test]
    fn a_cell_losing_too_many_leases_fails_with_a_delivery_error() {
        let mut m = Machine::new(1, FP, &config(SweepPolicy::default()));
        for conn in 0..=u64::from(MAX_ISSUES) {
            take_lease(&mut m, conn, ms(conn));
            m.on(Event::Disconnect { conn, cause: None }, ms(conn));
        }
        assert!(m.done());
        assert_eq!(m.ledger().leases_reissued, u64::from(MAX_ISSUES) + 1);
        let results = m.results(|i| format!("cell {i}"));
        let failure = results[0].as_ref().unwrap_err();
        assert_eq!(failure.cause, "lease lost 6 times without a result (workers dying?)");
        assert_eq!(failure.attempts, 0);
    }

    // ---- Virtual-clock simulation -------------------------------------

    /// Whether attempts below some k of cell `idx` panic: half the cells
    /// never do, the rest panic until an attempt that may lie beyond the
    /// retry budget.
    fn cell_fn(seed: u64, idx: usize, attempt: u32) -> Result<(f64, CellStatus), String> {
        let mut h = (seed ^ idx as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^= h >> 29;
        let k = if h.is_multiple_of(2) { 0 } else { (h >> 8) % 5 } as u32;
        if attempt < k {
            Err(format!("cell {idx} panics at attempt {attempt}"))
        } else {
            Ok((idx as f64 + f64::from(attempt) / 8.0, CellStatus::Ok))
        }
    }

    /// A frame in flight: to the machine (`Event`) or to a worker.
    #[derive(Clone)]
    enum Payload {
        ToCoord(Event),
        ToWorker(Msg),
        /// The coordinator closed the connection.
        Eof,
    }

    struct Packet {
        conn: Conn,
        at: Duration,
        payload: Payload,
    }

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    enum Await {
        /// Not connected; (re)connects at `WorkerSim::until`.
        Connect,
        Claim,
        Ack,
        /// Backing off after `wait`, or computing the leased cell.
        Nothing,
        Dismissed,
    }

    struct WorkerSim {
        id: u64,
        session: u32,
        conn: Option<Conn>,
        awaiting: Await,
        /// Reply deadline, back-off end, or reconnect time.
        until: Duration,
        /// The lease held from its receipt until its result is acked.
        lease: Option<(u64, WireCell)>,
        /// The result sent but not acknowledged, resent on reconnect.
        pending: Option<(u64, WireCell, CellOutcome)>,
        /// Corrupt frames this worker has read.
        faults: u64,
        /// Frames received on the current connection and not yet read.
        inbox: VecDeque<Payload>,
    }

    /// An outstanding lease in the oracle: holder, deadline, claim.
    type Held = (Conn, Duration, (usize, u32));

    /// The schedule's own account of the lease rules, checked against
    /// the machine's ledger and results.
    struct Oracle {
        current: Vec<u32>,
        settled: Vec<bool>,
        issues: Vec<u32>,
        delivery_failed: Vec<bool>,
        leases: BTreeMap<u64, Held>,
        issued: u64,
        reissued: u64,
        duplicates: u64,
        coord_faults: u64,
        reported: HashMap<u64, u64>,
        last_activity: Duration,
        aborted: bool,
    }

    impl Oracle {
        fn done(&self) -> bool {
            self.aborted || self.settled.iter().all(|&s| s)
        }

        fn lose(&mut self, lease: u64) {
            let (_, _, (idx, attempt)) =
                self.leases.remove(&lease).expect("lost lease is outstanding");
            self.reissued += 1;
            if self.settled[idx] || self.current[idx] != attempt {
                return;
            }
            self.issues[idx] += 1;
            if self.issues[idx] > MAX_ISSUES {
                self.settled[idx] = true;
                self.delivery_failed[idx] = true;
            }
        }

        fn lose_where(&mut self, lost: impl Fn(&Held) -> bool) {
            if self.done() {
                return;
            }
            let ids: Vec<u64> =
                self.leases.iter().filter(|(_, l)| lost(l)).map(|(&id, _)| id).collect();
            for id in ids {
                self.lose(id);
            }
        }
    }

    struct Sim {
        rng: proptest::TestRng,
        seed: u64,
        n: usize,
        policy: SweepPolicy,
        lease_timeout: Duration,
        stall_timeout: Duration,
        machine: Machine,
        oracle: Oracle,
        now: Duration,
        net: Vec<Packet>,
        /// Connections the coordinator still has open.
        open: HashSet<Conn>,
        next_conn: Conn,
        workers: Vec<WorkerSim>,
        /// Highest attempt ever leased, per cell.
        max_leased: Vec<u32>,
        abort: Option<String>,
    }

    const REPLY_TIMEOUT: Duration = Duration::from_millis(80);

    impl Sim {
        fn chance(&mut self, percent: u64) -> bool {
            self.rng.below(100) < percent
        }

        /// Puts a frame on the network: maybe lost, duplicated, delayed
        /// (sometimes past a lease deadline), or corrupted.
        fn send(&mut self, conn: Conn, payload: Payload) {
            if self.chance(2) {
                return;
            }
            let copies = if self.chance(3) { 2 } else { 1 };
            let corrupt = matches!(payload, Payload::ToCoord(_)) && self.chance(2);
            let payload = if corrupt {
                Payload::ToCoord(Event::Disconnect {
                    conn,
                    cause: Some(WireError::Protocol("frame checksum mismatch".into())),
                })
            } else {
                payload
            };
            for _ in 0..copies {
                let delay = if self.chance(1) {
                    self.lease_timeout * 2
                } else {
                    Duration::from_millis(self.rng.below(8))
                };
                self.net.push(Packet { conn, at: self.now + delay, payload: payload.clone() });
            }
        }

        /// Applies an event to the machine and the oracle, and routes
        /// the machine's replies.
        fn coord(&mut self, conn: Conn, event: Event) {
            if !self.open.contains(&conn) {
                return;
            }
            let now = self.now;
            let o = &mut self.oracle;
            let disconnect = matches!(event, Event::Disconnect { .. });
            match &event {
                Event::Claim { id, faults, .. } => {
                    o.last_activity = now;
                    let mark = o.reported.entry(*id).or_insert(0);
                    *mark = (*mark).max(*faults);
                }
                Event::Result { lease, cell, outcome } => {
                    o.last_activity = now;
                    let idx = cell.fg * self.n + cell.bg;
                    if o.leases.get(lease).is_some_and(|held| held.2 .0 == idx) {
                        o.leases.remove(lease);
                    }
                    if o.settled[idx] || o.current[idx] != cell.attempt {
                        o.duplicates += 1;
                    } else if matches!(outcome, CellOutcome::Panic { .. })
                        && cell.attempt < self.policy.max_retries
                    {
                        o.current[idx] += 1;
                    } else {
                        o.settled[idx] = true;
                    }
                }
                Event::Heartbeat { lease } => {
                    o.last_activity = now;
                    if let Some((_, deadline, _)) = o.leases.get_mut(lease) {
                        *deadline = now + self.lease_timeout;
                    }
                }
                Event::Disconnect { cause, .. } => {
                    if cause.is_some() {
                        o.coord_faults += 1;
                    }
                    o.lose_where(|l| l.0 == conn);
                }
                Event::Merged { .. } | Event::Tick => unreachable!("not a connection event"),
            }
            let actions = self.machine.on(event, now);
            if disconnect {
                self.open.remove(&conn);
                let quiet = actions.iter().all(|a| matches!(a, Action::Progress { .. }));
                assert!(quiet, "a disconnect needs no reply: {actions:?}");
            }
            for action in actions {
                match action {
                    Action::Reply(msg) => {
                        if let Msg::Lease { id, cell, .. } = msg {
                            self.issued(conn, id, cell);
                        }
                        let done = msg == Msg::Done;
                        self.send(conn, Payload::ToWorker(msg));
                        if done {
                            // The driver closes a dismissed connection.
                            self.net.push(Packet { conn, at: self.now, payload: Payload::Eof });
                            self.coord(conn, Event::Disconnect { conn, cause: None });
                            return;
                        }
                    }
                    Action::Progress { .. } => {}
                    other => panic!("unexpected {other:?} for a worker frame"),
                }
            }
        }

        fn issued(&mut self, conn: Conn, id: u64, c: WireCell) {
            let o = &mut self.oracle;
            o.issued += 1;
            let idx = c.fg * self.n + c.bg;
            assert!(!o.settled[idx], "settled cell {idx} leased");
            assert_eq!(c.attempt, o.current[idx], "cell {idx} leased at a stale attempt");
            assert_eq!(c.issue, o.issues[idx], "cell {idx} issue count");
            let claim = (idx, c.attempt);
            assert!(!o.leases.values().any(|held| held.2 == claim), "claim {claim:?} leased twice");
            self.max_leased[idx] = self.max_leased[idx].max(c.attempt);
            o.leases.insert(id, (conn, self.now + self.lease_timeout, claim));
        }

        fn tick(&mut self) {
            let now = self.now;
            self.oracle.lose_where(|l| l.1 < now);
            let stalls = !self.oracle.done()
                && now.saturating_sub(self.oracle.last_activity) > self.stall_timeout;
            let actions = self.machine.on(Event::Tick, now);
            let abort = actions.into_iter().find_map(|a| match a {
                Action::Abort(msg) => Some(msg),
                _ => None,
            });
            assert_eq!(abort.is_some(), stalls, "stall at {now:?}: {abort:?}");
            if let Some(msg) = abort {
                let unsettled = self.oracle.settled.iter().filter(|&&s| !s).count();
                assert!(msg.starts_with(&format!("fabric stalled: {unsettled} cell(s)")), "{msg}");
                self.oracle.aborted = true;
                self.abort = Some(msg);
            }
        }

        /// The worker closes its connection (timeout, out of step, or a
        /// corrupt frame) and reconnects later.
        fn hang_up(&mut self, w: usize) {
            if let Some(conn) = self.workers[w].conn.take() {
                self.coord(conn, Event::Disconnect { conn, cause: None });
                self.workers[w].session += 1;
            }
            self.workers[w].inbox.clear();
            self.workers[w].awaiting = Await::Connect;
            self.workers[w].until = self.now + Duration::from_millis(self.rng.below(20));
        }

        fn send_claim(&mut self, w: usize) {
            let (conn, wk) = (self.workers[w].conn.expect("connected"), &self.workers[w]);
            let event = Event::Claim {
                conn,
                fp: FP,
                worker: "worker".into(),
                id: wk.id,
                session: wk.session,
                faults: wk.faults,
            };
            self.workers[w].awaiting = Await::Claim;
            self.workers[w].until = self.now + REPLY_TIMEOUT;
            self.send(conn, Payload::ToCoord(event));
        }

        fn send_result(&mut self, w: usize) {
            let conn = self.workers[w].conn.expect("connected");
            let (lease, cell, outcome) = self.workers[w].pending.clone().expect("pending");
            self.workers[w].awaiting = Await::Ack;
            self.workers[w].until = self.now + REPLY_TIMEOUT;
            self.send(conn, Payload::ToCoord(Event::Result { lease, cell, outcome }));
        }

        /// One step of worker `w`'s loop, if it has something to do.
        fn act(&mut self, w: usize) {
            let wk = &self.workers[w];
            match wk.awaiting {
                Await::Dismissed => {}
                Await::Connect if self.now >= wk.until => {
                    let conn = self.next_conn;
                    self.next_conn += 1;
                    self.open.insert(conn);
                    self.workers[w].conn = Some(conn);
                    if self.workers[w].pending.is_some() {
                        self.send_result(w);
                    } else {
                        self.send_claim(w);
                    }
                }
                Await::Claim | Await::Ack => match self.workers[w].inbox.pop_front() {
                    // A corrupt frame: the worker counts it and reconnects.
                    Some(Payload::ToWorker(_)) if self.chance(2) => {
                        self.workers[w].faults += 1;
                        self.hang_up(w);
                    }
                    Some(payload) => self.receive(w, payload),
                    None if self.now > self.workers[w].until => self.hang_up(w),
                    None => {}
                },
                Await::Nothing if self.now >= wk.until => match wk.lease {
                    Some((lease, cell)) => {
                        let idx = cell.fg * self.n + cell.bg;
                        let outcome = match cell_fn(self.seed, idx, cell.attempt) {
                            Ok((value, status)) => CellOutcome::Value { value, status },
                            Err(cause) => CellOutcome::Panic { cause },
                        };
                        self.workers[w].pending = Some((lease, cell, outcome));
                        self.send_result(w);
                    }
                    None => self.send_claim(w),
                },
                _ => {}
            }
        }

        /// Worker `w` reads a frame while awaiting a reply.
        fn receive(&mut self, w: usize, payload: Payload) {
            let awaiting = self.workers[w].awaiting;
            match (payload, awaiting) {
                (_, Await::Dismissed | Await::Connect) => {}
                (Payload::Eof, _) => self.hang_up(w),
                (Payload::ToWorker(Msg::Done), _) => {
                    self.workers[w].awaiting = Await::Dismissed;
                    self.workers[w].conn = None;
                }
                (Payload::ToWorker(Msg::Ack), Await::Claim) => {} // a stray ack
                (Payload::ToWorker(Msg::Ack), Await::Ack) => {
                    self.workers[w].pending = None;
                    self.workers[w].lease = None;
                    self.workers[w].awaiting = Await::Nothing;
                    self.workers[w].until = self.now;
                }
                (Payload::ToWorker(Msg::Lease { id, cell, .. }), Await::Claim) => {
                    self.workers[w].lease = Some((id, cell));
                    self.workers[w].awaiting = Await::Nothing;
                    self.workers[w].until = self.now;
                }
                (Payload::ToWorker(Msg::Wait { ms }), Await::Claim) => {
                    self.workers[w].awaiting = Await::Nothing;
                    self.workers[w].until = self.now + Duration::from_millis(ms);
                }
                // Out of step (a duplicated reply): reconnect, as the
                // real worker does.
                _ => self.hang_up(w),
            }
        }

        fn deliver(&mut self, i: usize) {
            let Packet { conn, payload, .. } = self.net.swap_remove(i);
            match payload {
                // A corrupt frame: the coordinator drops the connection.
                Payload::ToCoord(event @ Event::Disconnect { .. }) => {
                    self.coord(conn, event);
                    self.net.push(Packet { conn, at: self.now, payload: Payload::Eof });
                }
                Payload::ToCoord(event) => self.coord(conn, event),
                worker_bound => {
                    if let Some(wk) = self.workers.iter_mut().find(|wk| wk.conn == Some(conn)) {
                        wk.inbox.push_back(worker_bound);
                    }
                }
            }
        }

        fn kill(&mut self, w: usize) {
            if self.workers[w].awaiting == Await::Dismissed {
                return;
            }
            self.hang_up(w);
            // A respawned process: new identity, no memory.
            let id = self.rng.next_u64();
            let wk = &mut self.workers[w];
            (wk.id, wk.session, wk.lease, wk.pending, wk.faults) = (id, 0, None, None, 0);
        }

        fn step(&mut self) {
            match self.rng.below(100) {
                0..=44 => {
                    let due: Vec<usize> =
                        (0..self.net.len()).filter(|&i| self.net[i].at <= self.now).collect();
                    if !due.is_empty() {
                        let i = due[self.rng.below(due.len() as u64) as usize];
                        self.deliver(i);
                    }
                }
                45..=74 => {
                    let w = self.rng.below(self.workers.len() as u64) as usize;
                    self.act(w);
                }
                75..=86 => self.now += Duration::from_millis(1 + self.rng.below(4)),
                87..=91 => self.tick(),
                92..=96 => {
                    let w = self.rng.below(self.workers.len() as u64) as usize;
                    if let (Some(conn), Some((lease, _))) =
                        (self.workers[w].conn, &self.workers[w].lease)
                    {
                        let lease = *lease;
                        self.send(conn, Payload::ToCoord(Event::Heartbeat { lease }));
                    }
                }
                97 if self.chance(20) => {
                    let w = self.rng.below(self.workers.len() as u64) as usize;
                    self.kill(w);
                }
                98 if self.chance(30) => {
                    // Everyone stalls past the lease deadline.
                    self.now += self.lease_timeout + Duration::from_millis(1);
                    self.tick();
                }
                99 if self.rng.below(50) == 0 => {
                    // Rarely, past the stall deadline too.
                    self.now += self.stall_timeout + Duration::from_millis(1);
                    self.tick();
                }
                _ => {}
            }
        }
    }

    /// Runs one seeded hostile campaign to its end and checks it.
    fn simulate(seed: u64, n: usize, workers: usize, max_retries: u32) {
        let policy = SweepPolicy { max_retries, keep_going: true };
        let mut cfg = config(policy);
        cfg.stall_timeout = ms(2000);
        let total = n * n;
        let mut rng = proptest::TestRng::from_label(&format!("sim {seed}"));
        let workers = (0..workers)
            .map(|_| WorkerSim {
                id: rng.next_u64(),
                session: 0,
                conn: None,
                awaiting: Await::Connect,
                until: Duration::ZERO,
                lease: None,
                pending: None,
                faults: 0,
                inbox: VecDeque::new(),
            })
            .collect();
        let mut sim = Sim {
            rng,
            seed,
            n,
            policy,
            lease_timeout: cfg.lease_timeout,
            stall_timeout: cfg.stall_timeout,
            machine: Machine::new(n, FP, &cfg),
            oracle: Oracle {
                current: vec![0; total],
                settled: vec![false; total],
                issues: vec![0; total],
                delivery_failed: vec![false; total],
                leases: BTreeMap::new(),
                issued: 0,
                reissued: 0,
                duplicates: 0,
                coord_faults: 0,
                reported: HashMap::new(),
                last_activity: Duration::ZERO,
                aborted: false,
            },
            now: Duration::ZERO,
            net: Vec::new(),
            open: HashSet::new(),
            next_conn: 1,
            workers,
            max_leased: vec![0; total],
            abort: None,
        };
        let mut steps = 0;
        while !sim.machine.done() {
            sim.step();
            assert_eq!(sim.machine.done(), sim.oracle.done(), "done disagrees at step {steps}");
            steps += 1;
            assert!(steps < 200_000, "seed {seed}: campaign never finished");
        }
        for (idx, &attempt) in sim.max_leased.iter().enumerate() {
            assert!(attempt <= max_retries, "cell {idx} leased at attempt {attempt}");
        }
        let Sim { machine, oracle, abort, .. } = sim;
        let ledger = *machine.ledger();
        assert_eq!(ledger.leases_issued, oracle.issued, "leases_issued");
        assert_eq!(ledger.leases_reissued, oracle.reissued, "leases_reissued");
        assert_eq!(ledger.results_duplicate, oracle.duplicates, "results_duplicate");
        let reported: u64 = oracle.reported.values().sum();
        assert_eq!(ledger.wire_faults, oracle.coord_faults + reported, "wire_faults");
        if abort.is_some() {
            return;
        }

        let label = |i: usize| format!("{}/{}", i / n, i % n);
        let items: Vec<usize> = (0..total).collect();
        let reference = supervised_map(
            &items,
            policy,
            |i, _| label(i),
            |&i, attempt| cell_fn(seed, i, attempt).unwrap_or_else(|cause| panic!("{cause}")),
            |_, _| {},
        );
        let results = machine.results(label);
        for (idx, (got, want)) in results.iter().zip(&reference).enumerate() {
            match (got, want) {
                (Ok(g), Ok(w)) => assert_eq!((g.0.to_bits(), g.1), (w.0.to_bits(), w.1)),
                (Err(g), _) if oracle.delivery_failed[idx] => {
                    let issues = MAX_ISSUES + 1;
                    let cause =
                        format!("lease lost {issues} times without a result (workers dying?)");
                    assert_eq!((g.index, &g.cause), (idx, &cause));
                    assert_eq!(g.attempts, oracle.current[idx]);
                }
                (Err(g), Err(w)) => assert_eq!(
                    (g.index, &g.spec, &g.cause, g.attempts),
                    (w.index, &w.spec, &w.cause, w.attempts)
                ),
                _ => panic!("seed {seed}: cell {idx} is {got:?}, supervised_map says {want:?}"),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        #[test]
        fn hostile_network_campaigns_match_the_supervised_sweep(
            seed in any::<u64>(),
            n in 1usize..5,
            workers in 1usize..5,
            max_retries in 0u32..4,
        ) {
            simulate(seed, n, workers, max_retries);
        }
    }
}
