//! End-to-end fabric tests with in-process workers: the coordinator runs
//! on the test thread, workers run on plain `std::thread`s that call
//! [`run_worker`] against the ephemeral listen port. No subprocesses here
//! (the CLI e2e suite covers process-level death); these tests pin down
//! the protocol, the retry policy split, and CSV byte-identity.

use std::sync::mpsc;
use std::time::Duration;

use cochar_colocation::{Heatmap, SweepPolicy};
use cochar_fabric::{
    run_campaign, run_worker, CampaignSpec, FabricConfig, WirePlan, WorkerChaos, WorkerCmd,
    WorkerConfig, WorkerSummary,
};

const NAMES: [&str; 3] = ["blackscholes", "swaptions", "stream"];

fn tiny_spec() -> CampaignSpec {
    CampaignSpec {
        machine: "tiny".into(),
        work: 0.1,
        threads: 1,
        trials: 1,
        seed: 7,
        msr: 0,
        names: NAMES.iter().map(|s| s.to_string()).collect(),
    }
}

/// How an in-process worker ended, by label.
type Report = (String, Result<WorkerSummary, String>);

/// Runs `cfg` on a detached thread (a hang-chaos worker sleeps forever
/// and must not block test exit). With `report`, the worker sends its
/// result there when it returns.
fn spawn_worker(cfg: WorkerConfig, report: Option<mpsc::Sender<Report>>) {
    std::thread::spawn(move || {
        let result = run_worker(&cfg);
        if let Some(tx) = report {
            // The receiver is gone only if the test already failed.
            let _ = tx.send((cfg.label, result));
        }
    });
}

/// Waits for `n` worker reports, fails on any worker error, and returns
/// their summaries. Called after the coordinator returns: a dismissed
/// worker exits at once, one that finds the coordinator gone gives up
/// reconnecting within its `connect_retry` budget.
fn assert_workers_ok(reports: &mpsc::Receiver<Report>, n: usize) -> Vec<WorkerSummary> {
    (0..n)
        .map(|_| {
            let (label, result) = reports
                .recv_timeout(Duration::from_secs(60))
                .expect("a healthy worker returns after the campaign");
            result.unwrap_or_else(|e| panic!("worker {label} failed: {e}"))
        })
        .collect()
}

/// Runs `spec` through the fabric with `n` in-process workers, each
/// configured by `mk_cfg(i, addr)`, and checks that every worker without
/// hang chaos returned `Ok`; returns the outcome and those workers'
/// summaries.
fn run_distributed(
    spec: &CampaignSpec,
    cfg: FabricConfig,
    n: usize,
    mk_cfg: impl Fn(usize, &str) -> WorkerConfig,
) -> (cochar_fabric::FabricOutcome, Vec<WorkerSummary>) {
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..cfg };
    let study = spec.build_study(None).expect("spec builds");
    std::thread::scope(|scope| {
        let spec2 = spec.clone();
        let coord = scope.spawn(move || run_campaign(&study, &spec2, &cfg, |_, _| {}));
        let addr = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("coordinator publishes its address");
        let (report, reports) = mpsc::channel();
        let mut healthy = 0;
        for i in 0..n {
            let wcfg = mk_cfg(i, &addr);
            let hangs = matches!(wcfg.chaos_worker, Some(WorkerChaos::Hang { .. }));
            if !hangs {
                healthy += 1;
            }
            spawn_worker(wcfg, (!hangs).then(|| report.clone()));
        }
        let outcome = coord.join().expect("coordinator thread").expect("campaign succeeds");
        (outcome, assert_workers_ok(&reports, healthy))
    })
}

fn reference_csv(spec: &CampaignSpec) -> String {
    let study = spec.build_study(None).expect("spec builds");
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    Heatmap::compute(&study, &names).to_csv()
}

#[test]
fn distributed_equals_local() {
    let spec = tiny_spec();
    let (outcome, _) = run_distributed(&spec, FabricConfig::default(), 2, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    assert!(outcome.ledger.workers >= 1);
    assert!(outcome.ledger.leases_issued as usize >= NAMES.len() * NAMES.len());
    assert!(!outcome.store_degraded);
}

#[test]
fn more_workers_than_cells_are_all_dismissed_cleanly() {
    // Four cells, six workers: at least two claims find nothing to lease
    // and are held until the campaign ends.
    let spec =
        CampaignSpec { names: NAMES[..2].iter().map(|s| s.to_string()).collect(), ..tiny_spec() };
    let (outcome, workers) = run_distributed(&spec, FabricConfig::default(), 6, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    assert_eq!((outcome.ledger.reconnects, outcome.ledger.wire_faults), (0, 0));
    assert_eq!(workers.len(), 6);
    for summary in &workers {
        // A worker returns `Ok` without a reconnect only when dismissed.
        assert_eq!((summary.reconnects, summary.wire_faults), (0, 0), "{summary:?}");
    }
}

#[test]
fn panicking_cell_is_retried_by_coordinator() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        policy: SweepPolicy { max_retries: 1, keep_going: true },
        ..FabricConfig::default()
    };
    // The worker's chaos cell panics on attempt 0 and succeeds from
    // attempt 1 — so the CSV only matches the reference if the
    // coordinator actually re-issues with a bumped attempt.
    let (outcome, _) = run_distributed(&spec, cfg, 1, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_cell = Some(("swaptions".into(), "stream".into(), 1));
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.cell_retries >= 1);
    // The retried cell reseeds with attempt 1, so the reference is a
    // single-process *supervised* sweep under the same chaos cell — the
    // fabric must agree with it byte-for-byte, including the retry.
    let ref_study = spec
        .build_study(None)
        .expect("spec builds")
        .with_chaos_cell("swaptions", "stream", 1);
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let (ref_map, ref_failures) = Heatmap::compute_supervised(
        &ref_study,
        &names,
        SweepPolicy { max_retries: 1, keep_going: true },
        |_, _| {},
    );
    assert!(ref_failures.is_empty());
    assert_eq!(outcome.heatmap.to_csv(), ref_map.to_csv());
}

#[test]
fn exhausted_retries_leave_a_hole() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        policy: SweepPolicy { max_retries: 1, keep_going: true },
        ..FabricConfig::default()
    };
    // Succeeds only from attempt 5, budget allows attempts 0 and 1.
    let (outcome, _) = run_distributed(&spec, cfg, 1, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_cell = Some(("swaptions".into(), "stream".into(), 5));
        c
    });
    assert_eq!(outcome.failures.len(), 1);
    let f = &outcome.failures[0];
    assert_eq!(f.spec, "swaptions/stream");
    assert_eq!(f.attempts, 2, "max_retries 1 means exactly two attempts");
    let csv = outcome.heatmap.to_csv();
    assert!(csv.contains("NaN") || csv.contains("nan"), "hole in csv: {csv}");

    // The single-process supervisor over the same chaos study records
    // the identical failure: one scheduler decides both.
    let ref_study =
        spec.build_study(None).expect("spec builds").with_chaos_cell("swaptions", "stream", 5);
    let names: Vec<&str> = spec.names.iter().map(|s| s.as_str()).collect();
    let (ref_map, ref_failures) = Heatmap::compute_supervised(
        &ref_study,
        &names,
        SweepPolicy { max_retries: 1, keep_going: true },
        |_, _| {},
    );
    assert_eq!(ref_failures.len(), 1);
    let r = &ref_failures[0];
    assert_eq!((&f.spec, f.attempts, &f.cause, f.index), (&r.spec, r.attempts, &r.cause, r.index));
    assert_eq!(csv, ref_map.to_csv());
}

#[test]
fn hung_worker_lease_expires_and_cell_is_reissued() {
    let spec = tiny_spec();
    let cfg = FabricConfig {
        lease_timeout: Duration::from_millis(400),
        ..FabricConfig::default()
    };
    // Both workers arm the same hang cell: chaos fires only on the first
    // issue, so whichever worker draws the trigger cell silences its
    // heartbeat and sleeps — the other must pick up the expired lease and
    // compute the re-issue (issue 1) normally. The hung worker never
    // returns to remove a scratch store, so the stores live in a test
    // directory removed here.
    let dir = std::env::temp_dir().join(format!("cochar-fabric-test-hang-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (outcome, _) = run_distributed(&spec, cfg, 2, |i, addr| {
        let mut c = WorkerConfig::new(addr);
        c.label = format!("w{i}");
        c.store_dir = Some(dir.join(&c.label));
        c.chaos_worker =
            Some(WorkerChaos::Hang { fg: "blackscholes".into(), bg: "swaptions".into() });
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.leases_reissued >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn store_backed_campaign_is_cached_on_rerun() {
    let dir = std::env::temp_dir()
        .join(format!("cochar-fabric-test-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = tiny_spec();
    let store = cochar_store::RunStore::open(&dir).expect("store opens");
    let study = spec.build_study(Some(store)).expect("spec builds");

    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let first = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");
        let (report, reports) = mpsc::channel();
        spawn_worker(WorkerConfig::new(&addr), Some(report));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        assert_workers_ok(&reports, 1);
        outcome
    });
    assert!(first.failures.is_empty());
    assert!(first.ledger.records_merged > 0, "worker results land in the store");

    // Second run over the same store, now with --resume: every cell
    // resolves from cache, no listener, no workers — the CSV is
    // byte-identical, and the ledger log shows the prior run.
    let cfg2 = FabricConfig { resume: true, ..FabricConfig::default() };
    let second = run_campaign(&study, &spec, &cfg2, |_, _| {}).expect("cached rerun");
    assert_eq!(second.ledger.cells_cached as usize, NAMES.len() * NAMES.len());
    assert_eq!(second.ledger.leases_issued, 0);
    assert_eq!(first.heatmap.to_csv(), second.heatmap.to_csv());
    let prior = second.resumed.expect("resume reads the ledger log");
    assert!(prior.runs >= 1, "prior: {prior:?}");
    assert_eq!(prior.ledger.records_merged, first.ledger.records_merged);

    drop(study);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_a_different_campaign() {
    let dir = std::env::temp_dir()
        .join(format!("cochar-fabric-test-refuse-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The store was journaled for the canonical tiny campaign...
    std::fs::create_dir_all(&dir).unwrap();
    cochar_fabric::recover::save_campaign(&dir, &tiny_spec()).expect("journal campaign");
    // ...but the resuming command line describes a different one.
    let mut other = tiny_spec();
    other.seed = 99;
    let store = cochar_store::RunStore::open(&dir).expect("store opens");
    let study = other.build_study(Some(store)).expect("spec builds");
    let cfg = FabricConfig { resume: true, ..FabricConfig::default() };
    let err = match run_campaign(&study, &other, &cfg, |_, _| {}) {
        Err(e) => e,
        Ok(_) => panic!("mismatched --resume must refuse to run"),
    };
    assert!(err.contains("--resume refused"), "unexpected error: {err}");

    drop(study);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicated_result_is_dismissed_exactly_once() {
    let spec = tiny_spec();
    // Outbound frame 1 is the worker's first result; `dup@1` sends it
    // twice. The coordinator must settle the cell once, dismiss the
    // replay, and the CSV must be unaffected.
    let (outcome, _) = run_distributed(&spec, FabricConfig::default(), 1, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("dup@1").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.ledger.results_duplicate, 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn corrupted_frame_forces_reconnect_and_resend() {
    let spec = tiny_spec();
    // Bit 40 lands in the frame checksum, so the coordinator sees a
    // checksum mismatch on the worker's first result, drops the
    // connection, and the worker must reconnect and resend the
    // unacknowledged result.
    let (outcome, _) = run_distributed(&spec, FabricConfig::default(), 1, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("flip@1:40").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.wire_faults >= 1, "ledger: {:?}", outcome.ledger);
    assert!(outcome.ledger.reconnects >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn injected_close_is_survived_by_reconnect() {
    let spec = tiny_spec();
    let (outcome, _) = run_distributed(&spec, FabricConfig::default(), 1, |_, addr| {
        let mut c = WorkerConfig::new(addr);
        c.chaos_wire = Some(WirePlan::parse("close@2").unwrap());
        c
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert!(outcome.ledger.reconnects >= 1, "ledger: {:?}", outcome.ledger);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn mismatched_fingerprint_claim_is_dismissed() {
    use cochar_fabric::wire::{write_frame, Frame, FrameReader, Msg};

    let spec = tiny_spec();
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let study = spec.build_study(None).expect("spec builds");
    let outcome = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");

        // A raw client that echoes the wrong fingerprint: it must get
        // `done` (dismissal), never a lease.
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = FrameReader::new(stream);
        let fp = loop {
            match reader.next_frame().expect("hello frame") {
                Frame::Msg(Msg::Hello { fp, .. }) => break fp,
                Frame::Idle => continue,
                other => panic!("expected hello, got {other:?}"),
            }
        };
        let claim =
            Msg::Claim { fp: fp ^ 1, worker: "impostor".into(), id: 1, session: 0, faults: 0 };
        write_frame(&mut writer, &claim).expect("claim");
        let reply = loop {
            match reader.next_frame().expect("reply frame") {
                Frame::Msg(m) => break m,
                Frame::Idle => continue,
                Frame::Eof => panic!("eof before reply"),
            }
        };
        assert!(matches!(reply, Msg::Done), "impostor got {reply:?}");

        // An honest worker then completes the campaign.
        let (report, reports) = mpsc::channel();
        spawn_worker(WorkerConfig::new(&addr), Some(report));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        assert_workers_ok(&reports, 1);
        outcome
    });
    assert!(outcome.failures.is_empty());
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
}

#[test]
fn stall_error_names_the_last_worker_fault() {
    use cochar_fabric::wire::{write_frame, Frame, FrameReader, Msg};

    let spec = tiny_spec();
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig {
        on_bound: Some(tx),
        stall_timeout: Duration::from_secs(2),
        ..FabricConfig::default()
    };
    let study = spec.build_study(None).expect("spec builds");
    let err = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");

        // A worker that sends one corrupt frame, then goes quiet with its
        // socket still open.
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = FrameReader::new(stream);
        let fp = loop {
            match reader.next_frame().expect("hello frame") {
                Frame::Msg(Msg::Hello { fp, .. }) => break fp,
                Frame::Idle => continue,
                other => panic!("expected hello, got {other:?}"),
            }
        };
        let claim = Msg::Claim { fp, worker: "garbled".into(), id: 1, session: 0, faults: 0 };
        let mut frame = Vec::new();
        write_frame(&mut frame, &claim).expect("encode claim");
        *frame.last_mut().unwrap() ^= 0x01; // payload no longer matches its checksum
        std::io::Write::write_all(&mut writer, &frame).expect("send corrupt frame");

        let result = coord.join().expect("coordinator thread");
        drop(writer);
        match result {
            Err(e) => e,
            Ok(_) => panic!("a campaign with no working worker must stall"),
        }
    });
    assert!(err.starts_with("fabric stalled:"), "unexpected error: {err}");
    let last = err.split("last worker error: ").nth(1).expect("stall error names the last fault");
    assert!(last.contains("wire fault"), "last fault is not the corrupt frame: {err}");
}

#[test]
fn out_of_range_result_is_a_wire_fault() {
    use cochar_fabric::wire::{write_frame, CellOutcome, Frame, FrameReader, Msg, WireCell};

    let spec = tiny_spec();
    let n = NAMES.len();
    let (tx, rx) = mpsc::channel();
    let cfg = FabricConfig { on_bound: Some(tx), ..FabricConfig::default() };
    let study = spec.build_study(None).expect("spec builds");
    let outcome = std::thread::scope(|scope| {
        let coord = scope.spawn(|| run_campaign(&study, &spec, &cfg, |_, _| {}));
        let addr = rx.recv_timeout(Duration::from_secs(30)).expect("bound");

        // A raw client takes a lease, then answers for cell (0, n): one
        // past the last background. Row-major, that index is cell (1, 0),
        // which must not absorb the bogus value.
        let stream = std::net::TcpStream::connect(&addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = FrameReader::new(stream);
        let mut next_msg = move || loop {
            match reader.next_frame() {
                Ok(Frame::Msg(m)) => break Some(m),
                Ok(Frame::Idle) => continue,
                Ok(Frame::Eof) | Err(_) => break None,
            }
        };
        let fp = match next_msg() {
            Some(Msg::Hello { fp, .. }) => fp,
            other => panic!("expected hello, got {other:?}"),
        };
        let claim = Msg::Claim { fp, worker: "off-by-one".into(), id: 1, session: 0, faults: 0 };
        write_frame(&mut writer, &claim).expect("claim");
        let (lease, leased) = match next_msg() {
            Some(Msg::Lease { id, cell, .. }) => (id, cell),
            other => panic!("expected a lease, got {other:?}"),
        };
        let bogus = Msg::Result {
            lease,
            cell: WireCell { fg: 0, bg: n, ..leased },
            outcome: CellOutcome::Value { value: 9.99, status: Default::default() },
            records: Vec::new(),
        };
        write_frame(&mut writer, &bogus).expect("result");
        // Wait until the coordinator has dealt with the result (an ack,
        // or the dropped connection) before any real worker starts.
        let _ = next_msg();
        drop((writer, next_msg));

        let (report, reports) = mpsc::channel();
        spawn_worker(WorkerConfig::new(&addr), Some(report));
        let outcome = coord.join().expect("join").expect("campaign succeeds");
        assert_workers_ok(&reports, 1);
        outcome
    });
    assert!(outcome.failures.is_empty(), "failures: {:?}", outcome.failures);
    assert_eq!(outcome.heatmap.to_csv(), reference_csv(&spec));
    assert!(outcome.ledger.wire_faults >= 1, "ledger: {:?}", outcome.ledger);
}

/// Runs a two-app campaign with one local worker launched by `exe` on a
/// thread, and returns its result; a campaign that has not returned
/// within a minute fails the test instead of hanging it.
fn campaign_with_worker_exe(exe: std::path::PathBuf) -> Result<(), String> {
    let spec =
        CampaignSpec { names: NAMES[..2].iter().map(|s| s.to_string()).collect(), ..tiny_spec() };
    let cfg = FabricConfig {
        workers: 1,
        worker_cmd: Some(WorkerCmd { exe, args: Vec::new() }),
        ..FabricConfig::default()
    };
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let study = spec.build_study(None).expect("spec builds");
        let _ = tx.send(run_campaign(&study, &spec, &cfg, |_, _| {}).map(|_| ()));
    });
    rx.recv_timeout(Duration::from_secs(60)).expect("the campaign returns instead of hanging")
}

#[test]
fn unspawnable_worker_fails_the_campaign() {
    let err = campaign_with_worker_exe("/nonexistent/cochar".into()).unwrap_err();
    assert!(err.contains("spawning worker /nonexistent/cochar"), "{err}");
}

#[test]
fn unspawnable_respawn_fails_the_campaign() {
    // The worker deletes itself and exits, so its first spawn succeeds
    // and the respawn that replaces it cannot start.
    use std::os::unix::fs::PermissionsExt;
    let dir =
        std::env::temp_dir().join(format!("cochar-fabric-test-respawn-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let exe = dir.join("worker.sh");
    std::fs::write(&exe, "#!/bin/sh\nrm -f \"$0\"\n").unwrap();
    std::fs::set_permissions(&exe, std::fs::Permissions::from_mode(0o755)).unwrap();
    let err = campaign_with_worker_exe(exe.clone()).unwrap_err();
    assert!(err.contains("spawning worker"), "{err}");
    assert!(!exe.exists(), "the first worker ran, so the error is the respawn's");
    std::fs::remove_dir_all(&dir).unwrap();
}
