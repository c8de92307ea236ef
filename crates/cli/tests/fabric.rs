//! End-to-end tests of `cochar sweep` and `cochar fabric serve|work`:
//! real worker *processes* (the coordinator spawns this same binary),
//! SIGKILL-level worker death, the store lock, and the byte-identity
//! guarantee against `cochar heatmap`.

use std::process::Command;

fn cochar_dir(args: &[&str], dir: &std::path::Path, envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cochar"));
    cmd.args(args).current_dir(dir);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cochar-cli-fabric-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Small, fast campaign shared by every test here: 2x2 cells at tiny work.
const APPS: [&str; 2] = ["blackscholes", "swaptions"];
const FAST: [&str; 6] = ["--work", "0.1", "--threads", "1", "--seed", "7"];

fn sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["sweep"];
    args.extend(APPS);
    args.extend(FAST);
    args.extend_from_slice(extra);
    args
}

#[test]
fn sweep_csv_is_byte_identical_to_heatmap() {
    // Each command runs in its own directory with the same `--csv` name,
    // so their stdout can be compared byte for byte too.
    let dir = tmpdir("ident");
    let (sweep_dir, heat_dir) = (dir.join("sweep"), dir.join("heatmap"));
    std::fs::create_dir_all(&sweep_dir).unwrap();
    std::fs::create_dir_all(&heat_dir).unwrap();
    let out = cochar_dir(&sweep_args(&["--workers", "2", "--csv", "out.csv"]), &sweep_dir, &[]);
    assert!(out.status.success(), "sweep failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let sweep_text = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(sweep_text.contains("fabric: workers 2"), "missing ledger:\n{sweep_text}");
    assert!(sweep_text.contains("leases issued"), "missing ledger:\n{sweep_text}");

    let mut heat = vec!["heatmap"];
    heat.extend(APPS);
    heat.extend(FAST);
    heat.extend(["--csv", "out.csv"]);
    let out = cochar_dir(&heat, &heat_dir, &[]);
    assert!(out.status.success(), "heatmap failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let heat_text = String::from_utf8_lossy(&out.stdout);

    let sweep_csv = std::fs::read(sweep_dir.join("out.csv")).unwrap();
    let heat_csv = std::fs::read(heat_dir.join("out.csv")).unwrap();
    assert!(!sweep_csv.is_empty());
    assert_eq!(sweep_csv, heat_csv, "sweep CSV must be byte-identical to heatmap CSV");
    let ledger_at = sweep_text.find("\nfabric:").expect("fabric ledger") + 1;
    let sweep_report = &sweep_text[..ledger_at];
    assert_eq!(sweep_report, heat_text, "sweep must print heatmap's report before its ledger");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn killed_worker_is_survived_and_lease_reissued() {
    let dir = tmpdir("kill");
    // One worker SIGKILLs itself the first time it is leased the
    // swaptions/blackscholes cell; the campaign must still complete with
    // a clean exit, a re-issued lease, and the identical CSV.
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--csv", "sweep.csv", "--lease-timeout-ms", "2000"]),
        &dir,
        &[("COCHAR_CHAOS_WORKER", "die@swaptions/blackscholes")],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "sweep died with the worker:\n{err}");
    let text = String::from_utf8_lossy(&out.stdout);
    let reissued: u64 = text
        .lines()
        .find_map(|l| l.split("re-issued ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no re-issued count in:\n{text}"));
    assert!(reissued >= 1, "expected a re-issued lease:\n{text}\n{err}");
    assert!(err.contains("chaos: worker"), "chaos never fired:\n{err}");

    let mut heat = vec!["heatmap"];
    heat.extend(APPS);
    heat.extend(FAST);
    heat.extend(["--csv", "heat.csv"]);
    let out = cochar_dir(&heat, &dir, &[]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(dir.join("sweep.csv")).unwrap(),
        std::fs::read(dir.join("heat.csv")).unwrap(),
        "worker death must not change the bytes"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_cell_is_retried_across_the_wire() {
    let dir = tmpdir("retry");
    // The cell panics on attempt 0 in whichever worker gets it; with
    // --max-retries 1 the coordinator re-issues it with attempt 1.
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--max-retries", "1"]),
        &dir,
        &[("COCHAR_CHAOS_CELL", "swaptions/blackscholes@1")],
    );
    assert!(
        out.status.success(),
        "sweep failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let retries: u64 = text
        .lines()
        .find_map(|l| l.split("cell retries ").nth(1))
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no cell-retries count in:\n{text}"));
    assert!(retries >= 1, "expected a coordinator-side retry:\n{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn always_failing_cell_exits_2_with_a_hole() {
    let dir = tmpdir("fail");
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--max-retries", "1"]),
        &dir,
        &[("COCHAR_CHAOS_CELL", "swaptions/blackscholes")],
    );
    assert_eq!(out.status.code(), Some(2), "failed cells must exit 2");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("failed 1 cells"), "missing failure count:\n{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sweep_store_is_resumable_by_heatmap() {
    let dir = tmpdir("resume");
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--store", "runs", "--csv", "sweep.csv"]),
        &dir,
        &[],
    );
    assert!(out.status.success(), "sweep failed:\n{}", String::from_utf8_lossy(&out.stderr));

    // A sequential heatmap over the same store answers every run from
    // cache: the fabric's merged journal is the real thing.
    let mut heat = vec!["heatmap"];
    heat.extend(APPS);
    heat.extend(FAST);
    heat.extend(["--store", "runs", "--resume", "--csv", "heat.csv"]);
    let out = cochar_dir(&heat, &dir, &[]);
    assert!(out.status.success(), "heatmap failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("store: 0 simulated"), "expected a fully cached pass:\n{text}");
    assert_eq!(
        std::fs::read(dir.join("sweep.csv")).unwrap(),
        std::fs::read(dir.join("heat.csv")).unwrap()
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fabric_work_without_coordinator_fails_cleanly() {
    let dir = tmpdir("nocoord");
    // Nothing listens on this port: the worker must error out, not hang.
    let out = cochar_dir(&["fabric", "work", "--connect", "127.0.0.1:1"], &dir, &[]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("connect"), "unhelpful error:\n{err}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn worker_started_before_serve_wins_the_race() {
    let dir = tmpdir("race");
    // Reserve an ephemeral port, then free it for the coordinator.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);

    // Start the worker FIRST: nothing is listening yet. Its bounded
    // connect retry must carry it across the coordinator's startup,
    // including the solo phase that runs before the listener binds.
    let mut worker = Command::new(env!("CARGO_BIN_EXE_cochar"))
        .args(["fabric", "work", "--connect", &addr, "--connect-retry-ms", "20000"])
        .current_dir(&dir)
        .spawn()
        .expect("worker spawns");
    std::thread::sleep(std::time::Duration::from_millis(300));

    let mut serve = vec!["fabric", "serve"];
    serve.extend(APPS);
    serve.extend(FAST);
    serve.extend(["--bind", &addr, "--workers", "0", "--csv", "race.csv"]);
    let out = cochar_dir(&serve, &dir, &[]);
    assert!(out.status.success(), "serve failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let status = worker.wait().expect("worker exits");
    assert!(status.success(), "early worker must be dismissed cleanly, got {status:?}");

    let mut heat = vec!["heatmap"];
    heat.extend(APPS);
    heat.extend(FAST);
    heat.extend(["--csv", "heat.csv"]);
    let out = cochar_dir(&heat, &dir, &[]);
    assert!(out.status.success());
    assert_eq!(
        std::fs::read(dir.join("race.csv")).unwrap(),
        std::fs::read(dir.join("heat.csv")).unwrap(),
        "the race must not change the bytes"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn gc_refuses_while_a_writer_holds_the_journal() {
    let dir = tmpdir("gclock");
    let store_dir = dir.join("runs");
    // Seed the store with one sweep.
    let out = cochar_dir(&sweep_args(&["--workers", "1", "--store", "runs"]), &dir, &[]);
    assert!(out.status.success(), "sweep failed:\n{}", String::from_utf8_lossy(&out.stderr));

    // Hold the journal open the way a live writer would...
    let store = cochar_store::RunStore::open(&store_dir).unwrap();
    // ...and `store gc` must refuse with a clear error, not corrupt it.
    let out = cochar_dir(&["store", "gc", "--store", "runs"], &dir, &[]);
    assert!(!out.status.success(), "gc must refuse while the journal is locked");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("locked"), "unclear refusal:\n{err}");
    drop(store);

    // Lock released: gc now succeeds.
    let out = cochar_dir(&["store", "gc", "--store", "runs"], &dir, &[]);
    assert!(
        out.status.success(),
        "gc failed after release:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(&dir).unwrap();
}
