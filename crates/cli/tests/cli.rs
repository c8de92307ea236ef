//! End-to-end tests of the `cochar` binary.

use std::process::Command;

fn cochar(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cochar"))
        .args(args)
        .output()
        .expect("binary runs")
}

/// Like [`cochar`] but with chaos environment variables set for this
/// invocation only (the test process itself stays clean).
fn cochar_env(args: &[&str], envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cochar"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn stdout(args: &[&str]) -> String {
    let out = cochar(args);
    assert!(
        out.status.success(),
        "cochar {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// Fast flags shared by the simulation-driving tests.
const FAST: [&str; 4] = ["--work", "0.2", "--threads", "2"];

#[test]
fn help_lists_commands() {
    let s = stdout(&["help"]);
    for cmd in ["solo", "pair", "heatmap", "schedule", "throttle", "timeline"] {
        assert!(s.contains(cmd), "help missing {cmd}");
    }
}

#[test]
fn list_shows_all_27_workloads() {
    let s = stdout(&["list"]);
    for name in ["G-PR", "fotonik3d", "stream", "bandit", "ATIS"] {
        assert!(s.contains(name), "list missing {name}");
    }
    assert!(s.contains("machine: 8 cores"));
}

#[test]
fn solo_prints_profile_and_hotspots() {
    let mut args = vec!["solo", "G-CC"];
    args.extend(FAST);
    let s = stdout(&args);
    assert!(s.contains("GB/s"));
    assert!(s.contains("CPI"));
    assert!(s.contains("hottest access sites"));
}

#[test]
fn pair_prints_slowdown_and_classification() {
    let mut args = vec!["pair", "swaptions", "blackscholes"];
    args.extend(FAST);
    let s = stdout(&args);
    assert!(s.contains("normalized swaptions runtime"));
    assert!(s.contains("Harmony"), "compute pair must classify Harmony:\n{s}");
}

#[test]
fn heatmap_writes_csv() {
    let dir = std::env::temp_dir().join(format!("cochar_cli_test_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("heat.csv");
    let csv_s = csv.to_str().unwrap();
    let mut args = vec!["heatmap", "swaptions", "blackscholes", "--csv", csv_s];
    args.extend(FAST);
    let s = stdout(&args);
    assert!(s.contains("legend"));
    let contents = std::fs::read_to_string(&csv).unwrap();
    assert!(contents.starts_with("fg\\bg,swaptions,blackscholes"));
    assert_eq!(contents.lines().count(), 3);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn scalability_reports_class() {
    let mut args = vec!["scalability", "swaptions", "--max-threads", "2"];
    args.extend(["--work", "0.2"]);
    let s = stdout(&args);
    assert!(s.contains("max speedup"));
    assert!(s.contains("scalability"));
}

#[test]
fn store_backed_heatmap_is_fully_cached_on_second_pass() {
    let dir = std::env::temp_dir().join(format!("cochar_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("runs");
    let store_s = store.to_str().unwrap();
    let csv1 = dir.join("heat1.csv");
    let csv2 = dir.join("heat2.csv");

    let mut args = vec!["heatmap", "swaptions", "blackscholes", "--store", store_s];
    args.extend(FAST);
    let mut first = args.clone();
    first.extend(["--csv", csv1.to_str().unwrap()]);
    let s1 = stdout(&first);
    assert!(
        s1.contains("simulated, 0 cached"),
        "first pass must simulate everything:\n{s1}"
    );
    assert!(!s1.contains("store: 0 simulated"), "first pass did no work:\n{s1}");

    let mut second = args.clone();
    second.extend(["--csv", csv2.to_str().unwrap(), "--resume"]);
    let s2 = stdout(&second);
    assert!(s2.contains("store: resuming from"), "{s2}");
    assert!(
        s2.contains("store: 0 simulated"),
        "second pass must be fully cached:\n{s2}"
    );
    assert_eq!(
        std::fs::read(&csv1).unwrap(),
        std::fs::read(&csv2).unwrap(),
        "cached heatmap CSV must be byte-identical"
    );

    // Store maintenance over the populated directory.
    let v = stdout(&["store", "verify", "--store", store_s]);
    assert!(v.contains("0 corrupt"), "{v}");
    let ls = stdout(&["store", "ls", "--store", store_s]);
    assert!(ls.contains("swaptions"), "{ls}");
    let gc = stdout(&["store", "gc", "--store", store_s]);
    assert!(gc.contains("kept"), "{gc}");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_sweep_degrades_then_resumes_byte_identically() {
    // The acceptance scenario for the fault-tolerant supervisor: one
    // panicking cell plus a persistently failing store append must still
    // complete every other cell, report the hole, exit with the degraded
    // code, and — once the faults are gone — reproduce the clean CSV
    // byte for byte.
    let dir = std::env::temp_dir().join(format!("cochar_cli_chaos_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("runs");
    let store_s = store.to_str().unwrap();

    // Reference: a never-faulted, store-less sweep.
    let reference_csv = dir.join("reference.csv");
    let mut reference = vec!["heatmap", "swaptions", "blackscholes"];
    reference.extend(FAST);
    reference.extend(["--csv", reference_csv.to_str().unwrap()]);
    stdout(&reference);

    // Faulted sweep: the swaptions/blackscholes cell always panics and
    // the very first journal append hits ENOSPC (persistent).
    let faulted_csv = dir.join("faulted.csv");
    let mut faulted = vec!["heatmap", "swaptions", "blackscholes", "--store", store_s];
    faulted.extend(FAST);
    faulted.extend(["--csv", faulted_csv.to_str().unwrap()]);
    let out = cochar_env(
        &faulted,
        &[
            ("COCHAR_CHAOS_CELL", "swaptions/blackscholes"),
            ("COCHAR_CHAOS_STORE", "enospc@0"),
        ],
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(3), "degraded store must win the exit code:\n{err}");
    assert!(err.contains("degraded"), "stderr should explain the degradation:\n{err}");
    let hole = std::fs::read_to_string(&faulted_csv).unwrap();
    assert!(hole.contains("NaN"), "failed cell must be a NaN hole:\n{hole}");
    let report = std::fs::read_to_string(store.join("failures.jsonl")).unwrap();
    assert!(
        report.contains("swaptions/blackscholes"),
        "failure report must name the cell:\n{report}"
    );

    // Faults removed: the rerun over the same (empty) store completes
    // cleanly and matches the reference exactly.
    let resumed_csv = dir.join("resumed.csv");
    let mut resumed = vec!["heatmap", "swaptions", "blackscholes", "--store", store_s];
    resumed.extend(FAST);
    resumed.extend(["--csv", resumed_csv.to_str().unwrap()]);
    stdout(&resumed);
    assert_eq!(
        std::fs::read(&resumed_csv).unwrap(),
        std::fs::read(&reference_csv).unwrap(),
        "post-fault rerun must be byte-identical to the clean reference"
    );

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn panicking_cell_yields_exit_code_2_and_a_failure_report() {
    let dir = std::env::temp_dir().join(format!("cochar_cli_exit2_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("runs");

    let mut args = vec!["heatmap", "swaptions", "blackscholes", "--store", store.to_str().unwrap()];
    args.extend(FAST);
    let out = cochar_env(&args, &[("COCHAR_CHAOS_CELL", "swaptions/blackscholes")]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "failed cells without store trouble exit 2:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("failed 1 cells"), "ledger must count the hole:\n{s}");
    assert!(store.join("failures.jsonl").exists(), "report lands next to the journal");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn max_retries_recovers_a_flaky_chaos_cell() {
    // The cell panics on attempt 0 and succeeds from attempt 1; one
    // retry turns the sweep into a clean exit with no holes.
    let mut args = vec!["heatmap", "swaptions", "blackscholes", "--max-retries", "1"];
    args.extend(FAST);
    let out = cochar_env(&args, &[("COCHAR_CHAOS_CELL", "swaptions/blackscholes@1")]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "retried cell must recover:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let s = String::from_utf8_lossy(&out.stdout);
    assert!(s.contains("failed 0 cells"), "{s}");
}

#[test]
fn keep_going_and_fail_fast_are_mutually_exclusive() {
    let out = cochar(&["heatmap", "swaptions", "blackscholes", "--keep-going", "--fail-fast"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn resume_without_store_fails() {
    let out = cochar(&["solo", "swaptions", "--resume"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--resume"), "{err}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = cochar(&["frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("commands:"), "usage should be printed");
}

#[test]
fn unknown_app_fails_helpfully() {
    let out = cochar(&["solo", "not-an-app"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown application"));
}

#[test]
fn bad_flag_value_fails() {
    let out = cochar(&["list", "--machine", "quantum"]);
    assert!(!out.status.success());
}
