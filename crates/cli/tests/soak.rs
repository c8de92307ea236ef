//! Fabric chaos soak: coordinator SIGKILL + `--resume`, and a seeded
//! randomized fault campaign — worker kills and wire faults — always
//! asserting the one invariant that matters: the final CSV is
//! byte-identical to a fault-free run.
//!
//! These tests drive real processes (`CARGO_BIN_EXE_cochar`), so worker
//! death is SIGKILL-real and coordinator death leaves a genuinely stale
//! store lock behind. A killed coordinator's process group goes with it,
//! so its local workers never outlive the test.
#![cfg(unix)]

use std::io::BufRead;
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Duration;

use proptest::prelude::*;

const APPS: [&str; 3] = ["blackscholes", "swaptions", "stream"];
const FAST: [&str; 6] = ["--work", "0.1", "--threads", "1", "--seed", "7"];

fn cochar_dir(args: &[&str], dir: &std::path::Path, envs: &[(&str, &str)]) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_cochar"));
    cmd.args(args).current_dir(dir);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("binary runs")
}

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("cochar-cli-soak-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn sweep_args<'a>(extra: &[&'a str]) -> Vec<&'a str> {
    let mut args = vec!["sweep"];
    args.extend(APPS);
    args.extend(FAST);
    args.extend_from_slice(extra);
    args
}

/// The fault-free reference CSV for the canonical soak campaign.
fn seed_csv(dir: &std::path::Path) -> Vec<u8> {
    let mut heat = vec!["heatmap"];
    heat.extend(APPS);
    heat.extend(FAST);
    heat.extend(["--csv", "seed.csv"]);
    let out = cochar_dir(&heat, dir, &[]);
    assert!(out.status.success(), "heatmap failed:\n{}", String::from_utf8_lossy(&out.stderr));
    std::fs::read(dir.join("seed.csv")).unwrap()
}

/// Pulls the number after `label` out of the ledger lines.
fn ledger_count(text: &str, label: &str) -> u64 {
    text.lines()
        .find_map(|l| l.split(label).nth(1))
        .and_then(|rest| rest.split([',', ' ']).next())
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {label:?} count in:\n{text}"))
}

/// SIGKILLs every process in process group `pgid`.
fn kill_group(pgid: u32) {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    let pgid = i32::try_from(pgid).expect("pid fits an i32");
    // SAFETY: kill(2) takes plain integers; a negative pid names a group.
    let rc = unsafe { kill(-pgid, 9) };
    assert_eq!(rc, 0, "SIGKILL process group {pgid}");
}

/// The local worker stores of the coordinator with pid `coord` in the
/// temp dir: `cochar-fabric-worker<k>-<coord>-<n>`.
fn worker_stores(coord: u32) -> Vec<PathBuf> {
    let coord = coord.to_string();
    let Ok(entries) = std::fs::read_dir(std::env::temp_dir()) else { return Vec::new() };
    entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.strip_prefix("cochar-fabric-worker")
                .and_then(|rest| rest.split('-').nth(1))
                .is_some_and(|pid| pid == coord)
        })
        .collect()
}

/// Spawns a store-backed sweep under `wire_plan` in a process group of
/// its own and, as soon as the first pair cell has settled (the progress
/// line prints only after the records are durably merged), SIGKILLs the
/// whole group: the coordinator and the local workers it spawned. Returns
/// once the coordinator is reaped and the workers' private stores, which
/// the killed coordinator never got to remove, are gone.
fn crash_a_sweep(dir: &std::path::Path, wire_plan: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_cochar"))
        .args(sweep_args(&["--workers", "2", "--store", "runs", "--csv", "crash.csv"]))
        .current_dir(dir)
        .env("COCHAR_CHAOS_WIRE", wire_plan)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .process_group(0)
        .spawn()
        .expect("sweep spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let mut seen = String::new();
    loop {
        match lines.next() {
            Some(Ok(line)) => {
                seen.push_str(&line);
                seen.push('\n');
                if line.starts_with("sweep: ") {
                    break;
                }
            }
            _ => panic!("sweep ended before any pair cell settled:\n{seen}"),
        }
    }
    let coord = child.id();
    kill_group(coord);
    let _ = child.wait();
    // A worker SIGKILLed mid-syscall may still be finishing it, so retry
    // the removal for a few seconds before requiring the stores gone.
    for _ in 0..100 {
        let stores = worker_stores(coord);
        if stores.is_empty() {
            break;
        }
        for store in stores {
            let _ = std::fs::remove_dir_all(store);
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let left = worker_stores(coord);
    assert!(left.is_empty(), "killed sweep left worker stores behind: {left:?}");
}

#[test]
fn coordinator_sigkill_resume_is_byte_identical() {
    let dir = tmpdir("sigkill");
    let seed = seed_csv(&dir);

    // Phase 1: both workers stall their 4th outbound frame for 20s, so
    // at least one pair cell lands and the campaign is guaranteed to
    // still be mid-flight when the SIGKILL arrives.
    crash_a_sweep(&dir, "delay@3:20000");
    assert!(
        dir.join("runs").join("journal.lock").exists(),
        "SIGKILL must leave the stale store lock behind"
    );
    assert!(
        dir.join("runs").join("campaign.json").exists(),
        "campaign metadata must be journaled before cells are issued"
    );
    assert!(!dir.join("crash.csv").exists(), "the killed run must not have finished");

    // Phase 2: resume. The kernel dropped the dead coordinator's lock
    // with it, so the store reopens, the cached cells are re-adopted, and
    // only the missing ones are re-issued.
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--store", "runs", "--resume", "--csv", "res.csv"]),
        &dir,
        &[],
    );
    assert!(
        out.status.success(),
        "resume failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("fabric: resumed after"), "missing resume line:\n{text}");
    assert!(ledger_count(&text, "cells cached ") >= 1, "no cells re-adopted:\n{text}");
    assert_eq!(std::fs::read(dir.join("res.csv")).unwrap(), seed, "resume changed the bytes");

    // Phase 3: resume again over the settled store — nothing left to
    // simulate: every cell adopted from cache, zero leases issued.
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--store", "runs", "--resume", "--csv", "res2.csv"]),
        &dir,
        &[],
    );
    assert!(out.status.success(), "second resume failed:\n{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(ledger_count(&text, "leases issued "), 0, "cells were re-simulated:\n{text}");
    assert_eq!(
        ledger_count(&text, "cells cached ") as usize,
        APPS.len() * APPS.len(),
        "not fully cached:\n{text}"
    );
    assert_eq!(std::fs::read(dir.join("res2.csv")).unwrap(), seed);
    std::fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Randomized end-to-end soak: every case seeds a store-backed sweep
    /// with a random wire-fault schedule (plus a guaranteed mid-flight
    /// stall), SIGKILLs the coordinator after the first settled cell,
    /// then resumes under a *different* random fault mix — sometimes with
    /// a worker that SIGKILLs itself too — and requires the final CSV to
    /// be byte-identical to the fault-free reference.
    #[test]
    fn randomized_chaos_soak_converges_to_the_seed_csv(
        stall_at in 2u64..6,
        fault_pick in any::<u64>(),
        resume_pick in any::<u64>(),
        kill_worker in any::<bool>(),
    ) {
        let dir = tmpdir(&format!("prop-{stall_at}-{fault_pick}"));
        let seed = seed_csv(&dir);

        // Crash phase: one random early fault + the guaranteed stall.
        let extra = match fault_pick % 4 {
            0 => String::new(),
            1 => format!("dup@{},", fault_pick % stall_at),
            2 => format!("flip@{}:{},", fault_pick % stall_at, fault_pick % 200),
            _ => format!("close@{},", fault_pick % stall_at),
        };
        let plan = format!("{extra}delay@{stall_at}:20000");
        crash_a_sweep(&dir, &plan);

        // Resume phase: a different light fault mix; never a long stall.
        let resume_plan = match resume_pick % 4 {
            0 => String::new(),
            1 => format!("dup@{}", resume_pick % 5),
            2 => format!("flip@{}:{}", resume_pick % 5, resume_pick % 300),
            _ => format!("close@{}", resume_pick % 5),
        };
        let mut envs: Vec<(&str, &str)> = Vec::new();
        if !resume_plan.is_empty() {
            envs.push(("COCHAR_CHAOS_WIRE", &resume_plan));
        }
        if kill_worker {
            envs.push(("COCHAR_CHAOS_WORKER", "die@swaptions/stream"));
        }
        let out = cochar_dir(
            &sweep_args(&[
                "--workers", "2", "--store", "runs", "--resume",
                "--lease-timeout-ms", "2000", "--csv", "res.csv",
            ]),
            &dir,
            &envs,
        );
        prop_assert!(
            out.status.success(),
            "resume under chaos failed (plan {plan:?} then {resume_plan:?}, kill_worker \
             {kill_worker}):\nstdout:\n{}\nstderr:\n{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        prop_assert_eq!(
            std::fs::read(dir.join("res.csv")).unwrap(),
            seed.clone(),
            "chaos changed the bytes (plan {:?} then {:?})",
            plan,
            resume_plan
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// The reconnect criterion end-to-end: a worker that loses its link
/// (injected close) must reconnect, resend its unacknowledged result,
/// and finish — no lost cells, the duplicate dismissed at most once, and
/// identical bytes.
#[test]
fn wire_chaos_worker_reconnects_and_finishes() {
    let dir = tmpdir("reconnect");
    let seed = seed_csv(&dir);
    let out = cochar_dir(
        &sweep_args(&["--workers", "2", "--csv", "chaos.csv"]),
        &dir,
        &[("COCHAR_CHAOS_WIRE", "dup@1,close@3")],
    );
    assert!(
        out.status.success(),
        "sweep under wire chaos failed:\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(ledger_count(&text, "reconnects ") >= 1, "no reconnect recorded:\n{text}");
    assert!(
        ledger_count(&text, "results dismissed ") >= 1,
        "duplicate result never dismissed:\n{text}"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("chaos: wire"), "wire chaos never fired:\n{err}");
    assert_eq!(std::fs::read(dir.join("chaos.csv")).unwrap(), seed);
    std::fs::remove_dir_all(&dir).unwrap();
}
