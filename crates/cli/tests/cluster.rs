//! End-to-end tests of `cochar cluster run|compare`.

use std::path::PathBuf;
use std::process::Command;

use cochar_store::json::Json;

fn cochar(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_cochar"))
        .args(args)
        .output()
        .expect("binary runs")
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

fn stderr_of_failure(args: &[&str]) -> String {
    let out = cochar(args);
    assert!(!out.status.success(), "cochar {args:?} unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// A scenario small enough for debug-build e2e runs.
const TINY: [&str; 14] = [
    "swaptions",
    "blackscholes",
    "stream",
    "--work",
    "0.2",
    "--threads",
    "2",
    "--nodes",
    "8",
    "--jobs",
    "80",
    "--seed",
    "7",
    "--train-apps",
];

/// A fresh `cochar-cluster-e2e-<tag>-<pid>` directory in the temp dir;
/// each test removes its own at the end.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cochar-cluster-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn tiny(cmd: &[&str], extra: &[&str]) -> Vec<String> {
    let mut args: Vec<String> = cmd.iter().map(|s| s.to_string()).collect();
    args.extend(TINY.iter().map(|s| s.to_string()));
    args.push("2".to_string());
    args.extend(extra.iter().map(|s| s.to_string()));
    args
}

fn mean_stretch(report: &Json, policy: &str, knowledge: &str) -> f64 {
    let runs = match report.field("runs").unwrap() {
        Json::Arr(v) => v,
        other => panic!("runs not an array: {other:?}"),
    };
    let run = runs
        .iter()
        .find(|r| {
            r.get("policy") == Some(&Json::str(policy))
                && r.get("knowledge") == Some(&Json::str(knowledge))
        })
        .unwrap_or_else(|| panic!("no run for {policy}/{knowledge}"));
    run.field("mean_stretch").unwrap().as_f64().unwrap()
}

#[test]
fn compare_is_deterministic_and_interference_awareness_pays() {
    let dir = scratch("compare");
    let j1 = dir.join("r1.json");
    let j2 = dir.join("r2.json");
    let c1 = dir.join("r1.csv");

    let args = tiny(
        &["cluster", "compare"],
        &["--json", j1.to_str().unwrap(), "--csv", c1.to_str().unwrap()],
    );
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let s = stdout(&argrefs);
    assert!(s.contains("regret"), "no regret summary:\n{s}");
    assert!(s.contains("headline"), "no headline:\n{s}");

    let args2 = tiny(&["cluster", "compare"], &["--json", j2.to_str().unwrap()]);
    let argrefs2: Vec<&str> = args2.iter().map(|s| s.as_str()).collect();
    stdout(&argrefs2);

    let a = std::fs::read_to_string(&j1).unwrap();
    let b = std::fs::read_to_string(&j2).unwrap();
    assert_eq!(a, b, "seeded compare reruns must be byte-identical");

    let report = Json::parse(&a).unwrap();
    // Every policy is present on both knowledge matrices.
    for policy in ["random", "first-fit", "best-fit", "spread", "interference-aware", "defrag"]
    {
        for knowledge in ["measured", "predicted"] {
            assert!(mean_stretch(&report, policy, knowledge) >= 0.9);
        }
    }
    // The acceptance check: interference-aware placement beats first-fit
    // on mean stretch in the smoke scenario.
    let ia = mean_stretch(&report, "interference-aware", "measured");
    let ff = mean_stretch(&report, "first-fit", "measured");
    assert!(ia < ff, "interference-aware {ia} not better than first-fit {ff}");

    // CSV: header + one row per run.
    let csv = std::fs::read_to_string(&c1).unwrap();
    assert_eq!(csv.lines().count(), 1 + 12, "csv rows:\n{csv}");
    assert!(csv.starts_with("policy,knowledge,mean_stretch"));
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Stable hash of the `TINY` compare JSON. The report is built from every
/// `ClusterOutcome` float, so any drift in the engine's arithmetic moves it.
const TINY_COMPARE_JSON_HASH: &str = "3d947e0ee9635993";

#[test]
fn compare_json_is_pinned() {
    let dir = scratch("pinned");
    let json = dir.join("report.json");
    let args = tiny(&["cluster", "compare"], &["--json", json.to_str().unwrap()]);
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    stdout(&argrefs);
    let text = std::fs::read_to_string(&json).unwrap();
    let mut h = cochar_machine::StableHasher::new();
    h.write_str(&text);
    assert_eq!(format!("{:016x}", h.finish()), TINY_COMPARE_JSON_HASH, "report:\n{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn run_reports_one_policy_and_traces_round_trip() {
    let dir = scratch("run");
    let trace = dir.join("jobs.trace");
    let j1 = dir.join("gen.json");
    let j2 = dir.join("replay.json");

    // Generate the workload, saving the trace.
    let args = tiny(
        &["cluster", "run"],
        &[
            "--policy",
            "first-fit",
            "--trace-out",
            trace.to_str().unwrap(),
            "--json",
            j1.to_str().unwrap(),
        ],
    );
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    let s = stdout(&argrefs);
    assert!(s.contains("mean stretch"), "no outcome table:\n{s}");
    assert!(s.contains("first-fit placement"), "header missing policy:\n{s}");

    // The trace file is the documented CSV shape.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.starts_with("# cochar cluster trace v1"), "{text}");
    assert!(text.lines().filter(|l| !l.starts_with('#')).count() == 80);

    // Replaying the trace reproduces the same metrics (the trace rounds
    // arrivals/work to 6 decimals, so compare parsed values, not bytes).
    let args = tiny(
        &["cluster", "run"],
        &[
            "--policy",
            "first-fit",
            "--trace",
            trace.to_str().unwrap(),
            "--json",
            j2.to_str().unwrap(),
        ],
    );
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    stdout(&argrefs);
    let gen = Json::parse(&std::fs::read_to_string(&j1).unwrap()).unwrap();
    let replay = Json::parse(&std::fs::read_to_string(&j2).unwrap()).unwrap();
    let a = mean_stretch(&gen, "first-fit", "measured");
    let b = mean_stretch(&replay, "first-fit", "measured");
    assert!((a - b).abs() < 1e-3, "trace replay diverged: {a} vs {b}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_inputs_are_reported_not_panics() {
    // Unknown policy.
    let args = tiny(&["cluster", "run"], &["--policy", "psychic"]);
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    assert!(stderr_of_failure(&argrefs).contains("unknown policy"));

    // Unknown application.
    let e = stderr_of_failure(&["cluster", "compare", "swaptions", "nope", "--jobs", "10"]);
    assert!(e.contains("unknown application"), "{e}");

    // Unknown composition.
    let args = tiny(&["cluster", "run"], &["--compose", "median"]);
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    assert!(stderr_of_failure(&argrefs).contains("unknown composition"));

    // Out-of-range train split.
    let args = tiny(&["cluster", "compare"], &["--train-apps", "9"]);
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    // tiny() appends its own --train-apps 2 first; the later flag wins.
    assert!(stderr_of_failure(&argrefs).contains("--train-apps"));

    // Missing trace file.
    let args = tiny(&["cluster", "run"], &["--trace", "/nonexistent/jobs.trace"]);
    let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
    assert!(stderr_of_failure(&argrefs).contains("reading"));

    // Unknown subcommand.
    let e = stderr_of_failure(&["cluster", "meditate"]);
    assert!(e.contains("unknown cluster subcommand"), "{e}");

    // A QoS cap or SLO that is not positive and finite would silently
    // count no co-run (NaN) or every co-run (negative) as a violation.
    // Both are rejected before the matrix is measured.
    for (flag, value) in [("--qos", "nan"), ("--qos", "-1"), ("--slo", "nan"), ("--slo", "0")] {
        let args = tiny(&["cluster", "compare"], &[flag, value]);
        let argrefs: Vec<&str> = args.iter().map(|s| s.as_str()).collect();
        let out = cochar(&argrefs);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}");
        let e = String::from_utf8_lossy(&out.stderr);
        assert!(e.contains(&format!("{flag} must be positive")), "{flag} {value}: {e}");
        assert!(out.stdout.is_empty(), "{flag} {value} measured before failing");
    }
}

/// The last `store:` ledger line of a command's stdout, without the
/// store directory it names.
fn ledger(out: &str) -> &str {
    let line = out.lines().rfind(|l| l.starts_with("store: ")).expect("no store ledger");
    line.split(" resident in ").next().unwrap()
}

#[test]
fn compare_simulates_each_run_once_and_counts_only_journal_hits() {
    let dir = scratch("ledger");
    let store = dir.join("store");
    let store = store.to_str().unwrap();
    let run = |tag: &str, extra: &[&str]| {
        let json = dir.join(format!("{tag}.json"));
        let mut args: Vec<&str> = "cluster compare swaptions blackscholes stream --work 0.2 \
                                   --threads 2 --nodes 64 --jobs 1000 --seed 7"
            .split_whitespace()
            .collect();
        args.extend(["--store", store, "--json", json.to_str().unwrap()]);
        args.extend_from_slice(extra);
        let out = stdout(&args);
        (ledger(&out).to_string(), std::fs::read(&json).unwrap())
    };

    // The measured matrix and the predictor's training pairs share runs;
    // a fresh store journals each of the 36 distinct runs once and has
    // nothing to report as a hit.
    let (fresh, report) = run("fresh", &[]);
    assert_eq!(fresh, "store: 36 simulated, 0 cached (36");
    // --no-cache reads nothing from the journal, yet still simulates each
    // distinct run only once.
    let (no_cache, no_cache_report) = run("no-cache", &["--no-cache"]);
    assert_eq!(no_cache, "store: 36 simulated, 0 cached (36");
    // A resumed run adopts each journaled run exactly once.
    let (resumed, resumed_report) = run("resume", &["--resume"]);
    assert_eq!(resumed, "store: 0 simulated, 36 cached (36");

    assert_eq!(no_cache_report, report, "--no-cache changed the report");
    assert_eq!(resumed_report, report, "--resume changed the report");
    std::fs::remove_dir_all(&dir).unwrap();
}
