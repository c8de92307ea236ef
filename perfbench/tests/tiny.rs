//! Runs every workload at `--size tiny` and checks the result line
//! against `BENCHMARK.json`: every named metric prints with its unit,
//! every output check runs, and every check passes.

use std::path::PathBuf;
use std::process::{Command, Output};

use cochar_store::json::Json;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in the manifest's `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let doc = manifest();
    doc.field(section)
        .and_then(|s| s.as_arr())
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = m.field("name").and_then(|v| v.as_str()).expect("name");
            let unit = m.field("unit").and_then(|v| v.as_str()).expect("unit");
            (name.to_string(), unit.to_string())
        })
        .collect()
}

/// Runs the benchmark in a directory of its own under the target dir.
fn bench(tag: &str, args: &[&str]) -> Output {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    std::fs::create_dir_all(&dir).expect("test dir");
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark runs")
}

/// Runs one tiny workload and checks its result line.
fn run_tiny(workload: &str, trace: &str, section: &str, checks: &[&str]) {
    let out = bench(
        &format!("{workload}-{trace}"),
        &[
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--size",
            "tiny",
        ],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} failed:\n{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert!(result.field("correct").and_then(|v| v.as_bool()).unwrap());
    assert!(result.field("attempted").and_then(|v| v.as_u64()).unwrap() >= 1);
    assert_eq!(result.field("failed").and_then(|v| v.as_u64()).unwrap(), 0);

    let Json::Obj(metrics) = result.field("metrics").unwrap() else { panic!("metrics object") };
    let printed: Vec<(String, String)> = metrics
        .iter()
        .map(|(name, m)| {
            assert!(m.field("value").and_then(|v| v.as_f64()).unwrap().is_finite(), "{name}");
            (name.clone(), m.field("unit").and_then(|v| v.as_str()).unwrap().to_string())
        })
        .collect();
    let mut want = declared(section);
    let mut got = printed;
    want.sort();
    got.sort();
    assert_eq!(got, want, "{workload} --trace {trace} metrics differ from BENCHMARK.json");

    let ran = stderr
        .lines()
        .find_map(|l| l.strip_prefix("perfbench: checks run: "))
        .expect("the run lists its checks");
    for check in checks.iter().chain(&["counts-pinned"]) {
        assert!(ran.split(", ").any(|c| c == *check), "{workload}: check {check} did not run");
    }
}

#[test]
fn campaign_cold_prints_and_checks() {
    run_tiny("campaign-cold", "0", "end_to_end", &["cold-csv-pinned", "cold-store-fresh"]);
}

#[test]
fn campaign_warm_prints_and_checks() {
    run_tiny(
        "campaign-warm",
        "0",
        "end_to_end",
        &["light-csv-pinned", "warm-csv-reproduced", "warm-runs-cached"],
    );
}

#[test]
fn sweep_light_prints_and_checks() {
    run_tiny(
        "sweep-light",
        "0",
        "end_to_end",
        &["light-csv-pinned", "sweep-csv-matches-reference", "sweep-store-intact"],
    );
}

#[test]
fn placement_prints_and_checks() {
    run_tiny("placement", "0", "end_to_end", &["report-json-pinned"]);
}

#[test]
fn traced_run_prints_every_layer_and_runs_every_check() {
    run_tiny(
        "placement",
        "1",
        "per_layer",
        &[
            "cold-csv-pinned",
            "cold-store-fresh",
            "light-csv-pinned",
            "warm-csv-reproduced",
            "warm-runs-cached",
            "sweep-csv-matches-reference",
            "sweep-store-intact",
            "report-json-pinned",
        ],
    );
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out =
        bench("bad", &["--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
