//! `perfbench`: the cochar benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds N --trace 0|1 [--size full|tiny]
//! ```
//!
//! Drives cochar from one process through the library calls the CLI
//! makes, checks every output, and prints one JSON object as its last
//! line of standard output. With `--trace 0` it holds the workload's
//! end-to-end metrics; with `--trace 1` the run executes every workload
//! once untraced and once traced and holds the per-layer metrics. See
//! `README.md` beside this crate for the workloads and metrics.
//!
//! The binary doubles as the fabric worker sweep-light spawns
//! (`perfbench fabric-worker --connect ADDR ...`).

mod host;
mod plan;
mod tracer;
mod workloads;

use std::process::ExitCode;

use cochar_fabric::{run_worker, WorkerConfig};
use cochar_store::json::Json;

use crate::host::Scratch;
use crate::plan::{Plan, Size};
use crate::tracer::Tracer;
use crate::workloads::{median, Ctx, Metric, Tally, WORKER_MODE};

/// Working directory of every run, relative to where it starts.
const WORK_DIR: &str = ".perfbench";

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = std::collections::HashMap::new();
        for pair in args.chunks(2) {
            match pair {
                [flag, value] if flag.starts_with("--") => {
                    flags.insert(flag[2..].to_string(), value.clone());
                }
                _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
            }
        }
        let mut take = |name: &str| flags.remove(name).ok_or(format!("missing --{name}"));
        let workload = take("workload")?;
        let seed = take("seed")?.parse().map_err(|_| "--seed must be an integer")?;
        let seconds: u64 = take("seconds")?.parse().map_err(|_| "--seconds must be an integer")?;
        let trace = match take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        let size = match flags.remove("size") {
            Some(s) => Size::parse(&s)?,
            None => Size::Full,
        };
        if let Some(flag) = flags.keys().next() {
            return Err(format!("unknown flag --{flag}"));
        }
        let Some(&workload) = workloads::WORKLOADS.iter().find(|w| **w == workload) else {
            return Err(format!(
                "unknown workload {workload:?} ({})",
                workloads::WORKLOADS.join("|")
            ));
        };
        Ok(Args { workload, seed, seconds: seconds as f64, trace, size })
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(WORKER_MODE) {
        return worker(&args[1..]);
    }
    match run(&args) {
        Ok((tally, metrics)) => {
            eprintln!("perfbench: checks run: {}", tally.checked.join(", "));
            for e in &tally.errors {
                eprintln!("perfbench: CHECK FAILED: {e}");
            }
            let correct = tally.errors.is_empty() && tally.failed == 0;
            println!("{}", result_json(correct, &tally, &metrics));
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(Tally, Vec<Metric>), String> {
    let args = Args::parse(args)?;
    // The benchmark fixes its own CPU placement and never runs the
    // engine's wall-clock phase timers, whatever the caller's environment
    // says. Workers inherit the cleaned environment.
    for var in ["COCHAR_ENGINE_STATS", "COCHAR_NO_PIN"] {
        std::env::remove_var(var);
    }
    let plan = Plan::new(args.size);
    let base = std::env::current_dir().map_err(|e| e.to_string())?.join(WORK_DIR);
    let scratch = Scratch::create(&base)?;
    let wide = host::affinity()?;
    let narrow = host::first_cpu(&wide).ok_or("the process may run on no CPU")?;
    host::set_affinity(&narrow)?;
    eprintln!(
        "perfbench: {} seed {}: {} CPU(s) allowed, sweeps see {}",
        args.workload,
        args.seed,
        wide.iter().map(|w| w.count_ones()).sum::<u32>(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let mut cx = Ctx {
        plan: &plan,
        seed: args.seed,
        seconds: args.seconds,
        min_reps: 3,
        scratch: &scratch,
        narrow,
        wide,
    };
    let (mut tally, metrics) = if args.trace {
        // One rep of everything: the per-layer numbers, not their spread.
        cx.seconds = 0.0;
        cx.min_reps = 1;
        let (mut tally, spans) = workloads::traced_suite(&cx)?;
        let path = base.join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("perfbench: spans written to {}", path.display());
        let metrics = std::mem::take(&mut tally.layers);
        (tally, metrics)
    } else {
        let mut tally = Tally::new(args.workload);
        workloads::run(args.workload, &cx, &Tracer::new(false), &mut tally)?;
        eprintln!(
            "perfbench: set-up {:?} s, timed {:?} s, cpu {:?} s",
            tally.setup_s, tally.wall_s, tally.cpu_s
        );
        let metrics = vec![
            Metric { name: "wall_s".into(), value: median(&tally.wall_s), unit: "s" },
            Metric { name: "cpu_s".into(), value: median(&tally.cpu_s), unit: "s" },
            Metric { name: "peak_rss_mb".into(), value: scratch.peak_rss_mb()?, unit: "MiB" },
            Metric { name: "setup_s".into(), value: median(&tally.setup_s), unit: "s" },
        ];
        (tally, metrics)
    };
    check_pins(&plan, &mut tally);
    Ok((tally, metrics))
}

/// Every exact count must equal its pinned value: a difference between
/// runs, or between traced and untraced runs, is nondeterminism.
fn check_pins(plan: &Plan, tally: &mut Tally) {
    for (name, value) in tally.counts.clone() {
        eprintln!("perfbench: count {name} = {value}");
        let pinned = plan.pins.counts.iter().find(|(n, _)| *n == name).map(|&(_, v)| v);
        tally.check("counts-pinned", pinned == Some(value), || match pinned {
            Some(pinned) => format!("count {name} = {value}, pinned {pinned}"),
            None => format!("count {name} = {value} is not pinned"),
        });
    }
}

fn result_json(correct: bool, tally: &Tally, metrics: &[Metric]) -> String {
    let metrics = metrics
        .iter()
        .map(|m| {
            let value = if m.unit == "count" && m.value.fract() == 0.0 {
                Json::u64(m.value as u64)
            } else {
                Json::f64(m.value)
            };
            let entry =
                Json::Obj(vec![("value".into(), value), ("unit".into(), Json::str(m.unit))]);
            (m.name.clone(), entry)
        })
        .collect();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(tally.attempted)),
        ("failed".into(), Json::u64(tally.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
    .render()
}

/// Worker mode: the flags `cochar_fabric::run_campaign` appends.
fn worker(args: &[String]) -> ExitCode {
    let mut cfg = WorkerConfig::new("");
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            eprintln!("perfbench worker: odd argument list {args:?}");
            return ExitCode::from(2);
        };
        match flag.as_str() {
            "--connect" => cfg.connect = value.clone(),
            "--worker-store" => cfg.store_dir = Some(value.into()),
            "--label" => cfg.label = value.clone(),
            "--pin-cpu" => cfg.pin_cpu = value.parse().ok(),
            other => {
                eprintln!("perfbench worker: unknown flag {other}");
                return ExitCode::from(2);
            }
        }
    }
    match run_worker(&cfg).and_then(|_| host::record_worker_peak()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench worker {}: {e}", cfg.label);
            ExitCode::FAILURE
        }
    }
}
