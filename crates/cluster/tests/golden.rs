//! Golden bits: every `ClusterOutcome` float, compared by `to_bits()`,
//! plus the integer ledgers, for a fixed set of seeded scenarios.
//!
//! The engine's results must not drift by a single ulp: the regret
//! report and the CLI's JSON and CSV are built from these numbers, and
//! any change to the event loop's floating-point work would move them.
//! The scenarios cover:
//!
//! * all six policies × {max, product} × slots {1, 2, 4} × defrag on and
//!   off, on a destructive 4-app matrix loaded so that queues form;
//! * a 5-app matrix with sub-1.0 (constructive) entries;
//! * the benchmark's shape: 1000 nodes × 2 slots, 5000 jobs, utilization
//!   0.7, on a synthetic 6-app matrix, with truth as knowledge and with a
//!   perturbed knowledge matrix;
//! * the same matrices and utilization at 1000 nodes × 4 slots, under
//!   both compositions, so that nodes hold bundles of two to four apps;
//! * spread and interference-aware placement at two slots under
//!   [`Compose::Max`], on an asymmetric 4-app matrix with a sub-1.0
//!   entry, over six job lists: three seeded lists on 16 nodes, an
//!   overloaded 4-node list that keeps the queue long, a hand-built list
//!   of 40 jobs in batches of eight simultaneous arrivals (the only
//!   golden input with exact arrival ties, so it pins the job-list order
//!   among them), and a 400-job list on 12 nodes.
//!
//! The fixture `golden_bits.txt` was captured from the engine as it was
//! at commit 450d4d1, before the running-job state became dense. The
//! `wide/` lines were captured from the engine as it was at commit
//! 0c59de7, before placement policies read a node index. The `twoslot/`
//! lines were captured from the engine as it was at commit 61aca11,
//! where an older two-slot simulator still agreed with it to 1e-9 on
//! these lists. Those captures still hold for the decision columns
//! (makespan, the six stretch columns and the five counts) and for
//! energy. The three ledger columns, `node_seconds`, `slot_seconds` and
//! `qos_violation_time`, were regenerated when the ledgers became
//! closed-form (one `dt * count` addition per event instead of a pass
//! over every node): 167, 165 and 128 lines moved in their low bits, by
//! at most 4.0e-12 relative. All were written with
//!
//! ```text
//! cargo test -p cochar-cluster --test golden -- --ignored regenerate_fixture
//! ```
//!
//! Regenerate it only when an output change is intended, and say so. On
//! a mismatch the test names, per scenario, the columns that moved and
//! the largest relative float change, which is what such a change
//! should report.

use cochar_cluster::{simulate, ClusterOutcome, Compose, Job, PolicyKind, SimConfig, Workload};
use cochar_sched::CostMatrix;
use cochar_trace::Lcg;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden_bits.txt");

/// The fixture's float columns, written as `f64` bits in hex.
const FLOATS: [&str; 11] = [
    "makespan",
    "mean_stretch",
    "min_stretch",
    "p50_stretch",
    "p95_stretch",
    "p99_stretch",
    "max_stretch",
    "qos_violation_time",
    "node_seconds",
    "slot_seconds",
    "energy",
];

/// The fixture's integer columns, after the floats.
const COUNTS: [&str; 5] =
    ["jobs", "slo_violations", "peak_active_nodes", "peak_queue", "migrations"];

fn header() -> String {
    format!("# scenario {} (f64 bits, hex) {}", FLOATS.join(" "), COUNTS.join(" "))
}

/// An `n`-app matrix with entries drawn from `[lo, hi)`.
fn synthetic(n: usize, lo: f64, hi: f64, seed: u64) -> CostMatrix {
    let mut rng = Lcg::new(seed);
    CostMatrix {
        names: (0..n).map(|i| format!("app{i}")).collect(),
        slow: (0..n).map(|_| (0..n).map(|_| lo + (hi - lo) * rng.next_f64()).collect()).collect(),
    }
}

/// `m` with every entry scaled by a factor in `[0.85, 1.15)`: a stand-in
/// for a predicted matrix.
fn perturbed(m: &CostMatrix, seed: u64) -> CostMatrix {
    let mut rng = Lcg::new(seed);
    CostMatrix {
        names: m.names.clone(),
        slow: m
            .slow
            .iter()
            .map(|row| row.iter().map(|&s| s * (0.85 + 0.3 * rng.next_f64())).collect())
            .collect(),
    }
}

/// Four apps with asymmetric directed slowdowns, a constructive (sub-1.0)
/// co-run, and pairs on both sides of the 1.5 QoS cap.
fn asymmetric() -> CostMatrix {
    CostMatrix {
        names: vec!["a".into(), "b".into(), "c".into(), "d".into()],
        slow: vec![
            vec![1.05, 1.80, 0.90, 1.30],
            vec![1.20, 1.10, 2.20, 1.45],
            vec![1.60, 1.90, 1.00, 1.15],
            vec![1.10, 1.55, 1.25, 1.02],
        ],
    }
}

fn jobs(m: &CostMatrix, count: usize, util: f64, nodes: usize, slots: usize, seed: u64) -> Vec<Job> {
    let mean_work = 8.0;
    let arrival_rate = Workload::rate_for_utilization(util, nodes, slots, mean_work);
    Workload { arrival_rate, mean_work, seed }.generate(count, m.len())
}

fn line(name: &str, o: &ClusterOutcome) -> String {
    let floats = [
        o.makespan,
        o.mean_stretch,
        o.min_stretch,
        o.p50_stretch,
        o.p95_stretch,
        o.p99_stretch,
        o.max_stretch,
        o.qos_violation_time,
        o.node_seconds,
        o.slot_seconds,
        o.energy,
    ];
    let mut s = name.to_string();
    for f in floats {
        s.push_str(&format!(" {:016x}", f.to_bits()));
    }
    for n in [o.jobs, o.slo_violations, o.peak_active_nodes, o.peak_queue, o.migrations] {
        s.push_str(&format!(" {n}"));
    }
    s
}

fn run(
    name: String,
    truth: &CostMatrix,
    knowledge: &CostMatrix,
    kind: PolicyKind,
    jobs: &[Job],
    cfg: SimConfig,
) -> String {
    let mut policy = kind.build(7, cfg.qos_cap);
    let out = simulate(truth, knowledge, policy.as_mut(), jobs, &cfg)
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    line(&name, &out)
}

/// Every scenario's fixture line, in fixture order.
fn lines() -> Vec<String> {
    let mut out = Vec::new();
    let compositions = [Compose::Max, Compose::Product];

    let grid = synthetic(4, 1.0, 2.0, 11);
    for slots in [1, 2, 4] {
        let list = jobs(&grid, 300, 0.6, 12, slots, 21 + slots as u64);
        for kind in PolicyKind::all() {
            for compose in compositions {
                for defrag in [false, true] {
                    let name = format!(
                        "grid/{kind}/{compose}/k{slots}/{}",
                        if defrag { "defrag" } else { "plain" }
                    );
                    let cfg = SimConfig {
                        nodes: 12,
                        slots,
                        compose,
                        defrag_period: defrag.then_some(7.5),
                        ..SimConfig::default()
                    };
                    out.push(run(name, &grid, &grid, kind, &list, cfg));
                }
            }
        }
    }

    let constructive = synthetic(5, 0.7, 2.0, 31);
    assert!(constructive.slow.iter().flatten().any(|&s| s < 1.0));
    for slots in [2, 3] {
        let list = jobs(&constructive, 250, 0.5, 10, slots, 41 + slots as u64);
        for kind in PolicyKind::all() {
            for compose in compositions {
                for defrag in [false, true] {
                    let name = format!(
                        "constructive/{kind}/{compose}/k{slots}/{}",
                        if defrag { "defrag" } else { "plain" }
                    );
                    let cfg = SimConfig {
                        nodes: 10,
                        slots,
                        compose,
                        defrag_period: defrag.then_some(5.0),
                        ..SimConfig::default()
                    };
                    out.push(run(name, &constructive, &constructive, kind, &list, cfg));
                }
            }
        }
    }

    let truth = synthetic(6, 1.0, 1.6, 51);
    let predicted = perturbed(&truth, 52);
    let list = jobs(&truth, 5000, 0.7, 1000, 2, 7);
    for kind in PolicyKind::all() {
        for (label, knowledge) in [("measured", &truth), ("predicted", &predicted)] {
            let cfg = SimConfig {
                nodes: 1000,
                slots: 2,
                qos_cap: 1.5,
                slo_stretch: 2.0,
                compose: Compose::Max,
                defrag_period: kind.wants_defrag().then_some(25.0),
                ..SimConfig::default()
            };
            out.push(run(format!("bench/{kind}/{label}"), &truth, knowledge, kind, &list, cfg));
        }
    }

    // The bench truth at four slots: partly full nodes hold one to three
    // apps, so interference-aware placement compares multi-app bundles.
    let list = jobs(&truth, 5000, 0.7, 1000, 4, 7);
    for kind in PolicyKind::all() {
        for compose in compositions {
            for (label, knowledge) in [("measured", &truth), ("predicted", &predicted)] {
                let cfg = SimConfig {
                    nodes: 1000,
                    slots: 4,
                    compose,
                    defrag_period: kind.wants_defrag().then_some(25.0),
                    ..SimConfig::default()
                };
                let name = format!("wide/{kind}/{compose}/{label}");
                out.push(run(name, &truth, knowledge, kind, &list, cfg));
            }
        }
    }

    let asym = asymmetric();
    let seeded = |seed: u64, count: usize, rate: f64| {
        Workload { arrival_rate: rate, mean_work: 8.0, seed }.generate(count, asym.len())
    };
    let ties: Vec<Job> = (0..40)
        .map(|i| Job {
            app: i % asym.len(),
            arrival: (i / 8) as f64 * 4.0,
            work: 5.0 + (i % 3) as f64,
        })
        .collect();
    let lists = [
        ("s1", 16, seeded(1, 300, 3.0)),
        ("s7", 16, seeded(7, 300, 3.0)),
        ("s42", 16, seeded(42, 300, 3.0)),
        ("overload", 4, seeded(11, 200, 2.5)),
        ("ties", 8, ties),
        ("s23", 12, seeded(23, 400, 3.0)),
    ];
    for (label, nodes, list) in &lists {
        for kind in [PolicyKind::Spread, PolicyKind::InterferenceAware] {
            let cfg = SimConfig {
                nodes: *nodes,
                slots: 2,
                qos_cap: 1.5,
                compose: Compose::Max,
                ..SimConfig::default()
            };
            out.push(run(format!("twoslot/{kind}/{label}"), &asym, &asym, kind, list, cfg));
        }
    }
    out
}

/// How one fixture line moved: the indices of the columns whose text
/// differs (floats first, then counts) and the largest relative change
/// among its floats. `None` when the scenario or the column count differs.
fn drift(want: &str, got: &str) -> Option<(Vec<usize>, f64)> {
    let (w, g): (Vec<&str>, Vec<&str>) = (want.split(' ').collect(), got.split(' ').collect());
    if w[0] != g[0] || w.len() != g.len() || w.len() != 1 + FLOATS.len() + COUNTS.len() {
        return None;
    }
    let bits = |hex: &str| f64::from_bits(u64::from_str_radix(hex, 16).unwrap_or(0));
    let mut worst = 0.0f64;
    let moved: Vec<usize> = (0..w.len() - 1).filter(|&i| w[1 + i] != g[1 + i]).collect();
    for &i in moved.iter().filter(|&&i| i < FLOATS.len()) {
        let (a, b) = (bits(w[1 + i]), bits(g[1 + i]));
        worst = worst.max(if a == 0.0 { f64::INFINITY } else { ((b - a) / a).abs() });
    }
    Some((moved, worst))
}

#[test]
fn outcomes_match_the_golden_bits() {
    let fixture = std::fs::read_to_string(FIXTURE).expect("golden fixture is committed");
    assert_eq!(fixture.lines().next(), Some(header().as_str()), "fixture header changed");
    let expected: Vec<&str> = fixture.lines().filter(|l| !l.starts_with('#')).collect();
    let actual = lines();
    assert_eq!(actual.len(), expected.len(), "scenario count changed");
    let columns: Vec<&str> = FLOATS.iter().chain(&COUNTS).copied().collect();
    let mut moved_lines = vec![0usize; columns.len()];
    let mut worst = 0.0f64;
    let mut report = Vec::new();
    for (got, want) in actual.iter().zip(&expected) {
        if got.as_str() == *want {
            continue;
        }
        let Some((moved, rel)) = drift(want, got) else {
            report.push(format!("  want {want}\n  got  {got}"));
            continue;
        };
        let names: Vec<&str> = moved.iter().map(|&i| columns[i]).collect();
        let name = got.split(' ').next().unwrap_or_default();
        report.push(format!(
            "  {name}: {} (largest relative float change {rel:.1e})",
            names.join(" ")
        ));
        moved.iter().for_each(|&i| moved_lines[i] += 1);
        worst = worst.max(rel);
    }
    let per_column: Vec<String> = (0..columns.len())
        .filter(|&i| moved_lines[i] > 0)
        .map(|i| format!("{} {}", columns[i], moved_lines[i]))
        .collect();
    assert!(
        report.is_empty(),
        "{} of {} scenarios drifted from the golden bits; lines moved per column: {}; \
         largest relative float change {worst:.1e}\n{}",
        report.len(),
        actual.len(),
        per_column.join(", "),
        report.join("\n")
    );
}

#[test]
fn drift_names_the_moved_columns() {
    let want = ["s", "3ff0000000000000", "4000000000000000"]
        .into_iter()
        .chain(std::iter::repeat_n("0000000000000000", FLOATS.len() - 2))
        .chain(["3", "0", "1", "0", "0"])
        .collect::<Vec<_>>()
        .join(" ");
    // makespan 1.0 -> 1.0 + 2^-52, mean_stretch unchanged, peak_queue 0 -> 2.
    let got = want
        .replacen("3ff0000000000000", "3ff0000000000001", 1)
        .replacen(" 1 0 0", " 1 2 0", 1);
    assert_eq!(drift(&want, &got), Some((vec![0, FLOATS.len() + 3], f64::EPSILON)));
    assert_eq!(drift(&want, "s 1"), None);
}

/// Rewrites the fixture from the current engine (see the module doc).
#[test]
#[ignore]
fn regenerate_fixture() {
    let mut text = header();
    text.push('\n');
    for l in lines() {
        text.push_str(&l);
        text.push('\n');
    }
    std::fs::write(FIXTURE, text).expect("write golden fixture");
}
