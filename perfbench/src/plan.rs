//! What each workload runs: the campaigns, the cluster scenario, the
//! rep sizing, and the pinned outputs every run is checked against.
//!
//! `Size::Full` is what the benchmark measures. `Size::Tiny` runs the
//! same code on the `tiny` machine with three applications, so the tests
//! can exercise every workload, metric, and check in seconds.

use std::sync::Arc;

use cochar_colocation::{Heatmap, Study};
use cochar_fabric::CampaignSpec;
use cochar_machine::{Msr, StableHasher};
use cochar_sched::CostMatrix;
use cochar_store::RunStore;
use cochar_trace::Lcg;
use cochar_workloads::{Registry, Scale};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn parse(s: &str) -> Result<Size, String> {
        match s {
            "full" => Ok(Size::Full),
            "tiny" => Ok(Size::Tiny),
            other => Err(format!("unknown --size {other:?} (full|tiny)")),
        }
    }
}

/// The `cluster compare` scenario of the placement workload.
pub struct Cluster {
    pub nodes: usize,
    pub slots: usize,
    pub jobs: usize,
    pub util: f64,
    pub mean_work: f64,
    pub qos_cap: f64,
    pub slo_stretch: f64,
    pub defrag_period: f64,
    pub seed: u64,
    /// Applications the predictor trains on (a prefix of the roster).
    pub train_apps: usize,
}

/// Outputs and exact work counts every run must reproduce.
pub struct Pins {
    /// Stable hash of the cold campaign's CSV in roster order.
    pub cold_csv: &'static str,
    /// Stable hash of the light campaign's CSV in roster order.
    pub light_csv: &'static str,
    /// Stable hash of the placement workload's `RegretReport::to_json`.
    pub report_json: &'static str,
    /// Gated exact counts, by the name the workload records them under.
    pub counts: &'static [(&'static str, u64)],
}

/// Nominal wall seconds of one timed rep, used to size a run to
/// `--seconds`.
pub struct RepSeconds {
    pub cold: f64,
    pub warm_pass: f64,
    pub sweep: f64,
    pub placement: f64,
}

pub struct Plan {
    /// `heatmap --store` over offenders and victims (campaign-cold).
    pub cold: CampaignSpec,
    /// The light roster of campaign-warm and sweep-light.
    pub light: CampaignSpec,
    /// The roster `cluster compare` measures (placement).
    pub placement: CampaignSpec,
    pub cluster: Cluster,
    pub rep_seconds: RepSeconds,
    pub pins: Pins,
}

fn spec(machine: &str, work: f64, threads: usize, names: &[&str]) -> CampaignSpec {
    CampaignSpec {
        machine: machine.to_string(),
        work,
        threads,
        trials: 1,
        seed: 1,
        msr: 0,
        names: names.iter().map(|s| s.to_string()).collect(),
    }
}

impl Plan {
    pub fn new(size: Size) -> Plan {
        match size {
            Size::Full => Plan {
                cold: spec("bench", 0.25, 4, &["G-CC", "CIFAR", "mcf", "fotonik3d", "LSTM"]),
                light: spec(
                    "bench",
                    0.01,
                    4,
                    &[
                        "CIFAR",
                        "MNIST",
                        "LSTM",
                        "ATIS",
                        "blackscholes",
                        "freqmine",
                        "swaptions",
                        "mcf",
                        "deepsjeng",
                        "nab",
                        "xalancbmk",
                        "bandit",
                    ],
                ),
                placement: spec(
                    "bench",
                    0.25,
                    4,
                    &["CIFAR", "LSTM", "mcf", "fotonik3d", "xalancbmk", "swaptions"],
                ),
                cluster: Cluster {
                    nodes: 1000,
                    slots: 2,
                    jobs: 5_000,
                    util: 0.7,
                    mean_work: 8.0,
                    qos_cap: 1.5,
                    slo_stretch: 2.0,
                    defrag_period: 25.0,
                    seed: 7,
                    train_apps: 4,
                },
                rep_seconds: RepSeconds { cold: 3.5, warm_pass: 0.017, sweep: 0.6, placement: 2.6 },
                pins: Pins {
                    // The campaign `csv_hash` of BENCH_engine.json: same
                    // apps, work, threads, and seed.
                    cold_csv: "422e129f9a0e94aa",
                    light_csv: "42f8ce2011477bec",
                    report_json: "92a8b8515efdfced",
                    counts: &[
                        ("campaign-cold/machine.runs", 25),
                        ("campaign-cold/machine.sim_cycles", 38_296_213),
                        ("campaign-cold/store.records_appended", 30),
                        ("campaign-cold/store.journal_bytes", 90_884),
                        ("campaign-warm/machine.runs", 0),
                        ("campaign-warm/store.cached_runs", 156),
                        ("campaign-warm/store.records_replayed", 156),
                        ("campaign-warm/store.journal_bytes", 330_778),
                        ("sweep-light/fabric.leases_issued", 144),
                        ("sweep-light/fabric.records_merged", 144),
                        ("placement/placement.victim_offender_pairs", 7),
                        ("placement/placement.both_victim_pairs", 3),
                        ("placement/cluster.jobs", 5_000),
                        ("placement/cluster.migrations", 2),
                        ("placement/cluster.peak_queue", 0),
                    ],
                },
            },
            Size::Tiny => Plan {
                cold: spec("tiny", 0.1, 1, &["mcf", "blackscholes", "swaptions"]),
                light: spec("tiny", 0.1, 1, &["blackscholes", "swaptions", "freqmine"]),
                placement: spec("tiny", 0.1, 1, &["mcf", "stream", "swaptions"]),
                cluster: Cluster {
                    nodes: 16,
                    slots: 2,
                    jobs: 200,
                    util: 0.7,
                    mean_work: 8.0,
                    qos_cap: 1.5,
                    slo_stretch: 2.0,
                    defrag_period: 25.0,
                    seed: 7,
                    train_apps: 2,
                },
                rep_seconds: RepSeconds { cold: 1.0, warm_pass: 1.0, sweep: 1.0, placement: 1.0 },
                pins: Pins {
                    cold_csv: "dd56bbadc0e6eec4",
                    light_csv: "cba2c3f569144944",
                    report_json: "b616f304f3db3d12",
                    counts: &[
                        ("campaign-cold/machine.runs", 9),
                        ("campaign-cold/machine.sim_cycles", 5_100_653),
                        ("campaign-cold/store.records_appended", 12),
                        ("campaign-cold/store.journal_bytes", 26_200),
                        ("campaign-warm/machine.runs", 0),
                        ("campaign-warm/store.cached_runs", 12),
                        ("campaign-warm/store.records_replayed", 12),
                        ("campaign-warm/store.journal_bytes", 23_526),
                        ("sweep-light/fabric.leases_issued", 9),
                        ("sweep-light/fabric.records_merged", 9),
                        ("placement/placement.victim_offender_pairs", 1),
                        ("placement/placement.both_victim_pairs", 1),
                        ("placement/cluster.jobs", 200),
                        ("placement/cluster.migrations", 3),
                        ("placement/cluster.peak_queue", 4),
                    ],
                },
            },
        }
    }
}

/// The registry a campaign's study runs over (the scale rule of
/// `CampaignSpec::build_study`).
pub fn registry(spec: &CampaignSpec) -> Registry {
    let cfg = spec.machine_config().expect("plans name known presets");
    let scale = if spec.machine == "tiny" { Scale::tiny() } else { Scale::for_config(&cfg) };
    Registry::new(scale.with_work(spec.work))
}

/// A study of `spec` over a prebuilt registry: what
/// `CampaignSpec::build_study` builds, without rebuilding the registry.
pub fn study(spec: &CampaignSpec, registry: Arc<Registry>, store: Option<RunStore>) -> Study {
    let cfg = spec.machine_config().expect("plans name known presets");
    let study = Study::new(cfg, registry)
        .with_threads(spec.threads)
        .with_trials(spec.trials)
        .with_seed(spec.seed)
        .with_msr(Msr::from_raw(spec.msr));
    match store {
        Some(store) => study.with_store(store),
        None => study,
    }
}

/// `items` in an order drawn from `seed`. Cells are pure functions of
/// their application names, so every order does the same work; the seed
/// changes only the order it is done in.
pub fn shuffled<T: Clone>(items: &[T], seed: u64) -> Vec<T> {
    let mut out = items.to_vec();
    let mut rng = Lcg::new(seed);
    for i in (1..out.len()).rev() {
        out.swap(i, rng.next_below(i as u64 + 1) as usize);
    }
    out
}

fn positions(from: &[String], to: &[String]) -> Vec<usize> {
    to.iter().map(|n| from.iter().position(|m| m == n).expect("same roster")).collect()
}

/// `map` with rows and columns in `order`.
pub fn reorder_heatmap(map: &Heatmap, order: &[String]) -> Heatmap {
    let p = positions(&map.names, order);
    Heatmap {
        names: order.to_vec(),
        norm: p.iter().map(|&i| p.iter().map(|&j| map.norm[i][j]).collect()).collect(),
        status: p.iter().map(|&i| p.iter().map(|&j| map.status[i][j]).collect()).collect(),
    }
}

/// `m` with rows and columns in `order`.
pub fn reorder_matrix(m: &CostMatrix, order: &[String]) -> CostMatrix {
    let p = positions(&m.names, order);
    CostMatrix {
        names: order.to_vec(),
        slow: p.iter().map(|&i| p.iter().map(|&j| m.slow[i][j]).collect()).collect(),
    }
}

/// Stable 16-digit hex hash of `text`.
pub fn hash(text: &str) -> String {
    let mut h = StableHasher::new();
    h.write_str(text);
    format!("{:016x}", h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cochar_store::json::Json;

    /// The cold campaign is the campaign section of `BENCH_engine.json`:
    /// same apps, work, threads, and seed, so the same CSV hash.
    #[test]
    fn cold_pin_matches_the_engine_bench_campaign() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCH_engine.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCH_engine.json"))
            .expect("BENCH_engine.json parses");
        let campaign = doc.field("campaign").expect("campaign section");
        let field = |k: &str| campaign.field(k).expect(k).clone();
        let plan = Plan::new(Size::Full);
        let apps: Vec<String> = field("apps")
            .as_arr()
            .expect("apps")
            .iter()
            .map(|a| a.as_str().expect("app").to_string())
            .collect();
        assert_eq!(apps, plan.cold.names);
        assert_eq!(field("work").as_f64().unwrap(), plan.cold.work);
        assert_eq!(doc.field("threads").unwrap().as_u64().unwrap(), plan.cold.threads as u64);
        assert_eq!(doc.field("seed").unwrap().as_u64().unwrap(), plan.cold.seed);
        assert_eq!(field("csv_hash").as_str().unwrap(), plan.pins.cold_csv);
    }

    #[test]
    fn reordering_restores_roster_order() {
        let names: Vec<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let norm = (0..4).map(|i| (0..4).map(|j| (10 * i + j) as f64).collect()).collect();
        let map = Heatmap::from_norm(names.clone(), norm);
        for seed in 0..5 {
            let permuted = reorder_heatmap(&map, &shuffled(&names, seed));
            assert_eq!(reorder_heatmap(&permuted, &names).to_csv(), map.to_csv());
        }
    }
}
