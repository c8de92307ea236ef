//! The four workloads and the traced suite.
//!
//! Each workload is a closed loop with one caller: set up, then run the
//! timed phase, then check its outputs, rep after rep. Simulation runs on
//! the one CPU the process is restricted to; only sweep-light widens the
//! mask, for its two worker processes.

use std::collections::HashSet;
use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use cochar_cluster::{
    simulate, Compose, PolicyKind, RegretReport, RunRecord, Scenario, SimConfig, Workload,
    MEASURED, PREDICTED,
};
use cochar_colocation::{CellFailure, Heatmap, SweepPolicy};
use cochar_fabric::{run_campaign, CampaignSpec, FabricConfig, WorkerCmd};
use cochar_predict::{Predictor, PredictorConfig};
use cochar_sched::CostMatrix;
use cochar_store::journal::{parse_record, render_record, JOURNAL_FILE};
use cochar_store::{RunKey, RunStore};
use cochar_workloads::Registry;

use crate::host::{self, CpuMask, Scratch, Timing};
use crate::plan::{self, Plan};
use crate::tracer::Tracer;

/// Workload names, in the order the traced suite runs them.
pub const WORKLOADS: [&str; 4] = ["campaign-cold", "campaign-warm", "sweep-light", "placement"];

/// First argument that turns the binary into a fabric worker.
pub const WORKER_MODE: &str = "fabric-worker";

/// A wedged fabric fails the run after this long without worker activity.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Local worker processes of sweep-light.
const SWEEP_WORKERS: usize = 2;

/// What one run works with.
pub struct Ctx<'a> {
    pub plan: &'a Plan,
    pub seed: u64,
    /// Seconds the timed phases should fill (`--seconds`).
    pub seconds: f64,
    /// Set-ups per run, and the fewest timed reps.
    pub min_reps: usize,
    pub scratch: &'a Scratch,
    /// The one CPU simulation runs on.
    pub narrow: CpuMask,
    /// Every CPU the process may use (sweep-light's workers).
    pub wide: CpuMask,
}

impl Ctx<'_> {
    fn reps(&self, nominal_s: f64) -> usize {
        ((self.seconds / nominal_s).ceil() as usize).max(self.min_reps)
    }
}

/// A named metric value.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and checked.
pub struct Tally {
    workload: &'static str,
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub errors: Vec<String>,
    /// Labels of the output checks that ran.
    pub checked: Vec<&'static str>,
    /// Exact work counts, keyed `workload/name`.
    pub counts: Vec<(String, u64)>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
}

impl Tally {
    pub fn new(workload: &'static str) -> Tally {
        Tally {
            workload,
            setup_s: Vec::new(),
            wall_s: Vec::new(),
            cpu_s: Vec::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            checked: Vec::new(),
            counts: Vec::new(),
            layers: Vec::new(),
        }
    }

    fn setup<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
        let (r, m) = host::timed(f);
        self.setup_s.push(m.wall_s);
        r
    }

    /// Records one timed phase that attempted `attempted` operations, of
    /// which `failures` failed.
    fn phase(&mut self, m: &Timing, attempted: usize, failures: Vec<String>) {
        self.wall_s.push(m.wall_s);
        self.cpu_s.push(m.cpu_s);
        self.attempted += attempted as u64;
        self.failed += failures.len() as u64;
        self.errors.extend(failures);
    }

    /// Runs output check `label`; `what` describes a failure.
    pub fn check(&mut self, label: &'static str, ok: bool, what: impl FnOnce() -> String) {
        if !self.checked.contains(&label) {
            self.checked.push(label);
        }
        if !ok {
            self.errors.push(what());
        }
    }

    fn check_hash(&mut self, label: &'static str, text: &str, pinned: &str) {
        let found = plan::hash(text);
        self.check(label, found == pinned, || format!("{label}: hash {found}, pinned {pinned}"));
    }

    /// Records an exact work count. A value that differs from an earlier
    /// rep's is a nondeterminism error, never averaged.
    fn count(&mut self, name: &str, value: u64) {
        let key = format!("{}/{name}", self.workload);
        self.merge_count(key, value);
    }

    fn merge_count(&mut self, key: String, value: u64) {
        match self.counts.iter().find(|(k, _)| *k == key) {
            Some(&(_, prev)) if prev != value => {
                self.errors.push(format!("nondeterministic {key}: {prev} then {value}"))
            }
            Some(_) => {}
            None => self.counts.push((key, value)),
        }
    }

    fn layer(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.layers.push(Metric { name: name.into(), value, unit });
    }

    /// Folds another tally's checks, counts, and layers into this one.
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        for label in other.checked {
            self.check(label, true, String::new);
        }
        for (key, value) in other.counts {
            self.merge_count(key, value);
        }
        self.layers.extend(other.layers);
    }
}

/// Median of `v` (mean of the middle two for an even count).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of a non-empty sample.
fn percentile(v: &[f64], pct: usize) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (pct * s.len()).div_ceil(100).max(1);
    s[rank - 1]
}

/// Runs workload `name` into `t`.
pub fn run(name: &str, cx: &Ctx, tr: &Tracer, t: &mut Tally) -> Result<(), String> {
    match name {
        "campaign-cold" => campaign_cold(cx, tr, t),
        "campaign-warm" => campaign_warm(cx, tr, t),
        "sweep-light" => sweep_light(cx, tr, t),
        "placement" => placement(cx, tr, t),
        other => Err(format!("unknown workload {other:?} ({})", WORKLOADS.join("|"))),
    }
}

/// The traced run: every workload once untraced and once traced, so
/// every layer is measured and the tracing overhead is the difference.
/// Returns the suite's tally and the spans as JSON lines.
pub fn traced_suite(cx: &Ctx) -> Result<(Tally, String), String> {
    let mut suite = Tally::new("traced");
    let mut spans = String::new();
    let mut registry_builds = Vec::new();
    for name in WORKLOADS {
        let mut plain = Tally::new(name);
        run(name, cx, &Tracer::new(false), &mut plain)?;
        let tr = Tracer::new(true);
        let mut traced = Tally::new(name);
        run(name, cx, &tr, &mut traced)?;
        registry_builds.extend(tr.durations("workloads.registry_build"));
        let overhead = median(&traced.wall_s) - median(&plain.wall_s);
        suite.absorb(plain);
        suite.absorb(traced);
        suite.layer(format!("trace.overhead_s.{name}"), overhead, "s");
        spans.push_str(&tr.render(name));
    }
    suite.layer("workloads.registry_build_s", median(&registry_builds), "s");
    Ok((suite, spans))
}

fn build_registry(tr: &Tracer, spec: &CampaignSpec) -> Arc<Registry> {
    tr.span("workloads.registry_build", || Arc::new(plan::registry(spec)))
}

fn open_store(dir: &Path) -> Result<RunStore, String> {
    RunStore::open(dir).map_err(|e| format!("store {}: {e}", dir.display()))
}

fn journal_bytes(dir: &Path) -> u64 {
    std::fs::metadata(dir.join(JOURNAL_FILE)).map_or(0, |m| m.len())
}

fn cell_failures(failures: &[CellFailure]) -> Vec<String> {
    failures
        .iter()
        .map(|f| format!("cell {} failed after {} attempt(s): {}", f.spec, f.attempts, f.cause))
        .collect()
}

fn names_of(names: &[String]) -> Vec<&str> {
    names.iter().map(String::as_str).collect()
}

/// Completion instants of a sweep's cells, recorded in traced runs.
struct Ticks {
    on: bool,
    at: Mutex<Vec<Instant>>,
}

impl Ticks {
    fn new(on: bool) -> Ticks {
        Ticks { on, at: Mutex::new(Vec::new()) }
    }

    fn tick(&self) {
        if self.on {
            self.at.lock().expect("tick lock poisoned").push(Instant::now());
        }
    }

    /// Seconds between consecutive ticks, the first from the start tick.
    fn intervals(&self) -> Vec<f64> {
        let at = self.at.lock().expect("tick lock poisoned");
        at.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect()
    }
}

/// `heatmap --store` on a fresh store: the 25 pair cells after the solos.
fn campaign_cold(cx: &Ctx, tr: &Tracer, t: &mut Tally) -> Result<(), String> {
    let spec = &cx.plan.cold;
    let order = plan::shuffled(&spec.names, cx.seed);
    let names = names_of(&order);
    let cells = names.len() * names.len();
    for _ in 0..cx.reps(cx.plan.rep_seconds.cold) {
        let study = t.setup(|| {
            let registry = build_registry(tr, spec);
            let store = open_store(&cx.scratch.fresh("cold"))?;
            let study = plan::study(spec, registry, Some(store));
            tr.span("machine.solos", || names.iter().for_each(|n| drop(study.solo(n))));
            Ok(study)
        })?;
        let before = study.run_counts();
        let ticks = Ticks::new(tr.enabled());
        let ((map, failures), m) = host::timed(|| {
            let swept = tr.span("colocation.compute_supervised", || {
                ticks.tick();
                Heatmap::compute_supervised(&study, &names, SweepPolicy::default(), |_, _| {
                    ticks.tick()
                })
            });
            black_box(tr.span("colocation.csv", || swept.0.to_csv()));
            swept
        });
        t.phase(&m, cells, cell_failures(&failures));
        let canonical = plan::reorder_heatmap(&map, &spec.names).to_csv();
        t.check_hash("cold-csv-pinned", &canonical, cx.plan.pins.cold_csv);

        let after = study.run_counts();
        let (simulated, cached) = (after.0 - before.0, after.1 - before.1);
        t.check("cold-store-fresh", cached == 0, || {
            format!("a fresh store answered {cached} run(s)")
        });
        let store = study.store().expect("the cold study is store-backed");
        let solos: HashSet<RunKey> = names.iter().flat_map(|n| study.solo_keys(n)).collect();
        let entries = store.entries();
        let sim_cycles: u64 =
            entries.iter().filter(|(k, _)| !solos.contains(k)).map(|(_, o)| o.horizon).sum();
        let appended = store.stats().puts;
        let journal = journal_bytes(store.dir());
        t.count("machine.runs", simulated);
        t.count("machine.sim_cycles", sim_cycles);
        t.count("store.records_appended", appended);
        t.count("store.journal_bytes", journal);
        if !tr.enabled() {
            continue;
        }

        let cell_s = ticks.intervals();
        let cell_ms: Vec<f64> = cell_s.iter().map(|s| s * 1e3).collect();
        let n = cell_ms.len();
        // The highest percentile with at least ten samples beyond it.
        let tail = if n >= 20 { 100 * (n - 10) / n } else { 50 };
        t.layer("machine.cell_ms.p50", median(&cell_ms), "ms");
        t.layer("machine.cell_ms.tail", percentile(&cell_ms, tail), "ms");
        t.layer("machine.cell_ms.tail_pct", tail as f64, "percentile");
        t.layer("machine.cell_ms.n", n as f64, "count");
        let ns = cell_s.iter().sum::<f64>() * 1e9 / sim_cycles as f64;
        t.layer("machine.host_ns_per_sim_cycle", ns, "ns/cycle");
        t.layer("machine.runs", simulated as f64, "count");
        t.layer("machine.sim_cycles", sim_cycles as f64, "count");
        t.layer("store.hit_ratio.campaign-cold", hit_ratio(simulated, cached), "ratio");

        // Probe: render and append the campaign's records to a scratch store.
        let probe = open_store(&cx.scratch.fresh("append-probe"))?;
        let secs = tr.span("probe.store_append", || -> Result<f64, String> {
            let t0 = Instant::now();
            for (key, outcome) in &entries {
                black_box(render_record(*key, outcome));
                probe.put(*key, Arc::clone(outcome)).map_err(|e| e.to_string())?;
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        t.layer("store.append_ms_per_record", secs * 1e3 / entries.len() as f64, "ms");
        t.layer("store.records_appended", appended as f64, "count");
        t.layer("store.journal_bytes", journal as f64, "bytes");
    }
    Ok(())
}

fn hit_ratio(simulated: u64, cached: u64) -> f64 {
    cached as f64 / (simulated + cached).max(1) as f64
}

/// One campaign-warm pass: replay, assemble from cache, render.
struct WarmPass {
    csv: String,
    simulated: u64,
    cached: u64,
    replayed: usize,
    failures: Vec<CellFailure>,
}

fn warm_pass(
    tr: &Tracer,
    spec: &CampaignSpec,
    registry: &Arc<Registry>,
    dir: &Path,
    names: &[&str],
) -> Result<WarmPass, String> {
    let store = tr.span("store.replay", || open_store(dir))?;
    let replayed = store.replay_report().valid;
    let study = plan::study(spec, Arc::clone(registry), Some(store));
    let (map, failures) = tr.span("colocation.assemble", || {
        Heatmap::compute_supervised(&study, names, SweepPolicy::default(), |_, _| {})
    });
    let csv = tr.span("colocation.csv", || map.to_csv());
    let (simulated, cached) = study.run_counts();
    Ok(WarmPass { csv, simulated, cached, replayed, failures })
}

/// Resume from a warm store: every cell answered from the journal.
fn campaign_warm(cx: &Ctx, tr: &Tracer, t: &mut Tally) -> Result<(), String> {
    let spec = &cx.plan.light;
    let order = plan::shuffled(&spec.names, cx.seed);
    let names = names_of(&order);
    let passes = cx.reps(cx.plan.rep_seconds.warm_pass * cx.min_reps as f64).max(10);
    for _ in 0..cx.min_reps {
        let (registry, dir, map) = t.setup(|| {
            let registry = build_registry(tr, spec);
            let dir = cx.scratch.fresh("warm");
            let study = plan::study(spec, Arc::clone(&registry), Some(open_store(&dir)?));
            let (map, failures) =
                Heatmap::compute_supervised(&study, &names, SweepPolicy::default(), |_, _| {});
            match failures.first() {
                Some(f) => Err(format!("warm set-up cell {} failed: {}", f.spec, f.cause)),
                None => Ok((registry, dir, map)),
            }
        })?;
        let canonical = plan::reorder_heatmap(&map, &spec.names).to_csv();
        t.check_hash("light-csv-pinned", &canonical, cx.plan.pins.light_csv);
        let reference = map.to_csv();

        let (results, m) = host::timed(|| {
            (0..passes)
                .map(|_| warm_pass(tr, spec, &registry, &dir, &names))
                .collect::<Result<Vec<_>, String>>()
        });
        let results = results?;
        let failures: Vec<CellFailure> =
            results.iter().flat_map(|p| p.failures.iter().cloned()).collect();
        t.phase(&m, passes * names.len() * names.len(), cell_failures(&failures));
        for p in &results {
            t.check("warm-csv-reproduced", p.csv == reference, || {
                "a warm pass's CSV differs from its set-up's".into()
            });
            t.check("warm-runs-cached", p.simulated == 0, || {
                format!("a warm pass simulated {} run(s)", p.simulated)
            });
            t.count("machine.runs", p.simulated);
            t.count("store.cached_runs", p.cached);
            t.count("store.records_replayed", p.replayed as u64);
        }
        t.count("store.journal_bytes", journal_bytes(&dir));
        if !tr.enabled() {
            continue;
        }

        // Probe: parse and verify every journal line.
        let text = std::fs::read_to_string(dir.join(JOURNAL_FILE)).map_err(|e| e.to_string())?;
        let lines: Vec<&str> = text.lines().collect();
        let secs = tr.span("probe.store_decode", || -> Result<f64, String> {
            let t0 = Instant::now();
            for line in &lines {
                black_box(parse_record(line).map_err(|e| e.to_string())?);
            }
            Ok(t0.elapsed().as_secs_f64())
        })?;
        let last = results.last().expect("at least one pass");
        t.layer("store.replay_s", median(&tr.durations("store.replay")), "s");
        t.layer("store.records_replayed", last.replayed as f64, "count");
        t.layer("store.decode_us_per_record", secs * 1e6 / lines.len() as f64, "us");
        t.layer("store.hit_ratio.campaign-warm", hit_ratio(last.simulated, last.cached), "ratio");
        t.layer("colocation.assemble_s", median(&tr.self_times("colocation.assemble")), "s");
        t.layer("colocation.csv_s", median(&tr.durations("colocation.csv")), "s");
    }
    Ok(())
}

/// `sweep --workers 2` on a fresh store over the light roster.
fn sweep_light(cx: &Ctx, tr: &Tracer, t: &mut Tally) -> Result<(), String> {
    let mut spec = cx.plan.light.clone();
    spec.names = plan::shuffled(&spec.names, cx.seed);
    let names = names_of(&spec.names);
    let cells = names.len() * names.len();
    let mut prepared = None;
    for _ in 0..cx.min_reps {
        prepared = Some(t.setup(|| {
            // The single-process reference: solos first, so the timed
            // sweep is pair cells only.
            let registry = build_registry(tr, &spec);
            let study = plan::study(&spec, Arc::clone(&registry), None);
            tr.span("machine.solos", || names.iter().for_each(|n| drop(study.solo(n))));
            let ((map, failures), m) = host::timed(|| {
                tr.span("colocation.compute_supervised", || {
                    Heatmap::compute_supervised(&study, &names, SweepPolicy::default(), |_, _| {})
                })
            });
            match failures.first() {
                Some(f) => Err(format!("reference cell {} failed: {}", f.spec, f.cause)),
                None => Ok((registry, map, m.wall_s)),
            }
        })?);
    }
    let (registry, map, reference_s) = prepared.expect("at least one set-up");
    let canonical = plan::reorder_heatmap(&map, &cx.plan.light.names).to_csv();
    t.check_hash("light-csv-pinned", &canonical, cx.plan.pins.light_csv);
    let reference = map.to_csv();

    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let cfg = FabricConfig {
        workers: SWEEP_WORKERS,
        worker_cmd: Some(WorkerCmd { exe, args: vec![WORKER_MODE.to_string()] }),
        stall_timeout: STALL_TIMEOUT,
        ..FabricConfig::default()
    };
    for _ in 0..cx.reps(cx.plan.rep_seconds.sweep) {
        let store = open_store(&cx.scratch.fresh("sweep"))?;
        let study = plan::study(&spec, Arc::clone(&registry), Some(store));
        host::set_affinity(&cx.wide)?;
        let (out, m) = host::timed(|| {
            tr.span("fabric.run_campaign", || run_campaign(&study, &spec, &cfg, |_, _| {}))
        });
        host::set_affinity(&cx.narrow)?;
        let out = out?;
        t.phase(&m, cells, cell_failures(&out.failures));
        t.check("sweep-csv-matches-reference", out.heatmap.to_csv() == reference, || {
            "the sweep's CSV differs from the single-process CSV".into()
        });
        t.check("sweep-store-intact", !out.store_degraded, || "the sweep's store degraded".into());
        let ledger = out.ledger;
        t.count("fabric.leases_issued", ledger.leases_issued);
        t.count("fabric.records_merged", ledger.records_merged);
        if !tr.enabled() {
            continue;
        }
        let pair_s = out.pair_wall.as_secs_f64();
        let overhead = (pair_s * SWEEP_WORKERS as f64 - reference_s) / cells as f64;
        t.layer("fabric.solo_wall_s", out.solo_wall.as_secs_f64(), "s");
        t.layer("fabric.pair_wall_s", pair_s, "s");
        t.layer("fabric.overhead_ms_per_cell", overhead * 1e3, "ms");
        for (name, value) in [
            ("fabric.leases_issued", ledger.leases_issued),
            ("fabric.leases_reissued", ledger.leases_reissued),
            ("fabric.records_merged", ledger.records_merged),
            ("fabric.records_duplicate", ledger.records_duplicate),
            ("fabric.results_duplicate", ledger.results_duplicate),
        ] {
            t.layer(name, value as f64, "count");
        }
    }
    Ok(())
}

/// `cluster compare`: every policy on measured and predicted knowledge.
fn placement(cx: &Ctx, tr: &Tracer, t: &mut Tally) -> Result<(), String> {
    let spec = &cx.plan.placement;
    let c = &cx.plan.cluster;
    let roster = names_of(&spec.names);
    let order = plan::shuffled(&spec.names, cx.seed);
    let rate = Workload::rate_for_utilization(c.util, c.nodes, c.slots, c.mean_work);
    let mut prepared = None;
    for _ in 0..cx.min_reps {
        prepared = Some(t.setup(|| {
            let registry = build_registry(tr, spec);
            let study = plan::study(spec, registry, None);
            let measured =
                tr.span("sched.measure", || CostMatrix::measure(&study, &names_of(&order)));
            let measured = plan::reorder_matrix(&measured, &spec.names);
            let config = PredictorConfig { seed: c.seed, ..PredictorConfig::default() };
            let predicted = tr.span("predict.export", || {
                Predictor::export_matrix(&study, &roster, c.train_apps, config)
            });
            let workload = Workload { arrival_rate: rate, mean_work: c.mean_work, seed: c.seed };
            let jobs = tr.span("cluster.generate", || workload.generate(c.jobs, roster.len()));
            Ok((measured, predicted, jobs))
        })?);
    }
    let (measured, predicted, jobs) = prepared.expect("at least one set-up");
    let (_, victim_offender, both_victim) =
        Heatmap::from_norm(measured.names.clone(), measured.slow.clone()).class_counts();
    t.count("placement.victim_offender_pairs", victim_offender as u64);
    t.count("placement.both_victim_pairs", both_victim as u64);

    let runs: Vec<(PolicyKind, &str)> = PolicyKind::all()
        .into_iter()
        .flat_map(|kind| [(kind, MEASURED), (kind, PREDICTED)])
        .collect();
    let run_order = plan::shuffled(&(0..runs.len()).collect::<Vec<_>>(), cx.seed);
    let scenario = Scenario {
        nodes: c.nodes,
        slots: c.slots,
        jobs: jobs.len(),
        seed: c.seed,
        arrival_rate: rate,
        mean_work: c.mean_work,
        qos_cap: c.qos_cap,
        slo_stretch: c.slo_stretch,
        compose: Compose::Max.to_string(),
        defrag_period: Some(c.defrag_period),
        apps: spec.names.clone(),
    };
    for _ in 0..cx.reps(cx.plan.rep_seconds.placement) {
        let mut failures = Vec::new();
        let ((report, json), m) = host::timed(|| {
            let mut records: Vec<Option<RunRecord>> = vec![None; runs.len()];
            for &i in &run_order {
                let (kind, knowledge) = runs[i];
                let matrix = if knowledge == MEASURED { &measured } else { &predicted };
                let mut policy = kind.build(c.seed, c.qos_cap);
                let cfg = SimConfig {
                    nodes: c.nodes,
                    slots: c.slots,
                    qos_cap: c.qos_cap,
                    slo_stretch: c.slo_stretch,
                    compose: Compose::Max,
                    defrag_period: kind.wants_defrag().then_some(c.defrag_period),
                    ..SimConfig::default()
                };
                let span = if tr.enabled() {
                    format!("cluster.simulate.{kind}.{knowledge}")
                } else {
                    String::new()
                };
                match tr.span(&span, || simulate(&measured, matrix, policy.as_mut(), &jobs, &cfg)) {
                    Ok(outcome) => {
                        records[i] = Some(RunRecord {
                            policy: kind.to_string(),
                            knowledge: knowledge.to_string(),
                            outcome,
                        })
                    }
                    Err(e) => failures.push(format!("{kind}/{knowledge}: {e}")),
                }
            }
            let report =
                RegretReport::new(scenario.clone(), records.into_iter().flatten().collect());
            let json = tr.span("cluster.report", || report.to_json());
            (report, json)
        });
        t.phase(&m, runs.len(), failures);
        t.check_hash("report-json-pinned", &json, cx.plan.pins.report_json);
        let migrations: usize = report.runs.iter().map(|r| r.outcome.migrations).sum();
        let peak_queue = report.runs.iter().map(|r| r.outcome.peak_queue).max().unwrap_or(0);
        t.count("cluster.jobs", jobs.len() as u64);
        t.count("cluster.migrations", migrations as u64);
        t.count("cluster.peak_queue", peak_queue as u64);
        if !tr.enabled() {
            continue;
        }
        let mut simulate_s = 0.0;
        for (kind, knowledge) in &runs {
            let s = median(&tr.durations(&format!("cluster.simulate.{kind}.{knowledge}")));
            simulate_s += s;
            t.layer(format!("cluster.simulate_s.{kind}.{knowledge}"), s, "s");
        }
        t.layer("cluster.jobs_per_s", (runs.len() * jobs.len()) as f64 / simulate_s, "1/s");
        t.layer("cluster.migrations", migrations as f64, "count");
        t.layer("cluster.peak_queue", peak_queue as f64, "count");
        t.layer("sched.measure_s", median(&tr.durations("sched.measure")), "s");
        t.layer("predict.export_s", median(&tr.durations("predict.export")), "s");
        t.layer("cluster.generate_s", median(&tr.durations("cluster.generate")), "s");
    }
    Ok(())
}
