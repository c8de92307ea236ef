//! Integration tests for the beyond-the-paper extension modules, driven
//! through the public facade: iBench stressors, phase analysis, offender
//! throttling, consolidation economics, Bubble-Up prediction, and the
//! scheduling stack.

use std::sync::Arc;

use cochar::colocation::consolidation::{evaluate, EnergyModel};
use cochar::colocation::phases::PhaseAnalysis;
use cochar::colocation::throttle;
use cochar::prelude::*;
use cochar::sched::{CostMatrix, Greedy, Optimal, Scheduler};
use cochar::workloads::ibench::{self, Component};

fn study() -> Study {
    Study::new(MachineConfig::tiny(), Arc::new(Registry::new(Scale::tiny()))).with_threads(1)
}

#[test]
fn ibench_stressors_rank_by_shared_resource_pressure() {
    // Against a bandwidth-bound victim, the membw stressor must hurt far
    // more than the private-cache stressors.
    let s = study();
    let scale = *s.registry().scale();
    let victim = "stream";
    let slow = |c: Component| {
        let spec = ibench::stressor(&scale, c);
        s.pair_against(victim, &spec).fg_slowdown
    };
    let cpu = slow(Component::Cpu);
    let l1 = slow(Component::L1);
    let membw = slow(Component::MemBw);
    assert!(cpu < 1.08, "cpu stressor must be harmless: {cpu:.2}");
    assert!(l1 < 1.15, "L1 stressor must be near-harmless: {l1:.2}");
    assert!(
        membw > cpu + 0.15,
        "membw stressor must dominate: membw {membw:.2} vs cpu {cpu:.2}"
    );
}

#[test]
fn phase_analysis_separates_amg_from_stream_profiles() {
    let s = study();
    // AMG2006: serial setup then a bandwidth burst => bursty profile.
    let amg = s.solo("AMG2006");
    let amg_phases = PhaseAnalysis::from_outcome(&amg.outcome, 0);
    // stream: sustained traffic => flat profile.
    let st = s.solo("stream");
    let st_phases = PhaseAnalysis::from_outcome(&st.outcome, 0);
    assert!(
        amg_phases.traffic_concentration > st_phases.traffic_concentration,
        "AMG {:.2} should concentrate traffic more than stream {:.2}",
        amg_phases.traffic_concentration,
        st_phases.traffic_concentration
    );
    assert!(amg_phases.burstiness > st_phases.burstiness);
}

#[test]
fn throttling_protects_the_victim_at_a_cost() {
    let s = study();
    let sweep = throttle::sweep(&s, "stream", "stream", &[0, 120]);
    let v0 = sweep.points[0].victim_slowdown;
    let v1 = sweep.points[1].victim_slowdown;
    assert!(v1 < v0, "padding must protect: {v0:.2} -> {v1:.2}");
    assert!(sweep.points[1].offender_slowdown > 1.1, "offender must pay");
}

#[test]
fn consolidation_economics_prefer_harmonious_pairs() {
    let s = study();
    let model = EnergyModel::default();
    let good = evaluate(&s, &model, "swaptions", "freqmine");
    let bad = evaluate(&s, &model, "stream", "bandit");
    assert!(good.energy_saving() > bad.energy_saving());
    assert!(good.worthwhile(1.5));
}

#[test]
fn bubble_prediction_tracks_measured_ordering() {
    // Prediction must rank a heavy co-runner above a light one.
    let s = study();
    let curve = cochar::colocation::bubble::BubbleCurve::measure(&s, "freqmine");
    let light = s.solo("swaptions").profile.bandwidth_gbs;
    let heavy = s.solo("stream").profile.bandwidth_gbs;
    assert!(curve.predict(heavy) >= curve.predict(light));
}

#[test]
fn scheduling_stack_end_to_end() {
    let s = study();
    let jobs = ["stream", "bandit", "swaptions", "freqmine"];
    let m = CostMatrix::measure(&s, &jobs);
    let opt = Optimal.schedule(&m).validated(4);
    let grd = Greedy.schedule(&m).validated(4);
    assert!(opt.mean_cost(&m) <= grd.mean_cost(&m) + 1e-9);
    // Validate the optimal plan against fresh simulation: measured matrix
    // implies exact agreement.
    let report = cochar::sched::simulate::validate(&s, &m, &opt);
    assert!(report.mean_relative_error() < 1e-9);
}

#[test]
fn online_policy_uses_measured_matrix() {
    use cochar::cluster::policy::{InterferenceAware, Spread};
    use cochar::cluster::{simulate, Job};
    let s = study();
    let jobs_apps = ["stream", "swaptions"];
    let m = CostMatrix::measure(&s, &jobs_apps);
    // Two streams and two swaptions: aware policy pairs stream+swaptions
    // (cross pairs are cheap here), never stream+stream.
    let jobs: Vec<Job> = [0, 0, 1, 1]
        .iter()
        .map(|&app| Job { app, arrival: 0.0, work: 5.0 })
        .collect();
    let cfg = SimConfig { nodes: 2, slots: 2, qos_cap: 1.3, ..SimConfig::default() };
    let aware = simulate(&m, &m, &mut InterferenceAware::new(1.3), &jobs, &cfg).unwrap();
    let naive = simulate(&m, &m, &mut Spread, &jobs, &cfg).unwrap();
    assert!(aware.makespan <= naive.makespan + 1e-9);
}
