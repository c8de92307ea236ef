//! Event-loop invariants, checked over random scenarios.
//!
//! For matrices with every entry ≥ 1.0 (no constructive co-runs):
//!
//! * a job cannot finish before `arrival + work` — equivalently every
//!   stretch is at least 1.0;
//! * occupied-slot time is at least the total solo work (slowdowns only
//!   add slot time);
//! * the simulation terminates with an empty queue (the `Ok` result —
//!   the engine errors out otherwise) and the makespan covers the
//!   latest `arrival + work`.
//!
//! Sub-1.0 entries legitimately break the first invariant; a dedicated
//! regression pins that behavior instead.
//!
//! At zero idle power the energy ledger is node-seconds, to the bit.
//!
//! At every decision, the node index the engine keeps up to date through
//! starts, completions and defragmentation moves describes exactly the
//! board a fresh build from the node lists describes.

use proptest::prelude::*;
use proptest::Just;

use cochar_cluster::{
    simulate, ClusterPolicy, ClusterView, Compose, Job, NodeIndex, Placement, PolicyKind,
    SimConfig,
};
use cochar_sched::CostMatrix;

/// Matrices with entries in [1.0, 3.0): no constructive co-runs.
fn matrix_strategy(max_n: usize) -> impl Strategy<Value = CostMatrix> {
    (2..=max_n).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(1.0f64..3.0, n), n).prop_map(move |s| {
            CostMatrix { names: (0..n).map(|i| format!("j{i}")).collect(), slow: s }
        })
    })
}

fn jobs_strategy(apps: usize, max_jobs: usize) -> impl Strategy<Value = Vec<Job>> {
    prop::collection::vec(
        (0..apps, 0.0f64..50.0, 0.1f64..10.0),
        1..max_jobs + 1,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(app, arrival, work)| Job { app, arrival, work })
            .collect()
    })
}

fn scenario_strategy() -> impl Strategy<Value = (CostMatrix, Vec<Job>, SimConfig, usize)> {
    matrix_strategy(4).prop_flat_map(|m| {
        let apps = m.len();
        (
            Just(m),
            jobs_strategy(apps, 40),
            (1usize..8, 1usize..4),
            (0usize..PolicyKind::all().len(), any::<bool>()),
        )
            .prop_map(|(m, jobs, (nodes, slots), (kind, product))| {
                let kind_list = PolicyKind::all();
                let kind = kind_list[kind];
                let cfg = SimConfig {
                    nodes,
                    slots,
                    qos_cap: 1.5,
                    slo_stretch: 2.0,
                    compose: if product { Compose::Product } else { Compose::Max },
                    defrag_period: if kind.wants_defrag() { Some(7.5) } else { None },
                    idle_power: 0.3,
                };
                (m, jobs, cfg, kind as usize)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn no_job_beats_its_solo_runtime_under_destructive_matrices(
        scenario in scenario_strategy()
    ) {
        let (m, jobs, cfg, kind) = scenario;
        let kind = PolicyKind::all()[kind];
        let mut policy = kind.build(5, cfg.qos_cap);
        let out = simulate(&m, &m, policy.as_mut(), &jobs, &cfg)
            .expect("non-strict policies always terminate");
        // finish >= arrival + work for every job <=> min stretch >= 1.
        prop_assert!(
            out.min_stretch >= 1.0 - 1e-9,
            "{kind}: min stretch {} under an all->=1.0 matrix",
            out.min_stretch
        );
        // Slowdowns only add occupied-slot time.
        let total_work: f64 = jobs.iter().map(|j| j.work).sum();
        prop_assert!(
            out.slot_seconds >= total_work - 1e-6,
            "{kind}: slot-seconds {} below total work {total_work}",
            out.slot_seconds
        );
        // Node-seconds bracket slot-seconds by the slot count.
        prop_assert!(out.node_seconds <= out.slot_seconds + 1e-9);
        prop_assert!(
            out.slot_seconds <= out.node_seconds * cfg.slots as f64 + 1e-9
        );
        // The queue emptied: every job finished, so the makespan covers
        // the latest arrival + work.
        let horizon = jobs
            .iter()
            .map(|j| j.arrival + j.work)
            .fold(0.0f64, f64::max);
        prop_assert!(
            out.makespan >= horizon - 1e-9,
            "{kind}: makespan {} below horizon {horizon}",
            out.makespan
        );
        prop_assert!(out.peak_active_nodes <= cfg.nodes);
        prop_assert!(out.jobs == jobs.len());
    }

    #[test]
    fn reruns_are_bit_identical(scenario in scenario_strategy()) {
        let (m, jobs, cfg, kind) = scenario;
        let kind = PolicyKind::all()[kind];
        let mut a = kind.build(5, cfg.qos_cap);
        let mut b = kind.build(5, cfg.qos_cap);
        let oa = simulate(&m, &m, a.as_mut(), &jobs, &cfg).unwrap();
        let ob = simulate(&m, &m, b.as_mut(), &jobs, &cfg).unwrap();
        prop_assert_eq!(oa.makespan.to_bits(), ob.makespan.to_bits());
        prop_assert_eq!(oa.mean_stretch.to_bits(), ob.mean_stretch.to_bits());
        prop_assert_eq!(oa.node_seconds.to_bits(), ob.node_seconds.to_bits());
        prop_assert_eq!(oa.energy.to_bits(), ob.energy.to_bits());
        prop_assert_eq!(oa.migrations, ob.migrations);
    }

    #[test]
    fn energy_at_zero_idle_power_is_node_seconds(scenario in scenario_strategy()) {
        let (m, jobs, cfg, kind) = scenario;
        let kind = PolicyKind::all()[kind];
        let cfg = SimConfig { idle_power: 0.0, ..cfg };
        let mut policy = kind.build(5, cfg.qos_cap);
        let out = simulate(&m, &m, policy.as_mut(), &jobs, &cfg).unwrap();
        // Idle nodes draw nothing, so the energy ledger integrates the
        // non-empty node count: the node-seconds ledger, addition by
        // addition.
        prop_assert_eq!(out.energy.to_bits(), out.node_seconds.to_bits());
    }
}

/// Delegates to `inner` after checking that the engine's index answers
/// exactly like one built afresh from the view's node lists.
struct IndexChecked {
    inner: Box<dyn ClusterPolicy>,
    decisions: usize,
}

impl ClusterPolicy for IndexChecked {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        assert_eq!(
            *view.index,
            NodeIndex::new(view.nodes, view.slots),
            "decision {}: the engine's index drifted from its node lists",
            self.decisions
        );
        self.decisions += 1;
        self.inner.place(view)
    }
}

/// Slots 1–4 with defragmentation on or off for any policy, so index
/// updates from starts, completions and migrations are all exercised.
fn index_scenario_strategy() -> impl Strategy<Value = (CostMatrix, Vec<Job>, SimConfig, usize)> {
    matrix_strategy(4).prop_flat_map(|m| {
        let apps = m.len();
        (
            Just(m),
            jobs_strategy(apps, 60),
            (1usize..8, 1usize..=4),
            (0usize..PolicyKind::all().len(), any::<bool>(), any::<bool>()),
        )
            .prop_map(|(m, jobs, (nodes, slots), (kind, product, defrag))| {
                let cfg = SimConfig {
                    nodes,
                    slots,
                    compose: if product { Compose::Product } else { Compose::Max },
                    defrag_period: defrag.then_some(2.5),
                    ..SimConfig::default()
                };
                (m, jobs, cfg, kind)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_engine_index_matches_a_fresh_build_at_every_decision(
        scenario in index_scenario_strategy()
    ) {
        let (m, jobs, cfg, kind) = scenario;
        let kind = PolicyKind::all()[kind];
        let mut policy = IndexChecked { inner: kind.build(5, cfg.qos_cap), decisions: 0 };
        let out =
            simulate(&m, &m, &mut policy, &jobs, &cfg).expect("non-strict policies terminate");
        prop_assert!(policy.decisions >= jobs.len(), "{kind}: {} decisions", policy.decisions);
        prop_assert_eq!(out.jobs, jobs.len());
    }
}

/// The ≥-solo invariant is a property of the matrix, not the engine: a
/// sub-1.0 directed entry (constructive co-run) can finish a job faster
/// than its solo runtime, and must survive un-clamped.
#[test]
fn constructive_corun_beats_solo_runtime() {
    let m = CostMatrix {
        names: vec!["a".into(), "b".into()],
        // a speeds up 10% next to b; b is unaffected.
        slow: vec![vec![1.0, 0.9], vec![1.0, 1.0]],
    };
    let jobs = vec![
        Job { app: 0, arrival: 0.0, work: 10.0 },
        Job { app: 1, arrival: 0.0, work: 100.0 },
    ];
    let cfg = SimConfig { nodes: 1, slots: 2, ..SimConfig::default() };
    let mut ff = PolicyKind::FirstFit.build(0, 1.5);
    let out = simulate(&m, &m, ff.as_mut(), &jobs, &cfg).unwrap();
    // Job 0 finishes at 10 * 0.9 = 9.0 < arrival + work.
    assert!(
        out.min_stretch < 0.9 + 1e-9,
        "constructive co-run was clamped: min stretch {}",
        out.min_stretch
    );
}
