//! Exact run counts for the multi-step paths that share one study.
//!
//! `cochar cluster compare` measures the N² matrix and then exports a
//! predicted one from the same study; `schedule --validate` re-runs the
//! planned bundles. Every keyed run resolves once per study family, so
//! the later steps simulate only what the earlier ones did not.

use std::sync::Arc;

use cochar_colocation::Study;
use cochar_machine::{MachineConfig, Msr};
use cochar_predict::{Predictor, PredictorConfig};
use cochar_sched::{simulate::validate, CostMatrix, Greedy, Scheduler};
use cochar_workloads::{Registry, Scale};

const APPS: [&str; 3] = ["mcf", "stream", "swaptions"];

/// The placement study of `perfbench --size tiny`: the tiny machine, work
/// 0.1, one thread per app, one trial, seed 1, every prefetcher off.
fn placement_study() -> Study {
    let registry = Arc::new(Registry::new(Scale::tiny().with_work(0.1)));
    Study::new(MachineConfig::tiny(), registry)
        .with_threads(1)
        .with_trials(1)
        .with_seed(1)
        .with_msr(Msr::from_raw(0))
}

fn bits(m: &CostMatrix) -> Vec<Vec<u64>> {
    m.slow.iter().map(|row| row.iter().map(|v| v.to_bits()).collect()).collect()
}

#[test]
fn export_after_measure_simulates_only_the_new_solo_runs() {
    let study = placement_study();
    let measured = CostMatrix::measure(&study, &APPS);
    // 3 solos + 9 ordered pairs.
    assert_eq!(study.run_counts(), (12, 0));

    let predicted = Predictor::export_matrix(&study, &APPS, 2, PredictorConfig::default());
    // The 4 training pairs and every solo at the study's own MSR and
    // thread count are already in the table; new are the 3 all-on
    // prefetcher endpoints and the 3 two-thread scalability points.
    assert_eq!(study.run_counts(), (12 + 6, 0));

    // Both matrices are bit-identical to those computed when every step
    // re-simulated its runs.
    assert_eq!(
        bits(&measured),
        [
            [0x3ff4e870634b73b7, 0x3ffa358e4baf61c7, 0x3ff001ea7319016b],
            [0x3ff0000000000000, 0x4003aae56f91cecf, 0x3ff0000000000000],
            [0x3ff0016eda37c2ed, 0x3ff001629fbe6fa1, 0x3ff00014f686d7f0],
        ]
    );
    assert_eq!(
        bits(&predicted),
        [
            [0x3ff0000000000000, 0x3ffa34d69e7b6a31, 0x3ff0000000000000],
            [0x3ff00203766b0fec, 0x4003a9cb68a1365a, 0x3ff0000000000000],
            [0x3ff0000000000000, 0x3ff09da05b1ca0fe, 0x3ff0000000000000],
        ]
    );
}

#[test]
fn validate_after_measure_simulates_nothing() {
    let study = placement_study();
    let m = CostMatrix::measure(&study, &APPS);
    let before = study.run_counts();
    let placement = Greedy.schedule(&m).validated(APPS.len());
    assert!(!placement.bundles.is_empty(), "the plan co-locates at least one pair");
    let report = validate(&study, &m, &placement);
    assert_eq!(study.run_counts(), before, "every bundle was measured already");
    assert!(report.mean_relative_error() < 1e-9);
}
