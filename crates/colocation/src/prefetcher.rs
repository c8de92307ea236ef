//! Prefetcher-sensitivity analysis (paper Sec. IV-C, Fig. 4).

use cochar_machine::Msr;
use serde::{Deserialize, Serialize};

use crate::study::Study;

/// One application's sensitivity to the hardware prefetchers.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PrefetchSensitivity {
    /// Application name.
    pub name: String,
    /// Elapsed cycles with all prefetchers on (the baseline).
    pub on_cycles: u64,
    /// Elapsed cycles with all prefetchers off.
    pub off_cycles: u64,
    /// Slowdown when prefetchers are turned off (Fig. 4's y-axis): > 1
    /// means the application benefits from prefetching.
    pub slowdown: f64,
}

/// Measures `name`'s slowdown with all prefetchers disabled, at the
/// study's thread count (the paper fixes 4 threads).
///
/// Note: the study's own MSR setting is ignored; this explicitly compares
/// the all-on and all-off endpoints as the paper does.
pub fn sensitivity(study: &Study, name: &str) -> PrefetchSensitivity {
    // Derive studies at the two MSR endpoints; they share the registry,
    // the run table, the persistent run store, and the run counters, so
    // an endpoint solo the study already ran is not simulated again.
    let on = study.derive_with_msr(Msr::all_on());
    let off = study.derive_with_msr(Msr::all_off());
    let on_cycles = on.solo(name).elapsed_cycles;
    let off_cycles = off.solo(name).elapsed_cycles;
    PrefetchSensitivity {
        name: name.to_string(),
        on_cycles,
        off_cycles,
        slowdown: off_cycles as f64 / on_cycles as f64,
    }
}

/// Per-prefetcher breakdown: slowdown from disabling each prefetcher
/// alone (an extension beyond the paper's all-or-nothing toggle).
pub fn per_prefetcher_breakdown(study: &Study, name: &str) -> Vec<(&'static str, f64)> {
    let base = study.derive_with_msr(Msr::all_on()).solo(name).elapsed_cycles as f64;
    let cases: [(&'static str, Msr); 4] = [
        ("l2_stream_off", Msr::all_on().with_l2_stream(false)),
        ("l2_adjacent_off", Msr::all_on().with_l2_adjacent(false)),
        ("l1_next_line_off", Msr::all_on().with_l1_next_line(false)),
        ("l1_ip_off", Msr::all_on().with_l1_ip(false)),
    ];
    cases
        .into_iter()
        .map(|(label, msr)| {
            let t = study.derive_with_msr(msr).solo(name).elapsed_cycles as f64;
            (label, t / base)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cochar_machine::MachineConfig;
    use cochar_workloads::{Registry, Scale};
    use std::sync::Arc;

    fn study() -> Study {
        Study::new(MachineConfig::tiny(), Arc::new(Registry::new(Scale::tiny())))
            .with_threads(1)
    }

    #[test]
    fn regular_sweep_benefits_from_prefetching() {
        let s = study();
        let sens = sensitivity(&s, "stream");
        assert!(
            sens.slowdown > 1.05,
            "stream must slow down without prefetchers: {:.3}",
            sens.slowdown
        );
    }

    #[test]
    fn pointer_chase_is_insensitive() {
        let s = study();
        let sens = sensitivity(&s, "mcf");
        assert!(
            sens.slowdown < 1.15,
            "mcf should barely care about prefetchers: {:.3}",
            sens.slowdown
        );
    }

    #[test]
    fn breakdown_covers_four_prefetchers() {
        let s = study();
        let rows = per_prefetcher_breakdown(&s, "stream");
        assert_eq!(rows.len(), 4);
        // Disabling a single prefetcher can never be a bigger hit than
        // disabling all four (allowing small simulator noise).
        let all_off = sensitivity(&s, "stream").slowdown;
        for (label, slow) in rows {
            assert!(
                slow <= all_off * 1.05,
                "{label}: single-off {slow:.3} exceeds all-off {all_off:.3}"
            );
        }
    }
}
