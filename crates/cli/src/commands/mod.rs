//! CLI subcommands.

pub mod bench;
pub mod bubble;
pub mod cluster;
pub mod fabric;
pub mod heatmap;
pub mod list;
pub mod pair;
pub mod paper;
pub mod predict;
pub mod prefetch;
pub mod scalability;
pub mod schedule;
pub mod solo;
pub mod store;
pub mod throttle;
pub mod timeline;

use std::process::ExitCode;

use cochar_colocation::Profile;
use cochar_colocation::report::table::{f1, f2, pct, Table};

/// Standard profile table shared by `solo` and `pair`.
pub(crate) fn profile_table(rows: &[(&str, &Profile)]) -> String {
    let mut t = Table::new(vec![
        "app", "Mcycles", "GB/s", "CPI", "LLC MPKI", "L2_PCP", "LL", "pf acc",
    ]);
    for (label, p) in rows {
        t.row(vec![
            label.to_string(),
            f1(p.elapsed_cycles as f64 / 1e6),
            f1(p.bandwidth_gbs),
            f2(p.cpi),
            f1(p.llc_mpki),
            pct(p.l2_pcp),
            f1(p.ll),
            pct(p.prefetch_accuracy),
        ]);
    }
    t.render()
}

/// Writes `contents` to `path` if `--csv` was given, reporting the path.
pub(crate) fn maybe_write_csv(
    opts: &crate::opts::Opts,
    contents: &str,
) -> Result<(), String> {
    if let Some(path) = opts.flag("csv") {
        std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// The exit code of a command that ran to completion: 3 when the run
/// store degraded to cache-less operation (an unpersisted sweep is the
/// bigger surprise for whoever plans to resume it), else 2 when sweep
/// cells failed, else 0.
pub(crate) fn exit_code(store_degraded: bool, failed_cells: usize) -> ExitCode {
    if store_degraded {
        eprintln!("exit: run store degraded mid-sweep (code 3)");
        ExitCode::from(3)
    } else if failed_cells > 0 {
        eprintln!("exit: {failed_cells} cell(s) failed (code 2)");
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}
