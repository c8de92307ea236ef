//! # cochar-colocation
//!
//! The paper's measurement methodology as a library: solo and co-running
//! execution, the Harmony / Victim-Offender / Both-Victim classification
//! (Sec. V), thread-scalability sweeps (Sec. IV-A), prefetcher-sensitivity
//! studies (Sec. IV-C), bandwidth accounting (Sec. IV-B, Table III), the
//! full N x N consolidation heatmap (Fig. 5), and VTune-style profile
//! tables (Sec. VI, Table IV).
//!
//! The central type is [`Study`]: a machine configuration plus a workload
//! registry, with solo-run caching and parallel sweep execution.
//!
//! ```
//! use cochar_colocation::Study;
//! use cochar_machine::MachineConfig;
//! use cochar_workloads::{Registry, Scale};
//! use std::sync::Arc;
//!
//! let cfg = MachineConfig::tiny();
//! let registry = Arc::new(Registry::new(Scale::tiny()));
//! let study = Study::new(cfg, registry).with_threads(1);
//! let solo = study.solo("blackscholes");
//! assert!(solo.profile.cpi > 0.0);
//! ```

#![warn(missing_docs)]

pub mod bandwidth;
pub mod bubble;
pub mod classify;
pub mod consolidation;
pub mod heatmap;
pub mod metrics;
pub mod phases;
pub mod prefetcher;
pub mod report;
pub mod scalability;
pub mod study;
pub mod sweep;
pub mod throttle;

pub use bubble::BubbleCurve;
pub use classify::{classify, PairClass, VICTIM_THRESHOLD};
pub use heatmap::{CellStatus, Heatmap};
pub use metrics::Profile;
pub use scalability::{ScalabilityClass, ScalabilityCurve};
pub use study::{PairResult, SoloResult, Study};
pub use sweep::{supervised_map, CellBook, CellFailure, Settled, SweepPolicy};
