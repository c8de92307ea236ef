//! # cochar-sched
//!
//! Interference-aware consolidation scheduling — the application layer the
//! paper's introduction motivates and its Sec. II-B surveys. Given the
//! pairwise interference costs measured by `cochar-colocation` (or
//! predicted from Bubble-Up curves), these policies pack jobs two-per-node
//! while protecting QoS:
//!
//! * [`policies::Naive`] — queue-order pairing (the no-information baseline).
//! * [`policies::Greedy`] — most-vulnerable-first matching.
//! * [`policies::Optimal`] — exact minimum-cost matching (bitmask DP,
//!   up to ~20 jobs).
//! * [`policies::Stable`] — Gale-Shapley stable matching between
//!   QoS-sensitive and batch jobs (the Cooper/Bubble-flux framing).
//!
//! [`simulate::validate`] closes the loop: it re-runs every planned bundle
//! in the simulator and reports planned vs measured cost.

#![warn(missing_docs)]

pub mod matrix;
pub mod placement;
pub mod policies;
pub mod simulate;

pub use matrix::CostMatrix;
pub use placement::Placement;
pub use policies::{Greedy, Naive, Optimal, Scheduler, Stable};
