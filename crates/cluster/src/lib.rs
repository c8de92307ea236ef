//! cochar-cluster: a discrete-event cluster-scale placement simulator
//! with policy-regret accounting.
//!
//! The paper measures pairwise interference on one node; this crate asks
//! the operational question that measurement exists to answer: **how much
//! does interference knowledge buy at cluster scale, and how much of that
//! survives when the knowledge is predicted instead of measured?**
//!
//! The pieces:
//!
//! * [`event`] — binary-heap event queue (arrivals, predicted
//!   completions with epoch-based lazy invalidation, defrag ticks).
//! * [`compose`] — k-way degradation composed from pairwise directed
//!   slowdowns ([`Compose::Max`] / [`Compose::Product`]).
//! * [`job`] — the job type, seeded Poisson workload generation, and the
//!   CSV trace format.
//! * [`index`] — the occupancy index the engine keeps and policies
//!   decide from: free nodes by occupancy and by member app sequence.
//! * [`policy`] — pluggable placement policies (random, first-fit,
//!   best-fit, spread, interference-aware, defrag) over k-slot nodes.
//! * [`sim`] — the engine: truth matrix drives progress rates, knowledge
//!   matrix drives decisions; per-job stretch/SLO accounting plus
//!   time-integrated node-count, QoS-violation, and energy ledgers.
//! * [`report`] — deterministic JSON/CSV regret report against the
//!   offline-informed baseline.

#![warn(missing_docs)]

pub mod compose;
pub mod event;
pub mod index;
pub mod job;
pub mod policy;
pub mod report;
pub mod sim;

pub use compose::Compose;
pub use event::{Event, EventQueue};
pub use index::NodeIndex;
pub use job::{parse_trace, render_trace, Job, Workload};
pub use policy::{ClusterPolicy, ClusterView, Placement, PolicyKind};
pub use report::{RegretReport, RunRecord, Scenario, MEASURED, PREDICTED};
pub use sim::{simulate, ClusterOutcome, SimConfig, SimError};
