//! The discrete-event cluster engine.
//!
//! Thousands of k-slot nodes, a binary-heap event loop
//! ([`crate::event`]), and exact fluid progress between events: every
//! running job advances at `1 / slowdown` where its slowdown is composed
//! from pairwise directed entries of the **truth** matrix
//! ([`crate::compose`]). The placement policy decides from a separate
//! **knowledge** matrix; handing it the predicted matrix while the world
//! runs on the measured one is how predicted-placement regret is
//! quantified.
//!
//! Per-event work is one pass over the running jobs' dense arrays
//! (remaining work and cached rate, indexed by running slot) plus the
//! nodes the event touched. Rates and QoS flags are recomputed only for
//! those nodes, when their completions are re-predicted. The ledgers are
//! closed-form: the engine keeps counts of non-empty and QoS-violating
//! nodes, and each event adds `dt * count` once to node-, slot- (the
//! running-job count, which is the sum of node occupancies) and QoS
//! seconds: one rounding per ledger per event, whatever the cluster's
//! size. `tests/golden.rs` pins the resulting bits.
//!
//! Placement decisions do not walk the nodes. The engine owns a
//! [`NodeIndex`] of the free nodes by occupancy and by member app
//! sequence, and updates it wherever a node's app list changes: when a
//! job starts, when one completes, and at both ends of a defragmentation
//! move. Policies read it through [`ClusterView::index`].
//! Defragmentation itself still scans every node; it runs once per
//! defragmentation period, not once per event.

use std::collections::VecDeque;

use cochar_sched::CostMatrix;

use crate::compose::Compose;
use crate::event::{Event, EventQueue};
use crate::index::NodeIndex;
use crate::job::Job;
use crate::policy::{ClusterPolicy, ClusterView, Placement};

/// Completion epsilon on remaining work. Advancing by `dt * rate` to a
/// predicted completion leaves rounding residue, not exactly zero; a job
/// this close to done completes at that instant instead of re-aiming for
/// a sliver.
const DONE: f64 = 1e-9;

/// Simultaneity window for arrival batching: arrivals this close to the
/// current instant join its batch and see the capacity its completions
/// freed.
const TIE: f64 = 1e-12;

/// Scenario knobs for one simulation.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Number of nodes in the cluster.
    pub nodes: usize,
    /// Job slots per node (k).
    pub slots: usize,
    /// Composed slowdowns at or above this cap count as QoS violations.
    pub qos_cap: f64,
    /// Per-job SLO: a stretch above this threshold is an SLO violation.
    pub slo_stretch: f64,
    /// How pairwise slowdowns compose to k-way degradation.
    pub compose: Compose,
    /// If set, a defragmentation event fires every this many time units.
    pub defrag_period: Option<f64>,
    /// Idle-node power as a fraction of an active node's (energy ledger).
    pub idle_power: f64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            nodes: 64,
            slots: 2,
            qos_cap: 1.5,
            slo_stretch: 2.0,
            compose: Compose::Max,
            defrag_period: None,
            idle_power: 0.3,
        }
    }
}

/// Why a simulation could not produce a result.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The policy made an impossible decision (placed onto a missing or
    /// full node, or left jobs queued with capacity free).
    Policy {
        /// Name of the offending policy.
        policy: String,
        /// What it did.
        detail: String,
    },
    /// A job or the scenario configuration is malformed.
    Config {
        /// What is wrong.
        detail: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Policy { policy, detail } => {
                write!(f, "policy error ({policy}): {detail}")
            }
            SimError::Config { detail } => write!(f, "config error: {detail}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Aggregate result of one simulation.
#[derive(Clone, Debug)]
pub struct ClusterOutcome {
    /// Jobs simulated.
    pub jobs: usize,
    /// Completion time of the last job.
    pub makespan: f64,
    /// Mean of per-job `(finish - arrival) / work` (1.0 is perfect; below
    /// 1.0 is possible under constructive co-runs).
    pub mean_stretch: f64,
    /// Best stretch (below 1.0 only when a sub-1.0 matrix entry let a
    /// constructive co-run finish a job faster than solo).
    pub min_stretch: f64,
    /// Median stretch.
    pub p50_stretch: f64,
    /// 95th-percentile stretch.
    pub p95_stretch: f64,
    /// 99th-percentile stretch.
    pub p99_stretch: f64,
    /// Worst stretch.
    pub max_stretch: f64,
    /// Jobs whose stretch exceeded the SLO threshold.
    pub slo_violations: usize,
    /// Time-integrated count of nodes hosting a bundle whose composed
    /// truth slowdown reaches the QoS cap.
    pub qos_violation_time: f64,
    /// Time-integrated count of non-empty nodes (consolidation ledger).
    pub node_seconds: f64,
    /// Time-integrated count of occupied slots.
    pub slot_seconds: f64,
    /// Energy proxy: active nodes at power 1.0, idle nodes at
    /// `idle_power`, integrated until the last completion.
    pub energy: f64,
    /// Most nodes simultaneously non-empty.
    pub peak_active_nodes: usize,
    /// Longest the arrival queue ever got.
    pub peak_queue: usize,
    /// Jobs moved by defragmentation events.
    pub migrations: usize,
}

impl ClusterOutcome {
    /// Fraction of jobs that violated the SLO.
    pub fn slo_frac(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.slo_violations as f64 / self.jobs as f64
        }
    }
}

/// Runs `jobs` through `policy` on a cluster of `cfg.nodes` × `cfg.slots`
/// slots. `truth` drives actual progress rates and QoS accounting;
/// `knowledge` is what the policy sees (pass the same matrix for an
/// informed policy, a predicted one to measure prediction regret).
pub fn simulate(
    truth: &CostMatrix,
    knowledge: &CostMatrix,
    policy: &mut dyn ClusterPolicy,
    jobs: &[Job],
    cfg: &SimConfig,
) -> Result<ClusterOutcome, SimError> {
    let config_err = |detail: String| Err(SimError::Config { detail });
    if cfg.nodes == 0 || cfg.slots == 0 {
        return config_err(format!("{} nodes x {} slots is an empty cluster", cfg.nodes, cfg.slots));
    }
    // A NaN cap would count no co-run as a violation and a negative one
    // every co-run; a NaN SLO would count no job.
    for (label, v) in [("QoS cap", cfg.qos_cap), ("SLO stretch", cfg.slo_stretch)] {
        if !(v.is_finite() && v > 0.0) {
            return config_err(format!("{label} {v} must be positive and finite"));
        }
    }
    if knowledge.len() != truth.len() {
        return config_err(format!(
            "knowledge matrix covers {} apps, truth covers {}",
            knowledge.len(),
            truth.len()
        ));
    }
    for (label, m) in [("truth", truth), ("knowledge", knowledge)] {
        let n = m.len();
        if m.slow.len() != n || m.slow.iter().any(|row| row.len() != n) {
            return config_err(format!("{label} matrix is not {n}x{n}"));
        }
        if let Some(bad) = m.slow.iter().flatten().find(|v| !(v.is_finite() && **v > 0.0)) {
            return config_err(format!(
                "{label} matrix entry {bad} is not a positive finite number"
            ));
        }
    }
    for (i, j) in jobs.iter().enumerate() {
        if j.app >= truth.len() {
            return config_err(format!("job {i}: app {} outside the {}-app matrix", j.app, truth.len()));
        }
        if !(j.work.is_finite() && j.work > 0.0) {
            return config_err(format!("job {i}: work {} must be positive and finite", j.work));
        }
        if !(j.arrival.is_finite() && j.arrival >= 0.0) {
            return config_err(format!("job {i}: arrival {} must be non-negative", j.arrival));
        }
    }

    let node_apps = vec![Vec::new(); cfg.nodes];
    let mut e = Engine {
        truth,
        knowledge,
        jobs,
        cfg: *cfg,
        node_members: vec![Vec::new(); cfg.nodes],
        index: NodeIndex::new(&node_apps, cfg.slots),
        node_apps,
        violating: vec![false; cfg.nodes],
        active_nodes: 0,
        violating_nodes: 0,
        run_job: Vec::new(),
        run_rem: Vec::new(),
        run_rate: Vec::new(),
        slot_of: vec![usize::MAX; jobs.len()],
        node_of: vec![usize::MAX; jobs.len()],
        epoch: vec![0; jobs.len()],
        finish: vec![f64::NAN; jobs.len()],
        queue: VecDeque::new(),
        events: EventQueue::new(),
        pending_arrivals: jobs.len(),
        now: 0.0,
        makespan: 0.0,
        qos_violation_time: 0.0,
        node_seconds: 0.0,
        slot_seconds: 0.0,
        energy: 0.0,
        peak_active: 0,
        peak_queue: 0,
        migrations: 0,
    };

    // Arrival events in (time, index) order so simultaneous arrivals are
    // placed in job-list order, as a stable sort by arrival would.
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| jobs[a].arrival.total_cmp(&jobs[b].arrival).then(a.cmp(&b)));
    for &j in &order {
        e.events.push(jobs[j].arrival, Event::JobArrival { job: j });
    }
    if let Some(period) = cfg.defrag_period {
        if !(period.is_finite() && period > 0.0) {
            return config_err(format!("defrag period {period} must be positive"));
        }
        e.events.push(period, Event::Defragmentation);
    }

    e.run(policy)?;
    Ok(e.into_outcome())
}

struct Engine<'a> {
    truth: &'a CostMatrix,
    knowledge: &'a CostMatrix,
    jobs: &'a [Job],
    cfg: SimConfig,
    /// Job indices on each node.
    node_members: Vec<Vec<usize>>,
    /// Apps on each node (parallel to `node_members`; what policies see).
    node_apps: Vec<Vec<usize>>,
    /// `node_apps` by occupancy and member sequence, kept current by
    /// `add_member` and `remove_member`.
    index: NodeIndex,
    /// Whether each node's bundle breached the QoS cap when it was last
    /// rescheduled.
    violating: Vec<bool>,
    /// Number of non-empty nodes, kept by `add_member` and `remove_member`.
    active_nodes: usize,
    /// Number of `violating` nodes, kept by `reschedule`.
    violating_nodes: usize,
    /// Running jobs by running slot: the job, its remaining work, and its
    /// progress rate as of the last time its node was touched.
    run_job: Vec<usize>,
    run_rem: Vec<f64>,
    run_rate: Vec<f64>,
    /// Running slot of each job (`usize::MAX` unless running).
    slot_of: Vec<usize>,
    node_of: Vec<usize>,
    epoch: Vec<u64>,
    finish: Vec<f64>,
    queue: VecDeque<usize>,
    events: EventQueue,
    pending_arrivals: usize,
    now: f64,
    makespan: f64,
    qos_violation_time: f64,
    node_seconds: f64,
    slot_seconds: f64,
    energy: f64,
    peak_active: usize,
    peak_queue: usize,
    migrations: usize,
}

impl Engine<'_> {
    /// Progress rate of running job `j`: `1 / composed truth slowdown`.
    fn rate(&self, j: usize) -> f64 {
        let node = self.node_of[j];
        let members = &self.node_members[node];
        if members.len() < 2 {
            return 1.0;
        }
        let me = self.jobs[j].app;
        let others = members.iter().filter(|&&m| m != j).map(|&m| self.jobs[m].app);
        1.0 / self.cfg.compose.slowdown(self.truth, me, others)
    }

    /// True while `node`'s bundle breaches the QoS cap under truth.
    fn node_in_violation(&self, node: usize) -> bool {
        let apps = &self.node_apps[node];
        apps.len() >= 2 && self.cfg.compose.bundle_cost(self.truth, apps) >= self.cfg.qos_cap
    }

    /// Advances every running job by `dt` (`dt > 0`) and accrues the
    /// time-integrated ledgers from the node and job counts.
    fn advance(&mut self, dt: f64) {
        for (rem, &rate) in self.run_rem.iter_mut().zip(&self.run_rate) {
            *rem -= dt * rate;
        }
        let active = self.active_nodes;
        self.node_seconds += dt * active as f64;
        self.slot_seconds += dt * self.run_job.len() as f64;
        self.qos_violation_time += dt * self.violating_nodes as f64;
        self.energy +=
            dt * (active as f64 + self.cfg.idle_power * (self.cfg.nodes - active) as f64);
        self.peak_active = self.peak_active.max(active);
    }

    /// Completes every running job whose work is exhausted. Runs on every
    /// event, zero-length steps included: a sliver of work whose predicted
    /// completion rounds to the current instant is caught here.
    fn complete_due(&mut self, dirty: &mut Vec<usize>) {
        let mut i = 0;
        while i < self.run_rem.len() {
            if self.run_rem[i] <= DONE {
                let j = self.run_job.swap_remove(i);
                self.run_rem.swap_remove(i);
                self.run_rate.swap_remove(i);
                if let Some(&moved) = self.run_job.get(i) {
                    self.slot_of[moved] = i;
                }
                self.slot_of[j] = usize::MAX;
                self.finish[j] = self.now;
                self.makespan = self.makespan.max(self.now);
                let node = self.node_of[j];
                self.remove_member(node, j);
                self.epoch[j] += 1; // invalidate its pending JobEnd
                dirty.push(node);
            } else {
                i += 1;
            }
        }
    }

    /// Puts `job` on `node`'s member list, keeping `node_of`, the index
    /// and the non-empty node count current.
    fn add_member(&mut self, node: usize, job: usize) {
        self.index.remove(node, &self.node_apps[node]);
        self.active_nodes += usize::from(self.node_members[node].is_empty());
        self.node_members[node].push(job);
        self.node_apps[node].push(self.jobs[job].app);
        self.index.insert(node, &self.node_apps[node]);
        self.node_of[job] = node;
    }

    /// Takes `job` off `node`'s member list, keeping `node_of`, the index
    /// and the non-empty node count current.
    fn remove_member(&mut self, node: usize, job: usize) {
        self.index.remove(node, &self.node_apps[node]);
        let pos = self.node_members[node]
            .iter()
            .position(|&m| m == job)
            .expect("member bookkeeping");
        self.node_members[node].remove(pos);
        self.node_apps[node].remove(pos);
        self.active_nodes -= usize::from(self.node_members[node].is_empty());
        self.index.insert(node, &self.node_apps[node]);
        self.node_of[job] = usize::MAX;
    }

    fn view(&self, app: usize) -> ClusterView<'_> {
        ClusterView {
            knowledge: self.knowledge,
            nodes: &self.node_apps,
            index: &self.index,
            slots: self.cfg.slots,
            app,
            compose: self.cfg.compose,
            qos_cap: self.cfg.qos_cap,
        }
    }

    /// Starts `job` on `node`, validating the policy's decision.
    fn start(
        &mut self,
        policy_name: &str,
        job: usize,
        node: usize,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        if node >= self.cfg.nodes {
            return Err(SimError::Policy {
                policy: policy_name.to_string(),
                detail: format!("placed job {job} onto node {node} of {}", self.cfg.nodes),
            });
        }
        if self.node_members[node].len() >= self.cfg.slots {
            return Err(SimError::Policy {
                policy: policy_name.to_string(),
                detail: format!(
                    "placed job {job} onto full node {node} ({}/{} slots)",
                    self.node_members[node].len(),
                    self.cfg.slots
                ),
            });
        }
        self.add_member(node, job);
        self.slot_of[job] = self.run_job.len();
        self.run_job.push(job);
        self.run_rem.push(self.jobs[job].work);
        // `reschedule` sets the rate: `node` is dirty.
        self.run_rate.push(f64::NAN);
        dirty.push(node);
        Ok(())
    }

    /// Asks the policy about `job`; places it or queues it.
    fn place_or_queue(
        &mut self,
        policy: &mut dyn ClusterPolicy,
        job: usize,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        let decision = policy.place(&self.view(self.jobs[job].app));
        match decision {
            Placement::Queue => {
                self.queue.push_back(job);
                self.peak_queue = self.peak_queue.max(self.queue.len());
            }
            Placement::Node(node) => self.start(policy.name(), job, node, dirty)?,
        }
        Ok(())
    }

    /// Offers queued jobs (FIFO) to the policy until it declines.
    fn drain_queue(
        &mut self,
        policy: &mut dyn ClusterPolicy,
        dirty: &mut Vec<usize>,
    ) -> Result<(), SimError> {
        while let Some(&j) = self.queue.front() {
            match policy.place(&self.view(self.jobs[j].app)) {
                Placement::Queue => break,
                Placement::Node(node) => {
                    self.queue.pop_front();
                    self.start(policy.name(), j, node, dirty)?;
                }
            }
        }
        Ok(())
    }

    /// Refreshes the touched nodes' QoS flags and their members' rates,
    /// and re-predicts those members' completion times.
    fn reschedule(&mut self, dirty: &mut Vec<usize>) {
        dirty.sort_unstable();
        dirty.dedup();
        for &node in dirty.iter() {
            let violating = self.node_in_violation(node);
            self.violating_nodes =
                self.violating_nodes + usize::from(violating) - usize::from(self.violating[node]);
            self.violating[node] = violating;
            for i in 0..self.node_members[node].len() {
                let j = self.node_members[node][i];
                let slot = self.slot_of[j];
                let rate = self.rate(j);
                self.run_rate[slot] = rate;
                self.epoch[j] += 1;
                let eta = self.now + self.run_rem[slot].max(0.0) / rate;
                self.events.push(eta, Event::JobEnd { job: j, epoch: self.epoch[j] });
            }
        }
        dirty.clear();
    }

    /// Periodic consolidation: migrate jobs off lightly-loaded nodes onto
    /// more-loaded ones whenever the *knowledge* matrix says every
    /// affected bundle stays under the QoS cap, emptying nodes (and their
    /// idle-power share of the energy ledger). All-or-nothing per source
    /// node; migrations are modeled as free (state fits in slot memory).
    fn defragment(&mut self, dirty: &mut Vec<usize>) {
        loop {
            // Source: the least-occupied non-empty node (ties: highest
            // index, so tail nodes empty first).
            let mut source: Option<(usize, usize)> = None; // (occupancy, node)
            for (n, members) in self.node_members.iter().enumerate() {
                if members.is_empty() {
                    continue;
                }
                if source.is_none_or(|(occ, _)| members.len() <= occ) {
                    source = Some((members.len(), n));
                }
            }
            let Some((_, src)) = source else { break };
            // Plan a full evacuation against a scratch occupancy copy so
            // intra-plan moves see each other.
            let mut scratch = self.node_apps.clone();
            let movers: Vec<usize> = self.node_members[src].clone();
            let mut plan: Vec<(usize, usize)> = Vec::new(); // (job, target)
            let mut feasible = true;
            for &job in &movers {
                let app = self.jobs[job].app;
                let mut best: Option<(usize, f64)> = None;
                for (t, apps) in scratch.iter().enumerate() {
                    if t == src || apps.is_empty() || apps.len() >= self.cfg.slots {
                        continue;
                    }
                    let mut bundle = apps.clone();
                    bundle.push(app);
                    let cost = self.cfg.compose.bundle_cost(self.knowledge, &bundle);
                    if cost < self.cfg.qos_cap && best.is_none_or(|(_, c)| cost < c) {
                        best = Some((t, cost));
                    }
                }
                match best {
                    Some((t, _)) => {
                        scratch[t].push(app);
                        plan.push((job, t));
                    }
                    None => {
                        feasible = false;
                        break;
                    }
                }
            }
            if !feasible || plan.is_empty() {
                break;
            }
            for (job, target) in plan {
                self.remove_member(src, job);
                self.add_member(target, job);
                self.migrations += 1;
                dirty.push(target);
            }
            dirty.push(src);
        }
    }

    fn run(&mut self, policy: &mut dyn ClusterPolicy) -> Result<(), SimError> {
        let mut dirty: Vec<usize> = Vec::new();
        while let Some((t, ev)) = self.pop_valid() {
            let dt = t - self.now;
            if dt > 0.0 {
                self.advance(dt);
            }
            self.now = t;
            // Completions first (frees capacity), then the FIFO queue,
            // then arrivals due at this instant: jobs that already waited
            // get freed capacity before jobs that arrive now.
            self.complete_due(&mut dirty);
            self.drain_queue(policy, &mut dirty)?;
            match ev {
                Event::JobArrival { job } => {
                    self.pending_arrivals -= 1;
                    self.place_or_queue(policy, job, &mut dirty)?;
                }
                Event::JobEnd { job, .. } => {
                    if self.finish[job].is_nan() {
                        // Prediction drift left a sliver of work: re-aim.
                        self.epoch[job] += 1;
                        let rem = self.run_rem[self.slot_of[job]];
                        let eta = self.now + rem.max(0.0) / self.rate(job);
                        self.events.push(eta, Event::JobEnd { job, epoch: self.epoch[job] });
                    }
                }
                Event::Defragmentation => {
                    self.defragment(&mut dirty);
                    if self.pending_arrivals > 0
                        || !self.run_job.is_empty()
                        || !self.queue.is_empty()
                    {
                        let period = self.cfg.defrag_period.expect("defrag event without period");
                        self.events.push(self.now + period, Event::Defragmentation);
                    }
                }
            }
            // Simultaneous arrivals join this instant's batch.
            while let Some((t2, Event::JobArrival { job })) = self.events.peek() {
                if t2 > self.now + TIE {
                    break;
                }
                self.events.pop();
                self.pending_arrivals -= 1;
                self.place_or_queue(policy, job, &mut dirty)?;
            }
            self.reschedule(&mut dirty);
        }
        if !self.queue.is_empty() {
            let free: usize =
                self.node_members.iter().map(|m| self.cfg.slots - m.len()).sum();
            return Err(SimError::Policy {
                policy: policy.name().to_string(),
                detail: format!(
                    "left {} job(s) queued with the cluster idle ({} free slot(s))",
                    self.queue.len(),
                    free
                ),
            });
        }
        Ok(())
    }

    /// Pops the next event, skipping stale completion predictions.
    fn pop_valid(&mut self) -> Option<(f64, Event)> {
        while let Some((t, ev)) = self.events.pop() {
            if let Event::JobEnd { job, epoch } = ev {
                if epoch != self.epoch[job] || !self.finish[job].is_nan() {
                    continue;
                }
            }
            return Some((t, ev));
        }
        None
    }

    fn into_outcome(self) -> ClusterOutcome {
        let n = self.jobs.len();
        let mut stretches: Vec<f64> = self
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (self.finish[i] - j.arrival) / j.work)
            .collect();
        stretches.sort_by(f64::total_cmp);
        let pct = |q: f64| -> f64 {
            if stretches.is_empty() {
                return 1.0;
            }
            let idx = ((q * stretches.len() as f64).ceil() as usize).max(1) - 1;
            stretches[idx.min(stretches.len() - 1)]
        };
        let mean_stretch =
            if n == 0 { 1.0 } else { stretches.iter().sum::<f64>() / n as f64 };
        let slo_violations = stretches.iter().filter(|&&s| s > self.cfg.slo_stretch).count();
        ClusterOutcome {
            jobs: n,
            makespan: self.makespan,
            mean_stretch,
            min_stretch: stretches.first().copied().unwrap_or(1.0),
            p50_stretch: pct(0.50),
            p95_stretch: pct(0.95),
            p99_stretch: pct(0.99),
            max_stretch: stretches.last().copied().unwrap_or(1.0),
            slo_violations,
            qos_violation_time: self.qos_violation_time,
            node_seconds: self.node_seconds,
            slot_seconds: self.slot_seconds,
            energy: self.energy,
            peak_active_nodes: self.peak_active,
            peak_queue: self.peak_queue,
            migrations: self.migrations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{BestFit, FirstFit, InterferenceAware, Spread};

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["quiet".into(), "loud".into()],
            slow: vec![vec![1.05, 2.0], vec![2.0, 1.05]],
        }
    }

    fn burst(apps: &[usize]) -> Vec<Job> {
        apps.iter().map(|&app| Job { app, arrival: 0.0, work: 10.0 }).collect()
    }

    fn cfg(nodes: usize, slots: usize) -> SimConfig {
        SimConfig { nodes, slots, ..SimConfig::default() }
    }

    #[test]
    fn single_job_runs_at_solo_speed() {
        let m = matrix();
        let out = simulate(&m, &m, &mut FirstFit, &burst(&[0]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 10.0).abs() < 1e-9);
        assert!((out.mean_stretch - 1.0).abs() < 1e-9);
        assert_eq!(out.peak_active_nodes, 1);
    }

    #[test]
    fn toxic_pair_on_one_node_runs_at_half_speed() {
        let m = matrix();
        // first-fit packs both onto node 0: each runs at 1/2 speed.
        let out = simulate(&m, &m, &mut FirstFit, &burst(&[0, 1]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 20.0).abs() < 1e-9, "makespan {}", out.makespan);
        assert!(out.qos_violation_time > 19.0);
        // spread puts them on separate nodes: solo speed, no violations.
        let out = simulate(&m, &m, &mut Spread, &burst(&[0, 1]), &cfg(2, 2)).unwrap();
        assert!((out.makespan - 10.0).abs() < 1e-9, "makespan {}", out.makespan);
        assert_eq!(out.qos_violation_time, 0.0);
    }

    #[test]
    fn four_slot_node_composes_kway_degradation() {
        // Four "loud" jobs on one 4-slot node, diagonal 1.05.
        let m = matrix();
        let jobs = burst(&[1, 1, 1, 1]);
        // Max composition: slowdown 1.05 regardless of co-runner count.
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &cfg(1, 4)).unwrap();
        assert!((out.makespan - 10.5).abs() < 1e-9, "max makespan {}", out.makespan);
        // Product composition: 1.05^3 per job.
        let c = SimConfig { compose: Compose::Product, ..cfg(1, 4) };
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &c).unwrap();
        let expect = 10.0 * 1.05f64.powi(3);
        assert!((out.makespan - expect).abs() < 1e-9, "product makespan {}", out.makespan);
    }

    #[test]
    fn queue_drains_when_capacity_frees() {
        let m = matrix();
        let jobs = burst(&[0, 0, 0, 0, 0]); // 5 jobs, 1 node x 2 slots
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &cfg(1, 2)).unwrap();
        assert!(out.makespan > 20.0, "makespan {}", out.makespan);
        assert_eq!(out.peak_queue, 3);
        assert!(out.mean_stretch > 1.5);
    }

    #[test]
    fn staggered_arrivals_respect_arrival_times() {
        let m = matrix();
        let jobs = vec![
            Job { app: 0, arrival: 0.0, work: 5.0 },
            Job { app: 0, arrival: 100.0, work: 5.0 },
        ];
        // The first job is long gone when the second arrives: both run solo.
        let out = simulate(&m, &m, &mut FirstFit, &jobs, &cfg(1, 2)).unwrap();
        assert_eq!(out.makespan, 105.0);
        assert_eq!(out.mean_stretch, 1.0);
        assert_eq!(out.node_seconds, 10.0);
    }

    #[test]
    fn asymmetric_directed_slowdowns_drive_both_rates_and_qos() {
        // app 0 *speeds up* next to app 1 (0.8x), app 1 suffers 1.6x.
        let m = CostMatrix {
            names: vec!["winner".into(), "loser".into()],
            slow: vec![vec![1.0, 0.8], vec![1.6, 1.0]],
        };
        let out = simulate(&m, &m, &mut FirstFit, &burst(&[0, 1]), &cfg(1, 2)).unwrap();
        // Job 0 runs at 1/0.8 = 1.25x and finishes at t = 8; job 1 ran at
        // 1/1.6 until then (remaining 10 - 8*0.625 = 5) and solo after,
        // finishing at t = 13.
        assert!((out.makespan - 13.0).abs() < 1e-9, "makespan {}", out.makespan);
        assert!((out.mean_stretch - (0.8 + 1.3) / 2.0).abs() < 1e-9, "stretch {}", out.mean_stretch);
        // QoS: the 1.6 direction breaches the 1.5 cap while both run.
        assert!((out.qos_violation_time - 8.0).abs() < 1e-9, "qos {}", out.qos_violation_time);
    }

    #[test]
    fn strict_policy_queues_instead_of_breaching_the_cap() {
        let m = matrix();
        let strict = || InterferenceAware { qos_cap: 1.5, strict: true };
        // A toxic pair on one node runs one after the other.
        let out = simulate(&m, &m, &mut strict(), &burst(&[0, 1]), &cfg(1, 2)).unwrap();
        assert_eq!(out.qos_violation_time, 0.0);
        assert_eq!(out.peak_queue, 1);
        assert!((out.makespan - 20.0).abs() < 1e-9, "makespan {}", out.makespan);
        // A harmless pair shares the node (10 units at 1/1.05); the third
        // job waits for a freed slot and then runs solo.
        let out = simulate(&m, &m, &mut strict(), &burst(&[0, 0, 0]), &cfg(1, 2)).unwrap();
        assert_eq!(out.peak_queue, 1);
        assert!((out.makespan - 20.5).abs() < 1e-9, "makespan {}", out.makespan);
    }

    #[test]
    fn knowledge_truth_split_measures_prediction_quality() {
        let truth = matrix();
        // A maximally wrong knowledge matrix: thinks cross-pairs are fine
        // and self-pairs are toxic.
        let wrong = CostMatrix {
            names: truth.names.clone(),
            slow: vec![vec![2.0, 1.05], vec![1.05, 2.0]],
        };
        let jobs = burst(&[0, 1, 1, 0]);
        let mut informed = InterferenceAware::new(1.5);
        let good = simulate(&truth, &truth, &mut informed, &jobs, &cfg(2, 2)).unwrap();
        let mut misled = InterferenceAware::new(1.5);
        let bad = simulate(&truth, &wrong, &mut misled, &jobs, &cfg(2, 2)).unwrap();
        assert!(
            bad.mean_stretch > good.mean_stretch + 0.3,
            "misleading knowledge must cost stretch: {} vs {}",
            bad.mean_stretch,
            good.mean_stretch
        );
        // Truth-based QoS accounting sees the violations either way.
        assert!(bad.qos_violation_time > 0.0);
        assert_eq!(good.qos_violation_time, 0.0);
    }

    #[test]
    fn defragmentation_consolidates_and_counts_migrations() {
        // Plenty of harmless jobs spread across nodes; defrag packs them.
        let m = CostMatrix {
            names: vec!["calm".into()],
            slow: vec![vec![1.0]],
        };
        let jobs: Vec<Job> =
            (0..8).map(|i| Job { app: 0, arrival: i as f64 * 0.25, work: 40.0 }).collect();
        let base = cfg(8, 2);
        let nodefrag = simulate(&m, &m, &mut Spread, &jobs, &base).unwrap();
        let c = SimConfig { defrag_period: Some(5.0), ..base };
        let defrag = simulate(&m, &m, &mut Spread, &jobs, &c).unwrap();
        assert!(defrag.migrations > 0, "no migrations happened");
        assert!(
            defrag.node_seconds < nodefrag.node_seconds - 1.0,
            "defrag should save node-seconds: {} vs {}",
            defrag.node_seconds,
            nodefrag.node_seconds
        );
        assert!(defrag.energy < nodefrag.energy);
        // Same work either way.
        assert!((defrag.slot_seconds - nodefrag.slot_seconds).abs() < 1e-6);
    }

    #[test]
    fn defrag_respects_the_qos_cap() {
        let m = matrix();
        // One quiet + one loud on separate nodes: merging them would
        // breach the 1.5 cap, so defrag must leave them alone.
        let jobs = burst(&[0, 1]);
        let c = SimConfig { defrag_period: Some(1.0), ..cfg(2, 2) };
        let out = simulate(&m, &m, &mut Spread, &jobs, &c).unwrap();
        assert_eq!(out.migrations, 0);
        assert_eq!(out.qos_violation_time, 0.0);
    }

    #[test]
    fn bad_placements_are_policy_errors_not_corruption() {
        struct Always(usize);
        impl ClusterPolicy for Always {
            fn name(&self) -> &'static str {
                "always"
            }
            fn place(&mut self, _: &ClusterView<'_>) -> Placement {
                Placement::Node(self.0)
            }
        }
        let m = matrix();
        let jobs = burst(&[0, 0, 0]);
        // Out of range.
        let err = simulate(&m, &m, &mut Always(99), &jobs, &cfg(2, 2)).unwrap_err();
        assert!(matches!(err, SimError::Policy { .. }), "{err}");
        assert!(err.to_string().contains("policy error (always)"), "{err}");
        // Onto a full node.
        let err = simulate(&m, &m, &mut Always(0), &jobs, &cfg(2, 2)).unwrap_err();
        assert!(err.to_string().contains("full node 0"), "{err}");
    }

    #[test]
    fn deadlocked_queue_with_free_capacity_is_a_policy_error() {
        struct RefuseAll;
        impl ClusterPolicy for RefuseAll {
            fn name(&self) -> &'static str {
                "refuse-all"
            }
            fn place(&mut self, _: &ClusterView<'_>) -> Placement {
                Placement::Queue
            }
        }
        let m = matrix();
        let err = simulate(&m, &m, &mut RefuseAll, &burst(&[0]), &cfg(2, 2)).unwrap_err();
        assert!(err.to_string().contains("queued"), "{err}");
    }

    #[test]
    fn malformed_jobs_and_configs_are_config_errors() {
        let m = matrix();
        let bad_app = vec![Job { app: 7, arrival: 0.0, work: 1.0 }];
        assert!(matches!(
            simulate(&m, &m, &mut FirstFit, &bad_app, &cfg(1, 2)),
            Err(SimError::Config { .. })
        ));
        let bad_work = vec![Job { app: 0, arrival: 0.0, work: 0.0 }];
        assert!(simulate(&m, &m, &mut FirstFit, &bad_work, &cfg(1, 2)).is_err());
        assert!(simulate(&m, &m, &mut FirstFit, &[], &cfg(0, 2)).is_err());
        let mismatched = CostMatrix { names: vec!["x".into()], slow: vec![vec![1.0]] };
        assert!(simulate(&m, &mismatched, &mut FirstFit, &[], &cfg(1, 2)).is_err());
        // Both matrices must be square with positive finite entries: a NaN
        // truth entry would turn rates and event times into NaN, and a
        // ragged row would index out of bounds.
        let jobs = burst(&[0, 1]);
        let mut nan = matrix();
        nan.slow[0][1] = f64::NAN;
        let mut ragged = matrix();
        ragged.slow[1].pop();
        let mut zero = matrix();
        zero.slow[1][1] = 0.0;
        for bad in [&nan, &ragged, &zero] {
            for (truth, knowledge) in [(bad, &m), (&m, bad)] {
                let err = simulate(truth, knowledge, &mut FirstFit, &jobs, &cfg(1, 2)).unwrap_err();
                assert!(matches!(err, SimError::Config { .. }), "{err}");
            }
        }
        let missing_row = CostMatrix { names: m.names.clone(), slow: vec![m.slow[0].clone()] };
        let err = simulate(&m, &missing_row, &mut FirstFit, &jobs, &cfg(1, 2)).unwrap_err();
        assert!(err.to_string().contains("knowledge matrix is not 2x2"), "{err}");
        // The QoS cap and the SLO threshold must be positive and finite.
        for bad in [f64::NAN, -1.0, 0.0, f64::INFINITY] {
            for c in [
                SimConfig { qos_cap: bad, ..cfg(1, 2) },
                SimConfig { slo_stretch: bad, ..cfg(1, 2) },
            ] {
                let err = simulate(&m, &m, &mut FirstFit, &jobs, &c).unwrap_err();
                assert!(matches!(err, SimError::Config { .. }), "{err}");
                assert!(err.to_string().contains("must be positive and finite"), "{err}");
            }
        }
    }

    #[test]
    fn best_fit_consolidates_harder_than_spread() {
        let m = CostMatrix {
            names: vec!["calm".into()],
            slow: vec![vec![1.1]],
        };
        let jobs: Vec<Job> =
            (0..6).map(|i| Job { app: 0, arrival: i as f64 * 0.1, work: 20.0 }).collect();
        let bf = simulate(&m, &m, &mut BestFit, &jobs, &cfg(6, 2)).unwrap();
        let sp = simulate(&m, &m, &mut Spread, &jobs, &cfg(6, 2)).unwrap();
        assert!(
            bf.node_seconds < sp.node_seconds,
            "best-fit {} vs spread {}",
            bf.node_seconds,
            sp.node_seconds
        );
        assert!(bf.energy < sp.energy);
    }

    #[test]
    fn slivers_whose_eta_rounds_to_now_still_complete() {
        // Both slivers start under the completion epsilon. The second is
        // below half an ulp of the clock at t = 2e4, so its predicted
        // completion is the very instant it started, and only a
        // completion scan on that zero-length step can finish it. An
        // engine that completed jobs only while advancing time would
        // re-aim it forever, so the run is bounded by a timeout and a
        // hang fails the test.
        let jobs = vec![
            Job { app: 0, arrival: 1e4, work: 1e-12 },
            Job { app: 1, arrival: 2e4, work: 5e-13 },
        ];
        for kind in crate::policy::PolicyKind::all() {
            let (tx, rx) = std::sync::mpsc::channel();
            let list = jobs.clone();
            std::thread::spawn(move || {
                let m = matrix();
                let c = SimConfig {
                    defrag_period: kind.wants_defrag().then_some(5e3),
                    ..cfg(2, 2)
                };
                let mut policy = kind.build(3, c.qos_cap);
                let _ = tx.send(simulate(&m, &m, policy.as_mut(), &list, &c));
            });
            let out = rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .unwrap_or_else(|_| panic!("{kind}: simulation did not terminate"))
                .unwrap();
            assert_eq!(out.makespan, 2e4, "{kind}");
            assert_eq!(out.jobs, 2, "{kind}");
        }
    }

    #[test]
    fn identical_runs_are_bit_identical() {
        let m = matrix();
        let w = crate::job::Workload { arrival_rate: 3.0, mean_work: 8.0, seed: 11 };
        let jobs = w.generate(200, m.len());
        let a = simulate(&m, &m, &mut InterferenceAware::new(1.5), &jobs, &cfg(16, 2)).unwrap();
        let b = simulate(&m, &m, &mut InterferenceAware::new(1.5), &jobs, &cfg(16, 2)).unwrap();
        assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
        assert_eq!(a.mean_stretch.to_bits(), b.mean_stretch.to_bits());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        assert_eq!(a.qos_violation_time.to_bits(), b.qos_violation_time.to_bits());
    }
}
