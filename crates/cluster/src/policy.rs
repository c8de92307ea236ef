//! Online placement policies over k-slot nodes.
//!
//! A policy sees the cluster through a [`ClusterView`] — node occupancy
//! plus the *knowledge* matrix (measured, predicted, or loaded from a
//! file) — and returns a concrete [`Placement`]. The engine validates
//! every decision; an impossible one is a policy error, never silent
//! bookkeeping corruption.
//!
//! The built-in policies decide from the view's [`NodeIndex`], not by
//! walking every node: first-fit, best-fit and spread take the lowest
//! node of the right occupancy bucket, random takes the k-th free node,
//! and interference-aware costs each class of identical partly full
//! nodes once. Each returns what a scan over `nodes` in index order
//! would (the tests keep those scans as an oracle).
//!
//! The policy's knowledge matrix may differ from the truth matrix the
//! engine runs rates on: that gap is exactly what the regret report
//! quantifies (placing from O(N) predictions vs O(N²) measurement).

use cochar_sched::CostMatrix;
use cochar_trace::Lcg;

use crate::compose::Compose;
use crate::index::NodeIndex;

/// Where an arriving job goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Start on this node (engine-validated: must exist and have a free
    /// slot).
    Node(usize),
    /// Wait in the FIFO queue until capacity frees up.
    Queue,
}

/// The cluster state a policy decides from.
pub struct ClusterView<'a> {
    /// What the policy believes about pairwise interference.
    pub knowledge: &'a CostMatrix,
    /// Apps currently on each node (length = cluster size, each at most
    /// `slots` long).
    pub nodes: &'a [Vec<usize>],
    /// The same board, indexed by occupancy and by member sequence.
    pub index: &'a NodeIndex,
    /// Slots per node.
    pub slots: usize,
    /// The arriving job's app.
    pub app: usize,
    /// k-way composition the scenario runs under.
    pub compose: Compose,
    /// The scenario's QoS cap (informational; policies may carry their
    /// own).
    pub qos_cap: f64,
}

impl ClusterView<'_> {
    /// Lowest-index empty node, if any.
    pub fn first_empty(&self) -> Option<usize> {
        self.index.first_with(0)
    }
}

/// An online k-slot placement policy.
pub trait ClusterPolicy {
    /// Policy name for reports.
    fn name(&self) -> &'static str;
    /// Decides where the arriving job goes (`&mut` so seeded stochastic
    /// policies can carry their generator).
    fn place(&mut self, view: &ClusterView<'_>) -> Placement;
}

/// Uniformly random free-slotted node (seeded, deterministic).
pub struct Random {
    rng: Lcg,
}

impl Random {
    /// A random policy drawing from `seed`.
    pub fn new(seed: u64) -> Self {
        Random { rng: Lcg::new(seed) }
    }
}

impl ClusterPolicy for Random {
    fn name(&self) -> &'static str {
        "random"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        let free = view.index.free_count();
        if free == 0 {
            return Placement::Queue;
        }
        let k = self.rng.next_below(free as u64) as usize;
        Placement::Node(view.index.nth_free(k).expect("k is below the free count"))
    }
}

/// First (lowest-index) node with a free slot: densest packing near the
/// front, oblivious to interference.
pub struct FirstFit;

impl ClusterPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        view.index.first_free().map_or(Placement::Queue, Placement::Node)
    }
}

/// Most-loaded node with a free slot (ties: lowest index) — classic
/// consolidation bin-packing, minimizes the number of active nodes.
pub struct BestFit;

impl ClusterPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        (0..view.slots)
            .rev()
            .find_map(|occupancy| view.index.first_with(occupancy))
            .map_or(Placement::Queue, Placement::Node)
    }
}

/// Least-loaded node first (ties: lowest index) — spread for latency. At
/// two slots a job shares a node only when no node is empty.
pub struct Spread;

impl ClusterPolicy for Spread {
    fn name(&self) -> &'static str {
        "spread"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        (0..view.slots)
            .find_map(|occupancy| view.index.first_with(occupancy))
            .map_or(Placement::Queue, Placement::Node)
    }
}

/// Interference-aware: the occupied free-slotted node with the cheapest
/// composed bundle cost if it stays under the QoS cap; otherwise an
/// empty node; only breach the cap when nothing else is available and
/// `strict` is off.
pub struct InterferenceAware {
    /// Bundles at or above this cost are avoided.
    pub qos_cap: f64,
    /// If set, queue rather than ever breach the cap.
    pub strict: bool,
}

impl InterferenceAware {
    /// A non-strict policy with the given QoS cap.
    pub fn new(qos_cap: f64) -> Self {
        InterferenceAware { qos_cap, strict: false }
    }
}

impl ClusterPolicy for InterferenceAware {
    fn name(&self) -> &'static str {
        "interference-aware"
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        // Cheapest *occupied* node with a free slot; among equal costs the
        // lowest index wins, as in a scan in node order that keeps the
        // first minimum. Nodes with the same member sequence cost the same,
        // so each class is costed once, with the arrival appended.
        let mut best: Option<(usize, f64)> = None;
        let mut bundle = Vec::with_capacity(view.slots);
        for (members, node) in view.index.classes() {
            bundle.clear();
            bundle.extend_from_slice(members);
            bundle.push(view.app);
            let cost = view.compose.bundle_cost(view.knowledge, &bundle);
            if best.is_none_or(|(n, c)| cost < c || (cost == c && node < n)) {
                best = Some((node, cost));
            }
        }
        if let Some((node, cost)) = best {
            if cost < self.qos_cap {
                return Placement::Node(node);
            }
        }
        if let Some(node) = view.first_empty() {
            return Placement::Node(node);
        }
        match (best, self.strict) {
            (Some((node, _)), false) => Placement::Node(node),
            _ => Placement::Queue,
        }
    }
}

/// The policy roster `cochar cluster compare` sweeps.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Random`].
    Random,
    /// [`FirstFit`].
    FirstFit,
    /// [`BestFit`].
    BestFit,
    /// [`Spread`].
    Spread,
    /// [`InterferenceAware`] (non-strict).
    InterferenceAware,
    /// [`BestFit`] placement plus periodic defragmentation migrations.
    Defrag,
}

impl PolicyKind {
    /// Parses a `--policy` flag value.
    pub fn parse(s: &str) -> Result<PolicyKind, String> {
        match s {
            "random" => Ok(PolicyKind::Random),
            "first-fit" => Ok(PolicyKind::FirstFit),
            "best-fit" => Ok(PolicyKind::BestFit),
            "spread" => Ok(PolicyKind::Spread),
            "interference-aware" => Ok(PolicyKind::InterferenceAware),
            "defrag" => Ok(PolicyKind::Defrag),
            other => Err(format!(
                "unknown policy {other:?} \
                 (random|first-fit|best-fit|spread|interference-aware|defrag)"
            )),
        }
    }

    /// Every policy, in report order.
    pub fn all() -> Vec<PolicyKind> {
        vec![
            PolicyKind::Random,
            PolicyKind::FirstFit,
            PolicyKind::BestFit,
            PolicyKind::Spread,
            PolicyKind::InterferenceAware,
            PolicyKind::Defrag,
        ]
    }

    /// Builds the policy. `seed` feeds stochastic policies; `qos_cap`
    /// parameterizes interference-aware ones.
    pub fn build(&self, seed: u64, qos_cap: f64) -> Box<dyn ClusterPolicy> {
        match self {
            PolicyKind::Random => Box::new(Random::new(seed)),
            PolicyKind::FirstFit => Box::new(FirstFit),
            PolicyKind::BestFit | PolicyKind::Defrag => Box::new(BestFit),
            PolicyKind::Spread => Box::new(Spread),
            PolicyKind::InterferenceAware => Box::new(InterferenceAware::new(qos_cap)),
        }
    }

    /// True if this kind wants the engine's periodic defragmentation.
    pub fn wants_defrag(&self) -> bool {
        matches!(self, PolicyKind::Defrag)
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PolicyKind::Random => "random",
            PolicyKind::FirstFit => "first-fit",
            PolicyKind::BestFit => "best-fit",
            PolicyKind::Spread => "spread",
            PolicyKind::InterferenceAware => "interference-aware",
            PolicyKind::Defrag => "defrag",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::Just;

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["quiet".into(), "loud".into()],
            slow: vec![vec![1.05, 2.0], vec![2.0, 1.05]],
        }
    }

    /// `p`'s decision for an arriving `app` on a two-slot board.
    fn place(
        p: &mut dyn ClusterPolicy,
        m: &CostMatrix,
        nodes: &[Vec<usize>],
        app: usize,
    ) -> Placement {
        let index = NodeIndex::new(nodes, 2);
        let view = ClusterView {
            knowledge: m,
            nodes,
            index: &index,
            slots: 2,
            app,
            compose: Compose::Max,
            qos_cap: 1.5,
        };
        p.place(&view)
    }

    #[test]
    fn first_fit_takes_lowest_index_free_slot() {
        let m = matrix();
        let nodes = vec![vec![0, 0], vec![1], vec![]];
        assert_eq!(place(&mut FirstFit, &m, &nodes, 0), Placement::Node(1));
    }

    #[test]
    fn best_fit_prefers_the_most_loaded_open_node() {
        let m = matrix();
        let nodes = vec![vec![], vec![0], vec![]];
        assert_eq!(place(&mut BestFit, &m, &nodes, 0), Placement::Node(1));
    }

    #[test]
    fn spread_prefers_empty_nodes_then_half_full() {
        let m = matrix();
        let nodes = vec![vec![0], vec![], vec![0, 0]];
        assert_eq!(place(&mut Spread, &m, &nodes, 1), Placement::Node(1));
        let full = vec![vec![0], vec![1], vec![0, 0]];
        assert_eq!(place(&mut Spread, &m, &full, 1), Placement::Node(0));
    }

    #[test]
    fn interference_aware_picks_the_cheapest_safe_bundle() {
        let m = matrix();
        let nodes = vec![vec![1], vec![0], vec![0, 0]];
        // A "quiet" arrival: sharing with node 1's "quiet" costs 1.05,
        // sharing with node 0's "loud" costs 2.0.
        let mut p = InterferenceAware::new(1.5);
        assert_eq!(place(&mut p, &m, &nodes, 0), Placement::Node(1));
        // A "loud" arrival: the loud/loud self-pair on node 0 costs only
        // the 1.05 diagonal, cheaper than 2.0 next to "quiet" on node 1.
        assert_eq!(place(&mut p, &m, &nodes, 1), Placement::Node(0));
        // Strict queues when every option breaches and nothing is empty.
        let toxic = vec![vec![0], vec![0, 0]];
        let mut strict = InterferenceAware { qos_cap: 1.5, strict: true };
        assert_eq!(place(&mut strict, &m, &toxic, 1), Placement::Queue);
    }

    #[test]
    fn random_is_seed_deterministic_and_only_picks_free_slots() {
        let m = matrix();
        let nodes = vec![vec![0, 0], vec![1], vec![], vec![0, 1]];
        let mut a = Random::new(9);
        let mut b = Random::new(9);
        for _ in 0..50 {
            let (pa, pb) = (place(&mut a, &m, &nodes, 0), place(&mut b, &m, &nodes, 0));
            assert_eq!(pa, pb);
            match pa {
                Placement::Node(n) => assert!(n == 1 || n == 2),
                Placement::Queue => panic!("free slots exist"),
            }
        }
    }

    #[test]
    fn full_cluster_queues_under_every_policy() {
        let m = matrix();
        let nodes = vec![vec![0, 1], vec![1, 1]];
        for kind in PolicyKind::all() {
            let mut p = kind.build(3, 1.5);
            assert_eq!(
                place(p.as_mut(), &m, &nodes, 0),
                Placement::Queue,
                "{kind} placed into a full cluster"
            );
        }
    }

    #[test]
    fn kind_parses_its_own_display() {
        for kind in PolicyKind::all() {
            assert_eq!(PolicyKind::parse(&kind.to_string()).unwrap(), kind);
        }
        assert!(PolicyKind::parse("nope").is_err());
    }

    /// The node-by-node scans the indexed policies replaced: the
    /// reference their decisions are checked against.
    mod oracle {
        use super::super::*;

        fn has_free_slot(view: &ClusterView<'_>, node: usize) -> bool {
            view.nodes[node].len() < view.slots
        }

        fn placement_cost(view: &ClusterView<'_>, node: usize) -> f64 {
            let mut members = view.nodes[node].clone();
            members.push(view.app);
            view.compose.bundle_cost(view.knowledge, &members)
        }

        pub fn random(rng: &mut Lcg, view: &ClusterView<'_>) -> Placement {
            let free: Vec<usize> =
                (0..view.nodes.len()).filter(|&n| has_free_slot(view, n)).collect();
            if free.is_empty() {
                return Placement::Queue;
            }
            Placement::Node(free[rng.next_below(free.len() as u64) as usize])
        }

        pub fn first_fit(view: &ClusterView<'_>) -> Placement {
            match (0..view.nodes.len()).find(|&n| has_free_slot(view, n)) {
                Some(n) => Placement::Node(n),
                None => Placement::Queue,
            }
        }

        pub fn best_fit(view: &ClusterView<'_>) -> Placement {
            let mut best: Option<(usize, usize)> = None; // (occupancy, node)
            for (n, members) in view.nodes.iter().enumerate() {
                if members.len() >= view.slots {
                    continue;
                }
                if best.is_none_or(|(occ, _)| members.len() > occ) {
                    best = Some((members.len(), n));
                }
            }
            match best {
                Some((_, n)) => Placement::Node(n),
                None => Placement::Queue,
            }
        }

        pub fn spread(view: &ClusterView<'_>) -> Placement {
            let mut best: Option<(usize, usize)> = None; // (occupancy, node)
            for (n, members) in view.nodes.iter().enumerate() {
                if members.len() >= view.slots {
                    continue;
                }
                if best.is_none_or(|(occ, _)| members.len() < occ) {
                    best = Some((members.len(), n));
                }
            }
            match best {
                Some((_, n)) => Placement::Node(n),
                None => Placement::Queue,
            }
        }

        pub fn interference_aware(p: &InterferenceAware, view: &ClusterView<'_>) -> Placement {
            let mut best: Option<(usize, f64)> = None;
            for (n, members) in view.nodes.iter().enumerate() {
                if members.is_empty() || members.len() >= view.slots {
                    continue;
                }
                let cost = placement_cost(view, n);
                if best.is_none_or(|(_, c)| cost < c) {
                    best = Some((n, cost));
                }
            }
            if let Some((node, cost)) = best {
                if cost < p.qos_cap {
                    return Placement::Node(node);
                }
            }
            if let Some(node) = view.nodes.iter().position(|n| n.is_empty()) {
                return Placement::Node(node);
            }
            match (best, p.strict) {
                (Some((node, _)), false) => Placement::Node(node),
                _ => Placement::Queue,
            }
        }
    }

    /// Apps on the random boards; few, so that classes repeat.
    const APPS: usize = 3;
    /// Knowledge entries; few, so that bundle costs tie across classes.
    const ENTRIES: [f64; 4] = [1.0, 1.25, 1.5, 2.0];

    /// (slots, per-node (occupancy, apps), knowledge cells, (product,
    /// strict, seed)).
    type Board = (usize, Vec<(usize, Vec<usize>)>, Vec<usize>, (bool, bool, u64));

    fn board_strategy() -> impl Strategy<Value = Board> {
        (1usize..=4, 1usize..=200).prop_flat_map(|(slots, nodes)| {
            (
                Just(slots),
                prop::collection::vec((0..=slots, prop::collection::vec(0..APPS, slots)), nodes),
                prop::collection::vec(0..ENTRIES.len(), APPS * APPS),
                (any::<bool>(), any::<bool>(), any::<u64>()),
            )
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every indexed policy decides what its scan decides, on random
        /// boards that arrivals and departures keep changing; `Random`
        /// draws the same sequence from the same seed.
        #[test]
        fn indexed_policies_match_the_scan_oracle(board in board_strategy()) {
            let (slots, raw, cells, (product, strict, seed)) = board;
            let knowledge = CostMatrix {
                names: (0..APPS).map(|a| format!("app{a}")).collect(),
                slow: cells
                    .chunks(APPS)
                    .map(|row| row.iter().map(|&c| ENTRIES[c]).collect())
                    .collect(),
            };
            let compose = if product { Compose::Product } else { Compose::Max };
            let mut nodes: Vec<Vec<usize>> =
                raw.into_iter().map(|(occupancy, apps)| apps[..occupancy].to_vec()).collect();
            let mut index = NodeIndex::new(&nodes, slots);
            let mut random = Random::new(seed);
            let mut oracle_rng = Lcg::new(seed);
            let mut aware = InterferenceAware { qos_cap: 1.5, strict };
            let mut churn = Lcg::new(seed ^ 0x5eed);
            for step in 0..24 {
                let app = step % APPS;
                let view = ClusterView {
                    knowledge: &knowledge,
                    nodes: &nodes,
                    index: &index,
                    slots,
                    app,
                    compose,
                    qos_cap: 1.5,
                };
                prop_assert_eq!(FirstFit.place(&view), oracle::first_fit(&view));
                prop_assert_eq!(BestFit.place(&view), oracle::best_fit(&view));
                prop_assert_eq!(Spread.place(&view), oracle::spread(&view));
                prop_assert_eq!(aware.place(&view), oracle::interference_aware(&aware, &view));
                let placed = random.place(&view);
                prop_assert_eq!(placed, oracle::random(&mut oracle_rng, &view));
                // Start the arrival where `Random` put it, and on every
                // third step take one job off a random node, so the board
                // fills, empties, and reorders member sequences.
                if let Placement::Node(n) = placed {
                    index.remove(n, &nodes[n]);
                    nodes[n].push(app);
                    index.insert(n, &nodes[n]);
                }
                let n = churn.next_below(nodes.len() as u64) as usize;
                if step % 3 == 2 && !nodes[n].is_empty() {
                    index.remove(n, &nodes[n]);
                    let pos = churn.next_below(nodes[n].len() as u64) as usize;
                    nodes[n].remove(pos);
                    index.insert(n, &nodes[n]);
                }
                prop_assert_eq!(&index, &NodeIndex::new(&nodes, slots));
            }
        }
    }
}
