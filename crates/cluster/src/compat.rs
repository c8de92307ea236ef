//! Bridging `sched::online` policies into the cluster engine.
//!
//! [`OnlineAdapter`] wraps any [`cochar_sched::OnlinePolicy`] — written
//! against the original two-slot `sched::online::simulate` — and exposes
//! it as a [`ClusterPolicy`]. Together with the engine's exact fluid
//! arithmetic, this is what makes the cross-check possible: the *same
//! policy object* drives both engines on the same job list, so any
//! metric divergence is engine drift, not decision drift.

use cochar_sched::online::{Decision, OnlinePolicy, View};

use crate::policy::{ClusterPolicy, ClusterView, Placement};

/// A `sched::online` policy adapted to k-slot cluster placement.
///
/// The wrapped policy assumes two-slot nodes (`CoLocate` targets a node
/// with exactly one occupant), so the adapter insists the scenario runs
/// at `slots = 2`.
pub struct OnlineAdapter<P> {
    inner: P,
}

impl<P: OnlinePolicy> OnlineAdapter<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        OnlineAdapter { inner }
    }
}

impl<P: OnlinePolicy> ClusterPolicy for OnlineAdapter<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place(&mut self, view: &ClusterView<'_>) -> Placement {
        assert_eq!(
            view.slots, 2,
            "policy error ({}): sched::online policies assume two-slot nodes, got {}",
            self.inner.name(),
            view.slots
        );
        let decision = self.inner.place(&View {
            matrix: view.knowledge,
            nodes: view.nodes,
            app: view.app,
        });
        match decision {
            Decision::EmptyNode => match view.first_empty() {
                Some(node) => Placement::Node(node),
                None => panic!(
                    "policy error ({}): chose EmptyNode with no empty node",
                    self.inner.name()
                ),
            },
            Decision::CoLocate { node } => Placement::Node(node),
            Decision::Queue => Placement::Queue,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compose::Compose;
    use crate::index::NodeIndex;
    use cochar_sched::CostMatrix;

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["quiet".into(), "loud".into()],
            slow: vec![vec![1.05, 2.0], vec![2.0, 1.05]],
        }
    }

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
    fn adapted_first_fit_matches_native_spread() {
        // sched FirstFit: empty node first, then any half-full node —
        // exactly cluster Spread at two slots.
        let m = matrix();
        let mut adapted = OnlineAdapter::new(cochar_sched::online::FirstFit);
        let mut native = crate::policy::Spread;
        let boards = [
            vec![vec![0], vec![], vec![0, 0]],
            vec![vec![0], vec![1], vec![0, 0]],
            vec![vec![0, 1], vec![1, 1]],
        ];
        for nodes in &boards {
            assert_eq!(
                place(&mut adapted, &m, nodes, 1),
                place(&mut native, &m, nodes, 1),
                "diverged on {nodes:?}"
            );
        }
    }

    #[test]
    fn adapted_interference_aware_matches_native_at_two_slots() {
        let m = matrix();
        let mut adapted =
            OnlineAdapter::new(cochar_sched::online::InterferenceAware::new(1.5));
        let mut native = crate::policy::InterferenceAware::new(1.5);
        let boards = [
            vec![vec![1], vec![0], vec![0, 0]],
            vec![vec![1], vec![1], vec![]],
            vec![vec![0], vec![0, 0]],
            vec![vec![0, 1], vec![1, 1]],
        ];
        for nodes in &boards {
            for app in 0..2 {
                assert_eq!(
                    place(&mut adapted, &m, nodes, app),
                    place(&mut native, &m, nodes, app),
                    "diverged on {nodes:?} app {app}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "policy error (first-fit)")]
    fn adapter_rejects_non_two_slot_scenarios() {
        let m = matrix();
        let nodes = vec![vec![], vec![]];
        let index = NodeIndex::new(&nodes, 4);
        let mut adapted = OnlineAdapter::new(cochar_sched::online::FirstFit);
        let v = ClusterView {
            knowledge: &m,
            nodes: &nodes,
            index: &index,
            slots: 4,
            app: 0,
            compose: Compose::Max,
            qos_cap: 1.5,
        };
        adapted.place(&v);
    }
}
