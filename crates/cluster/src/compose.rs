//! k-way degradation composition.
//!
//! The measurement pipeline produces *pairwise* directed slowdowns (25×25
//! in the paper); cluster nodes hold `k` jobs. Rather than measuring every
//! k-tuple (O(N^k)), a job's slowdown under k−1 co-runners is composed
//! from the pairwise directed entries. Two estimators are offered — both
//! exact at k = 2, where they reduce to `directed(me, other)`:
//!
//! * [`Compose::Max`] — the worst single co-runner dominates (contention
//!   concentrates on one shared resource; sub-additive).
//! * [`Compose::Product`] — co-runners degrade independently and their
//!   slowdowns multiply (distinct bottlenecks; super-additive).
//!
//! The truth usually lies between the two; running a scenario under both
//! bounds the conclusion.

use cochar_sched::CostMatrix;

/// How pairwise directed slowdowns compose to k-way degradation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Compose {
    /// Worst pairwise co-runner dominates.
    Max,
    /// Pairwise slowdowns multiply.
    Product,
}

impl Compose {
    /// Parses a `--compose` flag value.
    pub fn parse(s: &str) -> Result<Compose, String> {
        match s {
            "max" => Ok(Compose::Max),
            "product" => Ok(Compose::Product),
            other => Err(format!("unknown composition {other:?} (max|product)")),
        }
    }

    /// The flag spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Compose::Max => "max",
            Compose::Product => "product",
        }
    }

    /// Composed slowdown of a job of app `me` sharing a node with
    /// `others` (apps of the co-runners, the job's own slot excluded).
    /// An empty `others` means the job runs solo: 1.0.
    ///
    /// Directed convention throughout: entries below 1.0 are constructive
    /// co-runs and are composed as-is, not clamped.
    pub fn slowdown<I>(&self, matrix: &CostMatrix, me: usize, others: I) -> f64
    where
        I: IntoIterator<Item = usize>,
    {
        let mut it = others.into_iter();
        let first = match it.next() {
            Some(o) => matrix.directed(me, o),
            None => return 1.0,
        };
        match self {
            Compose::Max => it.fold(first, |acc, o| acc.max(matrix.directed(me, o))),
            Compose::Product => it.fold(first, |acc, o| acc * matrix.directed(me, o)),
        }
    }

    /// The bundle cost of co-locating the apps in `members` on one node:
    /// the worst composed slowdown any member suffers — the k-way
    /// generalization of `CostMatrix::cost`.
    pub fn bundle_cost(&self, matrix: &CostMatrix, members: &[usize]) -> f64 {
        let mut worst = 1.0f64;
        for (slot, &app) in members.iter().enumerate() {
            let others = members
                .iter()
                .enumerate()
                .filter(move |&(s, _)| s != slot)
                .map(|(_, &a)| a);
            let s = self.slowdown(matrix, app, others);
            worst = worst.max(s);
        }
        worst
    }
}

impl std::fmt::Display for Compose {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["a".into(), "b".into(), "c".into()],
            slow: vec![
                vec![1.1, 1.5, 0.9],
                vec![2.0, 1.0, 1.2],
                vec![1.0, 1.3, 1.0],
            ],
        }
    }

    #[test]
    fn both_estimators_reduce_to_directed_at_k2() {
        let m = matrix();
        for c in [Compose::Max, Compose::Product] {
            assert_eq!(c.slowdown(&m, 0, [1]), 1.5);
            assert_eq!(c.slowdown(&m, 1, [0]), 2.0);
            // Constructive co-run survives un-clamped.
            assert_eq!(c.slowdown(&m, 0, [2]), 0.9);
        }
    }

    #[test]
    fn solo_is_neutral() {
        let m = matrix();
        assert_eq!(Compose::Max.slowdown(&m, 1, []), 1.0);
        assert_eq!(Compose::Product.slowdown(&m, 1, []), 1.0);
    }

    #[test]
    fn max_takes_worst_and_product_multiplies() {
        let m = matrix();
        // app 0 with [1, 2]: directed 1.5 and 0.9.
        assert!((Compose::Max.slowdown(&m, 0, [1, 2]) - 1.5).abs() < 1e-12);
        assert!((Compose::Product.slowdown(&m, 0, [1, 2]) - 1.35).abs() < 1e-12);
    }

    #[test]
    fn bundle_cost_is_worst_member_and_matches_symmetric_cost_at_k2() {
        let m = matrix();
        for c in [Compose::Max, Compose::Product] {
            assert_eq!(c.bundle_cost(&m, &[0, 1]), m.cost(0, 1));
            assert_eq!(c.bundle_cost(&m, &[2]), 1.0);
        }
        // A same-app pair uses the diagonal: the self-co-run slowdown.
        assert_eq!(Compose::Max.bundle_cost(&m, &[0, 0]), 1.1);
    }
}
