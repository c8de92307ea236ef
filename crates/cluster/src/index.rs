//! The engine-kept occupancy index policies decide from.
//!
//! A placement decision only needs to know which nodes have room and,
//! for interference-aware placement, which apps share them. Rather than
//! walk every node on every arrival, the engine keeps a [`NodeIndex`]
//! up to date wherever a node's app list changes, and policies answer
//! from it:
//!
//! * one node set per occupancy `0..slots` (full nodes are in none);
//! * the set of nodes with a free slot (the union of the above);
//! * for partly full nodes, one node set per exact member app sequence
//!   (a *class*). Two nodes whose apps arrived in a different order are
//!   in different classes, so a bundle cost computed for a class is the
//!   cost the node-by-node scan computes for each of its nodes, bit for
//!   bit.
//!
//! Every node set is a bitset of `u64` words: the lowest node of a set
//! is a scan of `nodes / 64` words, and the k-th one is a popcount walk.

use std::collections::BTreeMap;

/// A set of node indices, one bit per node.
#[derive(Clone, Debug, PartialEq, Eq)]
struct NodeSet {
    words: Vec<u64>,
}

impl NodeSet {
    fn new(nodes: usize) -> Self {
        NodeSet { words: vec![0; nodes.div_ceil(64)] }
    }

    fn insert(&mut self, node: usize) {
        self.words[node / 64] |= 1 << (node % 64);
    }

    fn remove(&mut self, node: usize) {
        self.words[node / 64] &= !(1 << (node % 64));
    }

    fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Lowest member.
    fn first(&self) -> Option<usize> {
        let (i, w) = self.words.iter().enumerate().find(|&(_, &w)| w != 0)?;
        Some(i * 64 + w.trailing_zeros() as usize)
    }

    /// The `k`-th lowest member (0-based), if the set has more than `k`.
    fn nth(&self, mut k: usize) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            let ones = w.count_ones() as usize;
            if k < ones {
                let mut w = w;
                for _ in 0..k {
                    w &= w - 1;
                }
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
            k -= ones;
        }
        None
    }
}

/// Which nodes have room, by occupancy and by member app sequence.
///
/// Built once with [`NodeIndex::new`] and kept current by the engine,
/// which removes a node before each change to its app list and inserts
/// it again after. Two indexes compare equal exactly when
/// they describe the same board.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeIndex {
    nodes: usize,
    /// `by_occupancy[k]`: the nodes holding exactly `k` apps, `k < slots`.
    by_occupancy: Vec<NodeSet>,
    /// Nodes with at least one free slot.
    free: NodeSet,
    /// Partly full nodes by their member app sequence; never holds an
    /// empty set.
    classes: BTreeMap<Vec<usize>, NodeSet>,
}

impl NodeIndex {
    /// The index of a board whose node `n` holds the apps `nodes[n]`, at
    /// `slots` slots per node.
    pub fn new(nodes: &[Vec<usize>], slots: usize) -> Self {
        let mut index = NodeIndex {
            nodes: nodes.len(),
            by_occupancy: vec![NodeSet::new(nodes.len()); slots],
            free: NodeSet::new(nodes.len()),
            classes: BTreeMap::new(),
        };
        for (node, apps) in nodes.iter().enumerate() {
            index.insert(node, apps);
        }
        index
    }

    /// Records that `node` now holds `apps`. The node must not be in the
    /// index (new, or just removed).
    pub(crate) fn insert(&mut self, node: usize, apps: &[usize]) {
        let occupancy = apps.len();
        if occupancy >= self.by_occupancy.len() {
            return;
        }
        self.by_occupancy[occupancy].insert(node);
        self.free.insert(node);
        if occupancy > 0 {
            self.classes
                .entry(apps.to_vec())
                .or_insert_with(|| NodeSet::new(self.nodes))
                .insert(node);
        }
    }

    /// Forgets `node`, which holds `apps` as last inserted.
    pub(crate) fn remove(&mut self, node: usize, apps: &[usize]) {
        let occupancy = apps.len();
        if occupancy >= self.by_occupancy.len() {
            return;
        }
        self.by_occupancy[occupancy].remove(node);
        self.free.remove(node);
        if occupancy > 0 {
            let class = self.classes.get_mut(apps).expect("indexed node has a class");
            class.remove(node);
            if class.is_empty() {
                self.classes.remove(apps);
            }
        }
    }

    /// Lowest-index node with a free slot.
    pub fn first_free(&self) -> Option<usize> {
        self.free.first()
    }

    /// Number of nodes with a free slot.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// The `k`-th lowest-index node with a free slot (0-based).
    pub fn nth_free(&self, k: usize) -> Option<usize> {
        self.free.nth(k)
    }

    /// Lowest-index node holding exactly `occupancy` apps, if it has a
    /// free slot.
    pub fn first_with(&self, occupancy: usize) -> Option<usize> {
        self.by_occupancy.get(occupancy)?.first()
    }

    /// Each class of partly full nodes: its member app sequence and its
    /// lowest-index node, in key order.
    pub fn classes(&self) -> impl Iterator<Item = (&[usize], usize)> {
        self.classes
            .iter()
            .map(|(apps, set)| (apps.as_slice(), set.first().expect("classes are non-empty")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_set_finds_first_and_nth_across_words() {
        let mut s = NodeSet::new(200);
        assert_eq!(s.first(), None);
        for n in [3, 64, 65, 130, 199] {
            s.insert(n);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.first(), Some(3));
        let all: Vec<usize> = (0..6).filter_map(|k| s.nth(k)).collect();
        assert_eq!(all, vec![3, 64, 65, 130, 199]);
        s.remove(3);
        assert_eq!(s.first(), Some(64));
        assert_eq!(s.nth(3), Some(199));
        assert_eq!(s.nth(4), None);
    }

    #[test]
    fn buckets_and_classes_follow_the_board() {
        let board = vec![vec![0, 1], vec![], vec![1, 0], vec![0, 1, 2], vec![0, 1]];
        let index = NodeIndex::new(&board, 3);
        assert_eq!(index.first_with(0), Some(1));
        assert_eq!(index.first_with(1), None);
        assert_eq!(index.first_with(2), Some(0));
        assert_eq!(index.first_with(3), None, "full nodes are in no bucket");
        assert_eq!(index.free_count(), 4);
        assert_eq!(index.nth_free(3), Some(4));
        // Order matters: [0, 1] and [1, 0] are different classes.
        let classes: Vec<(&[usize], usize)> = index.classes().collect();
        assert_eq!(classes, vec![(&[0, 1][..], 0), (&[1, 0][..], 2)]);
    }

    #[test]
    fn incremental_updates_match_a_fresh_build() {
        let mut board = vec![vec![0], vec![0], vec![]];
        let mut index = NodeIndex::new(&board, 2);
        index.remove(0, &board[0]);
        board[0].push(1);
        index.insert(0, &board[0]);
        index.remove(1, &board[1]);
        board[1].clear();
        index.insert(1, &board[1]);
        assert_eq!(index, NodeIndex::new(&board, 2));
        assert_eq!(index.classes().count(), 0, "an emptied class is dropped");
    }
}
