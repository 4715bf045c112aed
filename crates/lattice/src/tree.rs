//! PT's unit of work: BUC-processing-tree subtrees from binary division.
//!
//! Section 3.4: PT creates tasks "by a recursive binary division of a tree
//! into two subtrees, each having an equal number of nodes … achieved by
//! simply cutting the farthest left edge emitted from the root". Repeating
//! the division until there are `ratio × processors` tasks trades pruning
//! against load balance (the paper settles on 32·n).
//!
//! A (possibly chopped) subtree is fully described by its root group-by `g`
//! and the first dimension `from_dim` the root is still allowed to extend
//! with: the members are `g ∪ S` for every `S ⊆ {from_dim, …, d-1}`. Cutting
//! the leftmost edge splits `(g, j)` into the full child subtree
//! `(g ∪ {j}, j+1)` and the chopped remainder `(g, j+1)` — two halves of
//! exactly equal node count.

use crate::mask::CuboidMask;
use crate::MAX_DIMS;
use std::collections::BinaryHeap;

/// A subtree of the BUC processing tree, PT's task granule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TreeTask {
    /// The root group-by of the subtree.
    pub root: CuboidMask,
    /// First dimension the root may be extended with; dimensions
    /// `from_dim..d` generate the subtree.
    pub from_dim: usize,
    /// Total cube dimensionality.
    pub d: usize,
}

impl TreeTask {
    /// The task covering the whole lattice of a `d`-dimensional cube
    /// (every group-by except the special "all" node).
    pub fn whole_lattice(d: usize) -> Self {
        // check:allow(panic-path): constructor contract — dimensionality is
        // fixed at configuration time, not per-tuple runtime input.
        assert!(
            (1..=MAX_DIMS).contains(&d),
            "supported dimensionality is 1..={MAX_DIMS}"
        );
        TreeTask {
            root: CuboidMask::ALL,
            from_dim: 0,
            d,
        }
    }

    /// A full subtree rooted at `g` (all extensions by dimensions greater
    /// than `g`'s largest) — RP's task granule.
    pub fn full_subtree(g: CuboidMask, d: usize) -> Self {
        let from = g.max_dim().map_or(0, |m| m + 1);
        TreeTask {
            root: g,
            from_dim: from,
            d,
        }
    }

    /// Number of group-bys the task covers (the "all" node never counts).
    pub fn size(&self) -> usize {
        let n = 1usize << (self.d - self.from_dim);
        if self.root.is_all() {
            n - 1
        } else {
            n
        }
    }

    /// True when the subtree can still be divided.
    pub fn splittable(&self) -> bool {
        self.from_dim < self.d && self.size() > 1
    }

    /// Cuts the leftmost edge from the root, yielding the full child
    /// subtree and the chopped remainder. Returns `None` when the task is a
    /// single cuboid.
    pub fn split(&self) -> Option<(TreeTask, TreeTask)> {
        if !self.splittable() {
            return None;
        }
        let child = TreeTask {
            root: self.root.with_dim(self.from_dim),
            from_dim: self.from_dim + 1,
            d: self.d,
        };
        let rest = TreeTask {
            root: self.root,
            from_dim: self.from_dim + 1,
            d: self.d,
        };
        Some((child, rest))
    }

    /// Whether the task covers cuboid `g`.
    pub fn contains(&self, g: CuboidMask) -> bool {
        if !self.root.is_subset_of(g) {
            return false;
        }
        let extra = CuboidMask::from_bits(g.bits() & !self.root.bits());
        if g == self.root {
            return !g.is_all();
        }
        extra.min_dim().is_some_and(|m| m >= self.from_dim) && !g.is_all()
    }

    /// Enumerates the task's cuboids in BUC depth-first order (the order a
    /// bottom-up pass visits them). The "all" node is skipped.
    pub fn members(&self) -> Vec<CuboidMask> {
        let mut out = Vec::with_capacity(self.size());
        if !self.root.is_all() {
            out.push(self.root);
        }
        self.collect(self.root, self.from_dim, &mut out);
        out
    }

    fn collect(&self, g: CuboidMask, from: usize, out: &mut Vec<CuboidMask>) {
        for k in from..self.d {
            let child = g.with_dim(k);
            out.push(child);
            self.collect(child, k + 1, out);
        }
    }
}

impl std::fmt::Display for TreeTask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "T({} +{}..{})", self.root, self.from_dim, self.d)
    }
}

/// Recursive binary division of the whole lattice into at least
/// `target_tasks` tasks (PT's planning stage; the paper uses
/// `target_tasks = 32 × processors`).
///
/// Always splits the currently largest task, so task sizes stay within a
/// factor of two of each other. Stops early if every task is down to a
/// single cuboid. The returned tasks partition the `2^d − 1` group-bys.
pub fn divide_tasks(d: usize, target_tasks: usize) -> Vec<TreeTask> {
    // check:allow(panic-path): zero tasks is a scheduler-configuration bug
    // caught at startup, not runtime input.
    assert!(target_tasks > 0, "need at least one task");
    // Max-heap ordered by size.
    let mut heap: BinaryHeap<(usize, TreeTask)> = BinaryHeap::new();
    let whole = TreeTask::whole_lattice(d);
    heap.push((whole.size(), whole));
    let mut done: Vec<TreeTask> = Vec::new();
    while heap.len() + done.len() < target_tasks {
        let Some((_, task)) = heap.pop() else { break };
        match task.split() {
            Some((a, b)) => {
                for t in [a, b] {
                    if t.size() == 0 {
                        continue;
                    }
                    if t.splittable() {
                        heap.push((t.size(), t));
                    } else {
                        done.push(t);
                    }
                }
            }
            None => done.push(task),
        }
    }
    done.extend(heap.into_iter().map(|(_, t)| t));
    // Deterministic order: larger tasks first, ties by root mask — the
    // scheduler hands out big tasks early, a classic LPT heuristic.
    done.sort_by(|a, b| {
        b.size()
            .cmp(&a.size())
            .then(a.root.cmp(&b.root))
            .then(a.from_dim.cmp(&b.from_dim))
    });
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn whole_lattice_counts_all_cuboids() {
        let t = TreeTask::whole_lattice(4);
        assert_eq!(t.size(), 15);
        assert_eq!(t.members().len(), 15);
    }

    #[test]
    fn first_split_matches_the_thesis_figure() {
        // Figure 3.9 (d=4): first division yields T_A and T_all − T_A;
        // further divisions give T_AB, T_A − T_AB, T_B, T_all − T_A − T_B.
        let whole = TreeTask::whole_lattice(4);
        let (ta, rest) = whole.split().unwrap();
        assert_eq!(ta.root.to_string(), "A");
        assert_eq!(ta.size(), 8);
        assert_eq!(rest.size(), 7);

        let (tab, ta_rest) = ta.split().unwrap();
        let (tb, all_rest) = rest.split().unwrap();
        assert_eq!(tab.root.to_string(), "AB");
        assert_eq!(tab.size(), 4);
        assert_eq!(ta_rest.size(), 4);
        assert_eq!(tb.root.to_string(), "B");
        assert_eq!(tb.size(), 4);
        assert_eq!(all_rest.size(), 3);

        // The thesis' four tasks: {AB-subtree}, {A, AC, ACD, AD},
        // {B-subtree}, {C, CD, D}.
        let names =
            |t: &TreeTask| -> Vec<String> { t.members().iter().map(|m| m.to_string()).collect() };
        assert_eq!(names(&tab), vec!["AB", "ABC", "ABCD", "ABD"]);
        assert_eq!(names(&ta_rest), vec!["A", "AC", "ACD", "AD"]);
        assert_eq!(names(&tb), vec!["B", "BC", "BCD", "BD"]);
        assert_eq!(names(&all_rest), vec!["C", "CD", "D"]);
    }

    #[test]
    fn split_halves_are_equal_for_non_all_roots() {
        let t = TreeTask::full_subtree(CuboidMask::from_dims(&[1]), 6);
        let (a, b) = t.split().unwrap();
        assert_eq!(a.size(), b.size());
        assert_eq!(a.size() + b.size(), t.size());
    }

    #[test]
    fn contains_matches_members() {
        let t = TreeTask {
            root: CuboidMask::from_dims(&[0]),
            from_dim: 2,
            d: 4,
        };
        let members: std::collections::HashSet<_> = t.members().into_iter().collect();
        let l = crate::Lattice::new(4);
        for g in l.cuboids() {
            assert_eq!(t.contains(g), members.contains(&g), "cuboid {g}");
        }
        assert!(!t.contains(CuboidMask::ALL));
    }

    #[test]
    fn divide_reaches_target_and_partitions() {
        for d in 3..=8usize {
            for target in [1, 2, 4, 7, 32] {
                let tasks = divide_tasks(d, target);
                let total = (1usize << d) - 1;
                assert_eq!(
                    tasks.iter().map(TreeTask::size).sum::<usize>(),
                    total,
                    "d={d} target={target}"
                );
                assert!(tasks.len() >= target.min(total), "d={d} target={target}");
                // No cuboid may appear in two tasks.
                let mut seen = std::collections::HashSet::new();
                for t in &tasks {
                    for m in t.members() {
                        assert!(seen.insert(m), "duplicate {m} (d={d} target={target})");
                    }
                }
                assert_eq!(seen.len(), total);
            }
        }
    }

    #[test]
    fn divide_is_balanced_within_factor_two() {
        let tasks = divide_tasks(9, 32);
        let max = tasks.iter().map(TreeTask::size).max().unwrap();
        let min = tasks.iter().map(TreeTask::size).min().unwrap();
        assert!(max <= 2 * min.max(1) * 2, "max {max} min {min}");
    }

    #[test]
    fn divide_saturates_at_single_cuboids() {
        let tasks = divide_tasks(3, 1000);
        assert_eq!(tasks.len(), 7);
        assert!(tasks.iter().all(|t| t.size() == 1));
    }

    #[test]
    fn display_formats() {
        let t = TreeTask {
            root: CuboidMask::from_dims(&[0]),
            from_dim: 2,
            d: 4,
        };
        assert_eq!(t.to_string(), "T(A +2..4)");
    }

    proptest! {
        #[test]
        fn split_preserves_membership(d in 2usize..8, target in 1usize..40) {
            let tasks = divide_tasks(d, target);
            let l = crate::Lattice::new(d);
            for g in l.cuboids() {
                let owners = tasks.iter().filter(|t| t.contains(g)).count();
                prop_assert_eq!(owners, 1, "cuboid {} owned by {} tasks", g, owners);
            }
        }
    }
}
