#![warn(missing_docs)]

//! The cube lattice: cuboid identities, processing trees, and PT's binary
//! division.
//!
//! Every CUBE algorithm in the paper views the `2^d` group-bys of a
//! `d`-dimensional cube as a lattice (Figure 2.4a) and converts it into a
//! *processing tree* deciding which group-by is computed from which. This
//! crate provides:
//!
//! * [`CuboidMask`] — a cuboid (group-by) as a bitmask over dimensions, with
//!   the subset/prefix relations that drive ASL's and PT's affinity
//!   scheduling,
//! * [`Lattice`] — enumeration of cuboids by level, lattice edges, and the
//!   bottom-up (BUC, Figure 2.4c) and top-down (Figure 2.4b) tree shapes,
//! * [`TreeTask`] — PT's unit of work: a subtree of the BUC processing tree
//!   produced by recursive binary division (Section 3.4, Figure 3.9).

pub mod mask;
pub mod tree;

pub use mask::CuboidMask;
pub use tree::{divide_tasks, TreeTask};

/// The most dimensions a cube may have: masks are 32-bit and dimension
/// names run `A..Z`.
pub const MAX_DIMS: usize = 26;

/// The cube lattice over `d` dimensions.
///
/// Dimensions are indexed `0..d` and, when displayed, named `A`, `B`, `C`, …
/// as the paper does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lattice {
    d: usize,
}

impl Lattice {
    /// Creates the lattice for `d` dimensions.
    ///
    /// # Panics
    /// Panics unless `1 <= d <= MAX_DIMS`.
    pub fn new(d: usize) -> Self {
        // check:allow(panic-path): constructor contract documented in the
        // `# Panics` section; dimensionality is fixed at configuration time.
        assert!(
            (1..=MAX_DIMS).contains(&d),
            "supported dimensionality is 1..={MAX_DIMS}"
        );
        Lattice { d }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of group-bys, excluding the special "all" node: `2^d - 1`.
    pub fn cuboid_count(&self) -> usize {
        (1usize << self.d) - 1
    }

    /// Iterates every non-empty cuboid mask (the "all" node is handled
    /// specially by all algorithms, as in the paper).
    pub fn cuboids(&self) -> impl Iterator<Item = CuboidMask> {
        (1u32..(1u32 << self.d)).map(CuboidMask::from_bits)
    }

    /// Iterates the cuboids with exactly `k` dimensions.
    pub fn level(&self, k: usize) -> impl Iterator<Item = CuboidMask> + '_ {
        self.cuboids().filter(move |c| c.dim_count() == k)
    }

    /// The single most-detailed cuboid (all dimensions).
    pub fn top(&self) -> CuboidMask {
        CuboidMask::full(self.d)
    }

    /// Children of `g` in the BUC (bottom-up) processing tree of
    /// Figure 2.4(c): `g ∪ {k}` for every dimension `k` greater than `g`'s
    /// largest. The empty mask's children are the `d` single-dimension
    /// cuboids, i.e. the roots of the independent subtrees RP distributes.
    pub fn buc_children(&self, g: CuboidMask) -> impl Iterator<Item = CuboidMask> + '_ {
        let start = g.max_dim().map_or(0, |m| m + 1);
        (start..self.d).map(move |k| g.with_dim(k))
    }

    /// Parent of `g` in the BUC processing tree (`g` without its largest
    /// dimension); `None` for the empty mask.
    pub fn buc_parent(&self, g: CuboidMask) -> Option<CuboidMask> {
        g.max_dim().map(|m| g.without_dim(m))
    }

    /// Size of the full BUC subtree rooted at `g`: `2^(d - 1 - max_dim(g))`.
    pub fn buc_subtree_size(&self, g: CuboidMask) -> usize {
        let start = g.max_dim().map_or(0, |m| m + 1);
        1usize << (self.d - start)
    }

    /// All cuboids in the full BUC subtree rooted at `g`, in depth-first
    /// (BUC visiting) order.
    pub fn buc_subtree(&self, g: CuboidMask) -> Vec<CuboidMask> {
        let mut out = Vec::with_capacity(self.buc_subtree_size(g));
        self.collect_subtree(g, &mut out);
        out
    }

    fn collect_subtree(&self, g: CuboidMask, out: &mut Vec<CuboidMask>) {
        out.push(g);
        for c in self.buc_children(g) {
            self.collect_subtree(c, out);
        }
    }

    /// Parent of `g` in the share-sort top-down processing tree of
    /// Figure 2.4(b): the cuboid `g ∪ {k}` that shares the longest prefix —
    /// namely `g` extended with the smallest absent dimension larger than
    /// every present one, falling back to extending at the tail.
    ///
    /// Concretely: `ABD`'s parent is `ABCD`? No — the top-down tree computes
    /// each node from a parent one level up with `g` as a *prefix* when one
    /// exists (so `AB` ← `ABC`, `AD` ← `ABD`… the paper's Figure 2.4(b)
    /// draws `AD` ← `ABD`? it draws AD from ABD's sibling ACD). We use the
    /// canonical choice: append the smallest dimension not in `g` that keeps
    /// the result sorted after `g`'s last dimension if possible, otherwise
    /// the smallest absent dimension overall.
    pub fn topdown_parent(&self, g: CuboidMask) -> Option<CuboidMask> {
        if g.dim_count() == self.d {
            return None; // the top cuboid is computed from the raw data
        }
        // Prefer a parent that has g as a prefix: add the smallest absent
        // dimension greater than max(g).
        let start = g.max_dim().map_or(0, |m| m + 1);
        for k in start..self.d {
            if !g.contains(k) {
                return Some(g.with_dim(k));
            }
        }
        // Otherwise add the smallest absent dimension (subset sharing only).
        (0..self.d).find(|&k| !g.contains(k)).map(|k| g.with_dim(k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_match_powers_of_two() {
        let l = Lattice::new(4);
        assert_eq!(l.cuboid_count(), 15);
        assert_eq!(l.cuboids().count(), 15);
        assert_eq!(l.level(2).count(), 6);
        assert_eq!(l.top().dim_count(), 4);
    }

    #[test]
    fn buc_children_extend_past_max_dim() {
        let l = Lattice::new(4);
        let a = CuboidMask::from_dims(&[0]);
        let kids: Vec<String> = l.buc_children(a).map(|c| c.to_string()).collect();
        assert_eq!(kids, vec!["AB", "AC", "AD"]);
        let bc = CuboidMask::from_dims(&[1, 2]);
        let kids: Vec<String> = l.buc_children(bc).map(|c| c.to_string()).collect();
        assert_eq!(kids, vec!["BCD"]);
    }

    #[test]
    fn buc_parent_inverts_children() {
        let l = Lattice::new(5);
        for g in l.cuboids() {
            for c in l.buc_children(g) {
                assert_eq!(l.buc_parent(c), Some(g));
            }
        }
    }

    #[test]
    fn buc_subtree_sizes_match_the_thesis_example() {
        // For d=4: T_A has 8 nodes, T_B 4, T_C 2, T_D 1 (Figure 2.4c).
        let l = Lattice::new(4);
        let sizes: Vec<usize> = (0..4)
            .map(|k| l.buc_subtree_size(CuboidMask::from_dims(&[k])))
            .collect();
        assert_eq!(sizes, vec![8, 4, 2, 1]);
        assert_eq!(l.buc_subtree(CuboidMask::from_dims(&[1])).len(), 4);
    }

    #[test]
    fn buc_subtree_visits_depth_first() {
        let l = Lattice::new(4);
        let t: Vec<String> = l
            .buc_subtree(CuboidMask::from_dims(&[0]))
            .iter()
            .map(|c| c.to_string())
            .collect();
        assert_eq!(t, vec!["A", "AB", "ABC", "ABCD", "ABD", "AC", "ACD", "AD"]);
    }

    #[test]
    fn subtrees_partition_the_lattice() {
        let l = Lattice::new(6);
        let mut seen = std::collections::HashSet::new();
        for k in 0..6 {
            for g in l.buc_subtree(CuboidMask::from_dims(&[k])) {
                assert!(seen.insert(g), "duplicate {g}");
            }
        }
        assert_eq!(seen.len(), l.cuboid_count());
    }

    #[test]
    fn topdown_parent_prefers_prefix_extension() {
        let l = Lattice::new(4);
        let ab = CuboidMask::from_dims(&[0, 1]);
        assert_eq!(l.topdown_parent(ab).unwrap().to_string(), "ABC");
        let ad = CuboidMask::from_dims(&[0, 3]);
        // No dimension after D exists, so fall back to smallest absent (B).
        assert_eq!(l.topdown_parent(ad).unwrap().to_string(), "ABD");
        assert_eq!(l.topdown_parent(l.top()), None);
    }

    #[test]
    fn topdown_parents_form_a_tree_rooted_at_top() {
        let l = Lattice::new(5);
        for g in l.cuboids() {
            let mut cur = g;
            let mut steps = 0;
            while let Some(p) = l.topdown_parent(cur) {
                assert_eq!(p.dim_count(), cur.dim_count() + 1);
                cur = p;
                steps += 1;
                assert!(steps <= 5, "no cycle allowed");
            }
            assert_eq!(cur, l.top());
        }
    }

    #[test]
    #[should_panic(expected = "1..=26")]
    fn rejects_oversized_lattice() {
        let _ = Lattice::new(27);
    }
}
