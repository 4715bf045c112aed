//! Overlap (Naughton et al.; reviewed in Section 2.4.1) — the third
//! top-down baseline: maximize *sort-order overlap* instead of minimizing
//! sorts.
//!
//! Overlap's observation: if a child group-by shares a prefix of GROUP BY
//! attributes with its parent, the parent consists of one partition per
//! prefix value, and each partition can be sorted *independently* on the
//! child's remaining attributes — many small sorts instead of one big one.
//! The planner therefore picks, for every cuboid, the parent sharing the
//! longest attribute prefix (ties: the smallest parent), and the root sort
//! order propagates so every subsequent sort is a suffix sort within
//! partitions.
//!
//! Like all top-down algorithms it cannot prune on minimum support; the
//! paper cites [14]'s criticism that it still produces heavy intermediate
//! I/O on sparse cubes — visible here in the materialized-cells traffic.

use crate::cell::{emit_cuboid, CellSink};
use crate::query::IcebergQuery;
use crate::topdown::{
    accumulate, est_size, last_read, parents, positions, project_sorted, sort_raw, sort_work,
    top_down_order, Cells,
};
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, Lattice};
use std::cmp::Reverse;
use std::collections::BTreeMap;

/// The Overlap plan: for every cuboid, its parent and the length of the
/// shared sort-order prefix. Every cuboid keeps its dimensions in the
/// root's ascending order, so every order is a subsequence of it.
#[derive(Debug, Clone)]
pub struct OverlapPlan {
    /// parent and shared-prefix length per cuboid (top excluded).
    parents: BTreeMap<CuboidMask, (CuboidMask, usize)>,
}

impl OverlapPlan {
    /// The planned parent of `g` and the shared prefix length.
    pub fn parent_of(&self, g: CuboidMask) -> Option<(CuboidMask, usize)> {
        self.parents.get(&g).copied()
    }

    /// Average shared-prefix length over all edges — the "overlap" the
    /// algorithm maximizes.
    pub fn mean_overlap(&self) -> f64 {
        if self.parents.is_empty() {
            return 0.0;
        }
        let total: usize = self.parents.values().map(|&(_, p)| p).sum();
        total as f64 / self.parents.len() as f64
    }
}

/// Plans Overlap: root order = ascending dimensions; each cuboid keeps its
/// dimensions in that order ("all subsequent sorts are some suffix of this
/// order"), and picks the parent with the longest shared prefix, breaking
/// ties toward the smallest parent, then the lowest mask.
pub fn plan(dims: usize, cards: &[u32], tuples: usize) -> OverlapPlan {
    let parents = Lattice::new(dims)
        .cuboids()
        .filter_map(|g| {
            parents(g, dims)
                .map(|p| {
                    let shared = g.shared_prefix_len(p);
                    (shared, Reverse(est_size(p, cards, tuples)), Reverse(p))
                })
                .max()
                .map(|(shared, _, Reverse(p))| (g, (p, shared)))
        })
        .collect();
    OverlapPlan { parents }
}

/// Runs Overlap, emitting qualifying cells and charging the node. The
/// caller has checked that `query` matches `rel`
/// ([`crate::sequential::run_sequential`]).
pub(crate) fn overlap<S: CellSink>(
    rel: &Relation,
    query: &IcebergQuery,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    let cards = rel.schema().cardinalities();
    let the_plan = plan(query.dims, &cards, rel.len());

    // The top cuboid from the raw data, sorted in the root order.
    let top = Lattice::new(query.dims).top();
    let top_cells = sort_raw(rel, &top.dims(), node);
    emit_cuboid(
        top,
        top_cells.iter().map(|(k, a)| (k, a)),
        query.minsup,
        node,
        sink,
    );
    let mut materialized = BTreeMap::from([(top, top_cells)]);

    // Remaining readers per cuboid, to free memory as soon as possible.
    let mut readers: BTreeMap<CuboidMask, usize> = BTreeMap::new();
    for &(p, _) in the_plan.parents.values() {
        *readers.entry(p).or_insert(0) += 1;
    }

    for g in top_down_order(the_plan.parents.keys().copied()) {
        let Some(&(p, shared)) = the_plan.parents.get(&g) else {
            continue;
        };
        let Some(parent_cells) = materialized.get(&p) else {
            continue;
        };
        let cells = from_parent(parent_cells, p, g, shared, node);
        emit_cuboid(
            g,
            cells.iter().map(|(k, a)| (k, a)),
            query.minsup,
            node,
            sink,
        );
        if last_read(&mut readers, p) {
            materialized.remove(&p);
        }
        if readers.get(&g).is_some_and(|&n| n > 0) {
            materialized.insert(g, cells);
        }
    }
}

/// Computes a child from its parent, sorting only within shared-prefix
/// partitions (Overlap's core trick). `shared` is the number of leading
/// attributes the two orders have in common. Each partition of `m` cells
/// costs `m log m` comparisons of (at least one) key element.
fn from_parent(
    parent: &Cells,
    p: CuboidMask,
    child: CuboidMask,
    shared: usize,
    node: &mut SimNode,
) -> Cells {
    let positions = positions(&child.dims(), &p.dims());
    let mut out = Cells::new();
    let mut sorted_elems = 0u64;
    // Partitions: runs of equal shared prefix in the parent, each
    // projected and sorted independently on the suffix.
    for part in parent.chunk_by(|a, b| a.0.get(..shared) == b.0.get(..shared)) {
        sorted_elems += sort_work(part.len() as u64);
        for (k, a) in project_sorted(part, &positions) {
            accumulate(&mut out, k, &a);
        }
    }
    node.charge_comparisons(sorted_elems * positions.len().max(1) as u64);
    node.charge_agg_updates(parent.len() as u64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{sort_cells, Cell, CellBuf};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use icecube_cluster::{ClusterConfig, SimCluster};
    use icecube_data::presets;

    fn run(rel: &Relation, minsup: u64) -> (Vec<Cell>, SimCluster) {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::collecting();
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        overlap(rel, &q, &mut cluster.nodes[0], &mut sink);
        let mut cells = sink.into_cells();
        sort_cells(&mut cells);
        (cells, cluster)
    }

    #[test]
    fn matches_naive() {
        let rel = sales();
        for minsup in [1, 2, 6] {
            let (got, _) = run(&rel, minsup);
            let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(3, minsup));
            assert_eq!(got, want, "minsup {minsup}");
        }
        for seed in [2, 9] {
            let rel = presets::tiny(seed).generate().unwrap();
            let (got, _) = run(&rel, 2);
            let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, 2));
            assert_eq!(got, want, "seed {seed}");
        }
    }

    #[test]
    fn plan_maximizes_prefix_overlap() {
        // For AB in a 4-dim cube, parents are ABC, ABD (prefix 2) and …
        // none other; ABС-sized tie-break goes to the smaller.
        let p = plan(4, &[10, 10, 2, 1000], 100_000);
        let ab = CuboidMask::from_dims(&[0, 1]);
        let (parent, shared) = p.parent_of(ab).unwrap();
        assert_eq!(shared, 2);
        // ABC (est 200) is smaller than ABD (est 100·10·1000 capped).
        assert_eq!(parent, CuboidMask::from_dims(&[0, 1, 2]));
        // BD's best parents: ABD (shared 0) vs BCD (shared 1) → BCD.
        let bd = CuboidMask::from_dims(&[1, 3]);
        assert_eq!(
            p.parent_of(bd).unwrap().0,
            CuboidMask::from_dims(&[1, 2, 3])
        );
        assert!(p.mean_overlap() > 0.5);
    }

    #[test]
    fn partition_sorts_are_cheaper_than_full_resorts() {
        // Overlap's suffix sorts within partitions should beat the
        // PipeSort-style full re-sorts in comparison counts on data with
        // good prefix sharing.
        let rel = presets::tiny(6).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let mut a = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::counting();
        overlap(&rel, &q, &mut a.nodes[0], &mut sink);
        let mut b = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink2 = CellBuf::counting();
        crate::topdown::topdown_shared(&rel, &q, &mut b.nodes[0], &mut sink2);
        assert_eq!(sink.count, sink2.count);
        // Same outputs; Overlap's CPU should not exceed the plain
        // share-sort baseline by much (and usually undercuts it).
        assert!(a.nodes[0].stats.cpu_ns <= b.nodes[0].stats.cpu_ns * 3 / 2);
    }

    #[test]
    fn memory_is_freed_as_consumers_finish() {
        let rel = presets::tiny(7).generate().unwrap();
        let (_, cluster) = run(&rel, 1);
        // The run must finish without panicking on missing parents, which
        // exercises the consumer-count bookkeeping.
        assert!(cluster.nodes[0].stats.cells_written > 0);
    }
}
