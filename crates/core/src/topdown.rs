//! A sequential share-sort top-down baseline (the PipeSort/PipeHash
//! lineage of Section 2.4.1), and the sort-and-pipe toolkit the other
//! Chapter 2 comparators ([`crate::overlap`], [`crate::pipesort`],
//! [`crate::pipehash`]) build on.
//!
//! Top-down algorithms compute each group-by from a *parent* one level up,
//! exploiting two facts the paper reviews: a smaller parent is cheaper to
//! aggregate than the raw data (*smallest parent*), and a parent sorted
//! with the child's dimensions as a prefix needs no re-sort (*share-sorts*).
//! This implementation materializes cuboids down the processing tree of
//! Figure 2.4(b): every cuboid is computed from its
//! [`topdown_parent`](icecube_lattice::Lattice::topdown_parent); when the
//! child is a prefix of the parent a single accumulate-runs scan suffices,
//! otherwise the parent's cells are re-sorted first.
//!
//! Top-down traversal cannot prune on minimum support (a cell below the
//! threshold still feeds qualifying ancestors), which is exactly why BUC
//! wins on iceberg queries — this baseline exists to exhibit that contrast
//! and to serve ASL's precomputation mode.
//!
//! Each helper charges one fixed price for its step. Where the
//! comparators price a step differently (Overlap's partition sorts, this
//! module's share-sort scan) the caller charges it itself, because
//! `ablation_sequential` measures exactly those differences.

use crate::agg::Aggregate;
use crate::cell::{emit_cuboid, CellSink};
use crate::query::IcebergQuery;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, Lattice};
use std::collections::BTreeMap;

/// A cuboid's cells as `(key, aggregate)` pairs, *unfiltered* (top-down
/// must keep sub-threshold cells because they feed descendants), sorted
/// by key. Keys list the cuboid's values in some attribute order.
pub(crate) type Cells = Vec<(Vec<u32>, Aggregate)>;

/// Estimated cuboid size: `min(∏ cardinalities, tuples)` — the cost basis
/// the PipeSort, PipeHash and Overlap planners share (the paper notes
/// this estimate is what breaks down on sparse data, motivating
/// PartitionedCube).
pub(crate) fn est_size(g: CuboidMask, cards: &[u32], tuples: usize) -> u64 {
    let tuples = tuples as u64;
    let mut prod = 1u64;
    for &card in g.iter_dims().filter_map(|d| cards.get(d)) {
        prod = prod.saturating_mul(u64::from(card));
        if prod >= tuples {
            return tuples;
        }
    }
    prod.min(tuples)
}

/// The cuboids one level above `g` in a `dims`-dimensional cube: its
/// candidate parents.
pub(crate) fn parents(g: CuboidMask, dims: usize) -> impl Iterator<Item = CuboidMask> {
    (0..dims)
        .filter(move |&d| !g.contains(d))
        .map(move |d| g.with_dim(d))
}

/// `cuboids` in top-down processing order: descending level, ties broken
/// on the mask, so a parent always precedes its children.
pub(crate) fn top_down_order(cuboids: impl IntoIterator<Item = CuboidMask>) -> Vec<CuboidMask> {
    let mut order: Vec<CuboidMask> = cuboids.into_iter().collect();
    order.sort_unstable_by(|a, b| b.dim_count().cmp(&a.dim_count()).then(a.cmp(b)));
    order
}

/// Where each of `child`'s attributes sits in a key ordered by `parent`
/// (`child` ⊆ `parent`).
pub(crate) fn positions(child: &[usize], parent: &[usize]) -> Vec<usize> {
    child
        .iter()
        .filter_map(|d| parent.iter().position(|p| p == d))
        .collect()
}

/// Reads `key` at `positions`: a projection onto a child's attributes.
pub(crate) fn project(key: &[u32], positions: &[usize]) -> Vec<u32> {
    projected(key, positions).collect()
}

fn projected<'a>(key: &'a [u32], positions: &'a [usize]) -> impl Iterator<Item = u32> + 'a {
    positions.iter().filter_map(|&p| key.get(p).copied())
}

/// Appends a cell to sorted output, merging it into the last cell when
/// the keys are equal.
pub(crate) fn accumulate(out: &mut Cells, key: Vec<u32>, agg: &Aggregate) {
    match out.last_mut() {
        Some((k, a)) if *k == key => a.merge(agg),
        _ => out.push((key, *agg)),
    }
}

/// Comparisons of an `n`-element sort: `n·⌊log₂ n⌋` element comparisons.
pub(crate) fn sort_work(n: u64) -> u64 {
    n * n.max(2).ilog2() as u64
}

/// Sorts the raw relation by the attribute `order` and pre-aggregates
/// duplicate keys, charging `n log n` comparisons of `|order|`-element
/// keys and one aggregate update per row.
pub(crate) fn sort_raw(rel: &Relation, order: &[usize], node: &mut SimNode) -> Cells {
    let key = |i: u32| projected(rel.row(i as usize), order);
    let mut idx: Vec<u32> = (0..rel.len() as u32).collect();
    idx.sort_unstable_by(|&a, &b| key(a).cmp(key(b)));
    let n = rel.len() as u64;
    node.charge_comparisons(sort_work(n) * order.len() as u64);
    let mut out = Cells::new();
    for i in idx {
        let measure = rel.measure(i as usize);
        match out.last_mut() {
            Some((k, agg)) if key(i).eq(k.iter().copied()) => agg.update(measure),
            _ => out.push((project(rel.row(i as usize), order), Aggregate::of(measure))),
        }
    }
    node.charge_agg_updates(n);
    out
}

/// Projects `cells` onto `positions` and sorts the result by key, charging
/// nothing: the caller prices the sort.
pub(crate) fn project_sorted(cells: &[(Vec<u32>, Aggregate)], positions: &[usize]) -> Cells {
    let mut out: Cells = cells
        .iter()
        .map(|(k, a)| (project(k, positions), *a))
        .collect();
    out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Projects a parent's cells onto a child's `positions`, re-sorts them in
/// full and accumulates the duplicates the projection creates, charging
/// `n log n` comparisons of `|positions|`-element keys and one aggregate
/// update per parent cell.
pub(crate) fn resort(
    parent: &[(Vec<u32>, Aggregate)],
    positions: &[usize],
    node: &mut SimNode,
) -> Cells {
    let sorted = project_sorted(parent, positions);
    let n = parent.len() as u64;
    node.charge_comparisons(sort_work(n) * positions.len() as u64);
    let mut out = Cells::new();
    for (k, a) in sorted {
        accumulate(&mut out, k, &a);
    }
    node.charge_agg_updates(n);
    out
}

/// Counts one read of the materialized cuboid `p` off its planned
/// readers; true once the last of them has run and `p` can be dropped.
pub(crate) fn last_read(readers: &mut BTreeMap<CuboidMask, usize>, p: CuboidMask) -> bool {
    readers.get_mut(&p).is_some_and(|left| {
        *left -= 1;
        *left == 0
    })
}

/// A materialized cuboid, keys in ascending dimension order.
#[derive(Debug, Clone)]
struct Materialized {
    cuboid: CuboidMask,
    cells: Cells,
}

/// Computes the iceberg cube top-down with sort sharing, charging costs to
/// `node` and emitting qualifying cells to `sink`. The caller has checked
/// that `query` matches `rel` ([`crate::sequential::run_sequential`]).
pub(crate) fn topdown_shared<S: CellSink>(
    rel: &Relation,
    query: &IcebergQuery,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    let lattice = Lattice::new(query.dims);
    // Children of each node in the top-down processing tree.
    let mut children: BTreeMap<CuboidMask, Vec<CuboidMask>> = BTreeMap::new();
    for g in lattice.cuboids() {
        if let Some(p) = lattice.topdown_parent(g) {
            children.entry(p).or_default().push(g);
        }
    }
    // The top cuboid comes from the raw data.
    let top = lattice.top();
    let top = Materialized {
        cuboid: top,
        cells: sort_raw(rel, &top.dims(), node),
    };
    emit_cuboid(
        top.cuboid,
        top.cells.iter().map(|(k, a)| (k, a)),
        query.minsup,
        node,
        sink,
    );
    descend(&top, &children, query.minsup, node, sink);
}

fn descend<S: CellSink>(
    parent: &Materialized,
    children: &BTreeMap<CuboidMask, Vec<CuboidMask>>,
    minsup: u64,
    node: &mut SimNode,
    sink: &mut S,
) {
    for &child in children.get(&parent.cuboid).into_iter().flatten() {
        let m = aggregate_from_parent(parent, child, node);
        emit_cuboid(
            m.cuboid,
            m.cells.iter().map(|(k, a)| (k, a)),
            minsup,
            node,
            sink,
        );
        descend(&m, children, minsup, node, sink);
    }
}

/// Computes `child` from a materialized parent, re-sorting only when the
/// child is not a prefix of the parent (share-sorts).
fn aggregate_from_parent(
    parent: &Materialized,
    child: CuboidMask,
    node: &mut SimNode,
) -> Materialized {
    let positions = positions(&child.dims(), &parent.cuboid.dims());
    let cells = if positions.iter().copied().eq(0..positions.len()) {
        // Share-sort: parent order is already child order — one scan.
        let mut cells = Cells::new();
        for (key, agg) in &parent.cells {
            accumulate(&mut cells, project(key, &positions), agg);
        }
        let n = parent.cells.len() as u64;
        node.charge_comparisons(n * positions.len() as u64);
        node.charge_agg_updates(n);
        cells
    } else {
        resort(&parent.cells, &positions, node)
    };
    Materialized {
        cuboid: child,
        cells,
    }
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
        topdown_shared(rel, &q, &mut cluster.nodes[0], &mut sink);
        let mut cells = sink.into_cells();
        sort_cells(&mut cells);
        (cells, cluster)
    }

    #[test]
    fn matches_naive_on_sales() {
        let rel = sales();
        for minsup in [1, 2, 3, 6] {
            let (cells, _) = run(&rel, minsup);
            let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(3, minsup));
            assert_eq!(cells, want, "minsup {minsup}");
        }
    }

    #[test]
    fn matches_naive_on_synthetic() {
        for seed in [0, 4] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3] {
                let (cells, _) = run(&rel, minsup);
                let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, minsup));
                assert_eq!(cells, want, "seed {seed} minsup {minsup}");
            }
        }
    }

    #[test]
    fn no_pruning_means_minsup_does_not_cut_compute() {
        // Top-down cannot prune: CPU cost is (nearly) the same at any
        // minsup; only output I/O shrinks. This is the structural contrast
        // with BUC the paper draws.
        let rel = presets::tiny(1).generate().unwrap();
        let (_, loose) = run(&rel, 1);
        let (_, tight) = run(&rel, 10);
        // The aggregation work is identical; only the per-cell emission
        // overhead (and I/O) shrinks with the threshold.
        let (l, t) = (loose.nodes[0].stats.cpu_ns, tight.nodes[0].stats.cpu_ns);
        assert!(t <= l && t * 10 > l * 8, "loose {l} vs tight {t}");
        assert!(tight.nodes[0].stats.bytes_written < loose.nodes[0].stats.bytes_written);
    }

    #[test]
    fn empty_input_is_fine() {
        let rel = Relation::new(icecube_data::Schema::from_cardinalities(&[2, 2]).unwrap());
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::collecting();
        topdown_shared(
            &rel,
            &IcebergQuery::count_cube(2, 1),
            &mut cluster.nodes[0],
            &mut sink,
        );
        assert_eq!(sink.count, 0);
    }
}
