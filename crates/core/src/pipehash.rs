//! PipeHash (Agarwal et al., VLDB 1996) — the hash-based top-down baseline
//! the paper reviews in Section 2.4.1.
//!
//! PipeHash needs no sorting: every cuboid's cells live in a hash table,
//! and each cuboid is computed from its *smallest parent* — the
//! minimum-estimated-size cuboid one level up, which makes the processing
//! tree a minimum spanning tree of the lattice (Figure 2.7a).
//!
//! Its weakness, which the paper leans on, is memory: "requiring re-hash
//! for every group-by and requiring a significant amount of memory…
//! it can only outperform PipeSort as the data is dense." When the tables
//! would not fit, PipeHash partitions the input on one attribute and
//! processes each fragment independently for the cuboids containing that
//! attribute (share-partitions, Figure 2.7b/c); the remaining cuboids are
//! computed afterwards from materialized parents. This implementation
//! reproduces both modes, with real memory accounting on the simulated
//! node.

use crate::agg::Aggregate;
use crate::cell::{emit_cuboid, CellSink};
use crate::query::IcebergQuery;
use crate::topdown::{est_size, parents, positions, project, top_down_order};
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, Lattice};
use std::collections::BTreeMap;

// check:allow(unordered-collections): the hash table *is* PipeHash; no
// charge depends on its iteration order (each cuboid is written as one
// contiguous block) and the sink sorts the cells it collects.
type Table = std::collections::HashMap<Vec<u32>, Aggregate>;

/// The smallest-parent MST: for every cuboid, the minimum-estimated-size
/// parent one level up (ties: the lowest mask; `None` for the top
/// cuboid, fed by the raw data).
pub fn smallest_parent_tree(
    dims: usize,
    cards: &[u32],
    tuples: usize,
) -> BTreeMap<CuboidMask, Option<CuboidMask>> {
    Lattice::new(dims)
        .cuboids()
        .map(|c| {
            let parent = parents(c, dims)
                .map(|p| (est_size(p, cards, tuples), p))
                .min();
            (c, parent.map(|(_, p)| p))
        })
        .collect()
}

/// Rough in-memory bytes of one hash-table cell.
fn cell_mem(arity: usize) -> u64 {
    (arity * 4 + 64) as u64
}

/// Runs PipeHash, emitting qualifying cells and charging the node. When
/// the estimated tables exceed `memory_budget` bytes, the input is
/// range-partitioned on the highest-cardinality attribute (the one that
/// fragments the data most) and the attribute-containing cuboids are
/// computed fragment by fragment. The caller has checked that `query`
/// matches `rel` ([`crate::sequential::run_sequential`]).
pub(crate) fn pipehash<S: CellSink>(
    rel: &Relation,
    query: &IcebergQuery,
    memory_budget: u64,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    let cards = rel.schema().cardinalities();
    let tree = smallest_parent_tree(query.dims, &cards, rel.len());
    let lattice = Lattice::new(query.dims);
    let estimated_total: u64 = lattice
        .cuboids()
        .map(|g| est_size(g, &cards, rel.len()) * cell_mem(g.dim_count()))
        .sum();

    if estimated_total <= memory_budget {
        // Everything fits: one scan builds the top table; the MST feeds
        // every other cuboid from its (materialized) smallest parent.
        build_all(rel, &tree, query, node, sink, &mut BTreeMap::new(), None);
        return;
    }
    // Share-partitions: split on the widest attribute (the last of equally
    // wide ones); cuboids containing it are computed per fragment (their
    // cells are fragment-disjoint); the rest from materialized parents
    // after.
    let Some((split_dim, &split_card)) = cards.iter().enumerate().max_by_key(|&(_, c)| c) else {
        return;
    };
    let fragments = (estimated_total / memory_budget.max(1) + 1)
        .min(split_card as u64)
        .max(2) as usize;
    let parts = rel.range_partition(split_dim, fragments);
    node.charge_scan(rel.len() as u64);
    node.charge_moves(rel.len() as u64);
    let top = lattice.top();
    let mut tables: BTreeMap<CuboidMask, Table> = BTreeMap::new();
    for part in parts.iter().filter(|p| !p.is_empty()) {
        let mut frag_tables = BTreeMap::new();
        build_all(
            part,
            &tree,
            query,
            node,
            sink,
            &mut frag_tables,
            Some(split_dim),
        );
        // Keep the fragment's *top* cells merged into the full top
        // table: it feeds the cuboids that drop the split attribute.
        if let Some(frag_top) = frag_tables.remove(&top) {
            node.free(frag_top.len() as u64 * cell_mem(query.dims));
            let merged = tables.entry(top).or_default();
            for (k, a) in frag_top {
                node.charge_hash_probes(1);
                merged.entry(k).or_insert_with(Aggregate::empty).merge(&a);
            }
        }
        // The fragment's other tables are dropped here; release their
        // accounted memory so the peak reflects the partitioning.
        let freed: u64 = frag_tables
            .iter()
            .map(|(g, t)| t.len() as u64 * cell_mem(g.dim_count()))
            .sum();
        node.free(freed);
    }
    node.alloc(
        tables
            .get(&top)
            .map_or(0, |t| t.len() as u64 * cell_mem(query.dims)),
    );
    // Now the cuboids NOT containing the split attribute, top-down by
    // level from their MST parents (re-rooted through the top table).
    for g in top_down_order(lattice.cuboids().filter(|g| !g.contains(split_dim))) {
        // Parent: prefer the MST parent if materialized, else the top.
        let parent = match tree.get(&g) {
            Some(&Some(p)) if tables.contains_key(&p) => p,
            _ => top,
        };
        derive(&mut tables, parent, g, query.minsup, node, sink);
    }
}

/// Builds every cuboid reachable in the MST from the raw data (optionally
/// restricted to cuboids containing `only_with`), emitting as it goes.
fn build_all<S: CellSink>(
    rel: &Relation,
    tree: &BTreeMap<CuboidMask, Option<CuboidMask>>,
    query: &IcebergQuery,
    node: &mut SimNode,
    sink: &mut S,
    tables: &mut BTreeMap<CuboidMask, Table>,
    only_with: Option<usize>,
) {
    // The top cuboid from the raw data.
    let lattice = Lattice::new(query.dims);
    let top = lattice.top();
    let mut top_table = Table::with_capacity(rel.len());
    for (row, m) in rel.rows() {
        top_table
            .entry(row.to_vec())
            .or_insert_with(Aggregate::empty)
            .update(m);
    }
    node.charge_scan(rel.len() as u64);
    node.charge_hash_probes(rel.len() as u64);
    node.charge_agg_updates(rel.len() as u64);
    node.alloc(top_table.len() as u64 * cell_mem(query.dims));
    // The top cuboid always contains the split attribute, so in
    // partitioned mode its per-fragment cells are disjoint and emitting
    // them fragment by fragment is exact.
    emit_cuboid(top, &top_table, query.minsup, node, sink);
    tables.insert(top, top_table);

    // Remaining cuboids by descending level, each from its MST parent.
    let rest = lattice
        .cuboids()
        .filter(|&g| g != top && only_with.is_none_or(|d| g.contains(d)));
    for g in top_down_order(rest) {
        let parent = match tree.get(&g) {
            Some(&Some(p)) if tables.contains_key(&p) => p,
            // Under the restriction the MST parent may be outside the
            // restricted set; re-route through the smallest in-set parent.
            _ => parents(g, query.dims)
                .filter_map(|p| tables.get(&p).map(|t| (t.len(), p)))
                .min()
                .map_or(top, |(_, p)| p),
        };
        derive(tables, parent, g, query.minsup, node, sink);
    }
}

/// Re-hashes the materialized `parent` into `child` (the "re-hash for
/// every group-by" the paper criticizes), writes the child's qualifying
/// cells and keeps its table.
fn derive<S: CellSink>(
    tables: &mut BTreeMap<CuboidMask, Table>,
    parent: CuboidMask,
    child: CuboidMask,
    minsup: u64,
    node: &mut SimNode,
    sink: &mut S,
) {
    let Some(from) = tables.get(&parent) else {
        return;
    };
    let positions = positions(&child.dims(), &parent.dims());
    let mut table = Table::with_capacity(from.len() / 2 + 1);
    for (k, a) in from {
        table
            .entry(project(k, &positions))
            .or_insert_with(Aggregate::empty)
            .merge(a);
    }
    let n = from.len() as u64;
    node.charge_scan(n);
    node.charge_hash_probes(n);
    node.charge_agg_updates(n);
    emit_cuboid(child, &table, minsup, node, sink);
    node.alloc(table.len() as u64 * cell_mem(child.dim_count()));
    tables.insert(child, table);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{sort_cells, Cell, CellBuf};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use icecube_cluster::{ClusterConfig, SimCluster};
    use icecube_data::presets;

    fn run(rel: &Relation, minsup: u64, budget: u64) -> Vec<Cell> {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::collecting();
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        pipehash(rel, &q, budget, &mut cluster.nodes[0], &mut sink);
        let mut cells = sink.into_cells();
        sort_cells(&mut cells);
        cells
    }

    #[test]
    fn matches_naive_when_memory_is_plentiful() {
        let rel = sales();
        for minsup in [1, 2, 3] {
            let got = run(&rel, minsup, u64::MAX);
            let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(3, minsup));
            assert_eq!(got, want, "minsup {minsup}");
        }
    }

    #[test]
    fn matches_naive_under_partitioning() {
        // A budget small enough to force share-partitions mode.
        for seed in [0, 5] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 2] {
                let got = run(&rel, minsup, 4_000);
                let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, minsup));
                assert_eq!(got, want, "seed {seed} minsup {minsup}");
            }
        }
    }

    #[test]
    fn smallest_parent_tree_picks_minimum_sizes() {
        // cards [2, 100, 3]: A's parent candidates are AB (est 200) and
        // AC (est 6) → AC.
        let tree = smallest_parent_tree(3, &[2, 100, 3], 10_000);
        let a = CuboidMask::from_dims(&[0]);
        assert_eq!(tree[&a], Some(CuboidMask::from_dims(&[0, 2])));
        // The top has no parent.
        assert_eq!(tree[&CuboidMask::full(3)], None);
        // B's candidates: AB (200) vs BC (300) → AB.
        let b = CuboidMask::from_dims(&[1]);
        assert_eq!(tree[&b], Some(CuboidMask::from_dims(&[0, 1])));
    }

    #[test]
    fn partitioned_mode_is_memory_bounded() {
        let rel = presets::tiny(1).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let mut plentiful = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::counting();
        pipehash(&rel, &q, u64::MAX, &mut plentiful.nodes[0], &mut sink);
        let mut scarce = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink2 = CellBuf::counting();
        pipehash(&rel, &q, 2_000, &mut scarce.nodes[0], &mut sink2);
        assert_eq!(sink.count, sink2.count);
        assert!(
            scarce.nodes[0].stats.peak_mem_bytes < plentiful.nodes[0].stats.peak_mem_bytes,
            "partitioning must lower the peak ({} vs {})",
            scarce.nodes[0].stats.peak_mem_bytes,
            plentiful.nodes[0].stats.peak_mem_bytes
        );
    }

    #[test]
    fn no_sorting_is_charged() {
        // PipeHash never sorts: the comparison counter stays at zero.
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::counting();
        let before = cluster.nodes[0].stats.cpu_ns;
        pipehash(&rel, &q, u64::MAX, &mut cluster.nodes[0], &mut sink);
        assert!(cluster.nodes[0].stats.cpu_ns > before);
        // Hash probes dominate; there is no n·log n comparison term — we
        // can't observe counters separately, but probes were charged:
        assert!(cluster.nodes[0].stats.cpu_ns > 0);
    }
}
