//! PipeSort (Agarwal et al., VLDB 1996) — the sort-based top-down baseline
//! the paper reviews in Section 2.4.1.
//!
//! PipeSort's two ideas, both implemented here:
//!
//! * **Planning.** Every cuboid at level `k−1` is computed from a parent at
//!   level `k`. A parent can hand its sort order to *one* child for the
//!   cheap cost `A(parent)` (scan, no sort); every other child pays
//!   `S(parent)` (re-sort then scan). Level by level, the assignment that
//!   minimizes total cost is a minimum-cost bipartite matching; this
//!   implementation uses the standard greedy approximation on the savings
//!   `S_min(child) − A(parent)` (exact matching only changes constants,
//!   not the baseline's shape, and the thesis never evaluates PipeSort
//!   directly).
//! * **Pipelines.** Chains of share-sort edges execute in a single scan:
//!   sorting once in the head's attribute order computes every cuboid on
//!   the chain simultaneously, maintaining one running aggregate per
//!   prefix length (Figure 2.6b). Only pipeline heads sort.
//!
//! Like every top-down algorithm, PipeSort cannot prune on minimum
//! support; the threshold filters output only.

use crate::agg::Aggregate;
use crate::cell::{emit_cuboid, CellSink};
use crate::query::IcebergQuery;
use crate::topdown::{
    est_size, last_read, parents, positions, project, resort, sort_raw, top_down_order, Cells,
};
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::{CuboidMask, Lattice};
use std::collections::BTreeMap;

/// The per-cuboid plan: where its data comes from and in which attribute
/// order its cells are produced.
#[derive(Debug, Clone)]
struct PlanNode {
    /// Attribute order of this cuboid's cells.
    order: Vec<usize>,
    /// The cuboid this one is computed from (`None` = raw data).
    parent: Option<CuboidMask>,
    /// Whether the parent's sort order is reused (pipelined) or a re-sort
    /// is required (this cuboid heads a pipeline).
    pipelined: bool,
    /// The child that inherits this cuboid's order: the next member of
    /// its pipeline.
    next: Option<CuboidMask>,
}

/// The complete PipeSort plan.
#[derive(Debug, Clone)]
pub struct PipeSortPlan {
    nodes: BTreeMap<CuboidMask, PlanNode>,
    d: usize,
}

impl PipeSortPlan {
    /// The cube dimensionality the plan was built for.
    pub fn dims(&self) -> usize {
        self.d
    }

    /// Number of pipelines (cuboids that require their own sort).
    pub fn pipeline_count(&self) -> usize {
        self.nodes.values().filter(|n| !n.pipelined).count()
    }

    /// The planned attribute order of a cuboid.
    pub fn order_of(&self, g: CuboidMask) -> Option<&[usize]> {
        self.nodes.get(&g).map(|n| n.order.as_slice())
    }
}

/// S-cost: re-sorting the parent first. (The A-cost, computing one child
/// from the parent without sorting, is the parent's estimated size.)
fn s_cost(p: CuboidMask, cards: &[u32], tuples: usize) -> u64 {
    let n = est_size(p, cards, tuples);
    n.saturating_mul(n.max(2).ilog2() as u64 + 1)
}

/// Builds the PipeSort plan for a cube over the given schema.
pub fn plan(dims: usize, cards: &[u32], tuples: usize) -> PipeSortPlan {
    let lattice = Lattice::new(dims);
    // matched[parent] = child that inherits the parent's sort order.
    let mut matched_child: BTreeMap<CuboidMask, CuboidMask> = BTreeMap::new();
    let mut parent_of: BTreeMap<CuboidMask, (CuboidMask, bool)> = BTreeMap::new();

    for k in (1..=dims).rev() {
        // For each child, the cheapest re-sort parent as the fallback.
        let best_s: BTreeMap<CuboidMask, (CuboidMask, u64)> = lattice
            .level(k - 1)
            .filter_map(|c| {
                parents(c, dims)
                    .map(|p| (s_cost(p, cards, tuples), p))
                    .min()
                    .map(|(cost, p)| (c, (p, cost)))
            })
            .collect();
        // Greedy maximum-savings matching: edges (child, parent) with
        // savings = S_min(child) − A(parent), largest first.
        let mut edges: Vec<(u64, CuboidMask, CuboidMask)> = Vec::new();
        for (&c, &(_, s_min)) in &best_s {
            for p in parents(c, dims) {
                let a = est_size(p, cards, tuples);
                if a < s_min {
                    edges.push((s_min - a, c, p));
                }
            }
        }
        edges.sort_unstable_by(|x, y| y.0.cmp(&x.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2)));
        for (_, c, p) in edges {
            if parent_of.contains_key(&c) || matched_child.contains_key(&p) {
                continue;
            }
            matched_child.insert(p, c);
            parent_of.insert(c, (p, true));
        }
        for (c, (p, _)) in best_s {
            parent_of.entry(c).or_insert((p, false));
        }
    }

    // Assign attribute orders: walk each share-sort chain from its bottom
    // (a cuboid no child inherits from). The bottom member takes
    // ascending order; each parent appends its extra dimension.
    let mut nodes = BTreeMap::new();
    for g in lattice.cuboids().filter(|g| !matched_child.contains_key(g)) {
        let mut order: Vec<usize> = g.dims();
        let (mut cur, mut below) = (g, None);
        loop {
            // No parent: the top cuboid, sorted from raw data.
            let parent = parent_of.get(&cur).copied();
            let pipelined = parent.is_some_and(|(_, pipelined)| pipelined);
            nodes.insert(
                cur,
                PlanNode {
                    order: order.clone(),
                    parent: parent.map(|(p, _)| p),
                    pipelined,
                    next: below,
                },
            );
            // Does `cur`'s parent pipeline into it? Then extend the order.
            let Some((p, true)) = parent else {
                break;
            };
            let Some(extra) = p.iter_dims().find(|&d| !cur.contains(d)) else {
                break;
            };
            order.push(extra);
            (cur, below) = (p, Some(cur));
        }
    }
    PipeSortPlan { nodes, d: dims }
}

/// Executes PipeSort: plans, then runs every pipeline, emitting qualifying
/// cells and charging the simulated node. The caller has checked that
/// `query` matches `rel` ([`crate::sequential::run_sequential`]).
pub(crate) fn pipesort<S: CellSink>(
    rel: &Relation,
    query: &IcebergQuery,
    node: &mut SimNode,
    sink: &mut S,
) {
    if rel.is_empty() {
        return;
    }
    let cards = rel.schema().cardinalities();
    let plan = plan(query.dims, &cards, rel.len());
    let mut materialized: BTreeMap<CuboidMask, Cells> = BTreeMap::new();
    // How many pipeline heads will still read each cuboid as their input;
    // a materialized cuboid is dropped once its last reader has run.
    let mut readers: BTreeMap<CuboidMask, usize> = BTreeMap::new();
    for p in plan
        .nodes
        .values()
        .filter(|n| !n.pipelined)
        .filter_map(|n| n.parent)
    {
        *readers.entry(p).or_insert(0) += 1;
    }
    // Pipelines execute heads-by-level descending, so a head's parent is
    // always materialized first.
    let heads = plan.nodes.iter().filter(|(_, n)| !n.pipelined);
    for head in top_down_order(heads.map(|(&g, _)| g)) {
        let Some(head_node) = plan.nodes.get(&head) else {
            continue;
        };
        // Input: the head's parent (re-sorted), or the raw data for the top.
        let input = match head_node.parent {
            None => sort_raw(rel, &head_node.order, node),
            Some(p) => {
                let (Some(parent_cells), Some(parent)) = (materialized.get(&p), plan.nodes.get(&p))
                else {
                    continue;
                };
                let resorted = resort(
                    parent_cells,
                    &positions(&head_node.order, &parent.order),
                    node,
                );
                if last_read(&mut readers, p) {
                    if let Some(freed) = materialized.remove(&p) {
                        node.free(cells_bytes(&freed));
                    }
                }
                resorted
            }
        };
        // The members of this pipeline: the chain of cuboids that inherit
        // the head's sort order, one prefix shorter each.
        let members: Vec<CuboidMask> =
            std::iter::successors(Some(head), |g| plan.nodes.get(g).and_then(|n| n.next)).collect();
        let outputs = pipelined_scan(&input, &members, node);
        for (member, cells) in members.into_iter().zip(outputs) {
            // Keys are in the member's *planned* order, which may differ
            // from ascending-dimension order — normalize on emit.
            let Some(planned) = plan.nodes.get(&member) else {
                continue;
            };
            let remap = positions(&member.dims(), &planned.order);
            let keys = cells.iter().map(|(k, a)| (project(k, &remap), a));
            emit_cuboid(member, keys, query.minsup, node, sink);
            // Materialize only cuboids some later pipeline reads.
            if readers.get(&member).is_some_and(|&n| n > 0) {
                node.alloc(cells_bytes(&cells));
                materialized.insert(member, cells);
            }
        }
    }
}

/// Memory accounting for a materialized cuboid.
fn cells_bytes(cells: &Cells) -> u64 {
    cells.iter().map(|(k, _)| k.len() as u64 * 4 + 32).sum()
}

/// The pipelined scan: one pass over `input` (sorted by the head's order)
/// computing every member simultaneously — member `i` is the prefix of
/// its own length of the head's order — with one running aggregate per
/// member and one aggregate update charged per member and input cell.
fn pipelined_scan(input: &Cells, members: &[CuboidMask], node: &mut SimNode) -> Vec<Cells> {
    let mut outputs: Vec<(Cells, Vec<u32>, Aggregate)> = members
        .iter()
        .map(|m| {
            (
                Cells::new(),
                vec![u32::MAX; m.dim_count()],
                Aggregate::empty(),
            )
        })
        .collect();
    for (key, agg) in input {
        for (out, run_key, run) in &mut outputs {
            let prefix = key.get(..run_key.len()).unwrap_or(key);
            if run_key.as_slice() != prefix {
                if run.count > 0 {
                    out.push((std::mem::replace(run_key, prefix.to_vec()), *run));
                    *run = Aggregate::empty();
                } else {
                    run_key.clear();
                    run_key.extend_from_slice(prefix);
                }
            }
            run.merge(agg);
        }
        node.charge_agg_updates(members.len() as u64);
    }
    outputs
        .into_iter()
        .map(|(mut out, run_key, run)| {
            if run.count > 0 {
                out.push((run_key, run));
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{sort_cells, Cell, CellBuf};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use icecube_cluster::{ClusterConfig, SimCluster};
    use icecube_data::presets;

    fn run(rel: &Relation, minsup: u64) -> Vec<Cell> {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
        let mut sink = CellBuf::collecting();
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        pipesort(rel, &q, &mut cluster.nodes[0], &mut sink);
        let mut cells = sink.into_cells();
        sort_cells(&mut cells);
        cells
    }

    #[test]
    fn matches_naive_on_sales() {
        let rel = sales();
        for minsup in [1, 2, 3, 6] {
            let got = run(&rel, minsup);
            let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(3, minsup));
            assert_eq!(got, want, "minsup {minsup}");
        }
    }

    #[test]
    fn matches_naive_on_synthetic() {
        for seed in [0, 7] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3] {
                let got = run(&rel, minsup);
                let want = naive_iceberg_cube(&rel, &IcebergQuery::count_cube(4, minsup));
                assert_eq!(got, want, "seed {seed} minsup {minsup}");
            }
        }
    }

    #[test]
    fn plan_shares_sorts() {
        // With shared sorts, far fewer pipelines than cuboids.
        let cards = presets::baseline().cardinalities;
        let p = plan(9, &cards, 176_631);
        let pipelines = p.pipeline_count();
        assert!(pipelines < 511, "pipelines {pipelines}");
        // Lower bound: at least C(9, 4) = 126 pipelines are needed to
        // cover the widest lattice level (each pipeline crosses a level
        // at most once).
        assert!(pipelines >= 126, "pipelines {pipelines}");
    }

    #[test]
    fn plan_orders_are_consistent() {
        let p = plan(4, &[4, 3, 5, 2], 1000);
        let l = Lattice::new(4);
        for g in l.cuboids() {
            let order = p.order_of(g).expect("every cuboid planned");
            assert_eq!(order.len(), g.dim_count());
            let mut dims: Vec<usize> = order.to_vec();
            dims.sort_unstable();
            assert_eq!(dims, g.dims(), "order must permute the cuboid's dims");
        }
    }

    #[test]
    fn pipelined_members_are_prefixes_of_their_parents() {
        let p = plan(5, &[6, 5, 4, 3, 2], 5000);
        for (g, n) in &p.nodes {
            if n.pipelined {
                let parent = n.parent.expect("pipelined implies parent");
                let porder = p.order_of(parent).unwrap();
                let order = p.order_of(*g).unwrap();
                assert_eq!(&porder[..order.len()], order, "cuboid {g}");
            }
        }
    }

    #[test]
    fn plans_are_valid_for_many_shapes() {
        // Property-style sweep without proptest's RNG (plans are pure
        // functions of the shape): for a range of dimensionalities and
        // cardinality profiles, every plan must permute each cuboid's
        // dims, make every pipelined child a strict order-prefix of its
        // parent, and chain every cuboid up to a head.
        for d in 2..=7usize {
            for profile in 0..4u32 {
                let cards: Vec<u32> = (0..d)
                    .map(|i| 2 + ((i as u32 + 1) * (profile + 3)) % 97)
                    .collect();
                let p = plan(d, &cards, 10_000);
                let l = Lattice::new(d);
                for g in l.cuboids() {
                    let order = p.order_of(g).unwrap_or_else(|| panic!("{g} unplanned"));
                    let mut sorted: Vec<usize> = order.to_vec();
                    sorted.sort_unstable();
                    assert_eq!(sorted, g.dims(), "order must permute {g}");
                }
                for (g, n) in &p.nodes {
                    if n.pipelined {
                        let parent = n.parent.expect("pipelined implies parent");
                        let porder = p.order_of(parent).unwrap();
                        let order = p.order_of(*g).unwrap();
                        assert_eq!(&porder[..order.len()], order, "{g} under {parent}");
                    }
                }
                assert!(p.pipeline_count() <= l.cuboid_count());
            }
        }
    }

    #[test]
    fn sort_sharing_reduces_comparisons_vs_always_resorting() {
        let rel = presets::tiny(3).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(2));
        let mut sink = CellBuf::counting();
        pipesort(&rel, &q, &mut cluster.nodes[0], &mut sink);
        // Re-sorting at every cuboid would be >= one n log n per cuboid.
        let n = rel.len() as u64;
        let always = 15 * n * (n.ilog2() as u64);
        assert!(cluster.nodes[0].stats.cpu_ns < always * 8);
    }
}
