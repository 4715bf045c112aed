//! The hash-tree (Apriori-style) cube algorithm (Section 3.5.1) — including
//! its failure mode.
//!
//! The paper noticed that finding frequent itemsets and computing an
//! iceberg cube are the same problem "if we imagine items are attributes
//! with only one value", and ported Apriori: treat every (dimension,
//! value) pair as an item, enumerate candidate itemsets level-wise
//! (breadth-first, bottom-up), store candidates in a hash tree for fast
//! per-tuple subset counting, and prune candidates with an infrequent
//! subset.
//!
//! The paper's verdict: "Breadth-first searching creates too many
//! candidates … the global index table contains too many items, exactly
//! the sum of the cardinalities of all CUBE attributes … the hash tree is
//! still a huge burden before pruning, and quickly consumes all available
//! memory. Unfortunately, we had to admit this attempt failed." This
//! implementation is faithful to that: it is correct on small inputs and
//! returns [`AlgoError::MemoryExhausted`] when the candidate set would
//! exceed the node's physical memory — which it does on the paper-sized
//! datasets.
//!
//! The whole attempt is one fallible task, so its `plan` is one static
//! task on node 0 whose output is the cells or that failure. Like every
//! other plan it runs on either executor, recovers from a crash of node 0
//! on a survivor, and is traced as a task span.

// check:allow-file(unordered-collections): hash tables here are
// build-side internals; every cell set is canonically sorted before
// it leaves this module, so iteration order cannot reach results
// (the cross-algorithm equivalence tests pin this).

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::agg::Aggregate;
use crate::algorithms::RunOptions;
use crate::backend::task_sink;
use crate::cell::{Cell, CellBuf, CellSink};
use crate::error::AlgoError;
use crate::query::IcebergQuery;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_exec::{TaskSpec, Workload};
use icecube_lattice::CuboidMask;
use std::collections::HashMap;

/// Max candidates per hash-tree leaf before it splits.
const LEAF_CAP: usize = 8;

/// Accounting estimate of one candidate's in-memory size at level `k`.
fn candidate_bytes(k: usize) -> u64 {
    (k * 4 + 40) as u64
}

/// One Apriori level's candidate itemsets, `k` items each, stored flat
/// (candidate `i` is `items[i * k..][..k]`): no allocation per candidate,
/// so the host holds a level the simulated node runs out of memory on in
/// a fraction of what the node is charged for it.
struct Candidates {
    k: usize,
    items: Vec<u32>,
}

impl Candidates {
    fn len(&self) -> usize {
        self.items.len() / self.k
    }

    fn get(&self, i: usize) -> &[u32] {
        &self.items[i * self.k..(i + 1) * self.k]
    }
}

/// A node of the candidate hash tree (Figure 3.12): internal nodes hash on
/// the item at the node's depth; leaves hold candidate indices.
enum HNode {
    Internal(HashMap<u32, HNode>),
    Leaf(Vec<usize>),
}

/// The candidate hash tree for one Apriori level.
struct HashTree {
    root: HNode,
    /// Structure-walk operations, for CPU charging.
    visits: u64,
}

impl HashTree {
    fn build(candidates: &Candidates) -> Self {
        let mut tree = HashTree {
            root: HNode::Leaf(Vec::new()),
            visits: 0,
        };
        for ci in 0..candidates.len() {
            Self::insert(&mut tree.root, candidates, ci, 0);
        }
        tree
    }

    fn insert(node: &mut HNode, candidates: &Candidates, ci: usize, depth: usize) {
        match node {
            HNode::Internal(children) => {
                let item = candidates.get(ci)[depth];
                let child = children
                    .entry(item)
                    .or_insert_with(|| HNode::Leaf(Vec::new()));
                Self::insert(child, candidates, ci, depth + 1);
            }
            HNode::Leaf(list) => {
                list.push(ci);
                if list.len() > LEAF_CAP && depth < candidates.k {
                    // Split: redistribute by the item at this depth.
                    let moved = std::mem::take(list);
                    *node = HNode::Internal(HashMap::new());
                    if let HNode::Internal(ch) = node {
                        for mi in moved {
                            let item = candidates.get(mi)[depth];
                            let child = ch.entry(item).or_insert_with(|| HNode::Leaf(Vec::new()));
                            Self::insert(child, candidates, mi, depth + 1);
                        }
                    }
                }
            }
        }
    }

    /// The subset operation (Figure 3.12): count every candidate that is a
    /// subset of the tuple's item list.
    fn count_subsets(&mut self, items: &[u32], candidates: &Candidates, counts: &mut [u64]) {
        Self::walk(&self.root, items, 0, candidates, counts, &mut self.visits);
    }

    fn walk(
        node: &HNode,
        items: &[u32],
        start: usize,
        candidates: &Candidates,
        counts: &mut [u64],
        visits: &mut u64,
    ) {
        *visits += 1;
        match node {
            HNode::Internal(children) => {
                for (i, &item) in items.iter().enumerate().skip(start) {
                    if let Some(child) = children.get(&item) {
                        Self::walk(child, items, i + 1, candidates, counts, visits);
                    }
                }
            }
            HNode::Leaf(list) => {
                for &ci in list {
                    *visits += 1;
                    if is_subset(candidates.get(ci), items) {
                        counts[ci] += 1;
                    }
                }
            }
        }
    }
}

/// True when the sorted `needle` is a subsequence of the sorted `hay`.
fn is_subset(needle: &[u32], hay: &[u32]) -> bool {
    let mut h = 0usize;
    'outer: for &n in needle {
        while h < hay.len() {
            match hay[h].cmp(&n) {
                std::cmp::Ordering::Less => h += 1,
                std::cmp::Ordering::Equal => {
                    h += 1;
                    continue 'outer;
                }
                std::cmp::Ordering::Greater => return false,
            }
        }
        return false;
    }
    true
}

/// The hash-tree attempt as a plan: one task, pinned to node 0. The paper
/// never obtained a viable parallel version, and excludes it from the
/// Chapter 4 evaluation because "its performance lags far behind".
pub(crate) fn plan<'a>(
    rel: &'a Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
) -> (Vec<TaskSpec>, HashTreeWorkload<'a>) {
    let spec = TaskSpec {
        id: 0,
        affinity: CuboidMask::ALL.bits() as u64,
        weight: rel.len() as u64,
    };
    let workload = HashTreeWorkload {
        rel,
        minsup: query.minsup,
        collect: opts.collect_cells,
    };
    (vec![spec], workload)
}

/// The one hash-tree task: load the relation, then run Apriori over the
/// whole lattice. Its output is the cells, or the out-of-memory failure
/// the paper reports.
pub(crate) struct HashTreeWorkload<'a> {
    rel: &'a Relation,
    minsup: u64,
    collect: bool,
}

impl Workload for HashTreeWorkload<'_> {
    type Scratch = ();
    type Out = Result<CellBuf, AlgoError>;

    fn scratch(&self, _worker: usize) {}

    fn owner(&self, _spec: &TaskSpec, _workers: usize) -> Option<usize> {
        Some(0)
    }

    fn run(
        &self,
        _spec: &TaskSpec,
        _scratch: &mut (),
        node: &mut SimNode,
        _: bool,
    ) -> Result<CellBuf, AlgoError> {
        let mut sink = task_sink(self.collect);
        node.read_bytes(self.rel.byte_size());
        node.charge_scan(self.rel.len() as u64);
        node.alloc(self.rel.byte_size());
        apriori(self.rel, self.minsup, node, &mut sink)?;
        Ok(sink)
    }
}

fn apriori<S: CellSink>(
    rel: &Relation,
    minsup: u64,
    node: &mut SimNode,
    sink: &mut S,
) -> Result<(), AlgoError> {
    let d = rel.arity();
    // The global index table: item id = dim offset + value.
    let offsets: Vec<u32> = {
        let mut acc = 0u32;
        let mut v = Vec::with_capacity(d);
        for dim in 0..d {
            v.push(acc);
            acc += rel.schema().cardinality(dim);
        }
        v
    };
    let total_items = offsets[d - 1] + rel.schema().cardinality(d - 1);
    let dim_of = |item: u32| -> usize { offsets.partition_point(|&o| o <= item) - 1 };

    // Level 1: count every item in one scan.
    let mut item_aggs: Vec<Aggregate> = vec![Aggregate::empty(); total_items as usize];
    let mut tuple_items: Vec<Vec<u32>> = Vec::with_capacity(rel.len());
    for (row, m) in rel.rows() {
        let items: Vec<u32> = row
            .iter()
            .enumerate()
            .map(|(dim, &v)| offsets[dim] + v)
            .collect();
        for &it in &items {
            item_aggs[it as usize].update(m);
        }
        tuple_items.push(items);
    }
    node.charge_scan(rel.len() as u64 * d as u64);
    node.alloc(total_items as u64 * 32 + rel.byte_size());

    let mut frequent: Vec<Vec<u32>> = Vec::new();
    for (item, agg) in item_aggs.iter().enumerate() {
        if agg.meets(minsup) {
            let itemset = vec![item as u32];
            emit_itemset(&itemset, agg, &offsets, dim_of(item as u32), node, sink);
            frequent.push(itemset);
        }
    }
    let mut frequent_set: std::collections::HashSet<Vec<u32>> = frequent.iter().cloned().collect();

    // Levels 2..=d: candidate generation, hash-tree counting, pruning.
    for k in 2..=d {
        let mut candidates = Candidates {
            k,
            items: Vec::new(),
        };
        let mut cand: Vec<u32> = Vec::with_capacity(k);
        let mut sub: Vec<u32> = Vec::with_capacity(k);
        let mut mem_estimate = 0u64;
        for i in 0..frequent.len() {
            for j in i + 1..frequent.len() {
                let (a, b) = (&frequent[i], &frequent[j]);
                if a[..k - 2] != b[..k - 2] {
                    continue;
                }
                let (la, lb) = (a[k - 2], b[k - 2]);
                if la >= lb || dim_of(la) == dim_of(lb) {
                    continue;
                }
                cand.clear();
                cand.extend_from_slice(a);
                cand.push(lb);
                // Apriori pruning: every (k-1)-subset must be frequent.
                let prunable = (0..k).any(|drop| {
                    sub.clear();
                    sub.extend_from_slice(&cand[..drop]);
                    sub.extend_from_slice(&cand[drop + 1..]);
                    !frequent_set.contains(&sub)
                });
                if prunable {
                    continue;
                }
                mem_estimate += candidate_bytes(k);
                if node.would_exceed_memory(mem_estimate) {
                    // The paper's observed failure: the candidate set (and
                    // with it the hash tree) no longer fits in memory.
                    return Err(AlgoError::MemoryExhausted {
                        node: node.id(),
                        required_bytes: node.mem_used() + mem_estimate,
                        available_bytes: node.spec().mem_bytes(),
                    });
                }
                candidates.items.extend_from_slice(&cand);
            }
        }
        if candidates.items.is_empty() {
            break;
        }
        node.alloc(mem_estimate);
        node.charge_hash_probes(candidates.len() as u64);

        let mut tree = HashTree::build(&candidates);
        let mut counts = vec![0u64; candidates.len()];
        for items in &tuple_items {
            tree.count_subsets(items, &candidates, &mut counts);
        }
        node.charge_hash_probes(tree.visits);

        // Second pass for the measure aggregates of the frequent ones.
        let survivors: Vec<usize> = (0..candidates.len())
            .filter(|&i| counts[i] >= minsup)
            .collect();
        let mut aggs: HashMap<&[u32], Aggregate> = survivors
            .iter()
            .map(|&i| (candidates.get(i), Aggregate::empty()))
            .collect();
        if !survivors.is_empty() {
            for (items, (_, m)) in tuple_items.iter().zip(rel.rows()) {
                for (key, agg) in aggs.iter_mut() {
                    if is_subset(key, items) {
                        agg.update(m);
                    }
                }
            }
            node.charge_agg_updates(rel.len() as u64 * survivors.len() as u64);
        }

        let mut next: Vec<Vec<u32>> = Vec::with_capacity(survivors.len());
        for &i in &survivors {
            let itemset = candidates.get(i);
            let agg = aggs[itemset];
            emit_itemset(itemset, &agg, &offsets, usize::MAX, node, sink);
            next.push(itemset.to_vec());
        }
        node.free(mem_estimate);
        frequent = next;
        frequent_set = frequent.iter().cloned().collect();
        if frequent.is_empty() {
            break;
        }
    }
    Ok(())
}

/// Decodes an itemset back into a cube cell and writes it.
fn emit_itemset<S: CellSink>(
    itemset: &[u32],
    agg: &Aggregate,
    offsets: &[u32],
    hint_dim: usize,
    node: &mut SimNode,
    sink: &mut S,
) {
    let mut mask = CuboidMask::ALL;
    let mut key = Vec::with_capacity(itemset.len());
    for &item in itemset {
        let dim = if itemset.len() == 1 && hint_dim != usize::MAX {
            hint_dim
        } else {
            offsets.partition_point(|&o| o <= item) - 1
        };
        mask = mask.with_dim(dim);
        key.push(item - offsets[dim]);
    }
    sink.emit(mask, &key, agg);
    node.write_cells(mask.bits() as u64, Cell::disk_bytes(key.len()), 1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_with, Algorithm};
    use crate::backend::run_parallel_exec;
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::verify::assert_same_cells;
    use icecube_cluster::{ClusterConfig, NodeSpec};
    use icecube_data::presets;
    use icecube_exec::{NativeExecutor, SimExecutor};

    #[test]
    fn is_subset_handles_edges() {
        assert!(is_subset(&[], &[1, 2]));
        assert!(is_subset(&[2], &[1, 2, 3]));
        assert!(is_subset(&[1, 3], &[1, 2, 3]));
        assert!(!is_subset(&[4], &[1, 2, 3]));
        assert!(!is_subset(&[1, 2], &[2, 3]));
        assert!(!is_subset(&[1], &[]));
    }

    fn check(rel: &Relation, minsup: u64) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(2);
        let out =
            run_parallel_with(Algorithm::HashTree, rel, &q, &cfg, &RunOptions::default()).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(want, out.cells, &format!("HashTree minsup={minsup}"));
    }

    #[test]
    fn matches_naive_on_small_inputs() {
        let rel = sales();
        for minsup in [1, 2, 3, 6] {
            check(&rel, minsup);
        }
        let rel = presets::tiny(3).generate().unwrap();
        for minsup in [2, 4] {
            check(&rel, minsup);
        }
    }

    #[test]
    fn runs_out_of_memory_on_large_sparse_inputs() {
        // The paper's finding, reproduced: give the node a realistically
        // small memory and a high-cardinality dataset; candidate
        // generation at level 2 must abort.
        let spec = icecube_data::SyntheticSpec::uniform(20_000, vec![4000, 4000, 4000, 4000], 5);
        let rel = spec.generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let mut cfg = ClusterConfig::fast_ethernet(1);
        cfg.nodes[0] = NodeSpec {
            mhz: 500,
            mem_mb: 8,
        };
        let err = run_parallel_with(Algorithm::HashTree, &rel, &q, &cfg, &RunOptions::default())
            .unwrap_err();
        assert!(
            matches!(err, AlgoError::MemoryExhausted { .. }),
            "expected OOM, got {err}"
        );
    }

    #[test]
    fn matches_naive_across_seeds_and_supports() {
        // Wider sweep than the smoke test above: several synthetic
        // datasets, supports from "keep everything" up past the point
        // where whole levels die out.
        for seed in [1, 5, 9] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3, 8] {
                check(&rel, minsup);
            }
        }
    }

    #[test]
    fn minsup_above_relation_size_yields_empty_cube() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, rel.len() as u64 + 1);
        let out = run_parallel_with(
            Algorithm::HashTree,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(1),
            &RunOptions::default(),
        )
        .unwrap();
        assert!(out.cells.is_empty());
        assert_eq!(out.total_cells, 0);
    }

    #[test]
    fn memory_exhaustion_is_a_documented_error_not_a_panic() {
        // The failure carries enough to diagnose it: which node, how much
        // it needed, and how much it had — and needing more than it had.
        let spec = icecube_data::SyntheticSpec::uniform(20_000, vec![4000, 4000, 4000, 4000], 5);
        let rel = spec.generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let mut cfg = ClusterConfig::fast_ethernet(2);
        cfg.nodes[0] = NodeSpec {
            mhz: 500,
            mem_mb: 8,
        };
        match run_parallel_with(Algorithm::HashTree, &rel, &q, &cfg, &RunOptions::default()) {
            Err(AlgoError::MemoryExhausted {
                node,
                required_bytes,
                available_bytes,
            }) => {
                assert_eq!(node, 0, "only node 0 computes");
                assert!(
                    required_bytes > available_bytes,
                    "required {required_bytes} must exceed available {available_bytes}"
                );
                assert_eq!(available_bytes, 8 * 1024 * 1024);
            }
            other => panic!("expected MemoryExhausted, got {other:?}"),
        }

        // Both backends hand the failure back from the task, through the
        // same plan. The native pool charges a stock 256 MB accounting
        // node, so this cube needs more: two dimensions of ~2 500 values
        // each make ≈ 6 M level-2 candidates, ≈ 290 MB at the per-candidate
        // estimate (≈ 50 MB held on the host, stored flat).
        let spec = icecube_data::SyntheticSpec::uniform(20_000, vec![2500, 2500], 5);
        let rel = spec.generate().unwrap();
        let q = IcebergQuery::count_cube(2, 1);
        let opts = RunOptions::counting();
        let mut sim = SimExecutor::fast_ethernet(2);
        let mut native = NativeExecutor::new(2);
        let failures = [
            run_parallel_exec(&mut sim, Algorithm::HashTree, &rel, &q, &opts),
            run_parallel_exec(&mut native, Algorithm::HashTree, &rel, &q, &opts),
        ]
        .map(|run| match run {
            Err(AlgoError::MemoryExhausted {
                required_bytes,
                available_bytes,
                ..
            }) => (required_bytes, available_bytes),
            other => panic!("expected MemoryExhausted, got {other:?}"),
        });
        assert_eq!(failures[0], failures[1], "same failure on both backends");
        let (required, available) = failures[0];
        assert_eq!(available, NodeSpec::FAST.mem_bytes());
        assert!(required > available);
    }

    #[test]
    fn counting_mode_matches_collecting_totals() {
        let rel = presets::tiny(4).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(2);
        let collected =
            run_parallel_with(Algorithm::HashTree, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let counted =
            run_parallel_with(Algorithm::HashTree, &rel, &q, &cfg, &RunOptions::counting())
                .unwrap();
        assert!(counted.cells.is_empty());
        assert_eq!(counted.total_cells, collected.cells.len() as u64);
        assert_eq!(counted.report.wall_ns, collected.report.wall_ns);
    }

    #[test]
    fn only_node_zero_works() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 2);
        let out = run_parallel_with(
            Algorithm::HashTree,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        let stats = out.report.stats.nodes();
        assert!(stats[0].cpu_ns > 0);
        assert_eq!(stats[1].cells_written, 0);
        assert!(out.report.stats.imbalance() > 3.0, "no parallelism at all");
    }
}
