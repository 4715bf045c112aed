//! Algorithm POL — Parallel OnLine aggregation (Sections 5.3–5.4,
//! Figures 5.1–5.2).
//!
//! POL answers a *single* iceberg group-by over a raw dataset assumed too
//! large for any node's memory, giving an instant estimate that refines as
//! data streams in:
//!
//! * the raw data is range-partitioned across nodes **unsorted**; each
//!   node reads its local partition one buffer-sized block per step;
//! * the result skip list is *also* range-partitioned, with boundaries
//!   from an initial sample, so every node owns one sorted range of the
//!   answer;
//! * within a step, each node buckets its block into `n` chunks by those
//!   boundaries — the `n × n` task array of Table 5.1, where
//!   `task(Chunk_ji)` folds the chunk *located on* node `i` into node
//!   `j`'s partition. Node `j` serves its row in [`wrap_order`] (`j, j+1,
//!   …, n-1, 0, …`), spreading remote fetches so no node is swamped;
//! * a node that finishes early *steals* an untouched task whose chunk is
//!   local to it, builds a side skip list, and ships the list to the
//!   owner, who merges it — load balancing without extra raw-data
//!   movement;
//! * steps are separated by barriers; a periodic "timer" snapshot reports
//!   the cells qualifying under the support threshold scaled to the
//!   fraction of data seen so far — the progressive refinement of the
//!   online-aggregation framework.
//!
//! The sample, the split and the bucketing are [`ChunkPlan`]'s: the one
//! Chapter 5 schedule, which the progressive cube build folds too. This
//! module serves each step's chunks on the simulated cluster.

use crate::estimate::scaled_threshold;
use crate::progressive::{wrap_order, ChunkPlan, PlannedChunk};
use icecube_cluster::{ClusterConfig, EventKind, RunStats, SimCluster, TraceLog};
use icecube_core::agg::Aggregate;
use icecube_core::cell::Cell;
use icecube_core::error::AlgoError;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;
use icecube_skiplist::SkipList;
use std::collections::VecDeque;

/// The online iceberg query POL answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PolQuery {
    /// The GROUP BY dimensions (one group-by, not a cube).
    pub dims: CuboidMask,
    /// Minimum support of the final answer.
    pub minsup: u64,
    /// Tuples each node loads per step (the paper's experiments use 8000).
    pub buffer_tuples: usize,
    /// Sample size for the skip-list partition boundaries.
    pub sample_size: usize,
    /// Steps between progress snapshots (the paper uses a wall-clock
    /// timer; a step count is its deterministic analogue).
    pub snapshot_every: usize,
    /// Whether idle nodes steal local-input tasks from busy owners
    /// (Section 5.3.2's dynamic offloading). On by default; off for
    /// ablation.
    pub work_stealing: bool,
}

impl PolQuery {
    /// A query with the paper's defaults: 8000-tuple buffers, 1024-tuple
    /// boundary sample, snapshot every step.
    pub fn new(dims: CuboidMask, minsup: u64) -> Self {
        // check:allow(panic-in-lib): constructor contract — a zero
        // support threshold is a programming error, not runtime input.
        // check:allow(panic-path): same constructor contract.
        assert!(minsup > 0, "minimum support must be at least 1");
        // check:allow(panic-in-lib): same constructor contract as above.
        // check:allow(panic-path): same constructor contract.
        assert!(!dims.is_all(), "POL aggregates a non-empty group-by");
        PolQuery {
            dims,
            minsup,
            buffer_tuples: 8000,
            sample_size: 1024,
            snapshot_every: 1,
            work_stealing: true,
        }
    }
}

/// One progressive-refinement report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Snapshot {
    /// Step index (1-based) the snapshot was taken after.
    pub step: usize,
    /// Fraction of the raw data processed so far.
    pub fraction: f64,
    /// Cluster virtual time at the snapshot.
    pub time_ns: u64,
    /// Support threshold scaled to the processed fraction.
    pub estimated_threshold: u64,
    /// Cells currently meeting the estimated threshold.
    pub qualifying_cells: u64,
}

/// The result of a POL run.
#[derive(Debug, Clone)]
pub struct PolOutcome {
    /// The exact final answer, canonically sorted.
    pub cells: Vec<Cell>,
    /// Progressive snapshots, oldest first (always ends with a final one).
    pub snapshots: Vec<Snapshot>,
    /// Virtual-time statistics.
    pub stats: RunStats,
    /// Total skip-list nodes across partitions (the paper reports 924,585
    /// for its 12-dimension, 1M-tuple run).
    pub total_list_nodes: u64,
    /// Tasks executed by stealing rather than by their owner.
    pub stolen_tasks: u64,
    /// Per-node event trace, when the config enables tracing.
    pub trace: Option<TraceLog>,
}

/// Runs POL over a simulated cluster, consuming the [`ChunkPlan`] of
/// `query.dims`: each step's chunks are the blocks the nodes load, bucketed
/// by owner.
pub fn run_pol(
    rel: &Relation,
    query: &PolQuery,
    config: &ClusterConfig,
) -> Result<PolOutcome, AlgoError> {
    let n = config.nodes.len();
    let sample = query.sample_size.max(1);
    let plan = ChunkPlan::new(rel, query.dims, n, query.buffer_tuples, sample, config.seed)?;
    let arity = query.dims.dim_count();
    // A fetched row ships its projected key and its measure.
    let fetch_row_bytes = 4 * arity as u64 + 8;
    let mut cluster = SimCluster::new(config.clone());

    // The manager samples and fixes the skip-list partition boundaries.
    if let Some(manager) = cluster.nodes.first_mut() {
        manager.charge_scan(sample as u64);
    }
    cluster.barrier(); // boundaries broadcast

    let mut lists: Vec<SkipList<Aggregate>> = (0..n)
        .map(|j| SkipList::new(arity, config.seed ^ ((j as u64) << 40)))
        .collect();
    let mut snapshots = Vec::new();
    let mut stolen_tasks = 0u64;
    let mut processed = 0u64;
    let total = plan.rows_total();
    let mut step = 0usize;

    for block in plan.chunks().chunk_by(|a, b| a.step == b.step) {
        step += 1;
        // A (source, owner) pair the plan dropped is an empty chunk.
        let chunk = |s: usize, o: usize| block.iter().find(|c| (c.source, c.owner) == (s, o));
        // (a) Each node loads one block from its local partition — the
        // step's chunks it is the source of, none once the partition is
        // exhausted — and pays for bucketing it by boundary.
        for (i, node) in cluster.nodes.iter_mut().enumerate() {
            let rows: u64 = block
                .iter()
                .filter(|c| c.source == i)
                .map(|c| c.rows.len() as u64)
                .sum();
            processed += rows;
            node.read_bytes(rows * rel.row_bytes());
            node.charge_scan(rows);
            node.charge_moves(rows);
        }

        // (b) Schedule the n×n tasks: owners in wrap order, idlers steal.
        let mut pending: Vec<VecDeque<usize>> =
            (0..n).map(|j| wrap_order(j, n).collect()).collect();
        let mut active = vec![true; n];
        while let Some(node_id) = cluster
            .nodes
            .iter()
            .zip(&active)
            .filter(|&(_, &a)| a)
            .min_by_key(|(node, _)| (node.clock_ns(), node.id()))
            .map(|(node, _)| node.id())
        {
            if let Some(src) = pending.get_mut(node_id).and_then(VecDeque::pop_front) {
                // Own task: fetch the chunk if remote, fold it in.
                let (Some(c), Some(list)) = (chunk(src, node_id), lists.get_mut(node_id)) else {
                    continue;
                };
                if src != node_id {
                    fetch(
                        &mut cluster,
                        src,
                        node_id,
                        c.rows.len() as u64 * fetch_row_bytes,
                    );
                }
                fold_chunk(&mut cluster, node_id, c, query.dims, list);
            } else if let Some((owner, c)) = (0..n)
                .filter(|&j| {
                    query.work_stealing
                        && j != node_id
                        && pending.get(j).is_some_and(|q| q.contains(&node_id))
                })
                .find_map(|j| chunk(node_id, j).map(|c| (j, c)))
            {
                // Steal: this node's local chunk destined for a busy owner.
                if let Some(q) = pending.get_mut(owner) {
                    q.retain(|&s| s != node_id);
                }
                stolen_tasks += 1;
                // Build a side skip list locally. The seed mixes the
                // running steal counter so a node stealing twice in one
                // step builds two *independently* levelled lists — with
                // only (step, node_id) in the seed, both lists replayed
                // the identical level sequence and their comparison
                // charges were correlated.
                let side_seed =
                    config.seed ^ ((step as u64) << 16) ^ (node_id as u64) ^ (stolen_tasks << 40);
                let mut side: SkipList<Aggregate> = SkipList::new(arity, side_seed);
                fold_chunk(&mut cluster, node_id, c, query.dims, &mut side);
                // …ship it to the owner, who merges it into its partition.
                cluster.send(node_id, owner, side.memory_bytes());
                let (Some(list), Some(owner_node)) =
                    (lists.get_mut(owner), cluster.nodes.get_mut(owner))
                else {
                    continue;
                };
                for (key, agg) in side.iter() {
                    list.insert_or_update(key, || *agg, |a| a.merge(agg));
                }
                owner_node.charge_agg_updates(side.len() as u64);
                owner_node.charge_comparisons(list.take_comparisons());
            } else if let Some(a) = active.get_mut(node_id) {
                // Drop empty remaining tasks silently, then retire.
                *a = false;
            }
        }
        // (c) Synchronize: the block may be discarded only when everyone is
        // done with it.
        cluster.barrier();

        // (d) Timer-driven progress report.
        if step.is_multiple_of(query.snapshot_every.max(1)) {
            snapshots.push(snapshot(
                &mut cluster,
                &lists,
                query,
                step,
                processed,
                total,
            ));
        }
    }
    if snapshots.last().map(|s| s.step) != Some(step) {
        snapshots.push(snapshot(
            &mut cluster,
            &lists,
            query,
            step,
            processed,
            total,
        ));
    }

    // Final exact answer: each node writes its sorted range.
    let mut cells = Vec::new();
    let total_list_nodes = lists.iter().map(|l| l.len() as u64).sum();
    for (list, node) in lists.iter().zip(cluster.nodes.iter_mut()) {
        let mut qualifying = 0u64;
        for (key, agg) in list.iter() {
            if agg.meets(query.minsup) {
                cells.push(Cell {
                    cuboid: query.dims,
                    key: key.to_vec(),
                    agg: *agg,
                });
                qualifying += 1;
            }
        }
        if qualifying > 0 {
            node.write_cells(
                query.dims.bits() as u64,
                qualifying * Cell::disk_bytes(arity),
                qualifying,
            );
        }
    }
    let end = cluster.makespan_ns();
    for node in &mut cluster.nodes {
        node.wait_until(end);
    }
    icecube_core::cell::sort_cells(&mut cells);
    let trace = cluster.take_trace();
    Ok(PolOutcome {
        cells,
        snapshots,
        stats: cluster.run_stats(),
        total_list_nodes,
        stolen_tasks,
        trace,
    })
}

/// Requester-side chunk fetch: node `to` waits for the transfer; node
/// `from` serves it from memory (accounted as sent bytes, not clock time —
/// the paper's workers answer data requests asynchronously, Figure 5.2
/// line 26).
fn fetch(cluster: &mut SimCluster, from: usize, to: usize, bytes: u64) {
    let cost = cluster.config.net.transfer_ns(bytes);
    if let Some(sender) = cluster.nodes.get_mut(from) {
        sender.stats.bytes_sent += bytes;
        sender.stats.messages += 1;
        sender.trace_event(EventKind::MsgSend { to, bytes });
    }
    if let Some(receiver) = cluster.nodes.get_mut(to) {
        receiver.charge_net(cost);
        receiver.trace_event(EventKind::MsgRecv { from, bytes });
    }
}

/// Folds a chunk's keys, projected on `dims` in row order, into a skip
/// list, charging the insert comparisons.
fn fold_chunk(
    cluster: &mut SimCluster,
    node_id: usize,
    chunk: &PlannedChunk,
    dims: CuboidMask,
    list: &mut SkipList<Aggregate>,
) {
    let mut key = vec![0u32; dims.dim_count()];
    for (row, m) in chunk.rows.rows() {
        dims.project_row(row, &mut key);
        list.insert_or_update(&key, || Aggregate::of(m), |a| a.update(m));
    }
    if let Some(node) = cluster.nodes.get_mut(node_id) {
        node.charge_agg_updates(chunk.rows.len() as u64);
        node.charge_comparisons(list.take_comparisons());
    }
}

/// Collects a progress report: every worker scans its partition and sends
/// a summary to the manager (Figure 5.2 line 27).
fn snapshot(
    cluster: &mut SimCluster,
    lists: &[SkipList<Aggregate>],
    query: &PolQuery,
    step: usize,
    processed: u64,
    total: u64,
) -> Snapshot {
    let fraction = processed as f64 / total as f64;
    // Exact integer pro-rating (never the old f64 round), and the same
    // `meets` predicate the final answer uses — the estimator and the
    // exact answer cannot disagree on the qualifying rule.
    let estimated_threshold = scaled_threshold(query.minsup, processed, total);
    let mut qualifying = 0u64;
    for (list, node) in lists.iter().zip(cluster.nodes.iter_mut()) {
        qualifying += list
            .iter()
            .filter(|(_, agg)| agg.meets(estimated_threshold))
            .count() as u64;
        node.charge_scan(list.len() as u64);
        node.charge_rpc();
    }
    Snapshot {
        step,
        fraction,
        time_ns: cluster.makespan_ns(),
        estimated_threshold,
        qualifying_cells: qualifying,
    }
}

/// Convenience: the exact answer computed serially (for verification).
pub fn exact_answer(rel: &Relation, query: &PolQuery) -> Vec<Cell> {
    let mut out = Vec::new();
    icecube_core::naive::naive_cuboid(rel, query.dims, query.minsup, &mut out);
    icecube_core::cell::sort_cells(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use icecube_data::presets;

    fn q(dims: &[usize], minsup: u64, buffer: usize) -> PolQuery {
        PolQuery {
            buffer_tuples: buffer,
            ..PolQuery::new(CuboidMask::from_dims(dims), minsup)
        }
    }

    #[test]
    fn task_array_matches_table_5_1() {
        let order = |j| wrap_order(j, 4).collect::<Vec<_>>();
        assert_eq!(order(0), vec![0, 1, 2, 3]);
        assert_eq!(order(1), vec![1, 2, 3, 0]);
        assert_eq!(order(3), vec![3, 0, 1, 2]);
    }

    fn check(rel: &Relation, query: &PolQuery, nodes: usize) -> PolOutcome {
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let out = run_pol(rel, query, &cfg).unwrap();
        let want = exact_answer(rel, query);
        assert_eq!(out.cells, want, "POL answer mismatch (n={nodes})");
        out
    }

    #[test]
    fn final_answer_is_exact_across_configurations() {
        let rel = presets::tiny(21).generate().unwrap();
        for nodes in [1, 2, 4] {
            for minsup in [1, 2, 5] {
                check(&rel, &q(&[0, 2], minsup, 40), nodes);
            }
        }
        check(&rel, &q(&[1], 2, 7), 3);
        check(&rel, &q(&[0, 1, 2, 3], 2, 64), 4);
    }

    #[test]
    fn buffer_size_does_not_change_the_answer() {
        let rel = presets::tiny(22).generate().unwrap();
        let a = check(&rel, &q(&[0, 1], 2, 10), 3);
        let b = check(&rel, &q(&[0, 1], 2, 100), 3);
        assert_eq!(a.cells, b.cells);
        // Smaller buffers mean more steps, more barriers, more time.
        assert!(a.stats.makespan_ns() > b.stats.makespan_ns());
        assert!(
            a.stats.nodes()[0].barriers > b.stats.nodes()[0].barriers,
            "more steps → more barriers"
        );
    }

    #[test]
    fn snapshots_refine_toward_the_answer() {
        let rel = presets::tiny(23).generate().unwrap();
        let query = q(&[0, 1], 3, 25);
        let out = check(&rel, &query, 2);
        assert!(out.snapshots.len() > 2);
        let last = out.snapshots.last().unwrap();
        assert!((last.fraction - 1.0).abs() < 1e-9);
        assert_eq!(last.estimated_threshold, query.minsup);
        assert_eq!(last.qualifying_cells, out.cells.len() as u64);
        // Fractions increase monotonically; time advances.
        for w in out.snapshots.windows(2) {
            assert!(w[0].fraction < w[1].fraction + 1e-12);
            assert!(w[0].time_ns <= w[1].time_ns);
        }
    }

    #[test]
    fn total_list_nodes_counts_distinct_groups() {
        let rel = presets::tiny(24).generate().unwrap();
        let query = q(&[0, 1, 2, 3], 1, 50);
        let out = check(&rel, &query, 4);
        assert_eq!(out.total_list_nodes, out.cells.len() as u64);
    }

    #[test]
    fn remote_chunks_cost_network_time() {
        let rel = presets::tiny(25).generate().unwrap();
        let query = q(&[0, 1], 1, 50);
        let two = run_pol(&rel, &query, &ClusterConfig::fast_ethernet(2)).unwrap();
        let net: u64 = two.stats.nodes().iter().map(|s| s.net_ns).sum();
        assert!(net > 0, "multi-node POL must pay communication");
        // A single node owns every chunk: not one MsgSend chunk transfer
        // may appear in the trace, and no payload byte may hit the wire
        // (snapshot RPC round trips are control traffic, counted in
        // `messages` but carrying no chunk bytes).
        let cfg = ClusterConfig::fast_ethernet(1).with_trace();
        let one = run_pol(&rel, &query, &cfg).unwrap();
        let trace = one.trace.expect("tracing was enabled");
        assert_eq!(
            trace.count_total(|k| matches!(k, EventKind::MsgSend { .. })),
            0,
            "single node must ship no chunks"
        );
        for s in one.stats.nodes() {
            assert_eq!(s.bytes_sent, 0, "no payload bytes at n=1");
        }
        assert_eq!(one.cells, two.cells);
    }

    #[test]
    fn scaled_threshold_uses_exact_integer_ceiling() {
        // 8 identical-key rows, minsup 9, two rows per step on one node:
        // after step 1 the pro-rated threshold is ceil(9·2/8) = 3. The
        // old f64 path rounded 2.25 down to 2, which wrongly admitted
        // the count-2 group in the first snapshot.
        let schema = icecube_data::Schema::from_cardinalities(&[2, 2]).unwrap();
        let mut rel = Relation::new(schema);
        for t in 0..8 {
            rel.push_row(&[0, (t % 2) as u32], t as i64).unwrap();
        }
        let query = q(&[0], 9, 2);
        let out = run_pol(&rel, &query, &ClusterConfig::fast_ethernet(1)).unwrap();
        let first = &out.snapshots[0];
        assert_eq!(first.estimated_threshold, 3, "ceil(9*2/8), not round(2.25)");
        assert_eq!(
            first.qualifying_cells, 0,
            "a count-2 group must not qualify at pro-rated threshold 3"
        );
        let last = out.snapshots.last().unwrap();
        assert_eq!(last.estimated_threshold, query.minsup);
        assert!(out.cells.is_empty(), "minsup exceeds the relation size");
    }

    #[test]
    fn double_steal_in_one_step_stays_deterministic() {
        // Force one node to steal twice within a single step: node 0's
        // partition routes entirely to ranges owned by nodes 1 and 2
        // (which are busy with their own large local chunks), so idle
        // node 0 steals both of its local chunks. Each stolen task must
        // build its side list from an independent seed; the run is
        // pinned by exactness and charge determinism.
        // Sizing: a stolen side fold plus its ship costs one network
        // latency (~100µs on fast ethernet); the owners' local folds must
        // dwarf that, so each owner folds 12000 tuples (~300µs of CPU
        // charges) while node 0's stealable chunks are 2 and 11998 rows.
        const PART: usize = 12_000;
        let schema = icecube_data::Schema::from_cardinalities(&[4, 2]).unwrap();
        let mut rel = Relation::new(schema);
        for t in 0..3 * PART {
            let key = if t < 2 {
                1 // node 0: 2 rows for range 1…
            } else if t < PART {
                3 // …and the rest for range 2
            } else if t < 2 * PART {
                1 // node 1: all local to its range
            } else {
                3 // node 2: all local to its range
            };
            rel.push_row(&[key, 0], (t * 7 % 13) as i64).unwrap();
        }
        let query = PolQuery {
            sample_size: rel.len(), // full sample: splits are exact
            ..q(&[0], 2, PART)
        };
        let cfg = ClusterConfig::fast_ethernet(3);
        let out = run_pol(&rel, &query, &cfg).unwrap();
        assert_eq!(out.cells, exact_answer(&rel, &query));
        assert_eq!(
            out.stolen_tasks, 2,
            "node 0 must steal both of its local chunks in the one step"
        );
        let again = run_pol(&rel, &query, &cfg).unwrap();
        assert_eq!(out.cells, again.cells);
        assert_eq!(out.snapshots, again.snapshots);
        assert_eq!(
            out.stats.nodes(),
            again.stats.nodes(),
            "double-steal charges must be deterministic"
        );
    }

    #[test]
    fn myrinet_beats_ethernet_on_the_same_nodes() {
        // The Figure 5.3 cluster comparison in miniature.
        let rel = presets::tiny(26).generate().unwrap();
        let query = q(&[0, 1, 2], 2, 20);
        let eth = run_pol(&rel, &query, &ClusterConfig::slow_ethernet(4)).unwrap();
        let myr = run_pol(&rel, &query, &ClusterConfig::slow_myrinet(4)).unwrap();
        assert_eq!(eth.cells, myr.cells);
        assert!(myr.stats.makespan_ns() < eth.stats.makespan_ns());
    }

    #[test]
    fn rejects_bad_queries() {
        let rel = presets::tiny(27).generate().unwrap();
        let bad = q(&[0, 9], 1, 10);
        assert!(matches!(
            run_pol(&rel, &bad, &ClusterConfig::fast_ethernet(2)),
            Err(AlgoError::DimensionMismatch { .. })
        ));
        let empty = Relation::new(icecube_data::Schema::from_cardinalities(&[2]).unwrap());
        assert!(matches!(
            run_pol(&empty, &q(&[0], 1, 10), &ClusterConfig::fast_ethernet(2)),
            Err(AlgoError::EmptyInput)
        ));
    }

    #[test]
    fn rejects_an_empty_group_by() {
        // The fields are public, so the constructor's assert is not the
        // only way in: the run must refuse before building a skip list.
        let rel = presets::tiny(27).generate().unwrap();
        let query = PolQuery {
            dims: CuboidMask::ALL,
            ..q(&[0], 1, 10)
        };
        assert!(matches!(
            run_pol(&rel, &query, &ClusterConfig::fast_ethernet(2)),
            Err(AlgoError::NoDimensions)
        ));
    }

    #[test]
    #[should_panic(expected = "non-empty group-by")]
    fn pol_query_rejects_all() {
        let _ = PolQuery::new(CuboidMask::ALL, 1);
    }

    #[test]
    #[should_panic(expected = "minimum support must be at least 1")]
    fn pol_query_rejects_zero_minsup() {
        let _ = PolQuery::new(CuboidMask::from_dims(&[0]), 0);
    }

    #[test]
    fn minsup_one_keeps_every_group() {
        // The loosest legal threshold: every distinct key of the group-by
        // must appear, matching the serial reference exactly.
        let rel = presets::tiny(28).generate().unwrap();
        let query = q(&[0, 3], 1, 30);
        let out = check(&rel, &query, 3);
        let distinct: std::collections::BTreeSet<Vec<u32>> = {
            let mut key = vec![0u32; 2];
            (0..rel.len())
                .map(|t| {
                    query.dims.project_row(rel.row(t), &mut key);
                    key.clone()
                })
                .collect()
        };
        assert_eq!(out.cells.len(), distinct.len());
    }

    #[test]
    fn minsup_above_relation_size_yields_empty_answer() {
        // No group can gather more support than there are tuples.
        let rel = presets::tiny(29).generate().unwrap();
        let query = q(&[0, 1], rel.len() as u64 + 1, 40);
        let out = check(&rel, &query, 2);
        assert!(out.cells.is_empty());
        assert!(exact_answer(&rel, &query).is_empty());
        // The run still terminates with a final full-fraction snapshot.
        let last = out.snapshots.last().unwrap();
        assert!((last.fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn minsup_exactly_relation_size_keeps_only_universal_groups() {
        // Boundary just inside the data: a group qualifies iff every tuple
        // falls into it, i.e. the dimension is constant over the relation.
        let rel = presets::tiny(30).generate().unwrap();
        let query = q(&[2], rel.len() as u64, 25);
        let out = check(&rel, &query, 2);
        for cell in &out.cells {
            assert_eq!(cell.agg.count, rel.len() as u64);
        }
    }

    #[test]
    fn work_stealing_off_still_matches_exact() {
        let rel = presets::tiny(31).generate().unwrap();
        let query = PolQuery {
            work_stealing: false,
            ..q(&[0, 1], 2, 20)
        };
        let out = check(&rel, &query, 4);
        assert_eq!(out.stolen_tasks, 0);
    }
}
