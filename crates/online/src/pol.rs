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
//!   boundaries, defining the `n × n` task array of Table 5.1:
//!   `task(Chunk_ji)` folds the chunk *located on* node `i` into node
//!   `j`'s skip-list partition. Node `j` processes its row starting with
//!   the local chunk and wrapping (`j, j+1, …, n-1, 0, …`), which spreads
//!   remote fetches so no single node is swamped with requests;
//! * a node that finishes early *steals* an untouched task whose chunk is
//!   local to it, builds a side skip list, and ships the list to the
//!   owner, who merges it — load balancing without extra raw-data
//!   movement;
//! * steps are separated by barriers; a periodic "timer" snapshot reports
//!   the cells qualifying under the support threshold scaled to the
//!   fraction of data seen so far — the progressive refinement of the
//!   online-aggregation framework.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::boundaries::Boundaries;
use crate::estimate::scaled_threshold;
use icecube_cluster::{ClusterConfig, EventKind, RunStats, SimCluster, TraceLog};
use icecube_core::agg::Aggregate;
use icecube_core::cell::Cell;
use icecube_core::error::AlgoError;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;
use icecube_skiplist::SkipList;
use rand::rngs::SmallRng;
use rand::SeedableRng;
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
        assert!(minsup > 0, "minimum support must be at least 1");
        // check:allow(panic-in-lib): same constructor contract as above.
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

/// The `n × n` per-step task array of Table 5.1.
///
/// `task(j, i)` processes the chunk located on node `i` destined for node
/// `j`'s skip-list partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskArray {
    n: usize,
}

impl TaskArray {
    /// Builds the array for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        // check:allow(panic-in-lib): constructor contract — a zero-node
        // cluster is a configuration bug, not runtime input.
        assert!(n > 0, "need at least one node");
        TaskArray { n }
    }

    /// Node `j`'s processing order over source nodes: local first, then
    /// wrapping — "this sequence maximizes the possibility of each
    /// processor working on data located on different processors at one
    /// time, thus reducing the possibility of a burst of data requests".
    pub fn order_for(&self, j: usize) -> Vec<usize> {
        (0..self.n).map(|k| (j + k) % self.n).collect()
    }

    /// Total tasks per step.
    pub fn len(&self) -> usize {
        self.n * self.n
    }

    /// True for the degenerate single-node array.
    pub fn is_empty(&self) -> bool {
        false
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

/// One bucketed chunk: projected keys and measures, ready to fold.
struct Chunk {
    keys: Vec<u32>,
    measures: Vec<i64>,
    arity: usize,
}

impl Chunk {
    fn new(arity: usize) -> Self {
        Chunk {
            keys: Vec::new(),
            measures: Vec::new(),
            arity,
        }
    }

    fn len(&self) -> usize {
        self.measures.len()
    }

    fn key(&self, t: usize) -> &[u32] {
        &self.keys[t * self.arity..(t + 1) * self.arity]
    }

    /// Transfer size: 4 bytes per key element plus the measure.
    fn byte_size(&self) -> u64 {
        (self.keys.len() * 4 + self.measures.len() * 8) as u64
    }
}

/// Runs POL over a simulated cluster.
pub fn run_pol(
    rel: &Relation,
    query: &PolQuery,
    config: &ClusterConfig,
) -> Result<PolOutcome, AlgoError> {
    if rel.is_empty() {
        return Err(AlgoError::EmptyInput);
    }
    if query.dims.max_dim().is_some_and(|m| m >= rel.arity()) {
        return Err(AlgoError::DimensionMismatch {
            query_dims: query.dims.max_dim().unwrap_or(0) + 1,
            relation_dims: rel.arity(),
        });
    }
    let buffer = query.buffer_tuples.max(1);
    let arity = query.dims.dim_count();
    let mut cluster = SimCluster::new(config.clone());
    let n = cluster.len();

    // The manager samples and fixes the skip-list partition boundaries.
    let mut rng = SmallRng::seed_from_u64(config.seed ^ 0x90);
    let boundaries =
        Boundaries::sample_relation(rel, query.dims, n, query.sample_size.max(1), &mut rng);
    cluster.nodes[0].charge_scan(query.sample_size.max(1) as u64);
    cluster.barrier(); // boundaries broadcast

    // Horizontal data distribution: node i's local partition, unsorted.
    let partitions = rel.split_even(n);
    let mut cursors = vec![0usize; n];
    let mut lists: Vec<SkipList<Aggregate>> = (0..n)
        .map(|j| SkipList::new(arity, config.seed ^ ((j as u64) << 40)))
        .collect();
    let tasks = TaskArray::new(n);
    let mut snapshots = Vec::new();
    let mut stolen_tasks = 0u64;
    let mut processed = 0usize;
    let mut step = 0usize;

    while (0..n).any(|i| cursors[i] < partitions[i].len()) {
        step += 1;
        // (a) Each node loads one block and buckets it by boundary.
        let mut chunks: Vec<Vec<Chunk>> = Vec::with_capacity(n);
        for i in 0..n {
            let part = &partitions[i];
            let start = cursors[i];
            let end = (start + buffer).min(part.len());
            cursors[i] = end;
            processed += end - start;
            let node = &mut cluster.nodes[i];
            node.read_bytes((end - start) as u64 * part.row_bytes());
            node.charge_scan((end - start) as u64);
            let mut bucketed: Vec<Chunk> = (0..n).map(|_| Chunk::new(arity)).collect();
            let mut key = vec![0u32; arity];
            for t in start..end {
                query.dims.project_row(part.row(t), &mut key);
                let owner = boundaries.owner(&key);
                bucketed[owner].keys.extend_from_slice(&key);
                bucketed[owner].measures.push(part.measure(t));
            }
            node.charge_moves((end - start) as u64);
            chunks.push(bucketed);
        }

        // (b) Schedule the n×n tasks: owners in wrap order, idlers steal.
        let mut pending: Vec<VecDeque<usize>> = (0..n)
            .map(|j| tasks.order_for(j).into_iter().collect())
            .collect();
        let mut active = vec![true; n];
        while active.iter().any(|&a| a) {
            let Some(node_id) = (0..n)
                .filter(|&i| active[i])
                .min_by_key(|&i| (cluster.nodes[i].clock_ns(), i))
            else {
                break; // unreachable: the loop condition saw an active node
            };
            if let Some(src) = pending[node_id].pop_front() {
                // Own task: fetch the chunk if remote, fold it in.
                let chunk = &chunks[src][node_id];
                if src != node_id && chunk.len() > 0 {
                    fetch(&mut cluster, src, node_id, chunk.byte_size());
                }
                fold_chunk(&mut cluster, node_id, chunk, &mut lists[node_id]);
            } else if let Some(owner) = (0..n).filter(|_| query.work_stealing).find(|&j| {
                j != node_id && pending[j].contains(&node_id) && chunks[node_id][j].len() > 0
            }) {
                // Steal: this node's local chunk destined for a busy owner.
                pending[owner].retain(|&s| s != node_id);
                stolen_tasks += 1;
                let chunk = &chunks[node_id][owner];
                // Build a side skip list locally. The seed mixes the
                // running steal counter so a node stealing twice in one
                // step builds two *independently* levelled lists — with
                // only (step, node_id) in the seed, both lists replayed
                // the identical level sequence and their comparison
                // charges were correlated.
                let side_seed =
                    config.seed ^ ((step as u64) << 16) ^ (node_id as u64) ^ (stolen_tasks << 40);
                let mut side: SkipList<Aggregate> = SkipList::new(arity, side_seed);
                fold_chunk(&mut cluster, node_id, chunk, &mut side);
                // …ship it to the owner, who merges it into its partition.
                let side_bytes = side.memory_bytes();
                cluster.send(node_id, owner, side_bytes);
                let owner_node = &mut cluster.nodes[owner];
                let mut merged = 0u64;
                for (key, agg) in side.iter() {
                    lists[owner].insert_or_update(key, || *agg, |a| a.merge(agg));
                    merged += 1;
                }
                owner_node.charge_agg_updates(merged);
                let cmp = lists[owner].take_comparisons();
                cluster.nodes[owner].charge_comparisons(cmp);
            } else {
                // Drop empty remaining tasks silently, then retire.
                active[node_id] = false;
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
                rel.len(),
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
            rel.len(),
        ));
    }

    // Final exact answer: each node writes its sorted range.
    let mut cells = Vec::new();
    let total_list_nodes = lists.iter().map(|l| l.len() as u64).sum();
    for (j, list) in lists.iter().enumerate() {
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
            cluster.nodes[j].write_cells(
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
    cluster.nodes[to].charge_net(cost);
    let sender = &mut cluster.nodes[from];
    sender.stats.bytes_sent += bytes;
    sender.stats.messages += 1;
    sender.trace_event(EventKind::MsgSend { to, bytes });
    cluster.nodes[to].trace_event(EventKind::MsgRecv { from, bytes });
}

/// Folds a chunk into a skip list, charging the insert comparisons.
fn fold_chunk(
    cluster: &mut SimCluster,
    node_id: usize,
    chunk: &Chunk,
    list: &mut SkipList<Aggregate>,
) {
    if chunk.len() == 0 {
        return;
    }
    for t in 0..chunk.len() {
        let m = chunk.measures[t];
        list.insert_or_update(chunk.key(t), || Aggregate::of(m), |a| a.update(m));
    }
    let node = &mut cluster.nodes[node_id];
    node.charge_agg_updates(chunk.len() as u64);
    node.charge_comparisons(list.take_comparisons());
}

/// Collects a progress report: every worker scans its partition and sends
/// a summary to the manager (Figure 5.2 line 27).
fn snapshot(
    cluster: &mut SimCluster,
    lists: &[SkipList<Aggregate>],
    query: &PolQuery,
    step: usize,
    processed: usize,
    total: usize,
) -> Snapshot {
    let fraction = processed as f64 / total as f64;
    // Exact integer pro-rating (never the old f64 round), and the same
    // `meets` predicate the final answer uses — the estimator and the
    // exact answer cannot disagree on the qualifying rule.
    let estimated_threshold = scaled_threshold(query.minsup, processed as u64, total as u64);
    let mut qualifying = 0u64;
    for (j, list) in lists.iter().enumerate() {
        qualifying += list
            .iter()
            .filter(|(_, agg)| agg.meets(estimated_threshold))
            .count() as u64;
        let node = &mut cluster.nodes[j];
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
        let t = TaskArray::new(4);
        assert_eq!(t.len(), 16);
        assert_eq!(t.order_for(0), vec![0, 1, 2, 3]);
        assert_eq!(t.order_for(1), vec![1, 2, 3, 0]);
        assert_eq!(t.order_for(3), vec![3, 0, 1, 2]);
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
