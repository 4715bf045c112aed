//! Algorithm BPP — Breadth-first writing, Partitioned, Parallel BUC
//! (Section 3.2, Figures 3.3 and 3.5).
//!
//! BPP improves on RP in two ways:
//!
//! 1. **Data decomposition.** For each attribute `Aᵢ`, the dataset is
//!    range-partitioned into `n` chunks; node `j` keeps chunk `Rᵢ(j)` on
//!    its local disk and computes the *partial* cuboids of the subtree
//!    rooted at `Aᵢ` over it. Because all cuboids of that subtree contain
//!    `Aᵢ`, and chunks are disjoint `Aᵢ`-ranges, the partial cuboids from
//!    different nodes are disjoint — the final cuboids are their plain
//!    union, no merge needed.
//! 2. **Breadth-first writing** (BPP-BUC): each cuboid is written
//!    contiguously rather than scattered, cutting I/O roughly 5× on the
//!    paper's baseline (Figure 3.6).
//!
//! BPP's weakness is that chunk sizes follow the data's skew: a dimension
//! whose values are hot in one range (or has tiny cardinality, like
//! *Gender*) partitions unevenly and the static assignment cannot adapt —
//! the motivation for ASL.
//!
//! Self-healing: a crashed node loses its (attribute, chunk) tasks, and
//! its chunks lived on its (now unreachable) local disk, so the survivor
//! that re-runs one first re-derives the chunk from the source relation
//! on stable storage — a full scan plus the chunk's moves. Chunks are
//! disjoint ranges, so the union stays exact.

use crate::algorithms::RunOptions;
use crate::backend::task_sink;
use crate::buc::{bpp_buc_with, BucScratch};
use crate::cell::CellBuf;
use crate::query::IcebergQuery;
use icecube_cluster::{SimCluster, SimNode};
use icecube_data::Relation;
use icecube_exec::{TaskSpec, Workload};
use icecube_lattice::{CuboidMask, TreeTask};

/// BPP's decomposition: one task per non-empty (attribute, chunk) pair,
/// computing the partial subtree rooted at that attribute over that chunk
/// with breadth-first-writing BUC, pinned to the chunk's owner.
pub(crate) struct BppWorkload {
    /// `chunks[i][j]` is attribute `i`'s `j`-th range chunk. Any chunk
    /// count yields the same cube: partial cuboids over disjoint ranges
    /// union exactly.
    chunks: Vec<Vec<Relation>>,
    /// The source relation's size on stable storage.
    source_bytes: u64,
    /// The source relation's row count.
    source_rows: u64,
    minsup: u64,
    collect: bool,
    /// Charge the range-partitioning phase inside the run.
    partitioning: bool,
    /// `(attribute, chunk)` per task id.
    tasks: Vec<(usize, usize)>,
}

/// Builds BPP's plan, range-partitioning every attribute `parts` ways.
pub(crate) fn plan(
    rel: &Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
    parts: usize,
) -> (Vec<TaskSpec>, BppWorkload) {
    let chunks: Vec<Vec<Relation>> = (0..query.dims)
        .map(|i| rel.range_partition(i, parts))
        .collect();
    let mut tasks = Vec::new();
    // Chunk-major: consecutive ids share a chunk owner, so a node meets
    // its attributes in order — also the locality the native pool's
    // contiguous-block injection preserves.
    for j in 0..parts {
        for (i, chunk_list) in chunks.iter().enumerate() {
            if !chunk_list[j].is_empty() {
                tasks.push((i, j));
            }
        }
    }
    let specs = tasks
        .iter()
        .enumerate()
        .map(|(id, &(i, j))| TaskSpec {
            id,
            affinity: CuboidMask::from_dims(&[i]).bits() as u64,
            weight: chunks[i][j].len() as u64,
        })
        .collect();
    let workload = BppWorkload {
        chunks,
        source_bytes: rel.byte_size(),
        source_rows: rel.len() as u64,
        minsup: query.minsup,
        collect: opts.collect_cells,
        partitioning: opts.include_bpp_partitioning,
        tasks,
    };
    (specs, workload)
}

impl Workload for BppWorkload {
    type Scratch = BucScratch;
    type Out = CellBuf;

    fn scratch(&self, _worker: usize) -> BucScratch {
        BucScratch::new()
    }

    /// Pre-processing: node `i mod n` range-partitions attribute `i` and
    /// distributes the chunks to their owners (Figure 3.3). The paper
    /// treats this as a step outside the measured run, so it is charged
    /// only when `include_bpp_partitioning` asks for it.
    fn stage(&self, cluster: &mut SimCluster) {
        if !self.partitioning {
            return;
        }
        let n = cluster.len();
        cluster.phase_start("partition");
        for (i, parts) in self.chunks.iter().enumerate() {
            let from = i % n;
            cluster.nodes[from].read_bytes(self.source_bytes);
            cluster.nodes[from].charge_scan(self.source_rows);
            cluster.nodes[from].charge_moves(self.source_rows);
            for (j, part) in parts.iter().enumerate() {
                if j % n != from && !part.is_empty() {
                    cluster.send(from, j % n, part.byte_size());
                }
            }
        }
        cluster.barrier();
        cluster.phase_end("partition");
    }

    /// Node `j` bulk-reads its local chunk of every attribute, holding
    /// the largest at a time — chunks, not the whole relation, which is
    /// what makes BPP the memory-frugal algorithm.
    fn worker_prologue(&self, worker: usize, workers: usize, node: &mut SimNode) {
        // A node that died while the chunks were being distributed reads
        // (and holds) nothing.
        if node.is_dead() {
            return;
        }
        let mut largest = 0;
        for chunk_list in &self.chunks {
            for chunk in chunk_list.iter().skip(worker).step_by(workers) {
                node.read_bytes(chunk.byte_size());
                node.charge_scan(chunk.len() as u64);
                largest = largest.max(chunk.byte_size());
            }
        }
        node.alloc(largest);
    }

    fn owner(&self, spec: &TaskSpec, workers: usize) -> Option<usize> {
        Some(self.tasks[spec.id].1 % workers)
    }

    /// The dead node's disk is gone: re-derive its chunk from the source
    /// relation (full scan + the chunk's worth of moves).
    fn recover(&self, spec: &TaskSpec, node: &mut SimNode) {
        let (i, j) = self.tasks[spec.id];
        node.read_bytes(self.source_bytes);
        node.charge_scan(self.source_rows);
        node.charge_moves(self.chunks[i][j].len() as u64);
    }

    fn run(
        &self,
        spec: &TaskSpec,
        scratch: &mut BucScratch,
        node: &mut SimNode,
        _: bool,
    ) -> CellBuf {
        let (i, j) = self.tasks[spec.id];
        let task = TreeTask::full_subtree(CuboidMask::from_dims(&[i]), self.chunks.len());
        let mut sink = task_sink(self.collect);
        bpp_buc_with(
            scratch,
            &self.chunks[i][j],
            self.minsup,
            task,
            node,
            &mut sink,
        );
        sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_with, Algorithm};
    use crate::fixtures::sales;
    use crate::naive::naive_iceberg_cube;
    use crate::verify::assert_same_cells;
    use icecube_cluster::ClusterConfig;
    use icecube_data::presets;

    fn check(rel: &Relation, minsup: u64, nodes: usize) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let out = run_parallel_with(Algorithm::Bpp, rel, &q, &cfg, &RunOptions::default()).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(want, out.cells, &format!("BPP n={nodes} minsup={minsup}"));
    }

    #[test]
    fn partial_cuboids_union_to_the_full_cube() {
        // The correctness heart of BPP: range-disjoint chunks produce
        // disjoint partial cuboids whose union is exact.
        let rel = sales();
        for nodes in [1, 2, 4, 8] {
            check(&rel, 1, nodes);
            check(&rel, 2, nodes);
        }
        for seed in [3, 13] {
            let rel = presets::tiny(seed).generate().unwrap();
            for nodes in [2, 5] {
                check(&rel, 2, nodes);
            }
        }
    }

    #[test]
    fn writes_far_fewer_file_switches_than_rp() {
        // Figure 3.6 at algorithm level.
        let rel = presets::tiny(2).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 1);
        let cfg = ClusterConfig::fast_ethernet(4);
        let rp = run_parallel_with(Algorithm::Rp, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let bpp =
            run_parallel_with(Algorithm::Bpp, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let switches = |o: crate::ExecOutcome| -> u64 {
            o.report.stats.nodes().iter().map(|s| s.file_switches).sum()
        };
        let (rp_switches, bpp_switches) = (switches(rp), switches(bpp));
        assert!(
            rp_switches > 2 * bpp_switches,
            "RP {rp_switches} vs BPP {bpp_switches} switches"
        );
    }

    #[test]
    fn skewed_dimension_unbalances_bpp() {
        // A heavily skewed dimension produces uneven chunks, and with them
        // uneven loads (the paper's Gender example).
        let spec = icecube_data::SyntheticSpec::uniform(4000, vec![16, 16, 16], 3)
            .with_skews(vec![1.8, 0.0, 0.0]);
        let rel = spec.generate().unwrap();
        let q = IcebergQuery::count_cube(3, 2);
        let out = run_parallel_with(
            Algorithm::Bpp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        assert!(
            out.report.stats.imbalance() > 1.05,
            "imbalance {}",
            out.report.stats.imbalance()
        );
    }

    #[test]
    fn a_crash_re_derives_the_lost_chunks_exactly() {
        use icecube_cluster::FaultPlan;
        let rel = presets::tiny(3).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let quiet = run_parallel_with(
            Algorithm::Bpp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions::default(),
        )
        .unwrap();
        // The victim's chunks lived on its local disk; survivors must
        // rebuild them from the source relation and still union exactly.
        let cfg = ClusterConfig::fast_ethernet(3)
            .with_faults(FaultPlan::none().crash(1, quiet.report.wall_ns / 4));
        let out =
            run_parallel_with(Algorithm::Bpp, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "BPP with a mid-run crash",
        );
        let stats = &out.report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert!(stats.total_tasks_lost() >= 1, "{stats:?}");
        assert_eq!(stats.total_tasks_recovered(), stats.total_tasks_lost());
    }

    #[test]
    fn partitioning_phase_costs_when_included() {
        let rel = presets::tiny(6).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let cfg = ClusterConfig::fast_ethernet(3);
        let without =
            run_parallel_with(Algorithm::Bpp, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        let with = run_parallel_with(
            Algorithm::Bpp,
            &rel,
            &q,
            &cfg,
            &RunOptions {
                include_bpp_partitioning: true,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert!(with.report.wall_ns > without.report.wall_ns);
        assert_same_cells(
            without.cells,
            with.cells,
            "partitioning must not change output",
        );
    }

    #[test]
    fn memory_footprint_is_chunk_sized() {
        // BPP is the memory-frugal algorithm: each node holds chunks, not
        // the whole relation (Section 4.1).
        let rel = presets::tiny(8).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let bpp = run_parallel_with(
            Algorithm::Bpp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        let rp = run_parallel_with(
            Algorithm::Rp,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(4),
            &RunOptions::default(),
        )
        .unwrap();
        assert!(bpp.report.stats.peak_mem_bytes() < rp.report.stats.peak_mem_bytes());
    }
}
