//! A unified runner for the sequential algorithms (Chapter 2's cast),
//! so baselines can be compared head-to-head on one simulated node.
//!
//! This is where the paper's Chapter 2 claims become measurable: BUC's
//! pruning beats the top-down family on iceberg thresholds; PipeHash is
//! competitive only when the cube is dense; breadth-first writing beats
//! depth-first on I/O regardless of the traversal direction.

use crate::backend::{collect, ExecOutcome};
use crate::buc::{bpp_buc, buc_depth_first};
use crate::cell::{CellBuf, CellSink};
use crate::error::AlgoError;
use crate::naive::naive_iceberg_cube;
use crate::overlap::overlap;
use crate::pipehash::pipehash;
use crate::pipesort::pipesort;
use crate::query::IcebergQuery;
use crate::topdown::topdown_shared;
use icecube_cluster::{ClusterConfig, RunStats};
use icecube_data::Relation;
use icecube_exec::{Backend, ExecReport};
use icecube_lattice::TreeTask;
use std::fmt;

/// The sequential algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SeqAlgorithm {
    /// The brute-force reference (per-cuboid hash grouping).
    Naive,
    /// BUC with its original depth-first writing (Beyer & Ramakrishnan).
    Buc,
    /// BUC with BPP's breadth-first writing.
    BppBuc,
    /// The share-sort top-down baseline of Figure 2.4(b).
    TopDownShared,
    /// Overlap (Naughton et al.): maximize sort-order overlap, sorting
    /// within shared-prefix partitions.
    Overlap,
    /// PipeSort (Agarwal et al.): minimum-sort pipelines.
    PipeSort,
    /// PipeHash (Agarwal et al.): smallest-parent MST over hash tables.
    PipeHash,
}

impl SeqAlgorithm {
    /// Every sequential algorithm, in review order.
    pub fn all() -> [SeqAlgorithm; 7] {
        [
            SeqAlgorithm::Naive,
            SeqAlgorithm::Buc,
            SeqAlgorithm::BppBuc,
            SeqAlgorithm::TopDownShared,
            SeqAlgorithm::Overlap,
            SeqAlgorithm::PipeSort,
            SeqAlgorithm::PipeHash,
        ]
    }

    /// Whether the algorithm can prune on the minimum support during
    /// computation (the bottom-up family can; top-down cannot).
    pub fn prunes(self) -> bool {
        matches!(self, SeqAlgorithm::Buc | SeqAlgorithm::BppBuc)
    }
}

impl fmt::Display for SeqAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            SeqAlgorithm::Naive => "Naive",
            SeqAlgorithm::Buc => "BUC",
            SeqAlgorithm::BppBuc => "BPP-BUC",
            SeqAlgorithm::TopDownShared => "TopDown",
            SeqAlgorithm::Overlap => "Overlap",
            SeqAlgorithm::PipeSort => "PipeSort",
            SeqAlgorithm::PipeHash => "PipeHash",
        };
        write!(f, "{name}")
    }
}

/// Runs a sequential algorithm on a fresh node 0 of `config`'s roster.
/// The outcome's report is the one simulated node's: one worker, one
/// task, its final clock as `wall_ns`, no trace. A roster with no nodes
/// is [`AlgoError::ClusterExhausted`] with `nodes: 0`, as it is for the
/// parallel algorithms.
pub fn run_sequential(
    algorithm: SeqAlgorithm,
    rel: &Relation,
    query: &IcebergQuery,
    config: &ClusterConfig,
) -> Result<ExecOutcome, AlgoError> {
    let (sink, report) = run_sequential_sink(algorithm, rel, query, config)?;
    Ok(collect(vec![sink], report))
}

/// [`run_sequential`] up to the sink: the emitted blocks and the node's
/// report. The delta path stops here and merges the blocks without ever
/// building a `Vec<Cell>`.
pub(crate) fn run_sequential_sink(
    algorithm: SeqAlgorithm,
    rel: &Relation,
    query: &IcebergQuery,
    config: &ClusterConfig,
) -> Result<(CellBuf, ExecReport), AlgoError> {
    crate::algorithms::validate(rel, query)?;
    let Some(mut node) = config.node(0) else {
        return Err(AlgoError::ClusterExhausted { nodes: 0 });
    };
    node.read_bytes(rel.byte_size());
    node.charge_scan(rel.len() as u64);
    node.alloc(rel.byte_size());
    let mut sink = CellBuf::collecting();
    match algorithm {
        SeqAlgorithm::Naive => {
            // Charged as d scans with hash probing — honest for the
            // reference evaluator's structure.
            let cells = naive_iceberg_cube(rel, query);
            let cuboids = (1u64 << query.dims) - 1;
            node.charge_scan(rel.len() as u64 * cuboids);
            node.charge_hash_probes(rel.len() as u64 * cuboids);
            for c in &cells {
                sink.emit(c.cuboid, &c.key, &c.agg);
            }
        }
        SeqAlgorithm::Buc => {
            buc_depth_first(
                rel,
                query.minsup,
                TreeTask::whole_lattice(query.dims),
                &mut node,
                &mut sink,
            );
        }
        SeqAlgorithm::BppBuc => {
            bpp_buc(
                rel,
                query.minsup,
                TreeTask::whole_lattice(query.dims),
                &mut node,
                &mut sink,
            );
        }
        SeqAlgorithm::TopDownShared => topdown_shared(rel, query, &mut node, &mut sink),
        SeqAlgorithm::Overlap => overlap(rel, query, &mut node, &mut sink),
        SeqAlgorithm::PipeSort => pipesort(rel, query, &mut node, &mut sink),
        SeqAlgorithm::PipeHash => {
            let budget = node.spec().mem_bytes();
            pipehash(rel, query, budget, &mut node, &mut sink);
        }
    }
    let clock_ns = node.clock_ns();
    let report = ExecReport {
        backend: Backend::Sim,
        workers: 1,
        tasks: 1,
        wall_ns: clock_ns,
        steals: 0,
        tasks_per_worker: vec![1],
        trace: None,
        stats: RunStats::new(vec![node.stats], vec![clock_ns]),
    };
    Ok((sink, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use icecube_data::presets;

    #[test]
    fn all_sequential_algorithms_agree() {
        let rel = presets::tiny(14).generate().unwrap();
        for minsup in [1u64, 2, 4] {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let cfg = ClusterConfig::fast_ethernet(1);
            let reference = run_sequential(SeqAlgorithm::Naive, &rel, &q, &cfg).unwrap();
            for alg in SeqAlgorithm::all() {
                let out = run_sequential(alg, &rel, &q, &cfg).unwrap();
                assert_eq!(out.cells, reference.cells, "{alg} at minsup {minsup}");
                // One simulated node running one task.
                let report = &out.report;
                assert_eq!(report.backend, Backend::Sim, "{alg}");
                assert_eq!((report.workers, report.tasks), (1, 1), "{alg}");
                assert_eq!(report.wall_ns, report.stats.makespan_ns(), "{alg}");
                assert_eq!(out.total_cells, out.cells.len() as u64, "{alg}");
            }
        }
    }

    #[test]
    fn pruning_separates_bottom_up_from_top_down() {
        // Raising the threshold must cut BUC's CPU, not TopDown's — the
        // structural claim of Section 2.4.
        let rel = presets::tiny(15).generate().unwrap();
        let cfg = ClusterConfig::fast_ethernet(1);
        let cpu = |alg, minsup| {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let out = run_sequential(alg, &rel, &q, &cfg).unwrap();
            out.report.stats.nodes()[0].cpu_ns
        };
        let buc_drop = cpu(SeqAlgorithm::BppBuc, 1) as f64 / cpu(SeqAlgorithm::BppBuc, 8) as f64;
        let td_drop =
            cpu(SeqAlgorithm::TopDownShared, 1) as f64 / cpu(SeqAlgorithm::TopDownShared, 8) as f64;
        assert!(
            buc_drop > td_drop,
            "BUC {buc_drop:.2}x vs TopDown {td_drop:.2}x"
        );
        assert!(SeqAlgorithm::Buc.prunes());
        assert!(!SeqAlgorithm::PipeSort.prunes());
    }

    #[test]
    fn display_names_are_stable() {
        let names: Vec<String> = SeqAlgorithm::all()
            .iter()
            .map(ToString::to_string)
            .collect();
        assert_eq!(
            names,
            ["Naive", "BUC", "BPP-BUC", "TopDown", "Overlap", "PipeSort", "PipeHash"]
        );
    }

    #[test]
    fn a_roster_without_nodes_is_a_typed_error() {
        let rel = presets::tiny(16).generate().unwrap();
        let q = IcebergQuery::count_cube(rel.arity(), 1);
        let mut cfg = ClusterConfig::fast_ethernet(1);
        cfg.nodes.clear();
        let err = run_sequential(SeqAlgorithm::Buc, &rel, &q, &cfg).unwrap_err();
        assert!(matches!(err, AlgoError::ClusterExhausted { nodes: 0 }));
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let rel = presets::tiny(16).generate().unwrap();
        let q = IcebergQuery::count_cube(2, 1);
        let err = run_sequential(
            SeqAlgorithm::Buc,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(1),
        )
        .unwrap_err();
        assert!(matches!(err, AlgoError::DimensionMismatch { .. }));
    }
}
