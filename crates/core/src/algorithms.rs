//! The algorithm catalogue: options, the simulated-cluster shorthands,
//! and the key features of Table 1.1. (The dispatch from [`Algorithm`]
//! to plans lives in [`crate::backend`].)

use crate::backend::{run_parallel_exec, ExecOutcome};
use crate::error::AlgoError;
use crate::query::IcebergQuery;
use icecube_cluster::ClusterConfig;
use icecube_data::Relation;
use icecube_exec::SimExecutor;
use icecube_lattice::MAX_DIMS;
use std::fmt;

/// The parallel iceberg-cube algorithms the paper develops and evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Replicated Parallel BUC (Section 3.1).
    Rp,
    /// Breadth-first writing, Partitioned, Parallel BUC (Section 3.2).
    Bpp,
    /// Affinity Skip List (Section 3.3).
    Asl,
    /// Partitioned Tree (Section 3.4).
    Pt,
    /// Affinity Hash Table (Section 3.5.2).
    Aht,
    /// The Apriori-style hash-tree attempt (Section 3.5.1); fails with
    /// [`AlgoError::MemoryExhausted`] on large inputs, as the paper found.
    HashTree,
}

impl Algorithm {
    /// The five algorithms the paper evaluates in Chapter 4 (the hash-tree
    /// algorithm "lags far behind" and is excluded there, as here).
    pub fn evaluated() -> [Algorithm; 5] {
        [
            Algorithm::Rp,
            Algorithm::Bpp,
            Algorithm::Asl,
            Algorithm::Pt,
            Algorithm::Aht,
        ]
    }

    /// Every implemented algorithm.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::Rp,
            Algorithm::Bpp,
            Algorithm::Asl,
            Algorithm::Pt,
            Algorithm::Aht,
            Algorithm::HashTree,
        ]
    }

    /// Key features, reproducing Table 1.1 of the paper.
    pub fn features(self) -> AlgoFeatures {
        match self {
            Algorithm::Rp => AlgoFeatures {
                name: "RP",
                writing: "depth-first",
                load_balance: "weak",
                traversal: "bottom-up",
                decomposition: "replicated",
            },
            Algorithm::Bpp => AlgoFeatures {
                name: "BPP",
                writing: "breadth-first",
                load_balance: "weak",
                traversal: "bottom-up",
                decomposition: "partitioned",
            },
            Algorithm::Asl => AlgoFeatures {
                name: "ASL",
                writing: "breadth-first",
                load_balance: "strong",
                traversal: "top-down",
                decomposition: "replicated",
            },
            Algorithm::Pt => AlgoFeatures {
                name: "PT",
                writing: "breadth-first",
                load_balance: "strong",
                traversal: "hybrid",
                decomposition: "replicated",
            },
            Algorithm::Aht => AlgoFeatures {
                name: "AHT",
                writing: "post-sorted",
                load_balance: "strong",
                traversal: "top-down",
                decomposition: "replicated",
            },
            Algorithm::HashTree => AlgoFeatures {
                name: "HashTree",
                writing: "breadth-first",
                load_balance: "n/a",
                traversal: "bottom-up (level-wise)",
                decomposition: "replicated",
            },
        }
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.features().name)
    }
}

/// One row of Table 1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoFeatures {
    /// Short algorithm name.
    pub name: &'static str,
    /// Writing strategy.
    pub writing: &'static str,
    /// Load-balancing quality.
    pub load_balance: &'static str,
    /// Lattice-traversal relationship between cuboids.
    pub traversal: &'static str,
    /// Data decomposition across nodes.
    pub decomposition: &'static str,
}

/// Tunables for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Retain emitted cells in the outcome (disable for paper-sized runs;
    /// counts and bytes are always tracked in the statistics).
    pub collect_cells: bool,
    /// PT's stop parameter: binary division continues until there are
    /// `pt_task_ratio × processors` tasks (the paper uses 32).
    pub pt_task_ratio: usize,
    /// Affinity scheduling on/off (ablation; the paper's algorithms always
    /// use it — disabling shows what sort-sharing buys).
    pub affinity: bool,
    /// Charge BPP's range-partitioning phase inside the run. The paper
    /// treats partitioning as a pre-processing step, so this defaults off.
    pub include_bpp_partitioning: bool,
    /// AHT's bucket-index function (Section 4.9.2 proposes improving on
    /// the thesis' naive MOD hash).
    pub aht_hash: crate::aht::AhtHash,
    /// ASL's Section 4.9.2 refinement: among subset-affine candidates,
    /// prefer the one sharing the longest key prefix with the held list
    /// (its cells stream in near-sorted order, cheapening inserts).
    pub asl_longest_prefix: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            collect_cells: true,
            pt_task_ratio: 32,
            affinity: true,
            include_bpp_partitioning: false,
            aht_hash: crate::aht::AhtHash::NaiveMod,
            asl_longest_prefix: false,
        }
    }
}

impl RunOptions {
    /// Options for paper-sized experiment runs: count cells, don't keep
    /// them.
    pub fn counting() -> Self {
        RunOptions {
            collect_cells: false,
            ..RunOptions::default()
        }
    }
}

/// Runs `algorithm` over `rel` on a simulated cluster with default options.
pub fn run_parallel(
    algorithm: Algorithm,
    rel: &Relation,
    query: &IcebergQuery,
    config: &ClusterConfig,
) -> Result<ExecOutcome, AlgoError> {
    run_parallel_with(algorithm, rel, query, config, &RunOptions::default())
}

/// Runs `algorithm` with explicit options on a [`SimExecutor`] for
/// `config`, which builds the plan at the width of the cluster
/// (`config.nodes.len()` partitions for BPP, `32 × n` subtrees for PT).
pub fn run_parallel_with(
    algorithm: Algorithm,
    rel: &Relation,
    query: &IcebergQuery,
    config: &ClusterConfig,
    opts: &RunOptions,
) -> Result<ExecOutcome, AlgoError> {
    run_parallel_exec(
        &mut SimExecutor::new(config.clone()),
        algorithm,
        rel,
        query,
        opts,
    )
}

/// Validates query/relation compatibility.
pub(crate) fn validate(rel: &Relation, query: &IcebergQuery) -> Result<(), AlgoError> {
    if rel.is_empty() {
        return Err(AlgoError::EmptyInput);
    }
    if query.dims != rel.arity() {
        return Err(AlgoError::DimensionMismatch {
            query_dims: query.dims,
            relation_dims: rel.arity(),
        });
    }
    check_dims(rel.arity())
}

/// Rejects a cube wider than the lattice supports.
pub(crate) fn check_dims(dims: usize) -> Result<(), AlgoError> {
    if dims > MAX_DIMS {
        return Err(AlgoError::TooManyDimensions {
            dims,
            max: MAX_DIMS,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_1_1_is_reproduced() {
        // The exact rows of Table 1.1.
        let rp = Algorithm::Rp.features();
        assert_eq!(
            (rp.writing, rp.load_balance, rp.traversal, rp.decomposition),
            ("depth-first", "weak", "bottom-up", "replicated")
        );
        let bpp = Algorithm::Bpp.features();
        assert_eq!(
            (
                bpp.writing,
                bpp.load_balance,
                bpp.traversal,
                bpp.decomposition
            ),
            ("breadth-first", "weak", "bottom-up", "partitioned")
        );
        let asl = Algorithm::Asl.features();
        assert_eq!(
            (
                asl.writing,
                asl.load_balance,
                asl.traversal,
                asl.decomposition
            ),
            ("breadth-first", "strong", "top-down", "replicated")
        );
        let pt = Algorithm::Pt.features();
        assert_eq!(
            (pt.writing, pt.load_balance, pt.traversal, pt.decomposition),
            ("breadth-first", "strong", "hybrid", "replicated")
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(Algorithm::Pt.to_string(), "PT");
        assert_eq!(Algorithm::HashTree.to_string(), "HashTree");
    }

    #[test]
    fn validate_rejects_bad_inputs() {
        let rel = crate::fixtures::sales();
        let q = IcebergQuery::count_cube(4, 1);
        assert!(matches!(
            validate(&rel, &q),
            Err(AlgoError::DimensionMismatch {
                query_dims: 4,
                relation_dims: 3
            })
        ));
        let empty = Relation::new(icecube_data::Schema::from_cardinalities(&[2]).unwrap());
        assert!(matches!(
            validate(&empty, &IcebergQuery::count_cube(1, 1)),
            Err(AlgoError::EmptyInput)
        ));
    }

    #[test]
    fn losing_every_node_is_a_typed_error() {
        use icecube_cluster::FaultPlan;
        let rel = crate::fixtures::sales();
        let q = IcebergQuery::count_cube(3, 1);
        let cfg = ClusterConfig::fast_ethernet(2)
            .with_faults(FaultPlan::none().crash(0, 1_000).crash(1, 1_000));
        // Static sweep and demand loop alike.
        for alg in Algorithm::evaluated() {
            let lost = run_parallel(alg, &rel, &q, &cfg).map(|out| out.total_cells);
            assert!(
                matches!(lost, Err(AlgoError::ClusterExhausted { nodes: 2 })),
                "{alg}: expected ClusterExhausted, got {lost:?}"
            );
        }
    }

    #[test]
    fn default_options_match_the_paper() {
        let o = RunOptions::default();
        assert_eq!(o.pt_task_ratio, 32);
        assert!(o.affinity);
        assert!(!o.include_bpp_partitioning);
    }
}
