//! Error type for cube computation.

use std::fmt;

/// Errors from running a cube algorithm.
#[derive(Debug)]
pub enum AlgoError {
    /// The query's dimensionality does not match the relation's arity.
    DimensionMismatch {
        /// Dimensions the query names.
        query_dims: usize,
        /// Dimensions the relation has.
        relation_dims: usize,
    },
    /// The algorithm exhausted a node's physical memory — the paper's
    /// hash-tree algorithm "used up memory too rapidly that it fails to
    /// process large data sets" (Section 3.5.1).
    MemoryExhausted {
        /// Node that ran out.
        node: usize,
        /// Bytes the algorithm wanted live at once.
        required_bytes: u64,
        /// The node's physical memory.
        available_bytes: u64,
    },
    /// The relation holds no rows; the cube is empty and the algorithms
    /// have nothing meaningful to schedule.
    EmptyInput,
    /// A stored cube computed at minimum support `stored` was asked for a
    /// threshold below it (Section 5: "if the threshold set by online
    /// queries differs from what the precomputation assumed, precomputed
    /// cuboids can no longer be used"). Answering would require
    /// recomputation or online aggregation, not this store.
    ThresholdTooLow {
        /// Minimum support the store was computed at.
        stored: u64,
        /// The (lower) threshold the query asked for.
        requested: u64,
    },
    /// A navigation named a dimension its group-by does not contain
    /// (slice and roll-up operate on present dimensions).
    DimensionNotInGroupBy {
        /// The offending dimension.
        dim: usize,
    },
    /// A navigation named a dimension its group-by already contains
    /// (drill-down adds a new dimension).
    DimensionAlreadyInGroupBy {
        /// The offending dimension.
        dim: usize,
    },
    /// Every node crashed before the cube finished. The self-healing
    /// scheduler reassigns lost tasks as long as one worker survives;
    /// seeded fault plans guarantee a survivor, so this surfaces only
    /// under hand-built total-loss plans.
    ClusterExhausted {
        /// Nodes the run started with.
        nodes: usize,
    },
    /// A maintained cube was asked for with zero dimensions; there are no
    /// group-bys to maintain (the typed twin of the panic contract on
    /// [`crate::IcebergQuery::count_cube`], since maintenance runs in
    /// serving paths that must not unwind).
    NoDimensions,
    /// A delta cell's key arity does not match its cuboid mask; merging it
    /// would corrupt the store's stride invariant, so the merge refuses the
    /// whole batch up front.
    CellArity {
        /// Arity the cell's cuboid mask implies.
        expected: usize,
        /// Key length the cell actually carried.
        got: usize,
    },
    /// The relation has more dimensions than the cube lattice supports
    /// ([`icecube_lattice::MAX_DIMS`]), so its `2^d` group-bys cannot be
    /// enumerated.
    TooManyDimensions {
        /// Dimensions the relation has.
        dims: usize,
        /// The most the lattice supports.
        max: usize,
    },
    /// An execution backend failed to complete the plan.
    Exec(icecube_exec::ExecError),
    /// Underlying data error.
    Data(icecube_data::DataError),
}

impl fmt::Display for AlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AlgoError::DimensionMismatch {
                query_dims,
                relation_dims,
            } => write!(
                f,
                "query names {query_dims} dimensions but the relation has {relation_dims}"
            ),
            AlgoError::MemoryExhausted {
                node,
                required_bytes,
                available_bytes,
            } => write!(
                f,
                "node {node} out of memory: needs {required_bytes} bytes, has {available_bytes}"
            ),
            AlgoError::EmptyInput => write!(f, "input relation is empty"),
            AlgoError::ThresholdTooLow { stored, requested } => write!(
                f,
                "store computed at minsup {stored} cannot answer threshold {requested}; \
                 recompute or aggregate online"
            ),
            AlgoError::DimensionNotInGroupBy { dim } => {
                write!(f, "dimension {dim} does not belong to the group-by")
            }
            AlgoError::DimensionAlreadyInGroupBy { dim } => {
                write!(f, "dimension {dim} already belongs to the group-by")
            }
            AlgoError::ClusterExhausted { nodes } => {
                write!(f, "all {nodes} nodes crashed before the cube completed")
            }
            AlgoError::NoDimensions => {
                write!(f, "a maintained cube needs at least one dimension")
            }
            AlgoError::CellArity { expected, got } => write!(
                f,
                "delta cell key has {got} values but its cuboid implies {expected}"
            ),
            AlgoError::TooManyDimensions { dims, max } => write!(
                f,
                "the relation has {dims} dimensions but a cube supports at most {max}"
            ),
            AlgoError::Exec(e) => write!(f, "execution backend failed: {e}"),
            AlgoError::Data(e) => write!(f, "data error: {e}"),
        }
    }
}

impl std::error::Error for AlgoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            AlgoError::Data(e) => Some(e),
            AlgoError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<icecube_data::DataError> for AlgoError {
    fn from(e: icecube_data::DataError) -> Self {
        AlgoError::Data(e)
    }
}

impl From<icecube_exec::ExecError> for AlgoError {
    /// Total loss of the simulated cluster has one name however the run
    /// was started; every other executor failure stays wrapped.
    fn from(e: icecube_exec::ExecError) -> Self {
        match e {
            icecube_exec::ExecError::ClusterExhausted { nodes } => {
                AlgoError::ClusterExhausted { nodes }
            }
            other => AlgoError::Exec(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AlgoError::MemoryExhausted {
            node: 3,
            required_bytes: 10,
            available_bytes: 5,
        };
        assert!(e.to_string().contains("node 3"));
        let e = AlgoError::DimensionMismatch {
            query_dims: 4,
            relation_dims: 9,
        };
        assert!(e.to_string().contains('4'));
        assert!(e.to_string().contains('9'));
        let e = AlgoError::ThresholdTooLow {
            stored: 5,
            requested: 2,
        };
        assert!(e.to_string().contains("cannot answer threshold 2"));
        assert!(e.to_string().contains("minsup 5"));
        let e = AlgoError::DimensionNotInGroupBy { dim: 6 };
        assert!(e.to_string().contains("dimension 6 does not belong"));
        let e = AlgoError::DimensionAlreadyInGroupBy { dim: 2 };
        assert!(e.to_string().contains("dimension 2 already belongs"));
        let e = AlgoError::CellArity {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains("1 values"));
        assert!(e.to_string().contains("implies 3"));
        assert!(AlgoError::NoDimensions
            .to_string()
            .contains("at least one dimension"));
        let e = AlgoError::TooManyDimensions { dims: 33, max: 26 };
        assert!(e.to_string().contains("33 dimensions"));
        assert!(e.to_string().contains("at most 26"));
    }
}
