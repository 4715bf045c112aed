#![warn(missing_docs)]

//! Iceberg-cube computation: sequential BUC and the paper's five parallel
//! algorithms.
//!
//! An *iceberg cube* (Section 2.3) computes, for every one of the `2^d`
//! group-bys of a `d`-dimensional cube, the cells whose `COUNT(*)` meets a
//! minimum support. This crate implements:
//!
//! * the sequential substrate: a reference evaluator ([`naive`]), BUC
//!   (Beyer & Ramakrishnan, [`buc`]) in both depth-first and breadth-first
//!   writing variants, and a share-sort top-down comparator ([`topdown`]);
//! * the paper's parallel algorithms, each stated once as a plan — a task
//!   list plus an [`icecube_exec::Workload`] — that either executor runs:
//!   * [`rp`] — Replicated Parallel BUC (coarse static subtree tasks),
//!   * [`bpp`] — Breadth-first-writing Partitioned Parallel BUC,
//!   * [`asl`] — Affinity Skip List (task = cuboid, prefix/subset affinity),
//!   * [`pt`] — Partitioned Tree (binary-divided BUC subtrees, hybrid),
//!   * [`aht`] — Affinity Hash Table (collapsible bit-indexed tables),
//!   * [`htree`] — the Apriori-style hash-tree attempt the paper reports as
//!     failing on memory (reproduced faithfully, failure included);
//! * the evaluation-driven algorithm-selection [`recipe`] (Figure 4.7);
//! * the live cube, [`delta::MaintainedCube`]: a minimum-support-1 floor
//!   kept current by merging each batch's cells into it, the one
//!   mechanism behind both streaming ingest and progressive folds.
//!
//! Entry point: [`run_parallel_exec`] builds any [`Algorithm`]'s plan at
//! the width and seed its [`icecube_exec::Executor`] supplies and runs it
//! there — simulated or native host threads — with byte-identical cells
//! on every backend and at every width. [`run_parallel`] and
//! [`run_parallel_with`] are its shorthands for the simulated cluster of
//! a [`ClusterConfig`](icecube_cluster::ClusterConfig), planned at its
//! node count; [`run_sequential`] runs a Chapter 2 comparator on one
//! node. All of them return an [`ExecOutcome`].

mod affinity;
pub mod agg;
pub mod aht;
pub mod algorithms;
pub mod asl;
pub mod backend;
pub mod block;
pub mod bpp;
pub mod buc;
pub mod cell;
pub mod delta;
pub mod error;
pub mod fixtures;
pub mod htree;
pub mod naive;
pub mod overlap;
pub mod partition;
pub mod pipehash;
pub mod pipesort;
pub mod pt;
pub mod query;
pub mod recipe;
pub mod rp;
pub mod sequential;
pub mod store;
pub mod topdown;
pub mod verify;

pub use agg::{AggClass, Aggregate};
pub use algorithms::{run_parallel, run_parallel_with, AlgoFeatures, Algorithm, RunOptions};
pub use backend::{run_parallel_exec, ExecOutcome};
pub use block::CellBlock;
pub use cell::{Cell, CellBuf, CellSink};
pub use delta::{ChunkDelta, DeltaReport, MaintainedCube};
pub use error::AlgoError;
pub use query::IcebergQuery;
pub use recipe::{recommend, Choice, CubeProfile};
pub use sequential::{run_sequential, SeqAlgorithm};
pub use store::{CubeStore, MergeStats};
