#![warn(missing_docs)]

//! # icecube — parallel iceberg-cube computation on simulated PC clusters
//!
//! A production-quality Rust reproduction of *Iceberg-cube computation with
//! PC clusters* (SIGMOD 2001; full text: Yu Yin's UBC MSc thesis, 2001).
//!
//! An **iceberg cube** is the CUBE operator restricted to cells whose
//! support (`COUNT(*)`) meets a user threshold. The paper parallelizes its
//! computation over a cluster of commodity PCs, contributing five cube
//! algorithms (RP, BPP, ASL, PT, AHT) plus a parallel online-aggregation
//! algorithm (POL), and an empirical "recipe" for choosing among them.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`data`] — relations, dictionary encoding, synthetic workloads,
//! * [`skiplist`] — the arena-based skip list behind ASL and POL,
//! * [`lattice`] — cuboid masks, BUC processing trees, PT's binary division,
//! * [`cluster`] — the simulated PC cluster (virtual time, disk and network
//!   cost models, demand scheduling),
//! * [`trace`] — deterministic virtual-time tracing (per-node event
//!   buffers, Chrome `trace_event` and phase-cost CSV exporters) and the
//!   unified metrics registry,
//! * [`core`] — sequential BUC plus the five parallel cube algorithms and
//!   the algorithm-selection recipe,
//! * [`exec`] — pluggable execution backends: the same task
//!   decompositions on the simulated cluster or a native work-stealing
//!   thread pool, with byte-identical cells either way,
//! * [`online`] — POL online aggregation and selective materialization,
//! * [`serve`] — sharded, concurrent serving of a precomputed cube: a
//!   worker-pool request loop, roll-up planning, and latency metrics.
//!
//! ## Quickstart
//!
//! ```
//! use icecube::core::{run_parallel, Algorithm, IcebergQuery};
//! use icecube::cluster::ClusterConfig;
//! use icecube::data::presets;
//!
//! let relation = presets::tiny(7).generate().unwrap();
//! let query = IcebergQuery::count_cube(relation.arity(), 2);
//! let outcome = run_parallel(
//!     Algorithm::Pt,
//!     &relation,
//!     &query,
//!     &ClusterConfig::fast_ethernet(4),
//! ).unwrap();
//! assert!(outcome.cells.len() > 0);
//! ```

/// The README's Rust code, compiled and run as a doctest so that its
/// quick-start cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

pub use icecube_cluster as cluster;
pub use icecube_core as core;
pub use icecube_data as data;
pub use icecube_exec as exec;
pub use icecube_lattice as lattice;
pub use icecube_online as online;
pub use icecube_serve as serve;
pub use icecube_skiplist as skiplist;
pub use icecube_trace as trace;
