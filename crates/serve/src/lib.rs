//! `icecube-serve`: sharded, concurrent serving of precomputed iceberg
//! cubes.
//!
//! The computation crates build an iceberg cube once; this crate answers
//! analyst navigation against it at high request rates:
//!
//! - [`ShardedCube`] is a [`CubeStore`](icecube_core::CubeStore),
//!   sharing its immutable cuboid blocks, plus the split keys that
//!   range-partition every cuboid into N logical shards. Routing
//!   (`shard_of`) is deterministic and feeds the per-shard counters;
//!   reads go straight to the store's sorted keys — the unsharded answer
//!   by construction.
//! - [`CubeServer`] runs a fixed worker pool over a shared request queue;
//!   clients submit typed [`Request`]s through cloneable
//!   [`ClientHandle`]s and get typed [`Response`]s, never panics.
//! - [`planner::roll_up`] answers "GROUP BY on fewer attributes" from the
//!   stored coarser cuboid when materialized, aggregating the finer one
//!   on the fly otherwise (flagging inexactness over pruned cubes).
//! - [`Metrics`]/[`ServerStats`] expose lock-free counters and
//!   fixed-bucket latency histograms (p50/p95/p99).
//! - [`NavigationWorkload`] generates seeded, reproducible request
//!   streams over a cube's real cells.

#![warn(missing_docs)]

pub mod error;
pub mod metrics;
pub mod planner;
pub mod request;
pub mod server;
pub mod shard;
pub mod sync;
pub mod workload;

pub use error::ServeError;
pub use metrics::{LatencyHistogram, Metrics, ServerStats};
pub use request::{CellEstimate, Request, RequestError, Response, RollUpPlan};
pub use server::{Answer, ClientHandle, CubeServer, EpochSnapshot};
pub use shard::ShardedCube;
pub use workload::NavigationWorkload;
