#![warn(missing_docs)]

//! Online aggregation (Chapter 5): POL and selective materialization.
//!
//! Precomputed cubes answer instantly — until a query's minimum support is
//! *lower* than what the precomputation assumed. Chapter 5 covers the two
//! remedies:
//!
//! * [`materialize`] — **selective materialization** (Section 5.1):
//!   precompute only the most detailed cuboid at minimum support 1 and
//!   answer any group-by by rolling it up;
//! * [`pol`] — **POL** (Sections 5.3–5.4): aggregate a single group-by
//!   *online* from a raw dataset too big for any node's memory, in the
//!   online-aggregation framework of Hellerstein, Haas and Wang — an
//!   instant rough answer that refines progressively as blocks stream in.
//!
//! The Chapter 5 schedule is one type, [`ChunkPlan`] (Table 5.1): the
//! data is range-partitioned across nodes unsorted; the result key space
//! is *also* range-partitioned, with boundaries drawn from an initial
//! sample of the group-by ([`boundaries`]); each step loads one block per
//! node and buckets its tuples by boundary into `n × n` chunks, which
//! arrive in [`wrap_order`] — every owner starts with its local chunk and
//! wraps around. It has two consumers:
//!
//! * [`pol`] serves each step's chunks on the simulated cluster into
//!   range-partitioned skip lists, with idle nodes stealing local-input
//!   tasks and shipping side skip lists to the owner;
//! * [`progressive`] plans on the full cuboid and folds the chunks one by
//!   one into a core `MaintainedCube` (each fold is an ingest), and
//!   [`estimate`] turns the unfolded chunks' [`Envelope`]s, published as
//!   a [`Progress`], into sound bounds on every partial aggregate.

pub mod boundaries;
pub mod estimate;
pub mod materialize;
pub mod pol;
pub mod progressive;

pub use boundaries::Boundaries;
pub use estimate::{scaled_count, scaled_sum, scaled_threshold, AggBound, Envelope, Progress};
pub use materialize::SelectiveMaterialization;
pub use pol::{run_pol, PolOutcome, PolQuery, Snapshot};
pub use progressive::{wrap_order, ChunkPlan, FoldReport, PlannedChunk, ProgressiveBuild};
