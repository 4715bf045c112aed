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
//! POL's machinery: the data is range-partitioned across nodes unsorted;
//! the result skip list is *also* range-partitioned, with boundaries drawn
//! from an initial sample ([`boundaries`]); each synchronized step loads
//! one block per node, buckets its tuples by boundary, and schedules the
//! resulting `n × n` chunk tasks so that every node starts with its local
//! chunk and wraps around ([`pol::TaskArray`], Table 5.1), with idle nodes
//! stealing local-input tasks and shipping side skip lists to the owner.
//!
//! [`progressive`] carries the same schedule to the whole cube: its chunks
//! fold one by one into a core `MaintainedCube` (each fold is an ingest),
//! and [`estimate`] turns the unfolded chunks' [`Envelope`]s, published as
//! a [`Progress`], into sound bounds on every partial aggregate.

pub mod boundaries;
pub mod estimate;
pub mod materialize;
pub mod pol;
pub mod progressive;

pub use boundaries::Boundaries;
pub use estimate::{scaled_count, scaled_sum, scaled_threshold, AggBound, Envelope, Progress};
pub use materialize::SelectiveMaterialization;
pub use pol::{run_pol, PolOutcome, PolQuery, Snapshot, TaskArray};
pub use progressive::{ChunkPlan, FoldReport, PlannedChunk, ProgressiveBuild};
