//! The workloads: one set of inputs each, all run through the same chain.
//!
//! Every workload generates one relation. Its first `tuples` rows are
//! built into a cube by all five algorithms and served; its first
//! `live_base` rows seed a maintained cube that the next
//! `live_batches × live_rows` rows are streamed into, and a progressive
//! build folds the same base chunk by chunk. The maintained cube keeps a
//! minimum-support-1 floor, which bounds `live_base` for sparse shapes.

use icecube_data::{presets, SyntheticSpec};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// `presets::baseline()`: nine weather dimensions, cardinality product
    /// 2·10¹³, Zipf skews — about 29 cells per tuple at minimum support 2.
    Sparse9,
    /// Six dimensions, cardinality product 3.84·10⁶, mild skews: most
    /// delta rows update a stored cell instead of creating one.
    Dense6,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointPhase {
    /// `point_*` from a quiet server: `Env::clients` closed-loop clients.
    Quiet,
    /// `point_*` from `max(1, nproc − 1)` readers running beside the
    /// writer that streams the delta batches in.
    BesideWriter,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub shape: Shape,
    /// Rows built into the served cube.
    pub tuples: usize,
    /// Minimum support of the build, the served cube and the live cube.
    pub minsup: u64,
    /// Rows the maintained and the progressive cube start from.
    pub live_base: usize,
    pub live_batches: usize,
    pub live_rows: usize,
    /// Rounds of the live phases in an untraced run, spread over it: a
    /// progressive build takes a few seconds, which is one spell of the
    /// host, so `progressive_*_s` are medians over this many builds.
    pub live_rounds: usize,
    /// How many of those rounds also run the ingest phase, each from the
    /// base again: all of them where its batches take a second or two,
    /// one where they take ten and `refresh_s` has its samples already.
    pub ingest_rounds: usize,
    /// The progressive build buffers `live_base / progressive_buffers`
    /// rows per node and step.
    pub progressive_buffers: usize,
    /// Cuboid whose estimates are followed during the progressive build,
    /// and the threshold they are requested at.
    pub estimate_dims: [usize; 2],
    pub estimate_minsup: u64,
    /// Point requests per pass.
    pub points: usize,
    /// Navigation requests per pass.
    pub nav_requests: usize,
    pub point_phase: PointPhase,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "sparse_lowsup",
        why: "Paper-baseline shape at minsup 2: 27 cells per tuple, so collecting, sorting, storing and sharding cells outweighs the BUC-family kernels; the cube is far larger than L2 and served on idle cores.",
        shape: Shape::Sparse9,
        tuples: 50_000,
        minsup: 2,
        live_base: 4_000,
        live_batches: 16,
        live_rows: 250,
        live_rounds: 3,
        ingest_rounds: 3,
        progressive_buffers: 3,
        estimate_dims: [4, 5],
        estimate_minsup: 10,
        points: 24_000,
        nav_requests: 12_000,
        point_phase: PointPhase::Quiet,
    },
    Workload {
        name: "dense_live",
        why: "Dense 6-dim relation kept live: 2 cells per tuple, 80 delta batches merged into a 0.9-2.2 M cell floor beside a reader on busy cores, 32-fold progressive builds; merge, reshard, epoch swap dominate.",
        shape: Shape::Dense6,
        tuples: 100_000,
        minsup: 4,
        live_base: 100_000,
        live_batches: 80,
        live_rows: 5_000,
        live_rounds: 5,
        ingest_rounds: 1,
        progressive_buffers: 6,
        estimate_dims: [0, 1],
        estimate_minsup: 50,
        points: 200_000,
        nav_requests: 12_000,
        point_phase: PointPhase::BesideWriter,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// Rows generated: enough for the served cube and for base + deltas.
    pub fn total_rows(&self) -> usize {
        self.tuples
            .max(self.live_base + self.live_batches * self.live_rows)
    }

    /// The seeded generator spec of the workload's relation.
    pub fn relation_spec(&self, seed: u64) -> SyntheticSpec {
        let mut spec = match self.shape {
            Shape::Sparse9 => presets::sized(self.total_rows()),
            Shape::Dense6 => {
                SyntheticSpec::uniform(self.total_rows(), vec![40, 25, 16, 10, 6, 4], seed)
                    .with_skews(vec![0.8, 0.5, 0.3, 0.6, 0.2, 0.0])
            }
        };
        spec.seed = seed;
        spec
    }

    /// The same shapes at sizes that finish in a second or two: for the
    /// structure self-test, never for numbers.
    pub fn smoke(mut self) -> Workload {
        self.tuples = 2_000;
        self.live_base = match self.shape {
            Shape::Sparse9 => 400,
            Shape::Dense6 => 2_000,
        };
        self.live_batches = 4;
        self.live_rows = 100;
        self.progressive_buffers = 3;
        self.estimate_minsup = 4;
        self.points = 2_000;
        self.nav_requests = 2_000;
        self
    }
}
