//! Execution backends for cube plans.
//!
//! A cube algorithm is a *plan* — how the lattice is cut into tasks and
//! what each task computes, stated once as a [`Workload`] — and an
//! *executor* decides how the tasks reach processors:
//!
//! * [`SimExecutor`] runs the plan on the deterministic virtual-time
//!   simulator (`icecube-cluster`). It owns the two scheduling loops of
//!   the paper — static assignment with a recovery sweep (RP, BPP, and
//!   the one-task hash-tree attempt) and the Section 3.3.2
//!   manager/worker loop (ASL, PT, AHT) — plus fault injection and
//!   lost-task recovery. It is the correctness oracle and
//!   the only backend whose cost statistics are meaningful.
//! * [`NativeExecutor`] runs the same plan on real host cores with a
//!   std-only work-stealing thread pool — per-worker deques seeded by a
//!   contiguous-block injection, idle workers stealing from the back of
//!   their neighbours' queues. It measures wall clock, not virtual time.
//!
//! # The deterministic merge rule
//!
//! Both backends return task outputs **in task-id order**, never in
//! completion order. A task's output is a pure function of the plan (the
//! relation, the query, the task's lattice position), so the assignment
//! of tasks to workers — and therefore stealing order, worker count and
//! thread interleaving — cannot leak into the merged result. This is
//! what makes the simulator a byte-identity oracle for the native pool.

#![warn(missing_docs)]

pub mod native;
pub mod sim;

use std::fmt;

use icecube_cluster::{ClusterConfig, RunStats, SimCluster, SimNode};
use icecube_trace::{Registry, TraceLog};

pub use native::NativeExecutor;
pub use sim::SimExecutor;

/// Which execution engine ran (or should run) a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// The deterministic virtual-time cluster simulator.
    #[default]
    Sim,
    /// The native work-stealing thread pool on host cores.
    Native,
}

impl Backend {
    /// Stable lower-case name, also its `Display` form.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Native => "native",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One backend-agnostic unit of cube work.
///
/// The spec carries only scheduling metadata; what the task *does* lives
/// in the [`Workload`] that interprets `id`. Plans hand the executor a
/// slice of specs whose ids are exactly `0..len`. The two orders mean
/// different things: **slice order** is the order a static backend starts
/// tasks in (the native pool injects contiguous slice blocks), **id
/// order** is the simulated manager's pool order. Outputs come back
/// indexed by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskSpec {
    /// Dense plan-local identifier; output slot `id` receives this
    /// task's result.
    pub id: usize,
    /// Affinity hint: the task's lattice position (cuboid or subtree
    /// root mask bits). Tasks with related hints benefit from running
    /// consecutively on one worker; also the trace-span identifier.
    pub affinity: u64,
    /// Relative size hint (e.g. subtree node count or chunk tuples);
    /// purely advisory.
    pub weight: u64,
}

/// A backend-agnostic task decomposition: per-worker scratch, a pure
/// per-task function, and — all defaulted — what a scheduler needs to
/// know about the algorithm to place its tasks the way the paper does.
///
/// `run` must be a pure function of the plan and `spec.id` — it may use
/// `scratch` only as a cache whose contents never change the produced
/// output (arena reuse, affinity-held lists whose reuse is exact). That
/// purity is load-bearing: it is what lets both backends merge outputs
/// in task-id order and come out byte-identical.
///
/// The hooks other than `scratch` and `run` only shape virtual-time
/// accounting and simulated scheduling; the native pool calls none of
/// them but `prologue`.
pub trait Workload: Sync {
    /// Per-worker reusable state (arenas, affinity caches). Created once
    /// per worker, threaded through every task that worker runs.
    type Scratch: Send;
    /// Per-task output, collected in task-id order.
    type Out: Send;

    /// Builds worker `worker`'s scratch state.
    fn scratch(&self, worker: usize) -> Self::Scratch;

    /// Cluster-level staging before anything else runs: whatever moves
    /// data *between* nodes (sends, a barrier), under the workload's own
    /// phase name. The default stages nothing.
    fn stage(&self, cluster: &mut SimCluster) {
        let _ = cluster;
    }

    /// Per-worker setup charged once before the compute phase, the same
    /// on every worker (e.g. the replicated-relation load, under its own
    /// phase name). The default does nothing.
    fn prologue(&self, node: &mut SimNode) {
        let _ = node;
    }

    /// Per-worker setup that differs by worker, charged to worker
    /// `worker` of `workers` as it enters the compute phase (e.g. reading
    /// the chunks it owns). The default does nothing.
    fn worker_prologue(&self, worker: usize, workers: usize, node: &mut SimNode) {
        let _ = (worker, workers, node);
    }

    /// The worker (below `workers`) a statically scheduled plan pins
    /// `spec` to. A plan is static when every task names an owner; the
    /// default names none, which leaves placement to the demand manager.
    fn owner(&self, spec: &TaskSpec, workers: usize) -> Option<usize> {
        let _ = (spec, workers);
        None
    }

    /// The manager's choice: the index into `pending` (never empty) of
    /// the task to hand the worker whose held state is `scratch`. Tasks
    /// reclaimed from crashed workers rejoin the back of `pending`. The
    /// default serves the head of the queue.
    fn pick(&self, pending: &[TaskSpec], scratch: &Self::Scratch) -> usize {
        let _ = (pending, scratch);
        0
    }

    /// Extra cost of re-running `spec` on `node` after its first worker
    /// died with it (e.g. re-deriving input that lived on the dead
    /// worker's disk). The default charges nothing.
    fn recover(&self, spec: &TaskSpec, node: &mut SimNode) {
        let _ = (spec, node);
    }

    /// Executes one task, charging its cost to `node` (virtual time on
    /// the simulator; a throwaway accounting node on the native pool).
    /// `steered` is true when a manager chose this task for this worker
    /// through [`Workload::pick`], false when tasks simply arrive in plan
    /// order — a worker that is steered can rely on the manager for
    /// affinity, one that is not has to arrange its own.
    fn run(
        &self,
        spec: &TaskSpec,
        scratch: &mut Self::Scratch,
        node: &mut SimNode,
        steered: bool,
    ) -> Self::Out;
}

/// Why an executor run failed. Executors never panic in library code;
/// every failure surfaces here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// The plan's task ids are not a permutation of `0..len` (duplicate
    /// or out-of-range id).
    BadPlan {
        /// The offending task id.
        id: usize,
    },
    /// A native worker thread panicked; the run's outputs are gone.
    WorkerPanicked {
        /// Index of the worker whose thread died.
        worker: usize,
    },
    /// A plan slot was left empty: no native worker produced the task's
    /// output.
    TaskAbandoned {
        /// Id of the task that never completed.
        id: usize,
    },
    /// Every simulated node crashed before the plan finished (hand-built
    /// fault plans only; seeded plans always leave a survivor).
    ClusterExhausted {
        /// Nodes the run started with.
        nodes: usize,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::BadPlan { id } => {
                write!(f, "plan task ids must be a permutation of 0..len (id {id})")
            }
            ExecError::WorkerPanicked { worker } => {
                write!(f, "native worker {worker} panicked")
            }
            ExecError::TaskAbandoned { id } => {
                write!(f, "task {id} was abandoned (no worker produced it)")
            }
            ExecError::ClusterExhausted { nodes } => {
                write!(
                    f,
                    "all {nodes} simulated nodes crashed before the plan finished"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// What a run cost and how its work was distributed.
#[derive(Debug, Clone)]
pub struct ExecReport {
    /// Which engine ran the plan.
    pub backend: Backend,
    /// Worker (or simulated node) count.
    pub workers: usize,
    /// Total tasks executed.
    pub tasks: usize,
    /// Virtual makespan (sim) or host wall clock (native), nanoseconds.
    /// The two are **not** comparable to each other: one models a
    /// PIII-500 cluster, the other measures this machine.
    pub wall_ns: u64,
    /// Successful steals from another worker's deque (native only;
    /// always 0 on the simulator, where the manager assigns on demand).
    pub steals: u64,
    /// Tasks completed per worker, indexed by worker id.
    pub tasks_per_worker: Vec<u64>,
    /// Per-worker task spans: virtual-time spans on the simulator (when
    /// the cluster config enables tracing), host wall-clock spans on the
    /// native pool (always recorded).
    pub trace: Option<TraceLog>,
    /// Per-node virtual-time statistics: one node for a sequential run,
    /// empty on the native pool, whose accounting nodes are thrown away.
    pub stats: RunStats,
}

impl ExecReport {
    /// Publishes the report's scalar facts into a metrics registry under
    /// the `exec.` prefix.
    pub fn register_into(&self, registry: &mut Registry) {
        registry.set("exec.workers", self.workers as u64);
        registry.set("exec.tasks", self.tasks as u64);
        registry.set("exec.wall_ns", self.wall_ns);
        registry.set("exec.steals", self.steals);
        for (worker, &tasks) in self.tasks_per_worker.iter().enumerate() {
            registry.set(&format!("exec.worker{worker:02}.tasks"), tasks);
        }
    }
}

/// The decomposition width plans are built at by default (BPP's
/// partition count, PT's division target), so the task list is
/// independent of how many workers run it.
pub const EXEC_UNITS: usize = 8;

/// An engine that runs a [`Workload`]'s plan to completion.
pub trait Executor {
    /// Which engine this is.
    fn backend(&self) -> Backend;

    /// How many workers (or simulated nodes) the engine schedules over.
    fn workers(&self) -> usize;

    /// The decomposition width plans for this engine are built at. The
    /// default is [`EXEC_UNITS`]; the simulator plans at its node count,
    /// as the paper does.
    fn units(&self) -> usize {
        EXEC_UNITS
    }

    /// The seed randomized plan structure is built with (ASL's skip-list
    /// tower heights: search cost, never which cells a list emits). The
    /// default is the simulated cluster's default seed.
    fn seed(&self) -> u64 {
        ClusterConfig::DEFAULT_SEED
    }

    /// Runs every task in `tasks`, returning outputs **in task-id
    /// order** (index `i` holds the output of the spec with `id == i`,
    /// regardless of which worker ran it or when) plus a cost report.
    fn run<W: Workload>(
        &mut self,
        tasks: &[TaskSpec],
        workload: &W,
    ) -> Result<(Vec<W::Out>, ExecReport), ExecError>;
}

/// Checks that the plan's ids are a permutation of `0..len`, the
/// contract both backends rely on for slot-addressed output merging.
pub(crate) fn validate_plan(tasks: &[TaskSpec]) -> Result<(), ExecError> {
    let mut seen = vec![false; tasks.len()];
    for spec in tasks {
        match seen.get_mut(spec.id) {
            Some(seen) if !*seen => *seen = true,
            _ => return Err(ExecError::BadPlan { id: spec.id }),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_names_round_trip() {
        for b in [Backend::Sim, Backend::Native] {
            assert_eq!(format!("{b}"), b.name());
        }
        assert_ne!(Backend::Sim.name(), Backend::Native.name());
    }

    #[test]
    fn plan_validation_rejects_duplicates_and_gaps() {
        let spec = |id| TaskSpec {
            id,
            affinity: 0,
            weight: 1,
        };
        assert!(validate_plan(&[spec(0), spec(1)]).is_ok());
        assert!(validate_plan(&[]).is_ok());
        assert_eq!(
            validate_plan(&[spec(0), spec(0)]),
            Err(ExecError::BadPlan { id: 0 })
        );
        assert_eq!(
            validate_plan(&[spec(1), spec(2)]),
            Err(ExecError::BadPlan { id: 2 })
        );
    }

    #[test]
    fn report_registers_scalar_metrics() {
        let report = ExecReport {
            backend: Backend::Native,
            workers: 2,
            tasks: 5,
            wall_ns: 1234,
            steals: 3,
            tasks_per_worker: vec![4, 1],
            trace: None,
            stats: RunStats::new(Vec::new(), Vec::new()),
        };
        let mut registry = Registry::new();
        report.register_into(&mut registry);
        assert_eq!(registry.get("exec.workers"), Some(2));
        assert_eq!(registry.get("exec.tasks"), Some(5));
        assert_eq!(registry.get("exec.wall_ns"), Some(1234));
        assert_eq!(registry.get("exec.steals"), Some(3));
        assert_eq!(registry.get("exec.worker00.tasks"), Some(4));
        assert_eq!(registry.get("exec.worker01.tasks"), Some(1));
    }

    #[test]
    fn errors_render_their_context() {
        assert!(format!("{}", ExecError::BadPlan { id: 7 }).contains('7'));
        assert!(format!("{}", ExecError::WorkerPanicked { worker: 3 }).contains('3'));
        assert!(format!("{}", ExecError::TaskAbandoned { id: 9 }).contains('9'));
        assert!(format!("{}", ExecError::ClusterExhausted { nodes: 4 }).contains('4'));
    }
}
