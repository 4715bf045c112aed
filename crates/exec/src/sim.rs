//! The virtual-time backend: the paper's two ways of getting tasks to
//! processors, run on a [`SimCluster`].
//!
//! A plan whose every task names an [`owner`](Workload::owner) is
//! **static** (RP, BPP): each task runs on its owner in id order, then a
//! recovery sweep hands whatever crashed nodes lost to the survivor with
//! the smallest clock — the one a demand manager would pick. Any other
//! plan is **demand-scheduled** (ASL, PT, AHT): the Section 3.3.2
//! manager/worker loop, where the live node with the smallest clock asks
//! for work and [`Workload::pick`] chooses among the pending tasks given
//! what that worker holds.
//!
//! Either way a task lost to a crash goes to the back of the pending
//! queue and is re-run on a survivor once the manager's detection
//! timeout has passed. Outputs are slotted by task id, so a doomed
//! attempt's cells are simply dropped; only the victim's output counters
//! are rolled back (the invariant `sum(output counts) ==
//! stats.total_cells()` survives every crash). Time is deliberately not
//! rolled back: the virtual nanoseconds the attempt burned really passed.

use icecube_cluster::{run_demand_steps_healing, ClusterConfig, SimCluster, StepEvent};

use crate::{validate_plan, Backend, ExecError, ExecReport, Executor, TaskSpec, Workload};

/// Runs plans on the deterministic cluster simulator.
#[derive(Debug, Clone)]
pub struct SimExecutor {
    config: ClusterConfig,
}

impl SimExecutor {
    /// An executor simulating the given cluster (node specs, disk, net,
    /// fault plan and tracing all come from the config).
    pub fn new(config: ClusterConfig) -> Self {
        SimExecutor { config }
    }

    /// Convenience: `n` paper-baseline nodes on Fast Ethernet.
    pub fn fast_ethernet(n: usize) -> Self {
        SimExecutor::new(ClusterConfig::fast_ethernet(n))
    }

    /// The simulated cluster configuration this executor runs on.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }
}

/// Everything one run accumulates apart from the cluster itself (which
/// the demand loop lends to its callback, so it cannot live here).
struct Progress<'w, W: Workload> {
    workload: &'w W,
    scratches: Vec<W::Scratch>,
    /// Tasks waiting for a worker: the plan in id order, then whatever
    /// crashes send back, in the order they were lost.
    pending: Vec<TaskSpec>,
    /// Output of each completed task, by id.
    outputs: Vec<Option<W::Out>>,
    /// Tasks completed per node.
    completed: Vec<u64>,
    /// By id: the task was lost and has not completed since, so its next
    /// attempt pays [`Workload::recover`] and, on success, counts as a
    /// recovery.
    requeued: Vec<bool>,
}

impl<W: Workload> Progress<'_, W> {
    /// The manager's pick for `node` out of the (non-empty) queue.
    fn take(&mut self, node: usize) -> TaskSpec {
        let at = self.workload.pick(&self.pending, &self.scratches[node]);
        self.pending.remove(at.min(self.pending.len() - 1))
    }

    /// Runs `spec` on `node`. False if the node was dead already or died
    /// before finishing: nothing of the attempt counts and the task is
    /// pending again.
    fn attempt(
        &mut self,
        cluster: &mut SimCluster,
        node: usize,
        spec: TaskSpec,
        steered: bool,
    ) -> bool {
        let sim = &mut cluster.nodes[node];
        if sim.is_dead() {
            self.requeue(spec);
            return false;
        }
        let written = (sim.stats.cells_written, sim.stats.bytes_written);
        sim.charge_task_overhead_for(spec.affinity);
        if self.requeued[spec.id] {
            self.workload.recover(&spec, sim);
        }
        let out = self
            .workload
            .run(&spec, &mut self.scratches[node], sim, steered);
        if sim.is_dead() {
            (sim.stats.cells_written, sim.stats.bytes_written) = written;
            self.requeue(spec);
            return false;
        }
        sim.trace_task_end(spec.affinity);
        if std::mem::take(&mut self.requeued[spec.id]) {
            sim.note_task_recovered();
        }
        self.outputs[spec.id] = Some(out);
        self.completed[node] += 1;
        true
    }

    fn requeue(&mut self, spec: TaskSpec) {
        self.requeued[spec.id] = true;
        self.pending.push(spec);
    }
}

/// Static assignment: every task on its owner, then a sweep over what
/// crashes took, each lost task to the min-clock survivor.
fn run_static<W: Workload>(
    cluster: &mut SimCluster,
    progress: &mut Progress<'_, W>,
    owners: &[usize],
) -> Result<(), ExecError> {
    let nodes = cluster.len();
    let detect = cluster.config.faults.policy.detect_timeout_ns;
    // By id: when the manager has detected the task's latest loss.
    let mut ready_at = vec![0u64; owners.len()];
    for (spec, owner) in std::mem::take(&mut progress.pending)
        .into_iter()
        .zip(owners)
    {
        let owner = owner % nodes;
        if !progress.attempt(cluster, owner, spec, false) {
            cluster.nodes[owner].note_task_lost();
            ready_at[spec.id] = cluster.nodes[owner].clock_ns() + detect;
        }
    }
    cluster.phase_end("compute");
    cluster.phase_start("recover");
    while !progress.pending.is_empty() {
        let survivor = cluster
            .min_clock_live()
            .ok_or(ExecError::ClusterExhausted { nodes })?;
        let spec = progress.take(survivor);
        cluster.nodes[survivor].wait_until(ready_at[spec.id]);
        if cluster.nodes[survivor].is_dead() {
            // Died waiting for the handoff; nothing started.
            progress.pending.push(spec);
        } else if !progress.attempt(cluster, survivor, spec, false) {
            cluster.nodes[survivor].note_task_lost();
            ready_at[spec.id] = cluster.nodes[survivor].clock_ns() + detect;
        }
    }
    cluster.phase_end("recover");
    // The run ends when the slowest processor finishes.
    let end = cluster.makespan_ns();
    for node in &mut cluster.nodes {
        node.wait_until(end);
    }
    Ok(())
}

/// Demand scheduling: the step the manager loop calls for the node that
/// asks for work, and for a node it has found dead.
fn run_demand<W: Workload>(cluster: &mut SimCluster, progress: &mut Progress<'_, W>) {
    // Per node: it died with a task in flight and the loop has not been
    // told yet.
    let mut died_busy = vec![false; cluster.len()];
    run_demand_steps_healing(cluster, |cluster, node, event| match event {
        // The loop counts the loss and delays reassignment; the task is
        // already back in the queue.
        StepEvent::Lost => std::mem::take(&mut died_busy[node]),
        StepEvent::Assign => {
            if progress.pending.is_empty() {
                return false;
            }
            let spec = progress.take(node);
            died_busy[node] = !progress.attempt(cluster, node, spec, true);
            true
        }
    });
    cluster.phase_end("compute");
}

impl Executor for SimExecutor {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn workers(&self) -> usize {
        self.config.nodes.len()
    }

    fn run<W: Workload>(
        &mut self,
        tasks: &[TaskSpec],
        workload: &W,
    ) -> Result<(Vec<W::Out>, ExecReport), ExecError> {
        validate_plan(tasks)?;
        let mut cluster = SimCluster::new(self.config.clone());
        let nodes = cluster.len();
        let mut pending = tasks.to_vec();
        pending.sort_unstable_by_key(|spec| spec.id);
        let owners: Option<Vec<usize>> = pending
            .iter()
            .map(|spec| workload.owner(spec, nodes))
            .collect();
        let mut progress = Progress {
            workload,
            scratches: (0..nodes).map(|w| workload.scratch(w)).collect(),
            pending,
            outputs: (0..tasks.len()).map(|_| None).collect(),
            completed: vec![0; nodes],
            requeued: vec![false; tasks.len()],
        };
        workload.stage(&mut cluster);
        for node in &mut cluster.nodes {
            workload.prologue(node);
        }
        cluster.phase_start("compute");
        for (worker, node) in cluster.nodes.iter_mut().enumerate() {
            workload.worker_prologue(worker, nodes, node);
        }
        match owners {
            Some(owners) => run_static(&mut cluster, &mut progress, &owners)?,
            None => run_demand(&mut cluster, &mut progress),
        }
        // On the simulator a slot stays empty only if every node died.
        let outputs: Vec<W::Out> = progress
            .outputs
            .into_iter()
            .collect::<Option<_>>()
            .ok_or(ExecError::ClusterExhausted { nodes })?;
        let report = ExecReport {
            backend: Backend::Sim,
            workers: nodes,
            tasks: tasks.len(),
            wall_ns: cluster.makespan_ns(),
            steals: 0,
            tasks_per_worker: progress.completed,
            stats: cluster.run_stats(),
            trace: cluster.take_trace(),
        };
        Ok((outputs, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icecube_cluster::{FaultPlan, SimNode};

    /// Each task squares its affinity, writing one cell; scratch counts
    /// invocations.
    struct Square;

    impl Workload for Square {
        type Scratch = u64;
        type Out = u64;

        fn scratch(&self, _worker: usize) -> u64 {
            0
        }

        fn run(&self, spec: &TaskSpec, scratch: &mut u64, node: &mut SimNode, _: bool) -> u64 {
            *scratch += 1;
            node.charge_cpu(1_000_000);
            node.write_cells(spec.affinity, 20, 1);
            spec.affinity * spec.affinity
        }
    }

    /// [`Square`] pinned round-robin: the static path.
    struct PinnedSquare;

    impl Workload for PinnedSquare {
        type Scratch = u64;
        type Out = u64;

        fn scratch(&self, _worker: usize) -> u64 {
            0
        }

        fn owner(&self, spec: &TaskSpec, workers: usize) -> Option<usize> {
            Some(spec.id % workers)
        }

        fn run(
            &self,
            spec: &TaskSpec,
            scratch: &mut u64,
            node: &mut SimNode,
            steered: bool,
        ) -> u64 {
            assert!(!steered, "static plans are not steered");
            Square.run(spec, scratch, node, steered)
        }
    }

    fn plan(len: usize) -> Vec<TaskSpec> {
        (0..len)
            .map(|id| TaskSpec {
                id,
                affinity: id as u64 + 1,
                weight: 1,
            })
            .collect()
    }

    fn squares(len: u64) -> Vec<u64> {
        (1..=len).map(|v| v * v).collect()
    }

    #[test]
    fn outputs_come_back_in_task_id_order() {
        let mut exec = SimExecutor::fast_ethernet(3);
        assert_eq!(exec.backend(), Backend::Sim);
        assert_eq!(exec.workers(), 3);
        let (out, report) = exec.run(&plan(10), &Square).unwrap();
        assert_eq!(out, squares(10));
        assert_eq!(report.tasks, 10);
        assert_eq!(report.steals, 0);
        assert_eq!(report.tasks_per_worker.iter().sum::<u64>(), 10);
        assert!(report.wall_ns > 0);
        assert_eq!(report.stats.makespan_ns(), report.wall_ns);
        assert_eq!(report.stats.total_cells(), 10);
    }

    #[test]
    fn runs_are_deterministic() {
        let go = || {
            let (out, report) = SimExecutor::fast_ethernet(4)
                .run(&plan(33), &Square)
                .unwrap();
            (out, report.wall_ns, report.tasks_per_worker)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn static_plans_run_on_their_owners_without_a_manager() {
        let (out, report) = SimExecutor::fast_ethernet(3)
            .run(&plan(7), &PinnedSquare)
            .unwrap();
        assert_eq!(out, squares(7));
        assert_eq!(report.tasks_per_worker, vec![3, 2, 2]);
        let messages: u64 = report.stats.nodes().iter().map(|s| s.messages).sum();
        assert_eq!(messages, 0);
    }

    #[test]
    fn faults_recover_without_changing_outputs_or_cell_counts() {
        let crash = FaultPlan::none().crash(1, 2_500_000);
        let config = ClusterConfig::fast_ethernet(4).with_faults(crash);
        let (demand, report) = SimExecutor::new(config.clone())
            .run(&plan(16), &Square)
            .unwrap();
        assert_eq!(demand, squares(16));
        let stats = report.stats;
        assert_eq!(stats.total_tasks_lost(), 1);
        assert_eq!(stats.total_tasks_recovered(), 1);
        // The victim's partial attempt is rolled back out of the counters.
        assert_eq!(stats.total_cells(), 16);

        let (pinned, report) = SimExecutor::new(config)
            .run(&plan(16), &PinnedSquare)
            .unwrap();
        assert_eq!(pinned, squares(16));
        let stats = &report.stats;
        // Node 1 finishes two tasks, dies inside its third and never
        // starts its fourth.
        assert_eq!(report.tasks_per_worker[1], 2);
        assert_eq!(stats.total_tasks_lost(), 2);
        assert_eq!(stats.total_tasks_recovered(), 2);
        assert_eq!(stats.total_cells(), 16);
    }

    #[test]
    fn losing_every_node_is_a_typed_error() {
        let total_loss = FaultPlan::none().crash(0, 1_500_000).crash(1, 1_000);
        let config = ClusterConfig::fast_ethernet(2).with_faults(total_loss);
        for result in [
            SimExecutor::new(config.clone()).run(&plan(4), &Square),
            SimExecutor::new(config).run(&plan(4), &PinnedSquare),
        ] {
            assert_eq!(
                result.unwrap_err(),
                ExecError::ClusterExhausted { nodes: 2 }
            );
        }
    }

    #[test]
    fn bad_plans_are_rejected() {
        let mut tasks = plan(4);
        tasks[3].id = 0;
        let err = SimExecutor::fast_ethernet(2)
            .run(&tasks, &Square)
            .unwrap_err();
        assert_eq!(err, ExecError::BadPlan { id: 0 });
    }

    #[test]
    fn tracing_config_yields_task_spans() {
        let config = ClusterConfig::fast_ethernet(2).with_trace();
        let (_, report) = SimExecutor::new(config).run(&plan(6), &Square).unwrap();
        let log = report.trace.expect("tracing enabled");
        assert_eq!(log.task_spans_per_node().iter().sum::<u64>(), 6);
    }
}
