//! The virtual-time backend: the paper's two ways of getting tasks to
//! processors, run on a [`SimCluster`].
//!
//! A plan whose every task names an [`owner`](Workload::owner) is
//! **static** (RP, BPP, HashTree): each task runs on its owner in id
//! order, then a recovery sweep hands whatever crashed nodes lost to the
//! survivor with the smallest clock — the one a demand manager would
//! pick. Any other
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

use icecube_cluster::{ClusterConfig, NetFate, SimCluster};

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

/// Everything one run accumulates apart from the cluster itself.
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

/// Demand scheduling, the Section 3.3.2 manager/worker loop. The live
/// node with the smallest clock (ties to the lowest id) is by definition
/// the next to ask for work: it pays the worker → manager RPC and runs
/// the task [`Workload::pick`] chooses for it, or retires if none is
/// left. The manager overlaps a worker on node 0, so no node is reserved;
/// it is assumed to survive every crash.
///
/// A task lost to a crash goes back to the queue, and no assignment
/// happens before the manager could have noticed the death (its
/// detection timeout). Workers that finish early idle until the
/// last one completes: the paper's wall clock is the max over
/// processors.
fn run_demand<W: Workload>(cluster: &mut SimCluster, progress: &mut Progress<'_, W>) {
    let detect = cluster.config.faults.policy.detect_timeout_ns;
    let mut retired = vec![false; cluster.len()];
    // No assignment may happen before this instant: raised to death +
    // detection timeout whenever an in-flight task is lost.
    let mut floor = 0u64;
    while let Some(node) = cluster
        .nodes
        .iter()
        .zip(&retired)
        .filter(|(sim, &done)| !done && !sim.is_dead())
        .min_by_key(|(sim, _)| (sim.clock_ns(), sim.id()))
        .map(|(sim, _)| sim.id())
    {
        cluster.nodes[node].wait_until(floor);
        charge_rpc(cluster, node);
        if cluster.nodes[node].is_dead() {
            continue;
        }
        if progress.pending.is_empty() {
            retired[node] = true;
            continue;
        }
        // A node retires only on an empty queue, and only an attempt, which
        // takes a task from the queue, can lose one back into it: once any
        // node has retired no loss can follow, so no retired node is ever
        // owed a lost task.
        let spec = progress.take(node);
        if !progress.attempt(cluster, node, spec, true) {
            let victim = &mut cluster.nodes[node];
            victim.note_task_lost();
            floor = floor.max(victim.clock_ns() + detect);
        }
    }
    let end = cluster.makespan_ns();
    for sim in &mut cluster.nodes {
        sim.wait_until(end);
    }
    cluster.phase_end("compute");
}

/// Charges `node` one worker → manager RPC round trip. Under message
/// faults a dropped request times out and is retried with backoff, up to
/// the plan's retry cap (counted in `rpc_retries`). The manager is
/// addressed as pseudo-node `cluster.len()` in the fate hash, so RPC
/// fates never collide with data-message fates.
fn charge_rpc(cluster: &mut SimCluster, node: usize) {
    let manager = cluster.len();
    let faults = &cluster.config.faults;
    let policy = faults.policy;
    let Some(worker) = cluster.nodes.get_mut(node) else {
        return;
    };
    let mut attempt: u32 = 0;
    loop {
        let fate = if attempt >= policy.max_retries {
            NetFate::Deliver
        } else {
            faults.net_fate(node, manager, worker.stats.messages)
        };
        worker.charge_rpc();
        if worker.is_dead() {
            return;
        }
        match fate {
            NetFate::Drop => {
                worker.stats.rpc_retries += 1;
                worker.wait_until(worker.clock_ns() + policy.retry_backoff_ns);
                if worker.is_dead() {
                    return;
                }
                attempt += 1;
            }
            NetFate::Delay(extra) => {
                worker.wait_until(worker.clock_ns() + extra);
                return;
            }
            NetFate::Deliver => return,
        }
    }
}

impl Executor for SimExecutor {
    fn backend(&self) -> Backend {
        Backend::Sim
    }

    fn workers(&self) -> usize {
        self.config.nodes.len()
    }

    fn units(&self) -> usize {
        self.config.nodes.len()
    }

    fn seed(&self) -> u64 {
        self.config.seed
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
    use crate::ExecReport;
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

    /// Task `id` costs `.0(id)` reference nanoseconds of CPU; its output
    /// is the node that ran it, a probe of where the manager put it.
    struct Costed(fn(usize) -> u64);

    impl Workload for Costed {
        type Scratch = ();
        type Out = usize;

        fn scratch(&self, _worker: usize) {}

        fn run(&self, spec: &TaskSpec, _: &mut (), node: &mut SimNode, _: bool) -> usize {
            node.charge_cpu((self.0)(spec.id));
            node.id()
        }
    }

    /// Demand-schedules `tasks` [`Costed`] tasks on `config`: the node
    /// each task ran on, by id, and the report.
    fn schedule(
        config: ClusterConfig,
        tasks: usize,
        cost: fn(usize) -> u64,
    ) -> (Vec<usize>, ExecReport) {
        SimExecutor::new(config)
            .run(&plan(tasks), &Costed(cost))
            .unwrap()
    }

    #[test]
    fn schedule_is_deterministic() {
        let go = || {
            let (ran_on, report) = schedule(ClusterConfig::fast_ethernet(4), 33, |t| {
                (t as u64 % 7 + 1) * 1_000_000
            });
            (ran_on, report.wall_ns, report.tasks_per_worker)
        };
        assert_eq!(go(), go());
    }

    #[test]
    fn faulty_schedules_are_deterministic() {
        // Under a seeded fault plan: same placements, same clocks, same
        // recovery counters, and every task completes.
        let go = || {
            let plan_16 = FaultPlan::seeded(5, 16, 100_000_000);
            let config = ClusterConfig::heterogeneous_16().with_faults(plan_16);
            let (ran_on, report) = schedule(config, 64, |t| (t as u64 % 5 + 1) * 1_000_000);
            (
                ran_on,
                report.wall_ns,
                report.tasks_per_worker,
                report.stats,
            )
        };
        let first = go();
        assert!(first.3.total_crashes() > 0, "the plan must bite");
        assert_eq!(first.2.iter().sum::<u64>(), 64, "no task lost for good");
        assert_eq!(first, go());
    }

    #[test]
    fn equal_tasks_spread_evenly() {
        let (_, report) = schedule(ClusterConfig::fast_ethernet(4), 16, |_| 1_000_000);
        // Homogeneous nodes with equal tasks: a perfect 4/4/4/4 split.
        assert_eq!(report.tasks_per_worker, vec![4; 4]);
    }

    #[test]
    fn slower_nodes_receive_fewer_tasks() {
        let (_, report) = schedule(ClusterConfig::heterogeneous_16(), 160, |_| 10_000_000);
        let fast: u64 = report.tasks_per_worker[..8].iter().sum();
        let slow: u64 = report.tasks_per_worker[8..].iter().sum();
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn uneven_tasks_balance_by_demand() {
        // One long task and many short ones: the node holding the long
        // task gets nothing else while the other absorbs the rest.
        let (ran_on, report) = schedule(ClusterConfig::fast_ethernet(2), 10, |t| {
            (if t == 0 { 100 } else { 1 }) * 1_000_000_000
        });
        let with_long = ran_on[0];
        assert_eq!(report.tasks_per_worker[with_long], 1, "{ran_on:?}");
        assert_eq!(report.tasks_per_worker[1 - with_long], 9);
    }

    #[test]
    fn all_clocks_align_at_the_end() {
        let (_, report) = schedule(ClusterConfig::fast_ethernet(3), 4, |_| 5_000_000);
        assert!((0..3).all(|n| report.stats.clock_ns(n) == report.wall_ns));
    }

    #[test]
    fn a_lost_task_is_rerun_on_a_survivor() {
        // Node 1 dies early, mid-task; every task still completes, the
        // lost one on a surviving node.
        let config =
            ClusterConfig::fast_ethernet(4).with_faults(FaultPlan::none().crash(1, 2_000_000));
        let (ran_on, report) = schedule(config, 16, |_| 1_000_000);
        let stats = &report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert_eq!(stats.total_tasks_lost(), 1);
        assert_eq!(stats.total_tasks_recovered(), 1);
        assert_eq!(
            stats.nodes()[1].tasks_recovered,
            0,
            "the dead re-run nothing"
        );
        assert_eq!(report.tasks_per_worker.iter().sum::<u64>(), 16);
        let on_victim = ran_on.iter().filter(|&&n| n == 1).count() as u64;
        assert_eq!(on_victim, report.tasks_per_worker[1], "{ran_on:?}");
    }

    #[test]
    fn recovery_respects_the_detection_timeout() {
        // Node 0 finishes its short task long before node 1's crash can
        // be detected; it must idle until then before re-running the
        // long task node 1 died in.
        let config =
            ClusterConfig::fast_ethernet(2).with_faults(FaultPlan::none().crash(1, 1_500_000));
        let detect = config.faults.policy.detect_timeout_ns;
        let (ran_on, report) = schedule(config, 2, |t| (if t == 0 { 1 } else { 10 }) * 1_000_000);
        assert_eq!(ran_on, vec![0, 0], "the survivor re-ran the lost task");
        let death = report.stats.clock_ns(1);
        assert_eq!(death, 1_500_000);
        // Node 0 ran the long task last, ending at the makespan.
        assert!(
            report.wall_ns - 10_000_000 >= death + detect,
            "restarted before the manager could have detected the crash"
        );
        assert!(report.stats.nodes()[0].idle_ns >= detect - 1_500_000);
    }

    #[test]
    fn a_late_loss_is_rerun_by_an_idle_survivor() {
        // Three tasks on three nodes: node 2 dies inside the long one
        // after the others have finished theirs, and one of them picks
        // the lost task up.
        let config =
            ClusterConfig::fast_ethernet(3).with_faults(FaultPlan::none().crash(2, 30_000_000));
        let (ran_on, report) = schedule(config, 3, |t| if t == 2 { 90_000_000 } else { 1_000_000 });
        assert_ne!(ran_on[2], 2, "{ran_on:?}");
        assert_eq!(report.stats.total_tasks_lost(), 1);
        assert_eq!(report.stats.total_tasks_recovered(), 1);
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
