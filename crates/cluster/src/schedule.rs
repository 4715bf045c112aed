//! Demand-driven (manager/worker) scheduling, simulated deterministically.
//!
//! ASL, AHT and PT assign tasks dynamically: "a processor is designated the
//! job of being the manager responsible for dynamically assigning the next
//! task to a worker processor" (Section 3.3.2). In the simulation, the
//! manager is realized as a greedy event loop: the node with the smallest
//! virtual clock is by definition the next to request work, so the loop
//! repeatedly serves that node, lets the caller's step pick and execute
//! the best task for it (affinity lives with the caller, which holds the
//! per-worker state), and the task's measured cost advances that node's
//! clock. Ties break by node id, making every schedule bit-for-bit
//! reproducible.
//!
//! As in the paper, the manager overlaps a worker on node 0, so no node is
//! reserved; the RPC round trip per task is charged to the worker.
//!
//! # Self-healing
//!
//! When the cluster carries a [`crate::fault::FaultPlan`], the manager
//! loop becomes fault-tolerant (and stays bit-for-bit deterministic):
//!
//! * worker→manager RPCs that hit an injected drop time out and are
//!   retried with backoff, bounded by the plan's
//!   [`crate::fault::RecoveryPolicy`] (counted in `rpc_retries`);
//! * a worker that crashes mid-task loses it; the manager notices after
//!   `detect_timeout_ns` of missed heartbeats and reassigns the task to
//!   a surviving worker (counted in `tasks_lost` on the victim and
//!   `tasks_recovered` on the survivor);
//! * dead workers leave the candidate set, so scheduling continues on
//!   the survivors alone. The manager itself (overlapped on a worker but
//!   logically replicated) is assumed to survive.
//!
//! With a quiet plan the loop reduces exactly to plain demand
//! scheduling — same assignments, same clocks, same counters.

// check:allow-file(panic-path): the one loop here indexes `cluster.nodes`
// and its own per-node flag vectors only with `0..cluster.len()` node
// ids it generates itself; no index comes from a caller.

use crate::SimCluster;

/// Charges one manager/worker RPC round trip, with injected drops causing
/// timed-out retries under the cluster's fault plan. The manager is
/// addressed as pseudo-node `cluster.len()` in the fate hash so RPC fates
/// never collide with data-message fates.
fn charge_rpc_with_faults(cluster: &mut SimCluster, node: usize) {
    let plan = &cluster.config.faults;
    if !plan.has_net_faults() {
        cluster.nodes[node].charge_rpc();
        return;
    }
    let plan = plan.clone();
    let manager = cluster.len();
    let mut attempt: u32 = 0;
    loop {
        let fate = if attempt >= plan.policy.max_retries {
            crate::fault::NetFate::Deliver
        } else {
            plan.net_fate(node, manager, cluster.nodes[node].stats.messages)
        };
        let worker = &mut cluster.nodes[node];
        worker.charge_rpc();
        if worker.is_dead() {
            return;
        }
        match fate {
            crate::fault::NetFate::Drop => {
                worker.stats.rpc_retries += 1;
                worker.wait_until(worker.clock_ns() + plan.policy.retry_backoff_ns);
                if worker.is_dead() {
                    return;
                }
                attempt += 1;
            }
            crate::fault::NetFate::Delay(extra) => {
                worker.wait_until(worker.clock_ns() + extra);
                return;
            }
            crate::fault::NetFate::Deliver => return,
        }
    }
}

/// What the manager is telling the caller about `node` in a
/// [`run_demand_steps_healing`] callback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEvent {
    /// `node` (live, smallest clock) requests work: select and execute a
    /// task on it, returning `false` to retire it (nothing left to hand
    /// out; a later loss elsewhere revives retired survivors).
    Assign,
    /// `node` has crashed: reclaim whatever task it was running back into
    /// the pending pool (rolling back its partial output), returning
    /// `true` iff a task was actually in flight. The manager delays
    /// reassignments by its detection timeout from the moment of death.
    Lost,
}

/// Demand scheduling with caller-managed task state and self-healing.
///
/// The single callback receives a [`StepEvent`] so the caller can both
/// execute work (`Assign`) and reclaim a crashed worker's in-flight task
/// (`Lost`) from one closure (selection state and outputs live in the
/// same captures). Each assignment is preceded by the worker → manager
/// RPC round trip, retried under the fault plan's message drops.
///
/// Recovery timing: after a death with a task in flight, every subsequent
/// assignment waits for the manager's detection timeout to pass — a
/// reclaimed task cannot restart before the manager could have noticed
/// the crash. Workers that finish early idle until the last one
/// completes: the paper's wall clock is the max over processors.
pub fn run_demand_steps_healing<F>(cluster: &mut SimCluster, mut step: F)
where
    F: FnMut(&mut SimCluster, usize, StepEvent) -> bool,
{
    let n = cluster.len();
    let detect = cluster.config.faults.policy.detect_timeout_ns;
    let mut retired = vec![false; n];
    let mut notified = vec![false; n];
    // No assignment may happen before this instant: raised to
    // death + detection timeout whenever an in-flight task is lost.
    let mut floor: u64 = 0;
    loop {
        // Surface any new deaths to the algorithm before assigning.
        let mut reclaimed = false;
        for i in 0..n {
            if cluster.nodes[i].is_dead() && !notified[i] {
                notified[i] = true;
                retired[i] = true;
                let had_task = step(cluster, i, StepEvent::Lost);
                if had_task {
                    cluster.nodes[i].note_task_lost();
                    floor = floor.max(cluster.nodes[i].clock_ns() + detect);
                    reclaimed = true;
                }
            }
        }
        if reclaimed {
            // Survivors that had retired must be re-polled: there is new
            // work in the pool again.
            for (r, node) in retired.iter_mut().zip(&cluster.nodes) {
                if !node.is_dead() {
                    *r = false;
                }
            }
        }
        let Some(node) = (0..n)
            .filter(|&i| !retired[i] && !cluster.nodes[i].is_dead())
            .min_by_key(|&i| (cluster.nodes[i].clock_ns(), i))
        else {
            break;
        };
        cluster.nodes[node].wait_until(floor);
        if cluster.nodes[node].is_dead() {
            continue;
        }
        charge_rpc_with_faults(cluster, node);
        if cluster.nodes[node].is_dead() {
            continue;
        }
        if !step(cluster, node, StepEvent::Assign) {
            retired[node] = true;
        }
    }
    let end = cluster.makespan_ns();
    for node in &mut cluster.nodes {
        node.wait_until(end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::fault::FaultPlan;

    /// Hands tasks `0..total` out in order, costing `cost(task)` CPU ns
    /// each, re-queueing whatever a crashed node had in flight. Returns
    /// the per-node histories of *completed* tasks.
    fn drain(
        cluster: &mut SimCluster,
        total: usize,
        cost: impl Fn(usize) -> u64,
    ) -> Vec<Vec<usize>> {
        let n = cluster.len();
        let mut queue: std::collections::VecDeque<usize> = (0..total).collect();
        let mut inflight: Vec<Option<usize>> = vec![None; n];
        let mut history: Vec<Vec<usize>> = vec![Vec::new(); n];
        run_demand_steps_healing(cluster, |c, node, event| match event {
            StepEvent::Lost => match inflight[node].take() {
                Some(task) => {
                    queue.push_back(task);
                    true
                }
                None => false,
            },
            StepEvent::Assign => {
                let Some(task) = queue.pop_front() else {
                    return false;
                };
                c.nodes[node].charge_cpu(cost(task));
                if c.nodes[node].is_dead() {
                    inflight[node] = Some(task);
                } else {
                    history[node].push(task);
                }
                true
            }
        });
        history
    }

    fn finished(history: &[Vec<usize>]) -> Vec<usize> {
        let mut done: Vec<usize> = history.iter().flatten().copied().collect();
        done.sort_unstable();
        done
    }

    #[test]
    fn equal_tasks_spread_evenly() {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(4));
        let hist = drain(&mut cluster, 16, |_| 1_000_000);
        // Homogeneous nodes with equal tasks: perfect 4/4/4/4 split.
        assert!(hist.iter().all(|h| h.len() == 4), "{hist:?}");
    }

    #[test]
    fn slower_nodes_receive_fewer_tasks() {
        let mut cluster = SimCluster::new(ClusterConfig::heterogeneous_16());
        let hist = drain(&mut cluster, 160, |_| 10_000_000);
        let fast: usize = hist[..8].iter().map(Vec::len).sum();
        let slow: usize = hist[8..].iter().map(Vec::len).sum();
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn uneven_tasks_balance_by_demand() {
        // One long task and many short ones: demand scheduling should give
        // the long-task node nothing else while others absorb the rest.
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(2));
        let hist = drain(
            &mut cluster,
            10,
            |t| if t == 0 { 100 } else { 1 } * 1_000_000_000,
        );
        let with_long = hist.iter().position(|h| h.contains(&0)).unwrap();
        assert_eq!(hist[with_long].len(), 1, "{hist:?}");
        assert_eq!(hist[1 - with_long].len(), 9);
    }

    #[test]
    fn all_clocks_align_at_the_end() {
        let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(3));
        drain(&mut cluster, 4, |_| 5_000_000);
        let end = cluster.makespan_ns();
        assert!(cluster.nodes.iter().all(|n| n.clock_ns() == end));
    }

    #[test]
    fn schedule_is_deterministic() {
        let run = || {
            let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(4));
            let hist = drain(&mut cluster, 33, |t| (t as u64 % 7 + 1) * 1_000_000);
            (hist, cluster.makespan_ns())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_lost_task_is_rerun_on_a_survivor() {
        // Node 1 dies early, mid-task; every task must still complete on
        // a surviving node, exactly once.
        let config =
            ClusterConfig::fast_ethernet(4).with_faults(FaultPlan::none().crash(1, 2_000_000));
        let mut cluster = SimCluster::new(config);
        let hist = drain(&mut cluster, 16, |_| 1_000_000);
        assert_eq!(finished(&hist), (0..16).collect::<Vec<_>>(), "{hist:?}");
        assert!(cluster.nodes[1].is_dead());
        let stats = cluster.run_stats();
        assert_eq!(stats.total_crashes(), 1);
        assert_eq!(stats.total_tasks_lost(), 1);
    }

    #[test]
    fn recovery_respects_the_detection_timeout() {
        // A 2-node cluster where node 1 dies mid-way through its only
        // task: node 0 must not restart it before death + detection.
        let config =
            ClusterConfig::fast_ethernet(2).with_faults(FaultPlan::none().crash(1, 1_500_000));
        let detect = config.faults.policy.detect_timeout_ns;
        let mut cluster = SimCluster::new(config);
        let hist = drain(&mut cluster, 2, |_| 10_000_000);
        assert_eq!(hist[0], vec![0, 1], "survivor re-ran the lost task");
        let death = cluster.nodes[1].clock_ns();
        // Node 0 ran task 0, then task 1 for 10 ms ending at the makespan.
        assert!(
            cluster.makespan_ns() - 10_000_000 >= death + detect,
            "restarted before the manager could have detected the crash"
        );
    }

    #[test]
    fn faulty_schedules_are_deterministic() {
        let run = || {
            let config = ClusterConfig::heterogeneous_16().with_faults(FaultPlan::seeded(
                5,
                16,
                100_000_000,
            ));
            let mut cluster = SimCluster::new(config);
            let hist = drain(&mut cluster, 64, |t| (t as u64 % 5 + 1) * 1_000_000);
            (hist, cluster.makespan_ns(), cluster.run_stats())
        };
        let (h1, m1, s1) = run();
        let (h2, m2, s2) = run();
        assert_eq!(h1, h2);
        assert_eq!(m1, m2);
        assert_eq!(s1, s2);
        assert_eq!(
            finished(&h1),
            (0..64).collect::<Vec<_>>(),
            "no task lost for good"
        );
    }

    #[test]
    fn retired_survivors_are_revived_by_a_late_loss() {
        // Three tasks on three nodes: everyone retires after one task,
        // then node 2 dies inside its long one — a retired survivor must
        // come back for it.
        let config =
            ClusterConfig::fast_ethernet(3).with_faults(FaultPlan::none().crash(2, 30_000_000));
        let mut cluster = SimCluster::new(config);
        let hist = drain(
            &mut cluster,
            3,
            |t| if t == 2 { 90_000_000 } else { 1_000_000 },
        );
        assert_eq!(finished(&hist), vec![0, 1, 2]);
        assert!(cluster.nodes[2].is_dead());
        assert_eq!(cluster.run_stats().total_tasks_lost(), 1);
    }
}
