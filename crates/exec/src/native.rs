//! The native backend: a std-only work-stealing thread pool on host
//! cores.
//!
//! Scheduling: the plan is injected as contiguous id blocks, one block
//! per worker, so lattice-adjacent tasks (the affinity the plans encode
//! in id order) start on the same worker. Each worker pops its own deque
//! from the front; an idle worker steals from the *back* of the first
//! non-empty neighbour deque, taking the work its owner would reach
//! last. Tasks never spawn tasks, so a worker whose scan of every deque
//! comes up empty can retire — no spinning, no condition variables.
//!
//! [`NativeExecutor::run_beside`] lends the pool the calling thread: it
//! runs one job of its own, then joins as worker 0, so `n` workers spawn
//! `n - 1` threads. A progressive fold aggregates its next chunk that
//! way, beside the merges. Besides saving a spawn, this keeps allocator
//! arenas down: glibc gives every thread that allocates an arena of its
//! own, and memory freed into one arena is not reused by another. A fold
//! runs while a server's workers hold their own arenas; as a plan of
//! `n` spawned workers it needed one arena more than anything else in
//! the process, and `sparse_lowsup`'s `peak_rss_mb` in `benchmark/`
//! read ×1.12 on a 2-vCPU host. Plain [`Executor::run`] keeps the
//! caller idle: with the caller as worker 0 the builds in `benchmark/`
//! ran up to 18 % slower on `dense_live` (`build_s.pt`, five pairs).
//!
//! Every worker owns a throwaway [`SimNode`] so kernels keep their
//! uniform `&mut SimNode` cost-charging signature; the charges are
//! integer arithmetic against a discarded virtual clock, cheap enough to
//! run inline. Wall-clock task spans are recorded per worker and merged
//! into a [`TraceLog`](icecube_trace::TraceLog), giving the native pool
//! the same Gantt view the simulator gets from virtual time.
//
// check:allow-file(thread-spawn): this module is the one sanctioned
// thread owner in the workspace's execution path — the whole point of
// the crate. Threads are scoped, joined before `run` returns, and panic
// of any worker surfaces as `ExecError::WorkerPanicked`.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use icecube_cluster::{CpuCosts, DiskModel, EventKind, NetModel, NodeSpec, RunStats, SimNode};
use icecube_trace::{TraceBuffer, TraceLog};

use crate::{validate_plan, Backend, ExecError, ExecReport, Executor, TaskSpec, Workload};

/// Runs plans on a work-stealing pool of host threads.
#[derive(Debug, Clone)]
pub struct NativeExecutor {
    workers: usize,
}

impl NativeExecutor {
    /// A pool of exactly `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        NativeExecutor {
            workers: workers.max(1),
        }
    }

    /// A pool sized to the host's available parallelism (1 if unknown).
    pub fn host_parallelism() -> Self {
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
        NativeExecutor::new(workers)
    }

    /// [`Executor::run`], with the calling thread as worker 0: it runs
    /// `beside` first, then takes tasks like the `workers - 1` spawned
    /// threads, which start on the plan at once. Returns `beside`'s
    /// result with the outputs; a panic in `beside` is reported as
    /// worker 0's.
    pub fn run_beside<W: Workload, R>(
        &mut self,
        tasks: &[TaskSpec],
        workload: &W,
        beside: impl FnOnce() -> R,
    ) -> Result<(Vec<W::Out>, R, ExecReport), ExecError> {
        let mut side = None;
        let (outputs, report) = self.run_pool(tasks, workload, Some(|| side = Some(beside())))?;
        let side = side.ok_or(ExecError::WorkerPanicked { worker: 0 })?;
        Ok((outputs, side, report))
    }

    /// Runs the plan on `workers` threads, or, given `caller`, on the
    /// calling thread (which runs `caller` first) and `workers - 1`
    /// spawned ones.
    fn run_pool<W: Workload, C: FnOnce()>(
        &self,
        tasks: &[TaskSpec],
        workload: &W,
        caller: Option<C>,
    ) -> Result<(Vec<W::Out>, ExecReport), ExecError> {
        validate_plan(tasks)?;
        let workers = self.workers;
        // Contiguous id blocks preserve the plans' id-order affinity:
        // worker w starts on tasks [w·per, (w+1)·per).
        let per = tasks.len().div_ceil(workers).max(1);
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        for (block, queue) in queues.iter_mut().enumerate() {
            queue.extend(block * per..((block + 1) * per).min(tasks.len()));
        }
        let pool = Pool {
            queues: queues.into_iter().map(Mutex::new).collect(),
            steals: AtomicU64::new(0),
        };
        let pool = &pool;
        let started = Instant::now();
        // Worker ids are positions in `joined`: the caller first, if any.
        let first_spawned = usize::from(caller.is_some());
        let joined: Vec<std::thread::Result<WorkerYield<W::Out>>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (first_spawned..workers)
                .map(|worker| {
                    scope.spawn(move || worker_loop(worker, pool, tasks, workload, started))
                })
                .collect();
            let own = caller.map(|beside| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    beside();
                    worker_loop(0, pool, tasks, workload, started)
                }))
            });
            own.into_iter()
                .chain(handles.into_iter().map(|handle| handle.join()))
                .collect()
        });
        let wall_ns = started.elapsed().as_nanos() as u64;
        let mut outputs: Vec<Option<W::Out>> = (0..tasks.len()).map(|_| None).collect();
        let mut tasks_per_worker = Vec::with_capacity(workers);
        let mut buffers = Vec::with_capacity(workers);
        for (worker, result) in joined.into_iter().enumerate() {
            let (outs, spans) = result.map_err(|_| ExecError::WorkerPanicked { worker })?;
            tasks_per_worker.push(outs.len() as u64);
            for (id, out) in outs {
                if let Some(slot) = outputs.get_mut(id) {
                    *slot = Some(out);
                }
            }
            buffers.push(spans);
        }
        let merged: Vec<W::Out> = outputs
            .into_iter()
            .enumerate()
            .map(|(id, out)| out.ok_or(ExecError::TaskAbandoned { id }))
            .collect::<Result<_, _>>()?;
        let report = ExecReport {
            backend: Backend::Native,
            workers,
            tasks: tasks.len(),
            wall_ns,
            // relaxed: final read of the statistics tally; every
            // `fetch_add` happened-before the worker joins above.
            steals: pool.steals.load(Ordering::Relaxed),
            tasks_per_worker,
            trace: Some(TraceLog::from_buffers(buffers)),
            stats: RunStats::new(Vec::new(), Vec::new()),
        };
        Ok((merged, report))
    }
}

/// The shared scheduling state: one deque per worker plus a steal tally.
struct Pool {
    queues: Vec<Mutex<VecDeque<usize>>>,
    steals: AtomicU64,
}

/// Locks a deque, recovering the guard if a panicking worker poisoned
/// it — the deque holds plain task indices, which cannot be left in a
/// broken state, and the panic itself is reported at join time.
fn lock(queue: &Mutex<VecDeque<usize>>) -> MutexGuard<'_, VecDeque<usize>> {
    queue.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Takes the next task index for `worker`: own deque front first, then a
/// steal from the back of the first non-empty other deque. `None` means
/// every deque was observed empty — with no task spawning, that worker
/// can retire (a task still in flight elsewhere is owned by its runner).
fn next_task(worker: usize, pool: &Pool) -> Option<usize> {
    if let Some(task) = pool.queues.get(worker).and_then(|q| lock(q).pop_front()) {
        return Some(task);
    }
    let n = pool.queues.len();
    for offset in 1..n {
        let victim = (worker + offset) % n;
        if let Some(task) = pool.queues.get(victim).and_then(|q| lock(q).pop_back()) {
            // relaxed: an independent statistics tally — no other memory
            // access is ordered against it, and it is only read after
            // every worker has been joined.
            pool.steals.fetch_add(1, Ordering::Relaxed);
            return Some(task);
        }
    }
    None
}

/// What one worker hands back at join: `(id, output)` pairs in
/// completion order plus its wall-clock span buffer.
type WorkerYield<O> = (Vec<(usize, O)>, TraceBuffer);

/// One worker's life: build scratch, absorb the prologue on a throwaway
/// accounting node, then drain tasks until every deque is empty.
fn worker_loop<W: Workload>(
    worker: usize,
    pool: &Pool,
    tasks: &[TaskSpec],
    workload: &W,
    started: Instant,
) -> WorkerYield<W::Out> {
    let mut scratch = workload.scratch(worker);
    let mut node = SimNode::new(
        worker,
        NodeSpec::FAST,
        DiskModel::COMMODITY,
        NetModel::FAST_ETHERNET,
        CpuCosts::PIII_500,
    );
    workload.prologue(&mut node);
    let mut outputs = Vec::new();
    let mut spans = TraceBuffer::new();
    while let Some(index) = next_task(worker, pool) {
        // Queues hold only indices into `tasks`; a stray one would leave
        // its slot empty and surface as `TaskAbandoned`.
        let Some(spec) = tasks.get(index) else {
            continue;
        };
        spans.record(
            started.elapsed().as_nanos() as u64,
            EventKind::TaskStart {
                task: spec.affinity,
            },
        );
        let out = workload.run(spec, &mut scratch, &mut node, false);
        spans.record(
            started.elapsed().as_nanos() as u64,
            EventKind::TaskEnd {
                task: spec.affinity,
            },
        );
        outputs.push((spec.id, out));
    }
    (outputs, spans)
}

impl Executor for NativeExecutor {
    fn backend(&self) -> Backend {
        Backend::Native
    }

    fn workers(&self) -> usize {
        self.workers
    }

    fn run<W: Workload>(
        &mut self,
        tasks: &[TaskSpec],
        workload: &W,
    ) -> Result<(Vec<W::Out>, ExecReport), ExecError> {
        self.run_pool(tasks, workload, None::<fn()>)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Squares its affinity after spinning proportionally to weight, so
    /// uneven plans actually exercise stealing.
    struct Square;

    impl Workload for Square {
        type Scratch = u64;
        type Out = u64;

        fn scratch(&self, _worker: usize) -> u64 {
            0
        }

        fn run(&self, spec: &TaskSpec, scratch: &mut u64, _: &mut SimNode, _: bool) -> u64 {
            for _ in 0..spec.weight * 1000 {
                *scratch = scratch.wrapping_add(1);
            }
            spec.affinity * spec.affinity
        }
    }

    fn plan(len: usize) -> Vec<TaskSpec> {
        (0..len)
            .map(|id| TaskSpec {
                id,
                affinity: id as u64 + 1,
                weight: if id == 0 { 500 } else { 1 },
            })
            .collect()
    }

    #[test]
    fn outputs_come_back_in_task_id_order_for_any_worker_count() {
        let want: Vec<u64> = (1..=40).map(|v: u64| v * v).collect();
        for workers in [1, 2, 3, 8, 64] {
            let (out, report) = NativeExecutor::new(workers)
                .run(&plan(40), &Square)
                .unwrap();
            assert_eq!(out, want, "workers={workers}");
            assert_eq!(report.workers, workers);
            assert_eq!(report.tasks_per_worker.iter().sum::<u64>(), 40);
        }
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut exec = NativeExecutor::new(0);
        assert_eq!(exec.workers(), 1);
        let (out, report) = exec.run(&plan(5), &Square).unwrap();
        assert_eq!(out.len(), 5);
        assert_eq!(report.steals, 0, "one worker has nobody to steal from");
    }

    #[test]
    fn empty_plans_complete() {
        let (out, report) = NativeExecutor::new(4).run(&[], &Square).unwrap();
        assert!(out.is_empty());
        assert_eq!(report.tasks, 0);
    }

    #[test]
    fn wall_clock_spans_cover_every_task() {
        let (_, report) = NativeExecutor::new(3).run(&plan(12), &Square).unwrap();
        let log = report.trace.expect("native always traces spans");
        assert_eq!(log.task_spans_per_node().iter().sum::<u64>(), 12);
    }

    #[test]
    fn bad_plans_are_rejected() {
        let mut tasks = plan(4);
        tasks[2].id = 9;
        let err = NativeExecutor::new(2).run(&tasks, &Square).unwrap_err();
        assert_eq!(err, ExecError::BadPlan { id: 9 });
    }

    #[test]
    fn run_beside_lends_the_calling_thread_as_worker_zero() {
        struct WhoRuns;
        impl Workload for WhoRuns {
            type Scratch = ();
            type Out = std::thread::ThreadId;
            fn scratch(&self, _worker: usize) {}
            fn run(&self, _: &TaskSpec, _: &mut (), _: &mut SimNode, _: bool) -> Self::Out {
                std::thread::current().id()
            }
        }
        let caller = std::thread::current().id();
        let (out, side, report) = NativeExecutor::new(1)
            .run_beside(&plan(6), &WhoRuns, || std::thread::current().id())
            .unwrap();
        assert_eq!(side, caller);
        assert!(
            out.iter().all(|&id| id == caller),
            "one worker is the caller"
        );
        assert_eq!(report.tasks_per_worker, vec![6]);
        let want: Vec<u64> = (1..=40).map(|v: u64| v * v).collect();
        for workers in [1, 2, 3, 8] {
            let (out, side, report) = NativeExecutor::new(workers)
                .run_beside(&plan(40), &Square, || workers)
                .unwrap();
            assert_eq!((out, side), (want.clone(), workers));
            assert_eq!(report.tasks_per_worker.iter().sum::<u64>(), 40);
        }
    }

    #[test]
    fn worker_panics_surface_as_errors() {
        struct Bomb;
        impl Workload for Bomb {
            type Scratch = ();
            type Out = ();
            fn scratch(&self, _worker: usize) {}
            fn run(&self, spec: &TaskSpec, _: &mut (), _: &mut SimNode, _: bool) {
                assert!(spec.id != 3, "boom");
            }
        }
        let err = NativeExecutor::new(2).run(&plan(8), &Bomb).unwrap_err();
        assert!(matches!(err, ExecError::WorkerPanicked { .. }));
        // A panic on a lent calling thread is caught, not propagated.
        let err = NativeExecutor::new(1)
            .run_beside(&plan(8), &Bomb, || ())
            .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanicked { worker: 0 });
        let err = NativeExecutor::new(2)
            .run_beside(&plan(8), &Square, || panic!("beside"))
            .unwrap_err();
        assert_eq!(err, ExecError::WorkerPanicked { worker: 0 });
    }
}
