//! The concurrent request loop: a fixed pool of worker threads answering
//! typed requests against the current epoch of a refreshable
//! [`ShardedCube`].
//!
//! Clients hold cloneable [`ClientHandle`]s and submit [`Request`]s; each
//! request becomes a job on an MPMC queue (an `mpsc` channel whose
//! receiver the workers share behind a mutex — only the *dequeue* is
//! serialized, the cube reads themselves run fully in parallel since each
//! epoch's cube is immutable). Every worker records latency (enqueue to
//! answer, one sample per leaf) and routing counters into shared [`Metrics`].
//! A malformed request is answered with [`Response::Error`], never a
//! worker panic, so one bad client cannot take down the pool; lifecycle
//! problems (zero workers, a closed queue) come back as typed
//! [`ServeError`]s rather than panics.
//!
//! **Epoch-swap refresh.** The served cube lives inside an
//! [`EpochSnapshot`] behind `Mutex<Arc<…>>`. A worker clones the `Arc`
//! exactly once per dequeued job and answers the *whole* job — every leaf
//! of a batch included — from that snapshot, so a concurrent
//! [`CubeServer::refresh`] can never tear a response across epochs. The
//! refresh itself builds the replacement cube outside the lock and holds
//! it only for the pointer swap; queries in flight keep serving from
//! the epoch they started on, and the old cube is freed when the last
//! such query drops its `Arc`. Every [`Answer`] carries the epoch it was
//! answered from, which is what the equivalence and concurrency suites
//! pin their no-torn-reads property on.
//!
//! All blocking primitives come from [`crate::sync`], so building with
//! the `icecube_loom` feature puts the whole submit/steal/refresh/
//! shutdown protocol under the deterministic model checker's scheduler.

use crate::error::ServeError;
use crate::metrics::{Metrics, ServerStats};
use crate::planner;
use crate::request::{CellEstimate, Request, RequestError, Response, RollUpPlan};
use crate::shard::ShardedCube;
use crate::sync::mpsc::{self, Receiver, Sender};
use crate::sync::{thread, Arc, Instant, Mutex};
use icecube_core::{Aggregate, CubeStore};
use icecube_online::{scaled_count, scaled_sum, AggBound, Progress};

/// One immutable published generation of the served cube.
///
/// Workers answer each job entirely from one snapshot; refreshing the
/// server publishes a new snapshot with the next epoch number. An epoch
/// published by a progressive build additionally carries the build's
/// [`Progress`] — the slack accounting estimate requests bound their
/// answers with; finished cubes carry `None` and answer estimate
/// requests with a typed error.
#[derive(Debug)]
pub struct EpochSnapshot {
    epoch: u64,
    cube: ShardedCube,
    progress: Option<Progress>,
}

impl EpochSnapshot {
    /// The epoch number (starts at 1, +1 per refresh).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sharded cube this epoch serves.
    pub fn cube(&self) -> &ShardedCube {
        &self.cube
    }

    /// The progressive build state behind this epoch, when it has one.
    pub fn progress(&self) -> Option<&Progress> {
        self.progress.as_ref()
    }
}

/// A worker's reply: the response plus the epoch it was answered from.
///
/// The epoch makes consistency *observable*: a response produced while a
/// refresh raced it is still attributable to exactly one published
/// snapshot, batches included.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Epoch of the snapshot that produced the response.
    pub epoch: u64,
    /// The response itself.
    pub response: Response,
}

/// What a dequeued job asks of the worker: answer a request, or die.
enum Work {
    Serve(Request),
    /// Injected worker death (see [`ClientHandle::kill_worker`]): the
    /// worker that dequeues this exits cleanly without answering.
    Crash,
}

/// One queued job plus everything needed to answer and account it.
struct Job {
    work: Work,
    enqueued: Instant,
    reply: Sender<Answer>,
}

/// A pool of worker threads serving the current epoch of a sharded cube.
///
/// Dropping the server (or calling [`CubeServer::shutdown`]) closes the
/// queue and joins every worker.
pub struct CubeServer {
    current: Arc<Mutex<Arc<EpochSnapshot>>>,
    metrics: Arc<Metrics>,
    tx: Option<Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl CubeServer {
    /// Starts `workers` threads serving `cube`.
    ///
    /// # Errors
    /// [`ServeError::NoWorkers`] when `workers` is zero;
    /// [`ServeError::Spawn`] when the OS refuses a worker thread (any
    /// workers already started are joined first).
    pub fn start(cube: ShardedCube, workers: usize) -> Result<Self, ServeError> {
        CubeServer::start_with(cube, workers, None)
    }

    /// Starts `workers` threads serving the floor of a progressive build
    /// alongside its [`Progress`], enabling the estimate requests.
    ///
    /// `cube` must be sharded from the build's minimum-support-1 *floor*:
    /// bound arithmetic needs every sub-threshold partial cell, and
    /// serving a thresholded store would silently drop the cells whose
    /// bounds still straddle the threshold.
    ///
    /// # Errors
    /// [`ServeError::ProgressiveFloor`] when `cube` was thresholded above
    /// minimum support 1, plus everything [`CubeServer::start`] returns.
    pub fn start_progressive(
        cube: ShardedCube,
        workers: usize,
        progress: Progress,
    ) -> Result<Self, ServeError> {
        if cube.minsup() != 1 {
            return Err(ServeError::ProgressiveFloor {
                minsup: cube.minsup(),
            });
        }
        CubeServer::start_with(cube, workers, Some(progress))
    }

    fn start_with(
        cube: ShardedCube,
        workers: usize,
        progress: Option<Progress>,
    ) -> Result<Self, ServeError> {
        if workers == 0 {
            return Err(ServeError::NoWorkers);
        }
        let metrics = Arc::new(Metrics::new(cube.shard_count()));
        let current = Arc::new(Mutex::new(Arc::new(EpochSnapshot {
            epoch: 1,
            cube,
            progress,
        })));
        let (tx, rx) = mpsc::channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let mut pool = Vec::with_capacity(workers);
        for i in 0..workers {
            let current = Arc::clone(&current);
            let metrics = Arc::clone(&metrics);
            let rx = Arc::clone(&rx);
            let spawned = thread::Builder::new()
                .name(format!("icecube-serve-{i}"))
                .spawn(move || worker_loop(&current, &metrics, rx));
            match spawned {
                Ok(handle) => pool.push(handle),
                Err(e) => {
                    // Close the queue so the workers that did start see
                    // disconnection and exit before we report failure.
                    drop(tx);
                    for w in pool {
                        let _ = w.join();
                    }
                    return Err(ServeError::Spawn(e));
                }
            }
        }
        Ok(CubeServer {
            current,
            metrics,
            tx: Some(tx),
            workers: pool,
        })
    }

    /// The currently published snapshot (cube + epoch). The returned
    /// `Arc` stays valid across refreshes — it is *that* epoch, frozen.
    pub fn snapshot(&self) -> Arc<EpochSnapshot> {
        Arc::clone(
            &self
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        )
    }

    /// The current epoch number.
    pub fn epoch(&self) -> u64 {
        self.snapshot().epoch
    }

    /// Publishes `store` as the next epoch, partitioned at the current
    /// shard count, and returns the new epoch number.
    ///
    /// The replacement cube is built before the swap; the publication
    /// itself is a single pointer exchange under the snapshot lock, so
    /// every job dequeued before the swap finishes on the old epoch and
    /// every job after it sees the new one — no request is ever torn
    /// across both. The shard count is preserved so routing metrics stay
    /// comparable across refreshes.
    ///
    /// # Errors
    /// [`ServeError::RefreshDims`] when `store`'s dimensionality differs
    /// from the served cube's (an incremental refresh extends dictionary
    /// *cardinalities*, never the dimension count).
    pub fn refresh(&self, store: &CubeStore) -> Result<u64, ServeError> {
        self.publish(store, None)
    }

    /// Publishes a progressive build's floor and its [`Progress`] as the
    /// next epoch, and returns the new epoch number.
    ///
    /// The same single-pointer-swap discipline as [`CubeServer::refresh`]
    /// applies, so a floor and its progress are always published
    /// *together*: no job can ever pair one epoch's cells with another
    /// epoch's slack, which is what keeps every bound sound under a
    /// publish storm.
    ///
    /// # Errors
    /// [`ServeError::ProgressiveFloor`] when `store` was thresholded
    /// above minimum support 1; [`ServeError::RefreshDims`] as for
    /// [`CubeServer::refresh`].
    pub fn publish_progressive(
        &self,
        store: &CubeStore,
        progress: Progress,
    ) -> Result<u64, ServeError> {
        if store.minsup() != 1 {
            return Err(ServeError::ProgressiveFloor {
                minsup: store.minsup(),
            });
        }
        self.publish(store, Some(progress))
    }

    fn publish(&self, store: &CubeStore, progress: Option<Progress>) -> Result<u64, ServeError> {
        let (dims, shards) = {
            let cur = self
                .current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            (cur.cube.dims(), cur.cube.shard_count())
        };
        if store.dims() != dims {
            return Err(ServeError::RefreshDims {
                served: dims,
                offered: store.dims(),
            });
        }
        // Routing the new cube happens outside the lock; its cells are
        // shared with `store`, not copied.
        let cube = ShardedCube::new(store, shards);
        let mut cur = self
            .current
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let epoch = cur.epoch + 1;
        *cur = Arc::new(EpochSnapshot {
            epoch,
            cube,
            progress,
        });
        Ok(epoch)
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// A cloneable handle clients submit requests through.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] once [`CubeServer::shutdown`] has closed
    /// the queue.
    pub fn handle(&self) -> Result<ClientHandle, ServeError> {
        match &self.tx {
            Some(tx) => Ok(ClientHandle { tx: tx.clone() }),
            None => Err(ServeError::ShutDown),
        }
    }

    /// Snapshot of the server's counters and latency quantiles.
    pub fn stats(&self) -> ServerStats {
        self.metrics.snapshot()
    }

    /// Closes the queue and joins every worker. In-flight requests are
    /// answered; handles created earlier keep the queue open until dropped.
    pub fn shutdown(&mut self) {
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for CubeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// A client's sending side of the server queue. Cloning is cheap; every
/// clone holds the queue open until dropped.
#[derive(Clone)]
pub struct ClientHandle {
    tx: Sender<Job>,
}

impl ClientHandle {
    /// Enqueues a request, returning the channel its epoch-tagged answer
    /// arrives on.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when every worker is gone (the queue's
    /// receiving side disconnected), so the job can never be answered.
    pub fn submit(&self, req: Request) -> Result<Receiver<Answer>, ServeError> {
        let (reply, answer) = mpsc::channel();
        let job = Job {
            work: Work::Serve(req),
            enqueued: Instant::now(),
            reply,
        };
        match self.tx.send(job) {
            Ok(()) => Ok(answer),
            Err(_) => Err(ServeError::ShutDown),
        }
    }

    /// Injects a worker death: the worker that dequeues this job exits
    /// cleanly without answering, so its reply sender drops and `recv` on
    /// the returned channel erroring confirms the death. A chaos hook for
    /// tests and the `icecube-check` concurrency scenarios. Surviving
    /// workers keep serving; once every worker is gone, later submissions
    /// fail with [`ServeError::ShutDown`] instead of hanging.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when no worker is left to kill.
    pub fn kill_worker(&self) -> Result<Receiver<Answer>, ServeError> {
        let (reply, observer) = mpsc::channel();
        let job = Job {
            work: Work::Crash,
            enqueued: Instant::now(),
            reply,
        };
        match self.tx.send(job) {
            Ok(()) => Ok(observer),
            Err(_) => Err(ServeError::ShutDown),
        }
    }

    /// Enqueues a request and blocks for its answer, discarding the epoch
    /// tag (use [`ClientHandle::call_tagged`] to observe it).
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when the server shut down before the
    /// answer arrived.
    pub fn call(&self, req: Request) -> Result<Response, ServeError> {
        self.call_tagged(req).map(|a| a.response)
    }

    /// Enqueues a request and blocks for its epoch-tagged answer.
    ///
    /// # Errors
    /// [`ServeError::ShutDown`] when the server shut down before the
    /// answer arrived.
    pub fn call_tagged(&self, req: Request) -> Result<Answer, ServeError> {
        self.submit(req)?.recv().map_err(|_| ServeError::ShutDown)
    }
}

fn worker_loop(
    current: &Mutex<Arc<EpochSnapshot>>,
    metrics: &Metrics,
    rx: Arc<Mutex<Receiver<Job>>>,
) {
    loop {
        // Hold the lock only for the dequeue, never while answering. A
        // poisoned lock means a sibling worker panicked mid-dequeue; the
        // receiver it guards is still sound, so keep serving.
        let job = match rx
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .recv()
        {
            Ok(job) => job,
            Err(_) => return, // every sender dropped: shutdown
        };
        let Job {
            work,
            enqueued,
            reply,
        } = job;
        let req = match work {
            Work::Serve(req) => req,
            Work::Crash => {
                // Release our share of the queue *before* the reply
                // sender drops: a client observing the last worker's
                // death must find the queue already disconnected, never
                // a receiver-less queue that accepts jobs forever.
                drop(rx);
                return;
            }
        };
        // Pin the epoch exactly once per job: the whole request — every
        // leaf of a batch — is answered from this snapshot, however many
        // refreshes land while it runs.
        let snapshot = Arc::clone(
            &current
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        let mut since = enqueued;
        let resp = execute(
            snapshot.cube(),
            snapshot.progress(),
            metrics,
            &req,
            &mut since,
        );
        // The client may have given up waiting; that is not a server error.
        let _ = reply.send(Answer {
            epoch: snapshot.epoch(),
            response: resp,
        });
    }
}

/// Answers one request, recording counters and one latency sample per
/// leaf. Batches recurse.
///
/// `since` is when the job was enqueued; each leaf records the time from
/// it to its own answer and then moves it there, so the first leaf of a
/// job carries the queue wait, every later leaf only its own execution,
/// and a job's samples add up to (never beyond) its enqueue-to-reply time.
fn execute(
    cube: &ShardedCube,
    progress: Option<&Progress>,
    metrics: &Metrics,
    req: &Request,
    since: &mut Instant,
) -> Response {
    if let Request::Batch(reqs) = req {
        return Response::Batch(
            reqs.iter()
                .map(|r| execute(cube, progress, metrics, r, since))
                .collect(),
        );
    }
    Metrics::bump(&metrics.requests);
    let resp = execute_leaf(cube, progress, metrics, req, since);
    if matches!(resp, Response::Error(_)) {
        Metrics::bump(&metrics.errors);
    }
    let ns = since.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    metrics.latency.record(ns);
    *since = Instant::now();
    resp
}

/// Answers one non-batch request. (The batch arm recurses through
/// [`execute`] for exhaustiveness, but `execute` intercepts batches
/// before calling here.)
fn execute_leaf(
    cube: &ShardedCube,
    progress: Option<&Progress>,
    metrics: &Metrics,
    req: &Request,
    since: &mut Instant,
) -> Response {
    match req {
        Request::Point { cuboid, key } => match cube.get(*cuboid, key) {
            Ok(agg) => {
                let shard = cube.shard_of(*cuboid, key);
                if let Some(s) = metrics.shards.get(shard) {
                    Metrics::bump(&s.routed);
                }
                Response::Point(agg)
            }
            Err(e) => Response::Error(e),
        },
        Request::Slice { cuboid, dim, value } => {
            fan_out(metrics, cube.slice(*cuboid, *dim, *value))
        }
        Request::DrillDown { cuboid, key, dim } => {
            fan_out(metrics, cube.drill_down(*cuboid, key, *dim))
        }
        Request::Cuboid { cuboid, minsup } => fan_out(metrics, cube.query(*cuboid, *minsup)),
        Request::RollUp { cuboid, key, dim } => match planner::roll_up(cube, *cuboid, key, *dim) {
            Ok((cell, plan, exact)) => {
                match plan {
                    RollUpPlan::Stored => {
                        Metrics::bump(&metrics.rollup_stored);
                        // The planner validated `dim ∈ cuboid`, so the
                        // parent key is re-derivable for routing; if the
                        // position were somehow absent we'd only skip the
                        // routing counter, never the answer.
                        let parent = cuboid.without_dim(*dim);
                        if !parent.is_all() {
                            if let Some(pos) = cuboid.iter_dims().position(|d| d == *dim) {
                                let mut pkey = key.clone();
                                pkey.remove(pos);
                                let shard = cube.shard_of(parent, &pkey);
                                if let Some(s) = metrics.shards.get(shard) {
                                    Metrics::bump(&s.routed);
                                }
                            }
                        }
                    }
                    RollUpPlan::Aggregated => {
                        Metrics::bump(&metrics.rollup_aggregated);
                        for s in &metrics.shards {
                            Metrics::bump(&s.scanned);
                        }
                    }
                }
                Response::RolledUp { cell, plan, exact }
            }
            Err(e) => Response::Error(e),
        },
        Request::EstimatePoint { cuboid, key } => {
            let Some(p) = progress else {
                return Response::Error(RequestError::NotProgressive);
            };
            match cube.get(*cuboid, key) {
                Ok(partial) => {
                    let shard = cube.shard_of(*cuboid, key);
                    if let Some(s) = metrics.shards.get(shard) {
                        Metrics::bump(&s.routed);
                    }
                    // An unseen key is a legal progressive answer: the
                    // bound starts from the empty aggregate and the
                    // region's full slack.
                    let partial = partial.unwrap_or_else(Aggregate::empty);
                    let bound = AggBound::over(&partial, &p.envelope_for(*cuboid, key));
                    let cell = estimate_cell(key.clone(), &partial, bound, p, bound.is_exact());
                    progress_response(vec![cell], p)
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::EstimateCuboid { cuboid, minsup } => {
            let Some(p) = progress else {
                return Response::Error(RequestError::NotProgressive);
            };
            // Progressive epochs serve the minimum-support-1 floor, so
            // this enumerates every partial cell seen so far.
            match cube.query(*cuboid, cube.minsup()) {
                Ok(partials) => {
                    for s in &metrics.shards {
                        Metrics::bump(&s.scanned);
                    }
                    let mut cells = Vec::new();
                    for (key, agg) in partials {
                        let bound = AggBound::over(&agg, &p.envelope_for(*cuboid, &key));
                        // Keep every cell whose count can still reach the
                        // threshold; flag the ones already guaranteed in.
                        if bound.count_hi >= *minsup {
                            let definite = bound.count_lo >= *minsup;
                            cells.push(estimate_cell(key, &agg, bound, p, definite));
                        }
                    }
                    Metrics::add(&metrics.cells_returned, cells.len() as u64);
                    progress_response(cells, p)
                }
                Err(e) => Response::Error(e),
            }
        }
        Request::Batch(_) => execute(cube, progress, metrics, req, since),
    }
}

/// Builds one estimated cell: the extrapolated point estimate, clamped
/// into the bound so an estimate can never leave its own interval.
fn estimate_cell(
    key: Vec<u32>,
    partial: &Aggregate,
    bound: AggBound,
    p: &Progress,
    definite: bool,
) -> CellEstimate {
    CellEstimate {
        key,
        bound,
        est_count: bound.clamp_count(scaled_count(partial.count, p.rows_folded(), p.rows_total())),
        est_sum: bound.clamp_sum(scaled_sum(partial.sum, p.rows_folded(), p.rows_total())),
        definite,
    }
}

/// Wraps estimated cells with the epoch's progress summary.
fn progress_response(cells: Vec<CellEstimate>, p: &Progress) -> Response {
    Response::Estimate {
        cells,
        chunks_folded: p.chunks_folded(),
        chunks_total: p.chunks_total(),
        rows_folded: p.rows_folded(),
        rows_total: p.rows_total(),
        converged: p.converged(),
    }
}

/// Wraps a fan-out result, counting shard visits and returned cells.
fn fan_out(
    metrics: &Metrics,
    result: Result<Vec<(Vec<u32>, icecube_core::Aggregate)>, crate::request::RequestError>,
) -> Response {
    match result {
        Ok(cells) => {
            for s in &metrics.shards {
                Metrics::bump(&s.scanned);
            }
            Metrics::add(&metrics.cells_returned, cells.len() as u64);
            Response::Cells(cells)
        }
        Err(e) => Response::Error(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestError;
    use icecube_cluster::ClusterConfig;
    use icecube_core::fixtures::sales;
    use icecube_core::{run_parallel, Algorithm, CubeStore, IcebergQuery};
    use icecube_lattice::CuboidMask;

    fn server(shards: usize, workers: usize) -> CubeServer {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        let store = CubeStore::from_outcome(3, 1, out);
        CubeServer::start(ShardedCube::new(&store, shards), workers).expect("workers > 0")
    }

    #[test]
    fn zero_workers_is_a_typed_error() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 1);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        let store = CubeStore::from_outcome(3, 1, out);
        match CubeServer::start(ShardedCube::new(&store, 2), 0) {
            Err(ServeError::NoWorkers) => {}
            other => panic!("unexpected {other:?}", other = other.map(|_| ())),
        }
    }

    #[test]
    fn serves_every_request_kind() {
        let srv = server(3, 4);
        let h = srv.handle().expect("running");
        let g01 = CuboidMask::from_dims(&[0, 1]);
        let g0 = CuboidMask::from_dims(&[0]);

        match h
            .call(Request::Point {
                cuboid: g0,
                key: vec![0],
            })
            .expect("running")
        {
            Response::Point(Some(agg)) => assert!(agg.count > 0),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::Cuboid {
                cuboid: g01,
                minsup: 1,
            })
            .expect("running")
        {
            Response::Cells(cells) => assert!(!cells.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::RollUp {
                cuboid: g01,
                key: vec![0, 2],
                dim: 1,
            })
            .expect("running")
        {
            Response::RolledUp { cell, plan, exact } => {
                assert!(cell.is_some());
                assert_eq!(plan, RollUpPlan::Stored);
                assert!(exact);
            }
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::Batch(vec![
                Request::Slice {
                    cuboid: g01,
                    dim: 1,
                    value: 2,
                },
                Request::DrillDown {
                    cuboid: g0,
                    key: vec![0],
                    dim: 1,
                },
            ]))
            .expect("running")
        {
            Response::Batch(answers) => {
                assert_eq!(answers.len(), 2);
                assert!(matches!(answers[0], Response::Cells(_)));
                assert!(matches!(answers[1], Response::Cells(_)));
            }
            other => panic!("unexpected {other:?}"),
        }

        let stats = srv.stats();
        assert_eq!(stats.requests, 5, "batch members count individually");
        assert_eq!(stats.errors, 0);
        assert_eq!(stats.rollup_stored, 1);
        assert!(stats.p50_ns > 0);
        assert_eq!(stats.shard_routed.len(), 3);
    }

    #[test]
    fn malformed_requests_answer_errors_without_killing_workers() {
        let srv = server(2, 2);
        let h = srv.handle().expect("running");
        let bad = Request::Point {
            cuboid: CuboidMask::from_dims(&[30]),
            key: vec![0],
        };
        match h.call(bad).expect("running") {
            Response::Error(RequestError::UnknownDimension { dim: 30, dims: 3 }) => {}
            other => panic!("unexpected {other:?}"),
        }
        // The pool still answers after the error.
        match h
            .call(Request::Point {
                cuboid: CuboidMask::from_dims(&[0]),
                key: vec![0],
            })
            .expect("running")
        {
            Response::Point(Some(_)) => {}
            other => panic!("unexpected {other:?}"),
        }
        let stats = srv.stats();
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.requests, 2);
    }

    #[test]
    fn concurrent_clients_get_consistent_answers() {
        let srv = server(4, 4);
        let g = CuboidMask::from_dims(&[0, 1, 2]);
        let snap = srv.snapshot();
        let want = snap.cube().query(g, 1).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let h = srv.handle().expect("running");
                let want = &want;
                scope.spawn(move || {
                    for _ in 0..10 {
                        match h
                            .call(Request::Cuboid {
                                cuboid: g,
                                minsup: 1,
                            })
                            .expect("running")
                        {
                            Response::Cells(cells) => assert_eq!(&cells, want),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
        });
        assert_eq!(srv.stats().requests, 80);
    }

    #[test]
    fn every_leaf_records_its_own_latency_sample() {
        let srv = server(2, 1);
        let h = srv.handle().expect("running");
        let g01 = CuboidMask::from_dims(&[0, 1]);
        let leaves: Vec<Request> = (0..3)
            .map(|_| Request::Cuboid {
                cuboid: g01,
                minsup: 1,
            })
            .chain([Request::Batch(vec![Request::Point {
                cuboid: g01,
                key: vec![0, 2],
            }])])
            .collect();
        let batch = Request::Batch(leaves);
        let k = batch.leaf_count() as u64;
        let start = std::time::Instant::now();
        h.call(batch).expect("running");
        let wall_ns = start.elapsed().as_nanos() as u64;
        let latency = &srv.metrics.latency;
        assert_eq!(latency.count(), k, "one sample per leaf");
        assert_eq!(latency.count(), srv.stats().requests);
        // The samples split the job's enqueue-to-reply time between its
        // leaves, so together they fit inside the call that waited for it
        // (k copies of the job's total would not).
        assert!(latency.mean_ns() * k <= wall_ns);
        // An empty batch has no leaves and records nothing.
        h.call(Request::Batch(Vec::new())).expect("running");
        assert_eq!(latency.count(), k);
    }

    #[test]
    fn shutdown_joins_workers_and_surfaces_typed_errors_after() {
        let mut srv = server(1, 3);
        let h = srv.handle().expect("running");
        match h
            .call(Request::Point {
                cuboid: CuboidMask::from_dims(&[0]),
                key: vec![0],
            })
            .expect("running")
        {
            Response::Point(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        drop(h); // handles must drop before shutdown can observe closure
        srv.shutdown();
        assert_eq!(srv.worker_count(), 0);
        assert!(matches!(srv.handle(), Err(ServeError::ShutDown)));
    }

    #[test]
    fn a_dead_worker_leaves_survivors_serving() {
        let srv = server(2, 2);
        let h = srv.handle().expect("running");
        let observer = h.kill_worker().expect("running");
        assert!(
            observer.recv().is_err(),
            "the killed worker must exit without answering"
        );
        // The survivor still answers correctly.
        match h
            .call(Request::Point {
                cuboid: CuboidMask::from_dims(&[0]),
                key: vec![0],
            })
            .expect("survivor serves")
        {
            Response::Point(Some(agg)) => assert!(agg.count > 0),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(srv.stats().requests, 1, "deaths are not requests");
    }

    #[test]
    fn killing_every_worker_turns_calls_into_shutdown_errors() {
        let srv = server(1, 1);
        let h = srv.handle().expect("running");
        let observer = h.kill_worker().expect("running");
        assert!(observer.recv().is_err(), "sole worker exited");
        // The queue disconnected with the last worker: a typed error,
        // never a hang or a panic.
        match h.call(Request::Point {
            cuboid: CuboidMask::from_dims(&[0]),
            key: vec![0],
        }) {
            Err(ServeError::ShutDown) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(h.kill_worker(), Err(ServeError::ShutDown)));
    }

    /// The sales cube, and the cube of sales ingested twice — same
    /// dimensionality, every count doubled, so the two epochs are
    /// distinguishable from any point answer.
    fn two_generations() -> (CubeStore, CubeStore) {
        let rel = sales();
        let mut doubled = sales();
        doubled.extend_from(&rel).expect("same schema");
        let q = IcebergQuery::count_cube(3, 1);
        let cfg = ClusterConfig::fast_ethernet(2);
        let out1 = run_parallel(Algorithm::Pt, &rel, &q, &cfg).unwrap();
        let out2 = run_parallel(Algorithm::Pt, &doubled, &q, &cfg).unwrap();
        (
            CubeStore::from_outcome(3, 1, out1),
            CubeStore::from_outcome(3, 1, out2),
        )
    }

    #[test]
    fn refresh_bumps_the_epoch_and_serves_the_new_store() {
        let (gen1, gen2) = two_generations();
        let srv = CubeServer::start(ShardedCube::new(&gen1, 2), 2).expect("workers > 0");
        let h = srv.handle().expect("running");
        let probe = Request::Point {
            cuboid: CuboidMask::from_dims(&[0]),
            key: vec![0],
        };
        assert_eq!(srv.epoch(), 1);
        let before = h.call_tagged(probe.clone()).expect("running");
        assert_eq!(before.epoch, 1);
        let old_count = match before.response {
            Response::Point(Some(agg)) => agg.count,
            other => panic!("unexpected {other:?}"),
        };

        assert_eq!(srv.refresh(&gen2).expect("same dims"), 2);
        assert_eq!(srv.epoch(), 2);
        let after = h.call_tagged(probe).expect("running");
        assert_eq!(after.epoch, 2);
        match after.response {
            Response::Point(Some(agg)) => assert_eq!(agg.count, 2 * old_count),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn refresh_rejects_a_store_of_different_dimensionality() {
        let (gen1, _) = two_generations();
        let srv = CubeServer::start(ShardedCube::new(&gen1, 2), 1).expect("workers > 0");
        let flat = CubeStore::from_cells(2, 1, Vec::new());
        match srv.refresh(&flat) {
            Err(ServeError::RefreshDims {
                served: 3,
                offered: 2,
            }) => {}
            other => panic!("unexpected {other:?}", other = other.map(|_| ())),
        }
        assert_eq!(srv.epoch(), 1, "a rejected refresh publishes nothing");
    }

    #[test]
    fn a_snapshot_taken_before_a_refresh_stays_on_its_epoch() {
        let (gen1, gen2) = two_generations();
        let srv = CubeServer::start(ShardedCube::new(&gen1, 3), 1).expect("workers > 0");
        let pinned = srv.snapshot();
        srv.refresh(&gen2).expect("same dims");
        assert_eq!(pinned.epoch(), 1, "the Arc is that epoch, frozen");
        assert_eq!(srv.snapshot().epoch(), 2);
        let g = CuboidMask::from_dims(&[0, 1, 2]);
        let old = pinned.cube().query(g, 1).unwrap();
        let new = srv.snapshot().cube().query(g, 1).unwrap();
        assert_ne!(old, new, "the generations must be distinguishable");
    }

    #[test]
    fn every_answer_during_a_refresh_storm_matches_its_epochs_oracle() {
        let (gen1, gen2) = two_generations();
        let srv = CubeServer::start(ShardedCube::new(&gen1, 2), 4).expect("workers > 0");
        let g = CuboidMask::from_dims(&[0, 1]);
        let want1 = ShardedCube::new(&gen1, 2).query(g, 1).unwrap();
        let want2 = ShardedCube::new(&gen2, 2).query(g, 1).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let h = srv.handle().expect("running");
                let (want1, want2) = (&want1, &want2);
                scope.spawn(move || {
                    for _ in 0..20 {
                        let got = h
                            .call_tagged(Request::Cuboid {
                                cuboid: g,
                                minsup: 1,
                            })
                            .expect("running");
                        let want = if got.epoch % 2 == 1 { want1 } else { want2 };
                        match got.response {
                            Response::Cells(cells) => assert_eq!(
                                &cells,
                                want,
                                "epoch {epoch} answered another epoch's cube",
                                epoch = got.epoch
                            ),
                            other => panic!("unexpected {other:?}"),
                        }
                    }
                });
            }
            // Race refreshes against the queries, alternating generations
            // so every odd epoch serves gen1 and every even epoch gen2.
            for round in 0..10 {
                let next = if round % 2 == 0 { &gen2 } else { &gen1 };
                srv.refresh(next).expect("same dims");
            }
        });
        assert_eq!(srv.epoch(), 11);
    }

    #[test]
    fn estimates_on_a_plain_epoch_are_typed_errors() {
        let srv = server(2, 2);
        let h = srv.handle().expect("running");
        let g = CuboidMask::from_dims(&[0]);
        match h
            .call(Request::EstimatePoint {
                cuboid: g,
                key: vec![0],
            })
            .expect("running")
        {
            Response::Error(RequestError::NotProgressive) => {}
            other => panic!("unexpected {other:?}"),
        }
        match h
            .call(Request::EstimateCuboid {
                cuboid: g,
                minsup: 2,
            })
            .expect("running")
        {
            Response::Error(RequestError::NotProgressive) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(srv.stats().errors, 2);
    }

    #[test]
    fn progressive_serving_requires_the_floor() {
        let rel = sales();
        let q = IcebergQuery::count_cube(3, 2);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
        let thresholded = CubeStore::from_outcome(3, 2, out);
        let build = icecube_online::ProgressiveBuild::new(
            &rel,
            2,
            2,
            8,
            64,
            &ClusterConfig::fast_ethernet(2),
        )
        .unwrap();
        match CubeServer::start_progressive(ShardedCube::new(&thresholded, 2), 1, build.progress())
        {
            Err(ServeError::ProgressiveFloor { minsup: 2 }) => {}
            other => panic!("unexpected {other:?}", other = other.map(|_| ())),
        }
        let srv =
            CubeServer::start_progressive(ShardedCube::new(build.floor(), 2), 1, build.progress())
                .expect("floor is minsup 1");
        match srv.publish_progressive(&thresholded, build.progress()) {
            Err(ServeError::ProgressiveFloor { minsup: 2 }) => {}
            other => panic!("unexpected {other:?}", other = other.map(|_| ())),
        }
        assert_eq!(srv.epoch(), 1, "a rejected publish changes nothing");
        // A plain refresh drops the progressive state: estimates on the
        // new epoch answer the typed error again.
        srv.refresh(&thresholded).expect("same dims");
        let h = srv.handle().expect("running");
        match h
            .call(Request::EstimatePoint {
                cuboid: CuboidMask::from_dims(&[0]),
                key: vec![0],
            })
            .expect("running")
        {
            Response::Error(RequestError::NotProgressive) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn progressive_bounds_tighten_and_converge_to_the_batch_answer() {
        let rel = icecube_data::presets::tiny(9).generate().unwrap();
        let dims = rel.arity();
        let minsup = 3u64;
        let cfg = ClusterConfig::fast_ethernet(3);
        let q = IcebergQuery::count_cube(dims, 1);
        let out = run_parallel(Algorithm::Pt, &rel, &q, &cfg).unwrap();
        let exact_floor = CubeStore::from_outcome(dims, 1, out);
        let oracle = ShardedCube::new(&exact_floor, 1);

        let mut build = icecube_online::ProgressiveBuild::new(&rel, minsup, 3, 40, 64, &cfg)
            .expect("non-empty relation");
        let srv =
            CubeServer::start_progressive(ShardedCube::new(build.floor(), 2), 2, build.progress())
                .expect("workers > 0");
        let h = srv.handle().expect("running");

        // Track a coarse cell (global envelope: inexact until the end)
        // and assert its bound tightens monotonically and always
        // contains the exact aggregate.
        let g0 = CuboidMask::from_dims(&[0]);
        let anchor = CuboidMask::full(dims);
        let tracked = vec![0u32];
        let exact_cell = oracle
            .get(g0, &tracked)
            .expect("valid request")
            .expect("value 0 occurs in the preset");
        let mut prev_bound: Option<AggBound> = None;
        let mut saw_inexact = false;
        loop {
            let answer = h
                .call_tagged(Request::EstimatePoint {
                    cuboid: g0,
                    key: tracked.clone(),
                })
                .expect("running");
            assert_eq!(answer.epoch, srv.epoch());
            let Response::Estimate {
                cells, converged, ..
            } = answer.response
            else {
                panic!("unexpected response");
            };
            let cell = cells.first().expect("point estimates return one cell");
            assert!(cell.bound.contains(&exact_cell), "bound lost the exact");
            assert!(cell.bound.clamp_count(cell.est_count) == cell.est_count);
            if let Some(prev) = prev_bound {
                assert!(prev.tightens_to(&cell.bound), "bound widened");
            }
            prev_bound = Some(cell.bound);
            saw_inexact |= !cell.bound.is_exact();
            assert_eq!(converged, build.converged());
            if build.step().expect("fold succeeds").is_none() {
                break;
            }
            srv.publish_progressive(build.floor(), build.progress())
                .expect("floor stays minsup 1");
        }
        assert!(saw_inexact, "pre-convergence bounds must be open");
        assert!(build.converged());

        // Converged: the estimate is the batch iceberg answer, cell for
        // cell, with point bounds and definite flags everywhere.
        let est = h
            .call(Request::EstimateCuboid {
                cuboid: anchor,
                minsup,
            })
            .expect("running");
        let batch = h
            .call(Request::Cuboid {
                cuboid: anchor,
                minsup,
            })
            .expect("running");
        let Response::Estimate {
            cells, converged, ..
        } = est
        else {
            panic!("unexpected response");
        };
        assert!(converged);
        let Response::Cells(want) = batch else {
            panic!("unexpected response");
        };
        assert!(!want.is_empty(), "the preset qualifies cells at minsup 3");
        assert_eq!(cells.len(), want.len());
        for (got, (key, agg)) in cells.iter().zip(&want) {
            assert_eq!(&got.key, key);
            assert!(got.definite);
            assert!(got.bound.is_exact());
            assert_eq!(got.bound, AggBound::exact(agg));
            assert_eq!(got.est_count, agg.count);
            assert_eq!(got.est_sum, agg.sum);
        }
    }

    #[test]
    fn a_pinned_progressive_epoch_keeps_its_cells_through_later_folds() {
        // Published epochs share cuboid blocks with the build's floor;
        // this pins one mid-build epoch and checks that no later fold or
        // publish reaches its cells.
        let rel = icecube_data::presets::tiny(9).generate().unwrap();
        let minsup = 3u64;
        let cfg = ClusterConfig::fast_ethernet(3);
        let mut build = icecube_online::ProgressiveBuild::new(&rel, minsup, 3, 40, 64, &cfg)
            .expect("non-empty relation");
        let srv =
            CubeServer::start_progressive(ShardedCube::new(build.floor(), 2), 1, build.progress())
                .expect("workers > 0");
        build.step().expect("fold succeeds");
        srv.publish_progressive(build.floor(), build.progress())
            .expect("floor stays minsup 1");
        let pinned = srv.snapshot();

        let req = Request::EstimateCuboid {
            cuboid: CuboidMask::full(rel.arity()),
            minsup,
        };
        let answer = |snap: &EpochSnapshot| {
            let metrics = Metrics::new(snap.cube().shard_count());
            execute(
                snap.cube(),
                snap.progress(),
                &metrics,
                &req,
                &mut Instant::now(),
            )
        };
        // The epoch's cells, serialized through a store rebuilt from them.
        let bytes = |snap: &EpochSnapshot| {
            let cube = snap.cube();
            let mut cells = Vec::new();
            for g in cube.materialized_cuboids() {
                for (key, agg) in cube.query(g, cube.minsup()).expect("stored cuboid") {
                    cells.push(icecube_core::Cell {
                        cuboid: g,
                        key,
                        agg,
                    });
                }
            }
            let mut buf = Vec::new();
            CubeStore::from_cells(cube.dims(), cube.minsup(), cells)
                .write_to(&mut buf)
                .expect("in-memory write");
            buf
        };
        let (answer0, bytes0) = (answer(&pinned), bytes(&pinned));

        while build.step().expect("fold succeeds").is_some() {
            srv.publish_progressive(build.floor(), build.progress())
                .expect("floor stays minsup 1");
        }
        assert!(build.converged());
        assert_eq!(answer(&pinned), answer0, "a later fold reached the pin");
        assert_eq!(bytes(&pinned), bytes0, "a later fold reached the pin");
        let last = srv.snapshot();
        assert!(last.epoch() > pinned.epoch());
        assert_ne!(answer(&last), answer0, "the folds changed the estimate");
        assert_ne!(bytes(&last), bytes0, "the folds changed the cells");
    }

    #[test]
    fn submitting_into_a_dead_queue_is_a_typed_error() {
        // When every worker is gone the queue's receiving side is
        // dropped and a surviving client handle must get a typed error,
        // never a panic. The receiver cannot disconnect while any sender
        // lives, so the dead pool is modelled directly by dropping the
        // receiving side of a fresh queue.
        let (tx, rx) = mpsc::channel::<Job>();
        drop(rx);
        let h = ClientHandle { tx };
        let probe = Request::Point {
            cuboid: CuboidMask::from_dims(&[0]),
            key: vec![0],
        };
        match h.call(probe) {
            Err(ServeError::ShutDown) => {}
            other => panic!("unexpected {other:?}"),
        }
    }
}
