//! Shards → answers: closed-loop clients on `ClientHandle::call`.
//!
//! Closed loop because that is what a caller of this API is: `call` blocks
//! on a reply channel, so a client's next request cannot leave before the
//! last one is answered, and at most `clients` requests are in flight.
//! Latency is timed at the client, per request, in nanoseconds; the
//! server's own histogram only has power-of-two bucket edges.

use crate::inputs::{Inputs, REPLAY};
use crate::run::Tally;
use crate::span::span;
use crate::stats::{median_or_zero, quantile_sorted};
use crate::verify::answers_match;
use icecube_core::{Aggregate, CubeStore};
use icecube_serve::{CubeServer, Request, Response};
use std::hint::black_box;
use std::sync::Barrier;
use std::time::Instant;

/// Requests per window. Point statistics are taken per window of this many
/// consecutive requests of one client and reported as medians over the
/// windows, so that a stall which hits a few windows (the host's, not the
/// system's) does not move the result.
pub const WINDOW: usize = 4_096;

/// What one closed-loop client saw, in the order it sent.
pub struct ClientLog {
    origin: Instant,
    /// `(index in the stream, latency in ns)` per request.
    pub latencies: Vec<(u32, u32)>,
    /// ns since `origin` at the start of every window, then at the end.
    marks: Vec<u64>,
    ended: Instant,
}

impl ClientLog {
    pub fn new(capacity: usize) -> Self {
        let origin = Instant::now();
        ClientLog {
            origin,
            latencies: Vec::with_capacity(capacity),
            marks: Vec::with_capacity(capacity / WINDOW + 2),
            ended: origin,
        }
    }

    /// Records request `index`, sent at `start` and answered just now.
    pub fn record(&mut self, index: usize, start: Instant) {
        self.ended = Instant::now();
        if self.latencies.len().is_multiple_of(WINDOW) {
            self.marks.push((start - self.origin).as_nanos() as u64);
        }
        let ns = (self.ended - start).as_nanos().min(u128::from(u32::MAX)) as u32;
        self.latencies.push((index as u32, ns));
    }

    /// Every window's sorted latencies and wall time. A short tail joins
    /// the window before it.
    fn windows(&self) -> Vec<(Vec<u32>, f64)> {
        let end = (self.ended - self.origin).as_nanos() as u64;
        let mut bounds: Vec<(usize, u64)> = self
            .marks
            .iter()
            .enumerate()
            .map(|(w, &at)| (w * WINDOW, at))
            .collect();
        if bounds.len() > 1 && self.latencies.len() - (bounds.len() - 1) * WINDOW < WINDOW / 2 {
            bounds.pop();
        }
        bounds.push((self.latencies.len(), end));
        bounds
            .windows(2)
            .filter(|pair| pair[1].0 > pair[0].0)
            .map(|pair| {
                let mut ns: Vec<u32> = self.latencies[pair[0].0..pair[1].0]
                    .iter()
                    .map(|&(_, ns)| ns)
                    .collect();
                ns.sort_unstable();
                (ns, pair[1].1.saturating_sub(pair[0].1) as f64 / 1e9)
            })
            .collect()
    }
}

/// One closed-loop pass: every client's log, and the wall time from the
/// common start to the last answer.
pub struct Pass {
    pub wall_s: f64,
    pub clients: Vec<ClientLog>,
    pub failed: u64,
}

/// Deals `requests` round-robin to `clients` threads, each sending its
/// next request when the previous answer has arrived. `check` sees every
/// response; the first `span_requests` requests are recorded as spans.
pub fn closed_loop(
    server: &CubeServer,
    requests: &[Request],
    clients: usize,
    span_requests: usize,
    check: impl Fn(usize, &Response) -> bool + Sync,
) -> Pass {
    let clients = clients.max(1);
    let barrier = Barrier::new(clients + 1);
    let (parts, wall_s) = std::thread::scope(|scope| {
        let joins: Vec<_> = (0..clients)
            .map(|c| {
                let (barrier, check) = (&barrier, &check);
                scope.spawn(move || {
                    let handle = server.handle();
                    let mut log = ClientLog::new(requests.len() / clients + 1);
                    let mut failed = 0u64;
                    barrier.wait();
                    let Ok(handle) = handle else {
                        return (log, requests.len().div_ceil(clients) as u64);
                    };
                    for i in (c..requests.len()).step_by(clients) {
                        let req = requests[i].clone();
                        let guard =
                            (i < span_requests).then(|| span("serve.client.call", i as u64));
                        let start = Instant::now();
                        let resp = handle.call(req);
                        log.record(i, start);
                        drop(guard);
                        if !resp.is_ok_and(|r| check(i, &r)) {
                            failed += 1;
                        }
                    }
                    (log, failed)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        let parts: Vec<_> = joins
            .into_iter()
            .map(|j| j.join().expect("client threads do not panic"))
            .collect();
        (parts, start.elapsed().as_secs_f64())
    });
    let mut logs = Vec::with_capacity(clients);
    let mut failed = 0;
    for (log, f) in parts {
        logs.push(log);
        failed += f;
    }
    Pass {
        wall_s,
        clients: logs,
        failed,
    }
}

/// Throughput and latency quantiles of point requests, one entry per
/// window of one client.
///
/// The tail is the 95th percentile, not the 99th: about one request in a
/// hundred waits for a halted vCPU to wake (≈ 40 µs on a 5 µs round trip),
/// so the 99th sits on the step between the two and moves by a quarter
/// from run to run with how many requests the host made wait.
#[derive(Default)]
pub struct PointStats {
    pub rps: Vec<f64>,
    pub p50_us: Vec<f64>,
    pub p95_us: Vec<f64>,
}

impl PointStats {
    /// Adds the windows of concurrent clients. A window's throughput is
    /// its client's rate times the number of clients.
    pub fn push(&mut self, clients: &[ClientLog]) {
        for log in clients {
            for (ns, wall_s) in log.windows() {
                self.rps
                    .push(ns.len() as f64 * clients.len() as f64 / wall_s.max(1e-9));
                self.p50_us.push(quantile_sorted(&ns, 0.5) / 1e3);
                self.p95_us.push(quantile_sorted(&ns, 0.95) / 1e3);
            }
        }
    }
}

/// One pass of point requests; every answer must be the stored aggregate.
pub fn point_pass(
    server: &CubeServer,
    requests: &[Request],
    answers: &[Aggregate],
    clients: usize,
    span_requests: usize,
    tally: &mut Tally,
) -> Pass {
    let pass = closed_loop(
        server,
        requests,
        clients,
        span_requests,
        |i, resp| matches!(resp, Response::Point(Some(got)) if *got == answers[i]),
    );
    tally.ops(requests.len() as u64, pass.failed);
    pass
}

/// Index of a request's kind in `spec::KINDS`.
fn kind_of(req: &Request) -> usize {
    match req {
        Request::Point { .. } | Request::EstimatePoint { .. } => 0,
        Request::Slice { .. } => 1,
        Request::RollUp { .. } => 2,
        Request::DrillDown { .. } => 3,
        Request::Cuboid { .. } | Request::EstimateCuboid { .. } => 4,
        Request::Batch(_) => 5,
    }
}

/// What navigation passes measured.
#[derive(Default)]
pub struct NavStats {
    /// Leaf requests per second, per pass.
    pub rps: Vec<f64>,
    /// Median `Request::Cuboid` latency, per pass.
    pub scan_p50_us: Vec<f64>,
    /// Latencies by kind over the last pass, sorted.
    pub by_kind: [Vec<u32>; 6],
}

/// One pass of the navigation stream. No request over real cells may err.
pub fn nav_pass(
    server: &CubeServer,
    inputs: &Inputs,
    clients: usize,
    span_requests: usize,
    stats: &mut NavStats,
    tally: &mut Tally,
) {
    let requests = &inputs.nav.requests;
    let pass = closed_loop(server, requests, clients, span_requests, |_, resp| {
        !matches!(resp, Response::Error(_))
    });
    tally.ops(requests.len() as u64, pass.failed);
    let mut by_kind: [Vec<u32>; 6] = Default::default();
    for &(i, ns) in pass.clients.iter().flat_map(|log| &log.latencies) {
        by_kind[kind_of(&requests[i as usize])].push(ns);
    }
    for lat in &mut by_kind {
        lat.sort_unstable();
    }
    stats.rps.push(inputs.nav.leaf_count() as f64 / pass.wall_s);
    if !by_kind[4].is_empty() {
        stats
            .scan_p50_us
            .push(quantile_sorted(&by_kind[4], 0.5) / 1e3);
    }
    stats.by_kind = by_kind;
}

/// Replays the first navigation requests one by one and holds each answer
/// to what the unsharded reference store gave during set-up.
pub fn replay(server: &CubeServer, inputs: &Inputs, tally: &mut Tally) {
    let Ok(handle) = server.handle() else {
        tally.ops(REPLAY as u64, REPLAY as u64);
        return;
    };
    for (req, want) in inputs.nav.requests.iter().zip(&inputs.nav_expected) {
        let ok = handle
            .call(req.clone())
            .is_ok_and(|resp| answers_match(want, &resp));
        tally.op(ok);
    }
}

/// Direct lookups that bypass the server, for the layers under a point
/// request: ns per `CubeStore::get` and per `ShardedCube::get` on a pinned
/// snapshot, in the caller's thread.
pub fn direct_get_ns(server: &CubeServer, store: &CubeStore, inputs: &Inputs) -> (f64, f64) {
    let keys: Vec<_> = inputs
        .points
        .iter()
        .filter_map(|r| match r {
            Request::Point { cuboid, key } => Some((*cuboid, key.as_slice())),
            _ => None,
        })
        .collect();
    let per_op = |f: &dyn Fn(usize) -> bool| {
        let start = Instant::now();
        let hits = (0..keys.len()).filter(|&i| f(i)).count();
        black_box(hits);
        start.elapsed().as_nanos() as f64 / keys.len().max(1) as f64
    };
    let store_ns = per_op(&|i| black_box(store.get(keys[i].0, keys[i].1)).is_some());
    let snapshot = server.snapshot();
    let cube = snapshot.cube();
    let shard_ns = per_op(&|i| matches!(black_box(cube.get(keys[i].0, keys[i].1)), Ok(Some(_))));
    (store_ns, shard_ns)
}

/// Median µs of `ShardedCube::query` called directly for the cuboid scans
/// of the navigation stream (at most the first 200 of them).
pub fn direct_scan_us(server: &CubeServer, inputs: &Inputs) -> f64 {
    let snapshot = server.snapshot();
    let cube = snapshot.cube();
    let samples: Vec<f64> = inputs
        .nav
        .requests
        .iter()
        .filter_map(|r| match r {
            Request::Cuboid { cuboid, minsup } => Some((*cuboid, *minsup)),
            _ => None,
        })
        .take(200)
        .map(|(cuboid, minsup)| {
            let start = Instant::now();
            black_box(cube.query(cuboid, minsup).map(|rows| rows.len())).ok();
            start.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median_or_zero(&samples)
}
