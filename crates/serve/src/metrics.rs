//! Serving observability: lock-free counters and fixed-bucket latency
//! histograms, snapshotted into [`ServerStats`].
//!
//! Workers record into shared [`Metrics`] with lock-free atomics — no
//! lock sits on the request path. Independent event counters use
//! `Relaxed` (each justified at its use site); the histogram's
//! `total_ns`/`count` pair uses Release/Acquire so a snapshot never
//! counts a sample whose nanoseconds it cannot see. Latency uses a
//! fixed array of
//! power-of-two nanosecond buckets (bucket `i` holds samples in
//! `[2^i, 2^(i+1))` ns), so a histogram is 48 `AtomicU64`s covering
//! 1 ns to ~4.7 minutes and quantiles are a single array walk. The
//! reported p50/p95/p99 are bucket upper bounds — at most 2x the true
//! value, which is plenty for the serving experiments' scaling curves.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of power-of-two latency buckets (covers up to `2^48` ns).
pub const BUCKETS: usize = 48;

/// A fixed-bucket latency histogram with relaxed-atomic recording.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; BUCKETS],
    total_ns: AtomicU64,
    count: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            total_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }

    /// Records one latency sample.
    pub fn record(&self, ns: u64) {
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        if let Some(bucket) = self.buckets.get(idx) {
            // relaxed: each bucket is an independent tally; quantiles are
            // approximate by design and never pair a bucket with other state.
            bucket.fetch_add(1, Ordering::Relaxed);
        }
        // Publish the sample's nanoseconds *before* the sample becomes
        // countable: `mean_ns` reads `count` with Acquire, so every
        // sample it counts has its total already visible and the mean's
        // numerator can never miss a counted sample's contribution.
        self.total_ns.fetch_add(ns, Ordering::Release);
        self.count.fetch_add(1, Ordering::Release);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // Acquire pairs with the Release in `record`: a sample visible
        // here has its `total_ns` contribution visible too.
        self.count.load(Ordering::Acquire)
    }

    /// Mean latency in nanoseconds (0 when empty).
    ///
    /// Reads `count` before `total_ns` (both Acquire, paired with the
    /// Release writes in [`LatencyHistogram::record`] which go in the
    /// opposite order), so a concurrent recorder can only make the
    /// numerator *larger* than the denominator accounts for — the mean
    /// may transiently overestimate but never drops a counted sample.
    pub fn mean_ns(&self) -> u64 {
        let count = self.count.load(Ordering::Acquire);
        let total = self.total_ns.load(Ordering::Acquire);
        total.checked_div(count).unwrap_or(0)
    }

    /// Upper bound of bucket `i` in nanoseconds: `2^(i+1)`, saturating the
    /// shift at the top of `u64`. Both the in-loop hit and the defensive
    /// fallthrough in [`LatencyHistogram::quantile_ns`] go through here, so
    /// the final bucket reports one bound no matter which path returns it
    /// (they used to disagree in spirit: the loop clamped its shift while
    /// the fallthrough computed `1 << BUCKETS` raw, which only matched
    /// because `BUCKETS` happens to be 48).
    fn bucket_upper_bound(i: usize) -> u64 {
        1u64 << (i + 1).min(63)
    }

    /// The upper bound of the bucket containing quantile `q`, in
    /// nanoseconds (0 when empty). `q` is interpreted on `[0, 1]`;
    /// out-of-range or NaN values clamp to the nearest valid quantile.
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            // relaxed: buckets are independent tallies and the quantile
            // is a bucket upper bound anyway — a sample racing this walk
            // moves the answer by at most one in-flight request.
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        // Clamp explicitly rather than leaning on float-to-int cast
        // saturation (`f64::clamp` propagates NaN, so catch that first).
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        // Rank of the sample answering quantile q, 1-based.
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        Self::bucket_upper_bound(BUCKETS - 1)
    }
}

/// Per-shard request counters.
#[derive(Debug, Default)]
pub struct ShardCounters {
    /// Requests routed to exactly this shard (point lookups, stored
    /// roll-ups).
    pub routed: AtomicU64,
    /// Fan-out visits (slices, drill-downs, cuboid scans touch every
    /// shard once each).
    pub scanned: AtomicU64,
}

/// Shared, lock-free serving metrics. One instance per [`CubeServer`],
/// cloned into every worker via `Arc`.
///
/// [`CubeServer`]: crate::server::CubeServer
#[derive(Debug)]
pub struct Metrics {
    /// Request latency, one sample per leaf request (so `latency.count()`
    /// equals `requests`): a job's enqueue-to-reply time, split between
    /// its leaves where a batch has several.
    pub latency: LatencyHistogram,
    /// Leaf requests completed (batch members count individually).
    pub requests: AtomicU64,
    /// Requests answered with a typed error.
    pub errors: AtomicU64,
    /// Cells returned across all multi-cell answers.
    pub cells_returned: AtomicU64,
    /// Roll-ups answered from a stored coarser cuboid.
    pub rollup_stored: AtomicU64,
    /// Roll-ups answered by aggregating the finer cuboid.
    pub rollup_aggregated: AtomicU64,
    /// Per-shard routing counters, indexed by shard.
    pub shards: Vec<ShardCounters>,
}

impl Metrics {
    /// Creates zeroed metrics for a cube with `shard_count` shards.
    pub fn new(shard_count: usize) -> Self {
        Metrics {
            latency: LatencyHistogram::new(),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            cells_returned: AtomicU64::new(0),
            rollup_stored: AtomicU64::new(0),
            rollup_aggregated: AtomicU64::new(0),
            shards: (0..shard_count).map(|_| ShardCounters::default()).collect(),
        }
    }

    /// Bumps a counter by one (relaxed).
    pub fn bump(counter: &AtomicU64) {
        // relaxed: event counters are independent — nothing is published
        // under them and no reader infers cross-counter ordering.
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n` to a counter (relaxed).
    pub fn add(counter: &AtomicU64, n: u64) {
        // relaxed: same contract as `bump` — an independent tally.
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Reads a counter (relaxed).
    pub fn read(counter: &AtomicU64) -> u64 {
        // relaxed: snapshots are advisory; each counter is internally
        // consistent and no pair of counters promises atomicity.
        counter.load(Ordering::Relaxed)
    }

    /// Snapshots every counter and quantile into a plain struct.
    pub fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: Metrics::read(&self.requests),
            errors: Metrics::read(&self.errors),
            cells_returned: Metrics::read(&self.cells_returned),
            rollup_stored: Metrics::read(&self.rollup_stored),
            rollup_aggregated: Metrics::read(&self.rollup_aggregated),
            mean_ns: self.latency.mean_ns(),
            p50_ns: self.latency.quantile_ns(0.50),
            p95_ns: self.latency.quantile_ns(0.95),
            p99_ns: self.latency.quantile_ns(0.99),
            shard_routed: self
                .shards
                .iter()
                .map(|s| Metrics::read(&s.routed))
                .collect(),
            shard_scanned: self
                .shards
                .iter()
                .map(|s| Metrics::read(&s.scanned))
                .collect(),
        }
    }
}

impl ServerStats {
    /// Publishes every field into a unified [`icecube_trace::Registry`]
    /// under `prefix` (e.g. `serve.requests`, `serve.shard00.routed`), so
    /// serving counters and cluster statistics can be exported side by
    /// side from one snapshot.
    pub fn register_into(&self, prefix: &str, registry: &mut icecube_trace::Registry) {
        registry.set(&format!("{prefix}.requests"), self.requests);
        registry.set(&format!("{prefix}.errors"), self.errors);
        registry.set(&format!("{prefix}.cells_returned"), self.cells_returned);
        registry.set(&format!("{prefix}.rollup_stored"), self.rollup_stored);
        registry.set(
            &format!("{prefix}.rollup_aggregated"),
            self.rollup_aggregated,
        );
        registry.set(&format!("{prefix}.latency.mean_ns"), self.mean_ns);
        registry.set(&format!("{prefix}.latency.p50_ns"), self.p50_ns);
        registry.set(&format!("{prefix}.latency.p95_ns"), self.p95_ns);
        registry.set(&format!("{prefix}.latency.p99_ns"), self.p99_ns);
        for (i, &routed) in self.shard_routed.iter().enumerate() {
            registry.set(&format!("{prefix}.shard{i:02}.routed"), routed);
        }
        for (i, &scanned) in self.shard_scanned.iter().enumerate() {
            registry.set(&format!("{prefix}.shard{i:02}.scanned"), scanned);
        }
    }
}

/// A point-in-time snapshot of a server's counters and latency quantiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerStats {
    /// Leaf requests completed.
    pub requests: u64,
    /// Requests answered with a typed error.
    pub errors: u64,
    /// Cells returned across all multi-cell answers.
    pub cells_returned: u64,
    /// Roll-ups answered from a stored coarser cuboid.
    pub rollup_stored: u64,
    /// Roll-ups answered by aggregating the finer cuboid.
    pub rollup_aggregated: u64,
    /// Mean end-to-end latency, nanoseconds.
    pub mean_ns: u64,
    /// Median end-to-end latency (bucket upper bound), nanoseconds.
    pub p50_ns: u64,
    /// 95th-percentile latency (bucket upper bound), nanoseconds.
    pub p95_ns: u64,
    /// 99th-percentile latency (bucket upper bound), nanoseconds.
    pub p99_ns: u64,
    /// Per-shard single-shard-routed request counts.
    pub shard_routed: Vec<u64>,
    /// Per-shard fan-out visit counts.
    pub shard_scanned: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = LatencyHistogram::new();
        for ns in [1, 2, 3, 1000, 1_000_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.mean_ns(), (1 + 2 + 3 + 1000 + 1_000_000) / 5);
        // p50 of {1,2,3,1000,1_000_000} is 3 → bucket [2,4) → bound 4.
        assert_eq!(h.quantile_ns(0.50), 4);
        // p99 lands on the slowest sample's bucket [2^19, 2^20).
        assert_eq!(h.quantile_ns(0.99), 1 << 20);
        assert_eq!(h.quantile_ns(0.0), 2);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
    }

    #[test]
    fn min_bucket_sample_reports_its_bucket_bound() {
        let h = LatencyHistogram::new();
        h.record(0); // clamps to 1 ns → bucket [1, 2)
        h.record(1);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(h.quantile_ns(q), 2, "q={q}");
        }
    }

    #[test]
    fn max_bucket_sample_agrees_with_the_fallthrough_bound() {
        let h = LatencyHistogram::new();
        h.record(u64::MAX); // lands in the final catch-all bucket
        let top = h.quantile_ns(1.0);
        assert_eq!(top, 1u64 << BUCKETS);
        // The in-loop bound for the last bucket and the defensive
        // fallthrough must be the same number.
        assert_eq!(top, LatencyHistogram::bucket_upper_bound(BUCKETS - 1));
    }

    #[test]
    fn out_of_range_quantiles_clamp() {
        let h = LatencyHistogram::new();
        h.record(3); // bucket [2, 4)
        h.record(1000); // bucket [512, 1024)
        assert_eq!(h.quantile_ns(1.5), h.quantile_ns(1.0));
        assert_eq!(h.quantile_ns(-0.5), h.quantile_ns(0.0));
        assert_eq!(h.quantile_ns(f64::NAN), h.quantile_ns(0.0));
        assert_eq!(h.quantile_ns(0.0), 4);
        assert_eq!(h.quantile_ns(1.0), 1024);
    }

    #[test]
    fn quantiles_are_monotone() {
        let h = LatencyHistogram::new();
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            h.record(x % 1_000_000 + 1);
        }
        let (p50, p95, p99) = (
            h.quantile_ns(0.50),
            h.quantile_ns(0.95),
            h.quantile_ns(0.99),
        );
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
    }

    #[test]
    fn register_into_publishes_every_counter() {
        let m = Metrics::new(2);
        Metrics::bump(&m.requests);
        Metrics::add(&m.cells_returned, 7);
        Metrics::bump(&m.shards[1].routed);
        let mut reg = icecube_trace::Registry::new();
        m.snapshot().register_into("serve", &mut reg);
        assert_eq!(reg.get("serve.requests"), Some(1));
        assert_eq!(reg.get("serve.cells_returned"), Some(7));
        assert_eq!(reg.get("serve.shard00.routed"), Some(0));
        assert_eq!(reg.get("serve.shard01.routed"), Some(1));
        assert_eq!(reg.get("serve.errors"), Some(0));
        // 9 scalar fields + 2 shards × 2 counters.
        assert_eq!(reg.len(), 13);
        let csv = reg.to_csv();
        assert!(csv.starts_with("metric,value\n"));
        assert!(csv.contains("serve.requests,1\n"));
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new(2);
        Metrics::bump(&m.requests);
        Metrics::add(&m.cells_returned, 7);
        Metrics::bump(&m.shards[1].routed);
        m.latency.record(100);
        let s = m.snapshot();
        assert_eq!(s.requests, 1);
        assert_eq!(s.cells_returned, 7);
        assert_eq!(s.shard_routed, vec![0, 1]);
        assert_eq!(s.errors, 0);
        assert!(s.p50_ns >= 100);
    }
}
