//! Small order statistics, a seeded generator and the process's peak RSS.

/// Median of the samples (mean of the two middle ones for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller takes at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median, or 0 when a failed phase left no samples.
pub fn median_or_zero(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        median(samples)
    }
}

/// The `q`-quantile (nearest rank) of already sorted latencies.
pub fn quantile_sorted(sorted: &[u32], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    f64::from(sorted[rank - 1])
}

/// First and third quartile as `statistics.quantiles(v, n=4)` gives them
/// (the exclusive method), for the spread the acceptance procedure uses.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        // Position k·(n+1)/4 in 1-based ranks, linearly interpolated and
        // clamped to the sample range.
        let pos = k as f64 * (n as f64 + 1.0) / 4.0;
        let lo = (pos.floor() as usize).clamp(1, n);
        let hi = (lo + 1).min(n);
        let frac = (pos - lo as f64).clamp(0.0, 1.0);
        v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median (0 below two samples).
pub fn spread(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let (q1, q3) = quartiles(samples);
    let m = median(samples);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// SplitMix64: the benchmark's own request-stream generator, so a seed
/// means the same stream whatever the system's RNG shim does.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below what a
    /// request mix can show.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The process's peak resident set (`VmHWM`) in MB, if the host reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&[7], 0.99), 7.0);
    }
}
