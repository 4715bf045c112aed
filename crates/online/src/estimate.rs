//! Estimator arithmetic shared by POL snapshots and progressive serving:
//! exact integer threshold scaling, linear extrapolation, and the
//! deterministic bound algebra of DESIGN §14 — the slack a progressive
//! build still owes ([`Envelope`] per key range, published as a
//! [`Progress`]) and the interval it puts around a partial aggregate
//! ([`AggBound::over`]).
//!
//! Everything here is integer-only. The original POL snapshot scaled the
//! support threshold in `f64` (`(minsup as f64 * fraction).round()`),
//! which rounds to nearest and inherits platform-dependent FP behaviour;
//! [`scaled_threshold`] replaces it with exact ceiling
//! division so snapshots are bit-stable anywhere and *conservative*: a
//! group that would qualify at full support can be reported early, but
//! scaling never manufactures a qualifying group the data seen so far
//! does not support at the pro-rated threshold.

use icecube_core::agg::Aggregate;
use icecube_lattice::CuboidMask;

/// What the unfolded remainder of a region can still contribute: at most
/// `rows` more tuples, each with a measure in `[measure_min, measure_max]`.
///
/// The empty envelope (`rows == 0`) uses the same sentinels as
/// [`Aggregate::empty`] so envelopes compose with `absorb` exactly like
/// aggregates do with `merge`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Unseen rows that could still land in the region.
    pub rows: u64,
    /// Lower bound on any unseen measure (`i64::MAX` when `rows == 0`).
    pub measure_min: i64,
    /// Upper bound on any unseen measure (`i64::MIN` when `rows == 0`).
    pub measure_max: i64,
}

impl Envelope {
    /// The envelope of a fully-folded region: nothing can change.
    pub fn empty() -> Envelope {
        Envelope {
            rows: 0,
            measure_min: i64::MAX,
            measure_max: i64::MIN,
        }
    }

    /// True when the region is fully folded.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Widens this envelope to also cover `other` (an unfolded chunk's).
    pub fn absorb(&mut self, other: &Envelope) {
        if other.rows == 0 {
            return;
        }
        self.rows = self.rows.saturating_add(other.rows);
        self.measure_min = self.measure_min.min(other.measure_min);
        self.measure_max = self.measure_max.max(other.measure_max);
    }
}

/// An immutable view of how far a progressive build has come, published
/// alongside each epoch so queries can bound their answers.
///
/// Ownership follows POL's range partitioning: `splits` are the surviving
/// boundary keys of the anchor group-by, and every row of a chunk owned
/// by range `j` has an anchor key that routes to `j` under them (the
/// `partition_point` rule of `Boundaries::owner`). That contract is what
/// lets anchor-cuboid cells use their range's tight envelope instead of
/// the global one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Progress {
    anchor: CuboidMask,
    splits: Vec<Vec<u32>>,
    remaining: Vec<Envelope>,
    total: Envelope,
    chunks_total: usize,
    chunks_folded: usize,
    rows_total: u64,
    rows_folded: u64,
}

impl Progress {
    /// The slack of a build over `rows_total` rows in `chunks_total`
    /// chunks, whose still-unfolded chunks are `pending` — each an owner
    /// range under `splits` and the chunk's envelope.
    pub(crate) fn new(
        anchor: CuboidMask,
        splits: &[Vec<u32>],
        pending: impl IntoIterator<Item = (usize, Envelope)>,
        chunks_total: usize,
        rows_total: u64,
    ) -> Progress {
        let mut remaining = vec![Envelope::empty(); splits.len() + 1];
        let mut total = Envelope::empty();
        let mut chunks_pending = 0usize;
        for (owner, env) in pending {
            if let Some(range) = remaining.get_mut(owner) {
                range.absorb(&env);
            }
            total.absorb(&env);
            chunks_pending += 1;
        }
        Progress {
            anchor,
            splits: splits.to_vec(),
            remaining,
            total,
            chunks_total,
            chunks_folded: chunks_total.saturating_sub(chunks_pending),
            rows_total,
            rows_folded: rows_total.saturating_sub(total.rows),
        }
    }

    /// The anchor group-by whose keys the splits partition (the full
    /// group-by over every dimension).
    pub fn anchor(&self) -> CuboidMask {
        self.anchor
    }

    /// Chunks the plan has in total.
    pub fn chunks_total(&self) -> usize {
        self.chunks_total
    }

    /// Chunks folded so far.
    pub fn chunks_folded(&self) -> usize {
        self.chunks_folded
    }

    /// Rows the plan covers in total.
    pub fn rows_total(&self) -> u64 {
        self.rows_total
    }

    /// Rows folded so far.
    pub fn rows_folded(&self) -> u64 {
        self.rows_folded
    }

    /// True when every chunk is folded: bounds are exact and the floor is
    /// byte-identical to the batch build.
    pub fn converged(&self) -> bool {
        self.chunks_folded == self.chunks_total
    }

    /// The slack envelope over everything not yet folded, regardless of
    /// region.
    pub fn total_envelope(&self) -> Envelope {
        self.total
    }

    /// The slack envelope for one cell of `cuboid` at `key`.
    ///
    /// Anchor-cuboid cells route to their owning range (the ownership
    /// contract guarantees no other range's chunks can touch them) and get
    /// that range's tight envelope; any other cuboid aggregates across
    /// ranges, so it gets the global envelope.
    pub fn envelope_for(&self, cuboid: CuboidMask, key: &[u32]) -> Envelope {
        if cuboid != self.anchor {
            return self.total;
        }
        let idx = self.splits.partition_point(|s| s.as_slice() <= key);
        self.remaining.get(idx).copied().unwrap_or(self.total)
    }
}

/// The support threshold pro-rated to the fraction of data processed:
/// `ceil(minsup * processed / total)`, floored at 1.
///
/// Ceiling (not `round`) keeps the scaled threshold a *valid* pro-rating:
/// a group meeting it has support at least `minsup * processed / total`,
/// the exact share of `minsup` the processed prefix represents. At
/// `processed == total` this is exactly `minsup`, so the final snapshot
/// always agrees with the exact answer's predicate. The f64 version this
/// replaces rounded to nearest — e.g. `minsup = 9` at a quarter processed
/// rounds `2.25` down to `2`, admitting groups below the pro-rated
/// support.
pub fn scaled_threshold(minsup: u64, processed: u64, total: u64) -> u64 {
    if total == 0 {
        return minsup.max(1);
    }
    let scaled = (minsup as u128 * processed as u128).div_ceil(total as u128);
    (scaled.min(u64::MAX as u128) as u64).max(1)
}

/// Linear extrapolation of a partial count to the full relation:
/// `partial * total / processed` (0 before any data arrives).
pub fn scaled_count(partial: u64, processed: u64, total: u64) -> u64 {
    if processed == 0 {
        return 0;
    }
    let scaled = partial as u128 * total as u128 / processed as u128;
    scaled.min(u64::MAX as u128) as u64
}

/// Linear extrapolation of a partial sum, saturating at the `i64` rails.
pub fn scaled_sum(partial: i64, processed: u64, total: u64) -> i64 {
    if processed == 0 {
        return 0;
    }
    let scaled = partial as i128 * total as i128 / processed as i128;
    clamp_i128(scaled)
}

fn clamp_i128(v: i128) -> i64 {
    v.clamp(i64::MIN as i128, i64::MAX as i128) as i64
}

/// A deterministic interval per aggregate component, guaranteed to
/// contain the exact value (DESIGN §14's bound algebra).
///
/// Built from a cell's partial [`Aggregate`] (over the folded chunks)
/// plus the [`Envelope`] of what remains unfolded in its region: at most
/// `rows` more tuples, each measuring within `[measure_min, measure_max]`.
/// Since the cell may receive anywhere from none to all of those rows:
///
/// * `count` ∈ `[partial, partial + rows]`;
/// * `sum` moves by between `min(0, rows·measure_min)` and
///   `max(0, rows·measure_max)`;
/// * `min` can only drop, to no lower than `min(partial_min, measure_min)`;
/// * `max` can only rise, to no higher than `max(partial_max, measure_max)`.
///
/// With the empty envelope every interval collapses to a point and the
/// bound *is* the exact aggregate. All arithmetic is integer (i128
/// intermediates, saturating at the i64 rails), so bounds are identical
/// across platforms and runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggBound {
    /// Smallest possible exact count.
    pub count_lo: u64,
    /// Largest possible exact count.
    pub count_hi: u64,
    /// Smallest possible exact sum.
    pub sum_lo: i64,
    /// Largest possible exact sum.
    pub sum_hi: i64,
    /// Smallest possible exact minimum.
    pub min_lo: i64,
    /// Largest possible exact minimum.
    pub min_hi: i64,
    /// Smallest possible exact maximum.
    pub max_lo: i64,
    /// Largest possible exact maximum.
    pub max_hi: i64,
}

impl AggBound {
    /// Bounds the exact aggregate of a cell whose folded partial is
    /// `partial` and whose region's unfolded slack is `env`.
    pub fn over(partial: &Aggregate, env: &Envelope) -> AggBound {
        let rows = env.rows;
        let (sum_slack_lo, sum_slack_hi) = if rows == 0 {
            (0i128, 0i128)
        } else {
            let r = rows as i128;
            (
                (r * env.measure_min as i128).min(0),
                (r * env.measure_max as i128).max(0),
            )
        };
        AggBound {
            count_lo: partial.count,
            count_hi: partial.count.saturating_add(rows),
            sum_lo: clamp_i128(partial.sum as i128 + sum_slack_lo),
            sum_hi: clamp_i128(partial.sum as i128 + sum_slack_hi),
            min_lo: if rows == 0 {
                partial.min
            } else {
                partial.min.min(env.measure_min)
            },
            min_hi: partial.min,
            max_lo: partial.max,
            max_hi: if rows == 0 {
                partial.max
            } else {
                partial.max.max(env.measure_max)
            },
        }
    }

    /// The point bound of a fully-known aggregate.
    pub fn exact(agg: &Aggregate) -> AggBound {
        AggBound::over(agg, &Envelope::empty())
    }

    /// True when `exact` lies inside every component interval.
    pub fn contains(&self, exact: &Aggregate) -> bool {
        self.count_lo <= exact.count
            && exact.count <= self.count_hi
            && self.sum_lo <= exact.sum
            && exact.sum <= self.sum_hi
            && self.min_lo <= exact.min
            && exact.min <= self.min_hi
            && self.max_lo <= exact.max
            && exact.max <= self.max_hi
    }

    /// True when every interval has collapsed to a point.
    pub fn is_exact(&self) -> bool {
        self.count_lo == self.count_hi
            && self.sum_lo == self.sum_hi
            && self.min_lo == self.min_hi
            && self.max_lo == self.max_hi
    }

    /// Width of the count interval (0 once the count is exact).
    pub fn count_width(&self) -> u64 {
        self.count_hi - self.count_lo
    }

    /// True when `other` is at least as tight on every component — the
    /// monotonicity folding must preserve.
    pub fn tightens_to(&self, other: &AggBound) -> bool {
        self.count_lo <= other.count_lo
            && other.count_hi <= self.count_hi
            && self.sum_lo <= other.sum_lo
            && other.sum_hi <= self.sum_hi
            && self.min_lo <= other.min_lo
            && other.min_hi <= self.min_hi
            && self.max_lo <= other.max_lo
            && other.max_hi <= self.max_hi
    }

    /// Clamps a count estimate into the interval, so the reported point
    /// estimate can never leave its own bound.
    pub fn clamp_count(&self, est: u64) -> u64 {
        est.clamp(self.count_lo, self.count_hi)
    }

    /// Clamps a sum estimate into the interval.
    pub fn clamp_sum(&self, est: i64) -> i64 {
        est.clamp(self.sum_lo, self.sum_hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_scaling_diverges_from_the_old_f64_round() {
        // minsup 9 at 1/4 processed: f64 `round` gave (9.0 * 0.25).round()
        // = 2 (nearest), exact ceiling gives ceil(9/4) = 3.
        let (minsup, processed, total) = (9u64, 1u64, 4u64);
        let f64_version = ((minsup * processed) as f64 / total as f64).round() as u64;
        assert_eq!(f64_version, 2);
        assert_eq!(scaled_threshold(minsup, processed, total), 3);
        // And at one eighth: 9/8 = 1.125 → round 1, ceil 2.
        assert_eq!(scaled_threshold(9, 1, 8), 2);
    }

    #[test]
    fn scaling_is_exact_at_the_endpoints() {
        assert_eq!(scaled_threshold(7, 100, 100), 7);
        assert_eq!(scaled_threshold(7, 0, 100), 1, "floor of 1 before data");
        assert_eq!(scaled_threshold(1, 33, 100), 1);
        assert_eq!(scaled_threshold(5, 0, 0), 5, "empty relation: unscaled");
        // No overflow at the extremes.
        assert_eq!(scaled_threshold(u64::MAX, u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn scaled_threshold_never_exceeds_minsup_while_processing() {
        for minsup in [1u64, 2, 3, 9, 100] {
            for total in [1u64, 4, 7, 1000] {
                for processed in 0..=total.min(20) {
                    let t = scaled_threshold(minsup, processed, total);
                    assert!(t >= 1);
                    assert!(t <= minsup.max(1));
                }
            }
        }
    }

    #[test]
    fn extrapolation_is_linear_and_guarded() {
        assert_eq!(scaled_count(10, 25, 100), 40);
        assert_eq!(scaled_count(10, 0, 100), 0);
        assert_eq!(scaled_sum(-30, 30, 90), -90);
        assert_eq!(scaled_sum(i64::MAX, 1, 3), i64::MAX, "saturates");
    }

    #[test]
    fn bound_contains_every_reachable_completion() {
        // Partial: 2 rows summing 5, min 2, max 3. Slack: up to 2 rows
        // each in [-1, 4].
        let mut partial = Aggregate::of(2);
        partial.update(3);
        let env = Envelope {
            rows: 2,
            measure_min: -1,
            measure_max: 4,
        };
        let b = AggBound::over(&partial, &env);
        assert_eq!((b.count_lo, b.count_hi), (2, 4));
        assert_eq!((b.sum_lo, b.sum_hi), (3, 13));
        assert_eq!((b.min_lo, b.min_hi), (-1, 2));
        assert_eq!((b.max_lo, b.max_hi), (3, 4));
        // Enumerate completions: the cell receives 0, 1, or 2 extra rows
        // with any measures in [-1, 4].
        for extra in [vec![], vec![-1], vec![4], vec![-1, 4], vec![0, 0]] {
            let mut exact = partial;
            for m in extra {
                exact.update(m);
            }
            assert!(b.contains(&exact), "completion escaped: {exact:?}");
        }
        assert!(!b.is_exact());
        assert_eq!(b.count_width(), 2);
    }

    #[test]
    fn empty_envelope_collapses_to_the_exact_point() {
        let mut agg = Aggregate::of(-7);
        agg.update(12);
        let b = AggBound::over(&agg, &Envelope::empty());
        assert!(b.is_exact());
        assert_eq!(b, AggBound::exact(&agg));
        assert!(b.contains(&agg));
        assert_eq!(b.count_width(), 0);
    }

    #[test]
    fn unseen_cell_bound_starts_from_the_empty_aggregate() {
        // A key with no folded rows yet: partial is the empty aggregate
        // (count 0, sentinel min/max); the bound must still contain both
        // "stays empty" and "receives rows".
        let empty = Aggregate::empty();
        let env = Envelope {
            rows: 3,
            measure_min: 5,
            measure_max: 9,
        };
        let b = AggBound::over(&empty, &env);
        assert!(b.contains(&empty), "cell may remain absent");
        let mut full = Aggregate::of(5);
        full.update(9);
        full.update(7);
        assert!(b.contains(&full), "cell may receive every slack row");
        assert_eq!(b.count_lo, 0);
        assert_eq!(b.count_hi, 3);
    }

    #[test]
    fn tightening_is_detected_componentwise() {
        let agg = Aggregate::of(1);
        let wide = AggBound::over(
            &agg,
            &Envelope {
                rows: 10,
                measure_min: -5,
                measure_max: 5,
            },
        );
        let tight = AggBound::over(
            &agg,
            &Envelope {
                rows: 2,
                measure_min: -1,
                measure_max: 1,
            },
        );
        assert!(wide.tightens_to(&tight));
        assert!(!tight.tightens_to(&wide));
        assert!(wide.tightens_to(&wide));
        assert_eq!(wide.clamp_count(100), wide.count_hi);
        assert_eq!(wide.clamp_sum(i64::MIN), wide.sum_lo);
    }

    #[test]
    fn negative_only_slack_cannot_raise_the_sum() {
        let agg = Aggregate::of(10);
        let env = Envelope {
            rows: 4,
            measure_min: -3,
            measure_max: -1,
        };
        let b = AggBound::over(&agg, &env);
        // All slack measures are negative: the sum can only fall, and
        // "receive nothing" keeps it at 10.
        assert_eq!((b.sum_lo, b.sum_hi), (10 - 12, 10));
        assert_eq!((b.max_lo, b.max_hi), (10, 10));
        assert_eq!((b.min_lo, b.min_hi), (-3, 10));
    }
}
