//! Mergeable log-bucketed value histograms.
//!
//! Replaces the earlier reservoir-sampled percentiles: a sample `x` lands
//! in bucket `ceil(log_γ |x|)` with `γ = (1+α)/(1−α)`, which bounds the
//! relative error of any reported quantile by `α` (1%) regardless of how
//! many samples stream through — and, unlike a reservoir, two histograms
//! merge *exactly* by adding bucket counts, so multi-phase snapshots
//! report the same quantiles the union stream would have.
//! Negative values get their own mirrored bucket region and near-zero
//! values a dedicated zero bucket, so signed metrics (deltas, slacks)
//! summarize correctly.
//!
//! Storage is one dense run of counts per sign, from the smallest to the
//! largest bucket seen, so recording a sample is an index computation and
//! an increment: a latency distribution spanning 1 µs – 100 s spans ~900
//! buckets, the whole finite `f64` range fewer than 40 000.

use nod_simcore::json_struct;
use nod_simcore::OnlineStats;

use crate::snapshot::HistogramSnapshot;

/// Relative accuracy bound α of every reported quantile.
pub const RELATIVE_ERROR: f64 = 0.01;

/// |x| below this is counted in the zero bucket (log-buckets cannot hold
/// 0, and values this small are noise for every metric we keep).
const ZERO_EPSILON: f64 = 1e-12;

fn gamma() -> f64 {
    (1.0 + RELATIVE_ERROR) / (1.0 - RELATIVE_ERROR)
}

/// The serialized form of a [`LogHistogram`]: sparse `(index, count)`
/// pairs per sign region, ascending by index. Bucket `i` covers
/// magnitudes `(γ^(i-1), γ^i]`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogBuckets {
    /// Samples with `|x| < 1e-12`.
    pub zero: u64,
    /// Positive-value buckets.
    pub pos: Vec<(i64, u64)>,
    /// Negative-value buckets (indexed by magnitude).
    pub neg: Vec<(i64, u64)>,
}

json_struct!(LogBuckets { zero, pos, neg });

/// One sign region: `counts[k]` holds bucket `base + k`. Only a sample
/// widens the run, so it spans exactly the smallest to the largest
/// non-empty bucket, and derived equality is equality of the buckets.
#[derive(Debug, Clone, Default, PartialEq)]
struct Region {
    base: i64,
    counts: Vec<u64>,
}

impl Region {
    fn add(&mut self, i: i64, n: u64) {
        if n == 0 {
            return;
        }
        if self.counts.is_empty() {
            self.base = i;
        } else if i < self.base {
            let grow = (self.base - i) as usize;
            self.counts.splice(0..0, std::iter::repeat_n(0, grow));
            self.base = i;
        }
        let k = (i - self.base) as usize;
        if k >= self.counts.len() {
            self.counts.resize(k + 1, 0);
        }
        self.counts[k] += n;
    }

    /// Non-empty buckets `(index, count)`, ascending.
    fn iter(&self) -> impl DoubleEndedIterator<Item = (i64, u64)> + '_ {
        let base = self.base;
        (self.counts.iter().enumerate())
            .filter(|&(_, &n)| n > 0)
            .map(move |(k, &n)| (base + k as i64, n))
    }
}

/// A log-bucketed histogram with bounded relative error and exact merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LogHistogram {
    zero: u64,
    pos: Region,
    neg: Region,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    fn index(magnitude: f64) -> i64 {
        (magnitude.ln() / gamma().ln()).ceil() as i64
    }

    /// The representative value of bucket `i` (the geometric midpoint of
    /// its range, which is what bounds the relative error by α).
    fn bucket_value(i: i64) -> f64 {
        let g = gamma();
        2.0 * g.powi(i as i32) / (g + 1.0)
    }

    /// Record one finite sample.
    pub fn record(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "caller filters non-finite samples");
        if x.abs() < ZERO_EPSILON {
            self.zero += 1;
        } else if x > 0.0 {
            self.pos.add(Self::index(x), 1);
        } else {
            self.neg.add(Self::index(-x), 1);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.zero + self.pos.counts.iter().sum::<u64>() + self.neg.counts.iter().sum::<u64>()
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) with relative error ≤
    /// [`RELATIVE_ERROR`]; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        // 0-based rank of the requested order statistic.
        let rank = (q.clamp(0.0, 1.0) * (total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        // Ascending value order: most-negative first (largest magnitude),
        // then zero, then positives.
        for (i, n) in self.neg.iter().rev() {
            seen += n;
            if seen > rank {
                return -Self::bucket_value(i);
            }
        }
        seen += self.zero;
        if seen > rank {
            return 0.0;
        }
        for (i, n) in self.pos.iter() {
            seen += n;
            if seen > rank {
                return Self::bucket_value(i);
            }
        }
        // Unreachable when counts are consistent; fall back to the top.
        (self.pos.iter().next_back()).map_or(0.0, |(i, _)| Self::bucket_value(i))
    }

    /// Add `other`'s buckets into `self` — the exact merge: quantiles of
    /// the merged histogram equal quantiles of the union stream.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.zero += other.zero;
        for (i, n) in other.pos.iter() {
            self.pos.add(i, n);
        }
        for (i, n) in other.neg.iter() {
            self.neg.add(i, n);
        }
    }

    /// Export the sparse buckets (for snapshots).
    pub fn to_buckets(&self) -> LogBuckets {
        LogBuckets {
            zero: self.zero,
            pos: self.pos.iter().collect(),
            neg: self.neg.iter().collect(),
        }
    }

    /// Rebuild from exported buckets.
    pub fn from_buckets(b: &LogBuckets) -> Self {
        let mut h = LogHistogram {
            zero: b.zero,
            ..LogHistogram::default()
        };
        for &(i, n) in &b.pos {
            h.pos.add(i, n);
        }
        for &(i, n) in &b.neg {
            h.neg.add(i, n);
        }
        h
    }
}

/// Exact moments (Welford) plus log-bucketed quantiles — the full state
/// behind every recorder histogram, also usable standalone (the broker
/// tracks session latency with one).
#[derive(Debug, Clone)]
pub struct ValueHistogram {
    stats: OnlineStats,
    log: LogHistogram,
}

impl Default for ValueHistogram {
    fn default() -> Self {
        ValueHistogram::new()
    }
}

impl ValueHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        ValueHistogram {
            // Not the derived default: OnlineStats::new() seeds min/max
            // with the infinities so the first sample wins.
            stats: OnlineStats::new(),
            log: LogHistogram::new(),
        }
    }

    /// Record one finite sample (callers filter non-finite input).
    pub fn record(&mut self, x: f64) {
        self.stats.push(x);
        self.log.record(x);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Summarize: exact count/mean/m2/min/max, log-bucketed quantiles
    /// clamped into `[min, max]`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let n = self.stats.count();
        let m2 = if n < 2 {
            0.0
        } else {
            self.stats.variance() * (n - 1) as f64
        };
        let min = self.stats.min().unwrap_or(0.0);
        let max = self.stats.max().unwrap_or(0.0);
        let q = |p: f64| {
            if n == 0 {
                0.0
            } else {
                self.log.quantile(p).clamp(min, max)
            }
        };
        HistogramSnapshot {
            count: n,
            mean: self.stats.mean(),
            m2,
            min,
            max,
            p50: q(0.50),
            p90: q(0.90),
            p95: q(0.95),
            p99: q(0.99),
            buckets: self.log.to_buckets(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_within_relative_error() {
        let mut h = LogHistogram::new();
        for x in 1..=10_000 {
            h.record(x as f64);
        }
        for (q, expect) in [(0.5, 5_000.0), (0.95, 9_500.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            let rel = (got - expect).abs() / expect;
            assert!(rel <= 2.0 * RELATIVE_ERROR, "q{q}: {got} vs {expect}");
        }
    }

    #[test]
    fn signed_and_zero_samples_order_correctly() {
        let mut h = LogHistogram::new();
        for x in [-100.0, -10.0, 0.0, 10.0, 100.0] {
            h.record(x);
        }
        assert_eq!(h.count(), 5);
        assert!(h.quantile(0.0) < -98.0);
        assert_eq!(h.quantile(0.5), 0.0);
        assert!(h.quantile(1.0) > 98.0);
    }

    #[test]
    fn merge_equals_union_exactly() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut union = LogHistogram::new();
        for i in 0..1_000 {
            let x = (i as f64) * 1.7 - 300.0;
            if i % 3 == 0 {
                a.record(x);
            } else {
                b.record(x);
            }
            union.record(x);
        }
        a.merge(&b);
        assert_eq!(a, union, "bucket-level merge is exact");
        for q in [0.01, 0.25, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), union.quantile(q));
        }
    }

    #[test]
    fn buckets_round_trip() {
        let mut h = LogHistogram::new();
        for x in [-5.0, 0.0, 1.0, 2.0, 1e9] {
            h.record(x);
        }
        let b = h.to_buckets();
        assert_eq!(LogHistogram::from_buckets(&b), h);
    }

    use nod_simcore::StreamRng;

    /// A random histogram: signed magnitudes over ~9 decades plus zeros.
    fn random_hist(rng: &mut StreamRng, samples: u64) -> LogHistogram {
        let mut h = LogHistogram::new();
        for _ in 0..samples {
            if rng.chance(0.05) {
                h.record(0.0);
            } else {
                let mag = 10f64.powf(rng.range_f64(-4.0, 5.0));
                h.record(if rng.chance(0.3) { -mag } else { mag });
            }
        }
        h
    }

    #[test]
    fn merge_is_commutative() {
        for case in 0..32u64 {
            let mut rng = StreamRng::new(0xC0_44 ^ case);
            let na = rng.range_u64(0, 400);
            let a = random_hist(&mut rng, na);
            let nb = rng.range_u64(0, 400);
            let b = random_hist(&mut rng, nb);
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            assert_eq!(ab, ba, "case {case}: merge must be commutative");
        }
    }

    #[test]
    fn merge_is_associative() {
        for case in 0..32u64 {
            let mut rng = StreamRng::new(0xA5_50 ^ case);
            let na = rng.range_u64(0, 300);
            let a = random_hist(&mut rng, na);
            let nb = rng.range_u64(0, 300);
            let b = random_hist(&mut rng, nb);
            let nc = rng.range_u64(0, 300);
            let c = random_hist(&mut rng, nc);
            // (a ∪ b) ∪ c
            let mut left = a.clone();
            left.merge(&b);
            left.merge(&c);
            // a ∪ (b ∪ c)
            let mut bc = b.clone();
            bc.merge(&c);
            let mut right = a.clone();
            right.merge(&bc);
            assert_eq!(left, right, "case {case}: merge must be associative");
        }
    }
}
