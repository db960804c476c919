//! Point-in-time export of the recorder state.

use std::collections::BTreeMap;

use nod_simcore::json::{from_str, to_string_pretty, JsonError};
use nod_simcore::json_struct;

use crate::hist::{LogBuckets, LogHistogram};

/// Summary of one value/latency histogram.
///
/// Moments (`count`, `mean`, `m2`, `min`, `max`) are exact over the full
/// sample stream; percentiles come from the log-bucketed sketch
/// (`buckets`) and carry at most [`crate::hist::RELATIVE_ERROR`] relative
/// error — at any stream length, unlike the sampled reservoir this
/// replaced. Because the buckets travel with the snapshot, two snapshots
/// merge *exactly*: merged percentiles equal those of the union stream.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Welford second central moment (Σ(x−mean)²); kept so snapshots merge
    /// exactly.
    pub m2: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// The sparse log buckets the percentiles derive from.
    pub buckets: LogBuckets,
}

json_struct!(HistogramSnapshot {
    count,
    mean,
    m2,
    min,
    max,
    p50,
    p90,
    p95,
    p99,
    buckets
});

impl HistogramSnapshot {
    /// Sample standard deviation (unbiased).
    pub fn std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Merge `other` into `self`: moments by Chan's parallel update,
    /// buckets by exact addition, percentiles recomputed from the merged
    /// buckets — so the result is what a single snapshot over the union
    /// stream would report.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let total = n1 + n2;
        let delta = other.mean - self.mean;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut log = LogHistogram::from_buckets(&self.buckets);
        log.merge(&LogHistogram::from_buckets(&other.buckets));
        self.p50 = log.quantile(0.50).clamp(self.min, self.max);
        self.p90 = log.quantile(0.90).clamp(self.min, self.max);
        self.p95 = log.quantile(0.95).clamp(self.min, self.max);
        self.p99 = log.quantile(0.99).clamp(self.min, self.max);
        self.buckets = log.to_buckets();
    }
}

/// The full state of a [`crate::Recorder`] at one instant, as plain data.
///
/// Snapshots serialize to JSON ([`Snapshot::to_json_pretty`]) so experiment
/// runs can persist their metrics next to their tables, and two snapshots
/// can be merged ([`Snapshot::merge`], e.g. across runs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Monotone counters keyed by flattened metric name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

json_struct!(Snapshot {
    counters,
    gauges,
    histograms
});

impl Snapshot {
    /// Value of a counter, 0 when absent.
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Sum of all counters whose key starts with `prefix` — e.g.
    /// `negotiation.outcome{` sums over every status label.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Serialize with indentation.
    pub fn to_json_pretty(&self) -> String {
        to_string_pretty(self)
    }

    /// Parse a snapshot serialized by [`Snapshot::to_json_pretty`].
    pub fn from_json_str(s: &str) -> Result<Self, JsonError> {
        from_str(s)
    }

    /// Merge `other` into `self`: counters add, gauges take `other`'s
    /// value, histograms merge by [`HistogramSnapshot::merge`].
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .and_modify(|mine| mine.merge(h))
                .or_insert_with(|| h.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use nod_simcore::{Json, StreamRng};

    #[test]
    fn snapshot_json_round_trip() {
        let rec = Recorder::new();
        rec.counter_with("negotiation.outcome", &[("status", "SUCCEEDED")], 4);
        rec.gauge("load", 0.75);
        for x in [1.0, 2.0, 3.0] {
            rec.observe("span.enumerate.ms", x);
        }
        let snap = rec.snapshot();
        let text = snap.to_json_pretty();
        let back = Snapshot::from_json_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_json_shape() {
        let rec = Recorder::new();
        rec.counter("c", 1);
        rec.observe("h", 2.0);
        let json: Json = nod_simcore::json::parse(&rec.snapshot().to_json_pretty()).unwrap();
        assert_eq!(
            json.field("counters").unwrap().field("c").unwrap(),
            &Json::Num(nod_simcore::json::Num::U(1))
        );
        let h = json.field("histograms").unwrap().field("h").unwrap();
        for key in [
            "count", "mean", "min", "max", "p50", "p90", "p95", "p99", "buckets",
        ] {
            assert!(h.get(key).is_some(), "missing {key}");
        }
    }

    #[test]
    fn counter_sum_over_labels() {
        let rec = Recorder::new();
        rec.counter_with("o", &[("status", "A")], 2);
        rec.counter_with("o", &[("status", "B")], 3);
        rec.counter("other", 9);
        assert_eq!(rec.snapshot().counter_sum("o{"), 5);
    }

    /// Randomized merge property: merging two snapshots matches recording
    /// the union of samples — counters and bucket quantiles exactly,
    /// histogram moments to float tolerance. Originally a proptest; now
    /// driven by seeded StreamRng.
    #[test]
    fn merge_equals_union() {
        for case in 0..64u64 {
            let mut rng = StreamRng::new(0xD1FF ^ case);
            let rec_a = Recorder::new();
            let rec_b = Recorder::new();
            let rec_union = Recorder::new();
            let names = ["lat", "sns", "slack"];
            for _ in 0..rng.range_u64(1, 200) {
                let name = names[rng.below(names.len() as u64) as usize];
                let to_a = rng.chance(0.5);
                let x = rng.range_f64(-100.0, 100.0);
                if rng.chance(0.3) {
                    let side = if to_a { &rec_a } else { &rec_b };
                    side.counter(name, 1);
                    rec_union.counter(name, 1);
                } else {
                    let side = if to_a { &rec_a } else { &rec_b };
                    side.observe(name, x);
                    rec_union.observe(name, x);
                }
            }
            let mut merged = rec_a.snapshot();
            merged.merge(&rec_b.snapshot());
            let union = rec_union.snapshot();
            assert_eq!(merged.counters, union.counters, "case {case}");
            assert_eq!(
                merged.histograms.keys().collect::<Vec<_>>(),
                union.histograms.keys().collect::<Vec<_>>(),
                "case {case}"
            );
            for (k, m) in &merged.histograms {
                let u = &union.histograms[k];
                assert_eq!(m.count, u.count, "case {case} {k}");
                assert!((m.mean - u.mean).abs() < 1e-9, "case {case} {k}");
                assert!((m.m2 - u.m2).abs() < 1e-6, "case {case} {k}");
                assert_eq!(m.min, u.min, "case {case} {k}");
                assert_eq!(m.max, u.max, "case {case} {k}");
                // The log buckets make the merge exact, not approximate:
                assert_eq!(m.buckets, u.buckets, "case {case} {k}");
                for (p_m, p_u) in [
                    (m.p50, u.p50),
                    (m.p90, u.p90),
                    (m.p95, u.p95),
                    (m.p99, u.p99),
                ] {
                    assert_eq!(p_m, p_u, "case {case} {k}");
                }
            }
        }
    }
}
