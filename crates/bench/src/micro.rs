//! A dependency-free microbenchmark harness for the B* benches.
//!
//! The harness keeps the parts of a criterion-style workflow the benches
//! actually rely on — warmup, repeated timed samples, median-of-samples
//! reporting, grouped/parameterized functions — and drops the rest. Each
//! sample times a batch of iterations sized so one batch takes roughly
//! the harness's target sample time; per-iteration figures are the batch time
//! divided by the batch size. Results print as an aligned table
//! ([`crate::Table`]) with median/mean/min nanoseconds per iteration, so
//! bench output stays diffable run-to-run.
//!
//! Respects `NOD_BENCH_FAST=1` to shrink warmup and sample counts — used by
//! CI smoke runs that only need the benches to execute, not to be precise.
//! When `NOD_BENCH_JSON_OUT` names a file, [`Micro::report`] additionally
//! writes the collected results and metrics there as JSON so scripts (see
//! `scripts/bench_snapshot.sh`) can snapshot the numbers machine-readably.

use std::time::{Duration, Instant};

use nod_simcore::json::{Json, Num};

use crate::Table;

/// One benchmark's measured statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MicroResult {
    /// Median of the per-sample means.
    pub median_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
    /// Fastest sample.
    pub min_ns: f64,
    /// Iterations per timed sample.
    pub batch: u64,
    /// Number of timed samples.
    pub samples: usize,
}

/// The harness: collects named results and renders them as a table.
#[derive(Debug)]
pub struct Micro {
    warmup: Duration,
    target_sample: Duration,
    samples: usize,
    results: Vec<(String, MicroResult)>,
    metrics: Vec<(String, f64)>,
}

impl Default for Micro {
    fn default() -> Self {
        Micro::new()
    }
}

impl Micro {
    /// A harness with the default budget (~20 samples of ~10 ms each).
    pub fn new() -> Self {
        let fast = std::env::var("NOD_BENCH_FAST").is_ok_and(|v| v == "1");
        Micro {
            warmup: Duration::from_millis(if fast { 5 } else { 200 }),
            target_sample: Duration::from_millis(if fast { 2 } else { 10 }),
            samples: if fast { 3 } else { 20 },
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Override the number of timed samples.
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Time `f`, recording the result under `name`. The closure's return
    /// value is kept live so the work is not optimized away.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> MicroResult {
        // Warmup: run until the warmup budget elapses, counting iterations
        // to size the timed batches.
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            std::hint::black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;
        let batch = ((self.target_sample.as_secs_f64() / per_iter.max(1e-9)) as u64).max(1);

        let mut sample_ns: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t0 = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            sample_ns.push(t0.elapsed().as_nanos() as f64 / batch as f64);
        }
        sample_ns.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let result = MicroResult {
            median_ns: sample_ns[sample_ns.len() / 2],
            mean_ns: sample_ns.iter().sum::<f64>() / sample_ns.len() as f64,
            min_ns: sample_ns[0],
            batch,
            samples: sample_ns.len(),
        };
        self.results.push((name.to_string(), result));
        result
    }

    /// Record a plain numeric metric (allocation counts, ratios, sizes)
    /// alongside the timed results; metrics go into the table footer and
    /// the JSON dump but carry no timing statistics.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// The results collected so far, in bench order.
    pub fn results(&self) -> &[(String, MicroResult)] {
        &self.results
    }

    /// The plain metrics collected so far, in record order.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }

    /// Render all collected results as an aligned table.
    pub fn render(&self) -> String {
        let mut t = Table::new(&["bench", "median", "mean", "min", "iters"]);
        for (name, r) in &self.results {
            t.row(&[
                name.clone(),
                fmt_ns(r.median_ns),
                fmt_ns(r.mean_ns),
                fmt_ns(r.min_ns),
                format!("{}x{}", r.samples, r.batch),
            ]);
        }
        let mut out = t.render();
        if !self.metrics.is_empty() {
            let mut mt = Table::new(&["metric", "value"]);
            for (name, v) in &self.metrics {
                mt.row(&[name.clone(), fmt_metric(*v)]);
            }
            out.push_str(&mt.render());
        }
        out
    }

    /// The collected results and metrics as a JSON object:
    /// `{"benches": {name: {median_ns, mean_ns, min_ns}}, "metrics": {name: v}}`.
    pub fn to_json(&self) -> Json {
        let benches = self
            .results
            .iter()
            .map(|(name, r)| {
                let stats = Json::Obj(vec![
                    ("median_ns".into(), Json::Num(Num::F(r.median_ns))),
                    ("mean_ns".into(), Json::Num(Num::F(r.mean_ns))),
                    ("min_ns".into(), Json::Num(Num::F(r.min_ns))),
                ]);
                (name.clone(), stats)
            })
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(name, v)| (name.clone(), Json::Num(Num::F(*v))))
            .collect();
        Json::Obj(vec![
            ("benches".into(), Json::Obj(benches)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Print the table to stdout (the benches' final act). When the
    /// `NOD_BENCH_JSON_OUT` environment variable names a path, also write
    /// the results there as JSON for scripted snapshots.
    pub fn report(&self) {
        print!("{}", self.render());
        if let Ok(path) = std::env::var("NOD_BENCH_JSON_OUT") {
            if !path.is_empty() {
                let body = self.to_json().to_string_pretty();
                if let Err(e) = std::fs::write(&path, body + "\n") {
                    eprintln!("warning: NOD_BENCH_JSON_OUT={path}: {e}");
                }
            }
        }
    }
}

/// Metric formatting: integers print bare, fractions keep two decimals.
fn fmt_metric(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.2}")
    }
}

/// Human-scale formatting: ns below 1 µs, µs below 1 ms, else ms.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_harness() -> Micro {
        Micro {
            warmup: Duration::from_micros(200),
            target_sample: Duration::from_micros(100),
            samples: 5,
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    #[test]
    fn measures_and_orders_stats() {
        let mut m = fast_harness();
        let r = m.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..100u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(r.min_ns > 0.0);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.batch >= 1);
        assert_eq!(r.samples, 5);
    }

    #[test]
    fn render_lists_benches_in_order() {
        let mut m = fast_harness();
        m.bench("first", || 1u64);
        m.bench("second", || 2u64);
        let out = m.render();
        let first = out.find("first").unwrap();
        let second = out.find("second").unwrap();
        assert!(first < second, "{out}");
    }

    #[test]
    fn metrics_render_and_serialize() {
        let mut m = fast_harness();
        m.bench("timed", || 1u64);
        m.metric("allocs", 42.0);
        m.metric("ratio", 2.5);
        let out = m.render();
        assert!(out.contains("allocs"), "{out}");
        assert!(out.contains("42"), "{out}");
        let json = m.to_json().to_string_compact();
        assert!(json.contains("\"allocs\":42"), "{json}");
        assert!(json.contains("\"ratio\":2.5"), "{json}");
        assert!(json.contains("\"timed\""), "{json}");
        assert!(json.contains("median_ns"), "{json}");
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12.3), "12.3 ns");
        assert_eq!(fmt_ns(12_300.0), "12.30 µs");
        assert_eq!(fmt_ns(12_300_000.0), "12.30 ms");
    }
}
