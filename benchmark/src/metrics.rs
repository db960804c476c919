//! The metric names, units and bounds — the same lists `BENCHMARK.json`
//! records (a test holds the two together).

use nod_simcore::json::{Json, Num};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (0 for per-layer
    /// metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    e2e(name, unit, better, 0.0)
}

use Better::{Higher, Lower};

/// What a user of the system sees. Host time unless the name says
/// virtual.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("sessions_per_s", "1/s", Higher, 0.25),
    e2e("negotiate_p50_us", "us", Lower, 0.25),
    e2e("negotiate_p99_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
    e2e("served_share", "ratio", Higher, 0.05),
];

/// Single layers, measured from outside by the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    layer("workload.world_build_s", "s", Lower),
    layer("workload.schedule_build_s", "s", Lower),
    layer("mmdb.corpus_build_s", "s", Lower),
    layer("mmdb.documents", "count", Higher),
    layer("mmdb.variants", "count", Higher),
    layer("mmdb.variants_of_document_ns", "ns", Lower),
    layer("qosneg.prepare_us", "us", Lower),
    layer("qosneg.prepare_p99_us", "us", Lower),
    layer("qosneg.prepare_calls", "count", Lower),
    layer("qosneg.offers_per_prepare", "count", Lower),
    layer("qosneg.engine_build_us", "us", Lower),
    layer("qosneg.classify_all_us", "us", Lower),
    layer("qosneg.stream_first_us", "us", Lower),
    layer("qosneg.commit_ok_us", "us", Lower),
    layer("qosneg.commit_refused_us", "us", Lower),
    layer("qosneg.commit_offers_tried", "count", Lower),
    layer("qosneg.commit_first_offer_share", "ratio", Higher),
    layer("qosneg.release_us", "us", Lower),
    layer("qosneg.submit_standard_p50_us", "us", Lower),
    layer("qosneg.submit_rich_p50_us", "us", Lower),
    layer("qosneg.submit_wide_p50_us", "us", Lower),
    layer("qosneg.explain_tax", "ratio", Lower),
    layer("cmfs.try_reserve_ok_ns", "ns", Lower),
    layer("cmfs.try_reserve_refused_ns", "ns", Lower),
    layer("cmfs.release_ns", "ns", Lower),
    layer("cmfs.admit_ok_share", "ratio", Higher),
    layer("netsim.topology_build_s", "s", Lower),
    layer("netsim.path_hit_ns", "ns", Lower),
    layer("netsim.path_miss_us", "us", Lower),
    layer("netsim.try_reserve_ns", "ns", Lower),
    layer("netsim.release_ns", "ns", Lower),
    layer("simcore.event_queue_ns_per_op", "ns", Lower),
    layer("simcore.zipf_sample_ns", "ns", Lower),
    layer("broker.drive_s", "s", Lower),
    layer("broker.us_per_session", "us", Lower),
    layer("broker.us_per_attempt", "us", Lower),
    layer("broker.attempts", "count", Lower),
    layer("broker.retries", "count", Lower),
    layer("broker.events", "count", Lower),
    layer("broker.peak_live_sessions", "count", Lower),
    layer("broker.failed_share", "ratio", Lower),
    layer("broker.session_p99_virtual_ms", "virtual_ms", Lower),
    layer("broker.unattributed_share", "ratio", Lower),
    layer("broker.w2_over_w1", "ratio", Lower),
    layer("broker.scale_sag", "ratio", Lower),
    layer("broker.slab_ns_per_op", "ns", Lower),
    layer("broker.retention_full_tax", "ratio", Lower),
    layer("broker.windows_slo_tax", "ratio", Lower),
    layer("broker.journal_tax", "ratio", Lower),
    layer("broker.journal_bytes_per_event", "B", Lower),
    layer("broker.recover_s", "s", Lower),
    layer("broker.recover_replayed_events", "count", Lower),
    layer("obs.recorder_tax", "ratio", Lower),
    layer("obs.trace_tax", "ratio", Lower),
    layer("obs.all_on_tax", "ratio", Lower),
    layer("obs.counter_ns", "ns", Lower),
    layer("obs.span_ns", "ns", Lower),
    layer("bench.span_overhead_ns", "ns", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
];

/// Measured values by metric name, in insertion order.
#[derive(Debug, Clone, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// The `metrics` object of the result line: exactly `defs`, each
    /// with its value as measured and its unit.
    ///
    /// # Panics
    /// Panics when a metric of `defs` was not measured — the result
    /// line must carry every one.
    pub fn to_json(&self, defs: &[MetricDef]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let value = self
                        .get(d.name)
                        .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
                    let entry = Json::Obj(vec![
                        ("value".into(), Json::Num(Num::F(value))),
                        ("unit".into(), Json::Str(d.unit.into())),
                    ]);
                    (d.name.to_string(), entry)
                })
                .collect(),
        )
    }

    /// Print every measured value. One outside `defs` (the feature-gated
    /// allocation count) is a count.
    pub fn print_table(&self, defs: &[MetricDef]) {
        for &(name, value) in &self.0 {
            let unit = defs
                .iter()
                .find(|d| d.name == name)
                .map_or("count", |d| d.unit);
            println!("  {name:<36} {value:>16.4} {unit}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(manifest: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        manifest
            .get(key)
            .and_then(|v| v.as_arr().ok())
            .expect("BENCHMARK.json lists the metrics")
            .iter()
            .map(|m| {
                let s = |k| {
                    m.get(k)
                        .and_then(|v| v.as_str().ok())
                        .expect("string field")
                };
                let bound = match m.get("bound") {
                    Some(Json::Num(n)) => Some(n.as_f64()),
                    _ => None,
                };
                (
                    s("name").into(),
                    s("unit").into(),
                    s("better").into(),
                    bound,
                )
            })
            .collect()
    }

    fn defined(defs: &[MetricDef], bounded: bool) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                let better = if d.better == Lower { "lower" } else { "higher" };
                (
                    d.name.into(),
                    d.unit.into(),
                    better.into(),
                    bounded.then_some(d.bound),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_and_the_code_define_the_same_metrics_and_workloads() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let manifest = nod_simcore::json::parse(&text).expect("valid JSON");
        assert_eq!(listed(&manifest, "end_to_end"), defined(END_TO_END, true));
        assert_eq!(listed(&manifest, "per_layer"), defined(PER_LAYER, false));
        let workloads: Vec<&str> = manifest
            .get("workloads")
            .and_then(|v| v.as_arr().ok())
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(|n| n.as_str().ok()).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn names_are_unique_and_setup_has_the_largest_bound() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        let setup = END_TO_END
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("required");
        assert!(END_TO_END
            .iter()
            .all(|d| d.bound <= setup.bound && d.bound <= 0.25));
    }
}
