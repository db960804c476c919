//! Observability for the negotiation pipeline.
//!
//! The paper's negotiation procedure is a six-stage pipeline (local
//! negotiation → compatibility pruning → classification-parameter
//! computation → offer ordering → resource commitment → user confirmation).
//! This crate makes that pipeline visible: a [`Recorder`] accumulates named
//! counters, gauges and value histograms (with labels, e.g.
//! `negotiation.outcome{status=FAILEDWITHOFFER}`), times pipeline stages
//! with lightweight [`Span`]s, streams structured events to an [`ObsSink`]
//! as JSON lines, and exports the whole state as a diffable [`Snapshot`].
//!
//! On top of the aggregate layer sits **causal tracing**: a [`Tracer`]
//! partitions span/point events into per-session traces stamped with
//! virtual time ([`trace`]), a bounded flight recorder dumps the last N
//! events when an invariant breaks, and [`analyze`] reconstructs span
//! trees from a trace log — critical path, retry waterfalls, wait-time
//! attribution, text report and Chrome `trace_event` export.
//!
//! Design constraints, in order:
//!
//! 1. **Zero dependencies** — built on `nod-simcore`'s stats and JSON
//!    layers only, so every crate in the workspace can afford to link it.
//! 2. **Free when absent** — instrumented code holds an
//!    `Option<&Recorder>` / `Option<Recorder>`; the disabled path is a
//!    `None` check and no allocation. The same holds one level
//!    up: a recorder without a tracer attached never pays for tracing.
//! 3. **Panic-free boundary** — the underlying
//!    [`OnlineStats::push`](nod_simcore::OnlineStats::push) asserts finite
//!    input; the recorder instead *drops* non-finite samples and counts
//!    them under `obs.dropped_samples` so a NaN produced mid-negotiation
//!    degrades a metric rather than aborting the session.
//! 4. **Deterministic** — histogram quantiles come from a log-bucketed
//!    sketch ([`hist`]) with bounded relative error and *exact* merge (no
//!    sampling), and spans can be timed by the simulation clock
//!    ([`Recorder::set_sim_time_us`]) so metrics and traces from a seeded
//!    experiment are reproducible bit-for-bit.
//!
//! # Quick example
//!
//! ```
//! use nod_obs::{MemorySink, Recorder};
//! use std::rc::Rc;
//!
//! let sink = Rc::new(MemorySink::new());
//! let rec = Recorder::with_sink(sink.clone());
//! rec.counter_with("negotiation.outcome", &[("status", "SUCCEEDED")], 1);
//! let span = rec.span("negotiate");
//! span.child("enumerate").end();
//! span.end(); // spans record `span.<name>.ms` histograms as they end
//! let snap = rec.snapshot();
//! assert_eq!(snap.counter("negotiation.outcome{status=SUCCEEDED}"), 1);
//! assert!(snap.histograms.contains_key("span.enumerate.ms"));
//! assert_eq!(sink.events().len(), 7); // counter + 2×(start, end, observe)
//! ```

pub mod analyze;
pub mod hist;
pub mod prom;
mod recorder;
pub mod retain;
mod sink;
pub mod slo;
mod snapshot;
pub mod trace;

pub use hist::{LogBuckets, LogHistogram, ValueHistogram, RELATIVE_ERROR};
pub use prom::to_prometheus_text;
pub use recorder::{Counter, Gauge, HandleSet, Histogram, Recorder, Span, SpanKind};
pub use retain::TailKeeper;
pub use sink::{MemorySink, ObsEvent, ObsSink};
pub use slo::{default_fleet_slos, Objective, SloAlert, SloMonitor, SloSpec};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{
    FlightDump, RetentionPolicy, RetentionStats, TraceEvent, TraceId, Tracer, FLIGHT_CAPACITY,
};

/// Counter incremented (with a `metric` label) whenever a non-finite sample
/// is dropped at the recorder boundary.
pub const DROPPED_SAMPLES: &str = "obs.dropped_samples";

/// Flatten a metric name and label set into the canonical storage key,
/// written into a caller-owned buffer (reused capacity).
///
/// Labels are sorted by key so call-site order never splits a metric:
/// `negotiation.outcome{status=SUCCEEDED}`. Up to four labels sort on the
/// stack, so a warm buffer allocates nothing.
fn write_metric_key(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    out.push_str(name);
    if labels.is_empty() {
        return;
    }
    let mut inline = [("", ""); 4];
    let mut spilled = Vec::new();
    let sorted: &mut [(&str, &str)] = match inline.get_mut(..labels.len()) {
        Some(buf) => {
            buf.copy_from_slice(labels);
            buf
        }
        None => {
            spilled.extend_from_slice(labels);
            &mut spilled
        }
    };
    sorted.sort_unstable();
    out.push('{');
    for (i, (k, v)) in sorted.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push('=');
        out.push_str(v);
    }
    out.push('}');
}

/// The pool behind [`interned_key`], with the scratch buffer keys are
/// flattened into before the lookup.
#[derive(Default)]
struct InternPool {
    keys: std::collections::HashSet<&'static str>,
    scratch: String,
}

thread_local! {
    /// Per thread: interned keys are leaked `&'static str`s, so a key
    /// handed out on one thread stays valid on every other.
    static POOL: std::cell::RefCell<InternPool> = Default::default();
}

/// The canonical metric key as a `&'static str`, through one pool: the
/// first call per distinct key leaks one copy, every later call returns it
/// without allocating. The key set is names × label values — bounded by
/// the topology (servers, links) and the label enums, not by how many
/// sessions run. Metric handles and compact trace events carry these.
pub fn interned_key(name: &str, labels: &[(&str, &str)]) -> &'static str {
    POOL.with_borrow_mut(|pool| {
        pool.scratch.clear();
        write_metric_key(&mut pool.scratch, name, labels);
        if let Some(&key) = pool.keys.get(pool.scratch.as_str()) {
            return key;
        }
        let key: &'static str = Box::leak(pool.scratch.clone().into_boxed_str());
        pool.keys.insert(key);
        key
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
        let mut out = String::new();
        write_metric_key(&mut out, name, labels);
        out
    }

    #[test]
    fn metric_key_sorts_labels() {
        assert_eq!(metric_key("a.b", &[]), "a.b");
        assert_eq!(metric_key("a.b", &[("z", "1"), ("a", "2")]), "a.b{a=2,z=1}");
        assert_eq!(metric_key("a.b", &[("a", "2"), ("z", "1")]), "a.b{a=2,z=1}");
        let five = [("e", "5"), ("d", "4"), ("c", "3"), ("b", "2"), ("a", "1")];
        assert_eq!(metric_key("m", &five), "m{a=1,b=2,c=3,d=4,e=5}");
    }

    #[test]
    fn interned_keys_are_flattened_once() {
        let a = interned_key("x", &[("k", "v")]);
        assert_eq!(a, "x{k=v}");
        assert!(std::ptr::eq(a, interned_key("x", &[("k", "v")])));
    }
}
