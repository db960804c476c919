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
//!    `None` check, no allocation, no locking. The same holds one level
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
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
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

pub use hist::{HistogramShardAcc, LogBuckets, LogHistogram, ValueHistogram, RELATIVE_ERROR};
pub use prom::to_prometheus_text;
pub use recorder::{Recorder, Span};
pub use retain::TailKeeper;
pub use sink::{FileSink, MemorySink, ObsEvent, ObsSink, StderrSink};
pub use slo::{default_fleet_slos, Objective, SloAlert, SloMonitor, SloSpec};
pub use snapshot::{HistogramSnapshot, Snapshot};
pub use trace::{
    FlightDump, RetentionPolicy, RetentionStats, TraceEvent, TraceId, Tracer, FLIGHT_CAPACITY,
};

/// Counter incremented (with a `metric` label) whenever a non-finite sample
/// is dropped at the recorder boundary.
pub const DROPPED_SAMPLES: &str = "obs.dropped_samples";

/// Flatten a metric name and label set into the canonical storage key.
///
/// Labels are sorted by key so call-site order never splits a metric:
/// `negotiation.outcome{status=SUCCEEDED}`.
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    write_metric_key(&mut out, name, labels);
    out
}

/// [`metric_key`] writing into a caller-owned buffer (reused capacity).
fn write_metric_key(out: &mut String, name: &str, labels: &[(&str, &str)]) {
    // One- and two-label calls (the vast majority) skip the sort buffer.
    let mut two: [(&str, &str); 2];
    let sorted: &[(&str, &str)];
    let owned: Vec<(&str, &str)>;
    match labels {
        [] => {
            out.push_str(name);
            return;
        }
        [_] => sorted = labels,
        [a, b] => {
            two = [*a, *b];
            if two[0] > two[1] {
                two.swap(0, 1);
            }
            sorted = &two;
        }
        _ => {
            let mut v = labels.to_vec();
            v.sort();
            owned = v;
            sorted = &owned;
        }
    }
    let mut cap = name.len() + 2;
    for (k, v) in sorted {
        cap += k.len() + v.len() + 2;
    }
    out.reserve(cap);
    out.push_str(name);
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

/// Cap on the per-thread pool behind [`intern_metric_key`]; past it new
/// keys fall back to a per-call allocation instead of growing the leak.
const INTERN_CAP: usize = 4096;

std::thread_local! {
    static INTERN_SCRATCH: std::cell::RefCell<String> =
        const { std::cell::RefCell::new(String::new()) };
    static INTERNED: std::cell::RefCell<std::collections::HashSet<&'static str>> =
        std::cell::RefCell::new(std::collections::HashSet::new());
}

/// [`metric_key`] through a bounded per-thread intern pool: the distinct
/// key set of a run is small (names × label values), so steady-state
/// lookups return a leaked `&'static str` and allocate nothing. Used by
/// the tracing hot path, where a point fires per admission verdict.
pub(crate) fn intern_metric_key(
    name: &str,
    labels: &[(&str, &str)],
) -> std::borrow::Cow<'static, str> {
    INTERN_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        scratch.clear();
        write_metric_key(&mut scratch, name, labels);
        INTERNED.with(|set| {
            let mut set = set.borrow_mut();
            if let Some(&k) = set.get(scratch.as_str()) {
                return std::borrow::Cow::Borrowed(k);
            }
            if set.len() < INTERN_CAP {
                let leaked: &'static str = Box::leak(scratch.clone().into_boxed_str());
                set.insert(leaked);
                std::borrow::Cow::Borrowed(leaked)
            } else {
                std::borrow::Cow::Owned(scratch.clone())
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_key_sorts_labels() {
        assert_eq!(metric_key("a.b", &[]), "a.b");
        assert_eq!(metric_key("a.b", &[("z", "1"), ("a", "2")]), "a.b{a=2,z=1}");
        assert_eq!(metric_key("a.b", &[("a", "2"), ("z", "1")]), "a.b{a=2,z=1}");
    }
}
