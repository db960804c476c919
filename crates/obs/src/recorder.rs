//! The metric recorder and its span handles.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, MutexGuard, OnceLock};
use std::time::Instant;

use nod_simcore::sync::Mutex;

use crate::hist::{HistogramShardAcc, ValueHistogram};
use crate::sink::{ObsEvent, ObsSink};
use crate::snapshot::Snapshot;
use crate::trace::{TraceId, Tracer};
use crate::{metric_key, DROPPED_SAMPLES};

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, ValueHistogram>,
}

/// Where metric writes land.
enum Store {
    /// One table behind one lock — the default, with exact last-write
    /// gauges and exact Welford histogram moments.
    Locked(Mutex<State>),
    /// Per-worker-thread tables merged at snapshot time, so a threaded
    /// fleet run never serializes its hot path on one recorder lock.
    Sharded(Shards),
}

struct Shards {
    shards: Box<[Mutex<State>]>,
    /// Next shard to hand to a thread that has none yet.
    next: AtomicUsize,
}

/// Each thread remembers which shard it owns per sharded recorder
/// (keyed by the recorder's allocation address), so the hot path is one
/// thread-local scan instead of an atomic claim. Bounded: the cache is
/// cleared if it ever fills, which only costs a re-claim.
const SHARD_CACHE_CAP: usize = 64;

thread_local! {
    static SHARD_OF: RefCell<Vec<(usize, usize)>> = const { RefCell::new(Vec::new()) };
}

impl Shards {
    /// The calling thread's shard for the recorder identified by `token`.
    fn shard(&self, token: usize) -> &Mutex<State> {
        let idx = SHARD_OF.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some(&(_, i)) = cache.iter().find(|(t, _)| *t == token) {
                i
            } else {
                let i = self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len();
                if cache.len() >= SHARD_CACHE_CAP {
                    cache.clear();
                }
                cache.push((token, i));
                i
            }
        });
        &self.shards[idx]
    }
}

struct Shared {
    store: Store,
    sink: Option<Arc<dyn ObsSink>>,
    /// Set-once causal tracer; absent on the vast majority of recorders.
    tracer: OnceLock<Tracer>,
    span_ids: AtomicU64,
    epoch: Instant,
    sim_time_us: AtomicU64,
    use_sim_clock: AtomicBool,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let store = match &self.store {
            Store::Locked(_) => "locked".to_string(),
            Store::Sharded(s) => format!("sharded({})", s.shards.len()),
        };
        f.debug_struct("Shared")
            .field("store", &store)
            .field("sink", &self.sink.as_ref().map(|_| "<sink>"))
            .finish_non_exhaustive()
    }
}

/// A shared handle to a metric store plus an optional event sink.
///
/// `Recorder` is an `Arc` internally: clone it freely, hand clones to every
/// subsystem, and read one merged [`Snapshot`] at the end. All methods take
/// `&self` and are thread-safe.
///
/// Instrumented code should hold an `Option<Recorder>` (or
/// `Option<&Recorder>` in `Copy` contexts) so that the disabled
/// configuration costs a branch and nothing else.
#[derive(Clone, Debug)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with no event sink (metrics only).
    pub fn new() -> Self {
        Recorder::build(None, None)
    }

    /// A recorder that also streams every event to `sink`.
    pub fn with_sink(sink: Arc<dyn ObsSink>) -> Self {
        Recorder::build(Some(sink), None)
    }

    /// A recorder whose metric tables are sharded across worker threads
    /// (each thread claims a private shard on first write), merged into one
    /// [`Snapshot`] on read — so threaded fleet runs never contend on a
    /// recorder lock.
    ///
    /// The determinism contract: the merged snapshot depends only on the
    /// *multiset* of writes, not on which thread made them — counters sum
    /// exactly, gauges aggregate by running **max** (not last-write, which
    /// would be scheduler-dependent), and histogram summaries are derived
    /// from the merged log buckets ([`HistogramShardAcc`]), so the same
    /// seed yields a byte-identical snapshot at any thread count. Histogram
    /// `mean`/`m2` therefore carry the buckets' ≤ 1% relative error instead
    /// of being Welford-exact.
    pub fn sharded(shards: usize) -> Self {
        Recorder::build(None, Some(shards.max(1)))
    }

    fn build(sink: Option<Arc<dyn ObsSink>>, shards: Option<usize>) -> Self {
        let store = match shards {
            None => Store::Locked(Mutex::new(State::default())),
            Some(n) => Store::Sharded(Shards {
                shards: (0..n).map(|_| Mutex::new(State::default())).collect(),
                next: AtomicUsize::new(0),
            }),
        };
        Recorder {
            shared: Arc::new(Shared {
                store,
                sink,
                tracer: OnceLock::new(),
                span_ids: AtomicU64::new(1),
                epoch: Instant::now(),
                sim_time_us: AtomicU64::new(0),
                use_sim_clock: AtomicBool::new(false),
            }),
        }
    }

    /// Is this a sharded (fleet-mode) recorder?
    pub fn is_sharded(&self) -> bool {
        matches!(self.shared.store, Store::Sharded(_))
    }

    /// Lock the calling thread's metric table (the single table in locked
    /// mode, this thread's shard in sharded mode).
    fn state(&self) -> MutexGuard<'_, State> {
        match &self.shared.store {
            Store::Locked(m) => m.lock(),
            Store::Sharded(s) => s.shard(Arc::as_ptr(&self.shared) as usize).lock(),
        }
    }

    /// Attach a causal [`Tracer`] (set-once; later calls are ignored).
    /// Spans opened through this recorder then also record
    /// [`crate::TraceEvent`]s into whichever trace is resumed on the
    /// current thread, and [`Recorder::trace_point`] becomes live.
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.shared.tracer.set(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.shared.tracer.get()
    }

    /// Is a trace resumed on the current thread? Callers use this to skip
    /// building labels for [`Recorder::trace_point`] on untraced runs.
    pub fn trace_active(&self) -> bool {
        self.shared
            .tracer
            .get()
            .is_some_and(|t| t.active().is_some())
    }

    /// Record a point event (a leaf annotation, e.g. an admission verdict)
    /// under the innermost open span of the active trace. A branch when no
    /// tracer is attached, a thread-local check when no trace is resumed —
    /// allocation-free in both cases.
    pub fn trace_point(&self, name: &str, labels: &[(&str, &str)]) {
        self.trace_point_value(name, labels, None);
    }

    /// [`Recorder::trace_point`] carrying a numeric value.
    pub fn trace_point_value(&self, name: &str, labels: &[(&str, &str)], value: Option<f64>) {
        let Some(tracer) = self.shared.tracer.get() else {
            return;
        };
        tracer.point(
            self.now_us(),
            || crate::intern_metric_key(name, labels),
            value,
        );
    }

    /// Drive span timing from the simulation clock instead of wall time.
    ///
    /// Harnesses call this as their event loop advances; once called, all
    /// subsequent timestamps come from the most recent value, making traces
    /// of seeded experiments reproducible.
    pub fn set_sim_time_us(&self, t_us: u64) {
        self.shared.sim_time_us.store(t_us, Ordering::Relaxed);
        self.shared.use_sim_clock.store(true, Ordering::Relaxed);
    }

    /// Current timestamp in microseconds: the sim clock if set, else wall
    /// time since the recorder was created.
    pub fn now_us(&self) -> u64 {
        if self.shared.use_sim_clock.load(Ordering::Relaxed) {
            self.shared.sim_time_us.load(Ordering::Relaxed)
        } else {
            self.shared.epoch.elapsed().as_micros() as u64
        }
    }

    /// Run `event` and emit the result only when a sink is attached, so
    /// the no-sink path never pays for building the event.
    fn emit_with(&self, event: impl FnOnce() -> ObsEvent) {
        if let Some(sink) = &self.shared.sink {
            sink.emit(&event());
        }
    }

    /// Add `delta` to the counter `name`.
    pub fn counter(&self, name: &str, delta: u64) {
        self.counter_with(name, &[], delta);
    }

    /// Add `delta` to the counter `name` with labels.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], delta: u64) {
        if let Some(sink) = &self.shared.sink {
            let key = metric_key(name, labels);
            *self.state().counters.entry(key.clone()).or_insert(0) += delta;
            sink.emit(&ObsEvent::counter(self.now_us(), key, delta));
        } else {
            // Steady state (key already seen on this thread and in this
            // shard) touches no allocator: interned key, `get_mut` hit.
            let key = crate::intern_metric_key(name, labels);
            let mut state = self.state();
            match state.counters.get_mut(key.as_ref()) {
                Some(v) => *v += delta,
                None => {
                    state.counters.insert(key.into_owned(), delta);
                }
            }
        }
    }

    /// Set the gauge `name` to `value`. Non-finite values are dropped and
    /// counted under `obs.dropped_samples`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauge_with(name, &[], value);
    }

    /// Set a labelled gauge. In sharded mode the gauge aggregates by
    /// running max instead of last-write, because "last" is
    /// scheduler-dependent once writers race across shards.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if self.drop_non_finite(name, value) {
            return;
        }
        let sharded = self.is_sharded();
        let set = |state: &mut State, key: &str| {
            if sharded {
                match state.gauges.get_mut(key) {
                    Some(g) => *g = g.max(value),
                    None => {
                        state.gauges.insert(key.to_string(), value);
                    }
                }
            } else {
                match state.gauges.get_mut(key) {
                    Some(g) => *g = value,
                    None => {
                        state.gauges.insert(key.to_string(), value);
                    }
                }
            }
        };
        if let Some(sink) = &self.shared.sink {
            let key = metric_key(name, labels);
            set(&mut self.state(), &key);
            sink.emit(&ObsEvent::gauge(self.now_us(), key, value));
        } else {
            let key = crate::intern_metric_key(name, labels);
            set(&mut self.state(), key.as_ref());
        }
    }

    /// Record `value` into the histogram `name`. Non-finite values are
    /// dropped and counted under `obs.dropped_samples`.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, &[], value);
    }

    /// Record a labelled histogram sample.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if self.drop_non_finite(name, value) {
            return;
        }
        if let Some(sink) = &self.shared.sink {
            let key = metric_key(name, labels);
            self.state()
                .hists
                .entry(key.clone())
                .or_default()
                .record(value);
            sink.emit(&ObsEvent::observe(self.now_us(), key, value));
        } else {
            let key = crate::intern_metric_key(name, labels);
            let mut state = self.state();
            match state.hists.get_mut(key.as_ref()) {
                Some(h) => h.record(value),
                None => {
                    state
                        .hists
                        .entry(key.into_owned())
                        .or_default()
                        .record(value);
                }
            }
        }
    }

    /// True (and counted) when `value` cannot enter the stats layer.
    fn drop_non_finite(&self, name: &str, value: f64) -> bool {
        if value.is_finite() {
            return false;
        }
        let key = metric_key(DROPPED_SAMPLES, &[("metric", name)]);
        if let Some(sink) = &self.shared.sink {
            *self.state().counters.entry(key.clone()).or_insert(0) += 1;
            sink.emit(&ObsEvent::counter(self.now_us(), key, 1));
        } else {
            *self.state().counters.entry(key).or_insert(0) += 1;
        }
        true
    }

    /// Open a root span. The span records `span.<name>.ms` when it ends
    /// (on drop or [`Span::end`]) and emits start/end events to the sink.
    /// With a tracer attached and a trace resumed on this thread, the span
    /// also joins that trace's tree, parented by the ambient span stack.
    pub fn span(&self, name: &'static str) -> Span {
        self.span_with_parent(name, 0, false)
    }

    /// Open a root span that exists *only* in the active trace: no
    /// `span.<name>.ms` histogram, no sink events. `None` when no trace is
    /// resumed on this thread. Drivers use this for spans whose entire
    /// purpose is trace structure (the broker's per-session `session` /
    /// `attempt` / `backoff` / `confirm` spans), so enabling tracing does
    /// not also grow the metric surface — and untraced runs pay nothing.
    pub fn trace_span(&self, name: &'static str) -> Option<Span> {
        if !self.trace_active() {
            return None;
        }
        Some(self.span_with_parent(name, 0, true))
    }

    fn span_with_parent(&self, name: &'static str, parent: u64, quiet: bool) -> Span {
        let id = self.shared.span_ids.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        if !quiet {
            self.emit_with(|| ObsEvent::span_start(start_us, name.to_string(), id, parent));
        }
        let trace = self
            .shared
            .tracer
            .get()
            .and_then(|t| t.span_start(start_us, name, id, parent));
        Span {
            rec: self.clone(),
            name,
            id,
            parent,
            start_us,
            trace,
            quiet,
            ended: false,
        }
    }

    /// Snapshot the full metric state (counters, gauges, histogram
    /// summaries). Cheap enough to call between experiment phases. For a
    /// sharded recorder this merges every shard with order-independent
    /// folds (counter sum, gauge max, bucket union), so the result is
    /// independent of how writes were spread across threads.
    pub fn snapshot(&self) -> Snapshot {
        match &self.shared.store {
            Store::Locked(m) => {
                let state = m.lock();
                let counters = state.counters.clone();
                let gauges = state.gauges.clone();
                let histograms = state
                    .hists
                    .iter()
                    .map(|(k, h)| (k.clone(), h.snapshot()))
                    .collect();
                Snapshot {
                    counters,
                    gauges,
                    histograms,
                }
            }
            Store::Sharded(s) => {
                let mut counters: BTreeMap<String, u64> = BTreeMap::new();
                let mut gauges: BTreeMap<String, f64> = BTreeMap::new();
                let mut accs: BTreeMap<String, HistogramShardAcc> = BTreeMap::new();
                // One shard lock at a time; writers on other shards keep
                // running while we walk.
                for shard in s.shards.iter() {
                    let state = shard.lock();
                    for (k, v) in &state.counters {
                        *counters.entry(k.clone()).or_insert(0) += v;
                    }
                    for (k, v) in &state.gauges {
                        gauges
                            .entry(k.clone())
                            .and_modify(|g| *g = g.max(*v))
                            .or_insert(*v);
                    }
                    for (k, h) in &state.hists {
                        accs.entry(k.clone()).or_default().add(h);
                    }
                }
                let histograms = accs.iter().map(|(k, a)| (k.clone(), a.finish())).collect();
                Snapshot {
                    counters,
                    gauges,
                    histograms,
                }
            }
        }
    }

    /// Flush the sink, if any (no-op for in-memory and stderr sinks).
    pub fn flush(&self) {
        if let Some(sink) = &self.shared.sink {
            sink.flush();
        }
    }
}

/// A timed region of the pipeline.
///
/// Spans nest by explicit parenting — [`Span::child`] — rather than
/// thread-local ambient context, so traces stay deterministic when stages
/// fan out across worker threads. (With a [`Tracer`] attached, a *root*
/// span additionally picks up the active trace's innermost span as its
/// trace-tree parent, which is how broker-level spans enclose negotiation
/// spans without plumbing.) Ending is idempotent: `end()` consumes the
/// span; dropping an un-ended span still records its duration, but under
/// a `dropped="true"` label — a drop without `end()` marks an abandoned
/// path (early return, error unwind), and those timings must stay visible
/// without polluting the clean-path histogram.
#[derive(Debug)]
pub struct Span {
    rec: Recorder,
    name: &'static str,
    id: u64,
    parent: u64,
    start_us: u64,
    /// The trace this span's start was recorded into, if any.
    trace: Option<TraceId>,
    /// Trace-only: skip the metrics/sink half of `finish`.
    quiet: bool,
    ended: bool,
}

impl Span {
    /// This span's id (appears in sink events as `span`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The parent span id (0 for root spans).
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// Open a child span.
    pub fn child(&self, name: &'static str) -> Span {
        self.rec.span_with_parent(name, self.id, self.quiet)
    }

    /// End the span now (otherwise it ends on drop, which flags the
    /// timing with `dropped="true"`).
    pub fn end(mut self) {
        self.finish(false);
    }

    fn finish(&mut self, via_drop: bool) {
        if self.ended {
            return;
        }
        self.ended = true;
        let end_us = self.rec.now_us();
        let elapsed_ms = end_us.saturating_sub(self.start_us) as f64 / 1_000.0;
        if !self.quiet {
            let metric = format!("span.{}.ms", self.name);
            if via_drop {
                self.rec
                    .observe_with(&metric, &[("dropped", "true")], elapsed_ms);
            } else {
                self.rec.observe(&metric, elapsed_ms);
            }
            self.rec.emit_with(|| {
                ObsEvent::span_end(
                    end_us,
                    self.name.to_string(),
                    self.id,
                    self.parent,
                    elapsed_ms,
                )
            });
        }
        if let (Some(trace), Some(tracer)) = (self.trace, self.rec.shared.tracer.get()) {
            tracer.span_end(
                end_us,
                self.name,
                self.id,
                self.parent,
                elapsed_ms,
                via_drop,
                trace,
            );
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.finish(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemorySink;

    #[test]
    fn counters_accumulate_per_label() {
        let rec = Recorder::new();
        rec.counter("req", 1);
        rec.counter("req", 2);
        rec.counter_with("req", &[("status", "ok")], 5);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("req"), 3);
        assert_eq!(snap.counter("req{status=ok}"), 5);
        assert_eq!(snap.counter("absent"), 0);
    }

    #[test]
    fn gauges_keep_last_value() {
        let rec = Recorder::new();
        rec.gauge("depth", 3.0);
        rec.gauge("depth", 7.5);
        assert_eq!(rec.snapshot().gauges.get("depth"), Some(&7.5));
    }

    #[test]
    fn histograms_summarize() {
        let rec = Recorder::new();
        for x in 1..=100 {
            rec.observe("lat", x as f64);
        }
        let snap = rec.snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count, 100);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        // Quantiles come from the log sketch: within its 1% relative bound.
        assert!((h.p50 - 50.5).abs() <= 1.6, "p50={}", h.p50);
        assert!((h.p95 - 95.0).abs() <= 2.0, "p95={}", h.p95);
    }

    #[test]
    fn non_finite_samples_are_dropped_and_counted() {
        let rec = Recorder::new();
        rec.observe("lat", f64::NAN);
        rec.observe("lat", f64::INFINITY);
        rec.observe("lat", 1.0);
        rec.gauge("g", f64::NEG_INFINITY);
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["lat"].count, 1);
        assert_eq!(snap.counter("obs.dropped_samples{metric=lat}"), 2);
        assert_eq!(snap.counter("obs.dropped_samples{metric=g}"), 1);
        assert!(!snap.gauges.contains_key("g"));
    }

    #[test]
    fn long_streams_keep_accurate_percentiles() {
        let rec = Recorder::new();
        for x in 0..20_000 {
            rec.observe("big", x as f64);
        }
        let snap = rec.snapshot();
        let h = &snap.histograms["big"];
        assert_eq!(h.count, 20_000);
        // Far past the old reservoir cap, the log buckets stay within
        // their relative-error bound instead of degrading to a subsample.
        assert!((h.p50 - 10_000.0).abs() <= 250.0, "p50={}", h.p50);
        assert!((h.p99 - 19_800.0).abs() <= 450.0, "p99={}", h.p99);
    }

    #[test]
    fn span_nesting_and_timing() {
        let sink = Arc::new(MemorySink::new());
        let rec = Recorder::with_sink(sink.clone());
        rec.set_sim_time_us(1_000);
        let root = rec.span("negotiate");
        rec.set_sim_time_us(2_000);
        let child = root.child("enumerate");
        assert_eq!(child.parent(), root.id());
        rec.set_sim_time_us(5_000);
        child.end();
        rec.set_sim_time_us(9_000);
        root.end();

        let snap = rec.snapshot();
        assert_eq!(snap.histograms["span.enumerate.ms"].mean, 3.0);
        assert_eq!(snap.histograms["span.negotiate.ms"].mean, 8.0);

        let kinds: Vec<(String, String)> = sink
            .events()
            .iter()
            .filter(|e| e.kind.starts_with("span"))
            .map(|e| (e.kind.clone(), e.name.clone()))
            .collect();
        assert_eq!(
            kinds,
            vec![
                ("span_start".into(), "negotiate".into()),
                ("span_start".into(), "enumerate".into()),
                ("span_end".into(), "enumerate".into()),
                ("span_end".into(), "negotiate".into()),
            ]
        );
    }

    #[test]
    fn dropped_span_records_under_dropped_label() {
        let rec = Recorder::new();
        rec.set_sim_time_us(0);
        {
            let _span = rec.span("scope");
            rec.set_sim_time_us(500);
        }
        let snap = rec.snapshot();
        // The timing is not lost, but it is flagged: the clean-path
        // histogram stays clean and the anomaly is visible.
        let h = &snap.histograms["span.scope.ms{dropped=true}"];
        assert_eq!(h.count, 1);
        assert_eq!(h.max, 0.5);
        assert!(!snap.histograms.contains_key("span.scope.ms"));

        rec.set_sim_time_us(1_000);
        let span = rec.span("scope");
        rec.set_sim_time_us(1_200);
        span.end();
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["span.scope.ms"].count, 1);
        assert_eq!(snap.histograms["span.scope.ms{dropped=true}"].count, 1);
    }

    #[test]
    fn spans_join_the_active_trace() {
        let rec = Recorder::new();
        let tracer = Tracer::new();
        rec.set_tracer(tracer.clone());
        rec.set_sim_time_us(10);

        // Untraced span: metrics only, no trace events.
        rec.span("lonely").end();
        assert!(!rec.trace_active());

        tracer.resume(7);
        assert!(rec.trace_active());
        let root = rec.span("session");
        let attempt = rec.span("attempt"); // ambient-parented under session
        rec.trace_point("cmfs.admission", &[("result", "accepted")]);
        attempt.end();
        root.end();
        tracer.suspend();

        let events = tracer.drain();
        assert_eq!(events.len(), 5);
        assert!(events.iter().all(|e| e.trace == 7));
        let attempt_start = events
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "attempt")
            .unwrap();
        let session_start = events
            .iter()
            .find(|e| e.kind == "span_start" && e.name == "session")
            .unwrap();
        assert_eq!(attempt_start.parent, session_start.span);
        let point = events.iter().find(|e| e.kind == "point").unwrap();
        assert_eq!(point.name, "cmfs.admission{result=accepted}");
        assert_eq!(point.span, attempt_start.span);
        assert!(events.iter().all(|e| e.name != "lonely"));
    }

    #[test]
    fn trace_point_without_tracer_is_free() {
        let rec = Recorder::new();
        rec.trace_point("noop", &[("k", "v")]);
        assert!(!rec.trace_active());
    }

    /// Write one fixed multiset of metrics from `threads` workers (the
    /// split is by index, so the union is thread-count-independent).
    fn sharded_run(shards: usize, threads: usize) -> Snapshot {
        let rec = Recorder::sharded(shards);
        rec.set_sim_time_us(0);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let rec = rec.clone();
                scope.spawn(move || {
                    for i in (t..256).step_by(threads) {
                        rec.counter_with("fleet.sessions", &[("class", "tv")], 1);
                        rec.observe("fleet.latency_ms", (i % 37 + 1) as f64);
                        rec.gauge("fleet.load", (i % 11) as f64);
                    }
                });
            }
        });
        rec.snapshot()
    }

    #[test]
    fn sharded_snapshots_are_identical_across_thread_counts() {
        let one = sharded_run(8, 1);
        let two = sharded_run(8, 2);
        let eight = sharded_run(8, 8);
        assert_eq!(one.to_json_pretty(), two.to_json_pretty());
        assert_eq!(one.to_json_pretty(), eight.to_json_pretty());
        // Shard count must not matter either.
        let narrow = sharded_run(1, 8);
        assert_eq!(one.to_json_pretty(), narrow.to_json_pretty());
        assert_eq!(one.counter("fleet.sessions{class=tv}"), 256);
        assert_eq!(one.histograms["fleet.latency_ms"].count, 256);
        // Gauges aggregate by max in sharded mode.
        assert_eq!(one.gauges["fleet.load"], 10.0);
    }

    #[test]
    fn sharded_matches_locked_on_order_independent_fields() {
        let sharded = sharded_run(8, 8);
        let rec = Recorder::new();
        for i in 0..256usize {
            rec.counter_with("fleet.sessions", &[("class", "tv")], 1);
            rec.observe("fleet.latency_ms", (i % 37 + 1) as f64);
            rec.gauge("fleet.load", (i % 11) as f64);
        }
        let locked = rec.snapshot();
        assert_eq!(sharded.counters, locked.counters);
        let (s, l) = (
            &sharded.histograms["fleet.latency_ms"],
            &locked.histograms["fleet.latency_ms"],
        );
        assert_eq!(s.count, l.count);
        assert_eq!(s.min, l.min);
        assert_eq!(s.max, l.max);
        assert_eq!(s.buckets, l.buckets);
        assert_eq!((s.p50, s.p90, s.p95, s.p99), (l.p50, l.p90, l.p95, l.p99));
        assert!((s.mean - l.mean).abs() <= 0.02 * l.max, "sketched mean");
    }
}
