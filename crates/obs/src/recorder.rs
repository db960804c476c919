//! The metric recorder, its metric handles and its span handles.
//!
//! Every metric lives in one dense table. A `name{labels}` key is resolved
//! once, on the cold path, to a `Copy` handle ([`Counter`], [`Gauge`],
//! [`Histogram`]) that indexes its slot, so a write through a handle is an
//! add, a store or one histogram insert, with no key built and nothing
//! looked up. The string-keyed methods ([`Recorder::counter_with`] and
//! friends) resolve and write in one call; hot call sites hold their
//! handles instead, resolved when the recorder is attached or on first use
//! through [`Recorder::handles`].

use std::any::Any;
use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;
use std::time::Instant;

use crate::hist::ValueHistogram;
use crate::sink::{ObsEvent, ObsSink};
use crate::snapshot::Snapshot;
use crate::trace::{TraceId, Tracer};
use crate::{interned_key, write_metric_key, DROPPED_SAMPLES};

/// A resolved counter ([`Recorder::counter_handle`]). It carries its
/// key, because trace points ride on counters ([`Counter::key`]). A handle
/// belongs to the recorder that resolved it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter {
    slot: u32,
    key: &'static str,
}

impl Counter {
    /// The flattened `name{labels}` key this handle resolved.
    pub fn key(self) -> &'static str {
        self.key
    }
}

/// A resolved gauge ([`Recorder::gauge_handle`]): its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gauge(u32);

/// A resolved histogram ([`Recorder::histogram_handle`]): its slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Histogram(u32);

/// A resolved span name ([`Recorder::span_kind`]): the name and its
/// `span.<name>.ms` histograms, clean and `dropped="true"`, so opening and
/// ending the span never formats or looks up a key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKind {
    name: &'static str,
    ms: Histogram,
    dropped: Histogram,
}

/// The call-site handles of one instrumented module, resolved once per
/// recorder by [`Recorder::handles`].
pub trait HandleSet: Any {
    /// Resolve every handle of the set against `rec`.
    fn resolve(rec: &Recorder) -> Self;
}

/// Indexes of [`Table::keys`] and [`Table::names`].
const COUNTERS: usize = 0;
const GAUGES: usize = 1;
const HISTS: usize = 2;

/// Key → slot and slot → key per kind of metric, and each slot's value.
/// All only grow; a resolved slot that was never written (a `None`
/// counter or gauge, an empty histogram) stays out of snapshots.
#[derive(Default)]
struct Table {
    scratch: String,
    keys: [HashMap<&'static str, u32>; 3],
    names: [Vec<&'static str>; 3],
    spans: HashMap<&'static str, SpanKind>,
    counters: Vec<Option<u64>>,
    gauges: Vec<Option<f64>>,
    hists: Vec<ValueHistogram>,
}

/// One node of the per-recorder [`HandleSet`] list: append-only, so a
/// resolved set never moves and can be lent out for the recorder's life.
struct SetNode {
    set: Box<dyn Any>,
    next: OnceCell<Box<SetNode>>,
}

struct Shared {
    table: RefCell<Table>,
    sets: OnceCell<Box<SetNode>>,
    sink: Option<Rc<dyn ObsSink>>,
    /// Set-once causal tracer; absent on the vast majority of recorders.
    tracer: OnceCell<Tracer>,
    next_span: Cell<u64>,
    epoch: Instant,
    /// The simulation clock, once a harness has set it.
    sim_time_us: Cell<Option<u64>>,
}

/// A shared handle to a metric store plus an optional event sink.
///
/// `Recorder` is an `Rc` internally: clone it freely, hand clones to every
/// subsystem of one world, and read one [`Snapshot`] at the end. All
/// methods take `&self`. It is single-threaded: a caller that wants
/// parallelism runs one world, with its own recorder, per thread.
///
/// Instrumented code should hold an `Option<Recorder>` (or
/// `Option<&Recorder>` in `Copy` contexts) so that the disabled
/// configuration costs a branch and nothing else.
#[derive(Clone)]
pub struct Recorder {
    shared: Rc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with no event sink (metrics only).
    pub fn new() -> Self {
        Recorder::build(None)
    }

    /// A recorder that also streams every event to `sink`.
    pub fn with_sink(sink: Rc<dyn ObsSink>) -> Self {
        Recorder::build(Some(sink))
    }

    /// Inert: an alias of [`Recorder::new`], kept only because
    /// `benchmark/` names it; delete in the next benchmark change.
    #[doc(hidden)]
    pub fn sharded(_shards: usize) -> Self {
        Recorder::new()
    }

    fn build(sink: Option<Rc<dyn ObsSink>>) -> Self {
        Recorder {
            shared: Rc::new(Shared {
                table: RefCell::default(),
                sets: OnceCell::new(),
                sink,
                tracer: OnceCell::new(),
                next_span: Cell::new(1),
                epoch: Instant::now(),
                sim_time_us: Cell::new(None),
            }),
        }
    }

    /// Resolve the counter `name{labels}` (creating it on first use; it
    /// enters snapshots at its first write).
    pub fn counter_handle(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let (slot, key) = self.resolve(COUNTERS, name, labels);
        Counter { slot, key }
    }

    /// Resolve the gauge `name{labels}`.
    pub fn gauge_handle(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        Gauge(self.resolve(GAUGES, name, labels).0)
    }

    /// Resolve the histogram `name{labels}`.
    pub fn histogram_handle(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        Histogram(self.resolve(HISTS, name, labels).0)
    }

    /// The key of slot `slot` among the metrics of kind `kind` (cold).
    fn key_of(&self, kind: usize, slot: u32) -> &'static str {
        let table = self.shared.table.borrow();
        table.names[kind].get(slot as usize).copied().unwrap_or("")
    }

    /// The slot and interned key of `name{labels}` among the metrics of
    /// kind `kind`, allocated on first use.
    fn resolve(&self, kind: usize, name: &str, labels: &[(&str, &str)]) -> (u32, &'static str) {
        let mut table = self.shared.table.borrow_mut();
        let t = &mut *table;
        t.scratch.clear();
        write_metric_key(&mut t.scratch, name, labels);
        let map = &mut t.keys[kind];
        if let Some((&key, &slot)) = map.get_key_value(t.scratch.as_str()) {
            return (slot, key);
        }
        let (slot, key) = (map.len() as u32, interned_key(&t.scratch, &[]));
        map.insert(key, slot);
        t.names[kind].push(key);
        match kind {
            COUNTERS => t.counters.push(None),
            GAUGES => t.gauges.push(None),
            _ => t.hists.push(ValueHistogram::new()),
        }
        (slot, key)
    }

    /// Resolve the span name `name`: its `span.<name>.ms` histograms.
    pub fn span_kind(&self, name: &'static str) -> SpanKind {
        if let Some(&kind) = self.shared.table.borrow().spans.get(name) {
            return kind;
        }
        let metric = format!("span.{name}.ms");
        let kind = SpanKind {
            name,
            ms: self.histogram_handle(&metric, &[]),
            dropped: self.histogram_handle(&metric, &[("dropped", "true")]),
        };
        self.shared.table.borrow_mut().spans.insert(name, kind);
        kind
    }

    /// The handle set `H` of this recorder, resolved on first use and kept
    /// for the recorder's life: how a call site that is handed a recorder
    /// per call (a negotiation context, say) holds its handles.
    pub fn handles<H: HandleSet>(&self) -> &H {
        let mut link = &self.shared.sets;
        loop {
            match link.get() {
                Some(node) => match node.set.downcast_ref::<H>() {
                    Some(set) => return set,
                    None => link = &node.next,
                },
                None => {
                    // If resolving `H` links another set here first (a set
                    // that resolves one of its own), the walk simply
                    // continues past it.
                    let _ = link.set(Box::new(SetNode {
                        set: Box::new(H::resolve(self)),
                        next: OnceCell::new(),
                    }));
                }
            }
        }
    }

    /// Attach a causal [`Tracer`] (set-once; later calls are ignored).
    /// Spans opened through this recorder then also record
    /// [`crate::TraceEvent`]s into whichever trace is resumed, and
    /// [`Recorder::trace_point`] becomes live.
    pub fn set_tracer(&self, tracer: Tracer) {
        let _ = self.shared.tracer.set(tracer);
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.shared.tracer.get()
    }

    /// Is a trace resumed? Callers use this to skip
    /// building labels for [`Recorder::trace_point`] on untraced runs.
    pub fn trace_active(&self) -> bool {
        self.shared
            .tracer
            .get()
            .is_some_and(|t| t.active().is_some())
    }

    /// Record a point event (a leaf annotation, e.g. an admission verdict)
    /// under the innermost open span of the active trace. A branch when no
    /// tracer is attached, one check when no trace is resumed;
    /// the key is flattened and interned only when the point is kept.
    pub fn trace_point(&self, name: &str, labels: &[(&str, &str)]) {
        if let Some(tracer) = self.shared.tracer.get() {
            tracer.point(self.now_us(), || interned_key(name, labels), None);
        }
    }

    /// [`Recorder::trace_point`] under an already flattened key — typically
    /// the [`Counter::key`] of the counter the point rides on — carrying an
    /// optional value.
    pub fn trace_point_key(&self, key: &'static str, value: Option<f64>) {
        if let Some(tracer) = self.shared.tracer.get() {
            tracer.point(self.now_us(), || key, value);
        }
    }

    /// Drive span timing from the simulation clock instead of wall time.
    ///
    /// Harnesses call this as their event loop advances; once called, all
    /// subsequent timestamps come from the most recent value, making traces
    /// of seeded experiments reproducible.
    pub fn set_sim_time_us(&self, t_us: u64) {
        self.shared.sim_time_us.set(Some(t_us));
    }

    /// Current timestamp in microseconds: the sim clock if set, else wall
    /// time since the recorder was created.
    pub fn now_us(&self) -> u64 {
        match self.shared.sim_time_us.get() {
            Some(t_us) => t_us,
            None => self.shared.epoch.elapsed().as_micros() as u64,
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
        self.add(self.counter_handle(name, labels), delta);
    }

    /// Add `delta` to a resolved counter.
    #[inline]
    pub fn add(&self, c: Counter, delta: u64) {
        if let Some(value) = self
            .shared
            .table
            .borrow_mut()
            .counters
            .get_mut(c.slot as usize)
        {
            *value = Some(value.unwrap_or(0) + delta);
        }
        self.emit_with(|| ObsEvent::counter(self.now_us(), c.key.to_string(), delta));
    }

    /// Set the gauge `name` to `value`. Non-finite values are dropped and
    /// counted under `obs.dropped_samples`.
    pub fn gauge(&self, name: &str, value: f64) {
        self.gauge_with(name, &[], value);
    }

    /// Set a labelled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        match value.is_finite() {
            true => self.set(self.gauge_handle(name, labels), value),
            false => self.drop_non_finite(name),
        }
    }

    /// Set a resolved gauge: the last write wins.
    #[inline]
    pub fn set(&self, g: Gauge, value: f64) {
        if !value.is_finite() {
            self.drop_non_finite(self.key_of(GAUGES, g.0));
            return;
        }
        if let Some(slot) = self.shared.table.borrow_mut().gauges.get_mut(g.0 as usize) {
            *slot = Some(value);
        }
        let key = || self.key_of(GAUGES, g.0).to_string();
        self.emit_with(|| ObsEvent::gauge(self.now_us(), key(), value));
    }

    /// Record `value` into the histogram `name`. Non-finite values are
    /// dropped and counted under `obs.dropped_samples`.
    pub fn observe(&self, name: &str, value: f64) {
        self.observe_with(name, &[], value);
    }

    /// Record a labelled histogram sample.
    pub fn observe_with(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        match value.is_finite() {
            true => self.record(self.histogram_handle(name, labels), value),
            false => self.drop_non_finite(name),
        }
    }

    /// Record a sample into a resolved histogram.
    #[inline]
    pub fn record(&self, h: Histogram, value: f64) {
        if !value.is_finite() {
            self.drop_non_finite(self.key_of(HISTS, h.0));
            return;
        }
        if let Some(hist) = self.shared.table.borrow_mut().hists.get_mut(h.0 as usize) {
            hist.record(value);
        }
        let key = || self.key_of(HISTS, h.0).to_string();
        self.emit_with(|| ObsEvent::observe(self.now_us(), key(), value));
    }

    /// Count a non-finite sample of metric `key`, which cannot enter the
    /// stats layer, under the metric's name without its labels.
    #[cold]
    fn drop_non_finite(&self, key: &str) {
        let name = key.split('{').next().unwrap_or(key);
        self.counter_with(DROPPED_SAMPLES, &[("metric", name)], 1);
    }

    /// Open a root span. The span records `span.<name>.ms` when it ends
    /// (on drop or [`Span::end`]) and emits start/end events to the sink.
    /// With a tracer attached and a trace resumed, the span
    /// also joins that trace's tree, parented by the ambient span stack.
    pub fn span(&self, name: &'static str) -> Span<'_> {
        self.span_of(self.span_kind(name))
    }

    /// [`Recorder::span`] of a resolved [`SpanKind`].
    pub fn span_of(&self, kind: SpanKind) -> Span<'_> {
        self.open(kind.name, Some((kind.ms, kind.dropped)), 0)
    }

    /// Open a root span that exists *only* in the active trace: no
    /// `span.<name>.ms` histogram, no sink events. `None` when no trace is
    /// resumed. Drivers use this for spans whose entire
    /// purpose is trace structure (the broker's per-session `session` /
    /// `attempt` / `backoff` / `confirm` spans), so enabling tracing does
    /// not also grow the metric surface — and untraced runs pay nothing.
    pub fn trace_span(&self, name: &'static str) -> Option<Span<'_>> {
        if !self.trace_active() {
            return None;
        }
        Some(self.open(name, None, 0))
    }

    fn open(
        &self,
        name: &'static str,
        hists: Option<(Histogram, Histogram)>,
        parent: u64,
    ) -> Span<'_> {
        let id = self.shared.next_span.get();
        self.shared.next_span.set(id + 1);
        let start_us = self.now_us();
        if hists.is_some() {
            self.emit_with(|| ObsEvent::span_start(start_us, name.to_string(), id, parent));
        }
        let trace = self
            .shared
            .tracer
            .get()
            .and_then(|t| t.span_start(start_us, name, id, parent));
        Span {
            rec: self,
            name,
            hists,
            id,
            parent,
            start_us,
            trace,
            ended: false,
        }
    }

    /// Snapshot the full metric state (counters, gauges, histogram
    /// summaries). Cheap enough to call between experiment phases.
    pub fn snapshot(&self) -> Snapshot {
        let t = self.shared.table.borrow();
        let mut snap = Snapshot::default();
        for (key, value) in t.names[COUNTERS].iter().zip(&t.counters) {
            if let Some(value) = *value {
                snap.counters.insert(key.to_string(), value);
            }
        }
        for (key, value) in t.names[GAUGES].iter().zip(&t.gauges) {
            if let Some(value) = *value {
                snap.gauges.insert(key.to_string(), value);
            }
        }
        for (key, hist) in t.names[HISTS].iter().zip(&t.hists) {
            if hist.count() > 0 {
                snap.histograms.insert(key.to_string(), hist.snapshot());
            }
        }
        snap
    }

    /// Flush the sink, if any (a no-op for the in-memory sink).
    pub fn flush(&self) {
        if let Some(sink) = &self.shared.sink {
            sink.flush();
        }
    }
}

/// A timed region of the pipeline.
///
/// Spans nest by explicit parenting — [`Span::child`] — rather than
/// ambient context, so a span's parent is whatever opened it. (With a
/// [`Tracer`] attached, a *root*
/// span additionally picks up the active trace's innermost span as its
/// trace-tree parent, which is how broker-level spans enclose negotiation
/// spans without plumbing.) Ending is idempotent: `end()` consumes the
/// span; dropping an un-ended span still records its duration, but under
/// a `dropped="true"` label — a drop without `end()` marks an abandoned
/// path (early return, error unwind), and those timings must stay visible
/// without polluting the clean-path histogram.
#[derive(Debug)]
pub struct Span<'r> {
    rec: &'r Recorder,
    name: &'static str,
    /// The span's histograms, clean and dropped; `None` for a trace-only
    /// span, which skips the metrics/sink half of `finish`.
    hists: Option<(Histogram, Histogram)>,
    id: u64,
    parent: u64,
    start_us: u64,
    /// The trace this span's start was recorded into, if any.
    trace: Option<TraceId>,
    ended: bool,
}

impl<'r> Span<'r> {
    /// This span's id (appears in sink events as `span`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The parent span id (0 for root spans).
    pub fn parent(&self) -> u64 {
        self.parent
    }

    /// Open a child span (trace-only when this span is).
    pub fn child(&self, name: &'static str) -> Span<'r> {
        match self.hists {
            Some(_) => self.child_of(self.rec.span_kind(name)),
            None => self.rec.open(name, None, self.id),
        }
    }

    /// [`Span::child`] of a resolved [`SpanKind`].
    pub fn child_of(&self, kind: SpanKind) -> Span<'r> {
        let hists = self.hists.map(|_| (kind.ms, kind.dropped));
        self.rec.open(kind.name, hists, self.id)
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
        if let Some((ms, dropped)) = self.hists {
            self.rec
                .record(if via_drop { dropped } else { ms }, elapsed_ms);
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

impl Drop for Span<'_> {
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
        let h = rec.histogram_handle("lat", &[("k", "v")]);
        rec.record(h, f64::NAN);
        let snap = rec.snapshot();
        assert_eq!(snap.histograms["lat"].count, 1);
        assert_eq!(snap.counter("obs.dropped_samples{metric=lat}"), 3);
        assert_eq!(snap.counter("obs.dropped_samples{metric=g}"), 1);
        assert!(!snap.gauges.contains_key("g"));
        assert!(!snap.histograms.contains_key("lat{k=v}"));
    }

    #[test]
    fn resolved_but_unwritten_metrics_stay_out_of_snapshots() {
        let rec = Recorder::new();
        let c = rec.counter_handle("c", &[("server", "s0")]);
        rec.gauge_handle("g", &[]);
        rec.histogram_handle("h", &[]);
        rec.span_kind("never");
        assert_eq!(rec.snapshot(), Snapshot::default());
        rec.add(c, 0);
        assert_eq!(rec.snapshot().counters["c{server=s0}"], 0);
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
    fn the_table_holds_many_metrics() {
        let rec = Recorder::new();
        for i in 0..1_000 {
            rec.counter_with("many", &[("i", &i.to_string())], i);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counters.len(), 1_000);
        assert_eq!(snap.counter("many{i=999}"), 999);
    }

    #[test]
    fn span_nesting_and_timing() {
        let sink = Rc::new(MemorySink::new());
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

    struct Pair {
        hits: Counter,
        misses: Counter,
    }

    impl HandleSet for Pair {
        fn resolve(rec: &Recorder) -> Self {
            Pair {
                hits: rec.counter_handle("cache", &[("result", "hit")]),
                misses: rec.counter_handle("cache", &[("result", "miss")]),
            }
        }
    }

    #[test]
    fn handle_sets_resolve_once_per_recorder() {
        let a = Recorder::new();
        let b = Recorder::new();
        assert!(std::ptr::eq(a.handles::<Pair>(), a.handles::<Pair>()));
        a.add(a.handles::<Pair>().hits, 2);
        b.add(b.handles::<Pair>().misses, 1);
        assert_eq!(a.snapshot().counter("cache{result=hit}"), 2);
        assert_eq!(b.snapshot().counter_sum("cache{"), 1);
    }
}
