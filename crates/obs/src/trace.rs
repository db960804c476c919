//! Causal tracing: per-session event trees over the virtual clock.
//!
//! A [`Tracer`] partitions everything the instrumented pipeline emits into
//! *traces* — one per negotiation session, keyed by a caller-chosen
//! [`TraceId`] (the broker uses the session index). Drivers bracket each
//! slice of per-session work with [`Tracer::resume`] / [`Tracer::suspend`];
//! in between, every [`Span`](crate::Span) opened through the owning
//! [`Recorder`](crate::Recorder) and every
//! [`Recorder::trace_point`](crate::Recorder::trace_point) lands in that
//! session's trace, parented by the ambient span stack. This is how one
//! `TraceId` propagates from broker dispatch through `Session::submit`,
//! the negotiation stages, and down into cmfs admission verdicts and
//! netsim reservation attempts without threading a context argument
//! through every call.
//!
//! Mechanics:
//!
//! - Events are buffered on a **per-thread** active-trace buffer (a
//!   thread-local `Vec`), so emission takes no lock. The shared per-trace
//!   store is only touched at `resume`/`suspend` boundaries — once per
//!   broker event, not once per trace event. The same protocol holds for
//!   callers that negotiate from several OS threads, because a session's
//!   trace is owned by exactly one thread at a time.
//! - Sequence numbers are assigned per trace at flush time, so a trace's
//!   events totally order even though sessions interleave. A deterministic
//!   run (same seed, specs, faults) therefore serializes to a
//!   byte-identical JSONL log.
//! - Every flushed event also feeds a bounded ring buffer — the **flight
//!   recorder** — which [`Tracer::trigger_flight_dump`] snapshots (and
//!   prints to stderr) when an invariant breaks, e.g. the broker's
//!   capacity audit detecting a leaked reservation. The dump holds the
//!   last N events before the failure, which is usually exactly the
//!   window that explains it.
//!
//! Events emitted while *no* trace is resumed on the current thread are
//! dropped: every recorded event belongs to exactly one session tree,
//! which is what makes [`crate::analyze`]'s reconstruction total.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

use nod_simcore::json::{from_str, to_string, FromJson, Json, JsonError, ToJson};
use nod_simcore::sync::Mutex;

/// Identifies one trace (the broker uses the session index).
pub type TraceId = u64;

/// Default flight-recorder capacity, in events.
pub const FLIGHT_CAPACITY: usize = 256;

/// One causal trace event, serializable as a single JSON line.
///
/// `kind` is `span_start`, `span_end` or `point`. For span events `span`
/// and `parent` are the span ids (`parent` 0 = trace root); `span_end`
/// carries the elapsed milliseconds in `value` and `detail = "dropped"`
/// when the span was dropped without an explicit end. For points, `span`
/// is the enclosing span and `name` is a flattened metric-style key (e.g.
/// `cmfs.admission{result=disk,server=s0}`).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: u64,
    /// Position within the trace (contiguous from 0).
    pub seq: u64,
    /// Timestamp in microseconds (virtual time under a simulation driver).
    pub t_us: u64,
    /// `span_start`, `span_end` or `point`. `Cow` so the emission hot
    /// path writes a static literal without allocating.
    pub kind: Cow<'static, str>,
    /// Span name or point key. Span names are static literals — only
    /// point keys (flattened metric-style) are owned.
    pub name: Cow<'static, str>,
    /// Span id (for points: the enclosing span).
    pub span: u64,
    /// Parent span id, 0 = root (span events only).
    pub parent: u64,
    /// Annotation; `"dropped"` on a `span_end` reached via drop.
    pub detail: Cow<'static, str>,
    /// Elapsed milliseconds for `span_end`, free value for points.
    pub value: Option<f64>,
}

// Hand-written (rather than `json_struct!`) because the `Cow` fields fall
// outside the macro; the encoding is the identical field-keyed object.
impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("trace".to_string(), self.trace.to_json()),
            ("seq".to_string(), self.seq.to_json()),
            ("t_us".to_string(), self.t_us.to_json()),
            (
                "kind".to_string(),
                Json::Str(self.kind.clone().into_owned()),
            ),
            (
                "name".to_string(),
                Json::Str(self.name.clone().into_owned()),
            ),
            ("span".to_string(), self.span.to_json()),
            ("parent".to_string(), self.parent.to_json()),
            (
                "detail".to_string(),
                Json::Str(self.detail.clone().into_owned()),
            ),
            ("value".to_string(), self.value.to_json()),
        ])
    }
}

impl FromJson for TraceEvent {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
            T::from_json(v.field(name)?)
                .map_err(|e| JsonError(format!("TraceEvent.{name}: {}", e.0)))
        }
        Ok(TraceEvent {
            trace: field(v, "trace")?,
            seq: field(v, "seq")?,
            t_us: field(v, "t_us")?,
            kind: Cow::Owned(field::<String>(v, "kind")?),
            name: Cow::Owned(field::<String>(v, "name")?),
            span: field(v, "span")?,
            parent: field(v, "parent")?,
            detail: Cow::Owned(field::<String>(v, "detail")?),
            value: field(v, "value")?,
        })
    }
}

impl TraceEvent {
    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        to_string(self)
    }

    /// Parse one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, JsonError> {
        from_str(line)
    }
}

/// What the flight recorder held when an invariant broke.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Why the dump was triggered (e.g. `leaked_reservation_audit`).
    pub reason: String,
    /// The last events before the trigger, oldest first.
    pub events: Vec<TraceEvent>,
}

impl FlightDump {
    /// The dump as JSONL, one event per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.events {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }
}

/// Per-trace state while its session is suspended.
#[derive(Debug, Default)]
struct TraceState {
    events: Vec<TraceEvent>,
    next_seq: u64,
    /// Seqs handed out before the last [`Tracer::drain`]; event `seq`
    /// lives at `events[seq - drained]`.
    drained: u64,
    /// Ambient span stack, saved across suspensions.
    stack: Vec<u64>,
}

/// The flight ring holds `(trace, seq)` keys, not events: recording stays
/// allocation- and copy-free, and the dump (cold path) resolves the keys
/// against the per-trace stores.
struct Flight {
    /// Contiguous `(trace, seq range)` segments, oldest first. Storing
    /// ranges instead of individual seqs makes the hot-path feed O(1)
    /// per flush; only the dump (cold path) expands them.
    ring: VecDeque<(u64, std::ops::Range<u64>)>,
    /// Total events across all segments, kept `<= capacity`.
    len: usize,
    capacity: usize,
    dump: Option<FlightDump>,
}

impl Flight {
    /// Record that `seqs` of `trace` were flushed, trimming the oldest
    /// entries past capacity.
    fn push_range(&mut self, trace: u64, seqs: std::ops::Range<u64>) {
        let n = (seqs.end - seqs.start) as usize;
        if n == 0 {
            return;
        }
        match self.ring.back_mut() {
            Some((t, r)) if *t == trace && r.end == seqs.start => r.end = seqs.end,
            _ => self.ring.push_back((trace, seqs)),
        }
        self.len += n;
        while self.len > self.capacity {
            let excess = (self.len - self.capacity) as u64;
            let front = self.ring.front_mut().expect("len > 0 implies a segment");
            if front.1.end - front.1.start <= excess {
                self.len -= (front.1.end - front.1.start) as usize;
                self.ring.pop_front();
            } else {
                front.1.start += excess;
                self.len -= excess as usize;
            }
        }
    }
}

/// Which finished sessions keep their traces under tail-based sampling.
///
/// The decision is made per session *at session end* (tail-based: the
/// whole trace was buffered, so retained sessions are complete), and it is
/// deterministic — a function of the session's outcome, duration, trace id
/// and the policy seed, never of thread scheduling:
///
/// - every **failed** session is retained (100% of the interesting tail);
/// - the **`top_k` slowest** sessions by duration are retained, with ties
///   broken by trace id, so the retained set is the k largest elements of
///   a total order — independent of finish order;
/// - a seeded **hash sample** keeps ~1/`sample_every` of the remainder as
///   an unbiased baseline.
///
/// Everything else is dropped at session end, making trace memory
/// O(retained + in-flight), not O(total sessions). In-flight buffering is
/// bounded too: a trace stops accepting events past
/// `max_events_per_trace` (the overflow is counted, not kept).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetentionPolicy {
    /// How many of the slowest sessions to retain.
    pub top_k: usize,
    /// Keep ~1 in `sample_every` sessions as a baseline (0 disables).
    pub sample_every: u64,
    /// Seed for the baseline hash sample.
    pub seed: u64,
    /// Per-trace buffered-event cap while a session is in flight.
    pub max_events_per_trace: usize,
}

impl Default for RetentionPolicy {
    fn default() -> Self {
        RetentionPolicy {
            top_k: 16,
            sample_every: 64,
            seed: 0,
            max_events_per_trace: 4_096,
        }
    }
}

/// Running totals of the tail sampler's decisions.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetentionStats {
    /// Sessions whose end was reported via [`Tracer::finish_session`].
    pub finished: u64,
    /// Sessions retained because they failed.
    pub kept_failed: u64,
    /// Sessions retained by the baseline hash sample (and not failed).
    pub kept_head: u64,
    /// Sessions currently retained as top-k slowest (≤ `top_k`).
    pub kept_slow: usize,
    /// Finished sessions whose traces were dropped.
    pub dropped: u64,
    /// Events discarded by the in-flight per-trace buffer cap.
    pub truncated_events: u64,
}

nod_simcore::json_struct!(RetentionStats {
    finished,
    kept_failed,
    kept_head,
    kept_slow,
    dropped,
    truncated_events,
});

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tail-sampling state: which traces are pinned (failed / baseline), the
/// current top-k slow set, and the decision totals.
#[derive(Default)]
struct SamplingState {
    /// Traces retained unconditionally (failed or baseline-sampled).
    pinned: std::collections::BTreeSet<u64>,
    /// `(duration_us, trace)` of the current top-k slowest — a total
    /// order, so the retained set is finish-order-independent.
    slow: std::collections::BTreeSet<(u64, u64)>,
    stats: RetentionStats,
}

struct Sampling {
    policy: RetentionPolicy,
    state: Mutex<SamplingState>,
}

struct TracerShared {
    traces: Mutex<BTreeMap<u64, TraceState>>,
    flight: Mutex<Flight>,
    /// Tail-based retention; `None` (the default) retains everything.
    sampling: Option<Sampling>,
}

/// The active trace of the current thread: events buffer here lock-free
/// until the next `suspend`.
struct ActiveTrace {
    /// Identity of the owning tracer (`Arc` pointer), so two tracers in
    /// one process never cross-contaminate.
    tracer: usize,
    trace: u64,
    stack: Vec<u64>,
    buf: Vec<TraceEvent>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
    /// Emptied buffer kept from the last suspend so steady-state
    /// resume/suspend cycles do not allocate.
    static SPARE_BUF: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// A shared handle to the per-session trace store and flight recorder.
///
/// Attach one to a [`Recorder`](crate::Recorder) with
/// [`Recorder::set_tracer`](crate::Recorder::set_tracer); drivers then
/// call [`Tracer::resume`]/[`Tracer::suspend`] around per-session work and
/// [`Tracer::drain`] (or [`Tracer::to_jsonl`]) at the end of the run.
#[derive(Clone)]
pub struct Tracer {
    shared: Arc<TracerShared>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer with the default flight-recorder capacity.
    pub fn new() -> Self {
        Tracer::with_flight_capacity(FLIGHT_CAPACITY)
    }

    /// A tracer whose flight recorder keeps the last `capacity` events.
    pub fn with_flight_capacity(capacity: usize) -> Self {
        Tracer::build(capacity, None)
    }

    /// A tracer with tail-based sampling: every session is traced into a
    /// bounded buffer, and [`Tracer::finish_session`] decides per session
    /// whether the trace is retained or dropped (see [`RetentionPolicy`]).
    pub fn with_sampling(policy: RetentionPolicy) -> Self {
        Tracer::build(FLIGHT_CAPACITY, Some(policy))
    }

    fn build(flight_capacity: usize, sampling: Option<RetentionPolicy>) -> Self {
        Tracer {
            shared: Arc::new(TracerShared {
                traces: Mutex::new(BTreeMap::new()),
                flight: Mutex::new(Flight {
                    ring: VecDeque::new(),
                    len: 0,
                    capacity: flight_capacity.max(1),
                    dump: None,
                }),
                sampling: sampling.map(|policy| Sampling {
                    policy,
                    state: Mutex::new(SamplingState::default()),
                }),
            }),
        }
    }

    /// The tail-sampling policy, when this tracer samples.
    pub fn sampling_policy(&self) -> Option<RetentionPolicy> {
        self.shared.sampling.as_ref().map(|s| s.policy)
    }

    /// The tail sampler's decision totals (`None` without sampling).
    pub fn retention_stats(&self) -> Option<RetentionStats> {
        let s = self.shared.sampling.as_ref()?;
        let state = s.state.lock();
        let mut stats = state.stats;
        stats.kept_slow = state.slow.len();
        Some(stats)
    }

    fn id(&self) -> usize {
        Arc::as_ptr(&self.shared) as usize
    }

    /// Make `trace` the active trace of the current thread, restoring its
    /// span stack. Any previously active trace is suspended first.
    pub fn resume(&self, trace: TraceId) {
        self.suspend();
        let stack = std::mem::take(&mut self.shared.traces.lock().entry(trace).or_default().stack);
        let buf = SPARE_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
        ACTIVE.with(|a| {
            *a.borrow_mut() = Some(ActiveTrace {
                tracer: self.id(),
                trace,
                stack,
                buf,
            });
        });
    }

    /// Deactivate the current thread's trace (if it belongs to this
    /// tracer): flush its buffered events to the shared store — assigning
    /// sequence numbers and feeding the flight recorder — and save its
    /// span stack. No-op when nothing is active.
    pub fn suspend(&self) {
        let active = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            match &*slot {
                Some(at) if at.tracer == self.id() => slot.take(),
                _ => None,
            }
        });
        let Some(active) = active else { return };
        let mut buf = active.buf;
        {
            let mut traces = self.shared.traces.lock();
            let st = traces.entry(active.trace).or_default();
            st.stack = active.stack;
            // Under tail sampling the in-flight buffer is bounded: events
            // past the per-trace cap are counted and discarded (seqs stay
            // contiguous because they are assigned only to kept events).
            if let Some(s) = &self.shared.sampling {
                let allowed = s
                    .policy
                    .max_events_per_trace
                    .saturating_sub(st.events.len());
                if buf.len() > allowed {
                    let overflow = (buf.len() - allowed) as u64;
                    buf.truncate(allowed);
                    s.state.lock().stats.truncated_events += overflow;
                }
            }
            if !buf.is_empty() {
                let trace = active.trace;
                let first_seq = st.next_seq;
                for (i, ev) in buf.iter_mut().enumerate() {
                    ev.seq = first_seq + i as u64;
                }
                st.next_seq = first_seq + buf.len() as u64;
                st.events.append(&mut buf);
                self.shared
                    .flight
                    .lock()
                    .push_range(trace, first_seq..st.next_seq);
            }
        }
        // `append` left the buffer empty with its capacity intact — keep
        // it for the next resume on this thread.
        SPARE_BUF.with(|b| {
            let mut spare = b.borrow_mut();
            if buf.capacity() > spare.capacity() {
                *spare = buf;
            }
        });
    }

    /// Report a session's end to the tail sampler: `trace` is retained or
    /// dropped per the [`RetentionPolicy`] (failed sessions always kept,
    /// top-k slowest by `duration_us` kept, baseline hash sample kept,
    /// rest dropped now — possibly evicting a previously slow trace that
    /// `duration_us` just outranked). A no-op without sampling, so default
    /// tracers retain every event exactly as before. Flushes the calling
    /// thread's buffer first, so the decision covers the whole session.
    pub fn finish_session(&self, trace: TraceId, failed: bool, duration_us: u64) {
        let Some(s) = &self.shared.sampling else {
            return;
        };
        self.suspend();
        let mut traces = self.shared.traces.lock();
        let mut state = s.state.lock();
        state.stats.finished += 1;
        let head = s.policy.sample_every > 0
            && splitmix64(trace ^ s.policy.seed).is_multiple_of(s.policy.sample_every);
        if failed {
            state.stats.kept_failed += 1;
        } else if head {
            state.stats.kept_head += 1;
        }
        if failed || head {
            state.pinned.insert(trace);
        }
        // Top-k candidacy: insert, then evict the smallest past k. The set
        // is ordered by `(duration, trace)`, so the survivors are the k
        // largest of a total order regardless of finish order.
        let evicted = if s.policy.top_k > 0 {
            state.slow.insert((duration_us, trace));
            if state.slow.len() > s.policy.top_k {
                state.slow.pop_first()
            } else {
                None
            }
        } else {
            Some((duration_us, trace))
        };
        if let Some((_, t)) = evicted {
            if !state.pinned.contains(&t) {
                state.stats.dropped += 1;
                traces.remove(&t);
            }
        }
    }

    /// The trace active on the current thread, if it belongs to this
    /// tracer.
    pub fn active(&self) -> Option<TraceId> {
        ACTIVE.with(|a| match &*a.borrow() {
            Some(at) if at.tracer == self.id() => Some(at.trace),
            _ => None,
        })
    }

    /// The innermost open span of the active trace (0 = none).
    pub fn current_span(&self) -> u64 {
        ACTIVE.with(|a| match &*a.borrow() {
            Some(at) if at.tracer == self.id() => at.stack.last().copied().unwrap_or(0),
            _ => 0,
        })
    }

    /// Record a span start into the active trace. Returns the trace id
    /// when recorded (the span remembers it so its end lands in the same
    /// trace). A zero `parent` is resolved against the ambient stack.
    pub(crate) fn span_start(
        &self,
        t_us: u64,
        name: &'static str,
        span: u64,
        parent: u64,
    ) -> Option<TraceId> {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let at = match &mut *slot {
                Some(at) if at.tracer == self.id() => at,
                _ => return None,
            };
            let parent = if parent != 0 {
                parent
            } else {
                at.stack.last().copied().unwrap_or(0)
            };
            at.buf.push(TraceEvent {
                trace: at.trace,
                seq: 0,
                t_us,
                kind: Cow::Borrowed("span_start"),
                name: Cow::Borrowed(name),
                span,
                parent,
                detail: Cow::Borrowed(""),
                value: None,
            });
            at.stack.push(span);
            Some(at.trace)
        })
    }

    /// Record a span end. When the span's trace is not the one active on
    /// this thread (a handle that outlived its resume window), the event
    /// is appended to the owning trace directly.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn span_end(
        &self,
        t_us: u64,
        name: &'static str,
        span: u64,
        parent: u64,
        ms: f64,
        dropped: bool,
        trace: TraceId,
    ) {
        let make = || TraceEvent {
            trace,
            seq: 0,
            t_us,
            kind: Cow::Borrowed("span_end"),
            name: Cow::Borrowed(name),
            span,
            parent,
            detail: if dropped {
                Cow::Borrowed("dropped")
            } else {
                Cow::Borrowed("")
            },
            value: Some(ms),
        };
        let buffered = ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            match &mut *slot {
                Some(at) if at.tracer == self.id() && at.trace == trace => {
                    at.stack.retain(|&s| s != span);
                    at.buf.push(make());
                    true
                }
                _ => false,
            }
        });
        if buffered {
            return;
        }
        // Out-of-window end: append straight to the owning trace.
        let mut traces = self.shared.traces.lock();
        let st = traces.entry(trace).or_default();
        st.stack.retain(|&s| s != span);
        let mut ev = make();
        ev.seq = st.next_seq;
        st.next_seq += 1;
        self.shared
            .flight
            .lock()
            .push_range(ev.trace, ev.seq..ev.seq + 1);
        st.events.push(ev);
    }

    /// Record a point under the innermost open span of the active trace.
    /// Dropped when no trace is active or no span is open (a point must
    /// belong to a tree). The name is built lazily so inactive threads pay
    /// one thread-local check and nothing else.
    pub(crate) fn point<N: Into<Cow<'static, str>>>(
        &self,
        t_us: u64,
        name: impl FnOnce() -> N,
        value: Option<f64>,
    ) {
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let at = match &mut *slot {
                Some(at) if at.tracer == self.id() => at,
                _ => return,
            };
            let Some(&enclosing) = at.stack.last() else {
                return;
            };
            at.buf.push(TraceEvent {
                trace: at.trace,
                seq: 0,
                t_us,
                kind: Cow::Borrowed("point"),
                name: name().into(),
                span: enclosing,
                parent: 0,
                detail: Cow::Borrowed(""),
                value,
            });
        });
    }

    /// Snapshot the flight-recorder ring (the last N flushed events) under
    /// `reason`, keep it for [`Tracer::take_flight_dump`], and print it to
    /// stderr — callers trigger this right *before* a `debug_assert` so
    /// the evidence survives the panic. The current thread's active buffer
    /// is flushed first so the freshest events are included. Only the
    /// first trigger is kept (the first failure is the informative one).
    pub fn trigger_flight_dump(&self, reason: &str) {
        self.suspend();
        let traces = self.shared.traces.lock();
        let mut flight = self.shared.flight.lock();
        if flight.dump.is_some() {
            return;
        }
        let dump = FlightDump {
            reason: reason.to_string(),
            events: flight
                .ring
                .iter()
                .flat_map(|(trace, seqs)| seqs.clone().map(move |seq| (*trace, seq)))
                .filter_map(|(trace, seq)| {
                    let st = traces.get(&trace)?;
                    st.events
                        .get(usize::try_from(seq.checked_sub(st.drained)?).ok()?)
                })
                .cloned()
                .collect(),
        };
        eprintln!(
            "nod-obs flight recorder: dumping last {} trace events (reason: {reason})",
            dump.events.len()
        );
        for ev in &dump.events {
            eprintln!("{}", ev.to_json_line());
        }
        flight.dump = Some(dump);
    }

    /// Take the flight dump captured by the first
    /// [`Tracer::trigger_flight_dump`], if any.
    pub fn take_flight_dump(&self) -> Option<FlightDump> {
        self.shared.flight.lock().dump.take()
    }

    /// All recorded events, ordered by `(trace, seq)` — the canonical log
    /// order, byte-stable for deterministic runs. Flushes the current
    /// thread's active trace first; other threads must have suspended.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.suspend();
        let mut traces = self.shared.traces.lock();
        let mut out = Vec::new();
        for st in traces.values_mut() {
            st.drained = st.next_seq;
            out.append(&mut st.events);
        }
        out
    }

    /// [`Tracer::drain`] serialized as JSONL.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in self.drain() {
            out.push_str(&ev.to_json_line());
            out.push('\n');
        }
        out
    }

    /// Write [`Tracer::to_jsonl`] to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())?;
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(trace: u64, name: &str) -> TraceEvent {
        TraceEvent {
            trace,
            seq: 0,
            t_us: 7,
            kind: "point".into(),
            name: name.to_string().into(),
            span: 1,
            parent: 0,
            detail: "".into(),
            value: None,
        }
    }

    #[test]
    fn event_json_round_trip() {
        let e = TraceEvent {
            trace: 3,
            seq: 9,
            t_us: 1_000,
            kind: "span_end".into(),
            name: "attempt".into(),
            span: 12,
            parent: 4,
            detail: "dropped".into(),
            value: Some(2.5),
        };
        let line = e.to_json_line();
        assert_eq!(TraceEvent::from_json_line(&line).unwrap(), e);
    }

    #[test]
    fn resume_suspend_partitions_events_and_numbers_them() {
        let t = Tracer::new();
        t.resume(0);
        assert_eq!(t.active(), Some(0));
        t.span_start(1, "session", 10, 0);
        t.point(2, || "a".to_string(), None);
        t.resume(1); // implicit suspend of 0
        t.span_start(3, "session", 11, 0);
        t.resume(0); // back to 0: stack restored
        assert_eq!(t.current_span(), 10);
        t.span_end(4, "session", 10, 0, 0.003, false, 0);
        t.suspend();
        t.resume(1);
        t.span_end(5, "session", 11, 0, 0.002, false, 1);
        let events = t.drain();
        let t0: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == 0).collect();
        let t1: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == 1).collect();
        assert_eq!(t0.len(), 3);
        assert_eq!(t1.len(), 2);
        assert_eq!(
            t0.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "per-trace seqs are contiguous"
        );
        assert_eq!(t1.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn events_without_active_trace_are_dropped() {
        let t = Tracer::new();
        t.point(1, || "orphan".to_string(), None);
        assert!(t.span_start(1, "s", 1, 0).is_none());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn points_need_an_enclosing_span() {
        let t = Tracer::new();
        t.resume(0);
        t.point(1, || "orphan".to_string(), None);
        t.span_start(2, "root", 1, 0);
        t.point(3, || "kept".to_string(), None);
        t.span_end(4, "root", 1, 0, 0.002, false, 0);
        let events = t.drain();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].name, "kept");
        assert_eq!(events[1].span, 1);
    }

    #[test]
    fn flight_recorder_keeps_last_n_and_dumps_once() {
        let t = Tracer::with_flight_capacity(4);
        t.resume(0);
        t.span_start(0, "root", 1, 0);
        for i in 0..10 {
            t.point(i, || format!("p{i}"), None);
        }
        t.trigger_flight_dump("leaked_reservation_audit");
        t.trigger_flight_dump("second trigger must not overwrite");
        let dump = t.take_flight_dump().expect("dump captured");
        assert_eq!(dump.reason, "leaked_reservation_audit");
        assert_eq!(dump.events.len(), 4);
        assert_eq!(dump.events.last().unwrap().name, "p9");
        assert!(dump.to_jsonl().lines().count() == 4);
        assert!(t.take_flight_dump().is_none(), "take drains the dump");
        let _ = ev(0, "unused-helper");
    }

    /// Run one synthetic session: a root span with `points` points, then
    /// report its end to the sampler.
    fn session(t: &Tracer, trace: u64, points: u64, failed: bool, duration_us: u64) {
        t.resume(trace);
        t.span_start(0, "session", trace * 100 + 1, 0);
        for i in 0..points {
            t.point(i, || format!("p{i}"), None);
        }
        t.span_end(
            duration_us,
            "session",
            trace * 100 + 1,
            0,
            0.0,
            false,
            trace,
        );
        t.suspend();
        t.finish_session(trace, failed, duration_us);
    }

    #[test]
    fn tail_sampler_keeps_failures_topk_and_baseline_only() {
        let policy = RetentionPolicy {
            top_k: 3,
            sample_every: 10,
            seed: 42,
            max_events_per_trace: 4_096,
        };
        let t = Tracer::with_sampling(policy);
        let failed: Vec<u64> = vec![5, 17];
        for i in 0..50u64 {
            // Duration grows with the trace id, so the top-3 slowest are
            // traces 47, 48, 49.
            session(&t, i, 2, failed.contains(&i), 1_000 + i * 10);
        }
        let stats = t.retention_stats().unwrap();
        assert_eq!(stats.finished, 50);
        assert_eq!(stats.kept_failed, 2, "every failed session retained");
        assert_eq!(stats.kept_slow, 3, "exactly top_k slow sessions");
        let events = t.drain();
        let mut retained: Vec<u64> = events.iter().map(|e| e.trace).collect();
        retained.sort_unstable();
        retained.dedup();
        for f in &failed {
            assert!(retained.contains(f), "failed trace {f} must survive");
        }
        for slow in [47, 48, 49] {
            assert!(retained.contains(&slow), "slow trace {slow} must survive");
        }
        // Retention is bounded: failures + top_k + baseline sample.
        let baseline = stats.kept_head as usize;
        assert!(
            retained.len() <= failed.len() + 3 + baseline,
            "retained {retained:?}"
        );
        assert_eq!(
            stats.dropped as usize + retained.len(),
            50,
            "every session either retained or counted dropped"
        );
    }

    #[test]
    fn tail_sampler_retained_set_is_finish_order_independent() {
        let policy = RetentionPolicy {
            top_k: 4,
            sample_every: 8,
            seed: 7,
            max_events_per_trace: 4_096,
        };
        let run = |order: &[u64]| -> Vec<String> {
            let t = Tracer::with_sampling(policy);
            for &i in order {
                session(&t, i, 1, i % 9 == 0, 500 + (i * 37) % 400);
            }
            t.drain().iter().map(|e| e.to_json_line()).collect()
        };
        let fwd: Vec<u64> = (0..40).collect();
        let rev: Vec<u64> = (0..40).rev().collect();
        let mut a = run(&fwd);
        let mut b = run(&rev);
        // Same retained traces and same per-trace bytes; drain order is by
        // trace id, so after sorting lines the logs are identical.
        a.sort();
        b.sort();
        assert_eq!(a, b, "retention must not depend on finish order");
    }

    #[test]
    fn in_flight_buffer_is_capped_per_trace() {
        let policy = RetentionPolicy {
            top_k: 1,
            sample_every: 0,
            seed: 0,
            max_events_per_trace: 10,
        };
        let t = Tracer::with_sampling(policy);
        session(&t, 0, 100, false, 1_000);
        let stats = t.retention_stats().unwrap();
        assert!(stats.truncated_events >= 90, "{stats:?}");
        let events = t.drain();
        assert_eq!(events.len(), 10, "cap bounds the buffered trace");
        // Seqs stay contiguous despite the truncation.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn default_tracer_retains_everything_and_ignores_finish() {
        let t = Tracer::new();
        assert!(t.sampling_policy().is_none());
        assert!(t.retention_stats().is_none());
        session(&t, 0, 5, false, 1);
        session(&t, 1, 5, false, 2);
        assert_eq!(t.drain().len(), 14, "finish_session must be a no-op");
    }

    #[test]
    fn two_tracers_do_not_cross_contaminate() {
        let a = Tracer::new();
        let b = Tracer::new();
        a.resume(0);
        a.span_start(0, "root", 1, 0);
        b.point(1, || "lost".to_string(), None);
        assert_eq!(b.active(), None);
        a.point(1, || "kept".to_string(), None);
        assert_eq!(a.drain().len(), 2);
        assert!(b.drain().is_empty());
    }
}
