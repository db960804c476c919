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
//! - The active trace lives inside the tracer, and events are written
//!   straight into it. An event is a small `Copy` record — a kind tag, an
//!   interned `&'static str` name, the ids and the value — and becomes a
//!   [`TraceEvent`] only when the trace is drained or a flight dump is
//!   cut. `resume` takes the trace's state out of the per-trace map
//!   (hashed by trace id) and `suspend` puts it back, so the map is
//!   touched once per broker event, not once per trace event.
//! - Sequence numbers are assigned per trace as events arrive, so a
//!   trace's events totally order even though sessions interleave. A
//!   deterministic run (same seed, specs, faults) therefore serializes to
//!   a byte-identical JSONL log.
//! - Every event also feeds a bounded ring buffer — the **flight
//!   recorder**, fed with the active trace's events at `suspend` — which
//!   [`Tracer::trigger_flight_dump`] snapshots (and
//!   prints to stderr) when an invariant breaks, e.g. the broker's
//!   capacity audit detecting a leaked reservation. The dump holds the
//!   last N events before the failure, which is usually exactly the
//!   window that explains it.
//!
//! Events emitted while *no* trace is resumed are dropped: every recorded
//! event belongs to exactly one session tree, which is what makes
//! [`crate::analyze`]'s reconstruction total.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

use nod_simcore::hash::IntMap;
use nod_simcore::json::{from_str, to_string, JsonError};

use crate::retain::TailKeeper;

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
/// `cmfs.admission{result=disk,server=s0}`). Events are stored in a
/// compact form and built only when a trace is drained or dumped.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// The trace this event belongs to.
    pub trace: u64,
    /// Position within the trace (contiguous from 0).
    pub seq: u64,
    /// Timestamp in microseconds (virtual time under a simulation driver).
    pub t_us: u64,
    /// `span_start`, `span_end` or `point`.
    pub kind: String,
    /// Span name or point key.
    pub name: String,
    /// Span id (for points: the enclosing span).
    pub span: u64,
    /// Parent span id, 0 = root (span events only).
    pub parent: u64,
    /// Annotation; `"dropped"` on a `span_end` reached via drop.
    pub detail: String,
    /// Elapsed milliseconds for `span_end`, free value for points.
    pub value: Option<f64>,
}

nod_simcore::json_struct!(TraceEvent {
    trace,
    seq,
    t_us,
    kind,
    name,
    span,
    parent,
    detail,
    value,
});

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
        jsonl(&self.events)
    }
}

/// Events as JSONL, one per line.
fn jsonl(events: &[TraceEvent]) -> String {
    events.iter().map(|e| e.to_json_line() + "\n").collect()
}

// What a stored event is: the low two bits of [`Record::tag`].
const SPAN_START: u32 = 0;
const SPAN_END: u32 = 1;
/// A `span_end` reached by dropping the span.
const SPAN_DROPPED: u32 = 2;
const POINT: u32 = 3;
const KIND_MASK: u32 = 0b11;
// The flags above the kind, and the shift of the name index above them.
const HAS_VALUE: u32 = 1 << 2;
/// The parent is in [`Store::wide_parents`].
const WIDE_PARENT: u32 = 1 << 3;
const NAME_SHIFT: u32 = 4;

/// One stored trace event in 32 bytes: `Copy`, owning nothing. The trace
/// id and the sequence number are implied by where it is stored, the name
/// is an index into the tracer's [`Names`], and a parent id too wide for
/// `parent` is kept in [`Store::wide_parents`].
#[derive(Debug, Clone, Copy)]
struct Record {
    t_us: u64,
    span: u64,
    /// The value's bits, when [`HAS_VALUE`] is set.
    value: u64,
    /// The parent span id; `u32::MAX` when it is too wide to fit.
    parent: u32,
    /// Name index, flags and kind.
    tag: u32,
}

impl Record {
    /// The record of one event, and its parent when that does not fit.
    fn new(
        kind: u32,
        t_us: u64,
        name: u32,
        span: u64,
        parent: u64,
        value: Option<f64>,
    ) -> (Record, Option<u64>) {
        let mut tag = name << NAME_SHIFT | kind;
        if value.is_some() {
            tag |= HAS_VALUE;
        }
        let narrow = u32::try_from(parent).ok().filter(|&p| p != u32::MAX);
        if narrow.is_none() {
            tag |= WIDE_PARENT;
        }
        let record = Record {
            t_us,
            span,
            value: value.map_or(0, f64::to_bits),
            parent: narrow.unwrap_or(u32::MAX),
            tag,
        };
        (record, narrow.is_none().then_some(parent))
    }

    /// The event this record stores as event `seq` of `trace`.
    fn event(&self, names: &Names, wide_parents: &WideParents, trace: u64, seq: u64) -> TraceEvent {
        let (kind, detail) = match self.tag & KIND_MASK {
            SPAN_START => ("span_start", ""),
            SPAN_END => ("span_end", ""),
            SPAN_DROPPED => ("span_end", "dropped"),
            _ => ("point", ""),
        };
        let parent = match self.tag & WIDE_PARENT {
            0 => u64::from(self.parent),
            _ => wide_parents[&(trace, seq)],
        };
        TraceEvent {
            trace,
            seq,
            t_us: self.t_us,
            kind: kind.to_string(),
            name: names.list[(self.tag >> NAME_SHIFT) as usize].to_string(),
            span: self.span,
            parent,
            detail: detail.to_string(),
            value: (self.tag & HAS_VALUE != 0).then(|| f64::from_bits(self.value)),
        }
    }
}

/// The span and point names a tracer has stored, each once, by index.
#[derive(Default)]
struct Names {
    list: Vec<&'static str>,
    /// `(address, length)` of a name → its index.
    index: IntMap<(u64, u64), u32>,
}

impl Names {
    /// The index of `name`, assigned on its first use.
    fn index(&mut self, name: &'static str) -> u32 {
        let list = &mut self.list;
        let key = (name.as_ptr() as u64, name.len() as u64);
        *self.index.entry(key).or_insert_with(|| {
            let ix = u32::try_from(list.len())
                .ok()
                .filter(|&ix| ix < u32::MAX >> NAME_SHIFT)
                .expect("fewer than 2^28 distinct trace names");
            list.push(name);
            ix
        })
    }
}

/// Parent ids too wide for [`Record::parent`], by `(trace, seq)`.
type WideParents = BTreeMap<(u64, u64), u64>;

/// Hashes a trace id with one multiply: ids are dense session numbers
/// chosen by the caller, not adversarial input.
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ b as u64);
        }
    }
    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// Per-trace state: its events and its ambient span stack.
#[derive(Debug, Default)]
struct TraceState {
    events: Vec<Record>,
    next_seq: u64,
    /// Seqs handed out before the last [`Tracer::drain`]; event `seq`
    /// lives at `events[seq - drained]`.
    drained: u64,
    /// Ambient span stack, saved across suspensions.
    stack: Vec<u64>,
}

impl TraceState {
    /// Append `record` as event `next_seq` of `trace`, its parent into
    /// `wide_parents` when it is too wide for the record.
    fn push(
        &mut self,
        record: Record,
        wide: Option<u64>,
        trace: u64,
        wide_parents: &mut WideParents,
    ) {
        if let Some(parent) = wide {
            wide_parents.insert((trace, self.next_seq), parent);
        }
        self.events.push(record);
        self.next_seq += 1;
    }
}

/// The resumed trace, out of [`Store::traces`] until it is suspended.
struct Active {
    trace: u64,
    state: TraceState,
    /// The first seq the flight ring has not been fed yet.
    unflown: u64,
}

impl Active {
    /// Append `record`, numbering it; under tail sampling a trace past its
    /// in-flight cap counts the event instead of keeping it (seqs stay
    /// contiguous because they are assigned only to kept events).
    fn push(
        &mut self,
        (record, wide): (Record, Option<u64>),
        sampling: &mut Option<(RetentionPolicy, TailKeeper<()>)>,
        wide_parents: &mut WideParents,
    ) {
        if let Some((policy, keeper)) = sampling {
            if self.state.events.len() >= policy.max_events_per_trace {
                keeper.truncated(1);
                return;
            }
        }
        (self.state).push(record, wide, self.trace, wide_parents);
    }
}

/// The flight ring holds `(trace, seq)` keys, not events: recording stays
/// allocation- and copy-free, and the dump (cold path) resolves the keys
/// against the per-trace stores.
struct Flight {
    /// Contiguous `(trace, seq range)` segments, oldest first. Storing
    /// ranges instead of individual seqs makes the feed O(1) per
    /// suspend; only the dump (cold path) expands them.
    ring: VecDeque<(u64, std::ops::Range<u64>)>,
    /// Total events across all segments, kept `<= capacity`.
    len: usize,
    capacity: usize,
    dump: Option<FlightDump>,
}

impl Flight {
    /// Record that `seqs` of `trace` were written, trimming the oldest
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
/// and the policy seed, never of the order sessions finish in:
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

/// Everything a tracer holds: the per-trace stores, the active trace, the
/// flight ring over them and the tail sampler.
struct Store {
    traces: HashMap<u64, TraceState, BuildHasherDefault<IdHasher>>,
    active: Option<Active>,
    flight: Flight,
    /// Emptied states of dropped traces, reused by new ones, so a sampled
    /// fleet does not allocate per session.
    spare: Vec<TraceState>,
    /// Tail-based retention; `None` (the default) retains everything.
    sampling: Option<(RetentionPolicy, TailKeeper<()>)>,
    names: Names,
    /// The parents no [`Record`] holds; empty unless span ids pass
    /// `u32::MAX`.
    wide_parents: WideParents,
}

/// Most states [`Store::spare`] keeps, and the largest event buffer it
/// keeps one with: a typical session's, so reuse does not leave every
/// in-flight trace holding the largest buffer any trace ever needed.
const SPARE_STATES: usize = 64;
const SPARE_EVENTS: usize = 32;

impl Store {
    /// Put the active trace back into the map, feeding the flight ring
    /// the events written since it was resumed. No-op when none is.
    fn suspend(&mut self) {
        let Some(Active {
            trace,
            state,
            unflown,
        }) = self.active.take()
        else {
            return;
        };
        self.flight.push_range(trace, unflown..state.next_seq);
        self.traces.insert(trace, state);
    }

    /// Forget `trace`, keeping its emptied buffers for the next one.
    fn drop_trace(&mut self, trace: u64) {
        let Some(mut st) = self.traces.remove(&trace) else {
            return;
        };
        if !self.wide_parents.is_empty() {
            self.wide_parents.retain(|&(t, _), _| t != trace);
        }
        if self.spare.len() < SPARE_STATES && st.events.capacity() <= SPARE_EVENTS {
            st.events.clear();
            st.stack.clear();
            (st.next_seq, st.drained) = (0, 0);
            self.spare.push(st);
        }
    }
}

/// A shared handle to the per-session trace store and flight recorder.
///
/// Attach one to a [`Recorder`](crate::Recorder) with
/// [`Recorder::set_tracer`](crate::Recorder::set_tracer); drivers then
/// call [`Tracer::resume`]/[`Tracer::suspend`] around per-session work and
/// [`Tracer::drain`] (or [`Tracer::to_jsonl`]) at the end of the run.
/// Clones share one store, active trace included; two tracers share
/// neither.
#[derive(Clone)]
pub struct Tracer {
    store: Rc<RefCell<Store>>,
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
            store: Rc::new(RefCell::new(Store {
                traces: HashMap::default(),
                active: None,
                flight: Flight {
                    ring: VecDeque::new(),
                    len: 0,
                    capacity: flight_capacity.max(1),
                    dump: None,
                },
                spare: Vec::new(),
                sampling: sampling.map(|policy| (policy, TailKeeper::new(policy))),
                names: Names::default(),
                wide_parents: WideParents::new(),
            })),
        }
    }

    /// The tail sampler's decision totals (`None` without sampling).
    pub fn retention_stats(&self) -> Option<RetentionStats> {
        Some(self.store.borrow().sampling.as_ref()?.1.stats())
    }

    /// Make `trace` the active trace, restoring its span stack. Any
    /// previously active trace is suspended first.
    pub fn resume(&self, trace: TraceId) {
        let mut store = self.store.borrow_mut();
        store.suspend();
        let state = match store.traces.remove(&trace) {
            Some(state) => state,
            None => store.spare.pop().unwrap_or_default(),
        };
        store.active = Some(Active {
            trace,
            unflown: state.next_seq,
            state,
        });
    }

    /// Deactivate the active trace: feed its new events to the flight
    /// recorder and keep its span stack for the next resume. No-op when
    /// nothing is active.
    pub fn suspend(&self) {
        self.store.borrow_mut().suspend();
    }

    /// Report a session's end to the tail sampler: `trace` is retained or
    /// dropped per the [`RetentionPolicy`] (failed sessions always kept,
    /// top-k slowest by `duration_us` kept, baseline hash sample kept,
    /// rest dropped now — possibly evicting a previously slow trace that
    /// `duration_us` just outranked). A no-op without sampling, so default
    /// tracers retain every event exactly as before. Suspends the active
    /// trace first, so the decision covers the whole session.
    pub fn finish_session(&self, trace: TraceId, failed: bool, duration_us: u64) {
        let mut store = self.store.borrow_mut();
        let Some((_, keeper)) = &mut store.sampling else {
            return;
        };
        let mut kept = false;
        let evicted = keeper.finish_with(trace, failed, duration_us, || kept = true);
        store.suspend();
        if let Some(t) = evicted {
            store.drop_trace(t);
        }
        // A retained trace is complete: it keeps no spare capacity.
        if let Some(st) = store.traces.get_mut(&trace).filter(|_| kept) {
            st.events.shrink_to_fit();
        }
    }

    /// The active trace, if any.
    pub fn active(&self) -> Option<TraceId> {
        self.store.borrow().active.as_ref().map(|at| at.trace)
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
        let mut store = self.store.borrow_mut();
        let Store {
            active,
            sampling,
            names,
            wide_parents,
            ..
        } = &mut *store;
        let at = active.as_mut()?;
        let parent = if parent != 0 {
            parent
        } else {
            at.state.stack.last().copied().unwrap_or(0)
        };
        let record = Record::new(SPAN_START, t_us, names.index(name), span, parent, None);
        at.push(record, sampling, wide_parents);
        at.state.stack.push(span);
        Some(at.trace)
    }

    /// Record a span end. When the span's trace is not the active one (a
    /// handle that outlived its resume window), the event is appended to
    /// the owning trace directly.
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
        let kind = if dropped { SPAN_DROPPED } else { SPAN_END };
        let mut store = self.store.borrow_mut();
        let store = &mut *store;
        let record = Record::new(kind, t_us, store.names.index(name), span, parent, Some(ms));
        if let Some(at) = store.active.as_mut().filter(|at| at.trace == trace) {
            at.state.stack.retain(|&s| s != span);
            at.push(record, &mut store.sampling, &mut store.wide_parents);
            return;
        }
        // Out-of-window end: append straight to the owning trace.
        let spare = &mut store.spare;
        let st = (store.traces.entry(trace)).or_insert_with(|| spare.pop().unwrap_or_default());
        st.stack.retain(|&s| s != span);
        st.push(record.0, record.1, trace, &mut store.wide_parents);
        let seqs = st.next_seq - 1..st.next_seq;
        store.flight.push_range(trace, seqs);
    }

    /// Record a point under the innermost open span of the active trace.
    /// Dropped when no trace is active or no span is open (a point must
    /// belong to a tree). The name is resolved lazily so an inactive
    /// tracer pays one check and nothing else.
    pub(crate) fn point(&self, t_us: u64, name: impl FnOnce() -> &'static str, value: Option<f64>) {
        let mut store = self.store.borrow_mut();
        let Store {
            active: Some(at),
            sampling,
            names,
            wide_parents,
            ..
        } = &mut *store
        else {
            return;
        };
        let Some(&enclosing) = at.state.stack.last() else {
            return;
        };
        let record = Record::new(POINT, t_us, names.index(name()), enclosing, 0, value);
        at.push(record, sampling, wide_parents);
    }

    /// Snapshot the flight-recorder ring (the last N written events) under
    /// `reason`, keep it for [`Tracer::take_flight_dump`], and print it to
    /// stderr — callers trigger this right *before* a `debug_assert` so
    /// the evidence survives the panic. The active trace is suspended
    /// first so the freshest events are included. Only the first trigger
    /// is kept (the first failure is the informative one).
    pub fn trigger_flight_dump(&self, reason: &str) {
        let mut store = self.store.borrow_mut();
        store.suspend();
        let Store {
            traces,
            flight,
            names,
            wide_parents,
            ..
        } = &mut *store;
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
                    let record = st
                        .events
                        .get(usize::try_from(seq.checked_sub(st.drained)?).ok()?)?;
                    Some(record.event(names, wide_parents, trace, seq))
                })
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
        self.store.borrow_mut().flight.dump.take()
    }

    /// All recorded events, ordered by `(trace, seq)` — the canonical log
    /// order, byte-stable for deterministic runs. Suspends the active
    /// trace first.
    pub fn drain(&self) -> Vec<TraceEvent> {
        let mut store = self.store.borrow_mut();
        store.suspend();
        let Store {
            traces,
            names,
            wide_parents,
            ..
        } = &mut *store;
        let mut ids: Vec<u64> = traces.keys().copied().collect();
        ids.sort_unstable();
        let mut out = Vec::new();
        for trace in ids {
            let st = traces.get_mut(&trace).expect("id listed from the map");
            let first = st.drained;
            out.extend(
                (st.events.drain(..).zip(first..))
                    .map(|(r, seq)| r.event(names, wide_parents, trace, seq)),
            );
            st.drained = st.next_seq;
        }
        wide_parents.clear();
        out
    }

    /// [`Tracer::drain`] serialized as JSONL.
    pub fn to_jsonl(&self) -> String {
        jsonl(&self.drain())
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
            name: name.to_string(),
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
    fn a_stored_record_is_32_bytes() {
        assert!(std::mem::size_of::<Record>() <= 32);
    }

    #[test]
    fn wide_ids_and_every_value_round_trip_exactly() {
        let wide = u32::MAX as u64;
        let values = [
            None,
            Some(f64::NAN),
            Some(f64::from_bits(f64::NAN.to_bits() ^ 0xdead)),
            Some(f64::INFINITY),
            Some(f64::NEG_INFINITY),
            Some(-0.0),
            Some(2.5),
        ];
        let t = Tracer::new();
        t.resume(wide + 9);
        t.span_start(u64::MAX, "root", wide + 1, 0);
        t.span_start(7, "child", u64::MAX, wide + 1);
        t.span_start(8, "sentinel", 3, wide);
        for (i, &value) in values.iter().enumerate() {
            t.point(i as u64, || "p", value);
        }
        t.span_end(9, "sentinel", 3, wide, f64::NAN, false, wide + 9);
        t.span_end(
            10,
            "child",
            u64::MAX,
            wide + 1,
            f64::INFINITY,
            true,
            wide + 9,
        );
        t.suspend();
        // An end outside its resume window goes to its trace directly.
        t.span_end(11, "root", wide + 1, 0, -0.0, false, wide + 9);
        let dump_before_drain = {
            t.trigger_flight_dump("check");
            t.take_flight_dump().expect("dumped").events
        };
        let events = t.drain();
        assert_eq!(events.len(), 3 + values.len() + 3);
        assert_eq!(dump_before_drain.len(), events.len());
        let ids = |e: &TraceEvent| (e.trace, e.t_us, e.kind.clone(), e.span, e.parent);
        let root = events.iter().find(|e| e.name == "root").unwrap();
        assert_eq!(
            ids(root),
            (wide + 9, u64::MAX, "span_start".into(), wide + 1, 0)
        );
        let child = events.iter().find(|e| e.name == "child").unwrap();
        assert_eq!((child.span, child.parent), (u64::MAX, wide + 1));
        let sentinel = events.iter().find(|e| e.name == "sentinel").unwrap();
        assert_eq!((sentinel.span, sentinel.parent), (3, wide));
        let points: Vec<&TraceEvent> = events.iter().filter(|e| e.kind == "point").collect();
        for (p, want) in points.iter().zip(values) {
            assert_eq!(p.value.map(f64::to_bits), want.map(f64::to_bits));
            assert_eq!((p.span, p.parent), (3, 0), "the innermost open span");
        }
        let ends: Vec<(u64, u64, Option<u64>, &str)> = (events.iter())
            .filter(|e| e.kind == "span_end")
            .map(|e| {
                (
                    e.span,
                    e.parent,
                    e.value.map(f64::to_bits),
                    e.detail.as_str(),
                )
            })
            .collect();
        assert_eq!(
            ends,
            [
                (3, wide, Some(f64::NAN.to_bits()), ""),
                (u64::MAX, wide + 1, Some(f64::INFINITY.to_bits()), "dropped"),
                (wide + 1, 0, Some((-0.0f64).to_bits()), ""),
            ]
        );
        for (a, b) in dump_before_drain.iter().zip(&events) {
            assert_eq!(a.to_json_line(), b.to_json_line());
        }
    }

    #[test]
    fn resume_suspend_partitions_events_and_numbers_them() {
        let t = Tracer::new();
        t.resume(0);
        assert_eq!(t.active(), Some(0));
        t.span_start(1, "session", 10, 0);
        t.point(2, || "a", None);
        t.resume(1); // implicit suspend of 0
        t.span_start(3, "session", 11, 0);
        t.resume(0); // back to 0: stack restored
        t.point(4, || "b", None);
        t.span_end(4, "session", 10, 0, 0.003, false, 0);
        t.suspend();
        t.resume(1);
        t.span_end(5, "session", 11, 0, 0.002, false, 1);
        let events = t.drain();
        let t0: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == 0).collect();
        let t1: Vec<&TraceEvent> = events.iter().filter(|e| e.trace == 1).collect();
        assert_eq!(t0.len(), 4);
        assert_eq!(t1.len(), 2);
        assert_eq!(t0[2].span, 10, "the restored stack encloses the point");
        assert_eq!(
            t0.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "per-trace seqs are contiguous"
        );
        assert_eq!(t1.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn events_without_active_trace_are_dropped() {
        let t = Tracer::new();
        t.point(1, || "orphan", None);
        assert!(t.span_start(1, "s", 1, 0).is_none());
        assert!(t.drain().is_empty());
    }

    #[test]
    fn points_need_an_enclosing_span() {
        let t = Tracer::new();
        t.resume(0);
        t.point(1, || "orphan", None);
        t.span_start(2, "root", 1, 0);
        t.point(3, || "kept", None);
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
            t.point(i, || crate::interned_key(&format!("p{i}"), &[]), None);
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
            t.point(i, || crate::interned_key(&format!("p{i}"), &[]), None);
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
        b.point(1, || "lost", None);
        assert_eq!(b.active(), None);
        a.point(1, || "kept", None);
        assert_eq!(a.drain().len(), 2);
        assert!(b.drain().is_empty());
    }
}
