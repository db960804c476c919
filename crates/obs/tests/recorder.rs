//! The recorder's steady state: what a write costs once its key is known,
//! that a trace point off a live trace costs nothing, and that the handle
//! and string-keyed paths are one metric.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nod_obs::{Recorder, Tracer};

thread_local! {
    /// Per-thread, so tests running in parallel do not count each other.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every method delegates verbatim to `System`; only the
// thread-local counter is added, and it never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

const LABELS: [&[(&str, &str)]; 4] = [
    &[],
    &[("server", "s7")],
    &[("result", "rejected"), ("server", "s7")],
    &[("server", "s7"), ("result", "rejected"), ("reason", "disk")],
];

#[test]
fn steady_state_writes_do_not_allocate() {
    let rec = Recorder::new();
    rec.set_sim_time_us(40);
    let write = |labels: &[(&str, &str)]| {
        rec.counter_with("c", labels, 1);
        rec.gauge_with("g", labels, 2.5);
        rec.observe_with("h", labels, 0.75);
    };
    let counter = rec.counter_handle("c", LABELS[3]);
    let hist = rec.histogram_handle("h", LABELS[3]);
    let stage = rec.span_kind("stage");
    for labels in LABELS {
        write(labels);
    }
    rec.span("stage").end();
    rec.span_of(stage).end();
    for labels in LABELS {
        assert_eq!(allocations(|| write(labels)), 0, "{} labels", labels.len());
    }
    let handles = allocations(|| {
        rec.add(counter, 1);
        rec.record(hist, 0.75);
    });
    assert_eq!(handles, 0, "handle writes");
    assert_eq!(allocations(|| rec.span("stage").end()), 0, "span by name");
    assert_eq!(allocations(|| rec.span_of(stage).end()), 0, "span by kind");
}

#[test]
fn a_point_with_no_live_trace_does_not_allocate() {
    // No tracer attached: the point returns before any formatting.
    let rec = Recorder::new();
    let point = |rec: &Recorder| rec.trace_point("negotiation.outcome", &[("status", "SUCCEEDED")]);
    let calls = |rec: &Recorder| (0..1_000).for_each(|_| point(rec));
    assert_eq!(allocations(|| calls(&rec)), 0, "no tracer");
    // A tracer attached but no trace resumed on this thread: the state of
    // every session-free call site.
    let suspended = Recorder::new();
    let tracer = Tracer::new();
    suspended.set_tracer(tracer.clone());
    assert_eq!(allocations(|| calls(&suspended)), 0, "no resumed trace");
    assert!(tracer.drain().is_empty());
}

#[test]
fn a_point_on_a_resumed_trace_does_not_allocate() {
    let rec = Recorder::new();
    let tracer = Tracer::new();
    rec.set_tracer(tracer.clone());
    rec.set_sim_time_us(7);
    let point = || rec.trace_point("cmfs.admission", &[("result", "accepted")]);
    // Warm-up: the key is interned, the buffer has grown; a suspend keeps
    // the emptied buffer for the next resume.
    tracer.resume(1);
    let span = rec.span("attempt");
    for _ in 0..8 {
        point();
    }
    tracer.suspend();
    tracer.resume(1);
    assert_eq!(allocations(point), 0, "labelled point");
    let key = rec.counter_handle("net.reservation", &[]).key();
    let keyed = allocations(|| rec.trace_point_key(key, Some(3.0)));
    assert_eq!(keyed, 0, "keyed point");
    span.end();
    tracer.suspend();
    assert_eq!(tracer.drain().len(), 12);
}

#[test]
fn handle_and_string_writes_are_one_metric() {
    let by_name = Recorder::new();
    let by_handle = Recorder::new();
    for i in 0..50 {
        let v = f64::from(i) * 0.37;
        by_name.counter_with("n", &[("k", "v"), ("a", "b")], 2);
        by_name.gauge_with("g", &[("k", "v")], v);
        by_name.observe_with("h", &[], v);
        by_handle.add(by_handle.counter_handle("n", &[("a", "b"), ("k", "v")]), 2);
        by_handle.set(by_handle.gauge_handle("g", &[("k", "v")]), v);
        by_handle.record(by_handle.histogram_handle("h", &[]), v);
    }
    // The two paths also meet on one recorder.
    let c = by_handle.counter_handle("mixed", &[]);
    by_handle.add(c, 1);
    by_handle.counter("mixed", 1);
    by_name.counter("mixed", 2);
    assert_eq!(
        by_name.snapshot().to_json_pretty(),
        by_handle.snapshot().to_json_pretty()
    );
}
