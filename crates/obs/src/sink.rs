//! Structured event sinks (JSON lines).

use std::cell::RefCell;

use nod_simcore::json::{from_str, to_string, JsonError};
use nod_simcore::json_struct;

/// One observability event, serializable as a single JSON line.
///
/// `kind` is one of `counter`, `gauge`, `observe`, `span_start`,
/// `span_end`. `name` is the flattened metric key (labels inline, as
/// produced by the recorder) or the span name. Span events carry
/// `span`/`parent` ids; `span_end` also carries the elapsed milliseconds
/// in `value`.
#[derive(Debug, Clone, PartialEq)]
pub struct ObsEvent {
    /// Timestamp in microseconds (sim or wall clock — see
    /// [`crate::Recorder::now_us`]).
    pub t_us: u64,
    /// Event kind.
    pub kind: String,
    /// Metric key or span name.
    pub name: String,
    /// Histogram/gauge value, or elapsed ms for `span_end`.
    pub value: Option<f64>,
    /// Counter increment.
    pub delta: Option<u64>,
    /// Span id for span events.
    pub span: Option<u64>,
    /// Parent span id (0 = root) for span events.
    pub parent: Option<u64>,
}

json_struct!(ObsEvent {
    t_us,
    kind,
    name,
    value,
    delta,
    span,
    parent
});

impl ObsEvent {
    fn new(t_us: u64, kind: &str, name: String, value: Option<f64>, delta: Option<u64>) -> Self {
        let (span, parent) = (None, None);
        let kind = kind.to_string();
        ObsEvent {
            t_us,
            kind,
            name,
            value,
            delta,
            span,
            parent,
        }
    }

    pub(crate) fn counter(t_us: u64, name: String, delta: u64) -> Self {
        ObsEvent::new(t_us, "counter", name, None, Some(delta))
    }

    pub(crate) fn gauge(t_us: u64, name: String, value: f64) -> Self {
        ObsEvent::new(t_us, "gauge", name, Some(value), None)
    }

    pub(crate) fn observe(t_us: u64, name: String, value: f64) -> Self {
        ObsEvent::new(t_us, "observe", name, Some(value), None)
    }

    pub(crate) fn span_start(t_us: u64, name: String, id: u64, parent: u64) -> Self {
        let (span, parent) = (Some(id), Some(parent));
        ObsEvent {
            span,
            parent,
            ..ObsEvent::new(t_us, "span_start", name, None, None)
        }
    }

    pub(crate) fn span_end(t_us: u64, name: String, id: u64, parent: u64, ms: f64) -> Self {
        let (span, parent) = (Some(id), Some(parent));
        ObsEvent {
            span,
            parent,
            ..ObsEvent::new(t_us, "span_end", name, Some(ms), None)
        }
    }

    /// Serialize as one JSON line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        to_string(self)
    }

    /// Parse one JSON line.
    pub fn from_json_line(line: &str) -> Result<Self, JsonError> {
        from_str(line)
    }
}

/// A destination for observability events.
///
/// Implementations must be cheap and non-blocking in spirit: the recorder
/// calls `emit` from hot paths, holding no borrow of its own state.
pub trait ObsSink {
    /// Consume one event.
    fn emit(&self, event: &ObsEvent);

    /// Flush buffered output (default no-op).
    fn flush(&self) {}
}

/// Collects events in memory; the test and integration workhorse.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: RefCell<Vec<ObsEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> Self {
        MemorySink::default()
    }

    /// A copy of all events seen so far.
    pub fn events(&self) -> Vec<ObsEvent> {
        self.events.borrow().clone()
    }

    /// Drain the collected events.
    pub fn take(&self) -> Vec<ObsEvent> {
        self.events.take()
    }
}

impl ObsSink for MemorySink {
    fn emit(&self, event: &ObsEvent) {
        self.events.borrow_mut().push(event.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_json_round_trip() {
        let events = vec![
            ObsEvent::counter(12, "a{k=v}".into(), 3),
            ObsEvent::observe(15, "lat".into(), 2.5),
            ObsEvent::span_start(20, "negotiate".into(), 1, 0),
            ObsEvent::span_end(40, "negotiate".into(), 1, 0, 0.02),
        ];
        for e in events {
            let line = e.to_json_line();
            assert_eq!(ObsEvent::from_json_line(&line).unwrap(), e, "{line}");
        }
    }

    #[test]
    fn memory_sink_collects_and_drains() {
        let sink = MemorySink::new();
        sink.emit(&ObsEvent::counter(0, "x".into(), 1));
        sink.emit(&ObsEvent::counter(1, "x".into(), 2));
        assert_eq!(sink.events().len(), 2);
        assert_eq!(sink.take().len(), 2);
        assert!(sink.events().is_empty());
    }
}
