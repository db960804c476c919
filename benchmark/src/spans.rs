//! The benchmark's own span recorder.
//!
//! Spans are opened and closed from the benchmark's files, around each
//! call into a layer's public function; nothing inside the program is
//! instrumented. They stay in memory and are written as JSONL when the
//! traced run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call. `id` is the span's 1-based position in the log,
/// `parent` is 0 for a root, `session` groups the spans of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: u32,
    pub session: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    enabled: bool,
}

impl SpanLog {
    /// A recording log, or — with `enabled` false — one whose `open` and
    /// `close` do nothing, so the same loop runs traced and untraced.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span and return its id (0 when disabled).
    pub fn open(&mut self, name: &'static str, parent: u32, session: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            session,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if id != 0 {
            self.spans[id as usize - 1].end_ns = self.now_ns();
        }
    }

    /// Close a span under another name, for a call whose kind is only
    /// known once it returns (a commit that was refused).
    pub fn close_as(&mut self, id: u32, name: &'static str) {
        self.close(id);
        if id != 0 {
            self.spans[id as usize - 1].name = name;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id`, `name`, `parent`, `session`,
    /// `start_ns`, `end_ns` (nanoseconds since the log was created).
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"parent\":{},\"session\":{},\"start_ns\":{},\"end_ns\":{}}}",
                i + 1,
                s.name,
                s.parent,
                s.session,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (start, end) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if start < end {
                children[s.parent as usize - 1].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if start < end {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Total self time per span name, seconds, in first-seen order.
pub fn self_seconds_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut rows: Vec<(&'static str, f64)> = Vec::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        let secs = ns as f64 / 1e9;
        match rows.iter_mut().find(|(name, _)| *name == s.name) {
            Some((_, total)) => *total += secs,
            None => rows.push((s.name, secs)),
        }
    }
    rows
}

/// The share of `whole_s` that the attributed rows do not explain:
/// `1 − Σ(count × mean_s) ÷ whole_s`. Slightly negative when the replayed
/// per-call costs overshoot what the real run paid.
pub fn unattributed_share(whole_s: f64, rows: &[(u64, f64)]) -> f64 {
    let attributed: f64 = rows
        .iter()
        .map(|&(count, mean_s)| count as f64 * mean_s)
        .sum();
    1.0 - attributed / whole_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            session: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let spans = [
            span("session", 0, 0, 100),
            span("prepare", 1, 10, 50),
            span("commit", 1, 60, 90),
            span("inner", 2, 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn children_are_clipped_and_overlaps_count_once() {
        let spans = [
            span("session", 0, 100, 200),
            // Overlapping pair covering 120..170 between them.
            span("a", 1, 120, 160),
            span("b", 1, 150, 170),
            // Runs past the parent's end: only 190..200 is inside.
            span("release", 1, 190, 400),
            // Entirely outside the parent: covers nothing.
            span("late", 1, 500, 600),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 50 - 10);
        let by_name = self_seconds_by_name(&spans);
        assert_eq!(by_name[0].0, "session");
        assert!((by_name[0].1 - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn attribution_rows_and_the_unattributed_share_sum_to_the_whole() {
        // 10 attempts × 0.05 s + 8 ok × 0.02 s + 2 refused × 0.04 s = 0.74 s of 1 s.
        let rows = [(10, 0.05), (8, 0.02), (2, 0.04)];
        let share = unattributed_share(1.0, &rows);
        assert!((share - 0.26).abs() < 1e-12);
        let attributed: f64 = rows.iter().map(|&(n, s)| n as f64 * s).sum();
        assert!((attributed + share * 1.0 - 1.0).abs() < 1e-12);
        // Overshoot is reported, not hidden.
        assert!(unattributed_share(0.5, &rows) < 0.0);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        let id = log.open("x", 0, 1);
        log.close(id);
        assert_eq!(id, 0);
        assert!(log.spans().is_empty());
    }
}
