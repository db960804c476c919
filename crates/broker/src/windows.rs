//! Fleet windows: the outcome log folded into tumbling virtual-time
//! buckets.
//!
//! [`fleet_windows`] turns a [`BrokerReport`](crate::BrokerReport)'s
//! chronological [`OutcomeEvent`] log into per-window fleet health rows —
//! admissions, refusals, retries, departures, faults and the number of
//! sessions holding resources at the window's close. The rows are what
//! the `nod-top` live view renders frame by frame and what the periodic
//! Prometheus window files expose; because they derive from the replay
//! unit, the same seed yields the same windows on every run.

use crate::broker::{OutcomeEvent, OutcomeKind};

/// One tumbling window of fleet activity on the virtual clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetWindow {
    /// Window start, inclusive, ms.
    pub start_ms: u64,
    /// Window end, exclusive, ms.
    pub end_ms: u64,
    /// Sessions admitted at full QoS in this window.
    pub admitted: u64,
    /// Sessions admitted on a degraded (FAILEDWITHOFFER) offer.
    pub degraded: u64,
    /// Sessions starved out by contention.
    pub starved: u64,
    /// Sessions terminally refused.
    pub rejected: u64,
    /// Sessions that errored.
    pub errored: u64,
    /// Retries scheduled.
    pub retries: u64,
    /// Admitted sessions that released their resources.
    pub departures: u64,
    /// Fault windows whose edge fired.
    pub fault_edges: u64,
    /// Sessions holding resources when the window closed (admissions
    /// minus departures, cumulative).
    pub active_at_end: u64,
}

impl FleetWindow {
    /// Total terminal outcomes in this window.
    pub fn terminals(&self) -> u64 {
        self.admitted + self.degraded + self.starved + self.rejected + self.errored
    }

    /// Render this window as a Prometheus text-format exposition.
    ///
    /// Each counter becomes a `fleet_window_*` gauge labelled with the
    /// window's virtual-time bounds, so a scrape directory of per-window
    /// files replays the run's fleet health at a fixed cadence.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let labels = format!("start_ms=\"{}\",end_ms=\"{}\"", self.start_ms, self.end_ms);
        for (name, value) in [
            ("admitted", self.admitted),
            ("degraded", self.degraded),
            ("starved", self.starved),
            ("rejected", self.rejected),
            ("errored", self.errored),
            ("retries", self.retries),
            ("departures", self.departures),
            ("fault_edges", self.fault_edges),
            ("active_at_end", self.active_at_end),
        ] {
            out.push_str(&format!("# TYPE fleet_window_{name} gauge\n"));
            out.push_str(&format!("fleet_window_{name}{{{labels}}} {value}\n"));
        }
        out
    }
}

/// Streaming fold of a chronological outcome log into tumbling
/// [`FleetWindow`] rows.
///
/// At fleet scale the raw log runs to tens of MB, so the broker's
/// [`EventRetention::WindowsOnly`](crate::EventRetention) mode feeds
/// events through this accumulator *as they happen* and never stores
/// them. A window is finalized (its `active_at_end` fixed) the moment
/// the clock moves past it; [`WindowAccumulator::finish`] closes the
/// last one. Events must arrive in chronological order — which the
/// outcome log, being the replay unit, always is.
#[derive(Debug)]
pub struct WindowAccumulator {
    window_ms: u64,
    windows: Vec<FleetWindow>,
    active: u64,
}

impl WindowAccumulator {
    /// An empty accumulator with `window_ms` tumbling windows
    /// (clamped to at least 1 ms).
    pub fn new(window_ms: u64) -> Self {
        WindowAccumulator {
            window_ms: window_ms.max(1),
            windows: Vec::new(),
            active: 0,
        }
    }

    /// Close the current last window and append zero rows up to `idx`.
    fn extend_to(&mut self, idx: usize) {
        while self.windows.len() <= idx {
            if let Some(last) = self.windows.last_mut() {
                self.active += last.admitted + last.degraded;
                self.active = self.active.saturating_sub(last.departures);
                last.active_at_end = self.active;
            }
            let i = self.windows.len() as u64;
            self.windows.push(FleetWindow {
                start_ms: i * self.window_ms,
                end_ms: (i + 1) * self.window_ms,
                ..FleetWindow::default()
            });
        }
    }

    /// Fold one outcome into its window.
    pub fn push(&mut self, at_ms: u64, kind: &OutcomeKind) {
        let idx = (at_ms / self.window_ms) as usize;
        self.extend_to(idx);
        let w = &mut self.windows[idx];
        match kind {
            OutcomeKind::Admitted { degraded: true, .. } => w.degraded += 1,
            OutcomeKind::Admitted { .. } => w.admitted += 1,
            OutcomeKind::RetryScheduled { .. } => w.retries += 1,
            OutcomeKind::Starved { .. } => w.starved += 1,
            OutcomeKind::Rejected { .. } => w.rejected += 1,
            OutcomeKind::Errored { .. } => w.errored += 1,
            OutcomeKind::Departed => w.departures += 1,
            OutcomeKind::FaultEdge => w.fault_edges += 1,
            // Confirmed closes the choicePeriod of an already-counted
            // admission; the admission row carried the fate.
            OutcomeKind::Confirmed => {}
        }
    }

    /// Close the final window and return the contiguous rows.
    pub fn finish(mut self) -> Vec<FleetWindow> {
        if let Some(last) = self.windows.last_mut() {
            self.active += last.admitted + last.degraded;
            self.active = self.active.saturating_sub(last.departures);
            last.active_at_end = self.active;
        }
        self.windows
    }
}

/// Fold `events` (a [`BrokerReport`](crate::BrokerReport)'s log, in
/// chronological order, as [`OutcomeLog::iter`](crate::OutcomeLog::iter)
/// gives it) into tumbling windows of `window_ms`. Windows
/// cover the log's full span contiguously — quiet windows appear as zero
/// rows so a renderer can play them back at a fixed cadence. An empty
/// log yields no windows; `window_ms` is clamped to at least 1.
pub fn fleet_windows(
    events: impl IntoIterator<Item = OutcomeEvent>,
    window_ms: u64,
) -> Vec<FleetWindow> {
    let mut acc = WindowAccumulator::new(window_ms);
    for ev in events {
        acc.push(ev.at_ms, &ev.kind);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_qosneg::NegotiationStatus;

    fn ev(at_ms: u64, session: usize, kind: OutcomeKind) -> OutcomeEvent {
        OutcomeEvent {
            at_ms,
            session,
            kind,
        }
    }

    #[test]
    fn empty_log_yields_no_windows() {
        assert!(fleet_windows([], 1_000).is_empty());
    }

    #[test]
    fn events_land_in_their_windows_and_active_accumulates() {
        let events = vec![
            ev(
                0,
                0,
                OutcomeKind::Admitted {
                    degraded: false,
                    attempt: 1,
                },
            ),
            ev(
                100,
                1,
                OutcomeKind::Admitted {
                    degraded: true,
                    attempt: 2,
                },
            ),
            ev(
                150,
                2,
                OutcomeKind::RetryScheduled {
                    at_ms: 1_200,
                    attempt: 1,
                },
            ),
            ev(
                1_200,
                2,
                OutcomeKind::Rejected {
                    status: NegotiationStatus::FailedWithoutOffer,
                },
            ),
            ev(2_500, 0, OutcomeKind::Departed),
            ev(2_600, 3, OutcomeKind::Starved { attempts: 5 }),
        ];
        let w = fleet_windows(events, 1_000);
        assert_eq!(w.len(), 3);
        assert_eq!((w[0].start_ms, w[0].end_ms), (0, 1_000));
        assert_eq!(w[0].admitted, 1);
        assert_eq!(w[0].degraded, 1);
        assert_eq!(w[0].retries, 1);
        assert_eq!(w[0].active_at_end, 2);
        assert_eq!(w[1].rejected, 1);
        assert_eq!(w[1].active_at_end, 2);
        assert_eq!(w[2].departures, 1);
        assert_eq!(w[2].starved, 1);
        assert_eq!(w[2].active_at_end, 1);
        assert_eq!(
            w.iter().map(FleetWindow::terminals).sum::<u64>(),
            4,
            "four sessions reached a terminal fate"
        );
    }

    #[test]
    fn prometheus_exposition_carries_window_bounds() {
        let w = FleetWindow {
            start_ms: 1_000,
            end_ms: 2_000,
            admitted: 3,
            retries: 2,
            active_at_end: 5,
            ..FleetWindow::default()
        };
        let text = w.to_prometheus_text();
        assert!(text.contains("# TYPE fleet_window_admitted gauge\n"));
        assert!(text.contains("fleet_window_admitted{start_ms=\"1000\",end_ms=\"2000\"} 3\n"));
        assert!(text.contains("fleet_window_retries{start_ms=\"1000\",end_ms=\"2000\"} 2\n"));
        assert!(text.contains("fleet_window_active_at_end{start_ms=\"1000\",end_ms=\"2000\"} 5\n"));
        assert!(text.lines().count() == 18, "9 gauges, 2 lines each");
    }

    #[test]
    fn streaming_accumulator_matches_the_posthoc_fold() {
        // Same log as `events_land_in_their_windows_and_active_accumulates`,
        // fed one event at a time: the streaming fold the WindowsOnly
        // retention mode uses must agree with the batch fold exactly.
        let events = vec![
            ev(
                0,
                0,
                OutcomeKind::Admitted {
                    degraded: false,
                    attempt: 1,
                },
            ),
            ev(2_500, 0, OutcomeKind::Departed),
            ev(2_600, 3, OutcomeKind::Starved { attempts: 5 }),
            ev(9_001, 1, OutcomeKind::FaultEdge),
        ];
        let mut acc = WindowAccumulator::new(1_000);
        for e in &events {
            acc.push(e.at_ms, &e.kind);
        }
        assert_eq!(acc.finish(), fleet_windows(events.clone(), 1_000));
    }

    #[test]
    fn quiet_windows_are_present_as_zero_rows() {
        let events = vec![
            ev(
                0,
                0,
                OutcomeKind::Admitted {
                    degraded: false,
                    attempt: 1,
                },
            ),
            ev(5_500, 0, OutcomeKind::Departed),
        ];
        let w = fleet_windows(events, 1_000);
        assert_eq!(w.len(), 6);
        assert!(w[1..5].iter().all(|w| w.terminals() == 0 && w.retries == 0));
        assert!(w[1..5].iter().all(|w| w.active_at_end == 1));
        assert_eq!(w[5].active_at_end, 0);
    }
}
