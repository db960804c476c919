//! Service-level objectives over virtual-time windows, with burn alerts.
//!
//! An [`SloMonitor`] evaluates a set of [`SloSpec`]s — objectives declared
//! in code over the three fleet health signals the broker already
//! produces: admission latency, session failure ratio, and retry-budget
//! consumption. Evaluation is windowed on the *virtual* clock (tumbling
//! windows of `window_ms`), so a seeded run burns, alerts and recovers at
//! exactly the same virtual instants on every replay — the monitor is fed
//! from the broker's deterministic per-session close-out, never from wall
//! time.
//!
//! When an objective stays out of bounds for `burn_windows` consecutive
//! windows the monitor emits an [`SloAlert`]: a `slo.alert{slo=...}`
//! counter into the recorder, and — on the first alert of the run — a
//! flight-recorder dump ([`crate::Tracer::trigger_flight_dump`]), so the
//! last trace events leading into the burn survive for inspection.

use crate::hist::LogHistogram;
use crate::Recorder;

/// What an SLO bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Objective {
    /// The `q`-quantile of admission latency must stay ≤ `max_ms`.
    AdmissionLatencyQuantile {
        /// Quantile in `[0, 1]`, e.g. 0.99.
        q: f64,
        /// Latency bound in milliseconds.
        max_ms: f64,
    },
    /// The fraction of sessions ending in failure must stay ≤ `max_ratio`.
    FailureRatio {
        /// Bound in `[0, 1]`.
        max_ratio: f64,
    },
    /// Mean negotiation attempts consumed per session must stay ≤
    /// `max_attempts_per_session` (retry-budget consumption).
    RetryBudget {
        /// Bound, e.g. 4.0 attempts per session.
        max_attempts_per_session: f64,
    },
}

impl Objective {
    /// The objective's bound, for reporting.
    pub fn threshold(&self) -> f64 {
        match *self {
            Objective::AdmissionLatencyQuantile { max_ms, .. } => max_ms,
            Objective::FailureRatio { max_ratio } => max_ratio,
            Objective::RetryBudget {
                max_attempts_per_session,
            } => max_attempts_per_session,
        }
    }
}

/// One service-level objective: a named [`Objective`] evaluated over
/// tumbling virtual-time windows, alerting after a burn streak.
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Name, used as the `slo` label on emitted metrics.
    pub name: &'static str,
    /// What is bounded.
    pub objective: Objective,
    /// Tumbling window length in virtual milliseconds.
    pub window_ms: u64,
    /// Consecutive out-of-bounds windows before an alert fires.
    pub burn_windows: u32,
}

/// An SLO that burned: `burn_windows` consecutive windows out of bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct SloAlert {
    /// The burning SLO's name.
    pub slo: &'static str,
    /// Virtual end of the window that completed the streak (ms).
    pub window_end_ms: u64,
    /// The observed value in that window.
    pub observed: f64,
    /// The objective's bound.
    pub threshold: f64,
    /// Length of the streak when the alert fired.
    pub burning_windows: u32,
}

/// A reasonable default fleet SLO set for contended broker runs.
pub fn default_fleet_slos() -> Vec<SloSpec> {
    vec![
        SloSpec {
            name: "admission-latency-p99",
            objective: Objective::AdmissionLatencyQuantile {
                q: 0.99,
                max_ms: 5_000.0,
            },
            window_ms: 5_000,
            burn_windows: 2,
        },
        SloSpec {
            name: "session-failure-ratio",
            objective: Objective::FailureRatio { max_ratio: 0.5 },
            window_ms: 5_000,
            burn_windows: 2,
        },
        SloSpec {
            name: "retry-budget",
            objective: Objective::RetryBudget {
                max_attempts_per_session: 4.0,
            },
            window_ms: 5_000,
            burn_windows: 2,
        },
    ]
}

/// Per-spec window accumulator and burn streak.
#[derive(Debug, Default)]
struct SpecState {
    /// Index of the currently accumulating window.
    window_idx: u64,
    latencies: LogHistogram,
    sessions: u64,
    failed: u64,
    attempts: u64,
    streak: u32,
}

/// Evaluates [`SloSpec`]s over the virtual clock as the broker reports
/// session ends; see the module docs.
#[derive(Debug)]
pub struct SloMonitor {
    specs: Vec<SloSpec>,
    states: Vec<SpecState>,
    alerts: Vec<SloAlert>,
    dumped: bool,
}

impl SloMonitor {
    /// A monitor over `specs` (an empty set is a no-op monitor).
    pub fn new(specs: Vec<SloSpec>) -> Self {
        let states = specs.iter().map(|_| SpecState::default()).collect();
        SloMonitor {
            specs,
            states,
            alerts: Vec::new(),
            dumped: false,
        }
    }

    /// Are any SLOs configured?
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Alerts fired so far.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Report one session's terminal outcome at virtual time `now_ms`:
    /// `latency_ms` is the admission latency when the session was admitted,
    /// `failed` marks terminal failures, `attempts` the negotiation
    /// attempts it consumed. Windows that ended before `now_ms` are closed
    /// (and evaluated) first.
    pub fn on_session(
        &mut self,
        rec: Option<&Recorder>,
        now_ms: u64,
        latency_ms: Option<f64>,
        failed: bool,
        attempts: u64,
    ) {
        self.advance(rec, now_ms);
        for st in &mut self.states {
            if let Some(l) = latency_ms {
                if l.is_finite() {
                    st.latencies.record(l);
                }
            }
            st.sessions += 1;
            st.failed += u64::from(failed);
            st.attempts += attempts;
        }
    }

    /// Close every window that ends at or before `now_ms`.
    pub fn advance(&mut self, rec: Option<&Recorder>, now_ms: u64) {
        for i in 0..self.specs.len() {
            let spec = self.specs[i].clone();
            let target_idx = now_ms / spec.window_ms.max(1);
            while self.states[i].window_idx < target_idx {
                self.close_window(rec, i, &spec);
            }
        }
    }

    /// Close out the run: evaluate the final partial windows and return
    /// every alert fired.
    pub fn finish(&mut self, rec: Option<&Recorder>, now_ms: u64) -> &[SloAlert] {
        self.advance(rec, now_ms);
        for i in 0..self.specs.len() {
            let spec = self.specs[i].clone();
            if self.states[i].sessions > 0 {
                self.close_window(rec, i, &spec);
            }
        }
        &self.alerts
    }

    /// Evaluate and reset spec `i`'s current window, advancing its index.
    fn close_window(&mut self, rec: Option<&Recorder>, i: usize, spec: &SloSpec) {
        let st = &mut self.states[i];
        let window_end_ms = (st.window_idx + 1) * spec.window_ms.max(1);
        let observed = match spec.objective {
            Objective::AdmissionLatencyQuantile { q, .. } => {
                (st.latencies.count() > 0).then(|| st.latencies.quantile(q))
            }
            Objective::FailureRatio { .. } => {
                (st.sessions > 0).then(|| st.failed as f64 / st.sessions as f64)
            }
            Objective::RetryBudget { .. } => {
                (st.sessions > 0).then(|| st.attempts as f64 / st.sessions as f64)
            }
        };
        st.latencies = LogHistogram::new();
        st.sessions = 0;
        st.failed = 0;
        st.attempts = 0;
        st.window_idx += 1;

        // An empty window has no evidence either way: it ends the streak.
        let Some(observed) = observed else {
            st.streak = 0;
            return;
        };
        if observed <= spec.objective.threshold() {
            st.streak = 0;
            return;
        }
        st.streak += 1;
        let streak = st.streak;
        if let Some(rec) = rec {
            rec.counter_with("slo.window.burning", &[("slo", spec.name)], 1);
        }
        if streak == spec.burn_windows.max(1) {
            self.alerts.push(SloAlert {
                slo: spec.name,
                window_end_ms,
                observed,
                threshold: spec.objective.threshold(),
                burning_windows: streak,
            });
            if let Some(rec) = rec {
                rec.counter_with("slo.alert", &[("slo", spec.name)], 1);
                if !self.dumped {
                    if let Some(tracer) = rec.tracer() {
                        self.dumped = true;
                        tracer.trigger_flight_dump(&format!("slo_burn:{}", spec.name));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn latency_slo(window_ms: u64, burn: u32, max_ms: f64) -> SloSpec {
        SloSpec {
            name: "lat-p99",
            objective: Objective::AdmissionLatencyQuantile { q: 0.99, max_ms },
            window_ms,
            burn_windows: burn,
        }
    }

    #[test]
    fn alert_fires_after_burn_streak_and_not_before() {
        let mut m = SloMonitor::new(vec![latency_slo(1_000, 2, 100.0)]);
        // Window 0: hot. Window 1: hot → alert at its close. Window 2: ok.
        for t in [100u64, 500] {
            m.on_session(None, t, Some(500.0), false, 1);
        }
        for t in [1_100u64, 1_500] {
            m.on_session(None, t, Some(500.0), false, 1);
        }
        assert!(m.alerts().is_empty(), "streak not complete yet");
        m.on_session(None, 2_100, Some(10.0), false, 1);
        assert_eq!(m.alerts().len(), 1, "two hot windows closed");
        let a = &m.alerts()[0];
        assert_eq!(a.slo, "lat-p99");
        assert_eq!(a.window_end_ms, 2_000);
        assert_eq!(a.burning_windows, 2);
        assert!(a.observed > a.threshold);
        // The final cool window resets the streak: no further alert.
        let alerts = m.finish(None, 3_000).to_vec();
        assert_eq!(alerts.len(), 1);
    }

    #[test]
    fn empty_windows_reset_the_streak() {
        let mut m = SloMonitor::new(vec![latency_slo(1_000, 2, 100.0)]);
        m.on_session(None, 100, Some(500.0), false, 1);
        // Windows 1..4 are empty; the next hot session lands in window 5.
        m.on_session(None, 5_100, Some(500.0), false, 1);
        m.finish(None, 6_000);
        assert!(
            m.alerts().is_empty(),
            "non-consecutive hot windows must not alert"
        );
    }

    #[test]
    fn failure_ratio_and_retry_budget_objectives() {
        let specs = vec![
            SloSpec {
                name: "fail",
                objective: Objective::FailureRatio { max_ratio: 0.25 },
                window_ms: 1_000,
                burn_windows: 1,
            },
            SloSpec {
                name: "retries",
                objective: Objective::RetryBudget {
                    max_attempts_per_session: 2.0,
                },
                window_ms: 1_000,
                burn_windows: 1,
            },
        ];
        let mut m = SloMonitor::new(specs);
        for i in 0..4u64 {
            m.on_session(None, 100 + i, None, i % 2 == 0, 5);
        }
        m.finish(None, 1_000);
        let names: Vec<&str> = m.alerts().iter().map(|a| a.slo).collect();
        assert_eq!(names, vec!["fail", "retries"]);
        assert_eq!(m.alerts()[0].observed, 0.5);
        assert_eq!(m.alerts()[1].observed, 5.0);
    }

    #[test]
    fn alerts_emit_counters_and_dump_the_flight_recorder_once() {
        let rec = Recorder::new();
        let tracer = Tracer::new();
        rec.set_tracer(tracer.clone());
        rec.set_sim_time_us(0);
        // Put something in the flight ring so the dump is non-trivial.
        tracer.resume(0);
        tracer.span_start(1, "session", 1, 0);
        tracer.span_end(2, "session", 1, 0, 0.001, false, 0);
        tracer.suspend();

        let mut m = SloMonitor::new(vec![latency_slo(1_000, 1, 100.0)]);
        m.on_session(Some(&rec), 500, Some(900.0), false, 1);
        m.on_session(Some(&rec), 1_500, Some(900.0), false, 1);
        m.finish(Some(&rec), 2_000);
        // One alert when the streak first reaches burn_windows; the streak
        // continuing does not re-alert, but every burning window counts.
        assert_eq!(m.alerts().len(), 1);

        let snap = rec.snapshot();
        assert_eq!(snap.counter("slo.window.burning{slo=lat-p99}"), 2);
        assert_eq!(snap.counter("slo.alert{slo=lat-p99}"), 1);
        let dump = tracer.take_flight_dump().expect("first alert dumps");
        assert_eq!(dump.reason, "slo_burn:lat-p99");
        assert!(!dump.events.is_empty());
    }

    #[test]
    fn default_fleet_slos_are_well_formed() {
        let specs = default_fleet_slos();
        assert_eq!(specs.len(), 3);
        let mut m = SloMonitor::new(specs);
        assert!(!m.is_empty());
        m.on_session(None, 10, Some(50.0), false, 1);
        assert!(m.finish(None, 10_000).is_empty(), "healthy run: no alerts");
    }
}
