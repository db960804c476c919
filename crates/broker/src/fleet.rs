//! [`FleetSpec`]: the single description of a broker run.
//!
//! `Broker::drive(&FleetSpec)` is the one entry point for driving a
//! fleet of sessions. A `FleetSpec` bundles everything a run needs: the
//! session specs, an optional [`FaultPlan`], SLO objectives, the
//! outcome-log retention policy, an optional fleet-window cadence, and
//! the explain and journal channels.

use nod_obs::{RetentionPolicy, SloSpec};

use crate::broker::SessionSpec;
use crate::fault::FaultPlan;
use crate::journal::Journal;

/// How much of the chronological outcome log a run keeps.
///
/// The outcome log is the broker's replay unit, but at 10⁶ sessions the
/// full log is tens of MB even packed; most fleet-scale callers only need the
/// aggregate report or the tumbling [`FleetWindow`](crate::FleetWindow)
/// rows, both of which fold the log streamingly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventRetention {
    /// Keep every [`OutcomeEvent`](crate::OutcomeEvent) (the default —
    /// preserves the byte-for-byte replay log).
    #[default]
    Full,
    /// Fold events into [`FleetWindow`](crate::FleetWindow) rows as they
    /// happen and drop the raw log
    /// ([`BrokerReport::events`](crate::BrokerReport) comes back empty).
    WindowsOnly,
    /// Keep only the aggregate counts, latency histogram and per-session
    /// results; no raw log, no windows.
    CountsOnly,
}

/// Everything one broker run needs, built fluently:
///
/// ```ignore
/// let report = broker.drive(
///     &FleetSpec::new(&specs)
///         .faults(&plan)
///         .slos(default_fleet_slos())
///         .windows(1_000),
/// );
/// ```
#[derive(Debug, Clone)]
pub struct FleetSpec<'a> {
    pub(crate) sessions: &'a [SessionSpec<'a>],
    pub(crate) faults: Option<&'a FaultPlan>,
    pub(crate) slos: Vec<SloSpec>,
    pub(crate) retention: EventRetention,
    pub(crate) window_ms: u64,
    pub(crate) explain: Option<RetentionPolicy>,
    pub(crate) journal: Option<&'a Journal>,
}

impl<'a> FleetSpec<'a> {
    /// A fleet over `sessions` with defaults: no faults, no SLOs, full
    /// event retention, no windows.
    pub fn new(sessions: &'a [SessionSpec<'a>]) -> Self {
        FleetSpec {
            sessions,
            faults: None,
            slos: Vec::new(),
            retention: EventRetention::Full,
            window_ms: 0,
            explain: None,
            journal: None,
        }
    }

    /// Inject `plan`'s fault windows over the run.
    pub fn faults(mut self, plan: &'a FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    // Inert: kept only because `benchmark/` calls it and is frozen in this
    // PR; delete together with the `fleet_sharded` workload in the next
    // benchmark PR.
    #[doc(hidden)]
    pub fn workers(self, _workers: usize) -> Self {
        self
    }

    /// Monitor `slos` on the virtual clock: every terminal session feeds
    /// an [`SloMonitor`](nod_obs::SloMonitor), burning windows and alerts
    /// land in the recorder (`slo.window.burning`, `slo.alert`), the first
    /// alert dumps the flight recorder, and every alert is returned in
    /// [`BrokerReport::slo_alerts`](crate::BrokerReport).
    pub fn slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// Choose how much of the outcome log the report retains.
    pub fn retention(mut self, retention: EventRetention) -> Self {
        self.retention = retention;
        self
    }

    /// Fold the run into tumbling [`FleetWindow`](crate::FleetWindow)
    /// rows of `window_ms` (0 disables;
    /// [`EventRetention::WindowsOnly`] defaults to 1000 ms if unset).
    pub fn windows(mut self, window_ms: u64) -> Self {
        self.window_ms = window_ms;
        self
    }

    /// Collect decision provenance: every negotiation records its live
    /// facts, the full capacity ledger is kept, and per-session
    /// explanations are tail-retained under `policy` — 100% of failures,
    /// the top-k slowest, and a seeded head sample, exactly like trace
    /// retention; the retained sessions' attempts are completed into full
    /// [`DecisionLog`](nod_qosneg::DecisionLog)s when the run ends. The
    /// retained set (and the serialized artifact) replays byte for byte
    /// with the outcome log.
    pub fn explain(mut self, policy: RetentionPolicy) -> Self {
        self.explain = Some(policy);
        self
    }

    /// Journal every session transition into `journal` as it happens —
    /// the write-ahead log [`Broker::recover`](crate::Broker::recover)
    /// replays after a crash. The journal must be fresh (or freshly
    /// [`open`](Journal::open)ed for recovery); snapshot cadence and
    /// compaction come from its [`JournalConfig`](crate::JournalConfig).
    pub fn journal(mut self, journal: &'a Journal) -> Self {
        self.journal = Some(journal);
        self
    }

    /// The effective window cadence: the explicit one, or 1 s when the
    /// retention policy keeps nothing but windows.
    pub(crate) fn effective_window_ms(&self) -> u64 {
        if self.window_ms == 0 && self.retention == EventRetention::WindowsOnly {
            1_000
        } else {
            self.window_ms
        }
    }
}
