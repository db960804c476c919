//! The concurrent negotiation broker.
//!
//! [`Broker::drive`] is the engine: it drives a [`FleetSpec`]'s sessions
//! against one shared [`ServerFarm`](nod_cmfs::ServerFarm) +
//! [`Network`](nod_netsim::Network) on a deterministic virtual-time event
//! loop — arrivals, jittered retries of FAILEDTRYLATER refusals,
//! departures that release held resources, and [`FaultPlan`] window
//! edges. Session `i`'s RNG is the `i`-th split of the config seed's
//! stream, derived when it first arrives, and live session state sits in
//! a recycled [`Slab`](crate::Slab) arena, so memory tracks the *peak concurrent* session count while the
//! same seed, specs and fault plan replay the identical [`OutcomeEvent`]
//! sequence bit for bit.
//!
//! Every attempt, retries included, runs negotiation steps 1–4
//! ([`prepare`]) and then the step-5 commit walk ([`commit_prepared`])
//! back to back on the one event loop, in exact event order. `prepare`
//! reads only the catalog and static topology and scores the whole offer
//! product as plain data; the commit walk — the only part that touches
//! live farm/network capacity — orders that list as far as it gets, tries
//! offers by reference and materializes the one that commits. Under
//! contention most walks refuse every offer, so the walk asks each
//! question once: each prefix of chosen variants is judged once per walk
//! against the capacity the walk started with, and a refused prefix
//! refuses every later offer sharing it with the identical reason and
//! shortfall. Nothing else runs while a walk does; a success always
//! performs the real reservations, so the memo can never over-commit or
//! leak. The outcome log, the refusal diagnostics and the explain rows are
//! what a walk that re-asked every offer would have produced
//! (`tests/broker_contention.rs` pins one overloaded seed).
//! [`Session::submit`] is the same `prepare` and the same walk under one
//! `negotiate` span.
//!
//! With [`FleetSpec::explain`] set, every attempt records its live facts
//! (status, chosen rank, refusals with their shortfalls); the broker keeps
//! the full capacity ledger (who held which streams, from when to when)
//! and tail-retains per-session explanations under the same policy trace
//! retention uses; only the retained sessions' attempts are completed into
//! full [`DecisionLog`](nod_qosneg::DecisionLog)s, when the run ends
//! ([`explain_attempts`]), so [`BrokerReport::explains`] — and any
//! `--explain-out` artifact written from it — replays byte for byte with
//! the outcome log.

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, StreamRequirement};
use nod_mmdoc::{DocumentId, ServerId, VariantId};
use nod_obs::{
    interned_key, Counter, Histogram, HistogramSnapshot, Recorder, SloAlert, SloMonitor, SloSpec,
    Span, TailKeeper, Tracer, ValueHistogram,
};
use nod_qosneg::classify::ScoredOffer;
use nod_qosneg::explain::{
    AttemptExplain, DecisionLog, ExplainData, LedgerRow, SessionExplain, Settlement, StreamRow,
};
use nod_qosneg::mapping::charged_bit_rate;
use nod_qosneg::negotiate::{
    commit_prepared, explain_attempts, prepare, record_outcome, CommitFailure, NegotiationContext,
    Prepared, SessionReservation,
};
use nod_qosneg::{NegotiationStatus, QosError, RetryPolicy, Session, UserProfile};
use nod_simcore::{EventQueue, SimTime, StreamRng};

use crate::audit::CapacitySnapshot;
use crate::fault::{Fault, FaultPlan};
use crate::fleet::{EventRetention, FleetSpec};
use crate::journal::{
    HeaderRecord, Journal, JournalError, ParsedJournal, SnapEvent, SnapHold, SnapResult,
    SnapSession, SnapshotState, SpecHasher,
};
use crate::slab::Slab;
use crate::windows::{FleetWindow, WindowAccumulator};

/// Broker-level policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// Retry policy applied to FAILEDTRYLATER refusals.
    pub retry: RetryPolicy,
    /// Accept a FAILEDWITHOFFER (degraded but reserved) outcome? When
    /// `false` the broker releases the degraded reservation and counts
    /// the session rejected.
    pub accept_degraded: bool,
    /// Session hold time when neither the spec nor the document supplies
    /// one, ms.
    pub default_hold_ms: u64,
    /// Seed for the per-session RNG family (backoff jitter).
    pub seed: u64,
    /// Upper bound of the user's decision window (the paper's
    /// *choicePeriod*), ms. When non-zero, an admitted session keeps its
    /// reservation pending while the simulated user deliberates for a
    /// per-session random `1..=choice_period_ms`, then confirms
    /// ([`OutcomeKind::Confirmed`]) and starts its hold. Zero (the
    /// default) confirms instantly, preserving the original event logs.
    pub choice_period_ms: u64,
    /// Chaos hook: at this instant, deliberately reserve (and never
    /// release) one stream on the first server, so the end-of-run
    /// capacity audit must fire. Exercises the flight-recorder dump path;
    /// never set outside tests.
    pub inject_leak_at_ms: Option<u64>,
}

impl BrokerConfig {
    /// Plausible interactive defaults: era retry policy, degraded offers
    /// accepted, 30 s default hold.
    pub fn era_default() -> Self {
        BrokerConfig {
            retry: RetryPolicy::era_default(),
            accept_degraded: true,
            default_hold_ms: 30_000,
            seed: 0x6272_6f6b,
            choice_period_ms: 0,
            inject_leak_at_ms: None,
        }
    }
}

/// One session the broker must place: who, what, when, for how long.
#[derive(Debug, Clone, Copy)]
pub struct SessionSpec<'a> {
    /// The requesting client machine.
    pub client: &'a ClientMachine,
    /// The requested document.
    pub document: DocumentId,
    /// The user's profile.
    pub profile: &'a UserProfile,
    /// Arrival instant on the broker clock, ms.
    pub arrival_ms: u64,
    /// How long an admitted session holds its resources, ms. `None`
    /// falls back to the document's total duration, then to
    /// [`BrokerConfig::default_hold_ms`].
    pub hold_ms: Option<u64>,
}

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFate {
    /// Resources committed (possibly below the requested QoS).
    Admitted {
        /// `true` when admission came from a FAILEDWITHOFFER outcome.
        degraded: bool,
    },
    /// FAILEDTRYLATER every time until the retry budget or deadline ran
    /// out — the contention casualty the paper's status is named for.
    Starved,
    /// A terminal refusal (FAILEDWITHOUTOFFER, FAILEDWITHLOCALOFFER, a
    /// non-transient FAILEDTRYLATER, or a declined degraded offer).
    Rejected,
    /// The negotiation itself failed (unknown document, invalid request).
    Errored,
}

/// Per-session summary, indexed like the input spec slice.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionResult {
    /// Index into the spec slice.
    pub session: usize,
    /// Terminal fate.
    pub fate: SessionFate,
    /// Attempts made (1 = admitted or refused on arrival).
    pub attempts: u32,
    /// Admission instant, ms — `None` unless admitted.
    pub admitted_at_ms: Option<u64>,
}

/// One entry in the chronological outcome log — the replay unit: two
/// runs with identical seed/specs/faults produce identical event vectors.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeEvent {
    /// Broker virtual time, ms.
    pub at_ms: u64,
    /// Session index (`usize::MAX` for fault edges).
    pub session: usize,
    /// What happened.
    pub kind: OutcomeKind,
}

/// The event kinds of the outcome log.
#[derive(Debug, Clone, PartialEq)]
pub enum OutcomeKind {
    /// Session admitted on attempt `attempt`.
    Admitted {
        /// `true` for a FAILEDWITHOFFER admission.
        degraded: bool,
        /// 1-based attempt number.
        attempt: u32,
    },
    /// FAILEDTRYLATER; retry scheduled.
    RetryScheduled {
        /// When the retry fires, ms.
        at_ms: u64,
        /// The attempt that was just refused.
        attempt: u32,
    },
    /// Retry budget or deadline exhausted.
    Starved {
        /// Total attempts made.
        attempts: u32,
    },
    /// Terminal refusal.
    Rejected {
        /// The status that ended the session.
        status: NegotiationStatus,
    },
    /// Negotiation error (stringified [`nod_qosneg::QosError`]).
    Errored {
        /// The error display text.
        error: String,
    },
    /// The user confirmed a pending admission after the choicePeriod
    /// window ([`BrokerConfig::choice_period_ms`]).
    Confirmed,
    /// An admitted session released its resources.
    Departed,
    /// A fault window started or ended; target state recomputed.
    FaultEdge,
}

/// Aggregate result of a broker run.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerReport {
    /// Per-session results, in spec order.
    pub results: Vec<SessionResult>,
    /// Chronological outcome log (the replay unit). Empty when the
    /// [`FleetSpec`]'s retention policy drops it
    /// ([`EventRetention::WindowsOnly`] / [`EventRetention::CountsOnly`]).
    pub events: Vec<OutcomeEvent>,
    /// Tumbling fleet-window rows ([`FleetSpec::windows`]); empty when no
    /// window cadence was configured.
    pub windows: Vec<FleetWindow>,
    /// Sessions admitted (degraded included).
    pub admitted: usize,
    /// Admitted sessions that took a degraded offer.
    pub degraded: usize,
    /// Sessions starved out by contention.
    pub starved: usize,
    /// Sessions terminally refused.
    pub rejected: usize,
    /// Sessions that errored.
    pub errored: usize,
    /// Retries performed.
    pub retries: u64,
    /// Total virtual time spent backing off, ms.
    pub backoff_ms_total: u64,
    /// Fault windows whose start edge fired.
    pub faults_injected: u64,
    /// Streams (server or network side) still held after the run drained
    /// — must be 0; see [`CapacitySnapshot`].
    pub leaked_streams: usize,
    /// `admitted / sessions`.
    pub admission_ratio: f64,
    /// High-water mark of concurrently in-flight sessions — the slab
    /// arena's occupancy peak, which is what bounds live memory at fleet
    /// scale.
    pub peak_live_sessions: usize,
    /// End-to-end session latency (arrival → terminal event), ms. Exact
    /// moments; log-bucketed p50/p90/p95/p99 (≤1% relative error at any
    /// session count, and mergeable across runs).
    pub latency: HistogramSnapshot,
    /// SLO burn alerts fired during the run ([`FleetSpec::slos`] /
    /// [`Broker::with_slos`]); empty when no objectives were configured.
    pub slo_alerts: Vec<SloAlert>,
    /// Decision provenance ([`FleetSpec::explain`]): the capacity ledger,
    /// the tail-retained session explanations and the retention totals.
    /// `None` when provenance was not requested.
    pub explains: Option<ExplainData>,
    /// The first I/O error the attached journal ([`FleetSpec::journal`])
    /// hit. The run itself is unaffected; the journal stopped writing its
    /// file at that point, so it cannot be recovered from. `None` when the
    /// journal wrote everything, or when none was attached.
    pub journal_error: Option<String>,
}

/// What [`Broker::recover`] did: the resumed run's report plus where the
/// journal handed over to live execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The resumed run's report. `results` and the aggregate counts
    /// cover the **whole** run (pre-crash fates restored from the
    /// journal); `events`, `windows`, `latency` and SLO burn cover only
    /// the portion after the last snapshot.
    pub report: BrokerReport,
    /// Journaled post-snapshot events the engine regenerated and
    /// verified byte-for-byte before going live.
    pub replayed_events: u64,
    /// Tick of the snapshot recovery rebuilt from; `None` when the
    /// journal held no snapshot and the whole run was replayed.
    pub resumed_at_ms: Option<u64>,
    /// Global outcome-log index of the first event in `report.events`:
    /// the byte-identity contract is
    /// `full.events[suffix_starts_at_event..] == report.events` against
    /// an uninterrupted same-seed run.
    pub suffix_starts_at_event: u64,
    /// Bytes discarded off the journal's end as a torn (mid-record)
    /// crash write.
    pub torn_bytes: usize,
}

/// Journal replay state during recovery: the journaled post-snapshot
/// events the engine must regenerate — each checked byte-equal and
/// suppressed from the new report — before the run goes live.
struct Replay {
    tail: Vec<OutcomeEvent>,
    cursor: usize,
    /// Global outcome-log index of `tail[0]`.
    events_before: u64,
}

impl Replay {
    /// The error for a mismatch at the cursor.
    fn diverged(&self) -> JournalError {
        JournalError::ReplayDiverged {
            event: self.events_before + self.cursor as u64,
        }
    }
}

/// Runtime-scheduled events. Fault edges and arrivals are known up front
/// and merged in from sorted lists instead of occupying heap slots.
enum Ev {
    Retry(usize),
    Confirm(usize),
    Departure(usize),
    InjectLeak,
}

/// Live state of an in-flight session — slab-resident from first arrival
/// until its resources drain.
struct LiveSession<'a> {
    attempts: u32,
    rng: StreamRng,
    reservation: Option<SessionReservation>,
    /// Degraded flag of an admission awaiting user confirmation.
    pending_admit: Option<bool>,
    /// Latency recorded and session span closed.
    closed: bool,
    /// Open trace spans (only when a tracer is attached).
    session_span: Option<Span<'a>>,
    backoff_span: Option<Span<'a>>,
    confirm_span: Option<Span<'a>>,
    /// Accumulating decision provenance ([`FleetSpec::explain`]): each
    /// attempt's live facts, completed only if the session is kept.
    explain: Option<SessionAcc>,
    /// Re-reservation rows for the held streams, captured at commit time
    /// — populated only when a journal is attached (empty `Vec`s never
    /// allocate, keeping the journal-disabled path allocation-free).
    holds: Vec<SnapHold>,
}

/// Per-session provenance accumulator, inline on the live session (an
/// empty vec and a `None`, so the disabled path costs no allocation).
#[derive(Default)]
struct SessionAcc {
    attempts: Vec<AttemptExplain>,
    settlement: Option<Settlement>,
}

/// Classify a FAILEDTRYLATER's commit failures by what the session will
/// be waiting *for* — the label wait-time attribution splits backoff by.
fn refusal_reason(failures: &[(usize, CommitFailure)]) -> &'static str {
    let mut server = false;
    let mut network = false;
    for (_, f) in failures {
        match f {
            CommitFailure::Server { .. } => server = true,
            CommitFailure::Network { .. } | CommitFailure::PathQos { .. } => network = true,
            CommitFailure::DecodeBudget | CommitFailure::Startup { .. } => {}
        }
    }
    match (server, network) {
        (true, false) => "admission",
        (false, true) => "network",
        (true, true) => "mixed",
        (false, false) => "other",
    }
}

/// Every fate with its label, indexed by [`fate_index`] — which is also
/// how a journal snapshot encodes a finished session's fate.
const FATES: [(SessionFate, &str); 5] = [
    (SessionFate::Admitted { degraded: false }, "admitted"),
    (
        SessionFate::Admitted { degraded: true },
        "admitted_degraded",
    ),
    (SessionFate::Starved, "starved"),
    (SessionFate::Rejected, "rejected"),
    (SessionFate::Errored, "errored"),
];

fn fate_index(fate: SessionFate) -> usize {
    match fate {
        SessionFate::Admitted { degraded: false } => 0,
        SessionFate::Admitted { degraded: true } => 1,
        SessionFate::Starved => 2,
        SessionFate::Rejected => 3,
        SessionFate::Errored => 4,
    }
}

/// The broker's per-session metric handles and trace keys, resolved when
/// the broker is built.
struct Metrics {
    journal_records: Counter,
    session_ms: Histogram,
    /// `session.outcome{fate=…}`, indexed by [`fate_index`].
    session_outcome: [&'static str; 5],
}

impl Metrics {
    fn resolve(rec: &Recorder) -> Metrics {
        Metrics {
            journal_records: rec.counter_handle("broker.journal.records", &[]),
            session_ms: rec.histogram_handle("broker.session_ms", &[]),
            session_outcome: FATES
                .map(|(_, fate)| interned_key("session.outcome", &[("fate", fate)])),
        }
    }
}

/// ms → µs on the virtual clock. A virtual time near `u64::MAX` ms has no
/// µs representation; silently clamping would collapse distinct later
/// instants onto one tick and reorder events, so debug builds panic at
/// the overflow edge while release builds keep the historical saturating
/// clamp.
fn ms_to_us(ms: u64) -> u64 {
    debug_assert!(
        ms <= u64::MAX / 1_000,
        "virtual time {ms} ms overflows the microsecond clock"
    );
    ms.saturating_mul(1_000)
}

/// The broker: a [`Session`] facade plus contention policy.
pub struct Broker<'a> {
    session: Session<'a>,
    config: BrokerConfig,
    recorder: Option<&'a Recorder>,
    metrics: Option<Metrics>,
    slos: Vec<SloSpec>,
}

impl<'a> Broker<'a> {
    /// A broker over shared system state. The context's recorder (when
    /// present) also receives the broker's own counters and gauges.
    pub fn new(ctx: NegotiationContext<'a>, config: BrokerConfig) -> Self {
        Broker {
            recorder: ctx.recorder,
            metrics: ctx.recorder.map(Metrics::resolve),
            session: Session::new(ctx),
            config,
            slos: Vec::new(),
        }
    }

    /// Monitor `slos` during [`Broker::drive`] (unless the
    /// [`FleetSpec`] carries its own): every terminal session feeds an
    /// [`SloMonitor`] on the virtual clock, burning windows and alerts
    /// land in the recorder (`slo.window.burning`, `slo.alert`), the
    /// first alert dumps the flight recorder, and every alert is
    /// returned in [`BrokerReport::slo_alerts`].
    pub fn with_slos(mut self, slos: Vec<SloSpec>) -> Self {
        self.slos = slos;
        self
    }

    /// The underlying negotiation session facade.
    pub fn session(&self) -> &Session<'a> {
        &self.session
    }

    fn counter(&self, name: &str, delta: u64) {
        if let Some(rec) = self.recorder {
            rec.counter(name, delta);
        }
    }

    fn hold_ms(&self, spec: &SessionSpec<'_>) -> u64 {
        spec.hold_ms.unwrap_or_else(|| {
            self.session
                .context()
                .catalog
                .document(spec.document)
                .and_then(|d| d.total_duration_ms().ok())
                .unwrap_or(self.config.default_hold_ms)
        })
    }

    /// Drive every session of `fleet` to a terminal fate on the virtual
    /// clock and return the full [`BrokerReport`].
    ///
    /// Determinism contract: the outcome log replays bit for bit for a
    /// given (seed, specs, faults) triple against the same pristine
    /// world — every event is handled on this one loop in (time,
    /// schedule) order, and each session draws jitter from its own RNG,
    /// split from the seed by session index. An attached
    /// [`Recorder`](nod_obs::Recorder)'s metric snapshot replays with it.
    pub fn drive(&self, fleet: &FleetSpec<'_>) -> BrokerReport {
        if let Some(journal) = fleet.journal {
            journal.begin(HeaderRecord {
                seed: self.config.seed,
                sessions: fleet.sessions.len() as u64,
                spec_hash: self.spec_hash(fleet),
            });
        }
        self.drive_from(fleet, None)
            .unwrap_or_else(|e| unreachable!("a fresh drive replays no journal: {e}"))
    }

    /// The fleet-identity hash a journal header carries: seed, per-spec
    /// arrival/client/document/hold, the broker config's policy numbers
    /// and the fault plan. Recovery refuses a journal whose hash differs
    /// — a deterministic replay against a different fleet is garbage.
    fn spec_hash(&self, fleet: &FleetSpec<'_>) -> u64 {
        let mut h = SpecHasher::new();
        h.u64(self.config.seed);
        h.u64(fleet.sessions.len() as u64);
        for s in fleet.sessions {
            h.u64(s.arrival_ms);
            h.u64(s.client.id.0);
            h.u64(s.document.0);
            h.u64(s.hold_ms.unwrap_or(u64::MAX));
        }
        let r = &self.config.retry;
        h.u64(r.max_attempts as u64);
        h.u64(r.base_backoff_ms);
        h.u64(r.max_backoff_ms);
        h.f64(r.jitter);
        h.u64(r.deadline_ms.is_some() as u64);
        h.u64(r.deadline_ms.unwrap_or(0));
        h.u64(self.config.accept_degraded as u64);
        h.u64(self.config.default_hold_ms);
        h.u64(self.config.choice_period_ms);
        h.u64(self.config.inject_leak_at_ms.is_some() as u64);
        h.u64(self.config.inject_leak_at_ms.unwrap_or(0));
        if let Some(plan) = fleet.faults {
            for w in &plan.windows {
                h.u64(w.from_ms);
                h.u64(w.until_ms);
                match w.fault {
                    Fault::ServerCrash { server } => {
                        h.u64(0);
                        h.u64(server.0);
                    }
                    Fault::ServerSlowAdmission { server, factor } => {
                        h.u64(1);
                        h.u64(server.0);
                        h.f64(factor);
                    }
                    Fault::LinkBlackout { link } => {
                        h.u64(2);
                        h.u64(link.0);
                    }
                    Fault::LinkCapacityDrop { link, health } => {
                        h.u64(3);
                        h.u64(link.0);
                        h.f64(health);
                    }
                }
            }
        }
        h.finish()
    }

    /// Rebuild a crashed run from the journal attached to `fleet` and
    /// resume driving it to completion.
    ///
    /// The fleet must be identical to the one the journal was written
    /// under — same specs, same seed/config, same fault plan, and a
    /// **fresh** (pristine) farm + network exactly as at the original
    /// run's start; a mismatch is refused via the header's spec hash. A
    /// torn tail (a record cut mid-write by the crash) is discarded.
    ///
    /// Recovery rebuilds the engine at the journal's last complete
    /// snapshot — slab, held reservations, capacity ledgers, pending
    /// confirmations/choice-period timers and retry queues — then
    /// re-drives: every regenerated outcome is checked byte-equal to
    /// the journaled suffix and suppressed, after which the run is live.
    /// The returned report's `events` therefore hold only the outcomes
    /// after the journal's end; see [`RecoveryReport`] for where they
    /// sit in the global log.
    ///
    /// The spec hash does not cover the farm or the network, so a world
    /// that differs from the original is caught here instead: a held
    /// stream that no longer fits is [`JournalError::RestoreFailed`], a
    /// regenerated outcome that differs from the journal is
    /// [`JournalError::ReplayDiverged`]. Either way every reservation the
    /// resumed run made is released before the error is returned. A
    /// journal that fails to write during the resumed run is
    /// [`JournalError::Io`].
    pub fn recover(&self, fleet: &FleetSpec<'_>) -> Result<RecoveryReport, JournalError> {
        let journal = fleet.journal.ok_or(JournalError::NoJournal)?;
        let parsed = journal.recover_state(HeaderRecord {
            seed: self.config.seed,
            sessions: fleet.sessions.len() as u64,
            spec_hash: self.spec_hash(fleet),
        })?;
        let replayed_events = parsed.tail.len() as u64;
        let suffix_starts_at_event = parsed.events_before + replayed_events;
        let resumed_at_ms = parsed.snapshot.as_ref().map(|s| s.at_ms);
        let torn_bytes = parsed.torn_bytes;
        let span = self.recorder.map(|r| r.span("broker.recover"));
        if let Some(rec) = self.recorder {
            rec.counter("broker.recovery.replayed_events", replayed_events);
            if torn_bytes > 0 {
                rec.counter("broker.recovery.torn_bytes", torn_bytes as u64);
            }
        }
        let report = self.drive_from(fleet, Some(parsed));
        if let Some(span) = span {
            span.end();
        }
        let report = report?;
        journal.sync()?;
        Ok(RecoveryReport {
            report,
            replayed_events,
            resumed_at_ms,
            suffix_starts_at_event,
            torn_bytes,
        })
    }

    /// The engine behind [`Broker::drive`] (fresh) and [`Broker::recover`]
    /// (resumed from a snapshot + replay tail): one virtual-time event
    /// loop over three merged, individually-sorted event streams — fault
    /// edges, arrivals, and runtime-scheduled events — processing each
    /// tick as a batch. Only a resumed run can fail.
    fn drive_from(
        &self,
        fleet: &FleetSpec<'_>,
        resume: Option<ParsedJournal>,
    ) -> Result<BrokerReport, JournalError> {
        let specs = fleet.sessions;
        let ctx = self.session.context();
        // Captured before a resumed run re-reserves its held streams, so
        // the end-of-run audit still checks against the pristine world.
        let before = CapacitySnapshot::capture(ctx.farm, ctx.network);

        let none_plan;
        let faults = match fleet.faults {
            Some(plan) => plan,
            None => {
                none_plan = FaultPlan::none();
                &none_plan
            }
        };
        let fault_edges = faults.edges_ms();
        // Arrival consumption order: spec indices by (arrival_ms, index)
        // — exactly how the legacy single queue broke ties (the sort is
        // stable).
        let mut order: Vec<u32> = (0..specs.len() as u32).collect();
        order.sort_by_key(|&i| specs[i as usize].arrival_ms);
        let arrival = |ai: usize| order.get(ai).map(|&i| (i, specs[i as usize].arrival_ms));

        let (snap, replay) = match resume {
            Some(r) => (
                r.snapshot,
                (!r.tail.is_empty()).then_some(Replay {
                    tail: r.tail,
                    cursor: 0,
                    events_before: r.events_before,
                }),
            ),
            None => (None, None),
        };

        let mut dynq: EventQueue<Ev> = EventQueue::new();
        if snap.is_none() {
            if let Some(at_ms) = self.config.inject_leak_at_ms {
                // Scheduled first: the lowest sequence number in the
                // dynamic queue, so at its tick it pops ahead of
                // same-tick retries — the same order the legacy single
                // queue produced. On a snapshot resume the pending
                // InjectLeak (if any) lives in the snapshot's queue.
                dynq.schedule(SimTime::from_millis(at_ms), Ev::InjectLeak);
            }
        }

        let slos = if fleet.slos.is_empty() {
            self.slos.clone()
        } else {
            fleet.slos.clone()
        };
        let window_ms = fleet.effective_window_ms();
        let tracer = self.recorder.and_then(Recorder::tracer);
        let mut state = DriveLoop {
            broker: self,
            specs,
            tracer,
            retention: fleet.retention,
            dynq,
            master: StreamRng::new(self.config.seed),
            live: Slab::new(),
            slots: vec![u32::MAX; specs.len()],
            results: vec![None; specs.len()],
            peak_live: 0,
            events: Vec::new(),
            win_acc: (window_ms > 0).then(|| WindowAccumulator::new(window_ms)),
            latency: ValueHistogram::new(),
            slo: SloMonitor::new(slos),
            retries: 0,
            backoff_ms_total: 0,
            faults_injected: 0,
            keeper: fleet.explain.map(TailKeeper::new),
            ledger: Vec::new(),
            ledger_ix: match fleet.explain {
                Some(_) => vec![u32::MAX; specs.len()],
                None => Vec::new(),
            },
            spare_attempts: Vec::new(),
            spare_log: None,
            journal: fleet.journal,
            snapshot_due: false,
            replay,
            failed: None,
        };

        let mut fi = 0usize; // next fault edge
        let mut ai = 0usize; // next arrival (index into `order`)
        if let Some(s) = &snap {
            // Fault edges and arrivals at or before the snapshot tick were
            // fully processed before the snapshot was cut (the edges are
            // folded into the restored fault state); the loop resumes
            // past them.
            fi = fault_edges.partition_point(|&e| e <= s.at_ms);
            ai = order.partition_point(|&i| specs[i as usize].arrival_ms <= s.at_ms);
            state.failed = state.restore(s, faults).err();
        }
        let mut end_ms = 0u64;
        // A failed recovery stops at the end of the tick it failed in.
        while state.failed.is_none() {
            // The next tick: the earliest head of the three streams.
            let mut t = u64::MAX;
            if let Some(&edge) = fault_edges.get(fi) {
                t = t.min(edge);
            }
            if let Some((_, at_ms)) = arrival(ai) {
                t = t.min(at_ms);
            }
            if let Some(at) = state.dynq.peek_time() {
                t = t.min(at.as_millis());
            }
            if t == u64::MAX {
                break;
            }
            end_ms = end_ms.max(t);
            if let Some(rec) = self.recorder {
                // One clock store per tick — every event in the batch
                // shares the instant.
                rec.set_sim_time_us(ms_to_us(t));
            }
            // Tick order replicates the legacy single queue's tie-break:
            // fault edges (scheduled first), then arrivals in spec order,
            // then runtime-scheduled events in schedule order. Handlers
            // only ever schedule strictly-future events, so the batch
            // bounds are stable.
            while fault_edges.get(fi) == Some(&t) {
                fi += 1;
                state.fault_edge(faults, t);
            }
            while let Some((i, at_ms)) = arrival(ai) {
                if at_ms != t {
                    break;
                }
                ai += 1;
                state.in_trace(i as usize, |s| s.attempt(i as usize, t));
            }
            while state.dynq.peek_time().map(SimTime::as_millis) == Some(t) {
                let (_, ev) = state.dynq.pop().expect("peeked event");
                match ev {
                    Ev::Retry(i) => state.in_trace(i, |s| s.attempt(i, t)),
                    Ev::Confirm(i) => state.in_trace(i, |s| s.confirm(i, t)),
                    Ev::Departure(i) => state.departure(i, t),
                    Ev::InjectLeak => state.inject_leak(),
                }
            }
            // A journal snapshot is cut at the tick boundary: every
            // event at `t` above is processed and journaled, every
            // pending event is strictly later — exactly the state
            // `restore` rebuilds.
            if state.snapshot_due {
                state.snapshot_due = false;
                state.write_snapshot(t);
            }
        }
        // Replay left over once the loop drains means the journal holds
        // more events than the resumed run produced.
        let failed = state.failed.take();
        if let Some(err) = failed.or_else(|| state.replay.as_ref().map(Replay::diverged)) {
            state.release_all(faults);
            return Err(err);
        }
        let journal_error = state.journal.and_then(|j| j.sync().err());
        if let Some(journal) = state.journal {
            if let Some(rec) = self.recorder {
                rec.gauge("broker.journal.bytes", journal.stats().bytes as f64);
            }
        }

        let after = CapacitySnapshot::capture(ctx.farm, ctx.network);
        let leaked_streams = before.leaked_streams(&after);
        if before != after {
            self.counter("broker.leaked_reservations", leaked_streams.max(1) as u64);
            // Dump the flight recorder *before* the assert so the last
            // trace events survive the panic.
            if let Some(t) = tracer {
                t.trigger_flight_dump("leaked_reservation_audit");
            }
            debug_assert_eq!(
                before, after,
                "broker run leaked reservations: {before:?} -> {after:?}"
            );
        }

        let results: Vec<SessionResult> = state
            .results
            .into_iter()
            .enumerate()
            .map(|(i, r)| {
                r.unwrap_or_else(|| unreachable!("session {i} never reached a terminal fate"))
            })
            .collect();
        let mut by_fate = [0usize; 5];
        for r in &results {
            by_fate[fate_index(r.fate)] += 1;
        }
        let [admitted_in_full, degraded, starved, rejected, errored] = by_fate;
        let admitted = admitted_in_full + degraded;
        let admission_ratio = if specs.is_empty() {
            0.0
        } else {
            admitted as f64 / specs.len() as f64
        };
        if let Some(rec) = self.recorder {
            rec.counter("broker.retries", state.retries);
            rec.counter("broker.backoff_ms", state.backoff_ms_total);
            rec.counter("broker.sessions.starved", starved as u64);
            rec.gauge("broker.admission_ratio", admission_ratio);
            rec.gauge("broker.peak_live_sessions", state.peak_live as f64);
        }
        let slo_alerts = state.slo.finish(self.recorder, end_ms).to_vec();
        let explains = state.keeper.map(|keeper| {
            let (items, stats) = keeper.drain();
            // Only the retained sessions' attempts are completed from their
            // live facts into full decision logs.
            let sessions = (items.into_iter())
                .map(|(_, mut s)| {
                    let spec = &specs[s.session as usize];
                    let logs = s.attempts.iter_mut().map(|a| &mut a.decisions);
                    explain_attempts(ctx, spec.client, spec.document, spec.profile, logs);
                    s
                })
                .collect();
            ExplainData {
                ledger: state.ledger,
                sessions,
                stats,
            }
        });
        Ok(BrokerReport {
            results,
            events: state.events,
            windows: state
                .win_acc
                .map(WindowAccumulator::finish)
                .unwrap_or_default(),
            admitted,
            degraded,
            starved,
            rejected,
            errored,
            retries: state.retries,
            backoff_ms_total: state.backoff_ms_total,
            faults_injected: state.faults_injected,
            leaked_streams,
            admission_ratio,
            peak_live_sessions: state.peak_live,
            latency: state.latency.snapshot(),
            slo_alerts,
            explains,
            journal_error: journal_error.map(|e| e.to_string()),
        })
    }
}

/// The event loop's mutable state, split out so handlers can borrow
/// disjoint fields (the slab entry and the event queue, say) at once.
struct DriveLoop<'e, 'a> {
    broker: &'e Broker<'a>,
    specs: &'e [SessionSpec<'e>],
    tracer: Option<&'a Tracer>,
    retention: EventRetention,
    dynq: EventQueue<Ev>,
    /// The seed's stream; session `i` draws from its `i`-th split, taken
    /// into the slab at first arrival. A resumed run's live sessions carry
    /// their RNG state in the snapshot instead.
    master: StreamRng,
    live: Slab<LiveSession<'a>>,
    /// Spec index → slab slot (`u32::MAX` when not in flight).
    slots: Vec<u32>,
    results: Vec<Option<SessionResult>>,
    peak_live: usize,
    events: Vec<OutcomeEvent>,
    win_acc: Option<WindowAccumulator>,
    latency: ValueHistogram,
    slo: SloMonitor,
    retries: u64,
    backoff_ms_total: u64,
    faults_injected: u64,
    /// Tail-retained session explanations ([`FleetSpec::explain`]).
    keeper: Option<TailKeeper<SessionExplain>>,
    /// Capacity ledger, one row per admission, in commit order.
    ledger: Vec<LedgerRow>,
    /// Spec index → ledger row (`u32::MAX` when never admitted), so the
    /// departure handler can stamp `depart_ms`. Empty unless explaining.
    ledger_ix: Vec<u32>,
    /// Emptied explain buffers of the last dropped session and of the last
    /// attempt, reused so explaining does not allocate them every time.
    spare_attempts: Vec<AttemptExplain>,
    spare_log: Option<Box<DecisionLog>>,
    /// The write-ahead journal ([`FleetSpec::journal`]), when attached.
    journal: Option<&'e Journal>,
    /// The journal's snapshot cadence fired; cut one at this tick's end.
    snapshot_due: bool,
    /// Journaled post-snapshot events still being replay-verified; `None`
    /// once the run is live.
    replay: Option<Replay>,
    /// Why a resumed run cannot continue ([`Broker::recover`]); once set,
    /// nothing more is recorded and the loop stops.
    failed: Option<JournalError>,
}

impl<'a> DriveLoop<'_, 'a> {
    /// Fold one outcome into the journal, the window accumulator and
    /// the log.
    fn record(&mut self, at_ms: u64, session: usize, kind: OutcomeKind) {
        if self.failed.is_some() {
            return;
        }
        // Recovery replay: the engine regenerates the journaled suffix.
        // Each regenerated outcome must match the journal exactly (the
        // determinism contract recovery rests on) and is suppressed — it
        // was already journaled, windowed and reported by the crashed
        // run. Past the journal's end the run is live again.
        if let Some(rp) = self.replay.as_mut() {
            let expect = &rp.tail[rp.cursor];
            if expect.at_ms != at_ms || expect.session != session || expect.kind != kind {
                self.failed = Some(rp.diverged());
                return;
            }
            rp.cursor += 1;
            if rp.cursor == rp.tail.len() {
                self.replay = None;
            }
            return;
        }
        if let Some(journal) = self.journal {
            if journal.append_event(at_ms, session, &kind) {
                self.snapshot_due = true;
            }
            if let (Some(rec), Some(m)) = (self.broker.recorder, &self.broker.metrics) {
                rec.add(m.journal_records, 1);
            }
        }
        if let Some(acc) = &mut self.win_acc {
            acc.push(at_ms, &kind);
        }
        if self.retention == EventRetention::Full {
            self.events.push(OutcomeEvent {
                at_ms,
                session,
                kind,
            });
        }
    }

    /// Rebuild the engine at a journal snapshot: finished results, the
    /// live slab (with every held stream re-reserved against the fresh
    /// world), pending events and counters. Re-reservation happens at
    /// nominal health — live holds passed a commit-time capacity check,
    /// so on the original pristine world they always fit; a world that
    /// refuses one is [`JournalError::RestoreFailed`] — and the fault state
    /// in force at the snapshot tick is applied afterwards. No fault edge
    /// lies strictly between the last edge ≤ tick and the tick itself,
    /// so reset-then-reapply recomputes exactly the state the crashed
    /// run held, even when a window closed on the snapshot tick.
    fn restore(&mut self, snap: &SnapshotState, faults: &FaultPlan) -> Result<(), JournalError> {
        let ctx = self.broker.session.context();
        for r in &snap.results {
            let i = r.session as usize;
            self.results[i] = Some(SessionResult {
                session: i,
                fate: FATES
                    .get(r.fate as usize)
                    .map_or(SessionFate::Errored, |&(f, _)| f),
                attempts: r.attempts,
                admitted_at_ms: (r.admitted_at_ms != u64::MAX).then_some(r.admitted_at_ms),
            });
        }
        for s in &snap.live {
            let i = s.session as usize;
            let slot = self.live.insert(LiveSession {
                attempts: s.attempts,
                rng: StreamRng::from_state_parts(s.rng.0, s.rng.1),
                reservation: s.reserved.then(|| SessionReservation {
                    servers: Vec::with_capacity(s.holds.len()),
                    network: Vec::new(),
                }),
                // 0 = none, 1 = pending admit, 2 = pending degraded admit.
                pending_admit: (s.pending_admit > 0).then_some(s.pending_admit > 1),
                closed: s.closed,
                session_span: None,
                backoff_span: None,
                confirm_span: None,
                explain: self.keeper.is_some().then(SessionAcc::default),
                holds: s.holds.clone(),
            });
            self.slots[i] = slot;
            // Re-reserve hold by hold into the slab-resident reservation,
            // so a refusal partway leaves everything made so far where
            // `release_all` finds it.
            let Some(res) = self
                .live
                .get_mut(slot)
                .and_then(|st| st.reservation.as_mut())
            else {
                continue;
            };
            for h in &s.holds {
                let server = ServerId(h.server);
                let rid = ctx.farm.try_reserve(server, h.req).map_err(|e| {
                    JournalError::RestoreFailed(format!("session {i} on {server}: {e:?}"))
                })?;
                res.servers.push((server, rid));
                if let Some(bps) = h.net_bps {
                    let client = self.specs[i].client.id;
                    let nid = ctx.network.try_reserve(client, server, bps).map_err(|e| {
                        JournalError::RestoreFailed(format!("session {i} path to {server}: {e:?}"))
                    })?;
                    res.network.push(nid);
                }
            }
        }
        faults.apply_state_at(ctx.farm, ctx.network, snap.at_ms);
        // Pending events, rescheduled in delivery order: fresh sequence
        // numbers assigned in `(at, seq)` order reproduce the same-tick
        // FIFO tie-break exactly.
        for e in &snap.dynq {
            let ev = match e.kind {
                0 => Ev::Retry(e.session as usize),
                1 => Ev::Confirm(e.session as usize),
                2 => Ev::Departure(e.session as usize),
                _ => Ev::InjectLeak,
            };
            self.dynq.schedule(SimTime::from_micros(e.at_us), ev);
        }
        self.peak_live = snap.peak_live as usize;
        self.retries = snap.retries;
        self.backoff_ms_total = snap.backoff_ms_total;
        self.faults_injected = snap.faults_injected;
        Ok(())
    }

    /// Abandon a failed recovery: lift the fault state and release every
    /// reservation the resumed run holds, leaving the world as
    /// [`Broker::recover`] found it.
    fn release_all(&mut self, faults: &FaultPlan) {
        let broker = self.broker;
        let ctx = broker.session.context();
        faults.apply_state_at(ctx.farm, ctx.network, u64::MAX);
        for &slot in &self.slots {
            if let Some(res) = self.live.get_mut(slot).and_then(|st| st.reservation.take()) {
                broker.session.release(&res);
            }
        }
    }

    /// Cut a checkpoint at the end of tick `at_ms` and append it to the
    /// journal (compacting history past it, per its config).
    fn write_snapshot(&mut self, at_ms: u64) {
        let Some(journal) = self.journal else { return };
        let results = self
            .results
            .iter()
            .flatten()
            .map(|r| SnapResult {
                session: r.session as u64,
                fate: fate_index(r.fate) as u8,
                attempts: r.attempts,
                admitted_at_ms: r.admitted_at_ms.unwrap_or(u64::MAX),
            })
            .collect();
        let mut live = Vec::with_capacity(self.live.len());
        for i in 0..self.slots.len() {
            if self.slots[i] == u32::MAX {
                continue;
            }
            let st = self.session(i);
            live.push(SnapSession {
                session: i as u64,
                attempts: st.attempts,
                rng: st.rng.state_parts(),
                pending_admit: st.pending_admit.map_or(0, |degraded| 1 + degraded as u8),
                closed: st.closed,
                reserved: st.reservation.is_some(),
                holds: st.holds.clone(),
            });
        }
        let mut pending: Vec<(u64, u64, u8, u64)> = self
            .dynq
            .iter()
            .map(|sch| {
                let (kind, session) = match sch.event {
                    Ev::Retry(i) => (0u8, i as u64),
                    Ev::Confirm(i) => (1, i as u64),
                    Ev::Departure(i) => (2, i as u64),
                    Ev::InjectLeak => (3, 0),
                };
                (sch.at.as_micros(), sch.seq, kind, session)
            })
            .collect();
        pending.sort_unstable_by_key(|&(at, seq, _, _)| (at, seq));
        let dynq = pending
            .into_iter()
            .map(|(at_us, _, kind, session)| SnapEvent {
                at_us,
                kind,
                session,
            })
            .collect();
        journal.append_snapshot(&SnapshotState {
            at_ms,
            events_logged: journal.events_total(),
            retries: self.retries,
            backoff_ms_total: self.backoff_ms_total,
            faults_injected: self.faults_injected,
            peak_live: self.peak_live as u64,
            results,
            live,
            dynq,
        });
        self.broker.counter("broker.journal.snapshots", 1);
    }

    /// Run `f` with session `i`'s trace resumed, when tracing.
    fn in_trace(&mut self, i: usize, f: impl FnOnce(&mut Self)) {
        if let Some(tr) = self.tracer {
            tr.resume(i as u64);
        }
        f(self);
        if let Some(tr) = self.tracer {
            tr.suspend();
        }
    }

    /// The slab entry of in-flight session `i`. The one invariant behind
    /// it: a spec index whose slot is not `u32::MAX` is in the slab —
    /// `attempt` and `restore` record the slot of the entry they insert,
    /// and every removal resets it.
    fn session(&mut self, i: usize) -> &mut LiveSession<'a> {
        self.live
            .get_mut(self.slots[i])
            .expect("a spec index whose slot is not u32::MAX is in the slab")
    }

    fn finish(&mut self, i: usize, attempts: u32, fate: SessionFate, admitted_at_ms: Option<u64>) {
        debug_assert!(self.results[i].is_none(), "session {i} finished twice");
        self.results[i] = Some(SessionResult {
            session: i,
            fate,
            attempts,
            admitted_at_ms,
        });
    }

    /// One negotiation attempt (arrival or retry) for session `i`.
    fn attempt(&mut self, i: usize, now_ms: u64) {
        let broker = self.broker;
        let spec = &self.specs[i];
        if self.slots[i] == u32::MAX {
            self.slots[i] = self.live.insert(LiveSession {
                attempts: 0,
                rng: self.master.split_nth(i as u64),
                reservation: None,
                pending_admit: None,
                closed: false,
                session_span: None,
                backoff_span: None,
                confirm_span: None,
                explain: self.keeper.is_some().then(|| SessionAcc {
                    attempts: std::mem::take(&mut self.spare_attempts),
                    settlement: None,
                }),
                holds: Vec::new(),
            });
            self.peak_live = self.peak_live.max(self.live.len());
        }
        let st = self.session(i);
        st.attempts += 1;
        let attempts = st.attempts;
        if st.session_span.is_none() {
            st.session_span = broker.recorder.and_then(|r| r.trace_span("session"));
        }
        if let Some(b) = st.backoff_span.take() {
            b.end();
        }
        let attempt_span = broker.recorder.and_then(|r| r.trace_span("attempt"));
        // Explanations are the keeper's, and only its live facts are
        // recorded here; an explaining base context would derive the rest
        // on every attempt.
        let ctx = NegotiationContext {
            explain: false,
            ..*broker.session.context()
        };
        let mut facts = (self.keeper.is_some()).then(|| self.spare_log.take().unwrap_or_default());
        let mut reserved_offer: Option<ScoredOffer> = None;
        let outcome = match prepare(&ctx, spec.client, spec.document, spec.profile) {
            Err(err) => {
                if let Some(a) = attempt_span {
                    a.end();
                }
                self.finish(i, attempts, SessionFate::Errored, None);
                // Stringified as `Session::submit` would have returned it.
                let error = QosError::from(err).to_string();
                self.record(now_ms, i, OutcomeKind::Errored { error });
                self.close_out(i, now_ms);
                return;
            }
            Ok(Prepared::Early(out)) => {
                // The fused negotiate path would have emitted the
                // terminal outcome itself; the split path does it here.
                if let Some(rec) = broker.recorder {
                    record_outcome(rec, out.status);
                }
                if let Some(log) = facts.as_deref_mut() {
                    log.status = Some(out.status);
                }
                (out.status, None, false, "other", facts)
            }
            Ok(Prepared::Offers(ordered, trace, _)) => {
                let mut out =
                    commit_prepared(&ctx, spec.client, spec.profile, ordered, trace, facts);
                let transient = out.commit_failures.is_empty()
                    || out.commit_failures.iter().any(|(_, f)| f.transient());
                let reason = refusal_reason(&out.commit_failures);
                reserved_offer = out.reserved_offer.take();
                (
                    out.status,
                    out.reservation,
                    transient,
                    reason,
                    out.decisions,
                )
            }
        };
        if let Some(a) = attempt_span {
            a.end();
        }
        let (status, reservation, transient, reason, decisions) = outcome;
        if let Some(mut d) = decisions {
            if let Some(acc) = self.session(i).explain.as_mut() {
                let decisions = std::mem::take(&mut *d);
                acc.attempts.push(AttemptExplain {
                    at_ms: now_ms,
                    decisions,
                });
            }
            self.spare_log = Some(d);
        }
        let kind = match status {
            NegotiationStatus::Succeeded => {
                self.hold(i, now_ms, reservation, reserved_offer, false)
            }
            NegotiationStatus::FailedWithOffer if broker.config.accept_degraded => {
                self.hold(i, now_ms, reservation, reserved_offer, true)
            }
            NegotiationStatus::FailedWithOffer => {
                if let Some(res) = &reservation {
                    broker.session.release(res);
                }
                self.finish(i, attempts, SessionFate::Rejected, None);
                OutcomeKind::Rejected { status }
            }
            NegotiationStatus::FailedTryLater => {
                self.try_later(i, now_ms, transient, reason, status)
            }
            _ => {
                // FailedWithoutOffer, FailedWithLocalOffer and any future
                // status: terminal, nothing reserved.
                self.finish(i, attempts, SessionFate::Rejected, None);
                OutcomeKind::Rejected { status }
            }
        };
        self.record(now_ms, i, kind);
        self.close_out(i, now_ms);
    }

    /// Keep the reservation a walk committed and admit the session. What
    /// the offer holds is written down only for the channels that read it:
    /// a capacity-ledger row (explain; `depart_ms` is stamped when the
    /// session departs) and re-reservation rows (journal).
    fn hold(
        &mut self,
        i: usize,
        now_ms: u64,
        reservation: Option<SessionReservation>,
        offer: Option<ScoredOffer>,
        degraded: bool,
    ) -> OutcomeKind {
        if let Some(offer) = offer.filter(|_| reservation.is_some()) {
            let guarantee = self.broker.session.context().guarantee;
            // Discrete media are delivered ahead of playout and hold no
            // steady-state bandwidth — nothing to reserve on the network.
            let streams = (offer.offer.variants.iter()).map(|v| {
                (
                    v,
                    (v.blocks_per_second > 0).then(|| charged_bit_rate(v, guarantee)),
                )
            });
            if self.keeper.is_some() {
                self.ledger_ix[i] = self.ledger.len() as u32;
                self.ledger.push(LedgerRow {
                    session: i as u64,
                    admit_ms: now_ms,
                    depart_ms: now_ms,
                    streams: (streams.clone())
                        .map(|(v, bps)| StreamRow {
                            server: v.server.0,
                            bps: bps.unwrap_or(0),
                        })
                        .collect(),
                });
            }
            if self.journal.is_some() {
                self.session(i).holds = streams
                    .map(|(v, net_bps)| SnapHold {
                        server: v.server.0,
                        req: StreamRequirement::for_variant(v, guarantee),
                        net_bps,
                    })
                    .collect();
            }
        }
        self.session(i).reservation = reservation;
        self.admit(i, now_ms, degraded)
    }

    fn admit(&mut self, i: usize, now_ms: u64, degraded: bool) -> OutcomeKind {
        let broker = self.broker;
        let st = self.session(i);
        let attempts = st.attempts;
        if st.reservation.is_some() && broker.config.choice_period_ms > 0 {
            // The paper's choicePeriod: resources stay reserved while the
            // user deliberates; the session turns terminal at Confirm.
            st.pending_admit = Some(degraded);
            st.confirm_span = broker.recorder.and_then(|r| r.trace_span("confirm"));
            let delay = st.rng.range_u64(1, broker.config.choice_period_ms);
            if let Some(acc) = st.explain.as_mut() {
                acc.settlement = Some(Settlement {
                    admitted_at_ms: now_ms,
                    choice_delay_ms: delay,
                    confirmed: false,
                });
            }
            self.dynq
                .schedule(SimTime::from_millis(now_ms + delay), Ev::Confirm(i));
            return OutcomeKind::Admitted {
                degraded,
                attempt: attempts,
            };
        }
        if st.reservation.is_some() {
            if let Some(acc) = st.explain.as_mut() {
                acc.settlement = Some(Settlement {
                    admitted_at_ms: now_ms,
                    choice_delay_ms: 0,
                    confirmed: true,
                });
            }
            let hold = broker.hold_ms(&self.specs[i]).max(1);
            self.dynq
                .schedule(SimTime::from_millis(now_ms + hold), Ev::Departure(i));
        }
        self.finish(
            i,
            attempts,
            SessionFate::Admitted { degraded },
            Some(now_ms),
        );
        OutcomeKind::Admitted {
            degraded,
            attempt: attempts,
        }
    }

    fn try_later(
        &mut self,
        i: usize,
        now_ms: u64,
        transient: bool,
        reason: &'static str,
        status: NegotiationStatus,
    ) -> OutcomeKind {
        let broker = self.broker;
        let policy = &broker.config.retry;
        if !transient {
            // Every refusal was load-independent (decode budget, startup
            // bound): waiting cannot help.
            let attempts = self.session(i).attempts;
            self.finish(i, attempts, SessionFate::Rejected, None);
            return OutcomeKind::Rejected { status };
        }
        let attempts = self.session(i).attempts;
        if attempts >= policy.max_attempts {
            self.finish(i, attempts, SessionFate::Starved, None);
            return OutcomeKind::Starved { attempts };
        }
        let backoff = policy.backoff_ms(attempts, &mut self.session(i).rng).max(1);
        let fire_ms = now_ms + backoff;
        if let Some(deadline) = policy.deadline_ms {
            // The deadline is exclusive (see `RetryPolicy::deadline_ms`):
            // a retry firing exactly `deadline` ms after arrival is
            // already past the give-up instant, so `>=`, not `>`.
            if fire_ms.saturating_sub(self.specs[i].arrival_ms) >= deadline {
                self.finish(i, attempts, SessionFate::Starved, None);
                return OutcomeKind::Starved { attempts };
            }
        }
        self.retries += 1;
        self.backoff_ms_total += backoff;
        if let Some(rec) = broker.recorder {
            // The backoff span stays open until the retry fires; the
            // reason point (recorded while it is innermost) is what
            // wait-time attribution splits backoff by.
            if let Some(span) = rec.trace_span("backoff") {
                rec.trace_point("backoff.reason", &[("reason", reason)]);
                self.session(i).backoff_span = Some(span);
            }
        }
        self.dynq
            .schedule(SimTime::from_millis(fire_ms), Ev::Retry(i));
        OutcomeKind::RetryScheduled {
            at_ms: fire_ms,
            attempt: attempts,
        }
    }

    fn confirm(&mut self, i: usize, now_ms: u64) {
        let broker = self.broker;
        let st = self.session(i);
        let degraded = st
            .pending_admit
            .take()
            .expect("Confirm fired without a pending admission");
        if let Some(rec) = broker.recorder {
            rec.trace_point("confirm.decision", &[("decision", "accepted")]);
        }
        if let Some(c) = st.confirm_span.take() {
            c.end();
        }
        if let Some(acc) = st.explain.as_mut() {
            if let Some(s) = acc.settlement.as_mut() {
                s.confirmed = true;
            }
        }
        let attempts = st.attempts;
        if st.reservation.is_some() {
            let hold = broker.hold_ms(&self.specs[i]).max(1);
            self.dynq
                .schedule(SimTime::from_millis(now_ms + hold), Ev::Departure(i));
        }
        self.finish(
            i,
            attempts,
            SessionFate::Admitted { degraded },
            Some(now_ms),
        );
        self.record(now_ms, i, OutcomeKind::Confirmed);
        self.close_out(i, now_ms);
    }

    fn departure(&mut self, i: usize, now_ms: u64) {
        if let Some(res) = self.session(i).reservation.take() {
            self.broker.session.release(&res);
        }
        // An admitted session is closed by the time it departs; its slab
        // slot — the last thing keeping it live — is recycled here.
        let st = self.live.remove(self.slots[i]);
        debug_assert!(st.closed, "session {i} departed before closing");
        self.slots[i] = u32::MAX;
        if let Some(&ix) = self.ledger_ix.get(i) {
            if ix != u32::MAX {
                self.ledger[ix as usize].depart_ms = now_ms;
            }
        }
        self.record(now_ms, i, OutcomeKind::Departed);
    }

    fn fault_edge(&mut self, faults: &FaultPlan, now_ms: u64) {
        let broker = self.broker;
        let ctx = broker.session.context();
        faults.apply_state_at(ctx.farm, ctx.network, now_ms);
        let starts = faults
            .windows
            .iter()
            .filter(|w| w.from_ms == now_ms)
            .count() as u64;
        if starts > 0 {
            self.faults_injected += starts;
            broker.counter("broker.faults.injected", starts);
        }
        self.record(now_ms, usize::MAX, OutcomeKind::FaultEdge);
    }

    fn inject_leak(&mut self) {
        // Deliberately strand one stream so the end-of-run audit trips
        // (and, with a tracer, the flight recorder dumps). Test-only,
        // gated by the config hook.
        let broker = self.broker;
        let ctx = broker.session.context();
        if let Some(&id) = ctx.farm.ids().first() {
            let req = StreamRequirement {
                variant: VariantId(u64::MAX),
                max_bit_rate: 8_000,
                avg_bit_rate: 8_000,
                max_block_bytes: 1_000,
                avg_block_bytes: 1_000,
                blocks_per_second: 1,
                guarantee: Guarantee::BestEffort,
            };
            if ctx.farm.try_reserve(id, req).is_ok() {
                broker.counter("broker.chaos.leaks_injected", 1);
            }
        }
    }

    /// Terminal close-out: record latency once, close the session's
    /// trace span (outcome point first, while it is still the innermost
    /// open span), feed the SLO monitor and the tail sampler, and — when
    /// nothing is held — recycle the slab slot.
    fn close_out(&mut self, i: usize, now_ms: u64) {
        let broker = self.broker;
        let slot = self.slots[i];
        let Some(st) = self.live.get_mut(slot) else {
            return;
        };
        if st.closed || self.results[i].is_none() {
            return;
        }
        st.closed = true;
        let result = self.results[i].as_ref().expect("just checked");
        let total_ms = now_ms.saturating_sub(self.specs[i].arrival_ms);
        if let (Some(rec), Some(m)) = (broker.recorder, &broker.metrics) {
            rec.record(m.session_ms, total_ms as f64);
            rec.trace_point_key(m.session_outcome[fate_index(result.fate)], None);
        }
        if let Some(span) = st.session_span.take() {
            span.end();
        }
        let failed = !matches!(result.fate, SessionFate::Admitted { .. });
        let latency_ms = result
            .admitted_at_ms
            .map(|at| at.saturating_sub(self.specs[i].arrival_ms) as f64);
        let attempts = result.attempts as u64;
        let fate = FATES[fate_index(result.fate)].1;
        let holds = st.reservation.is_some();
        let mut acc = st.explain.take();
        self.latency.record(total_ms as f64);
        self.slo
            .on_session(broker.recorder, now_ms, latency_ms, failed, attempts);
        // Tail sampling: with a retention policy attached the tracer
        // keeps failures, the top-k slowest and the seeded baseline, and
        // drops the rest now.
        if let Some(t) = self.tracer {
            t.finish_session(i as u64, failed, ms_to_us(total_ms));
        }
        if let Some(keeper) = self.keeper.as_mut() {
            let arrival_ms = self.specs[i].arrival_ms;
            keeper.finish_with(i as u64, failed, ms_to_us(total_ms), || {
                let acc = acc.take().unwrap_or_default();
                SessionExplain {
                    session: i as u64,
                    arrival_ms,
                    fate: fate.to_string(),
                    duration_ms: total_ms,
                    attempts: acc.attempts,
                    settlement: acc.settlement,
                    adaptations: Vec::new(),
                }
            });
            // A dropped session's attempt list is reused by the next one.
            if let Some(SessionAcc { mut attempts, .. }) = acc {
                attempts.clear();
                self.spare_attempts = attempts;
            }
        }
        if !holds {
            self.live.remove(slot);
            self.slots[i] = u32::MAX;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::ms_to_us;

    #[test]
    fn ms_to_us_is_exact_in_range() {
        assert_eq!(ms_to_us(0), 0);
        assert_eq!(ms_to_us(5), 5_000);
        // The largest millisecond count with an exact microsecond image.
        let top = u64::MAX / 1_000;
        assert_eq!(ms_to_us(top), top * 1_000);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflows the microsecond clock")]
    fn ms_to_us_panics_on_overflow_in_debug() {
        ms_to_us(u64::MAX / 1_000 + 1);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn ms_to_us_saturates_on_overflow_in_release() {
        // In release builds the conversion still refuses to wrap: it
        // pins to the end of time instead of jumping backwards.
        assert_eq!(ms_to_us(u64::MAX / 1_000 + 1), u64::MAX);
        assert_eq!(ms_to_us(u64::MAX), u64::MAX);
    }
}
