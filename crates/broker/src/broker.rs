//! The concurrent negotiation broker.
//!
//! [`Broker::drive`] is the engine: it drives a [`FleetSpec`]'s sessions
//! against one shared [`ServerFarm`](nod_cmfs::ServerFarm) +
//! [`Network`](nod_netsim::Network) on a deterministic virtual-time event
//! loop of arrivals, retries, confirmations, departures and [`FaultPlan`]
//! window edges. Each session's policy is its
//! [`Lifecycle`](nod_qosneg::Lifecycle): the loop feeds it each attempt's
//! outcome, the simulated user's OK and the departure, and performs the
//! effect it returns — schedule a retry or a confirmation, start the
//! hold, release, settle. What the fleet adds sits beside it in a
//! recycled [`Slab`](crate::Slab) entry (the session's RNG, the `i`-th
//! split of the config seed's stream; its trace spans; its explain
//! facts), so memory tracks the *peak concurrent* session count while the
//! same seed, specs and fault plan replay the identical [`OutcomeEvent`]
//! sequence bit for bit.
//!
//! Every attempt, retries included, runs negotiation steps 1–4
//! ([`prepare`]) and then the step-5 commit walk ([`commit_prepared`])
//! back to back on the one event loop, in exact event order — the walk
//! [`Session::submit`] runs under one `negotiate` span, each refused
//! prefix judged once against the capacity the walk started with
//! (`tests/broker_contention.rs` pins one overloaded seed).
//!
//! With [`FleetSpec::explain`] set, every attempt records its live facts
//! (status, chosen rank, refusals with their shortfalls); the broker keeps
//! the full capacity ledger, one [`LedgerEntry`] per commit (who committed
//! which offer, when), and tail-retains per-session explanations under the
//! same policy trace retention uses. [`BrokerReport::explains`] holds only
//! those facts: steps 1–4 are pure and a hold's length is fixed by its
//! spec, so [`write_explains`] derives the rest — each row's departure and
//! streams ([`ledger_rows`]) and each retained attempt's full
//! [`DecisionLog`](nod_qosneg::DecisionLog) — as it writes each line, and
//! the `--explain-out` artifact replays byte for byte with the outcome
//! log.

use std::io::{self, Write};

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, StreamRequirement};
use nod_mmdb::Catalog;
use nod_mmdoc::{DocumentId, Variant, VariantId};
use nod_obs::{
    interned_key, Counter, Histogram, HistogramSnapshot, Recorder, SloAlert, SloMonitor, Span,
    TailKeeper, Tracer, ValueHistogram,
};
use nod_qosneg::explain::{
    write_jsonl, AttemptExplain, DecisionLog, ExplainData, ExplainMeta, LedgerRow, RefusalKind,
    RefusalRecord, SessionExplain, Settlement, StreamRow,
};
use nod_qosneg::mapping::charged_bit_rate;
use nod_qosneg::negotiate::{
    commit_prepared, explain_attempts, prepare, record_outcome, reprepare, NegotiationContext,
    Prepared, SessionReservation,
};
use nod_qosneg::{
    Attempt, Effect, Input, Lifecycle, NegotiationStatus, OfferEngine, Phase, QosError,
    RankedOffers, Reserved, RetryPolicy, Rules, Session, SessionFate, UserProfile,
};
use nod_simcore::{EventQueue, SimTime, StreamRng};

use crate::audit::CapacitySnapshot;
use crate::fault::{Fault, FaultPlan};
use crate::fleet::{EventRetention, FleetSpec};
use crate::journal::{
    event_hash, Fnv, HeaderRecord, Journal, JournalError, ParsedJournal, SnapEvent, SnapPhase,
    SnapSession, SnapshotState, PENDING_CONFIRM, PENDING_DEPARTURE, PENDING_LEAK, PENDING_RETRY,
};
use crate::log::{session_id, OutcomeLog};
use crate::slab::Slab;
use crate::windows::{FleetWindow, WindowAccumulator};

/// Broker-level policy knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BrokerConfig {
    /// Retry policy applied to FAILEDTRYLATER refusals.
    pub retry: RetryPolicy,
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
    /// Plausible interactive defaults: era retry policy, instant
    /// confirmation, no injected leak.
    pub fn era_default() -> Self {
        BrokerConfig {
            retry: RetryPolicy::era_default(),
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
    /// falls back to the document's total duration, then to 30 s.
    pub hold_ms: Option<u64>,
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

/// A drive's capacity-ledger entry: the one commit of a session, in 16
/// bytes — what cannot be re-derived. The departure follows from the
/// session's admission instant and its hold, the streams from the offer
/// index ([`ledger_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Index into the spec slice.
    pub session: u32,
    /// The committed offer's classified index on the session's list.
    pub offer: u32,
    /// The commit instant, ms.
    pub admit_ms: u64,
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
    /// Chronological outcome log (the replay unit), packed. Empty when
    /// the [`FleetSpec`]'s retention policy drops it
    /// ([`EventRetention::WindowsOnly`] / [`EventRetention::CountsOnly`]).
    pub events: OutcomeLog,
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
    /// SLO burn alerts fired during the run ([`FleetSpec::slos`]); empty
    /// when no objectives were configured.
    pub slo_alerts: Vec<SloAlert>,
    /// Decision provenance ([`FleetSpec::explain`]): the capacity ledger,
    /// the tail-retained session explanations and the retention totals,
    /// as live facts — each ledger entry names its session, offer and
    /// commit instant, each attempt its refusals, chosen rank and status;
    /// [`write_explains`] derives the rest. `None` when provenance was not
    /// requested.
    pub explains: Option<ExplainData<LedgerEntry>>,
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
    /// What the restore re-reserved: the capacity held once the snapshot's
    /// sessions were rebuilt, before the resumed run's first event.
    pub restored: CapacitySnapshot,
}

/// Journal replay state during recovery: the hashes of the journaled
/// post-snapshot events the engine must regenerate — each checked equal
/// and the outcome suppressed from the new report — before the run goes
/// live.
struct Replay {
    tail: Vec<u64>,
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
/// until its resources drain: the session's [`Lifecycle`], which holds its
/// reservation and offer index, plus what the fleet adds to it.
struct LiveSession<'a> {
    /// Index into the spec slice.
    session: u32,
    rng: StreamRng,
    lifecycle: Lifecycle<SessionReservation>,
    /// Open trace spans (only when a tracer is attached): the session's,
    /// and the backoff or confirmation it is waiting through.
    session_span: Option<Span<'a>>,
    wait_span: Option<Span<'a>>,
    /// Accumulating decision provenance ([`FleetSpec::explain`]): each
    /// attempt's live facts, completed only if the session is kept.
    explain: Option<SessionAcc>,
}

/// Per-session provenance accumulator, inline on the live session (an
/// empty vec and a `None`, so the disabled path costs no allocation).
#[derive(Default)]
struct SessionAcc {
    attempts: Vec<AttemptExplain>,
    settlement: Option<Settlement>,
}

/// Classify a FAILEDTRYLATER's refusals by what the session will be
/// waiting *for* — the label wait-time attribution splits backoff by.
fn refusal_reason(refusals: &[RefusalRecord]) -> &'static str {
    let mut server = false;
    let mut network = false;
    for r in refusals {
        match r.kind() {
            RefusalKind::Server => server = true,
            RefusalKind::Network | RefusalKind::PathQos => network = true,
            RefusalKind::DecodeBudget | RefusalKind::Startup => {}
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
/// how a journal's terminal record encodes a session's fate.
pub(crate) const FATES: [(SessionFate, &str); 5] = [
    (SessionFate::Admitted { degraded: false }, "admitted"),
    (
        SessionFate::Admitted { degraded: true },
        "admitted_degraded",
    ),
    (SessionFate::Starved, "starved"),
    (SessionFate::Rejected, "rejected"),
    (SessionFate::Errored, "errored"),
];

pub(crate) fn fate_index(fate: SessionFate) -> usize {
    (FATES.iter().position(|&(f, _)| f == fate)).expect("every fate is listed")
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

/// The streams of the offer at enumeration `rank` of `engine`, read by
/// reference, each with the network bandwidth reserved for it: discrete
/// media are delivered ahead of playout and hold none.
fn held_streams(
    engine: &OfferEngine,
    rank: u64,
    guarantee: Guarantee,
) -> impl Iterator<Item = (&Variant, Option<u64>)> {
    engine.streams_at(rank).map(move |(v, ..)| {
        (
            v,
            (v.blocks_per_second > 0).then(|| charged_bit_rate(v, guarantee)),
        )
    })
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

/// Session hold time when neither the spec nor the document supplies
/// one, ms.
const DEFAULT_HOLD_MS: u64 = 30_000;

/// When a session whose hold starts at `start_ms` departs: after the
/// spec's hold time, else the document's duration, else 30 s, and at
/// least 1 ms later.
fn departure_ms(catalog: &Catalog, spec: &SessionSpec<'_>, start_ms: u64) -> u64 {
    let hold_ms = spec.hold_ms.unwrap_or_else(|| {
        (catalog.document(spec.document))
            .and_then(|d| d.total_duration_ms().ok())
            .unwrap_or(DEFAULT_HOLD_MS)
    });
    start_ms + hold_ms.max(1)
}

/// The broker: a [`Session`] facade plus contention policy.
pub struct Broker<'a> {
    session: Session<'a>,
    config: BrokerConfig,
    recorder: Option<&'a Recorder>,
    metrics: Option<Metrics>,
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
        }
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

    /// Drive every session of `fleet` to a terminal fate on the virtual
    /// clock and return the full [`BrokerReport`].
    ///
    /// Determinism contract: the outcome log replays bit for bit for a
    /// given (seed, specs, faults) triple against the same pristine
    /// world — every event is handled on this one loop in (time,
    /// schedule) order, and each session draws jitter from its own RNG,
    /// split from the seed by session index. An attached
    /// [`Recorder`](nod_obs::Recorder)'s metric snapshot replays with it.
    ///
    /// # Panics
    /// Panics with [`SessionIdOverflow`](crate::SessionIdOverflow) when the
    /// fleet has more than `u32::MAX` sessions: a session's id is a `u32`
    /// below the fault-edge sentinel, and a drive never truncates one.
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
            .0
    }

    /// The fleet-identity hash a journal header carries: seed, per-spec
    /// arrival/client/document/hold, the broker config's policy numbers
    /// and the fault plan. Recovery refuses a journal whose hash differs
    /// — a deterministic replay against a different fleet is garbage.
    fn spec_hash(&self, fleet: &FleetSpec<'_>) -> u64 {
        let mut h = Fnv::new();
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
        // The accept-degraded flag (always on) and the default hold are
        // constants now; both are still hashed, so a journal written while
        // they were knobs keeps its hash.
        h.u64(1);
        h.u64(DEFAULT_HOLD_MS);
        h.u64(self.config.choice_period_ms);
        h.u64(self.config.inject_leak_at_ms.is_some() as u64);
        h.u64(self.config.inject_leak_at_ms.unwrap_or(0));
        if let Some(plan) = fleet.faults {
            for w in &plan.windows {
                h.u64(w.from_ms);
                h.u64(w.until_ms);
                let (tag, target, level) = match w.fault {
                    Fault::ServerCrash { server } => (0, server.0, None),
                    Fault::ServerSlowAdmission { server, factor } => (1, server.0, Some(factor)),
                    Fault::LinkBlackout { link } => (2, link.0, None),
                    Fault::LinkCapacityDrop { link, health } => (3, link.0, Some(health)),
                };
                h.u64(tag);
                h.u64(target);
                if let Some(level) = level {
                    h.f64(level);
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
    /// snapshot — the results settled before it, slab, held reservations
    /// (each re-derived from the session's reserved offer index), capacity
    /// ledgers, pending confirmations/choice-period timers and retry
    /// queues — then re-drives: the hash of every regenerated outcome is
    /// checked against the journaled suffix and the outcome suppressed,
    /// after which the run is live.
    /// The returned report's `events` therefore hold only the outcomes
    /// after the journal's end; see [`RecoveryReport`] for where they
    /// sit in the global log.
    ///
    /// The spec hash does not cover the farm or the network, so a world
    /// that differs from the original is caught here instead: a held
    /// stream that no longer fits, or a reserved offer index the
    /// re-prepared list does not have, is [`JournalError::RestoreFailed`];
    /// a regenerated outcome that differs from the journal is
    /// [`JournalError::ReplayDiverged`]. Either way every reservation the
    /// resumed run made is released before the error is returned. A
    /// well-framed record that names a session past the fleet, carries an
    /// unknown tag, or schedules a confirmation, departure or leak for a
    /// session or config not in the state it needs, is
    /// [`JournalError::Malformed`] before anything is restored; so is a
    /// journal that leaves a session without a result, once the resumed
    /// run drains. A journal that fails to write during the resumed run
    /// is [`JournalError::Io`].
    pub fn recover(&self, fleet: &FleetSpec<'_>) -> Result<RecoveryReport, JournalError> {
        let journal = fleet.journal.ok_or(JournalError::NoJournal)?;
        let parsed = journal.recover_state(HeaderRecord {
            seed: self.config.seed,
            sessions: fleet.sessions.len() as u64,
            spec_hash: self.spec_hash(fleet),
        })?;
        parsed.check_sessions(
            fleet.sessions.len() as u64,
            self.config.inject_leak_at_ms.is_some(),
        )?;
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
        let (report, restored) = report?;
        journal.sync()?;
        Ok(RecoveryReport {
            report,
            replayed_events,
            resumed_at_ms,
            suffix_starts_at_event,
            torn_bytes,
            restored,
        })
    }

    /// The engine behind [`Broker::drive`] (fresh) and [`Broker::recover`]
    /// (resumed from a snapshot + replay tail): one virtual-time event
    /// loop over three merged, individually-sorted event streams — fault
    /// edges, arrivals, and runtime-scheduled events — processing each
    /// tick as a batch. Only a resumed run can fail; it also returns the
    /// capacity its restore left held.
    fn drive_from(
        &self,
        fleet: &FleetSpec<'_>,
        resume: Option<ParsedJournal>,
    ) -> Result<(BrokerReport, CapacitySnapshot), JournalError> {
        let specs = fleet.sessions;
        // Every session id the drive keeps is a `u32`.
        session_id(specs.len().saturating_sub(1)).unwrap_or_else(|e| panic!("{e}"));
        let ctx = self.session.context();
        // Captured before a resumed run re-reserves its held streams, so
        // the end-of-run audit still checks against the pristine world.
        let before = CapacitySnapshot::capture(ctx.farm, ctx.network);

        let none_plan = FaultPlan::none();
        let faults = fleet.faults.unwrap_or(&none_plan);
        let fault_edges = faults.edges_ms();
        // Arrival consumption order: spec indices by (arrival_ms, index)
        // — exactly how the legacy single queue broke ties (the sort is
        // stable).
        let mut order: Vec<u32> = (0..specs.len() as u32).collect();
        order.sort_by_key(|&i| specs[i as usize].arrival_ms);
        let arrival = |ai: usize| order.get(ai).map(|&i| (i, specs[i as usize].arrival_ms));

        let (snap, settled, replay) = match resume {
            Some(r) => (
                r.snapshot,
                r.results,
                (!r.tail.is_empty()).then_some(Replay {
                    tail: r.tail,
                    cursor: 0,
                    events_before: r.events_before,
                }),
            ),
            None => (None, Vec::new(), None),
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
            events: OutcomeLog::default(),
            win_acc: (window_ms > 0).then(|| WindowAccumulator::new(window_ms)),
            latency: ValueHistogram::new(),
            slo: SloMonitor::new(fleet.slos.clone()),
            retries: 0,
            backoff_ms_total: 0,
            faults_injected: 0,
            keeper: fleet.explain.map(TailKeeper::new),
            ledger: Vec::new(),
            spare_attempts: Vec::new(),
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
            state.failed = state.restore(s, settled, faults).err();
        }
        let restored = match snap {
            Some(_) => CapacitySnapshot::capture(ctx.farm, ctx.network),
            None => before.clone(),
        };
        let mut end_ms = 0u64;
        // A failed recovery stops at the end of the tick it failed in.
        while state.failed.is_none() {
            // The next tick: the earliest head of the three streams.
            let heads = [
                fault_edges.get(fi).copied(),
                arrival(ai).map(|(_, at_ms)| at_ms),
                state.dynq.peek_time().map(SimTime::as_millis),
            ];
            // Done when every stream is empty; an edge at `u64::MAX` ms
            // never fires.
            let Some(t) = heads.into_iter().flatten().min().filter(|&t| t < u64::MAX) else {
                break;
            };
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
        // more events than the resumed run produced; a session with no
        // result means it lost a terminal record from before its snapshot.
        let failed = (state.failed.take())
            .or_else(|| state.replay.as_ref().map(Replay::diverged))
            .or_else(|| {
                let unsettled = state.results.iter().any(Option::is_none);
                unsettled.then_some(JournalError::Malformed("a session never settled"))
            });
        if let Some(err) = failed {
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
        let admission_ratio = admitted as f64 / specs.len().max(1) as f64;
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
            state.ledger.shrink_to_fit();
            ExplainData {
                ledger: state.ledger,
                sessions: items.into_iter().map(|(_, s)| s).collect(),
                stats,
            }
        });
        state.events.shrink_to_fit();
        let report = BrokerReport {
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
        };
        Ok((report, restored))
    }
}

/// The capacity-ledger rows of `report`, the report of a drive of
/// `specs`, each derived as it is reached. Steps 1–4 are pure in the
/// catalog and the static topology, so re-running them on `ctx` rebuilds
/// the list an entry's offer index points into, and the offer's streams
/// follow; a session holds what it committed from its admission until
/// the departure the drive scheduled, and a commit that never became a
/// held session departs at its commit instant. Costs one prepare per row. Empty
/// when the drive did not explain.
pub fn ledger_rows<'r>(
    ctx: &'r NegotiationContext<'r>,
    specs: &'r [SessionSpec<'r>],
    report: &'r BrokerReport,
) -> impl Iterator<Item = LedgerRow> + 'r {
    let ledger = report.explains.as_ref().map_or(&[][..], |d| &d.ledger[..]);
    ledger.iter().map(move |entry| {
        let i = entry.session as usize;
        let spec = &specs[i];
        let depart_ms = match report.results[i] {
            SessionResult {
                fate: SessionFate::Admitted { .. },
                admitted_at_ms: Some(start_ms),
                ..
            } => departure_ms(ctx.catalog, spec, start_ms),
            _ => entry.admit_ms,
        };
        let (ranked, rank) = held_offer(ctx, spec, entry.offer)
            .expect("steps 1-4 rebuild the list an admission reserved from");
        let streams =
            held_streams(ranked.engine(), rank, ctx.guarantee).map(|(v, bps)| StreamRow {
                server: v.server.0,
                bps: bps.unwrap_or(0),
            });
        LedgerRow {
            session: i as u64,
            admit_ms: entry.admit_ms,
            depart_ms,
            streams: streams.collect(),
        }
    })
}

/// Write the `--explain-out` artifact of `report`, the report of a drive
/// of `specs`, under `meta`: every ledger row ([`ledger_rows`]) and every
/// retained session, its attempts completed into full decision logs
/// ([`explain_attempts`], one prepare per attempt), each derived only when
/// its line is written, so the writer holds one at a time. A drive that
/// did not explain writes an artifact with no rows.
pub fn write_explains(
    ctx: &NegotiationContext<'_>,
    specs: &[SessionSpec<'_>],
    report: &BrokerReport,
    meta: &ExplainMeta,
    out: &mut impl Write,
) -> io::Result<()> {
    let no_data = ExplainData::default();
    let data = report.explains.as_ref().unwrap_or(&no_data);
    let sessions = data.sessions.iter().map(|s| {
        let mut s = s.clone();
        let spec = &specs[s.session as usize];
        let logs = s.attempts.iter_mut().map(|a| &mut a.decisions);
        explain_attempts(ctx, spec.client, spec.document, spec.profile, logs);
        s
    });
    let rows = ledger_rows(ctx, specs, report);
    write_jsonl(out, meta, rows, sessions, &data.stats)
}

/// The list steps 1–4 rebuild for `spec` with the enumeration rank of
/// its offer at classified `index` — the offer a session that reserved
/// that index committed — or `None` when the list is shorter.
fn held_offer(
    ctx: &NegotiationContext<'_>,
    spec: &SessionSpec<'_>,
    index: u32,
) -> Option<(RankedOffers, u64)> {
    match reprepare(ctx, spec.client, spec.document, spec.profile) {
        Ok(Prepared::Offers(mut ranked, ..)) if (index as usize) < ranked.len() => {
            let rank = ranked.entry(index as usize).rank;
            Some((ranked, rank))
        }
        _ => None,
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
    events: OutcomeLog,
    win_acc: Option<WindowAccumulator>,
    latency: ValueHistogram,
    slo: SloMonitor,
    retries: u64,
    backoff_ms_total: u64,
    faults_injected: u64,
    /// Tail-retained session explanations ([`FleetSpec::explain`]).
    keeper: Option<TailKeeper<SessionExplain>>,
    /// Capacity ledger, one entry per commit, in commit order.
    ledger: Vec<LedgerEntry>,
    /// The emptied attempt buffer of the last dropped session, reused so
    /// explaining does not allocate one for every session.
    spare_attempts: Vec<AttemptExplain>,
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
        // Each regenerated outcome's hash must match the journaled one (the
        // determinism contract recovery rests on) and the outcome is
        // suppressed — it was already journaled, windowed and reported by
        // the crashed run. Past the journal's end the run is live again.
        if let Some(rp) = self.replay.as_mut() {
            if rp.tail[rp.cursor] != event_hash(at_ms, session, &kind) {
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
            // The outcome that settles a session carries its result.
            let result = match kind {
                OutcomeKind::RetryScheduled { .. }
                | OutcomeKind::Departed
                | OutcomeKind::FaultEdge => None,
                _ => self.results[session].as_ref(),
            };
            if journal.append_event(event_hash(at_ms, session, &kind), result) {
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
            let event = OutcomeEvent {
                at_ms,
                session,
                kind,
            };
            (self.events.push(event)).expect("the drive checked its fleet fits u32 ids");
        }
    }

    /// Rebuild the engine at a journal snapshot: the results `settled`
    /// before it, the live slab, pending events and counters. A held
    /// offer is re-derived by re-running steps 1–4 (they read only the
    /// catalog and the static topology) and materializing the session's
    /// offer index; an index the list does not have is
    /// [`JournalError::RestoreFailed`], and so is a world that refuses a
    /// stream. Re-reservation happens at nominal health — on the original
    /// pristine world live holds always fit — and the fault state in force
    /// at the snapshot tick is applied afterwards. No fault edge lies
    /// strictly between the last edge ≤ tick and the tick itself, so
    /// reset-then-reapply recomputes exactly the state the crashed run
    /// held, even when a window closed on the snapshot tick.
    fn restore(
        &mut self,
        snap: &SnapshotState,
        settled: Vec<SessionResult>,
        faults: &FaultPlan,
    ) -> Result<(), JournalError> {
        let ctx = self.broker.session.context();
        for r in settled {
            let i = r.session;
            if self.results[i].replace(r).is_some() {
                return Err(JournalError::Malformed("a session settled twice"));
            }
        }
        // Pending events, rescheduled in the delivery order they decode in:
        // fresh sequence numbers assigned in `(at, seq)` order reproduce
        // the same-tick FIFO tie-break exactly.
        for e in &snap.dynq {
            let i = e.session as usize;
            let ev = match e.kind {
                PENDING_RETRY => Ev::Retry(i),
                PENDING_CONFIRM => Ev::Confirm(i),
                PENDING_DEPARTURE => Ev::Departure(i),
                _ => Ev::InjectLeak,
            };
            self.dynq.schedule(SimTime::from_micros(e.at_us), ev);
        }
        for s in &snap.live {
            let i = s.session as usize;
            let reserved = |offer, degraded| Reserved {
                reservation: SessionReservation::default(),
                offer,
                degraded,
            };
            // Only a held session has settled. The snapshot keeps no
            // confirmation deadline: the pending OK, which the simulated
            // user always makes in time, is the only decision to come.
            let phase = match (s.phase, self.results[i].as_ref().map(|r| r.fate)) {
                (SnapPhase::BackingOff, None) => Phase::Negotiating,
                (SnapPhase::Awaiting { degraded, offer }, None) => Phase::Awaiting {
                    deadline_ms: u64::MAX,
                    reserved: reserved(offer, degraded),
                },
                (SnapPhase::Held { offer }, Some(SessionFate::Admitted { degraded })) => {
                    Phase::Held(reserved(offer, degraded))
                }
                _ => {
                    return Err(JournalError::Malformed(
                        "live session disagrees with its result",
                    ))
                }
            };
            let slot = self.live.insert(LiveSession {
                session: s.session,
                rng: StreamRng::from_state_parts(s.rng.0, s.rng.1),
                lifecycle: Lifecycle::restore(s.attempts, phase),
                session_span: None,
                wait_span: None,
                explain: self.keeper.is_some().then(SessionAcc::default),
            });
            self.slots[i] = slot;
            let st = self.live.get_mut(slot).expect("just inserted");
            let Some(held) = st.lifecycle.reserved_mut() else {
                continue;
            };
            let index = held.offer;
            let spec = &self.specs[i];
            let failed = |what: String| JournalError::RestoreFailed(format!("session {i} {what}"));
            let (ranked, rank) = held_offer(ctx, spec, index)
                .ok_or_else(|| failed(format!("has no offer {index} on its list")))?;
            // Re-reserve stream by stream into the slab-resident
            // reservation, so a refusal partway leaves everything made so
            // far where `release_all` finds it.
            let res = &mut held.reservation;
            for (v, net_bps) in held_streams(ranked.engine(), rank, ctx.guarantee) {
                let req = StreamRequirement::for_variant(v, ctx.guarantee);
                let rid = (ctx.farm.try_reserve(v.server, req))
                    .map_err(|e| failed(format!("on {}: {e:?}", v.server)))?;
                res.servers.push((v.server, rid));
                if let Some(bps) = net_bps {
                    let nid = (ctx.network.try_reserve(spec.client.id, v.server, bps))
                        .map_err(|e| failed(format!("path to {}: {e:?}", v.server)))?;
                    res.network.push(nid);
                }
            }
        }
        faults.apply_state_at(ctx.farm, ctx.network, snap.at_ms);
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
            if let Some(held) = self.live.get(slot).and_then(|st| st.lifecycle.reserved()) {
                broker.session.release(&held.reservation);
            }
        }
    }

    /// Cut a checkpoint of the live engine at the end of tick `at_ms` and
    /// append it to the journal (compacting history, per its config). It
    /// walks the slab and the queue as they lie: decoding puts them in
    /// order.
    fn write_snapshot(&mut self, at_ms: u64) {
        let Some(journal) = self.journal else { return };
        let live = (self.live.iter())
            .map(|st| SnapSession {
                session: st.session,
                attempts: st.lifecycle.attempts(),
                rng: st.rng.state_parts(),
                phase: match st.lifecycle.phase() {
                    Phase::Negotiating => SnapPhase::BackingOff,
                    Phase::Awaiting { reserved, .. } => SnapPhase::Awaiting {
                        degraded: reserved.degraded,
                        offer: reserved.offer,
                    },
                    Phase::Held(reserved) => SnapPhase::Held {
                        offer: reserved.offer,
                    },
                    Phase::Done(_) => unreachable!("a settled session holding nothing is not live"),
                },
            })
            .collect();
        let dynq = (self.dynq.iter())
            .map(|sch| {
                let (kind, session) = match sch.event {
                    Ev::Retry(i) => (PENDING_RETRY, i as u32),
                    Ev::Confirm(i) => (PENDING_CONFIRM, i as u32),
                    Ev::Departure(i) => (PENDING_DEPARTURE, i as u32),
                    Ev::InjectLeak => (PENDING_LEAK, 0),
                };
                SnapEvent {
                    at_us: sch.at.as_micros(),
                    seq: sch.seq,
                    kind,
                    session,
                }
            })
            .collect();
        journal.append_snapshot(&SnapshotState {
            at_ms,
            events_logged: journal.events_total(),
            retries: self.retries,
            backoff_ms_total: self.backoff_ms_total,
            faults_injected: self.faults_injected,
            peak_live: self.peak_live as u64,
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

    /// One negotiation attempt (arrival or retry) for session `i`: steps
    /// 1–5, then the lifecycle's verdict on them.
    fn attempt(&mut self, i: usize, now_ms: u64) {
        let broker = self.broker;
        let spec = &self.specs[i];
        if self.slots[i] == u32::MAX {
            self.slots[i] = self.live.insert(LiveSession {
                session: i as u32,
                rng: self.master.split_nth(i as u64),
                lifecycle: Lifecycle::default(),
                session_span: None,
                wait_span: None,
                explain: self.keeper.is_some().then(|| SessionAcc {
                    attempts: std::mem::take(&mut self.spare_attempts),
                    settlement: None,
                }),
            });
            self.peak_live = self.peak_live.max(self.live.len());
        }
        let st = self.session(i);
        if st.session_span.is_none() {
            st.session_span = broker.recorder.and_then(|r| r.trace_span("session"));
        }
        if let Some(b) = st.wait_span.take() {
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
        let explaining = self.keeper.is_some();
        // The negotiation's outcome, and what a FAILEDTRYLATER waits for.
        let negotiated = match prepare(&ctx, spec.client, spec.document, spec.profile) {
            // Stringified as `Session::submit` would have returned it.
            Err(err) => Err(QosError::from(err).to_string()),
            Ok(Prepared::Early(out)) => {
                // The fused negotiate path would have emitted the
                // terminal outcome itself; the split path does it here.
                // An early status is a refusal no retry can change.
                if let Some(rec) = broker.recorder {
                    record_outcome(rec, out.status);
                }
                Ok(*out)
            }
            Ok(Prepared::Offers(ordered, trace, _)) => {
                let out = commit_prepared(&ctx, spec.client, spec.profile, ordered, trace, None);
                if let Some(index) = out.reserved_index.filter(|_| explaining) {
                    // The committed offer becomes a capacity-ledger entry.
                    self.ledger.push(LedgerEntry {
                        session: i as u32,
                        offer: index as u32,
                        admit_ms: now_ms,
                    });
                }
                Ok(out)
            }
        };
        // The attempt, the outcome a terminal refusal logs, and its refusals.
        let (outcome, refusal, refusals, decisions) = match negotiated {
            Err(error) => (
                Attempt::Errored,
                OutcomeKind::Errored { error },
                Vec::new(),
                None,
            ),
            Ok(mut out) => {
                let refusal = OutcomeKind::Rejected { status: out.status };
                let attempt = Attempt::of(&mut out);
                // The attempt's live facts, its refusals moved at their
                // exact count (the walk sized the list for every offer).
                let facts = explaining.then(|| DecisionLog {
                    refusals: std::mem::take(&mut out.refusals).into_boxed_slice().into(),
                    chosen_rank: out.reserved_index.map(|idx| idx as u64),
                    status: Some(out.status),
                    ..DecisionLog::default()
                });
                (attempt, refusal, out.refusals, facts)
            }
        };
        if let Some(a) = attempt_span {
            a.end();
        }
        let config = &broker.config;
        let st = self.session(i);
        let rules = Rules {
            retry: config.retry,
            choice_period_ms: config.choice_period_ms,
            at_ms: now_ms,
            arrived_ms: spec.arrival_ms,
            rng: &mut st.rng,
        };
        let effect = st.lifecycle.step(Input::Attempt(outcome, rules));
        let attempt = st.lifecycle.attempts();
        let admitted = |degraded| OutcomeKind::Admitted { degraded, attempt };
        let (kind, settled) = match effect {
            Effect::Retry { at_ms, backoff_ms } => {
                self.retries += 1;
                self.backoff_ms_total += backoff_ms;
                if let Some(rec) = broker.recorder {
                    // The backoff span stays open until the retry fires;
                    // the reason point (recorded while it is innermost) is
                    // what wait-time attribution splits backoff by.
                    if let Some(span) = rec.trace_span("backoff") {
                        let refusals = decisions.as_ref().map_or(&refusals, |d| &d.refusals);
                        rec.trace_point("backoff.reason", &[("reason", refusal_reason(refusals))]);
                        self.session(i).wait_span = Some(span);
                    }
                }
                self.dynq
                    .schedule(SimTime::from_millis(at_ms), Ev::Retry(i));
                let kind = OutcomeKind::RetryScheduled { at_ms, attempt };
                (kind, None)
            }
            Effect::Confirm | Effect::Admit => {
                let degraded = st.lifecycle.reserved().is_some_and(|r| r.degraded);
                // The paper's choicePeriod: resources stay reserved while
                // the simulated user deliberates, for a think time drawn
                // inside the period; without one, the hold starts now.
                let awaiting = effect == Effect::Confirm;
                let mut delay = 0;
                if awaiting {
                    st.wait_span = broker.recorder.and_then(|r| r.trace_span("confirm"));
                    delay = st.rng.range_u64(1, config.choice_period_ms);
                }
                if let Some(acc) = st.explain.as_mut() {
                    acc.settlement = Some(Settlement {
                        admitted_at_ms: now_ms,
                        choice_delay_ms: delay,
                        confirmed: !awaiting,
                    });
                }
                if awaiting {
                    let at = SimTime::from_millis(now_ms + delay);
                    self.dynq.schedule(at, Ev::Confirm(i));
                } else {
                    self.hold(i, now_ms);
                }
                let fate = SessionFate::Admitted { degraded };
                (admitted(degraded), (!awaiting).then_some(fate))
            }
            Effect::Settle(fate) => {
                let kind = match fate {
                    SessionFate::Admitted { degraded } => admitted(degraded),
                    SessionFate::Starved => OutcomeKind::Starved { attempts: attempt },
                    SessionFate::Rejected | SessionFate::Errored => refusal,
                };
                (kind, Some(fate))
            }
            Effect::None | Effect::Release(_) | Effect::TimedOut(_) => {
                unreachable!("an arriving or retrying session takes its attempt")
            }
        };
        if let Some(decisions) = decisions {
            if let Some(acc) = self.session(i).explain.as_mut() {
                acc.attempts.push(AttemptExplain {
                    at_ms: now_ms,
                    decisions,
                });
            }
        }
        self.emit(i, now_ms, kind, settled);
    }

    /// Start an admitted session's hold: its departure is scheduled
    /// ([`departure_ms`]).
    fn hold(&mut self, i: usize, now_ms: u64) {
        let catalog = self.broker.session.context().catalog;
        let at = departure_ms(catalog, &self.specs[i], now_ms);
        self.dynq
            .schedule(SimTime::from_millis(at), Ev::Departure(i));
    }

    fn confirm(&mut self, i: usize, now_ms: u64) {
        let broker = self.broker;
        let st = self.session(i);
        // The simulated user's think time was drawn inside the choice
        // period, so the OK is always in time.
        let decide = Input::Decide {
            accept: true,
            at_ms: now_ms,
        };
        let Effect::Admit = st.lifecycle.step(decide) else {
            unreachable!("session {i} confirms in time, while awaiting")
        };
        let degraded = st.lifecycle.reserved().is_some_and(|r| r.degraded);
        if let Some(rec) = broker.recorder {
            rec.trace_point("confirm.decision", &[("decision", "accepted")]);
        }
        if let Some(c) = st.wait_span.take() {
            c.end();
        }
        if let Some(s) = st.explain.as_mut().and_then(|acc| acc.settlement.as_mut()) {
            s.confirmed = true;
        }
        self.hold(i, now_ms);
        let fate = SessionFate::Admitted { degraded };
        self.emit(i, now_ms, OutcomeKind::Confirmed, Some(fate));
    }

    fn departure(&mut self, i: usize, now_ms: u64) {
        let Effect::Release(res) = self.session(i).lifecycle.step(Input::Depart) else {
            unreachable!("session {i} departs only while held")
        };
        self.broker.session.release(&res);
        // A held session is settled and closed out; its slab slot — the
        // last thing keeping it live — is recycled here.
        self.live.remove(self.slots[i]);
        self.slots[i] = u32::MAX;
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

    /// Log outcome `kind` of session `i`; when it settles the session with
    /// a fate, close it out too. The result is written first — the
    /// journal's terminal record carries it — then latency is recorded,
    /// the session's trace span closed (outcome point first, while it is
    /// still the innermost open span), the SLO monitor and the tail
    /// sampler fed, and — when nothing is held — the slab slot recycled.
    fn emit(&mut self, i: usize, now_ms: u64, kind: OutcomeKind, settled: Option<SessionFate>) {
        let Some(fate) = settled else {
            return self.record(now_ms, i, kind);
        };
        let broker = self.broker;
        let arrival_ms = self.specs[i].arrival_ms;
        let attempts = self.session(i).lifecycle.attempts();
        let admitted_at_ms = matches!(fate, SessionFate::Admitted { .. }).then_some(now_ms);
        self.results[i] = Some(SessionResult {
            session: i,
            fate,
            attempts,
            admitted_at_ms,
        });
        self.record(now_ms, i, kind);
        let slot = self.slots[i];
        let st = (self.live.get_mut(slot)).expect("a settling session is live");
        let total_ms = now_ms.saturating_sub(arrival_ms);
        if let (Some(rec), Some(m)) = (broker.recorder, &broker.metrics) {
            rec.record(m.session_ms, total_ms as f64);
            rec.trace_point_key(m.session_outcome[fate_index(fate)], None);
        }
        if let Some(span) = st.session_span.take() {
            span.end();
        }
        let failed = !matches!(fate, SessionFate::Admitted { .. });
        let latency_ms = admitted_at_ms.map(|at| at.saturating_sub(arrival_ms) as f64);
        let holds = st.lifecycle.reserved().is_some();
        let mut acc = st.explain.take();
        self.latency.record(total_ms as f64);
        self.slo
            .on_session(broker.recorder, now_ms, latency_ms, failed, attempts as u64);
        // Tail sampling: with a retention policy attached the tracer
        // keeps failures, the top-k slowest and the seeded baseline, and
        // drops the rest now.
        if let Some(t) = self.tracer {
            t.finish_session(i as u64, failed, ms_to_us(total_ms));
        }
        if let Some(keeper) = self.keeper.as_mut() {
            keeper.finish_with(i as u64, failed, ms_to_us(total_ms), || {
                let mut acc = acc.take().unwrap_or_default();
                acc.attempts.shrink_to_fit();
                SessionExplain {
                    session: i as u64,
                    arrival_ms,
                    fate: FATES[fate_index(fate)].1.to_string(),
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
    use super::{ms_to_us, LedgerEntry};

    #[test]
    fn a_ledger_entry_is_16_bytes() {
        assert!(std::mem::size_of::<LedgerEntry>() <= 16);
    }

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
