//! The negotiation procedure (paper §4, steps 1–5).
//!
//! Step 6 (user confirmation) is a phase of the session
//! [`Lifecycle`](crate::Lifecycle) because it is driven by the user's
//! clock; everything up to resource commitment is a pure function of the
//! shared system state and runs here.

use nod_client::ClientMachine;
use nod_cmfs::{AdmissionError, Guarantee, ReservationId, ServerFarm, StreamRequirement};
use nod_mmdb::Catalog;
use nod_mmdoc::{DocumentId, MediaKind, ServerId, Variant};
use nod_netsim::{NetError, NetReservationId, Network, Reach};
use nod_obs::{Counter, HandleSet, Histogram, Recorder, Span, SpanKind};

use crate::classify::{ClassificationStrategy, ScoredOffer};
use crate::cost::CostModel;
use crate::engine::{OfferEngine, OfferKey, RankedOffers, WalkCursor};
use crate::explain::{DecisionLog, RefusalKind, RefusalRecord, Shortfall};
use crate::mapping::{charged_bit_rate, map_requirements, path_supports};
use crate::offer::{EnumerationError, SystemOffer, UserOffer};
use crate::profile::{MmQosSpec, UserProfile};

/// Inert: kept only because `benchmark/` names it; delete in the next
/// benchmark PR. There is one offer order and one walk; nothing reads this.
#[doc(hidden)]
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StreamingMode {
    #[default]
    Auto,
}

/// The five negotiation statuses of paper §4.
///
/// Non-exhaustive so extensions (e.g. a queued/waitlisted status) can be
/// added without breaking downstream matches; the five paper statuses are
/// all terminal.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NegotiationStatus {
    /// Requested QoS and cost ceiling satisfied; resources reserved.
    Succeeded,
    /// Negotiation failed, but a supportable offer (below the request) is
    /// returned with resources reserved.
    FailedWithOffer,
    /// Resource shortage: no feasible offer could be reserved; try later.
    FailedTryLater,
    /// No physical instantiation exists (e.g. no compatible decoder).
    FailedWithoutOffer,
    /// The client machine itself cannot render the requested QoS.
    FailedWithLocalOffer,
}

impl std::fmt::Display for NegotiationStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NegotiationStatus::Succeeded => "SUCCEEDED",
            NegotiationStatus::FailedWithOffer => "FAILEDWITHOFFER",
            NegotiationStatus::FailedTryLater => "FAILEDTRYLATER",
            NegotiationStatus::FailedWithoutOffer => "FAILEDWITHOUTOFFER",
            NegotiationStatus::FailedWithLocalOffer => "FAILEDWITHLOCALOFFER",
        };
        f.write_str(s)
    }
}

// Decision logs carry the terminal status; it serializes as the paper
// spelling (`SUCCEEDED`, `FAILEDTRYLATER`, …), same as `Display`.
impl nod_simcore::json::ToJson for NegotiationStatus {
    fn to_json(&self) -> nod_simcore::json::Json {
        nod_simcore::json::Json::Str(self.to_string())
    }
}

impl nod_simcore::json::FromJson for NegotiationStatus {
    fn from_json(v: &nod_simcore::json::Json) -> Result<Self, nod_simcore::json::JsonError> {
        let nod_simcore::json::Json::Str(s) = v else {
            return Err(nod_simcore::json::JsonError(
                "NegotiationStatus expects a string".to_string(),
            ));
        };
        match s.as_str() {
            "SUCCEEDED" => Ok(NegotiationStatus::Succeeded),
            "FAILEDWITHOFFER" => Ok(NegotiationStatus::FailedWithOffer),
            "FAILEDTRYLATER" => Ok(NegotiationStatus::FailedTryLater),
            "FAILEDWITHOUTOFFER" => Ok(NegotiationStatus::FailedWithoutOffer),
            "FAILEDWITHLOCALOFFER" => Ok(NegotiationStatus::FailedWithLocalOffer),
            other => Err(nod_simcore::json::JsonError(format!(
                "unknown NegotiationStatus `{other}`"
            ))),
        }
    }
}

/// The resources committed for one accepted system offer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionReservation {
    /// Per-stream server reservations.
    pub servers: Vec<(ServerId, ReservationId)>,
    /// Per-stream network path reservations.
    pub network: Vec<NetReservationId>,
}

impl SessionReservation {
    /// Release every committed resource (idempotent at the resource level).
    pub fn release(&self, farm: &ServerFarm, network: &Network) {
        for &(server, id) in &self.servers {
            farm.release(server, id);
        }
        for &id in &self.network {
            network.release(id);
        }
    }
}

/// Counters describing how hard the negotiation worked.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NegotiationTrace {
    /// Variants surviving step-2 compatibility filtering.
    pub feasible_variants: usize,
    /// System offers enumerated.
    pub offers_enumerated: usize,
    /// Offers whose reservation was attempted in step 5.
    pub reservation_attempts: usize,
}

/// The negotiation result (the "negotiation results" of §4: a status and
/// possibly a user offer), plus everything adaptation needs later.
#[derive(Debug)]
pub struct NegotiationOutcome {
    /// The negotiation status.
    pub status: NegotiationStatus,
    /// The user offer derived from the reserved system offer (present for
    /// `Succeeded` and `FailedWithOffer`).
    pub user_offer: Option<UserOffer>,
    /// Index into `ordered_offers` of the reserved offer.
    pub reserved_index: Option<usize>,
    /// The committed resources (present when `user_offer` is).
    pub reservation: Option<SessionReservation>,
    /// The reserved offer itself, materialized from `ordered_offers` at
    /// `reserved_index` — present exactly when `reserved_index` is. Code
    /// that needs the committed offer reads this, not the list.
    pub reserved_offer: Option<ScoredOffer>,
    /// The full classified offer list — kept because "during the active
    /// phase, if QoS violations occur the adaptation procedure makes use of
    /// the whole set of feasible system offers" (§4). It is the list the
    /// step-5 walk left, ordered as far as the walk got; its `len()` is
    /// known, and [`RankedOffers::materialize`] builds an offer by index.
    /// Empty when no offers were ranked (an early or baseline failure).
    pub ordered_offers: RankedOffers,
    /// The clamped QoS returned on `FailedWithLocalOffer`.
    pub local_offer: Option<MmQosSpec>,
    /// Every offer step 5 refused, in attempt order: its index into
    /// `ordered_offers` (the record's rank), which resource said no, and
    /// the shortfall — the "why" behind a FAILEDTRYLATER.
    pub refusals: Vec<RefusalRecord>,
    /// Work counters.
    pub trace: NegotiationTrace,
    /// The decision log, present when [`NegotiationContext::explain`] was
    /// set (or a log was handed to [`commit_prepared`]); boxed, so explain
    /// off does not widen the outcome.
    pub decisions: Option<Box<DecisionLog>>,
}

impl NegotiationOutcome {
    /// An outcome that reserved nothing and carries no offer list: `status`
    /// with the work counters so far.
    pub(crate) fn empty(status: NegotiationStatus, trace: NegotiationTrace) -> NegotiationOutcome {
        NegotiationOutcome {
            status,
            user_offer: None,
            reserved_index: None,
            reservation: None,
            reserved_offer: None,
            ordered_offers: RankedOffers::default(),
            local_offer: None,
            refusals: Vec::new(),
            trace,
            decisions: None,
        }
    }
}

/// Hard errors (misuse rather than negotiation failure).
#[derive(Debug, Clone, PartialEq)]
pub enum NegotiationError {
    /// The requested document is not in the catalog.
    UnknownDocument(DocumentId),
    /// The user profile fails validation.
    InvalidProfile(String),
}

impl std::fmt::Display for NegotiationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NegotiationError::UnknownDocument(id) => write!(f, "unknown document {id}"),
            NegotiationError::InvalidProfile(msg) => write!(f, "invalid profile: {msg}"),
        }
    }
}

impl std::error::Error for NegotiationError {}

/// Shared system state the negotiation runs against.
#[derive(Clone, Copy)]
pub struct NegotiationContext<'a> {
    /// The MM metadata database.
    pub catalog: &'a Catalog,
    /// The file-server farm.
    pub farm: &'a ServerFarm,
    /// The network.
    pub network: &'a Network,
    /// The pricing model.
    pub cost_model: &'a CostModel,
    /// Offer-ordering rule (the paper's SnsThenOif, or a baseline).
    pub strategy: ClassificationStrategy,
    /// Service-guarantee class requested.
    pub guarantee: Guarantee,
    /// Enumeration budget: [`EngineBuilder::finish`](crate::engine::EngineBuilder::finish)
    /// refuses a document whose offer product exceeds it.
    pub enumeration_cap: usize,
    /// Client jitter-buffer size (ms of media) — its preroll enters the
    /// startup-latency check of the time profile.
    pub jitter_buffer_ms: u64,
    /// Inert: kept only because `benchmark/` names it; delete in the next
    /// benchmark PR. Step 5 walks every offer; nothing reads this.
    #[doc(hidden)]
    pub prune_dominated: bool,
    /// Inert: kept only because `benchmark/` names it; delete in the next
    /// benchmark PR. Read by nothing.
    #[doc(hidden)]
    pub streaming: StreamingMode,
    /// Observability hook. `None` (the default everywhere) costs a branch
    /// per stage and nothing else; `Some` times each pipeline stage as a
    /// span and counts offers, reservation attempts and outcomes.
    pub recorder: Option<&'a Recorder>,
    /// Return a [`DecisionLog`] with every outcome (see [`crate::explain`]).
    /// `false` (the default everywhere) costs one branch per walk and
    /// allocates nothing; `true` takes the same walk, records every
    /// refusal, then derives the steps-1–4 half of the log
    /// ([`explain_attempts`]) and fills `NegotiationOutcome::decisions`.
    /// Steps 1–4 never look at it.
    pub explain: bool,
}

/// The negotiation's metric handles, resolved once per recorder.
struct Metrics {
    negotiate: SpanKind,
    enumerate: SpanKind,
    classify: SpanKind,
    commit: SpanKind,
    enumerated: Counter,
    feasible: Histogram,
    classified: Counter,
    /// `negotiation.sns{class=…}`, indexed like [`StaticNegotiationStatus`].
    sns: [Counter; 3],
    /// `negotiation.outcome{status=…}`, indexed by `status as usize`.
    outcome: [Counter; 5],
    attempts: Counter,
    memo_hits: Counter,
    /// `negotiation.commit.refused{reason=…}`, indexed by `kind as usize`.
    refused: [Counter; 5],
}

impl HandleSet for Metrics {
    fn resolve(rec: &Recorder) -> Self {
        use NegotiationStatus::*;
        let outcome = [
            Succeeded,
            FailedWithOffer,
            FailedTryLater,
            FailedWithoutOffer,
            FailedWithLocalOffer,
        ]
        .map(|s| rec.counter_handle("negotiation.outcome", &[("status", &s.to_string())]));
        let refused = [
            RefusalKind::DecodeBudget,
            RefusalKind::PathQos,
            RefusalKind::Startup,
            RefusalKind::Server,
            RefusalKind::Network,
        ]
        .map(|k| rec.counter_handle("negotiation.commit.refused", &[("reason", k.as_str())]));
        Metrics {
            negotiate: rec.span_kind("negotiate"),
            enumerate: rec.span_kind("enumerate"),
            classify: rec.span_kind("classify"),
            commit: rec.span_kind("commit"),
            enumerated: rec.counter_handle("negotiation.offers.enumerated", &[]),
            feasible: rec.histogram_handle("negotiation.feasible_variants", &[]),
            classified: rec.counter_handle("negotiation.offers.classified", &[]),
            sns: ["DESIRABLE", "ACCEPTABLE", "CONSTRAINT"]
                .map(|class| rec.counter_handle("negotiation.sns", &[("class", class)])),
            outcome,
            attempts: rec.counter_handle("negotiation.reservation.attempts", &[]),
            memo_hits: rec.counter_handle("negotiation.commit.memo_hits", &[]),
            refused,
        }
    }
}

/// The recorder of `ctx` with its negotiation handles.
fn observed<'a>(ctx: &NegotiationContext<'a>) -> Option<(&'a Recorder, &'a Metrics)> {
    ctx.recorder.map(|rec| (rec, rec.handles::<Metrics>()))
}

/// Open a stage span: a child of `parent` when a trace is active, a fresh
/// root span when only the recorder is, `None` when observability is off.
fn stage_span<'r>(
    obs: Option<(&'r Recorder, &Metrics)>,
    parent: Option<&Span<'r>>,
    kind: fn(&Metrics) -> SpanKind,
) -> Option<Span<'r>> {
    let (rec, m) = obs?;
    Some(match parent {
        Some(p) => p.child_of(kind(m)),
        None => rec.span_of(kind(m)),
    })
}

/// Output of negotiation steps 1–4 (before resource commitment): either
/// the classified offer list, or an early outcome (local failure /
/// no-feasible-offer).
pub enum Prepared {
    /// Steps 1–4 completed: the classified offers as plain data over their
    /// engine — scored, and ordered as far as anybody has read — and the
    /// trace so far. The decision log is always `None`: steps 1–4 are a
    /// pure function of (catalog, client, document, profile), so their
    /// half of an explanation is derived when one is asked for
    /// ([`explain_attempts`]), never recorded here.
    Offers(RankedOffers, NegotiationTrace, Option<Box<DecisionLog>>),
    /// Negotiation ended before step 5.
    Early(Box<NegotiationOutcome>),
}

/// Run steps 1–4 (local check, compatibility filter, costing,
/// classification) without committing resources. Every caller of the
/// procedure — [`Session::submit`](crate::Session::submit), the broker,
/// advance negotiation
/// ([`Session::submit_future`](crate::Session::submit_future)) — runs this
/// and then walks the result. Returns the whole product scored as plain
/// data ([`RankedOffers`]); nothing is sorted or materialized here.
pub fn prepare(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<Prepared, NegotiationError> {
    let reach = ctx.network.reach(client.id);
    prepare_under(ctx, None, client, document, profile, reach)
}

/// [`prepare`] with its stage spans parented under `parent` (the
/// `negotiate` span) when tracing is active, asking `reach` whether a
/// variant's server has a route to the client.
fn prepare_under(
    ctx: &NegotiationContext<'_>,
    parent: Option<&Span>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
    reach: Reach<'_>,
) -> Result<Prepared, NegotiationError> {
    let early = |status, local_offer, trace| {
        Ok(Prepared::Early(Box::new(NegotiationOutcome {
            local_offer,
            ..NegotiationOutcome::empty(status, trace)
        })))
    };
    profile
        .validate()
        .map_err(NegotiationError::InvalidProfile)?;
    let (doc, stored) = ctx
        .catalog
        .document_variants(document)
        .ok_or(NegotiationError::UnknownDocument(document))?;
    let obs = observed(ctx);
    let mut trace = NegotiationTrace::default();

    // ---- Step 1: static local negotiation -------------------------------
    // The machine must at least render the *worst acceptable* values — if it
    // cannot, no offer the user would accept is renderable and the clamped
    // local capabilities are returned.
    for kind in profile.requested_kinds() {
        if let Some(req) = profile.worst.for_kind(kind) {
            if client.check_local(&req).is_err() {
                let local = clamp_spec(client, &profile.desired);
                return early(NegotiationStatus::FailedWithLocalOffer, Some(local), trace);
            }
        }
    }

    // ---- Step 2: static compatibility checking --------------------------
    // One pass over the document: the probe above found each component's
    // stored variants as one contiguous run of the catalog. A variant is
    // kept when the client can decode it and reach its server, and cloned
    // into the engine as it is found, its partial scores (importance,
    // CostNet + CostSer, SNS flags) precomputed on the way in — so step
    // 3/4 scores each offer from those. The engine is sized once, for every
    // stored variant of the document.
    let span_enumerate = stage_span(obs, parent, |m| m.enumerate);
    let components = doc.monomedia();
    let mut builder = OfferEngine::builder(
        client,
        profile,
        ctx.cost_model,
        ctx.guarantee,
        ctx.strategy,
        components.len(),
        stored.clone().map(<[Variant]>::len).sum(),
    );
    for (m, stored) in components.iter().zip(stored) {
        let feasible = (stored.iter()).filter(|v| client.feasible(v) && reach.server(v.server));
        builder.component(m.id, m.duration_ms, feasible);
    }
    trace.feasible_variants = builder.variants();
    let engine = match builder.finish(ctx.enumeration_cap) {
        Ok(engine) => engine,
        Err(EnumerationError::NoFeasibleVariant(_)) => {
            if let Some(span) = span_enumerate {
                span.end();
            }
            return early(NegotiationStatus::FailedWithoutOffer, None, trace);
        }
        Err(e @ EnumerationError::TooManyOffers { .. }) => {
            // An enumeration blow-up is a deployment configuration problem,
            // not a user-visible negotiation status.
            return Err(NegotiationError::InvalidProfile(e.to_string()));
        }
    };
    trace.offers_enumerated = engine.total();
    if let Some(span) = span_enumerate {
        span.end();
    }
    if let Some((rec, m)) = obs {
        rec.add(m.enumerated, trace.offers_enumerated as u64);
        rec.record(m.feasible, trace.feasible_variants as f64);
    }

    // Steps 3–4 proper, under a `classify` span: score the product.
    // Ordering is left to whoever reads the list.
    let span_classify = stage_span(obs, parent, |m| m.classify);
    let ranked = RankedOffers::new(engine);
    if let Some(span) = span_classify {
        span.end();
    }
    if let Some((rec, m)) = obs {
        rec.add(m.classified, ranked.len() as u64);
        for (c, n) in m.sns.iter().zip(ranked.sns_census()) {
            if n > 0 {
                rec.add(*c, n);
            }
        }
    }
    Ok(Prepared::Offers(ranked, trace, None))
}

/// The steps-1–4 half of a decision log, rebuilt from the classified list
/// those steps produced: component durations, the variant and offer
/// counts, and the score rows of the top
/// [`EXPLAIN_TOP_K`](crate::explain::EXPLAIN_TOP_K) offers plus the chosen
/// one (`log.chosen_rank`, a fact of the walk). The one function behind
/// every decision log, whether it is asked for at once or long after.
fn explain_prepared(ranked: &mut RankedOffers, trace: &NegotiationTrace, log: &mut DecisionLog) {
    log.durations_ms = ranked.engine().durations().collect();
    log.feasible_variants = trace.feasible_variants as u64;
    log.offers_enumerated = trace.offers_enumerated as u64;
    log.record_scores(ranked);
    if let Some(chosen) = log.chosen_rank {
        log.mark_chosen(ranked, chosen as usize);
    }
}

/// [`prepare`] re-run to re-derive what an earlier call already decided:
/// steps 1–4 read only the catalog and the static topology, so the list
/// is the one that call produced. The re-run counts nothing and traces
/// nothing: no recorder, and a reachability check that leaves
/// `net.path.rejections` alone.
pub fn reprepare(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<Prepared, NegotiationError> {
    let quiet = NegotiationContext {
        recorder: None,
        ..*ctx
    };
    let reach = ctx.network.reach(client.id).uncounted();
    prepare_under(&quiet, None, client, document, profile, reach)
}

/// Complete the decision logs of a request's negotiation attempts from
/// their live facts — each attempt's terminal `status`, `chosen_rank` and
/// the `refusals` its walk recorded — by re-running steps 1–4 once for the
/// request ([`reprepare`]), so the rebuilt half is what every attempt saw.
/// Callers that explain only a sample of their sessions (the broker's tail
/// retention) call this for the sessions they keep.
pub fn explain_attempts<'l>(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
    logs: impl IntoIterator<Item = &'l mut DecisionLog>,
) {
    match reprepare(ctx, client, document, profile) {
        Ok(Prepared::Offers(mut ranked, trace, _)) => {
            for log in logs {
                explain_prepared(&mut ranked, &trace, log);
            }
        }
        _ => {
            let Some(doc) = ctx.catalog.document(document) else {
                return;
            };
            for log in logs {
                log.durations_ms = doc
                    .monomedia()
                    .iter()
                    .map(|m| (m.id.0, m.duration_ms))
                    .collect();
            }
        }
    }
}

/// Count the terminal `negotiation.outcome{status=…}` and mark it in the
/// active trace. [`Session::submit`](crate::Session::submit) and
/// [`commit_prepared`] do this themselves; a caller that ends a
/// negotiation early on [`Prepared::Early`] calls it.
pub fn record_outcome(rec: &Recorder, status: NegotiationStatus) {
    let c = rec.handles::<Metrics>().outcome[status as usize];
    rec.add(c, 1);
    rec.trace_point_key(c.key(), None);
}

/// Run steps 1–5 for `client` requesting `document` under `profile` — the
/// implementation behind [`crate::Session::submit`]: [`prepare`], then the
/// walk of [`commit_prepared`], under one root span.
///
/// With a [`NegotiationContext::recorder`] attached, the whole call is
/// timed as a `negotiate` span with `enumerate`/`classify` and `commit`
/// children, and the final status increments
/// `negotiation.outcome{status=…}`.
pub(crate) fn negotiate_impl(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, NegotiationError> {
    let root = stage_span(observed(ctx), None, |m| m.negotiate);
    let reach = ctx.network.reach(client.id);
    let prepared = prepare_under(ctx, root.as_ref(), client, document, profile, reach);
    let result = prepared.map(|prepared| match prepared {
        Prepared::Early(mut outcome) => {
            if ctx.explain {
                let mut log = Box::new(DecisionLog {
                    status: Some(outcome.status),
                    ..DecisionLog::default()
                });
                explain_attempts(ctx, client, document, profile, [&mut *log]);
                outcome.decisions = Some(log);
            }
            *outcome
        }
        Prepared::Offers(ranked, trace, log) => {
            commit_walk(ctx, root.as_ref(), client, profile, ranked, trace, log)
        }
    });
    if let Some(span) = root {
        span.end();
    }
    if let (Ok(outcome), Some(rec)) = (&result, ctx.recorder) {
        record_outcome(rec, outcome.status);
    }
    result
}

/// Per-walk refusal census. A commit walk refuses dozens of offers for a
/// handful of distinct reasons, and at fleet scale emitting one counter
/// increment and one trace point per refused offer made the telemetry the
/// dominant cost of the walk (B11). The census accumulates counts in
/// first-occurrence order and emits one
/// `negotiation.commit.refused{reason=}` counter delta and one trace
/// point (value = count) per distinct reason at the end of the walk —
/// identical counter totals, bounded trace volume. It counts *offers*;
/// `memo_hits` says how many of them were answered from the walk's memo
/// without asking a server or a link.
#[derive(Default)]
struct RefusalCensus {
    attempts: u64,
    memo_hits: u64,
    by_reason: Vec<(RefusalKind, u64)>,
}

impl RefusalCensus {
    fn attempt(&mut self, refused: Option<RefusalKind>) {
        self.attempts += 1;
        if let Some(kind) = refused {
            match self.by_reason.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => self.by_reason.push((kind, 1)),
            }
        }
    }

    /// Emit the walk's totals (call inside the `commit` span so the trace
    /// points land under it).
    fn emit(self, rec: &Recorder, m: &Metrics) {
        if self.attempts > 0 {
            rec.add(m.attempts, self.attempts);
        }
        if self.memo_hits > 0 {
            rec.add(m.memo_hits, self.memo_hits);
        }
        for (kind, n) in self.by_reason {
            let c = m.refused[kind as usize];
            rec.add(c, n);
            rec.trace_point_key(c.key(), Some(n as f64));
        }
    }
}

/// One step-5 walk: the attempt it makes per offer, and what it has
/// learned so far. Negotiation ([`commit_prepared`]) and adaptation
/// ([`crate::adapt::adapt`]) both commit an ordered list through it.
///
/// Every refused attempt rolls back completely ([`PendingCommit`]), so each
/// attempt of a walk starts from the same farm and network state, and a
/// refusal at component `d` depends on that state and on the variants
/// chosen for components `0..=d` only. The walk therefore judges each such
/// prefix once: `refused` remembers it, and a later offer sharing the
/// prefix gets the identical [`RefusalRecord`], re-cited at its own rank,
/// without asking a server or a link again. Nothing else touches the farm
/// or the network while a walk runs, and a success always performs the
/// real reservations, so the memo can never over-commit or leak.
pub(crate) struct CommitWalk<'c, 'a> {
    ctx: &'c NegotiationContext<'a>,
    client: &'c ClientMachine,
    max_startup_ms: u64,
    refused: RefusedPrefixes,
    census: RefusalCensus,
}

impl<'c, 'a> CommitWalk<'c, 'a> {
    /// A walk that refuses offers whose estimated startup exceeds
    /// `max_startup_ms` (`u64::MAX`: no bound).
    pub(crate) fn new(
        ctx: &'c NegotiationContext<'a>,
        client: &'c ClientMachine,
        max_startup_ms: u64,
    ) -> Self {
        CommitWalk {
            ctx,
            client,
            max_startup_ms,
            refused: RefusedPrefixes::default(),
            census: RefusalCensus::default(),
        }
    }

    /// Step 5 over `ranked` from a fresh [`WalkCursor`]: attempt its
    /// offers in reservation order, passing over `skip`, and stop at the
    /// first that commits — its classified index and reservation. Returns
    /// how many offers were attempted with it; `refused` receives every
    /// refusal, ranked by its offer's index, in walk order.
    pub(crate) fn first_fit(
        &mut self,
        ranked: &mut RankedOffers,
        skip: Option<usize>,
        mut refused: impl FnMut(RefusalRecord),
    ) -> (usize, Option<(usize, SessionReservation)>) {
        let mut attempts = 0;
        let mut cursor = WalkCursor::default();
        while let Some(idx) = ranked.next_attempt(&mut cursor) {
            if Some(idx) == skip {
                continue;
            }
            attempts += 1;
            let key = ranked.key(idx);
            match self.attempt(ranked.engine(), key) {
                Ok(reservation) => return (attempts, Some((idx, reservation))),
                Err(refusal) => refused(refusal.at_rank(idx as u64)),
            }
        }
        (attempts, None)
    }

    /// Try to commit the offer `key` of `engine`, by reference: nothing
    /// is materialized here. A refusal is cited at rank 0, or at the rank
    /// of the offer that first drew it from the memo's prefix.
    fn attempt(
        &mut self,
        engine: &OfferEngine,
        key: OfferKey,
    ) -> Result<SessionReservation, RefusalRecord> {
        let result = self.judge(engine, key);
        if self.ctx.recorder.is_some() {
            self.census
                .attempt(result.as_ref().err().map(RefusalRecord::kind));
        }
        result
    }

    /// The attempt proper: the decode verdict scored with the offer, then
    /// the memo, then the servers and links.
    fn judge(
        &mut self,
        engine: &OfferEngine,
        key: OfferKey,
    ) -> Result<SessionReservation, RefusalRecord> {
        if !key.decodable() {
            return Err(decode_refusal());
        }
        if let Some(refusal) = self.refused.get(engine, key.rank()) {
            self.census.memo_hits += 1;
            return Err(refusal);
        }
        let variants = engine.streams_at(key.rank()).map(|(v, ..)| v);
        reserve_streams(self.ctx, self.client, variants, self.max_startup_ms).map_err(
            |(d, refusal)| {
                // The last component's prefix is the whole offer, which
                // no walk attempts twice.
                if d + 1 < engine.components() {
                    self.refused.insert(engine, key.rank(), d, refusal);
                }
                refusal
            },
        )
    }

    /// Emit the census of the `commit` span being closed; the memo stays.
    fn emit_census(&mut self) {
        if let Some((rec, m)) = observed(self.ctx) {
            std::mem::take(&mut self.census).emit(rec, m);
        }
    }
}

/// A walk's refused prefixes, indexed by component and prefix from the
/// engine's strides: a trie whose nodes are blocks of slots, one slot per
/// feasible variant of a component, all in one arena. Block 0 holds
/// component 0's variants; a slot that saw a refusal deeper down points at
/// the block of the next component's variants under it. A lookup follows
/// the offer's choices down from block 0 and stops at the first slot that
/// is open (nothing refused under that prefix) or refused.
///
/// The arena is allocated on the first refusal, once, with room for every
/// prefix the walk could ever refuse ([`OfferEngine::inner_prefixes`]) and
/// without filling it: the first refusal writes the root block and one
/// block per component on its path, later ones only the blocks they open,
/// so a product of a thousand prefixes pays for the few it touches.
///
/// At most one prefix on an offer's path is ever refused: offers that
/// share a refused prefix never reach past it, and a component that
/// passed once passes on every later attempt of the walk. So a refused
/// slot never needs a block under it, and a slot with a block is never
/// refused.
#[derive(Default)]
struct RefusedPrefixes {
    slots: Vec<PrefixSlot>,
}

#[derive(Clone, Copy)]
enum PrefixSlot {
    /// No attempt of the walk has been refused at or under this prefix.
    Open,
    /// Refused under this prefix: the next component's block starts here.
    Deeper(u32),
    /// Refused at this component: every offer sharing the prefix draws
    /// this refusal, at its own rank.
    Refused(RefusalRecord),
}

impl RefusedPrefixes {
    /// The refusal remembered for a prefix of the offer at `rank`, if any.
    fn get(&self, engine: &OfferEngine, rank: u64) -> Option<RefusalRecord> {
        if self.slots.is_empty() {
            return None;
        }
        let mut block = 0;
        for choice in engine.choices(rank) {
            match &self.slots[block + choice] {
                PrefixSlot::Open => return None,
                PrefixSlot::Refused(refusal) => return Some(*refusal),
                PrefixSlot::Deeper(next) => block = *next as usize,
            }
        }
        None
    }

    /// Remember `refusal`, drawn at component `d` by the offer at `rank`
    /// (`d` is not the last component).
    fn insert(&mut self, engine: &OfferEngine, rank: u64, d: usize, refusal: RefusalRecord) {
        if self.slots.is_empty() {
            self.slots.reserve_exact(engine.inner_prefixes());
            self.slots.resize(engine.variants_of(0), PrefixSlot::Open);
        }
        let mut block = 0;
        for (k, choice) in engine.choices(rank).enumerate() {
            let at = block + choice;
            if k == d {
                self.slots[at] = PrefixSlot::Refused(refusal);
                return;
            }
            block = match self.slots[at] {
                PrefixSlot::Deeper(next) => next as usize,
                _ => {
                    let next = self.slots.len();
                    let len = engine.variants_of(k + 1);
                    self.slots.resize(next + len, PrefixSlot::Open);
                    self.slots[at] = PrefixSlot::Deeper(next as u32);
                    next
                }
            };
        }
    }
}

/// The step-5 walk: attempt the offers of `ranked` in reservation order
/// (one [`WalkCursor`], ordering the list only as far as the walk gets)
/// and commit the first that fits. An attempted offer's index is its
/// classified position; only the offer that commits is materialized.
/// Each refusal is pushed once, to the outcome's `refusals`; `decisions`
/// (or, with [`NegotiationContext::explain`], a fresh log) receives a copy
/// of that list and the walk's other live facts after the walk; with
/// `explain` the rest of the log is derived at once.
fn commit_walk(
    ctx: &NegotiationContext<'_>,
    root: Option<&Span>,
    client: &ClientMachine,
    profile: &UserProfile,
    mut ranked: RankedOffers,
    mut trace: NegotiationTrace,
    decisions: Option<Box<DecisionLog>>,
) -> NegotiationOutcome {
    // One commit span covers the whole walk (step 5 as a stage); the
    // per-candidate refusal points inside it carry the verdicts.
    let span_commit = stage_span(observed(ctx), root, |m| m.commit);
    let mut decisions = decisions.or_else(|| ctx.explain.then(Box::default));
    let mut walk = CommitWalk::new(ctx, client, profile.time.max_startup_ms);
    // Sized once, on the first refusal: the walk can refuse every offer.
    let offers = ranked.len();
    let mut refusals: Vec<RefusalRecord> = Vec::new();
    let (attempts, committed) = walk.first_fit(&mut ranked, None, |refusal| {
        if refusals.capacity() == 0 {
            refusals.reserve_exact(offers);
        }
        refusals.push(refusal);
    });
    trace.reservation_attempts += attempts;
    let committed = committed.map(|(idx, reservation)| (idx, ranked.materialize(idx), reservation));
    walk.emit_census();
    if let Some(span) = span_commit {
        span.end();
    }

    let status = match &committed {
        Some((_, scored, _)) if scored.satisfies_request => NegotiationStatus::Succeeded,
        Some(_) => NegotiationStatus::FailedWithOffer,
        None => NegotiationStatus::FailedTryLater,
    };
    if let Some(l) = decisions.as_deref_mut() {
        l.refusals = refusals.to_vec();
        l.chosen_rank = committed.as_ref().map(|(idx, ..)| *idx as u64);
        l.status = Some(status);
        if ctx.explain {
            explain_prepared(&mut ranked, &trace, l);
        }
    }
    let (reserved_index, reserved_offer, reservation) = match committed {
        Some((idx, scored, reservation)) => (Some(idx), Some(scored), Some(reservation)),
        None => (None, None, None),
    };
    NegotiationOutcome {
        status,
        user_offer: reserved_offer.as_ref().map(|s| s.offer.to_user_offer()),
        reserved_index,
        reservation,
        reserved_offer,
        ordered_offers: ranked,
        local_offer: None,
        refusals,
        trace,
        decisions,
    }
}

/// Step 5 alone: walk `ordered` in reservation order and commit the first
/// offer that fits, emitting the same per-walk counters and terminal
/// `negotiation.outcome{status=…}` as
/// [`Session::submit`](crate::Session::submit) — which is [`prepare`]
/// followed by this same walk.
///
/// [`prepare`] reads only the catalog and static topology, while this walk
/// is the only part that touches live farm and network capacity.
///
/// Offers are attempted by reference and only the one that commits is
/// materialized; the list is ordered only as far as the walk gets, and the
/// outcome's `ordered_offers` keeps it that way. Each prefix of chosen
/// variants is judged once per walk, against the capacity the walk started
/// with: a refused prefix refuses every later offer that shares it without
/// asking the server or link again, with the identical [`RefusalRecord`].
/// A success always performs the real reservations, so the memo can never
/// over-commit or leak.
///
/// `decisions`, when given, receives the walk's live facts — a copy of
/// the outcome's refusals, the chosen rank, the status — and nothing
/// else; with [`NegotiationContext::explain`] set the walk starts a log
/// if none was given and derives the rest of it at once, exactly as
/// [`explain_attempts`] would later.
///
/// A refused session's retry prepares again (the broker does not carry
/// the list across attempts).
pub fn commit_prepared(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    profile: &UserProfile,
    ordered: RankedOffers,
    trace: NegotiationTrace,
    decisions: Option<Box<DecisionLog>>,
) -> NegotiationOutcome {
    let outcome = commit_walk(ctx, None, client, profile, ordered, trace, decisions);
    if let Some(rec) = ctx.recorder {
        record_outcome(rec, outcome.status);
    }
    outcome
}

/// Holds the partially reserved resources of one in-flight two-phase
/// commit. Dropping the guard releases everything it still holds, so every
/// refusal path — and a panic mid-commit — rolls back automatically;
/// [`PendingCommit::confirm`] is the only way to keep the reservations.
struct PendingCommit<'a> {
    farm: &'a ServerFarm,
    network: &'a Network,
    servers: Vec<(ServerId, ReservationId)>,
    nets: Vec<NetReservationId>,
    confirmed: bool,
}

impl<'a> PendingCommit<'a> {
    fn new(farm: &'a ServerFarm, network: &'a Network) -> Self {
        PendingCommit {
            farm,
            network,
            servers: Vec::new(),
            nets: Vec::new(),
            confirmed: false,
        }
    }

    /// Atomically turn the held resources into a confirmed reservation.
    fn confirm(mut self) -> SessionReservation {
        self.confirmed = true;
        SessionReservation {
            servers: std::mem::take(&mut self.servers),
            network: std::mem::take(&mut self.nets),
        }
    }
}

impl Drop for PendingCommit<'_> {
    fn drop(&mut self) {
        if self.confirmed {
            return;
        }
        for &(server, id) in &self.servers {
            self.farm.release(server, id);
        }
        for &id in &self.nets {
            self.network.release(id);
        }
    }
}

fn admission_shortfall(err: nod_cmfs::FarmError) -> Shortfall {
    let err = match err {
        nod_cmfs::FarmError::Admission(e) => e,
        // An offer naming a nonexistent server cannot be admitted anywhere
        // on the path — report it as a path failure.
        nod_cmfs::FarmError::NoSuchServer(_) => return Shortfall::PathQos,
    };
    match err {
        AdmissionError::DiskSaturated {
            used_us,
            requested_us,
            capacity_us,
        } => Shortfall::Disk {
            used_us,
            requested_us,
            capacity_us,
        },
        AdmissionError::InterfaceSaturated {
            used_bps,
            requested_bps,
            capacity_bps,
        } => Shortfall::Interface {
            used_bps,
            requested_bps,
            capacity_bps,
        },
        AdmissionError::StreamLimit { limit } => Shortfall::StreamLimit {
            limit: limit as u64,
        },
        AdmissionError::AdmissionPaused => Shortfall::AdmissionPaused,
    }
}

fn net_shortfall(err: NetError, requested: u64) -> Shortfall {
    match err {
        NetError::InsufficientBandwidth {
            link,
            available_bps,
            ..
        } => Shortfall::Link {
            link: link.0,
            requested_bps: requested,
            available_bps,
        },
        NetError::UnknownClient(_) | NetError::UnknownServer(_) | NetError::Unreachable(_) => {
            Shortfall::PathQos
        }
    }
}

/// Two-phase commit of one system offer: reserve every stream on its server
/// and its network path, rolling back everything on the first refusal.
/// Offers whose estimated startup latency exceeds `max_startup_ms` (the
/// time profile's delivery bound) are refused like any other failed
/// reservation. A refusal is a [`RefusalRecord`] at rank 0 (cite it for
/// the offer's rank with [`RefusalRecord::at_rank`]): which resource said
/// no, its server, and the concrete shortfall — which disk round /
/// interface / link ran out, requested vs available. The one public commit
/// primitive; the step-5 walk runs the same two checks per offer, by
/// reference, reading the decode verdict off the offer's ranking key.
pub fn try_commit_refusal(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    offer: &SystemOffer,
    max_startup_ms: u64,
) -> Result<SessionReservation, RefusalRecord> {
    if !client.can_decode_concurrently(offer.variants.iter()) {
        return Err(decode_refusal());
    }
    reserve_streams(ctx, client, offer.variants.iter(), max_startup_ms)
        .map_err(|(_, refusal)| refusal)
}

/// The refusal, at rank 0, of an offer whose streams do not fit the
/// client's concurrent decode budget (per-variant decodability was step
/// 2; this guards the whole configuration).
fn decode_refusal() -> RefusalRecord {
    RefusalRecord::new(0, RefusalKind::DecodeBudget, None, Shortfall::DecodeBudget)
}

/// Two-phase commit of an offer's streams, in document component order:
/// reserve each on its server and its network path, rolling back
/// everything on the first refusal — which is returned, at rank 0, with
/// the index of the component that drew it.
fn reserve_streams<'v>(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    variants: impl Iterator<Item = &'v Variant>,
    max_startup_ms: u64,
) -> Result<SessionReservation, (usize, RefusalRecord)> {
    // Any early return (or panic) below drops the guard, which releases
    // every reservation taken so far — no refusal path can leak capacity.
    let mut pending = PendingCommit::new(ctx.farm, ctx.network);

    for (d, variant) in variants.enumerate() {
        let server = variant.server;
        let refuse = |kind, server: Option<ServerId>, shortfall| {
            Err((
                d,
                RefusalRecord::new(0, kind, server.map(|s| s.0), shortfall),
            ))
        };
        let spec = map_requirements(variant);
        // Load-dependent path QoS check (§6 constants vs. current metrics).
        let metrics = match ctx.network.path_metrics(client.id, server) {
            Ok(m) if path_supports(&spec, &m) => m,
            _ => return refuse(RefusalKind::PathQos, Some(server), Shortfall::PathQos),
        };
        // Time-profile check: the stream must be able to start in time.
        if variant.blocks_per_second > 0 {
            let round_us = ctx
                .farm
                .server(server)
                .map(|s| s.config().round_us)
                .unwrap_or(0);
            let estimated_ms = crate::startup::estimate_startup_ms(
                round_us,
                metrics.delay_us,
                crate::startup::preroll_ms(ctx.jitter_buffer_ms),
            );
            if estimated_ms > max_startup_ms {
                let limit_ms = max_startup_ms;
                let shortfall = Shortfall::Startup {
                    estimated_ms,
                    limit_ms,
                };
                return refuse(RefusalKind::Startup, None, shortfall);
            }
        }
        // Server admission (continuous media only occupy disk rounds, but
        // discrete media still count against stream slots).
        let req = StreamRequirement::for_variant(variant, ctx.guarantee);
        match ctx.farm.try_reserve(server, req) {
            Ok(id) => pending.servers.push((server, id)),
            Err(e) => return refuse(RefusalKind::Server, Some(server), admission_shortfall(e)),
        }
        // Network bandwidth along the path (continuous media only; discrete
        // transfers ride the residual capacity ahead of playout).
        if variant.blocks_per_second > 0 {
            let bps = charged_bit_rate(variant, ctx.guarantee);
            match ctx.network.try_reserve(client.id, server, bps) {
                Ok(id) => pending.nets.push(id),
                Err(e) => return refuse(RefusalKind::Network, Some(server), net_shortfall(e, bps)),
            }
        }
    }
    Ok(pending.confirm())
}

fn clamp_spec(client: &ClientMachine, desired: &MmQosSpec) -> MmQosSpec {
    let mut out = MmQosSpec::default();
    for kind in MediaKind::ALL {
        if let Some(q) = desired.for_kind(kind) {
            match client.clamp_to_local(&q) {
                nod_mmdoc::MediaQos::Video(v) => out.video = Some(v),
                nod_mmdoc::MediaQos::Audio(a) => out.audio = Some(a),
                nod_mmdoc::MediaQos::Text(t) => out.text = Some(t),
                nod_mmdoc::MediaQos::Image(i) => out.image = Some(i),
                nod_mmdoc::MediaQos::Graphic(g) => out.graphic = Some(g),
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    // The unit tests exercise the crate-private implementation directly;
    // external callers go through `Session::submit`.
    use super::negotiate_impl as negotiate;
    use crate::profile::tv_news_profile;
    use nod_cmfs::ServerConfig;
    use nod_mmdb::{CorpusBuilder, CorpusParams};
    use nod_mmdoc::ClientId;
    use nod_netsim::Topology;
    use nod_simcore::StreamRng;

    struct World {
        catalog: Catalog,
        farm: ServerFarm,
        network: Network,
        cost: CostModel,
    }

    fn world(seed: u64) -> World {
        let mut rng = StreamRng::new(seed);
        let servers = 3usize;
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 8,
            servers: (0..servers as u64).map(nod_mmdoc::ServerId).collect(),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        World {
            catalog,
            farm: ServerFarm::uniform(servers, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(4, servers, 25_000_000, 155_000_000)),
            cost: CostModel::era_default(),
        }
    }

    fn ctx<'a>(w: &'a World) -> NegotiationContext<'a> {
        NegotiationContext {
            catalog: &w.catalog,
            farm: &w.farm,
            network: &w.network,
            cost_model: &w.cost,
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: Guarantee::Guaranteed,
            enumeration_cap: 200_000,
            jitter_buffer_ms: 2_000,
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder: None,
            explain: false,
        }
    }

    #[test]
    fn successful_negotiation_reserves_resources() {
        let w = world(1);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert!(
            matches!(
                out.status,
                NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
            ),
            "status={:?}",
            out.status
        );
        let res = out.reservation.as_ref().expect("resources reserved");
        assert!(!res.servers.is_empty());
        assert!(!res.network.is_empty());
        assert!(out.user_offer.is_some());
        assert!(out.trace.offers_enumerated > 0);
        // Cleanup restores the idle state.
        res.release(&w.farm, &w.network);
        assert_eq!(w.network.active_reservations(), 0);
        assert!(w.farm.mean_disk_utilization() < 1e-9);
    }

    #[test]
    fn succeeded_offer_satisfies_the_request() {
        let w = world(2);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate(&ctx(&w), &client, DocumentId(2), &tv_news_profile()).unwrap();
        if out.status == NegotiationStatus::Succeeded {
            let reserved = out.reserved_offer.as_ref().unwrap();
            assert!(reserved.satisfies_request);
            assert!(reserved.offer.cost <= tv_news_profile().max_cost);
        }
    }

    #[test]
    fn local_failure_on_incapable_client() {
        let w = world(3);
        // Budget PC with a black&white screen: the tv-news worst-acceptable
        // grey video cannot render.
        let mut client = ClientMachine::era_budget_pc(ClientId(0));
        client.display.color = nod_mmdoc::ColorDepth::BlackWhite;
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedWithLocalOffer);
        let local = out.local_offer.expect("clamped local offer");
        assert_eq!(
            local.video.unwrap().color,
            nod_mmdoc::ColorDepth::BlackWhite
        );
        assert!(out.reservation.is_none());
    }

    #[test]
    fn no_decoder_means_failed_without_offer() {
        let w = world(4);
        // A client that renders anything but decodes nothing.
        let mut client = ClientMachine::era_workstation(ClientId(0));
        client.decoders = nod_client::DecoderRegistry::new();
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedWithoutOffer);
        assert!(out.ordered_offers.is_empty());
    }

    #[test]
    fn resource_exhaustion_gives_try_later() {
        let w = world(5);
        let client = ClientMachine::era_workstation(ClientId(0));
        // Choke every server.
        for id in w.farm.ids() {
            w.farm.server(id).unwrap().set_health(0.0);
        }
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedTryLater);
        assert!(
            !out.ordered_offers.is_empty(),
            "offers existed but none reservable"
        );
        assert!(out.trace.reservation_attempts >= out.ordered_offers.len());
        assert_eq!(w.network.active_reservations(), 0, "no leaked reservations");
    }

    #[test]
    fn try_later_carries_refusal_diagnostics() {
        let w = world(14);
        let client = ClientMachine::era_workstation(ClientId(0));
        for s in w.farm.ids() {
            w.farm.server(s).unwrap().set_health(0.0);
        }
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedTryLater);
        assert_eq!(out.refusals.len(), out.ordered_offers.len());
        // Every refusal names the server that said no.
        for refusal in &out.refusals {
            assert!((refusal.rank() as usize) < out.ordered_offers.len());
            assert_eq!(refusal.kind(), RefusalKind::Server, "{refusal:?}");
            assert!(refusal.server().is_some(), "{refusal:?}");
            assert!(!refusal.to_string().is_empty());
        }
    }

    #[test]
    fn a_refused_prefix_is_remembered_in_one_record_wide_slot() {
        // The memo's arena holds one slot per refusable prefix; a slot is
        // the refusal record itself, the tag folded into its kind.
        assert!(std::mem::size_of::<PrefixSlot>() <= 40);
        assert_eq!(std::mem::size_of::<RefusalRecord>(), 40);
    }

    #[test]
    fn zero_decode_budget_blocks_every_video_offer() {
        let w = world(10);
        let mut client = ClientMachine::era_workstation(ClientId(0));
        client.decode_budget = 0.0;
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        // Offers exist (per-variant decoding is fine) but no combination
        // fits the concurrent budget: resource-style failure.
        assert_eq!(out.status, NegotiationStatus::FailedTryLater);
        assert!(!out.ordered_offers.is_empty());
        assert_eq!(w.network.active_reservations(), 0);
    }

    #[test]
    fn impossible_startup_deadline_blocks_commitment() {
        let w = world(9);
        let client = ClientMachine::era_workstation(ClientId(0));
        let mut profile = tv_news_profile();
        // 1 ms startup budget: no round-based server can deliver that.
        profile.time.max_startup_ms = 1;
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedTryLater);
        assert_eq!(w.network.active_reservations(), 0);
        // Relaxing the deadline restores service.
        profile.time.max_startup_ms = 10_000;
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
        assert!(out.reservation.is_some());
        out.reservation.unwrap().release(&w.farm, &w.network);
    }

    #[test]
    fn recorder_counts_stages_and_outcomes() {
        let w = world(12);
        let rec = Recorder::new();
        let mut c = ctx(&w);
        c.recorder = Some(&rec);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate(&c, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter_sum("negotiation.outcome"), 1);
        assert_eq!(
            snap.counter("negotiation.offers.enumerated"),
            out.trace.offers_enumerated as u64
        );
        assert_eq!(
            snap.counter("negotiation.reservation.attempts"),
            out.trace.reservation_attempts as u64
        );
        assert_eq!(
            snap.counter_sum("negotiation.sns"),
            out.ordered_offers.len() as u64
        );
        for stage in ["negotiate", "enumerate", "classify", "commit"] {
            assert!(
                snap.histograms.contains_key(&format!("span.{stage}.ms")),
                "missing span histogram for {stage}"
            );
        }
    }

    #[test]
    fn unknown_document_is_an_error() {
        let w = world(6);
        let client = ClientMachine::era_workstation(ClientId(0));
        assert_eq!(
            negotiate(&ctx(&w), &client, DocumentId(999), &tv_news_profile()).unwrap_err(),
            NegotiationError::UnknownDocument(DocumentId(999))
        );
    }

    #[test]
    fn repeated_negotiations_fill_then_exhaust() {
        let w = world(7);
        let c = ctx(&w);
        let mut succeeded = 0usize;
        let mut try_later = 0usize;
        // Many clients pull the same document until resources run out.
        for i in 0..64 {
            let client = ClientMachine::era_workstation(ClientId(i % 4));
            let out = negotiate(&c, &client, DocumentId(1), &tv_news_profile()).unwrap();
            match out.status {
                NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer => {
                    succeeded += 1;
                }
                NegotiationStatus::FailedTryLater => {
                    try_later += 1;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(succeeded > 0, "some sessions must be admitted");
        assert!(try_later > 0, "the system must eventually saturate");
    }

    #[test]
    fn failed_commit_leaves_no_partial_reservations() {
        let w = world(8);
        let client = ClientMachine::era_workstation(ClientId(0));
        // Saturate only the *network* so server reservations succeed first
        // and must be rolled back when the path reservation fails.
        let hog = w
            .network
            .try_reserve(ClientId(0), nod_mmdoc::ServerId(0), 24_900_000);
        assert!(hog.is_ok());
        let baseline_streams: usize = w
            .farm
            .ids()
            .iter()
            .map(|&s| w.farm.server(s).unwrap().active_streams())
            .sum();
        let out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        if out.status == NegotiationStatus::FailedTryLater {
            let after: usize = w
                .farm
                .ids()
                .iter()
                .map(|&s| w.farm.server(s).unwrap().active_streams())
                .sum();
            assert_eq!(
                after, baseline_streams,
                "partial server reservations leaked"
            );
        }
    }
}
