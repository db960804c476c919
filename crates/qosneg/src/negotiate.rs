//! The negotiation procedure (paper §4, steps 1–5).
//!
//! Step 6 (user confirmation) lives in [`crate::confirm`] because it is
//! driven by wall-clock interaction; everything up to resource commitment
//! is a pure function of the shared system state and runs here.

use nod_client::ClientMachine;
use nod_cmfs::{AdmissionError, Guarantee, ReservationId, ServerFarm, StreamRequirement};
use nod_mmdb::Catalog;
use nod_mmdoc::{DocumentId, MediaKind, MonomediaId, ServerId, Variant};
use nod_netsim::{NetError, NetReservationId, Network};
use nod_obs::{Recorder, Span};
use std::collections::BTreeMap;

use crate::classify::{ClassificationStrategy, ScoredOffer};
use crate::cost::CostModel;
use crate::engine::{OfferEngine, OfferList, RankedOffers, WalkCursor};
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Offers removed by dominance pruning (0 unless enabled).
    pub offers_pruned: usize,
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
    /// The reserved offer itself (a clone of
    /// `ordered_offers[reserved_index]`) — present exactly when
    /// `reserved_index` is. Reading it does *not* force a deferred
    /// [`OfferList`] to materialize.
    pub reserved_offer: Option<ScoredOffer>,
    /// The full classified offer list — kept because "during the active
    /// phase, if QoS violations occur the adaptation procedure makes use of
    /// the whole set of feasible system offers" (§4). It is **deferred**:
    /// the list exists logically (its `len()` is known) but its offers are
    /// only materialized when first accessed as a slice.
    pub ordered_offers: OfferList,
    /// The clamped QoS returned on `FailedWithLocalOffer`.
    pub local_offer: Option<MmQosSpec>,
    /// Per-offer refusal reasons collected during step 5 (offer index into
    /// `ordered_offers`, reason) — the "why" behind a FAILEDTRYLATER.
    pub commit_failures: Vec<(usize, CommitFailure)>,
    /// Work counters.
    pub trace: NegotiationTrace,
    /// The decision log, present iff [`NegotiationContext::explain`] was
    /// set (boxed: explain off must not widen the outcome).
    pub decisions: Option<Box<DecisionLog>>,
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
    /// Enumeration budget: [`OfferEngine::build`] refuses a document whose
    /// offer product exceeds it.
    pub enumeration_cap: usize,
    /// Client jitter-buffer size (ms of media) — its preroll enters the
    /// startup-latency check of the time profile.
    pub jitter_buffer_ms: u64,
    /// Prune dominated offers before classification (see
    /// [`crate::prune`]). Only applied when the profile's importance is
    /// monotone (the safety precondition). Pruning thins the step-5
    /// fallback list: a dominated offer can occasionally be reservable when
    /// its dominator is not, so the paper's exact fallback semantics keep
    /// this off; it is an optimization knob for large catalogs.
    pub prune_dominated: bool,
    /// Inert: kept only because `benchmark/` names it; delete in the next
    /// benchmark PR. Read by nothing.
    #[doc(hidden)]
    pub streaming: StreamingMode,
    /// Observability hook. `None` (the default everywhere) costs a branch
    /// per stage and nothing else; `Some` times each pipeline stage as a
    /// span and counts offers, reservation attempts and outcomes.
    pub recorder: Option<&'a Recorder>,
    /// Record a [`DecisionLog`] on every outcome (see [`crate::explain`]).
    /// `false` (the default everywhere) costs one branch per stage and
    /// allocates nothing; `true` takes the same walk and additionally
    /// reads the log's top-k rows off the head of the order, records every
    /// refusal, and fills `NegotiationOutcome::decisions`.
    pub explain: bool,
}

/// Open a stage span: a child of `parent` when a trace is active, a fresh
/// root span when only the recorder is, `None` when observability is off.
fn stage_span(
    ctx: &NegotiationContext<'_>,
    parent: Option<&Span>,
    name: &'static str,
) -> Option<Span> {
    match (parent, ctx.recorder) {
        (Some(p), _) => Some(p.child(name)),
        (None, Some(rec)) => Some(rec.span(name)),
        (None, None) => None,
    }
}

/// Output of negotiation steps 1–4 (before resource commitment): either
/// the classified offer list, or an early outcome (local failure /
/// no-feasible-offer).
pub enum Prepared {
    /// Steps 1–4 completed: the classified offers as plain data over their
    /// engine — scored, and ordered as far as anybody has read — the trace
    /// so far, and — when [`NegotiationContext::explain`] is set — the
    /// decision log of those steps (pruning decisions, score
    /// decomposition). Step 5 ([`commit_prepared`]) finishes the log with
    /// refusals and the chosen rank.
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
/// data ([`RankedOffers`]); nothing is sorted or materialized here beyond
/// explain's top-k rows.
pub fn prepare(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<Prepared, NegotiationError> {
    prepare_under(ctx, None, client, document, profile)
}

/// [`prepare`] with its stage spans parented under `parent` (the
/// `negotiate` span) when tracing is active.
fn prepare_under(
    ctx: &NegotiationContext<'_>,
    parent: Option<&Span>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<Prepared, NegotiationError> {
    let mut log: Option<Box<DecisionLog>> = ctx.explain.then(Box::default);
    let early = |status, local_offer, trace, log: Option<Box<DecisionLog>>| {
        let decisions = log.map(|mut l| {
            l.status = Some(status);
            l
        });
        Ok(Prepared::Early(Box::new(NegotiationOutcome {
            status,
            user_offer: None,
            reserved_index: None,
            reservation: None,
            reserved_offer: None,
            ordered_offers: OfferList::default(),
            local_offer,
            commit_failures: Vec::new(),
            trace,
            decisions,
        })))
    };
    profile
        .validate()
        .map_err(NegotiationError::InvalidProfile)?;
    let doc = ctx
        .catalog
        .document(document)
        .ok_or(NegotiationError::UnknownDocument(document))?;

    let mut trace = NegotiationTrace::default();
    if let Some(l) = log.as_deref_mut() {
        l.durations_ms = doc
            .monomedia()
            .iter()
            .map(|m| (m.id.0, m.duration_ms))
            .collect();
    }

    // ---- Step 1: static local negotiation -------------------------------
    // The machine must at least render the *worst acceptable* values — if it
    // cannot, no offer the user would accept is renderable and the clamped
    // local capabilities are returned.
    for kind in profile.requested_kinds() {
        if let Some(req) = profile.worst.for_kind(kind) {
            if client.check_local(&req).is_err() {
                let local = clamp_spec(client, &profile.desired);
                return early(
                    NegotiationStatus::FailedWithLocalOffer,
                    Some(local),
                    trace,
                    log,
                );
            }
        }
    }

    // ---- Step 2: static compatibility checking --------------------------
    let span_enumerate = stage_span(ctx, parent, "enumerate");
    let per_mono_all = ctx
        .catalog
        .variants_of_document(document)
        .expect("document presence checked above");
    let per_mono: Vec<(MonomediaId, Vec<&Variant>)> = per_mono_all
        .into_iter()
        .map(|(mono, variants)| {
            let feasible: Vec<&Variant> = variants
                .into_iter()
                .filter(|v| client.feasible(v))
                .filter(|v| ctx.network.reachable(client.id, v.server))
                .collect();
            (mono, feasible)
        })
        .collect();
    trace.feasible_variants = per_mono.iter().map(|(_, v)| v.len()).sum();

    // ---- Step 3/4: precompute scores, then score the product ------------
    // The engine clones each feasible variant once and precomputes its
    // partial scores (importance, CostNet + CostSer, SNS flags); per-offer
    // scoring becomes an O(k) combine of those.
    let durations: std::collections::HashMap<MonomediaId, u64> = doc
        .monomedia()
        .iter()
        .map(|m| (m.id, m.duration_ms))
        .collect();
    let engine = match OfferEngine::build(
        &per_mono,
        &durations,
        profile,
        ctx.cost_model,
        ctx.guarantee,
        ctx.strategy,
        ctx.enumeration_cap,
    ) {
        Ok(engine) => engine,
        Err(EnumerationError::NoFeasibleVariant(_)) => {
            if let Some(span) = span_enumerate {
                span.end();
            }
            return early(NegotiationStatus::FailedWithoutOffer, None, trace, log);
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
    if let Some(rec) = ctx.recorder {
        rec.counter(
            "negotiation.offers.enumerated",
            trace.offers_enumerated as u64,
        );
        rec.observe(
            "negotiation.feasible_variants",
            trace.feasible_variants as f64,
        );
    }

    // The prune span is opened even when pruning is disabled so that every
    // instrumented negotiation contributes to `span.prune.ms` (a near-zero
    // sample documents that the stage was skipped). Dominance is judged on
    // the materialized offers; what survives is a keep-mask over ranks.
    let span_prune = stage_span(ctx, parent, "prune");
    let keep: Option<Vec<bool>> =
        if ctx.prune_dominated && crate::prune::importance_is_monotone(&profile.importance) {
            let records = log.as_deref_mut().map(|l| &mut l.pruned);
            let keep = crate::prune::keep_mask(&engine.offers(), records);
            trace.offers_pruned = keep.iter().filter(|&&k| !k).count();
            Some(keep)
        } else {
            None
        };
    if let Some(span) = span_prune {
        span.end();
    }
    if let Some(rec) = ctx.recorder {
        rec.counter("negotiation.offers.pruned", trace.offers_pruned as u64);
    }

    // Steps 3–4 proper, under a `classify` span: score the product (minus
    // pruned ranks). Ordering is left to whoever reads the list — the
    // walk, or explain's top-k rows just below.
    let span_classify = stage_span(ctx, parent, "classify");
    let mut ranked = RankedOffers::new(engine, keep.as_deref());
    if let Some(span) = span_classify {
        span.end();
    }
    if let Some(rec) = ctx.recorder {
        rec.counter("negotiation.offers.classified", ranked.len() as u64);
        let (desirable, acceptable, constraint) = ranked.sns_census();
        for (class, n) in [
            ("DESIRABLE", desirable),
            ("ACCEPTABLE", acceptable),
            ("CONSTRAINT", constraint),
        ] {
            if n > 0 {
                rec.counter_with("negotiation.sns", &[("class", class)], n);
            }
        }
    }
    if let Some(l) = log.as_deref_mut() {
        l.feasible_variants = trace.feasible_variants as u64;
        l.offers_enumerated = trace.offers_enumerated as u64;
        l.record_scores(&mut ranked);
    }
    Ok(Prepared::Offers(ranked, trace, log))
}

/// Emit the terminal `negotiation.outcome{status=…}` counter and trace
/// point.
fn emit_outcome(ctx: &NegotiationContext<'_>, outcome: &NegotiationOutcome) {
    if let Some(rec) = ctx.recorder {
        let status = outcome.status.to_string();
        rec.counter_with("negotiation.outcome", &[("status", &status)], 1);
        rec.trace_point("negotiation.outcome", &[("status", &status)]);
    }
}

/// Run steps 1–5 for `client` requesting `document` under `profile` — the
/// implementation behind [`crate::Session::submit`]: [`prepare`], then the
/// walk of [`commit_prepared`], under one root span.
///
/// With a [`NegotiationContext::recorder`] attached, the whole call is
/// timed as a `negotiate` span with `enumerate`/`prune`/`classify` and
/// `commit` children, and the final status increments
/// `negotiation.outcome{status=…}`.
pub(crate) fn negotiate_impl(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, NegotiationError> {
    let root = ctx.recorder.map(|rec| rec.span("negotiate"));
    let result =
        prepare_under(ctx, root.as_ref(), client, document, profile).map(
            |prepared| match prepared {
                Prepared::Early(outcome) => *outcome,
                Prepared::Offers(ranked, trace, log) => {
                    commit_walk(ctx, root.as_ref(), client, profile, ranked, trace, log)
                }
            },
        );
    if let Some(span) = root {
        span.end();
    }
    if let Ok(outcome) = &result {
        emit_outcome(ctx, outcome);
    }
    result
}

/// Per-walk refusal census. A commit walk refuses dozens of offers for a
/// handful of distinct reasons, and at fleet scale emitting one counter
/// increment and one trace point per refused offer made the telemetry the
/// dominant cost of the walk (B11). The census accumulates counts in a
/// tiny first-occurrence-ordered vec and emits one
/// `negotiation.commit.refused{reason=}` counter delta and one trace
/// point (value = count) per distinct reason at the end of the walk —
/// identical counter totals, bounded trace volume. It counts *offers*;
/// `memo_hits` says how many of them were answered from the walk's memo
/// without asking a server or a link.
#[derive(Default)]
struct RefusalCensus {
    attempts: u64,
    memo_hits: u64,
    by_reason: Vec<(&'static str, u64)>,
}

impl RefusalCensus {
    fn attempt(&mut self, refused: Option<&CommitFailure>) {
        self.attempts += 1;
        if let Some(reason) = refused {
            let kind = reason.kind();
            match self.by_reason.iter_mut().find(|(k, _)| *k == kind) {
                Some((_, n)) => *n += 1,
                None => self.by_reason.push((kind, 1)),
            }
        }
    }

    /// Emit the walk's totals (call inside the `commit` span so the trace
    /// points land under it).
    fn emit(self, rec: &Recorder) {
        if self.attempts > 0 {
            rec.counter("negotiation.reservation.attempts", self.attempts);
        }
        if self.memo_hits > 0 {
            rec.counter("negotiation.commit.memo_hits", self.memo_hits);
        }
        for (kind, n) in self.by_reason {
            rec.counter_with("negotiation.commit.refused", &[("reason", kind)], n);
            rec.trace_point_value(
                "negotiation.commit.refused",
                &[("reason", kind)],
                Some(n as f64),
            );
        }
    }
}

/// One step-5 walk: the attempt it makes per offer, and what it has
/// learned so far.
///
/// Every refused attempt rolls back completely ([`PendingCommit`]), so each
/// attempt of a walk starts from the same farm and network state, and a
/// refusal at component `d` depends on that state and on the variants
/// chosen for components `0..=d` only. The walk therefore judges each such
/// prefix once: `refused` remembers it, and a later offer sharing the
/// prefix gets the identical [`CommitRefusal`] without asking a server or a
/// link again. Capacity another thread frees mid-walk is seen by the
/// session's next attempt (a new walk), not by this one; a success always
/// performs the real reservations, so the memo can never over-commit or
/// leak.
struct CommitWalk<'c, 'a> {
    ctx: &'c NegotiationContext<'a>,
    client: &'c ClientMachine,
    max_startup_ms: u64,
    /// `(d, engine.prefix(rank, d))` → the refusal at component `d`.
    refused: BTreeMap<(usize, u64), CommitRefusal>,
    census: RefusalCensus,
}

impl<'c, 'a> CommitWalk<'c, 'a> {
    fn new(
        ctx: &'c NegotiationContext<'a>,
        client: &'c ClientMachine,
        profile: &UserProfile,
    ) -> Self {
        CommitWalk {
            ctx,
            client,
            max_startup_ms: profile.time.max_startup_ms,
            refused: BTreeMap::new(),
            census: RefusalCensus::default(),
        }
    }

    /// Try to commit the offer at enumeration `rank` of `engine`, by
    /// reference: nothing is materialized here.
    fn attempt(
        &mut self,
        engine: &OfferEngine,
        rank: u64,
    ) -> Result<SessionReservation, CommitRefusal> {
        let result = self.judge(engine, rank);
        if self.ctx.recorder.is_some() {
            self.census
                .attempt(result.as_ref().err().map(|r| &r.failure));
        }
        result
    }

    /// The attempt proper: the per-offer decode check, then the memo, then
    /// the servers and links.
    fn judge(
        &mut self,
        engine: &OfferEngine,
        rank: u64,
    ) -> Result<SessionReservation, CommitRefusal> {
        let variants = engine.streams_at(rank).map(|(v, ..)| v);
        check_decode_budget(self.client, variants.clone())?;
        if let Some(refusal) = self.remembered(engine, rank) {
            self.census.memo_hits += 1;
            return Err(refusal);
        }
        reserve_streams(self.ctx, self.client, variants, self.max_startup_ms).map_err(
            |(d, refusal)| {
                // The last component's prefix is the whole offer, which
                // no walk attempts twice.
                if d + 1 < engine.components() {
                    self.refused
                        .insert((d, engine.prefix(rank, d)), refusal.clone());
                }
                refusal
            },
        )
    }

    /// The refusal an earlier attempt of this walk drew for a prefix of the
    /// offer at `rank`, if any (at most one prefix can have one: offers
    /// sharing a refused prefix never reach past it).
    fn remembered(&self, engine: &OfferEngine, rank: u64) -> Option<CommitRefusal> {
        if self.refused.is_empty() {
            return None;
        }
        (0..engine.components().saturating_sub(1))
            .find_map(|d| self.refused.get(&(d, engine.prefix(rank, d))))
            .cloned()
    }

    /// Emit the census of the `commit` span being closed; the memo stays.
    fn emit_census(&mut self) {
        if let Some(rec) = self.ctx.recorder {
            std::mem::take(&mut self.census).emit(rec);
        }
    }
}

/// The step-5 walk: attempt the offers of `ranked` in reservation order
/// (one [`WalkCursor`], ordering the list only as far as the walk gets)
/// and commit the first that fits. An attempted offer's index is its
/// classified position; only the offer that commits is materialized.
fn commit_walk(
    ctx: &NegotiationContext<'_>,
    root: Option<&Span>,
    client: &ClientMachine,
    profile: &UserProfile,
    mut ranked: RankedOffers,
    mut trace: NegotiationTrace,
    mut decisions: Option<Box<DecisionLog>>,
) -> NegotiationOutcome {
    // One commit span covers the whole walk (step 5 as a stage); the
    // per-candidate refusal points inside it carry the verdicts.
    let span_commit = stage_span(ctx, root, "commit");
    let mut walk = CommitWalk::new(ctx, client, profile);
    let mut failures: Vec<(usize, CommitFailure)> = Vec::new();
    let mut committed: Option<(usize, ScoredOffer, SessionReservation)> = None;
    let mut cursor = WalkCursor::default();
    while let Some(idx) = ranked.next_attempt(&mut cursor) {
        trace.reservation_attempts += 1;
        let rank = ranked.entry(idx).rank;
        match walk.attempt(ranked.engine(), rank) {
            Err(refusal) => {
                if let Some(l) = decisions.as_deref_mut() {
                    l.refusals.push(refusal.record(idx));
                }
                failures.push((idx, refusal.failure));
            }
            Ok(reservation) => {
                committed = Some((idx, ranked.materialize(idx), reservation));
                break;
            }
        }
    }
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
        if let Some((idx, ..)) = committed {
            l.mark_chosen(&mut ranked, idx);
        }
        l.status = Some(status);
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
        ordered_offers: OfferList::ranked(ranked),
        local_offer: None,
        commit_failures: failures,
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
/// outcome's `ordered_offers` keeps it deferred. Each prefix of chosen
/// variants is judged once per walk, against the capacity the walk started
/// with: a refused prefix refuses every later offer that shares it without
/// asking the server or link again, with the identical [`CommitRefusal`].
/// Capacity freed by another thread mid-walk is seen by the session's next
/// attempt, not this walk. A success always performs the real
/// reservations, so the memo can never over-commit or leak.
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
    emit_outcome(ctx, &outcome);
    outcome
}

/// Why step 5 refused to commit an offer — the diagnostic surface behind
/// the `FAILEDTRYLATER` status (which resource said no, for which stream).
#[derive(Debug, Clone, PartialEq)]
pub enum CommitFailure {
    /// The client cannot decode the offer's streams concurrently.
    DecodeBudget,
    /// The path to `server` violates the §6 jitter/loss/delay constants at
    /// current load (or no path exists).
    PathQos {
        /// The unreachable / out-of-spec server.
        server: ServerId,
    },
    /// Estimated startup exceeds the time profile's bound.
    Startup {
        /// The estimate, ms.
        estimated_ms: u64,
        /// The bound, ms.
        limit_ms: u64,
    },
    /// The file server refused admission for a stream.
    Server {
        /// The refusing server.
        server: ServerId,
    },
    /// A link on the path could not carry the stream's bandwidth.
    Network {
        /// The server whose path failed.
        server: ServerId,
    },
}

impl CommitFailure {
    /// Would retrying the same offer later plausibly succeed?
    ///
    /// Server, network and path-QoS refusals depend on current load — they
    /// are what FAILEDTRYLATER's "try later" refers to, and release of
    /// other sessions' resources can clear them. Decode-budget and startup
    /// refusals are static properties of the client and the route; waiting
    /// does not change them.
    pub fn transient(&self) -> bool {
        match self {
            CommitFailure::Server { .. }
            | CommitFailure::Network { .. }
            | CommitFailure::PathQos { .. } => true,
            CommitFailure::DecodeBudget | CommitFailure::Startup { .. } => false,
        }
    }

    /// Stable label for the `reason` label of
    /// `negotiation.commit.refused`.
    pub fn kind(&self) -> &'static str {
        self.refusal_kind().as_str()
    }

    /// The failure's [`RefusalKind`] for decision logs.
    pub fn refusal_kind(&self) -> RefusalKind {
        match self {
            CommitFailure::DecodeBudget => RefusalKind::DecodeBudget,
            CommitFailure::PathQos { .. } => RefusalKind::PathQos,
            CommitFailure::Startup { .. } => RefusalKind::Startup,
            CommitFailure::Server { .. } => RefusalKind::Server,
            CommitFailure::Network { .. } => RefusalKind::Network,
        }
    }
}

impl std::fmt::Display for CommitFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommitFailure::DecodeBudget => write!(f, "client decode budget exceeded"),
            CommitFailure::PathQos { server } => {
                write!(f, "path to {server} violates jitter/loss/delay bounds")
            }
            CommitFailure::Startup {
                estimated_ms,
                limit_ms,
            } => write!(
                f,
                "startup {estimated_ms} ms exceeds the {limit_ms} ms bound"
            ),
            CommitFailure::Server { server } => write!(f, "{server} refused admission"),
            CommitFailure::Network { server } => {
                write!(f, "no bandwidth left on the path to {server}")
            }
        }
    }
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

/// Two-phase commit of one system offer: reserve every stream on its server
/// and its network path, rolling back everything on the first refusal.
/// Offers whose estimated startup latency exceeds `max_startup_ms` (the
/// time profile's delivery bound) are refused like any other failed
/// reservation.
pub fn try_commit(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    offer: &SystemOffer,
    max_startup_ms: u64,
) -> Option<SessionReservation> {
    try_commit_diagnosed(ctx, client, offer, max_startup_ms).ok()
}

/// [`try_commit`] with the refusal reason on failure.
pub fn try_commit_diagnosed(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    offer: &SystemOffer,
    max_startup_ms: u64,
) -> Result<SessionReservation, CommitFailure> {
    try_commit_refusal(ctx, client, offer, max_startup_ms).map_err(|r| r.failure)
}

/// A refused commit with its concrete [`Shortfall`]: not just *which*
/// resource said no, but requested vs available. Everything is stack data,
/// so the diagnosed commit path stays allocation-free on refusal.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRefusal {
    /// The refusal category (what [`try_commit_diagnosed`] reports).
    pub failure: CommitFailure,
    /// The quantitative shortfall behind it.
    pub shortfall: Shortfall,
}

impl CommitRefusal {
    /// The implicated server, when the failure names one.
    pub fn server(&self) -> Option<ServerId> {
        match self.failure {
            CommitFailure::PathQos { server }
            | CommitFailure::Server { server }
            | CommitFailure::Network { server } => Some(server),
            CommitFailure::DecodeBudget | CommitFailure::Startup { .. } => None,
        }
    }

    /// Render as a [`RefusalRecord`] for the offer at classified-list rank
    /// `rank`.
    pub fn record(&self, rank: usize) -> RefusalRecord {
        RefusalRecord {
            rank: rank as u64,
            kind: self.failure.refusal_kind(),
            server: self.server().map(|s| s.0),
            shortfall: self.shortfall,
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

/// [`try_commit_diagnosed`] that also reports the concrete shortfall —
/// which disk round / interface / link ran out, requested vs available.
/// This is the commit primitive the decision-provenance layer records;
/// the step-5 walks run the same two checks per offer, by reference.
pub fn try_commit_refusal(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    offer: &SystemOffer,
    max_startup_ms: u64,
) -> Result<SessionReservation, CommitRefusal> {
    check_decode_budget(client, offer.variants.iter())?;
    reserve_streams(ctx, client, offer.variants.iter(), max_startup_ms)
        .map_err(|(_, refusal)| refusal)
}

/// Combination-level client check: the offer's streams must fit the
/// machine's concurrent decode budget (per-variant decodability was
/// step 2; this guards the whole configuration).
fn check_decode_budget<'v>(
    client: &ClientMachine,
    variants: impl Iterator<Item = &'v Variant>,
) -> Result<(), CommitRefusal> {
    if client.can_decode_concurrently(variants) {
        Ok(())
    } else {
        Err(CommitRefusal {
            failure: CommitFailure::DecodeBudget,
            shortfall: Shortfall::DecodeBudget,
        })
    }
}

/// Two-phase commit of an offer's streams, in document component order:
/// reserve each on its server and its network path, rolling back
/// everything on the first refusal — which is returned with the index of
/// the component that drew it.
fn reserve_streams<'v>(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    variants: impl Iterator<Item = &'v Variant>,
    max_startup_ms: u64,
) -> Result<SessionReservation, (usize, CommitRefusal)> {
    // Any early return (or panic) below drops the guard, which releases
    // every reservation taken so far — no refusal path can leak capacity.
    let mut pending = PendingCommit::new(ctx.farm, ctx.network);

    for (d, variant) in variants.enumerate() {
        let refuse = |failure, shortfall| Err((d, CommitRefusal { failure, shortfall }));
        let server = variant.server;
        let spec = map_requirements(variant);
        // Load-dependent path QoS check (§6 constants vs. current metrics).
        let metrics = match ctx.network.path_metrics(client.id, server) {
            Ok(m) if path_supports(&spec, &m) => m,
            _ => return refuse(CommitFailure::PathQos { server }, Shortfall::PathQos),
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
                return refuse(
                    CommitFailure::Startup {
                        estimated_ms,
                        limit_ms,
                    },
                    Shortfall::Startup {
                        estimated_ms,
                        limit_ms,
                    },
                );
            }
        }
        // Server admission (continuous media only occupy disk rounds, but
        // discrete media still count against stream slots).
        let req = StreamRequirement::for_variant(variant, ctx.guarantee);
        match ctx.farm.try_reserve(server, req) {
            Ok(id) => pending.servers.push((server, id)),
            Err(e) => return refuse(CommitFailure::Server { server }, admission_shortfall(e)),
        }
        // Network bandwidth along the path (continuous media only; discrete
        // transfers ride the residual capacity ahead of playout).
        if variant.blocks_per_second > 0 {
            let bps = charged_bit_rate(variant, ctx.guarantee);
            match ctx.network.try_reserve(client.id, server, bps) {
                Ok(id) => pending.nets.push(id),
                Err(e) => return refuse(CommitFailure::Network { server }, net_shortfall(e, bps)),
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
            let idx = out.reserved_index.unwrap();
            assert!(out.ordered_offers[idx].satisfies_request);
            let offer = &out.ordered_offers[idx].offer;
            assert!(offer.cost <= tv_news_profile().max_cost);
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
        assert_eq!(out.commit_failures.len(), out.ordered_offers.len());
        // Every refusal names the server that said no.
        for (idx, reason) in &out.commit_failures {
            assert!(*idx < out.ordered_offers.len());
            assert!(
                matches!(reason, crate::negotiate::CommitFailure::Server { .. }),
                "unexpected reason {reason:?}"
            );
            assert!(!reason.to_string().is_empty());
        }
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
        for stage in ["negotiate", "enumerate", "prune", "classify", "commit"] {
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
