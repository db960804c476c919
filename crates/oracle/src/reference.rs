//! The paper-literal reference negotiator.
//!
//! A deliberately slow, straight-from-the-paper implementation of the six
//! negotiation steps (Hafid/Bochmann/Kerhervé, HPDC-5 §4–§7), written as an
//! independent oracle for the optimized pipeline in `nod-qosneg`:
//!
//! * offers are enumerated with naive nested recursion (no flat arena, no
//!   lazy heap);
//! * SNS and OIF are recomputed from the §5.2 definitions per offer (no
//!   precomputed per-variant partial scores);
//! * classification is a stable insertion sort with an explicit
//!   (SNS, OIF, enumeration-index) key (no `sort_by`, no reorder buffer);
//! * resource commitment is a sequential walk with manual rollback (no
//!   RAII guard, no streaming fallback);
//! * the step-6 choice period is an explicit state machine with exactly-once
//!   release.
//!
//! The module intentionally shares **no** code with
//! `nod_qosneg::{engine, classify, negotiate}` — only the paper's
//! *model* functions (cost tables, importance curves, §6 mapping constants,
//! startup estimate) and the world types themselves, which both sides must
//! agree on by construction. Everything the optimized paths are allowed to
//! reorganize (enumeration order, scoring folds, classification, commit
//! order, rollback) is reimplemented here from the paper text.

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ReservationId, ServerFarm, StreamRequirement};
use nod_mmdb::Catalog;
use nod_mmdoc::{DocumentId, MediaKind, MediaQos, ServerId, Variant, VariantId};
use nod_netsim::{NetReservationId, Network};
use nod_qosneg::cost::CostModel;
use nod_qosneg::mapping::{charged_bit_rate, map_requirements, path_supports};
use nod_qosneg::profile::{MmQosSpec, UserProfile};
use nod_qosneg::sns::StaticNegotiationStatus;
use nod_qosneg::startup::{estimate_startup_ms, preroll_ms};
use nod_qosneg::Money;
use nod_qosneg::NegotiationStatus;
use nod_qosneg::SessionReservation;
use nod_qosneg::{ClassificationStrategy, ConfirmationDecision};

/// The shared system state the reference negotiation runs against — its
/// own context type so the oracle does not depend on
/// `nod_qosneg::negotiate::NegotiationContext`'s layout.
pub struct RefContext<'a> {
    /// The MM metadata database.
    pub catalog: &'a Catalog,
    /// The file-server farm.
    pub farm: &'a ServerFarm,
    /// The network.
    pub network: &'a Network,
    /// The pricing model.
    pub cost_model: &'a CostModel,
    /// Offer-ordering rule.
    pub strategy: ClassificationStrategy,
    /// Guarantee class.
    pub guarantee: Guarantee,
    /// Enumeration budget (the reference enumerates everything but must
    /// agree with the pipeline on when enumeration is refused outright).
    pub enumeration_cap: usize,
    /// Client jitter-buffer size, ms of media.
    pub jitter_buffer_ms: u64,
}

/// One classified offer as the reference sees it.
#[derive(Debug, Clone, PartialEq)]
pub struct RefOffer {
    /// The chosen variant ids, in document component order.
    pub variant_ids: Vec<VariantId>,
    /// The serving server per variant, in the same order.
    pub servers: Vec<ServerId>,
    /// CostDoc (§7 formula (1)).
    pub cost: Money,
    /// QoS importance (§5.2.2 (a)).
    pub qos_importance: f64,
    /// Overall importance factor (§5.2.2 (c)).
    pub oif: f64,
    /// Static negotiation status (§5.2.1).
    pub sns: StaticNegotiationStatus,
    /// Worst-acceptable QoS met *and* within the cost ceiling?
    pub satisfies_request: bool,
    /// Position in naive enumeration order (the deterministic tertiary
    /// tie-break key).
    pub enumeration_index: usize,
}

/// Why one step-5 commitment attempt was refused, and who refused it
/// (mirrors the pipeline's refusal kinds by label, and its server).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefRefusal {
    /// Concurrent decode budget exceeded.
    DecodeBudget,
    /// No path to `server`, or its metrics violate the §6 constants.
    PathQos {
        /// The stream's server.
        server: ServerId,
    },
    /// Startup estimate exceeds the time profile.
    Startup,
    /// `server` refused admission.
    Server {
        /// The refusing server.
        server: ServerId,
    },
    /// The path to `server` could not carry the stream's bandwidth.
    Network {
        /// The stream's server.
        server: ServerId,
    },
}

impl RefRefusal {
    /// The pipeline's `RefusalKind` label for this refusal.
    pub fn kind(&self) -> &'static str {
        match self {
            RefRefusal::DecodeBudget => "decode_budget",
            RefRefusal::PathQos { .. } => "path_qos",
            RefRefusal::Startup => "startup",
            RefRefusal::Server { .. } => "server",
            RefRefusal::Network { .. } => "network",
        }
    }

    /// The implicated server, when the refusal names one.
    pub fn server(&self) -> Option<ServerId> {
        match *self {
            RefRefusal::PathQos { server }
            | RefRefusal::Server { server }
            | RefRefusal::Network { server } => Some(server),
            RefRefusal::DecodeBudget | RefRefusal::Startup => None,
        }
    }
}

/// The reference negotiation result.
#[derive(Debug)]
pub struct RefOutcome {
    /// Negotiation status (§4).
    pub status: NegotiationStatus,
    /// Index into `ordered` of the reserved offer.
    pub reserved_index: Option<usize>,
    /// The committed resources.
    pub reservation: Option<SessionReservation>,
    /// The full classified offer list, best first.
    pub ordered: Vec<RefOffer>,
    /// The clamped local QoS on FAILEDWITHLOCALOFFER.
    pub local_offer: Option<MmQosSpec>,
    /// `(classified index, refusal)` per refused commitment attempt, in
    /// attempt order.
    pub refusals: Vec<(usize, RefRefusal)>,
}

/// Hard errors (misuse, mirroring `NegotiationError`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RefError {
    /// Document not in the catalog.
    UnknownDocument,
    /// Profile validation failed, or enumeration exceeds the cap.
    InvalidProfile,
}

/// Run the paper's steps 1–5 literally.
pub fn reference_negotiate(
    ctx: &RefContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<RefOutcome, RefError> {
    if profile.validate().is_err() {
        return Err(RefError::InvalidProfile);
    }
    let doc = ctx
        .catalog
        .document(document)
        .ok_or(RefError::UnknownDocument)?;

    // ---- Step 1: static local negotiation -------------------------------
    // "the QoS parameters … are checked against the capacities of the user
    // machine". The machine must render at least the worst-acceptable
    // values of every requested medium; otherwise the clamped local
    // capabilities are the (failed) answer.
    for kind in profile.requested_kinds() {
        if let Some(worst) = profile.worst.for_kind(kind) {
            if client.check_local(&worst).is_err() {
                return Ok(RefOutcome {
                    status: NegotiationStatus::FailedWithLocalOffer,
                    reserved_index: None,
                    reservation: None,
                    ordered: Vec::new(),
                    local_offer: Some(clamp_to_local(client, &profile.desired)),
                    refusals: Vec::new(),
                });
            }
        }
    }

    // ---- Step 2: static compatibility checking --------------------------
    // Keep, per monomedia, the variants the client can decode and whose
    // server is reachable.
    let per_mono = ctx
        .catalog
        .variants_of_document(document)
        .expect("document existence checked above");
    let mut feasible: Vec<Vec<&Variant>> = Vec::new();
    for (_, variants) in &per_mono {
        let mut keep: Vec<&Variant> = Vec::new();
        for v in variants {
            if client.feasible(v) && ctx.network.path(client.id, v.server).is_ok() {
                keep.push(v);
            }
        }
        if keep.is_empty() {
            // "If there is no physical instantiation … the negotiation
            // fails without a counter-offer" — FAILEDWITHOUTOFFER.
            return Ok(RefOutcome {
                status: NegotiationStatus::FailedWithoutOffer,
                reserved_index: None,
                reservation: None,
                ordered: Vec::new(),
                local_offer: None,
                refusals: Vec::new(),
            });
        }
        feasible.push(keep);
    }
    let mut product: usize = 1;
    for component in &feasible {
        product = match product.checked_mul(component.len()) {
            Some(p) => p,
            None => return Err(RefError::InvalidProfile),
        };
    }
    if product > ctx.enumeration_cap {
        return Err(RefError::InvalidProfile);
    }

    // ---- Step 3: exhaustive enumeration + classification parameters -----
    let durations: Vec<u64> = doc.monomedia().iter().map(|m| m.duration_ms).collect();
    let mut ordered: Vec<RefOffer> = Vec::with_capacity(product);
    let mut choice: Vec<&Variant> = Vec::new();
    enumerate_recursive(&feasible, &mut choice, &mut |combo: &[&Variant]| {
        let enumeration_index = ordered.len();
        ordered.push(score_offer(
            ctx,
            profile,
            combo,
            &durations,
            enumeration_index,
        ));
    });

    // ---- Step 4: classification, "from the best system offer … to the
    // worst" — stable insertion sort on the strategy's key.
    insertion_sort_classified(&mut ordered, ctx.strategy);

    // ---- Step 5: resource commitment ------------------------------------
    // "the offers which satisfy the user request" first, "however always in
    // the order defined above" for the rest.
    let mut order: Vec<usize> = Vec::with_capacity(ordered.len());
    for (i, o) in ordered.iter().enumerate() {
        if o.satisfies_request {
            order.push(i);
        }
    }
    for (i, o) in ordered.iter().enumerate() {
        if !o.satisfies_request {
            order.push(i);
        }
    }

    let mut refusals: Vec<(usize, RefRefusal)> = Vec::new();
    for &idx in &order {
        match sequential_commit(ctx, client, &ordered[idx], profile.time.max_startup_ms) {
            Ok(reservation) => {
                let status = if ordered[idx].satisfies_request {
                    NegotiationStatus::Succeeded
                } else {
                    NegotiationStatus::FailedWithOffer
                };
                return Ok(RefOutcome {
                    status,
                    reserved_index: Some(idx),
                    reservation: Some(reservation),
                    ordered,
                    local_offer: None,
                    refusals,
                });
            }
            Err(refusal) => refusals.push((idx, refusal)),
        }
    }
    Ok(RefOutcome {
        status: NegotiationStatus::FailedTryLater,
        reserved_index: None,
        reservation: None,
        ordered,
        local_offer: None,
        refusals,
    })
}

/// Naive nested enumeration: recursion over components, the last component
/// varying fastest (the lexicographic order the GUI would print).
fn enumerate_recursive<'a>(
    feasible: &[Vec<&'a Variant>],
    choice: &mut Vec<&'a Variant>,
    emit: &mut impl FnMut(&[&'a Variant]),
) {
    if choice.len() == feasible.len() {
        emit(choice);
        return;
    }
    let depth = choice.len();
    for v in &feasible[depth] {
        choice.push(v);
        enumerate_recursive(feasible, choice, emit);
        choice.pop();
    }
}

/// Compute every §5.2 classification parameter of one offer from scratch.
fn score_offer(
    ctx: &RefContext<'_>,
    profile: &UserProfile,
    combo: &[&Variant],
    durations: &[u64],
    enumeration_index: usize,
) -> RefOffer {
    // §7 formula (1): CostDoc = CostCop + Σ (CostNetᵢ + CostSerᵢ).
    let mut cost = ctx.cost_model.copyright;
    for (v, &duration_ms) in combo.iter().zip(durations) {
        let (net, ser) = ctx.cost_model.monomedia_cost(v, duration_ms, ctx.guarantee);
        cost += net;
        cost += ser;
    }

    // §5.2.2 (a): the QoS importance is the sum of the per-value
    // importances, accumulated in component order (the same fold order the
    // engine uses, so float sums agree bit-for-bit).
    let mut qos_importance = 0.0f64;
    for v in combo {
        qos_importance += profile.importance.media_importance(&v.qos);
    }
    // §5.2.2 (b)+(c): OIF = QoS importance − cost-per-dollar × cost.
    let oif = qos_importance - profile.importance.cost_per_dollar * cost.dollars();

    // §5.2.1: the static negotiation status, spelled out.
    let mut meets_desired = true;
    let mut meets_worst = true;
    for v in combo {
        if !profile.desired.met_by(&v.qos) {
            meets_desired = false;
        }
        if !profile.worst.met_by(&v.qos) {
            meets_worst = false;
        }
    }
    let within_cost = cost <= profile.max_cost;
    let sns = if meets_desired && within_cost {
        StaticNegotiationStatus::Desirable
    } else if meets_worst {
        StaticNegotiationStatus::Acceptable
    } else {
        StaticNegotiationStatus::Constraint
    };

    RefOffer {
        variant_ids: combo.iter().map(|v| v.id).collect(),
        servers: combo.iter().map(|v| v.server).collect(),
        cost,
        qos_importance,
        oif,
        sns,
        satisfies_request: within_cost && meets_worst,
        enumeration_index,
    }
}

/// `true` when `a` strictly precedes `b` under the strategy's key with the
/// enumeration index as the final, total tie-break.
fn precedes(strategy: ClassificationStrategy, a: &RefOffer, b: &RefOffer) -> bool {
    use std::cmp::Ordering;
    let primary = match strategy {
        ClassificationStrategy::SnsThenOif => {
            // SNS best-first, then OIF descending. `total_cmp` keeps NaN
            // OIFs totally ordered, as the pipeline's comparator does.
            sns_rank(a.sns)
                .cmp(&sns_rank(b.sns))
                .then_with(|| b.oif.total_cmp(&a.oif))
        }
        ClassificationStrategy::OifOnly => b.oif.total_cmp(&a.oif),
        ClassificationStrategy::CostOnly => a.cost.cmp(&b.cost),
        ClassificationStrategy::QosOnly => b.qos_importance.total_cmp(&a.qos_importance),
    };
    match primary {
        Ordering::Less => true,
        Ordering::Greater => false,
        Ordering::Equal => a.enumeration_index < b.enumeration_index,
    }
}

fn sns_rank(sns: StaticNegotiationStatus) -> u8 {
    match sns {
        StaticNegotiationStatus::Desirable => 0,
        StaticNegotiationStatus::Acceptable => 1,
        StaticNegotiationStatus::Constraint => 2,
    }
}

/// Stable insertion sort — O(n²) on purpose: small, obviously correct, and
/// structurally unlike the pipeline's `sort_by`/lazy-heap paths.
fn insertion_sort_classified(offers: &mut [RefOffer], strategy: ClassificationStrategy) {
    for i in 1..offers.len() {
        let mut j = i;
        while j > 0 && precedes(strategy, &offers[j], &offers[j - 1]) {
            offers.swap(j, j - 1);
            j -= 1;
        }
    }
}

/// Step 5 for one offer: reserve each stream in component order against
/// the server and its network path, releasing everything by hand on the
/// first refusal (no RAII guard).
fn sequential_commit(
    ctx: &RefContext<'_>,
    client: &ClientMachine,
    offer: &RefOffer,
    max_startup_ms: u64,
) -> Result<SessionReservation, RefRefusal> {
    let variants: Vec<&Variant> = offer
        .variant_ids
        .iter()
        .map(|&id| ctx.catalog.variant(id).expect("offer variants exist"))
        .collect();

    // The combination must fit the client's concurrent decode budget.
    if !client.can_decode_concurrently(variants.iter().copied()) {
        return Err(RefRefusal::DecodeBudget);
    }

    let mut held_servers: Vec<(ServerId, ReservationId)> = Vec::new();
    let mut held_nets: Vec<NetReservationId> = Vec::new();
    let mut failure: Option<RefRefusal> = None;

    'commit: for v in &variants {
        let spec = map_requirements(v);
        // §6 constants vs. the path's current metrics.
        let metrics = match ctx.network.path_metrics(client.id, v.server) {
            Ok(m) if path_supports(&spec, &m) => m,
            _ => {
                failure = Some(RefRefusal::PathQos { server: v.server });
                break 'commit;
            }
        };
        // Time profile: the stream must start within the delivery bound.
        if v.blocks_per_second > 0 {
            let round_us = match ctx.farm.server(v.server) {
                Some(s) => s.config().round_us,
                None => 0,
            };
            let startup =
                estimate_startup_ms(round_us, metrics.delay_us, preroll_ms(ctx.jitter_buffer_ms));
            if startup > max_startup_ms {
                failure = Some(RefRefusal::Startup);
                break 'commit;
            }
        }
        // Server admission.
        let req = StreamRequirement::for_variant(v, ctx.guarantee);
        match ctx.farm.try_reserve(v.server, req) {
            Ok(id) => held_servers.push((v.server, id)),
            Err(_) => {
                failure = Some(RefRefusal::Server { server: v.server });
                break 'commit;
            }
        }
        // Network bandwidth (continuous media only).
        if v.blocks_per_second > 0 {
            let bps = charged_bit_rate(v, ctx.guarantee);
            match ctx.network.try_reserve(client.id, v.server, bps) {
                Ok(id) => held_nets.push(id),
                Err(_) => {
                    failure = Some(RefRefusal::Network { server: v.server });
                    break 'commit;
                }
            }
        }
    }

    match failure {
        None => Ok(SessionReservation {
            servers: held_servers,
            network: held_nets,
        }),
        Some(refusal) => {
            // Manual rollback, in reservation order.
            for (server, id) in held_servers {
                ctx.farm.release(server, id);
            }
            for id in held_nets {
                ctx.network.release(id);
            }
            Err(refusal)
        }
    }
}

/// Step 1's counter-offer: the desired values clamped to what the client
/// machine can actually render.
fn clamp_to_local(client: &ClientMachine, desired: &MmQosSpec) -> MmQosSpec {
    let mut out = MmQosSpec::default();
    for kind in MediaKind::ALL {
        if let Some(q) = desired.for_kind(kind) {
            match client.clamp_to_local(&q) {
                MediaQos::Video(v) => out.video = Some(v),
                MediaQos::Audio(a) => out.audio = Some(a),
                MediaQos::Text(t) => out.text = Some(t),
                MediaQos::Image(i) => out.image = Some(i),
                MediaQos::Graphic(g) => out.graphic = Some(g),
            }
        }
    }
    out
}

/// Step 6, explicit: a pending confirmation holding the reserved resources
/// until the user decides (or the choice period lapses). Resources are
/// released exactly once, whichever edge fires first.
#[derive(Debug)]
pub struct RefConfirmation {
    /// The deadline, ms on the caller's clock.
    pub deadline_ms: u64,
    reservation: Option<SessionReservation>,
    decision: Option<ConfirmationDecision>,
}

impl RefConfirmation {
    /// Arm the choice period at `now_ms` for `choice_period_ms`.
    pub fn arm(now_ms: u64, choice_period_ms: u64, reservation: SessionReservation) -> Self {
        RefConfirmation {
            deadline_ms: now_ms + choice_period_ms,
            reservation: Some(reservation),
            decision: None,
        }
    }

    /// Resolve a user action (`Some(true)` OK, `Some(false)` CANCEL,
    /// `None` silence) arriving at `at_ms`. The first resolution wins;
    /// later calls return it unchanged and never touch resources. The
    /// paper treats an action *at* the deadline as in time; strictly after
    /// it, the session has already been aborted.
    pub fn resolve(
        &mut self,
        at_ms: u64,
        action: Option<bool>,
        farm: &ServerFarm,
        network: &Network,
    ) -> Option<ConfirmationDecision> {
        if let Some(done) = self.decision {
            return Some(done);
        }
        let decision = if at_ms > self.deadline_ms {
            ConfirmationDecision::TimedOut
        } else {
            match action {
                Some(true) => ConfirmationDecision::Accepted,
                Some(false) => ConfirmationDecision::Rejected,
                None => return None,
            }
        };
        self.decision = Some(decision);
        if decision != ConfirmationDecision::Accepted {
            if let Some(res) = self.reservation.take() {
                res.release(farm, network);
            }
        }
        Some(decision)
    }

    /// Hand the reservation to an accepted session (once).
    pub fn take_reservation(&mut self) -> Option<SessionReservation> {
        match self.decision {
            Some(ConfirmationDecision::Accepted) => self.reservation.take(),
            _ => None,
        }
    }
}
