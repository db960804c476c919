//! Baseline negotiators — the "existing approaches" the paper contrasts.
//!
//! The introduction positions the contribution against systems whose "QoS
//! negotiation mechanisms … are used in a rather static manner, that is,
//! these mechanisms are restricted to the evaluation of the capacity of
//! certain system components … a priori known", and notes that existing
//! approaches "concentrate on the negotiation of a single monomedia
//! object". Two baselines capture those behaviours for the experiments:
//!
//! * first-fit (`Procedure::FirstFit`) — one a-priori configuration (the first
//!   compatible variant per component, catalog order), a single capacity
//!   check, no classification, no alternate offers;
//! * per-monomedia (`Procedure::PerMonomedia`) — each monomedia negotiated and optimized
//!   *independently*, so the document-level cost ceiling and cross-media
//!   trade-offs are invisible to the optimizer.

use nod_client::ClientMachine;
use nod_mmdoc::{DocumentId, MonomediaId, Variant};

use crate::classify::{classify, ScoredOffer};
use crate::engine::{OfferEngine, RankedOffers};
use crate::negotiate::{
    try_commit_refusal, NegotiationContext, NegotiationError, NegotiationOutcome,
    NegotiationStatus, NegotiationTrace, SessionReservation,
};
use crate::offer::SystemOffer;
use crate::profile::UserProfile;

/// One document component: its id, its duration, and the variants step 2
/// keeps for it.
type Component<'a> = (MonomediaId, u64, Vec<&'a Variant>);

/// Step 2 for the baselines: each document component in order, keeping
/// the variants the client can decode and reach (asking the network for a
/// route, so each unreachable one counts a `net.path.rejections`).
fn feasible_variants<'a>(
    ctx: &NegotiationContext<'a>,
    client: &ClientMachine,
    document: DocumentId,
) -> Result<Vec<Component<'a>>, NegotiationError> {
    let doc =
        (ctx.catalog.document(document)).ok_or(NegotiationError::UnknownDocument(document))?;
    Ok(doc
        .monomedia()
        .iter()
        .map(|m| {
            let feasible: Vec<&Variant> = (ctx.catalog.variants_of(m.id).iter())
                .filter(|v| client.feasible(v))
                .filter(|v| ctx.network.path(client.id, v.server).is_ok())
                .collect();
            (m.id, m.duration_ms, feasible)
        })
        .collect())
}

/// The one-offer list of `chosen` — one variant per component, with the
/// component's id and duration — through the offer engine, so it is
/// priced by formula (1), `copyright + Σ(net + ser)`, and scored like
/// every other offer.
fn one_offer<'v>(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    profile: &UserProfile,
    chosen: impl ExactSizeIterator<Item = (MonomediaId, u64, &'v Variant)>,
) -> RankedOffers {
    let mut builder = OfferEngine::builder(
        client,
        profile,
        ctx.cost_model,
        ctx.guarantee,
        ctx.strategy,
        chosen.len(),
        chosen.len(),
    );
    for (mono, duration_ms, variant) in chosen {
        builder.component(mono, duration_ms, std::iter::once(variant));
    }
    // Unreachable: every component has its one variant, a product of 1.
    RankedOffers::new(
        builder
            .finish(1)
            .expect("one variant per component is one offer"),
    )
}

/// The outcome over a one-offer list: reserved or not, the offer's own
/// SNS decides between SUCCEEDED and FAILEDWITHOFFER.
fn outcome_for_offer(
    list: RankedOffers,
    scored: ScoredOffer,
    reservation: Option<SessionReservation>,
    trace: NegotiationTrace,
) -> NegotiationOutcome {
    let status = match (&reservation, scored.satisfies_request) {
        (Some(_), true) => NegotiationStatus::Succeeded,
        (Some(_), false) => NegotiationStatus::FailedWithOffer,
        (None, _) => NegotiationStatus::FailedTryLater,
    };
    let reserved = reservation.is_some().then_some(scored);
    NegotiationOutcome {
        user_offer: reserved.as_ref().map(|s| s.offer.to_user_offer()),
        reserved_index: reserved.as_ref().map(|_| 0),
        reservation,
        reserved_offer: reserved,
        ordered_offers: list,
        ..NegotiationOutcome::empty(status, trace)
    }
}

/// Static first-fit negotiation: evaluate the capacity of the single
/// a-priori configuration and accept or reject. Reached through
/// [`Procedure::FirstFit`](crate::request::Procedure::FirstFit).
pub(crate) fn negotiate_static_first_fit_impl(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, NegotiationError> {
    profile
        .validate()
        .map_err(NegotiationError::InvalidProfile)?;
    let per_mono = feasible_variants(ctx, client, document)?;
    let mut trace = NegotiationTrace {
        feasible_variants: per_mono.iter().map(|(.., v)| v.len()).sum(),
        ..NegotiationTrace::default()
    };
    if per_mono.iter().any(|(.., v)| v.is_empty()) {
        return Ok(NegotiationOutcome::empty(
            NegotiationStatus::FailedWithoutOffer,
            trace,
        ));
    }
    trace.offers_enumerated = 1;
    trace.reservation_attempts = 1;
    let first = per_mono.iter().map(|&(mono, dur, ref v)| (mono, dur, v[0]));
    let mut list = one_offer(ctx, client, profile, first);
    let scored = list.materialize(0);
    let reservation =
        try_commit_refusal(ctx, client, &scored.offer, profile.time.max_startup_ms).ok();
    Ok(outcome_for_offer(list, scored, reservation, trace))
}

/// Per-monomedia negotiation: optimize and commit each component in
/// isolation (the paper's "single monomedia object" negotiation style).
///
/// Each component's variants are scored as one-variant offers (carrying
/// only that component's cost) and reserved greedily in classified order.
/// The document-level cost ceiling is never consulted during optimization —
/// exactly the blind spot the paper's atomic whole-document negotiation
/// fixes. Reached through
/// [`Procedure::PerMonomedia`](crate::request::Procedure::PerMonomedia).
pub(crate) fn negotiate_per_monomedia_impl(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, NegotiationError> {
    profile
        .validate()
        .map_err(NegotiationError::InvalidProfile)?;
    let per_mono = feasible_variants(ctx, client, document)?;
    let mut trace = NegotiationTrace {
        feasible_variants: per_mono.iter().map(|(.., v)| v.len()).sum(),
        ..NegotiationTrace::default()
    };

    let mut committed: Vec<(ScoredOffer, SessionReservation)> = Vec::new();
    let release_all = |committed: &[(ScoredOffer, SessionReservation)]| {
        for (_, r) in committed {
            r.release(ctx.farm, ctx.network);
        }
    };

    for (_, duration_ms, variants) in &per_mono {
        if variants.is_empty() {
            release_all(&committed);
            return Ok(NegotiationOutcome::empty(
                NegotiationStatus::FailedWithoutOffer,
                trace,
            ));
        }
        let offers: Vec<SystemOffer> = variants
            .iter()
            .map(|v| {
                let (net, ser) = ctx
                    .cost_model
                    .monomedia_cost(v, *duration_ms, ctx.guarantee);
                SystemOffer {
                    variants: vec![(*v).clone()],
                    cost: net + ser,
                }
            })
            .collect();
        trace.offers_enumerated += offers.len();
        let scored = classify(offers, profile, ctx.strategy);
        let mut reserved = None;
        for s in scored {
            trace.reservation_attempts += 1;
            if let Ok(r) = try_commit_refusal(ctx, client, &s.offer, profile.time.max_startup_ms) {
                reserved = Some((s, r));
                break;
            }
        }
        match reserved {
            Some(pair) => committed.push(pair),
            None => {
                release_all(&committed);
                return Ok(NegotiationOutcome::empty(
                    NegotiationStatus::FailedTryLater,
                    trace,
                ));
            }
        }
    }

    // Assemble the document-level result from the independent commitments:
    // the committed variants as one offer, priced with the copyright once.
    let chosen = (per_mono.iter().zip(&committed))
        .map(|(&(mono, dur, _), (s, _))| (mono, dur, &s.offer.variants[0]));
    let mut list = one_offer(ctx, client, profile, chosen);
    let scored = list.materialize(0);
    let reservation = SessionReservation {
        servers: committed
            .iter()
            .flat_map(|(_, r)| r.servers.clone())
            .collect(),
        network: committed
            .iter()
            .flat_map(|(_, r)| r.network.clone())
            .collect(),
    };
    Ok(outcome_for_offer(list, scored, Some(reservation), trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    // The unit tests exercise the crate-private implementations directly;
    // external callers go through `Session::submit`.
    use super::negotiate_per_monomedia_impl as negotiate_per_monomedia;
    use super::negotiate_static_first_fit_impl as negotiate_static_first_fit;
    use crate::classify::ClassificationStrategy;
    use crate::cost::CostModel;
    use crate::money::Money;
    use crate::negotiate::negotiate_impl as negotiate;
    use crate::profile::tv_news_profile;
    use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
    use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
    use nod_mmdoc::{ClientId, ServerId};
    use nod_netsim::{Network, Topology};
    use nod_simcore::StreamRng;

    struct World {
        catalog: Catalog,
        farm: ServerFarm,
        network: Network,
        cost: CostModel,
    }

    fn world(seed: u64) -> World {
        let mut rng = StreamRng::new(seed);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 6,
            servers: (0..3).map(ServerId).collect(),
            video_variants: (3, 6),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        World {
            catalog,
            farm: ServerFarm::uniform(3, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(4, 3, 25_000_000, 155_000_000)),
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
            streaming: crate::negotiate::StreamingMode::Auto,
            recorder: None,
            explain: false,
        }
    }

    #[test]
    fn first_fit_commits_a_single_offer() {
        let w = world(31);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_static_first_fit(&ctx(&w), &client, DocumentId(1), &tv_news_profile())
            .unwrap();
        assert_eq!(out.trace.offers_enumerated, 1);
        assert_eq!(out.trace.reservation_attempts, 1);
        assert_eq!(out.ordered_offers.len(), 1);
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    }

    #[test]
    fn smart_beats_first_fit_on_offer_quality() {
        // Over several corpora the smart negotiator's accepted offer must
        // be at least as good (by the user's own OIF) as first-fit's.
        let mut smart_better = 0;
        let mut comparisons = 0;
        for seed in 40..48 {
            let w = world(seed);
            let client = ClientMachine::era_workstation(ClientId(0));
            let profile = tv_news_profile();
            let smart = negotiate(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
            if let Some(r) = &smart.reservation {
                r.release(&w.farm, &w.network);
            }
            let naive =
                negotiate_static_first_fit(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
            if let Some(r) = &naive.reservation {
                r.release(&w.farm, &w.network);
            }
            if let (Some(s), Some(n)) = (&smart.reserved_offer, &naive.reserved_offer) {
                comparisons += 1;
                let (s_oif, n_oif) = (s.oif, n.oif);
                assert!(
                    s_oif >= n_oif - 1e-9,
                    "seed {seed}: smart OIF {s_oif} < first-fit OIF {n_oif}"
                );
                if s_oif > n_oif + 1e-9 {
                    smart_better += 1;
                }
            }
        }
        assert!(comparisons > 0);
        assert!(
            smart_better > 0,
            "smart negotiation never strictly improved on first-fit"
        );
    }

    #[test]
    fn per_monomedia_commits_every_component() {
        let w = world(32);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out =
            negotiate_per_monomedia(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert!(matches!(
            out.status,
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
        ));
        let doc = w.catalog.document(DocumentId(1)).unwrap();
        let offer = &out.reserved_offer.as_ref().unwrap().offer;
        assert_eq!(offer.variants.len(), doc.monomedia().len());
        out.reservation.unwrap().release(&w.farm, &w.network);
        assert_eq!(w.network.active_reservations(), 0);
    }

    #[test]
    fn per_monomedia_failure_releases_partial_commitments() {
        let w = world(33);
        let client = ClientMachine::era_workstation(ClientId(0));
        // Choke everything: the first monomedia may commit, later ones fail.
        for s in w.farm.ids() {
            w.farm.server(s).unwrap().set_health(0.0);
        }
        let out =
            negotiate_per_monomedia(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedTryLater);
        assert_eq!(w.network.active_reservations(), 0, "leaked reservations");
    }

    #[test]
    fn per_monomedia_can_overshoot_the_budget_where_atomic_respects_it() {
        // The structural claim (paper §1/§8): optimizing each monomedia in
        // isolation ignores the document-level cost ceiling, so across
        // corpora the per-monomedia baseline must sometimes deliver an
        // offer above max_cost while atomic negotiation, when it succeeds,
        // never does.
        let mut overshoots = 0;
        for seed in 60..75 {
            let w = world(seed);
            let client = ClientMachine::era_workstation(ClientId(0));
            let mut profile = tv_news_profile();
            profile.max_cost = Money::from_dollars(5);
            let atomic = negotiate(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
            if atomic.status == NegotiationStatus::Succeeded {
                let reserved = atomic.reserved_offer.as_ref().unwrap();
                assert!(reserved.offer.cost <= profile.max_cost);
            }
            if let Some(r) = &atomic.reservation {
                r.release(&w.farm, &w.network);
            }
            let per = negotiate_per_monomedia(&ctx(&w), &client, DocumentId(1), &profile).unwrap();
            if let Some(offer) = per.user_offer {
                if offer.cost > profile.max_cost {
                    overshoots += 1;
                }
            }
            if let Some(r) = &per.reservation {
                r.release(&w.farm, &w.network);
            }
        }
        assert!(
            overshoots > 0,
            "per-monomedia baseline never overshot the budget — the \
             experiment would be vacuous"
        );
    }
}
