//! Hierarchical negotiation across administrative domains.
//!
//! The paper's related-work lineage includes [Haf 95b], "A Hierarchical
//! Negotiation for Distributed Multimedia Applications in a Multi-Domain
//! Environment": when the user's *home* domain cannot support the request,
//! a higher-level negotiator delegates to peer domains holding replicas of
//! the document, paying a transit surcharge for inter-domain delivery.
//!
//! Each [`Domain`] is a complete deployment (catalog + farm + network).
//! [`crate::Session::submit_multidomain`] runs the ordinary single-domain
//! procedure at home first; on resource failure it tries each peer domain
//! through that domain's *gateway* (the ingress point foreign traffic
//! enters through), shrinking the cost ceiling by the surcharge so the
//! final, surcharged price still respects the user's budget.

use nod_client::ClientMachine;
use nod_mmdb::Catalog;
use nod_mmdoc::{ClientId, DocumentId};
use nod_netsim::Network;

use nod_cmfs::ServerFarm;

use crate::classify::ClassificationStrategy;
use crate::cost::CostModel;
use crate::money::Money;
use crate::negotiate::{
    negotiate_impl, NegotiationContext, NegotiationError, NegotiationOutcome, NegotiationStatus,
};
use crate::profile::UserProfile;
use crate::sns::satisfies_request;

/// One administrative domain.
pub struct Domain {
    /// Human-readable name ("campus", "metro", …).
    pub name: String,
    /// The domain's document/variant catalog (its replica set).
    pub catalog: Catalog,
    /// The domain's server farm.
    pub farm: ServerFarm,
    /// The domain's network.
    pub network: Network,
    /// The client id foreign sessions enter through (must be attached to
    /// this domain's topology).
    pub gateway: ClientId,
    /// Transit surcharge for serving a foreign client, percent of the
    /// domain's quoted price.
    pub transit_surcharge_percent: u32,
}

/// Shared negotiation knobs across domains.
#[derive(Clone, Copy)]
pub struct MultiDomainConfig<'a> {
    /// The pricing model (shared; domains differ by surcharge).
    pub cost_model: &'a CostModel,
    /// Offer-ordering rule.
    pub strategy: ClassificationStrategy,
    /// Guarantee class.
    pub guarantee: nod_cmfs::Guarantee,
    /// Enumeration budget.
    pub enumeration_cap: usize,
    /// Jitter-buffer size for startup checks.
    pub jitter_buffer_ms: u64,
}

/// The result of a multi-domain negotiation.
pub struct MultiDomainOutcome {
    /// Which domain serves the session.
    pub domain_index: usize,
    /// True when a peer (non-home) domain serves it.
    pub remote: bool,
    /// The underlying single-domain outcome (reservation lives in the
    /// serving domain's farm/network).
    pub outcome: NegotiationOutcome,
    /// The price charged to the user, surcharge included.
    pub user_cost: Option<Money>,
}

fn ctx<'a>(domain: &'a Domain, config: &MultiDomainConfig<'a>) -> NegotiationContext<'a> {
    NegotiationContext {
        catalog: &domain.catalog,
        farm: &domain.farm,
        network: &domain.network,
        cost_model: config.cost_model,
        strategy: config.strategy,
        guarantee: config.guarantee,
        enumeration_cap: config.enumeration_cap,
        jitter_buffer_ms: config.jitter_buffer_ms,
        prune_dominated: false,
        streaming: crate::negotiate::StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

/// Apply a surcharge of `percent` to a price.
fn surcharged(price: Money, percent: u32) -> Money {
    Money::from_millis(price.millis() * (100 + percent as i64) / 100)
}

/// Negotiate at home, then across peers. `home` indexes `domains` (the
/// caller, [`crate::Session::submit_multidomain`], rejects any other
/// value); the client machine must be attached to the home network.
pub(crate) fn negotiate_multidomain_impl(
    domains: &[Domain],
    home: usize,
    client: &ClientMachine,
    document: DocumentId,
    profile: &UserProfile,
    config: &MultiDomainConfig<'_>,
) -> Result<MultiDomainOutcome, NegotiationError> {
    // Home attempt — the ordinary paper procedure.
    let home_domain = &domains[home];
    if home_domain.catalog.document(document).is_some() {
        let outcome = negotiate_impl(&ctx(home_domain, config), client, document, profile)?;
        match outcome.status {
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer => {
                let user_cost = outcome.user_offer.map(|o| o.cost);
                return Ok(MultiDomainOutcome {
                    domain_index: home,
                    remote: false,
                    outcome,
                    user_cost,
                });
            }
            NegotiationStatus::FailedWithLocalOffer => {
                // A client limitation is the same in every domain.
                return Ok(MultiDomainOutcome {
                    domain_index: home,
                    remote: false,
                    user_cost: None,
                    outcome,
                });
            }
            _ => {}
        }
    }

    // Peer attempts, in listed order: the domain hierarchy's preference.
    let mut any_document = domains[home].catalog.document(document).is_some();
    for (i, domain) in domains.iter().enumerate() {
        if i == home || domain.catalog.document(document).is_none() {
            continue;
        }
        any_document = true;
        // Shrink the ceiling so the surcharged price still fits the budget.
        let mut foreign_profile = profile.clone();
        foreign_profile.max_cost = Money::from_millis(
            profile.max_cost.millis() * 100 / (100 + domain.transit_surcharge_percent as i64),
        );
        let gateway_machine = ClientMachine {
            id: domain.gateway,
            ..client.clone()
        };
        let outcome = negotiate_impl(
            &ctx(domain, config),
            &gateway_machine,
            document,
            &foreign_profile,
        )?;
        if let Some(reserved) = &outcome.reserved_offer {
            let user_cost = surcharged(reserved.offer.cost, domain.transit_surcharge_percent);
            // Re-evaluate the user-facing status against the *surcharged*
            // price and the original profile.
            let qos: Vec<&nod_mmdoc::MediaQos> = reserved.offer.qos_values().collect();
            let status = if satisfies_request(profile, qos, user_cost) {
                NegotiationStatus::Succeeded
            } else {
                NegotiationStatus::FailedWithOffer
            };
            let mut outcome = outcome;
            outcome.status = status;
            if let Some(o) = outcome.user_offer.as_mut() {
                o.cost = user_cost;
            }
            return Ok(MultiDomainOutcome {
                domain_index: i,
                remote: true,
                outcome,
                user_cost: Some(user_cost),
            });
        }
    }

    // Nothing anywhere: distinguish "no replica" from "no resources".
    let status = if any_document {
        NegotiationStatus::FailedTryLater
    } else {
        NegotiationStatus::FailedWithoutOffer
    };
    Ok(MultiDomainOutcome {
        domain_index: home,
        remote: false,
        outcome: NegotiationOutcome::empty(status, Default::default()),
        user_cost: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // The unit tests exercise the implementation directly; the public
    // entry point is `Session::submit_multidomain`.
    use super::negotiate_multidomain_impl as negotiate_multidomain;
    use crate::profile::tv_news_profile;
    use nod_cmfs::{Guarantee, ServerConfig};
    use nod_mmdb::{CorpusBuilder, CorpusParams};
    use nod_mmdoc::ServerId;
    use nod_netsim::Topology;
    use nod_simcore::StreamRng;

    fn domain(name: &str, seed: u64, documents: usize, surcharge: u32) -> Domain {
        let mut rng = StreamRng::new(seed);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents,
            servers: (0..2).map(ServerId).collect(),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        // Client 3 is the gateway seat.
        Domain {
            name: name.into(),
            catalog,
            farm: ServerFarm::uniform(2, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(4, 2, 25_000_000, 155_000_000)),
            gateway: ClientId(3),
            transit_surcharge_percent: surcharge,
        }
    }

    fn config(model: &CostModel) -> MultiDomainConfig<'_> {
        MultiDomainConfig {
            cost_model: model,
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: Guarantee::Guaranteed,
            enumeration_cap: 200_000,
            jitter_buffer_ms: 2_000,
        }
    }

    #[test]
    fn home_domain_serves_when_healthy() {
        let domains = vec![domain("home", 1, 4, 0), domain("peer", 2, 4, 25)];
        let model = CostModel::era_default();
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            &config(&model),
        )
        .unwrap();
        assert!(!out.remote);
        assert_eq!(out.domain_index, 0);
        assert!(out.outcome.reservation.is_some());
        out.outcome
            .reservation
            .unwrap()
            .release(&domains[0].farm, &domains[0].network);
    }

    #[test]
    fn saturated_home_fails_over_to_peer_with_surcharge() {
        let domains = vec![domain("home", 1, 4, 0), domain("peer", 1, 4, 25)];
        let model = CostModel::era_default();
        // Kill the home farm.
        for s in domains[0].farm.ids() {
            domains[0].farm.server(s).unwrap().set_health(0.0);
        }
        let client = ClientMachine::era_workstation(ClientId(0));
        let profile = tv_news_profile();
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(1),
            &profile,
            &config(&model),
        )
        .unwrap();
        assert!(out.remote, "peer domain should take over");
        assert_eq!(out.domain_index, 1);
        let base = out.outcome.reserved_offer.as_ref().unwrap().offer.cost;
        let charged = out.user_cost.unwrap();
        assert_eq!(charged, surcharged(base, 25), "25% transit surcharge");
        // A SUCCEEDED remote offer still respects the original ceiling.
        if out.outcome.status == NegotiationStatus::Succeeded {
            assert!(charged <= profile.max_cost);
        }
        out.outcome
            .reservation
            .unwrap()
            .release(&domains[1].farm, &domains[1].network);
        // Home farm untouched (its health stays 0 and nothing reserved).
        assert_eq!(domains[0].network.active_reservations(), 0);
    }

    #[test]
    fn missing_replica_everywhere_is_without_offer() {
        let domains = vec![domain("home", 1, 2, 0), domain("peer", 2, 2, 10)];
        let model = CostModel::era_default();
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(999),
            &tv_news_profile(),
            &config(&model),
        )
        .unwrap();
        assert_eq!(out.outcome.status, NegotiationStatus::FailedWithoutOffer);
    }

    #[test]
    fn replica_only_in_peer_serves_remotely() {
        // Home has 2 documents; doc 4 exists only in the peer.
        let domains = vec![domain("home", 1, 2, 0), domain("peer", 2, 6, 10)];
        let model = CostModel::era_default();
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(4),
            &tv_news_profile(),
            &config(&model),
        )
        .unwrap();
        assert!(out.remote);
        assert_eq!(out.domain_index, 1);
        if let Some(r) = &out.outcome.reservation {
            r.release(&domains[1].farm, &domains[1].network);
        }
    }

    #[test]
    fn everything_saturated_is_try_later() {
        let domains = vec![domain("home", 1, 4, 0), domain("peer", 1, 4, 25)];
        let model = CostModel::era_default();
        for d in &domains {
            for s in d.farm.ids() {
                d.farm.server(s).unwrap().set_health(0.0);
            }
        }
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            &config(&model),
        )
        .unwrap();
        assert_eq!(out.outcome.status, NegotiationStatus::FailedTryLater);
        assert!(out.outcome.reservation.is_none());
    }

    #[test]
    fn client_limitation_short_circuits() {
        let domains = vec![domain("home", 1, 4, 0), domain("peer", 2, 4, 25)];
        let model = CostModel::era_default();
        let mut client = ClientMachine::era_budget_pc(ClientId(0));
        client.display.color = nod_mmdoc::ColorDepth::BlackWhite;
        let out = negotiate_multidomain(
            &domains,
            0,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            &config(&model),
        )
        .unwrap();
        assert_eq!(
            out.outcome.status,
            NegotiationStatus::FailedWithLocalOffer,
            "no point shopping domains for a screen limitation"
        );
        assert!(!out.remote);
    }
}
