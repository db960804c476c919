//! Automatic adaptation (paper §4, last paragraph).
//!
//! "During the playout of the document, if the network or/and the server
//! machine become congested thus leading to lower presentation quality, the
//! QoS manager makes use of the adaptation procedure. In this case, the QoS
//! manager considers the ordered set of system offers, **except the current
//! one** (which is in difficulty), and executes Step 5. If an alternate
//! system offer is selected and the required resources are reserved, the
//! QoS manager automatically performs a transition from the current system
//! offer to the new one" — all without intervention by the user.
//!
//! [`adapt`] is therefore step 5 again, over the session's own
//! [`RankedOffers`]: the same commit walk negotiation runs (the per-offer
//! decode check, the refused-prefix memo, the [`CommitRefusal`]s behind
//! an [`AdaptationRecord`]), from a fresh cursor, passing over the current
//! offer and without the startup bound.
//!
//! [`CommitRefusal`]: crate::negotiate::CommitRefusal

use nod_client::ClientMachine;

use crate::engine::RankedOffers;
use crate::explain::AdaptationRecord;
use crate::negotiate::{CommitWalk, NegotiationContext, SessionReservation};

/// Why adaptation was triggered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptationReason {
    /// A file server serving this session reported violated reservations.
    ServerCongestion,
    /// A network link on a session path reported violated reservations.
    NetworkCongestion,
    /// The user asked for different QoS mid-session (renegotiation).
    UserRequest,
}

impl AdaptationReason {
    /// Stable label for artifacts and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            AdaptationReason::ServerCongestion => "server_congestion",
            AdaptationReason::NetworkCongestion => "network_congestion",
            AdaptationReason::UserRequest => "user_request",
        }
    }
}

/// The result of one adaptation attempt.
#[derive(Debug)]
pub struct AdaptationOutcome {
    /// The newly reserved offer's classified index into the session's
    /// ordered offer list, if an alternate was found.
    pub new_index: Option<usize>,
    /// The new resources (present iff `new_index` is).
    pub reservation: Option<SessionReservation>,
    /// How many alternates were tried.
    pub attempts: usize,
    /// What triggered the adaptation.
    pub reason: AdaptationReason,
    /// The adaptation verdict (present iff
    /// [`NegotiationContext::explain`] was set): refused alternates with
    /// their shortfalls, the new rank, and the make-before-break check.
    pub explain: Option<Box<AdaptationRecord>>,
}

impl AdaptationOutcome {
    /// Did the adaptation find and reserve an alternate offer?
    pub fn switched(&self) -> bool {
        self.new_index.is_some()
    }
}

/// Run the adaptation procedure: re-execute step 5 over the remaining
/// ordered offers and, if an alternate commits, release the current
/// offer's resources — **make-before-break**.
///
/// The walk orders `ordered_offers` further as it goes and materializes
/// nothing; read the new offer with [`RankedOffers::materialize`] at
/// `new_index`. Each refused prefix is judged once, against the capacity
/// the walk started with (the current reservation held). Counters: none
/// beyond what the farm and network count themselves.
///
/// Holding the current reservation while shopping means a failed
/// adaptation leaves the session exactly where it was (playing, degraded)
/// instead of stranded without resources; the price is that an alternate
/// must fit *alongside* the current reservation for the overlap instant
/// (on shared healthy components such as the client's access link). The
/// current offer's own resources sit mostly on the degraded components,
/// so in practice they rarely block the alternates.
pub fn adapt(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    ordered_offers: &mut RankedOffers,
    current_index: usize,
    current_reservation: &SessionReservation,
    reason: AdaptationReason,
) -> AdaptationOutcome {
    // The make-before-break flag is structural: the release below happens
    // only after an alternate committed, and a failed adaptation keeps the
    // current reservation untouched. Either way the session never stands
    // without resources, so the record reports `true` unconditionally.
    let mut record: Option<Box<AdaptationRecord>> = ctx.explain.then(|| {
        Box::new(AdaptationRecord {
            reason: reason.label().to_string(),
            from_rank: current_index as u64,
            attempts: Vec::new(),
            new_rank: None,
            make_before_break: true,
        })
    });
    // Mid-session transitions are not bound by the startup deadline — the
    // user is already watching; the switch is best-effort fast.
    let mut walk = CommitWalk::new(ctx, client, u64::MAX);
    // "except the current one (which is in difficulty)"
    let (attempts, committed) =
        walk.first_fit(ordered_offers, Some(current_index), |idx, refusal| {
            if let Some(r) = record.as_deref_mut() {
                r.attempts.push(refusal.record(idx));
            }
        });
    let (new_index, reservation) = committed.unzip();
    if let Some(idx) = new_index {
        // Break the old offer only after the new one is committed.
        current_reservation.release(ctx.farm, ctx.network);
        if let Some(r) = record.as_deref_mut() {
            r.new_rank = Some(idx as u64);
        }
    }
    AdaptationOutcome {
        new_index,
        reservation,
        attempts,
        reason,
        explain: record,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassificationStrategy;
    use crate::cost::CostModel;
    use crate::negotiate::{negotiate_impl as negotiate, NegotiationStatus};
    use crate::profile::tv_news_profile;
    use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
    use nod_mmdb::{CorpusBuilder, CorpusParams};
    use nod_mmdoc::{ClientId, DocumentId, ServerId};
    use nod_netsim::{Network, Topology};
    use nod_simcore::StreamRng;

    struct World {
        catalog: nod_mmdb::Catalog,
        farm: ServerFarm,
        network: Network,
        cost: CostModel,
    }

    fn world(seed: u64) -> World {
        let mut rng = StreamRng::new(seed);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 6,
            servers: (0..3).map(ServerId).collect(),
            video_variants: (4, 6),
            replicas: (1, 2),
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
    fn adaptation_switches_to_an_alternate_offer() {
        let w = world(11);
        let client = nod_client::ClientMachine::era_workstation(ClientId(0));
        let mut out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        assert!(matches!(
            out.status,
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
        ));
        let idx = out.reserved_index.unwrap();
        let res = out.reservation.as_ref().unwrap();

        // Kill the server carrying the current first stream outright.
        let victim_server = res.servers[0].0;
        w.farm.server(victim_server).unwrap().set_health(0.0);

        let adapted = adapt(
            &ctx(&w),
            &client,
            &mut out.ordered_offers,
            idx,
            res,
            AdaptationReason::ServerCongestion,
        );
        // A dead server admits nothing: a switch can only land on an offer
        // avoiding the victim everywhere; and if no such offer exists the
        // adaptation must fail.
        let list = &mut out.ordered_offers;
        let avoiding_exists = (0..list.len()).any(|i| {
            i != idx
                && (list.materialize(i).offer.variants.iter()).all(|v| v.server != victim_server)
        });
        if !avoiding_exists {
            assert!(!adapted.switched());
        }
        if let Some(new_idx) = adapted.new_index {
            assert_ne!(new_idx, idx, "must not re-select the offer in difficulty");
            let new_offer = list.materialize(new_idx).offer;
            for v in &new_offer.variants {
                assert_ne!(v.server, victim_server);
            }
        }
        if let Some(r) = adapted.reservation {
            r.release(&w.farm, &w.network);
        } else {
            // Failed adaptation kept the original resources.
            res.release(&w.farm, &w.network);
        }
        assert_eq!(w.network.active_reservations(), 0);
    }

    #[test]
    fn adaptation_fails_when_everything_is_congested() {
        let w = world(12);
        let client = nod_client::ClientMachine::era_workstation(ClientId(0));
        let mut out = negotiate(&ctx(&w), &client, DocumentId(1), &tv_news_profile()).unwrap();
        let idx = out.reserved_index.unwrap();
        let res = out.reservation.as_ref().unwrap();
        for s in w.farm.ids() {
            w.farm.server(s).unwrap().set_health(0.0);
        }
        let adapted = adapt(
            &ctx(&w),
            &client,
            &mut out.ordered_offers,
            idx,
            res,
            AdaptationReason::ServerCongestion,
        );
        assert!(!adapted.switched());
        assert!(adapted.attempts >= out.ordered_offers.len() - 1);
        // Make-before-break: the failed adaptation keeps the current
        // reservation so the session can keep limping.
        assert!(w.network.active_reservations() > 0);
        res.release(&w.farm, &w.network);
        assert_eq!(w.network.active_reservations(), 0);
    }

    #[test]
    fn user_renegotiation_reuses_the_same_machinery() {
        let w = world(13);
        let client = nod_client::ClientMachine::era_workstation(ClientId(0));
        let mut out = negotiate(&ctx(&w), &client, DocumentId(2), &tv_news_profile()).unwrap();
        let idx = out.reserved_index.unwrap();
        let res = out.reservation.as_ref().unwrap();
        // No congestion at all: a user-driven renegotiation still finds an
        // alternate (the next offer in the order).
        let adapted = adapt(
            &ctx(&w),
            &client,
            &mut out.ordered_offers,
            idx,
            res,
            AdaptationReason::UserRequest,
        );
        assert_eq!(adapted.reason, AdaptationReason::UserRequest);
        if out.ordered_offers.len() > 1 {
            assert!(adapted.switched());
        }
        if let Some(r) = adapted.reservation {
            r.release(&w.farm, &w.network);
        }
    }
}
