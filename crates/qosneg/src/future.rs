//! Advance (future) reservations — negotiation for a later start time.
//!
//! The paper's conclusion and its [Haf 96] companion ("Quality of Service
//! Negotiation with Future Reservations") extend the procedure to sessions
//! booked ahead of time: the user picks a start instant, and the system
//! must hold capacity over the whole playout window `[start, start+D)`.
//!
//! The [`AdvanceBook`] mirrors the live resources as
//! [`nod_simcore::IntervalLedger`]s — per-server disk-round capacity and
//! per-link bandwidth — so advance admission answers the same question the
//! live reservation tables answer for "now", but over a window.
//! [`crate::Session::submit_future`] reuses negotiation steps 1–4 verbatim
//! ([`crate::negotiate::prepare`]) and replaces step 5's commitment with
//! ledger bookings.

use std::collections::BTreeMap;

use nod_client::ClientMachine;
use nod_cmfs::StreamRequirement;
use nod_mmdoc::{DocumentId, ServerId};
use nod_netsim::LinkId;
use nod_simcore::{BookingId, IntervalLedger, SimDuration, SimTime};

use crate::classify::ScoredOffer;
use crate::engine::{OfferList, WalkCursor};
use crate::mapping::charged_bit_rate;
use crate::negotiate::{
    prepare, NegotiationContext, NegotiationError, NegotiationStatus, NegotiationTrace, Prepared,
};
use crate::offer::UserOffer;

/// Handle to one advance-booked system offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AdvanceBookingId(pub u64);

enum LedgerRef {
    Server(ServerId),
    Link(LinkId),
}

/// The advance-reservation book over a deployment's capacities.
pub struct AdvanceBook {
    servers: BTreeMap<ServerId, IntervalLedger>,
    links: BTreeMap<LinkId, IntervalLedger>,
    bookings: BTreeMap<AdvanceBookingId, Vec<(LedgerRef, BookingId)>>,
    next: u64,
}

impl AdvanceBook {
    /// Build ledgers mirroring the farm's disk-round capacity and the
    /// network's link capacities (both at full health — advance admission
    /// plans against nominal capacity).
    pub fn new(ctx: &NegotiationContext<'_>) -> Self {
        let mut servers = BTreeMap::new();
        for id in ctx.farm.ids() {
            let server = ctx.farm.server(id).expect("listed server exists");
            let cfg = server.config();
            let capacity =
                (cfg.disk.round_capacity_us(cfg.round_us) as f64 * cfg.utilization_limit) as u64;
            servers.insert(id, IntervalLedger::new(capacity.max(1)));
        }
        let links = (ctx.network.topology().links().iter().enumerate())
            .map(|(i, l)| (LinkId(i as u64), IntervalLedger::new(l.capacity_bps)))
            .collect();
        AdvanceBook {
            servers,
            links,
            bookings: BTreeMap::new(),
            next: 1,
        }
    }

    /// Number of live advance bookings.
    pub fn bookings(&self) -> usize {
        self.bookings.len()
    }

    /// Headroom (µs of disk round) on a server over a window.
    pub fn server_headroom(&self, id: ServerId, start: SimTime, end: SimTime) -> Option<u64> {
        self.servers.get(&id).map(|l| l.available(start, end))
    }

    /// Try to book every stream of an offer over `[start, end)`.
    fn try_book_offer(
        &mut self,
        ctx: &NegotiationContext<'_>,
        client: &ClientMachine,
        offer: &ScoredOffer,
        start: SimTime,
        end: SimTime,
    ) -> Option<AdvanceBookingId> {
        let mut held: Vec<(LedgerRef, BookingId)> = Vec::new();
        let rollback = |book: &mut AdvanceBook, held: &mut Vec<(LedgerRef, BookingId)>| {
            for (lref, id) in held.drain(..) {
                match lref {
                    LedgerRef::Server(s) => {
                        book.servers.get_mut(&s).expect("held ledger").cancel(id)
                    }
                    LedgerRef::Link(l) => book.links.get_mut(&l).expect("held ledger").cancel(id),
                }
            }
        };

        for variant in &offer.offer.variants {
            // Server disk-round share over the window.
            let server = match ctx.farm.server(variant.server) {
                Some(s) => s,
                None => {
                    rollback(self, &mut held);
                    return None;
                }
            };
            let req = StreamRequirement::for_variant(variant, ctx.guarantee);
            let round_cost = server.round_cost_us(&req);
            if round_cost > 0 {
                let ledger = self.servers.get_mut(&variant.server).expect("mirrored");
                match ledger.try_book(start, end, round_cost) {
                    Ok(id) => held.push((LedgerRef::Server(variant.server), id)),
                    Err(_) => {
                        rollback(self, &mut held);
                        return None;
                    }
                }
            }
            // Link bandwidth along the current route.
            if variant.blocks_per_second > 0 {
                let bps = charged_bit_rate(variant, ctx.guarantee);
                let path = match ctx.network.path(client.id, variant.server) {
                    Ok(p) => p,
                    Err(_) => {
                        rollback(self, &mut held);
                        return None;
                    }
                };
                for link in path {
                    let ledger = self.links.get_mut(&link).expect("mirrored");
                    match ledger.try_book(start, end, bps) {
                        Ok(id) => held.push((LedgerRef::Link(link), id)),
                        Err(_) => {
                            rollback(self, &mut held);
                            return None;
                        }
                    }
                }
            }
        }
        let id = AdvanceBookingId(self.next);
        self.next += 1;
        self.bookings.insert(id, held);
        Some(id)
    }

    /// Cancel an advance booking (idempotent).
    pub fn cancel(&mut self, id: AdvanceBookingId) {
        if let Some(held) = self.bookings.remove(&id) {
            for (lref, bid) in held {
                match lref {
                    LedgerRef::Server(s) => {
                        self.servers.get_mut(&s).expect("held ledger").cancel(bid)
                    }
                    LedgerRef::Link(l) => self.links.get_mut(&l).expect("held ledger").cancel(bid),
                }
            }
        }
    }
}

/// The result of an advance negotiation.
#[derive(Debug)]
pub struct FutureOutcome {
    /// Negotiation status (same vocabulary as the live procedure).
    pub status: NegotiationStatus,
    /// The booked user offer.
    pub user_offer: Option<UserOffer>,
    /// The advance booking handle.
    pub booking: Option<AdvanceBookingId>,
    /// Index of the booked offer in `ordered_offers`.
    pub booked_index: Option<usize>,
    /// The classified offers (for later adaptation / rebooking), deferred
    /// like [`crate::negotiate::NegotiationOutcome::ordered_offers`].
    pub ordered_offers: OfferList,
    /// Work counters.
    pub trace: NegotiationTrace,
}

/// Negotiate a session starting at `start`: steps 1–4 as in the live
/// procedure, step 5 against the advance book's window ledgers. This is
/// the implementation behind [`crate::Session::submit_future`].
pub(crate) fn negotiate_future_impl(
    ctx: &NegotiationContext<'_>,
    book: &mut AdvanceBook,
    client: &ClientMachine,
    document: DocumentId,
    profile: &crate::profile::UserProfile,
    start: SimTime,
) -> Result<FutureOutcome, NegotiationError> {
    let (mut ordered, mut trace) = match prepare(ctx, client, document, profile)? {
        Prepared::Early(outcome) => {
            let o = *outcome;
            return Ok(FutureOutcome {
                status: o.status,
                user_offer: o.user_offer,
                booking: None,
                booked_index: None,
                ordered_offers: o.ordered_offers,
                trace: o.trace,
            });
        }
        Prepared::Offers(ordered, trace, _decisions) => (ordered, trace),
    };
    let duration_ms = ctx
        .catalog
        .document(document)
        .expect("prepare validated the document")
        .total_duration_ms()
        .map_err(|e| NegotiationError::InvalidProfile(e.to_string()))?;
    let end = start + SimDuration::from_millis(duration_ms.max(1));

    let mut booked = None;
    let mut cursor = WalkCursor::default();
    while let Some(idx) = ordered.next_attempt(&mut cursor) {
        trace.reservation_attempts += 1;
        let scored = ordered.materialize(idx);
        if let Some(booking) = book.try_book_offer(ctx, client, &scored, start, end) {
            booked = Some((idx, scored, booking));
            break;
        }
    }
    let status = match &booked {
        Some((_, scored, _)) if scored.satisfies_request => NegotiationStatus::Succeeded,
        Some(_) => NegotiationStatus::FailedWithOffer,
        None => NegotiationStatus::FailedTryLater,
    };
    Ok(FutureOutcome {
        status,
        user_offer: booked.as_ref().map(|(_, s, _)| s.offer.to_user_offer()),
        booking: booked.as_ref().map(|&(_, _, booking)| booking),
        booked_index: booked.as_ref().map(|&(idx, _, _)| idx),
        ordered_offers: OfferList::ranked(ordered),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    // The unit tests exercise the implementation directly; the public
    // entry point is `Session::submit_future`.
    use super::negotiate_future_impl as negotiate_future;
    use crate::classify::ClassificationStrategy;
    use crate::cost::CostModel;
    use crate::profile::tv_news_profile;
    use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
    use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
    use nod_mmdoc::ClientId;
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
            documents: 4,
            servers: (0..2).map(ServerId).collect(),
            duration_secs: (60, 90),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        World {
            catalog,
            farm: ServerFarm::uniform(2, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(3, 2, 25_000_000, 155_000_000)),
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
    fn future_booking_succeeds_and_cancels() {
        let w = world(1);
        let c = ctx(&w);
        let mut book = AdvanceBook::new(&c);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_future(
            &c,
            &mut book,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            SimTime::from_secs(3_600),
        )
        .unwrap();
        assert!(matches!(
            out.status,
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
        ));
        let id = out.booking.expect("booked");
        assert_eq!(book.bookings(), 1);
        // The live reservation tables are untouched by advance booking.
        assert_eq!(w.network.active_reservations(), 0);
        assert!(w.farm.mean_disk_utilization() < 1e-12);
        book.cancel(id);
        book.cancel(id); // idempotent
        assert_eq!(book.bookings(), 0);
    }

    #[test]
    fn same_window_saturates_disjoint_windows_do_not() {
        let w = world(2);
        let c = ctx(&w);
        let mut book = AdvanceBook::new(&c);
        let profile = tv_news_profile();
        // Pack one start instant until it refuses.
        let mut same_window = 0usize;
        for i in 0..64u64 {
            let client = ClientMachine::era_workstation(ClientId(i % 3));
            let out = negotiate_future(
                &c,
                &mut book,
                &client,
                DocumentId(1),
                &profile,
                SimTime::from_secs(1_000),
            )
            .unwrap();
            match out.status {
                NegotiationStatus::FailedTryLater => break,
                _ => same_window += 1,
            }
        }
        assert!(same_window > 0, "at least one booking fits");
        assert!(same_window < 64, "the window must eventually saturate");
        // A disjoint window still has full capacity.
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = negotiate_future(
            &c,
            &mut book,
            &client,
            DocumentId(1),
            &profile,
            SimTime::from_secs(100_000),
        )
        .unwrap();
        assert!(out.booking.is_some(), "disjoint window should admit");
    }

    #[test]
    fn cancellation_restores_the_window() {
        let w = world(3);
        let c = ctx(&w);
        let mut book = AdvanceBook::new(&c);
        let profile = tv_news_profile();
        let start = SimTime::from_secs(500);
        // Fill the window.
        let mut ids = Vec::new();
        for i in 0..64u64 {
            let client_id = ClientId(i % 3);
            let client = ClientMachine::era_workstation(client_id);
            let out =
                negotiate_future(&c, &mut book, &client, DocumentId(1), &profile, start).unwrap();
            match out.booking {
                Some(id) => ids.push((client_id, id)),
                None => break,
            }
        }
        assert!(!ids.is_empty());
        // Cancel one; the same client's seat admits exactly one more (a
        // different client's access link may still be the bottleneck, so
        // the retry reuses the canceled booking's client).
        let (client_id, last) = ids.pop().unwrap();
        book.cancel(last);
        let client = ClientMachine::era_workstation(client_id);
        let out = negotiate_future(&c, &mut book, &client, DocumentId(1), &profile, start).unwrap();
        assert!(out.booking.is_some(), "freed capacity should readmit");
    }

    #[test]
    fn early_failures_pass_through() {
        let w = world(4);
        let c = ctx(&w);
        let mut book = AdvanceBook::new(&c);
        let mut client = ClientMachine::era_budget_pc(ClientId(0));
        client.display.color = nod_mmdoc::ColorDepth::BlackWhite;
        let out = negotiate_future(
            &c,
            &mut book,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            SimTime::from_secs(10),
        )
        .unwrap();
        assert_eq!(out.status, NegotiationStatus::FailedWithLocalOffer);
        assert_eq!(book.bookings(), 0);
    }

    #[test]
    fn server_headroom_reflects_bookings() {
        let w = world(5);
        let c = ctx(&w);
        let mut book = AdvanceBook::new(&c);
        let client = ClientMachine::era_workstation(ClientId(0));
        let start = SimTime::from_secs(50);
        let before: u64 = w
            .farm
            .ids()
            .iter()
            .map(|&s| {
                book.server_headroom(s, start, start + SimDuration::from_secs(10))
                    .unwrap()
            })
            .sum();
        let out = negotiate_future(
            &c,
            &mut book,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            start,
        )
        .unwrap();
        assert!(out.booking.is_some());
        let after: u64 = w
            .farm
            .ids()
            .iter()
            .map(|&s| {
                book.server_headroom(s, start, start + SimDuration::from_secs(10))
                    .unwrap()
            })
            .sum();
        assert!(after < before, "booking must consume window headroom");
    }
}
