//! Integration tests for the extension features (advance reservations,
//! multi-domain negotiation, scenarios) through the public API.

use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{FarmUsage, Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{Catalog, CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::future::AdvanceBook;
use news_on_demand::qosneg::hierarchy::{Domain, MultiDomainConfig};
use news_on_demand::qosneg::negotiate::NegotiationContext;
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{
    ClassificationStrategy, CostModel, NegotiationRequest, NegotiationStatus, QosError, Session,
};
use news_on_demand::simcore::{SimTime, StreamRng};
use news_on_demand::workload::scenario::presets;

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

fn ctx(w: &World, prune: bool) -> NegotiationContext<'_> {
    NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: prune,
        streaming: nod_qosneg::negotiate::StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

#[test]
fn advance_and_live_reservations_coexist() {
    let w = world(200);
    let c = ctx(&w, false);
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();

    // Book tomorrow's session.
    let session = Session::new(c);
    let mut book = AdvanceBook::new(&c);
    let future = session
        .submit_future(
            &NegotiationRequest::new(&client, DocumentId(1), &profile)
                .start_at(SimTime::from_secs(86_400)),
            &mut book,
        )
        .unwrap();
    assert!(future.booking.is_some());

    // A live session negotiates right now, unaffected by the booking.
    let live = session
        .submit(&NegotiationRequest::new(&client, DocumentId(1), &profile))
        .unwrap();
    assert!(matches!(
        live.status,
        NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
    ));
    live.reservation.unwrap().release(&w.farm, &w.network);
    book.cancel(future.booking.unwrap());
    assert_eq!(book.bookings(), 0);
    assert_eq!(w.network.active_reservations(), 0);
}

#[test]
fn inert_prune_dominated_changes_nothing() {
    // `NegotiationContext::prune_dominated` survives only as a name: step 5
    // walks every offer whatever it says. Each side runs on its own fresh
    // world, so the two outcomes and the capacity they leave behind must
    // be identical.
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let request = NegotiationRequest::new(&client, DocumentId(1), &profile);
    for seed in 210..220 {
        let run = |prune: bool| {
            let w = world(seed);
            let out = Session::new(ctx(&w, prune)).submit(&request).unwrap();
            let held = (
                w.farm.usage(),
                w.network.active_reservations(),
                w.network.total_reserved_bps(),
            );
            if let Some(r) = &out.reservation {
                r.release(&w.farm, &w.network);
            }
            (out, held)
        };
        let (off, off_held) = run(false);
        let (on, on_held) = run(true);
        assert_eq!(off.status, on.status, "seed {seed}");
        assert_eq!(off.reserved_index, on.reserved_index, "seed {seed}");
        assert_eq!(
            off.ordered_offers.len(),
            on.ordered_offers.len(),
            "seed {seed}: every offer stays in the fallback chain"
        );
        assert_eq!(off.trace, on.trace, "seed {seed}");
        assert_eq!(off.refusals, on.refusals, "seed {seed}");
        assert_eq!(off_held, on_held, "seed {seed}: capacity afterwards");
    }
}

#[test]
fn multidomain_over_the_umbrella_api() {
    let mk_domain = |seed: u64, surcharge: u32| {
        let mut rng = StreamRng::new(seed);
        Domain {
            name: format!("d{seed}"),
            catalog: CorpusBuilder::new(CorpusParams {
                documents: 4,
                servers: (0..2).map(ServerId).collect(),
                ..CorpusParams::default()
            })
            .build(&mut rng),
            farm: ServerFarm::uniform(2, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(4, 2, 25_000_000, 155_000_000)),
            gateway: ClientId(3),
            transit_surcharge_percent: surcharge,
        }
    };
    let domains = vec![mk_domain(1, 0), mk_domain(1, 30)];
    let model = CostModel::era_default();
    let config = MultiDomainConfig {
        cost_model: &model,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
    };
    let client = ClientMachine::era_workstation(ClientId(0));
    let out = Session::submit_multidomain(
        &domains,
        0,
        &NegotiationRequest::new(&client, DocumentId(2), &tv_news_profile()),
        &config,
    )
    .unwrap();
    assert!(out.outcome.reservation.is_some());
    out.outcome.reservation.unwrap().release(
        &domains[out.domain_index].farm,
        &domains[out.domain_index].network,
    );
}

#[test]
fn multidomain_with_an_out_of_range_home_is_an_invalid_request() {
    let mut rng = StreamRng::new(1);
    let domains = vec![Domain {
        name: "only".into(),
        catalog: CorpusBuilder::new(CorpusParams {
            documents: 4,
            servers: (0..2).map(ServerId).collect(),
            ..CorpusParams::default()
        })
        .build(&mut rng),
        farm: ServerFarm::uniform(2, ServerConfig::era_default()),
        network: Network::new(Topology::dumbbell(4, 2, 25_000_000, 155_000_000)),
        gateway: ClientId(3),
        transit_surcharge_percent: 0,
    }];
    let model = CostModel::era_default();
    let config = MultiDomainConfig {
        cost_model: &model,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
    };
    let client = ClientMachine::era_workstation(ClientId(0));
    let result = Session::submit_multidomain(
        &domains,
        domains.len(),
        &NegotiationRequest::new(&client, DocumentId(2), &tv_news_profile()),
        &config,
    );
    assert!(
        matches!(result, Err(QosError::InvalidRequest(_))),
        "an out-of-range home is the caller's error, not a panic"
    );
    // Nothing was negotiated anywhere.
    let d = &domains[0];
    assert_eq!(d.farm.usage(), FarmUsage::default());
    assert_eq!(d.network.active_reservations(), 0);
}

#[test]
fn scenario_presets_run_end_to_end() {
    let mut s = presets::light_load();
    s.blocking[0].horizon_minutes = 5.0;
    let r = news_on_demand::workload::run_blocking(&s.blocking[0]);
    assert!(r.offered > 0);
    assert_eq!(r.try_later, 0, "light load never hits resource limits");
}

#[test]
fn commit_diagnostics_surface_through_the_stack() {
    let w = world(220);
    let client = ClientMachine::era_workstation(ClientId(0));
    for s in w.farm.ids() {
        w.farm.server(s).unwrap().set_health(0.0);
    }
    let out = Session::new(ctx(&w, false))
        .submit(&NegotiationRequest::new(
            &client,
            DocumentId(1),
            &tv_news_profile(),
        ))
        .unwrap();
    assert_eq!(out.status, NegotiationStatus::FailedTryLater);
    assert!(!out.refusals.is_empty());
    // Every diagnostic renders a human-readable reason naming its server.
    for refusal in &out.refusals {
        let server = refusal.server().expect("a server refusal names its server");
        assert!(refusal.to_string().contains(&format!("srv{server}")));
    }
}
