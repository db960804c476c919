//! Cross-crate integration tests: the full negotiate → confirm → play →
//! adapt lifecycle through the public API.

use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::manager::{ManagerConfig, QosManager};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{ConfirmationDecision, CostModel, Lifecycle, NegotiationStatus};
use news_on_demand::simcore::StreamRng;
use news_on_demand::syncplay::SessionState;
use news_on_demand::tui::{ProfileManagerApp, UiAction, UiEvent, UiState};

fn manager(seed: u64) -> QosManager {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 10,
        servers: (0..3).map(ServerId).collect(),
        video_variants: (3, 6),
        replicas: (1, 2),
        duration_secs: (60, 120),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    QosManager::new(
        catalog,
        ServerFarm::uniform(3, ServerConfig::era_default()),
        Network::new(Topology::dumbbell(6, 3, 25_000_000, 155_000_000)),
        CostModel::era_default(),
        ManagerConfig::default(),
    )
}

#[test]
fn lifecycle_negotiate_confirm_play() {
    let m = manager(100);
    let client = ClientMachine::era_workstation(ClientId(0));
    let mut out = m
        .negotiate(&client, DocumentId(1), &tv_news_profile())
        .unwrap();
    assert!(matches!(
        out.status,
        NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
    ));
    // Confirmation inside the choice period.
    let mut offer = Lifecycle::offered(&mut out, 0, 30_000);
    assert_eq!(
        m.confirm(&mut offer, 3_000, Some(true)),
        Some(ConfirmationDecision::Accepted)
    );
    let mut session = m.play(&client, out, DocumentId(1), offer);
    while m.drive_session(&mut session, 500, true) {}
    assert_eq!(session.playout.state(), SessionState::Completed);
    assert_eq!(m.network().active_reservations(), 0);
    assert!(m.farm().mean_disk_utilization() < 1e-9);
}

#[test]
fn confirmation_timeout_releases_resources() {
    let m = manager(101);
    let client = ClientMachine::era_workstation(ClientId(1));
    let mut out = m
        .negotiate(&client, DocumentId(2), &tv_news_profile())
        .unwrap();
    assert!(out.reservation.is_some(), "offer reserved");
    assert!(m.network().active_reservations() > 0);
    let mut offer = Lifecycle::offered(&mut out, 0, 30_000);
    // An OK one second past the choice period is a timeout, and the
    // manager releases the offer.
    assert_eq!(
        m.confirm(&mut offer, 31_000, Some(true)),
        Some(ConfirmationDecision::TimedOut)
    );
    assert_eq!(m.network().active_reservations(), 0);
}

#[test]
fn adaptation_survives_server_failure_and_preserves_position() {
    let m = manager(102);
    let client = ClientMachine::era_workstation(ClientId(2));
    let out = m
        .negotiate(&client, DocumentId(1), &tv_news_profile())
        .unwrap();
    let mut session = m.start_session(&client, out, DocumentId(1));
    for _ in 0..20 {
        m.drive_session(&mut session, 500, true);
    }
    let position_before = session.playout.position_ms();
    assert!(position_before > 0.0);
    let victim = session
        .lifecycle
        .reserved()
        .expect("held")
        .reservation
        .servers[0]
        .0;
    m.farm().server(victim).unwrap().set_health(0.0);
    // Drive until the session either transitions or aborts.
    let mut steps = 0;
    while m.drive_session(&mut session, 500, true) {
        steps += 1;
        if steps > 1_000 {
            break;
        }
    }
    match session.playout.state() {
        SessionState::Completed => {
            assert!(session.playout.stats().transitions >= 1);
            // Restart-from-position: nothing was rewound to zero.
            assert!(session.playout.position_ms() >= position_before);
        }
        SessionState::Aborted => {
            // Legal when no alternate offer avoided the dead server; the
            // resources must still be gone.
        }
        other => panic!("session stuck in {other:?}"),
    }
    assert_eq!(m.network().active_reservations(), 0);
}

#[test]
fn gui_flow_drives_real_negotiation() {
    let m = manager(103);
    let client = ClientMachine::era_workstation(ClientId(3));
    let profile = tv_news_profile();
    let mut app = ProfileManagerApp::new(vec![profile.clone()]);

    let action = app.handle(UiEvent::Ok);
    assert_eq!(action, UiAction::StartNegotiation { profile: 0 });
    let out = m.negotiate(&client, DocumentId(3), &profile).unwrap();
    app.handle(UiEvent::NegotiationResult {
        status: out.status,
        violated: out
            .user_offer
            .as_ref()
            .map(|o| nod_qosneg::violated_components(&tv_news_profile(), o))
            .unwrap_or_default(),
        offer: out.user_offer,
    });
    match out.status {
        NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer => {
            assert_eq!(app.state(), UiState::Information);
            let rendered = app.render(Some(30_000));
            assert!(rendered.contains(&out.status.to_string()));
            // Reject: the GUI asks the embedder to release.
            assert_eq!(
                app.handle(UiEvent::Cancel),
                UiAction::ReleaseOffer { timed_out: false }
            );
            m.release(&out.reservation.unwrap());
        }
        _ => assert_eq!(app.state(), UiState::ProfileComponents),
    }
    assert_eq!(m.network().active_reservations(), 0);
}

#[test]
fn negotiation_is_deterministic_across_fresh_worlds() {
    let run = || {
        let m = manager(104);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        (
            out.status,
            out.user_offer.map(|o| o.cost),
            out.trace.offers_enumerated,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn concurrent_clients_share_the_farm_consistently() {
    // Six clients negotiate one after another on the drive's one thread,
    // and every one holds its reservation until all six have negotiated.
    let m = manager(105);
    let held: Vec<_> = (0..6u64)
        .filter_map(|i| {
            let client = ClientMachine::era_workstation(ClientId(i % 6));
            m.negotiate(&client, DocumentId(1 + i % 5), &tv_news_profile())
                .unwrap()
                .reservation
        })
        .collect();
    assert!(!held.is_empty());
    assert!(m.farm().usage().streams >= held.len());
    for r in &held {
        m.release(r);
    }
    assert_eq!(m.network().active_reservations(), 0);
    assert!(m.farm().mean_disk_utilization() < 1e-9);
}

#[test]
fn whole_stack_respects_the_cost_ceiling_on_success() {
    for seed in 110..116 {
        let m = manager(seed);
        let client = ClientMachine::era_workstation(ClientId(0));
        let profile = tv_news_profile();
        let out = m.negotiate(&client, DocumentId(1), &profile).unwrap();
        if out.status == NegotiationStatus::Succeeded {
            let offer = out.user_offer.unwrap();
            assert!(
                offer.cost <= profile.max_cost,
                "seed {seed}: SUCCEEDED offer at {} exceeds ceiling {}",
                offer.cost,
                profile.max_cost
            );
        }
        if let Some(r) = &out.reservation {
            m.release(r);
        }
    }
}
