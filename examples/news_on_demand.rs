//! The full news-on-demand workflow, GUI included.
//!
//! ```text
//! cargo run --example news_on_demand
//! ```
//!
//! Simulates an evening at a news kiosk: a mixed population of users
//! (premium / standard / economy / francophone) select articles through
//! the profile-manager GUI, negotiate, confirm (or let the `choicePeriod`
//! lapse), and play. Prints each user's journey and the final system
//! accounting.

use news_on_demand::cmfs::{ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::manager::{ManagerConfig, QosManager};
use news_on_demand::qosneg::{ConfirmationDecision, ConfirmationTimer, CostModel};
use news_on_demand::simcore::{SimTime, StreamRng};
use news_on_demand::syncplay::SessionState;
use news_on_demand::tui::{ProfileManagerApp, UiEvent};
use news_on_demand::workload::UserPopulation;

fn main() {
    let mut rng = StreamRng::new(7);
    let mut corpus_rng = rng.split();
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 10,
        servers: (0..3).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut corpus_rng);
    let manager = QosManager::new(
        catalog,
        ServerFarm::uniform(3, ServerConfig::era_default()),
        Network::new(Topology::dumbbell(6, 3, 25_000_000, 155_000_000)),
        CostModel::era_default(),
        ManagerConfig::default(),
    );
    let population = UserPopulation::era_default();

    let mut carried = 0u32;
    let mut revenue = news_on_demand::qosneg::Money::ZERO;

    for user in 0..6u64 {
        let client_id = ClientId(user % 6);
        let (class, profile, machine) = population.sample(&mut rng, client_id);
        let doc = DocumentId(rng.zipf(10, 0.9) as u64 + 1);
        println!(
            "== user {user} ({class}) requests {doc} with profile \"{}\"",
            profile.name
        );

        // Drive the GUI: select profile, press OK.
        let mut app = ProfileManagerApp::new(vec![profile.clone()]);
        app.handle(UiEvent::Ok);
        let outcome = manager
            .negotiate(&machine, doc, &profile)
            .expect("valid request");
        app.handle(UiEvent::NegotiationResult {
            status: outcome.status,
            violated: outcome
                .user_offer
                .as_ref()
                .map(|o| news_on_demand::qosneg::violated_components(&profile, o))
                .unwrap_or_default(),
            offer: outcome.user_offer,
        });
        println!("   status {}", outcome.status);
        if let Some(offer) = &outcome.user_offer {
            println!("   offer  {offer}");
        }

        // The confirmation timer: user 3 walks away and times out.
        if let Some(ref reservation) = outcome.reservation {
            let reservation = reservation.clone();
            let timer = ConfirmationTimer::arm(SimTime::ZERO, profile.time.choice_period_ms);
            let (respond_at, action) = if user == 3 {
                (SimTime::from_secs(45), None) // lapses
            } else {
                (SimTime::from_secs(5), Some(true))
            };
            match timer.resolve(respond_at, action) {
                Some(ConfirmationDecision::Accepted) => {
                    app.handle(UiEvent::Ok);
                    let cost = outcome.reserved_offer.as_ref().unwrap().offer.cost;
                    let mut session = manager.start_session(&machine, outcome, doc);
                    while manager.drive_session(&mut session, 500, true) {}
                    if session.playout.state() == SessionState::Completed {
                        carried += 1;
                        revenue += cost;
                        println!(
                            "   played to completion ({:.0} s, continuity {:.3})",
                            session.playout.stats().played_ms / 1e3,
                            session.playout.stats().continuity()
                        );
                    }
                }
                Some(ConfirmationDecision::TimedOut) => {
                    app.handle(UiEvent::ChoiceTimeout);
                    manager.release(&reservation);
                    println!("   choicePeriod expired — session aborted, resources released");
                }
                other => {
                    manager.release(&reservation);
                    println!("   confirmation outcome {other:?} — resources released");
                }
            }
        }
        println!();
    }

    println!("evening accounting: {carried} sessions carried, revenue {revenue}");
    println!(
        "farm utilization now {:.3} (all resources returned)",
        manager.farm().mean_disk_utilization()
    );
    assert!(manager.farm().mean_disk_utilization() < 1e-9);
    assert_eq!(manager.network().active_reservations(), 0);
}
