//! E11 — Figures 3–7: the QoS GUI windows driving a real negotiation.
//!
//! Renders the terminal equivalents of the paper's GUI figures while
//! walking the §8 workflow end-to-end: main window → OK (negotiate) →
//! information window with the reserved offer and the `choicePeriod`
//! countdown → accept → playout; then a failure path showing the profile
//! component window with its constraint markers.

use nod_bench::standard_world;
use nod_client::ClientMachine;
use nod_mmdoc::{ClientId, DocumentId};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{Effect, Input, Lifecycle, Money, NegotiationRequest, Session};
use nod_tui::{ProfileManagerApp, UiEvent, UiState};

fn main() {
    println!("E11 — QoS GUI walkthrough (paper §8, Figures 3-7)\n");
    let world = standard_world(5, 6, 3, 4);
    let client = ClientMachine::era_workstation(ClientId(0));

    let mut economy = tv_news_profile();
    economy.name = "economy".into();
    economy.max_cost = Money::from_cents(50);
    let mut app = ProfileManagerApp::new(vec![tv_news_profile(), economy.clone()]);

    println!("-- Figure 3: main window (user selects a profile, presses OK) --");
    println!("{}", app.render(None));

    // The user presses OK on the default profile.
    app.handle(UiEvent::Ok);
    let session = Session::new(world.context());
    let mut out = session
        .submit(&NegotiationRequest::new(
            &client,
            DocumentId(1),
            &tv_news_profile(),
        ))
        .expect("valid request");
    app.handle(UiEvent::NegotiationResult {
        status: out.status,
        violated: out
            .user_offer
            .as_ref()
            .map(|o| nod_qosneg::violated_components(&tv_news_profile(), o))
            .unwrap_or_default(),
        offer: out.user_offer,
    });

    println!("-- Figures 6/7: information window (offer held, timer armed) --");
    let choice_period_ms = tv_news_profile().time.choice_period_ms;
    let mut offer = Lifecycle::offered(&mut out, 0, choice_period_ms);
    println!("{}", app.render(Some(choice_period_ms - 5_000)));

    // The user accepts 5 s in, within the choice period.
    app.handle(UiEvent::Ok);
    let ok = offer.step(Input::Decide {
        accept: true,
        at_ms: 5_000,
    });
    assert!(matches!(ok, Effect::Admit));
    println!("offer accepted — presentation starts; resources stay committed.\n");
    if let Effect::Release(r) = offer.step(Input::Depart) {
        r.release(&world.farm, &world.network);
    }

    // Failure path: the economy profile cannot be satisfied at $0.50.
    app.handle(UiEvent::SelectProfile(1));
    app.handle(UiEvent::Ok);
    let out = session
        .submit(&NegotiationRequest::new(&client, DocumentId(1), &economy))
        .expect("valid request");
    app.handle(UiEvent::NegotiationResult {
        status: out.status,
        violated: out
            .user_offer
            .as_ref()
            .map(|o| nod_qosneg::violated_components(&economy, o))
            .unwrap_or_default(),
        offer: out.user_offer,
    });
    if app.state() == UiState::Information {
        println!("-- information window (degraded offer) --");
        println!("{}", app.render(Some(30_000)));
        app.handle(UiEvent::Cancel);
    }
    println!("-- Figure 4: profile component window (constraint buttons lit) --");
    println!("{}", app.render(None));

    app.handle(UiEvent::OpenVideoProfile);
    println!("-- Figure 5: video profile window (scaling bars, offer marker) --");
    println!("{}", app.render(None));
    if let Some(r) = out.reservation {
        r.release(&world.farm, &world.network);
    }
    println!("walkthrough complete: negotiate → offer → confirm/reject → edit → renegotiate.");
}
