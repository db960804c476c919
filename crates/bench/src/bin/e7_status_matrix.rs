//! E7 — the five negotiation statuses of §4, each produced by a concrete
//! scenario.
//!
//! | status              | scenario                                        |
//! |---------------------|-------------------------------------------------|
//! | SUCCEEDED           | idle system, satisfiable profile                |
//! | FAILEDWITHOFFER     | cost ceiling below any satisfying offer         |
//! | FAILEDTRYLATER      | all servers saturated                           |
//! | FAILEDWITHOUTOFFER  | client has no compatible decoder                |
//! | FAILEDWITHLOCALOFFER| color request on a black&white screen           |

use nod_bench::{standard_world, Table};
use nod_client::{ClientMachine, DecoderRegistry};
use nod_mmdoc::{ClientId, ColorDepth, DocumentId};
use nod_qosneg::negotiate::NegotiationStatus;
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{Money, NegotiationRequest, Session};

fn main() {
    println!("E7 — negotiation status coverage matrix (paper §4)\n");
    let mut t = Table::new(&[
        "scenario",
        "status (measured)",
        "status (expected)",
        "offer?",
    ]);
    let mut all_ok = true;

    let mut run =
        |label: &str,
         expected: NegotiationStatus,
         setup: &dyn Fn(&nod_bench::World) -> (ClientMachine, nod_qosneg::UserProfile)| {
            let world = standard_world(99, 8, 3, 4);
            let (client, profile) = setup(&world);
            let out = Session::new(world.context())
                .submit(&NegotiationRequest::new(&client, DocumentId(1), &profile))
                .expect("valid request");
            let ok = out.status == expected;
            all_ok &= ok;
            t.row(&[
                label.to_string(),
                out.status.to_string(),
                expected.to_string(),
                if let Some(offer) = out.user_offer {
                    format!("{offer}")
                } else if out.local_offer.is_some() {
                    "local capabilities returned".into()
                } else {
                    "—".into()
                },
            ]);
            if let Some(r) = out.reservation {
                r.release(&world.farm, &world.network);
            }
        };

    run(
        "idle system, satisfiable profile",
        NegotiationStatus::Succeeded,
        &|_| {
            // A budget roomy enough that some acceptable offer is always
            // affordable on an idle system.
            let mut p = tv_news_profile();
            p.max_cost = Money::from_dollars(25);
            (ClientMachine::era_workstation(ClientId(0)), p)
        },
    );
    run(
        "cost ceiling below any satisfying offer",
        NegotiationStatus::FailedWithOffer,
        &|_| {
            let mut p = tv_news_profile();
            p.max_cost = Money::from_cents(25); // even copyright barely fits
            (ClientMachine::era_workstation(ClientId(0)), p)
        },
    );
    run(
        "all servers saturated",
        NegotiationStatus::FailedTryLater,
        &|world| {
            for s in world.farm.ids() {
                world.farm.server(s).unwrap().set_health(0.0);
            }
            (
                ClientMachine::era_workstation(ClientId(0)),
                tv_news_profile(),
            )
        },
    );
    run(
        "client without any decoder",
        NegotiationStatus::FailedWithoutOffer,
        &|_| {
            let mut c = ClientMachine::era_workstation(ClientId(0));
            c.decoders = DecoderRegistry::new();
            (c, tv_news_profile())
        },
    );
    run(
        "color request on a black&white screen",
        NegotiationStatus::FailedWithLocalOffer,
        &|_| {
            let mut c = ClientMachine::era_budget_pc(ClientId(0));
            c.display.color = ColorDepth::BlackWhite;
            (c, tv_news_profile())
        },
    );

    println!("{}", t.render());
    assert!(all_ok, "every §4 status must be reachable by its scenario");
    println!("reproduction: all five §4 statuses reached by their intended scenarios");
}
