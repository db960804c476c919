//! Automatic adaptation in action.
//!
//! ```text
//! cargo run --example adaptation_session
//! ```
//!
//! Starts a playout session, kills the server carrying it mid-stream, and
//! watches the QoS manager transition to an alternate system offer without
//! user intervention (paper §4's adaptation procedure). Then repeats the
//! same scenario with adaptation disabled to show the stalls it prevents.

use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::manager::{ManagerConfig, QosManager};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::CostModel;
use news_on_demand::simcore::StreamRng;

fn build_manager(seed: u64) -> QosManager {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 8,
        servers: (0..4).map(ServerId).collect(),
        video_variants: (4, 6),
        replicas: (1, 2),
        duration_secs: (120, 180),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    QosManager::new(
        catalog,
        ServerFarm::uniform(4, ServerConfig::era_default()),
        Network::new(Topology::dumbbell(4, 4, 25_000_000, 155_000_000)),
        CostModel::era_default(),
        ManagerConfig::default(),
    )
}

fn run(adaptation: bool) {
    println!(
        "--- scenario with adaptation {} ---",
        if adaptation { "ENABLED" } else { "DISABLED" }
    );
    let manager = build_manager(11);
    let client = ClientMachine::era_workstation(ClientId(0));
    let outcome = manager
        .negotiate(&client, DocumentId(1), &tv_news_profile())
        .expect("valid request");
    println!("negotiated: {}", outcome.status);
    let offer = outcome.user_offer.expect("an offer was reserved");
    println!("initial offer: {offer}");

    let mut session = manager.start_session(&client, outcome, DocumentId(1));
    let victim = session.reservation.servers[0].0;

    let mut step = 0u32;
    loop {
        if step == 20 {
            println!(
                "t={:>5.1}s  !! server {victim} fails (health 0)",
                step as f64 * 0.5
            );
            manager.farm().server(victim).unwrap().set_health(0.0);
        }
        if step == 200 {
            manager.farm().server(victim).unwrap().set_health(1.0);
            println!("t={:>5.1}s  server {victim} recovers", step as f64 * 0.5);
        }
        let before = session.playout.stats().transitions;
        let live = manager.drive_session(&mut session, 500, adaptation);
        if session.playout.stats().transitions > before {
            let new_offer = (session.ordered_offers.materialize(session.offer_index))
                .offer
                .to_user_offer();
            println!(
                "t={:>5.1}s  -> transitioned to alternate offer: {new_offer} \
                 (position preserved at {:.1} s)",
                step as f64 * 0.5,
                session.playout.position_ms() / 1e3
            );
        }
        if !live {
            break;
        }
        step += 1;
        assert!(step < 5_000, "runaway session");
    }

    let stats = session.playout.stats();
    println!(
        "final: {:?} — continuity {:.3}, {} transition(s), {} underrun(s), stalls {:.1} s\n",
        session.playout.state(),
        stats.continuity(),
        stats.transitions,
        stats.underruns,
        stats.stall_ms / 1e3,
    );
}

fn main() {
    run(true);
    run(false);
    println!(
        "shape check: the adaptation-enabled run should transition and keep \
         continuity near 1.0; the disabled run stalls through the outage."
    );
}
