//! The QoS GUI as a runnable (scriptable) terminal application.
//!
//! ```text
//! cargo run -p nod-tui --bin qos_gui            # scripted demo session
//! echo "select 1\nok\naccept\nexit" | cargo run -p nod-tui --bin qos_gui -- --stdin
//! ```
//!
//! Commands (one per line with `--stdin`):
//! `list` · `select <n>` · `ok` (negotiate / confirm) · `cancel` ·
//! `components` · `video` · `audio` · `cost` · `time` · `example` ·
//! `accept` · `reject` · `exit`.
//!
//! Drives a real [`QosManager`] over a seeded deployment, exactly the §8
//! workflow: select profile → OK → information window (choicePeriod) →
//! accept (play) or reject (components window with constraint markers).

use std::io::BufRead;

use nod_client::ClientMachine;
use nod_cmfs::{ServerConfig, ServerFarm};
use nod_mmdb::{CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_qosneg::manager::{ManagerConfig, QosManager};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::SessionReservation;
use nod_qosneg::{ConfirmationDecision, CostModel, Effect, Input, Lifecycle, Money};
use nod_simcore::StreamRng;
use nod_tui::{windows, ProfileManagerApp, UiAction, UiEvent, UiState};

struct App {
    manager: QosManager,
    client: ClientMachine,
    gui: ProfileManagerApp,
    /// The offer on screen, awaiting the user (step 6).
    offer: Option<Lifecycle<SessionReservation>>,
    document: DocumentId,
}

impl App {
    fn new() -> App {
        let mut rng = StreamRng::new(2026);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 8,
            servers: (0..3).map(ServerId).collect(),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        let manager = QosManager::new(
            catalog,
            ServerFarm::uniform(3, ServerConfig::era_default()),
            Network::new(Topology::dumbbell(4, 3, 25_000_000, 155_000_000)),
            CostModel::era_default(),
            ManagerConfig::default(),
        );
        let mut economy = tv_news_profile();
        economy.name = "economy".into();
        economy.max_cost = Money::from_dollars(2);
        let mut premium = tv_news_profile();
        premium.name = "premium".into();
        premium.max_cost = Money::from_dollars(20);
        premium.importance.cost_per_dollar = 0.5;
        App {
            manager,
            client: ClientMachine::era_workstation(ClientId(0)),
            gui: ProfileManagerApp::new(vec![tv_news_profile(), economy, premium]),
            offer: None,
            document: DocumentId(1),
        }
    }

    /// Settle the offer on screen, if any, with the user's OK
    /// (`Some(true)`), CANCEL (`Some(false)`) or the choice-period expiry
    /// (`None`). Playout is elided, so an accepted presentation departs at
    /// once; each reservation is released once.
    fn settle(&mut self, action: Option<bool>) -> Option<ConfirmationDecision> {
        let mut offer = self.offer.take()?;
        // No clock here: a click is in time and the expiry is late.
        let at_ms = if action.is_some() { 0 } else { u64::MAX };
        let decision = self.manager.confirm(&mut offer, at_ms, action);
        if let Effect::Release(r) = offer.step(Input::Depart) {
            self.manager.release(&r);
        }
        if decision.is_some_and(|d| d != ConfirmationDecision::Accepted) {
            println!("(resources released)");
        }
        decision
    }

    fn dispatch(&mut self, action: UiAction) {
        match action {
            UiAction::StartNegotiation { profile } => {
                let p = self.gui.selected_profile().clone();
                println!(
                    "negotiating {} under profile #{profile} \"{}\"…",
                    self.document, p.name
                );
                match self.manager.negotiate(&self.client, self.document, &p) {
                    Ok(mut outcome) => {
                        self.settle(Some(false));
                        let period = p.time.choice_period_ms;
                        self.offer = Some(Lifecycle::offered(&mut outcome, 0, period));
                        let violated = outcome
                            .user_offer
                            .as_ref()
                            .map(|o| nod_qosneg::violated_components(&p, o))
                            .unwrap_or_default();
                        self.gui.handle(UiEvent::NegotiationResult {
                            status: outcome.status,
                            offer: outcome.user_offer,
                            violated,
                        });
                    }
                    Err(e) => println!("negotiation error: {e}"),
                }
            }
            UiAction::AcceptOffer => {
                if self.settle(Some(true)) == Some(ConfirmationDecision::Accepted) {
                    println!("offer accepted — the presentation would start now.");
                    println!("(simulated playout elided; see examples/quickstart.rs)");
                } else {
                    println!("nothing to accept");
                }
            }
            UiAction::ReleaseOffer { timed_out } => {
                self.settle((!timed_out).then_some(false));
                if timed_out {
                    println!("choicePeriod expired — session aborted.");
                }
            }
            UiAction::None => {}
        }
    }

    fn command(&mut self, line: &str) -> bool {
        let mut parts = line.split_whitespace();
        let cmd = match parts.next() {
            Some(c) => c,
            None => return true,
        };
        match cmd {
            "list" => print!("{}", self.gui.render(None)),
            "select" => {
                if let Some(Ok(n)) = parts.next().map(str::parse::<usize>) {
                    self.gui.handle(UiEvent::SelectProfile(n));
                    print!("{}", self.gui.render(None));
                } else {
                    println!("usage: select <index>");
                }
            }
            "ok" => {
                let action = self.gui.handle(UiEvent::Ok);
                self.dispatch(action);
                print!("{}", self.gui.render(Some(30_000)));
            }
            "accept" => {
                if self.gui.state() == UiState::Information {
                    let action = self.gui.handle(UiEvent::Ok);
                    self.dispatch(action);
                } else {
                    println!("no offer on screen");
                }
            }
            "reject" | "cancel" => {
                let action = self.gui.handle(UiEvent::Cancel);
                self.dispatch(action);
                print!("{}", self.gui.render(None));
            }
            "components" => {
                self.gui.handle(UiEvent::OpenComponents);
                print!("{}", self.gui.render(None));
            }
            "video" => {
                self.gui.handle(UiEvent::OpenVideoProfile);
                print!("{}", self.gui.render(None));
            }
            "audio" => print!(
                "{}",
                windows::audio_profile_window(self.gui.selected_profile(), None)
            ),
            "cost" => print!(
                "{}",
                windows::cost_profile_window(self.gui.selected_profile(), None)
            ),
            "time" => print!(
                "{}",
                windows::time_profile_window(self.gui.selected_profile())
            ),
            "example" => print!("{}", windows::show_example(self.gui.selected_profile())),
            "exit" => {
                self.settle(Some(false));
                self.gui.handle(UiEvent::Exit);
                return false;
            }
            other => println!("unknown command {other:?} (try: list select ok accept reject components video audio cost time example exit)"),
        }
        true
    }
}

fn main() {
    let from_stdin = std::env::args().any(|a| a == "--stdin");
    let mut app = App::new();
    println!("QoS GUI — news-on-demand profile manager (scripted terminal build)\n");
    if from_stdin {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let line = line.unwrap_or_default();
            println!("> {line}");
            if !app.command(&line) {
                break;
            }
        }
    } else {
        // The canned demo: the full §8 happy path and failure path.
        for line in [
            "list", "ok", "accept", "select 1", "ok", "reject", "video", "cost", "exit",
        ] {
            println!("> {line}");
            if !app.command(line) {
                break;
            }
        }
    }
    println!("bye.");
}
