//! The session lifecycle (paper §4): negotiate, hold the reserved offer
//! through `choicePeriod` (step 6), play it out, adapt it — written once,
//! as [`Lifecycle::step`]: one [`Input`] in, one [`Effect`] out. The
//! machine owns the policy (retry budget, backoff and deadline, the choice
//! period, a decision against its expiry) and touches no resource: a
//! reservation is an opaque `R` it holds and hands back, so every one it is
//! given is released exactly once, by the effect that lets go of it. Its
//! callers — the broker, one machine per session on a virtual clock, and
//! the [`QosManager`](crate::QosManager), one session with real playout —
//! own the effects and the telemetry. DESIGN.md tabulates the transitions.

use nod_simcore::StreamRng;

use crate::negotiate::{NegotiationOutcome, NegotiationStatus, SessionReservation};
use crate::request::RetryPolicy;

/// How a session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionFate {
    /// Resources committed (possibly below the requested QoS).
    Admitted {
        /// `true` when admission came from a FAILEDWITHOFFER outcome.
        degraded: bool,
    },
    /// FAILEDTRYLATER every time until the retry budget or deadline ran
    /// out — the contention casualty the paper's status is named for.
    Starved,
    /// A terminal refusal (FAILEDWITHOUTOFFER, FAILEDWITHLOCALOFFER or a
    /// non-transient FAILEDTRYLATER), or an offer the user cancelled or
    /// let lapse.
    Rejected,
    /// The negotiation itself failed (unknown document, invalid request).
    Errored,
}

/// What became of an offer awaiting the user's confirmation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfirmationDecision {
    /// The user pressed OK inside the choice period: start playing.
    Accepted,
    /// The user pressed CANCEL inside the choice period: release resources.
    Rejected,
    /// The choice period elapsed: abort and release resources.
    TimedOut,
}

impl ConfirmationDecision {
    /// Stable label for the `decision` label of
    /// `negotiation.confirmation`.
    pub fn label(&self) -> &'static str {
        match self {
            ConfirmationDecision::Accepted => "accepted",
            ConfirmationDecision::Rejected => "rejected",
            ConfirmationDecision::TimedOut => "timed_out",
        }
    }
}

/// What an attempt's outcome is judged by: the policy, the clock, and the
/// session's stream, which a backoff is drawn from.
#[derive(Debug)]
pub struct Rules<'s> {
    /// How a FAILEDTRYLATER is retried.
    pub retry: RetryPolicy,
    /// The paper's *choicePeriod*, ms: how long a reserved offer waits for
    /// the user. 0 holds it at once.
    pub choice_period_ms: u64,
    /// When the attempt ended, ms.
    pub at_ms: u64,
    /// When the session arrived, ms; the retry deadline counts from it.
    pub arrived_ms: u64,
    pub rng: &'s mut StreamRng,
}

/// A reserved offer: its resources, its classified index on the session's
/// offer list, and whether it is a FAILEDWITHOFFER's.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reserved<R> {
    pub reservation: R,
    pub offer: u32,
    pub degraded: bool,
}

/// Where a session is in its lifecycle.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum Phase<R> {
    /// Before its first attempt, or backing off until the next one.
    #[default]
    Negotiating,
    /// A reserved offer waits for the user's decision; `deadline_ms` is
    /// the last instant one is in time.
    Awaiting {
        deadline_ms: u64,
        reserved: Reserved<R>,
    },
    /// Admitted: the offer is held until the session departs.
    Held(Reserved<R>),
    /// Settled, nothing held.
    Done(SessionFate),
}

/// How one negotiation attempt ended.
#[derive(Debug)]
pub enum Attempt<R> {
    /// Step 5 committed an offer.
    Reserved(Reserved<R>),
    /// Nothing was reserved; `transient` when some refusal depended on
    /// load, so a retry could succeed.
    Unreserved {
        status: NegotiationStatus,
        transient: bool,
    },
    /// The negotiation itself failed.
    Errored,
}

impl Attempt<SessionReservation> {
    /// The attempt a step-5 `outcome` records, taking its reservation.
    /// An empty refusal log counts as transient.
    pub fn of(outcome: &mut NegotiationOutcome) -> Self {
        let Some(reservation) = outcome.reservation.take() else {
            let refusals = &outcome.refusals;
            return Attempt::Unreserved {
                status: outcome.status,
                transient: refusals.is_empty() || refusals.iter().any(|r| r.kind().transient()),
            };
        };
        let index = (outcome.reserved_index).expect("a reservation has its offer's index");
        Attempt::Reserved(Reserved {
            reservation,
            offer: index as u32,
            degraded: outcome.status == NegotiationStatus::FailedWithOffer,
        })
    }
}

/// One input to [`Lifecycle::step`]; `at_ms` is when it happened.
#[derive(Debug)]
pub enum Input<'s, R> {
    /// A negotiation attempt ended.
    Attempt(Attempt<R>, Rules<'s>),
    /// The user pressed OK (`accept`) or CANCEL.
    Decide { accept: bool, at_ms: u64 },
    /// The choice-period timer fired.
    Expire { at_ms: u64 },
    /// Make-before-break: `offer` is reserved alongside the held one and
    /// replaces it; the session's fate keeps its admission's `degraded`.
    Switch { reservation: R, offer: u32 },
    /// The presentation ended.
    Depart,
}

/// What a step asks its caller to do.
#[derive(Debug, PartialEq)]
pub enum Effect<R> {
    /// Nothing: the phase does not wait for the input, or the offer is
    /// still in time.
    None,
    /// Run the next attempt at `at_ms`, after a backoff of `backoff_ms`.
    Retry { at_ms: u64, backoff_ms: u64 },
    /// Show the reserved offer to the user until its deadline.
    Confirm,
    /// Settled admitted: the hold starts now.
    Admit,
    /// Release this reservation.
    Release(R),
    /// The choice period lapsed: release this reservation; the session is
    /// aborted.
    TimedOut(R),
    /// Settled with this fate; nothing is held.
    Settle(SessionFate),
}

/// One session's lifecycle: its phase and the attempts it has made.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Lifecycle<R> {
    attempts: u32,
    phase: Phase<R>,
}

impl<R> Lifecycle<R> {
    /// A lifecycle rebuilt from its parts (crash recovery).
    pub fn restore(attempts: u32, phase: Phase<R>) -> Self {
        Lifecycle { attempts, phase }
    }

    /// Attempts taken so far.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }

    /// The current phase.
    pub fn phase(&self) -> &Phase<R> {
        &self.phase
    }

    /// The offer held while awaiting or held.
    pub fn reserved(&self) -> Option<&Reserved<R>> {
        match &self.phase {
            Phase::Awaiting { reserved, .. } | Phase::Held(reserved) => Some(reserved),
            _ => None,
        }
    }

    /// [`Lifecycle::reserved`], mutably (recovery re-reserves into it).
    pub fn reserved_mut(&mut self) -> Option<&mut Reserved<R>> {
        match &mut self.phase {
            Phase::Awaiting { reserved, .. } | Phase::Held(reserved) => Some(reserved),
            _ => None,
        }
    }

    /// Take `input`; return what the caller must do.
    pub fn step(&mut self, input: Input<'_, R>) -> Effect<R> {
        use {Effect as E, Phase as P};
        let rejected = P::Done(SessionFate::Rejected);
        let (phase, effect) = match (std::mem::replace(&mut self.phase, P::Negotiating), input) {
            (P::Negotiating, Input::Attempt(outcome, rules)) => {
                self.attempts += 1;
                self.attempted(outcome, rules)
            }
            // A decision strictly after the deadline is a timeout; the
            // first one in time settles, and a settled phase waits for no
            // decision.
            (
                P::Awaiting {
                    deadline_ms,
                    reserved,
                },
                Input::Decide { at_ms, .. } | Input::Expire { at_ms },
            ) if at_ms > deadline_ms => (rejected, E::TimedOut(reserved.reservation)),
            (P::Awaiting { reserved, .. }, Input::Decide { accept: true, .. }) => {
                (P::Held(reserved), E::Admit)
            }
            (P::Awaiting { reserved, .. }, Input::Decide { accept: false, .. }) => {
                (rejected, E::Release(reserved.reservation))
            }
            (P::Held(mut held), Input::Switch { reservation, offer }) => {
                held.offer = offer;
                let old = std::mem::replace(&mut held.reservation, reservation);
                (P::Held(held), E::Release(old))
            }
            (P::Held(held), Input::Depart) => {
                let degraded = held.degraded;
                let done = P::Done(SessionFate::Admitted { degraded });
                (done, E::Release(held.reservation))
            }
            // Not an input this phase waits for: the reservation it
            // brought, if any, goes back.
            (
                phase,
                Input::Attempt(Attempt::Reserved(Reserved { reservation, .. }), _)
                | Input::Switch { reservation, .. },
            ) => (phase, E::Release(reservation)),
            (phase, _) => (phase, E::None),
        };
        self.phase = phase;
        effect
    }

    fn attempted(&self, outcome: Attempt<R>, rules: Rules) -> (Phase<R>, Effect<R>) {
        let settle = |fate| (Phase::Done(fate), Effect::Settle(fate));
        let (status, transient) = match outcome {
            Attempt::Errored => return settle(SessionFate::Errored),
            Attempt::Reserved(reserved) if rules.choice_period_ms == 0 => {
                return (Phase::Held(reserved), Effect::Admit);
            }
            Attempt::Reserved(reserved) => {
                let deadline_ms = rules.at_ms + rules.choice_period_ms;
                return (
                    Phase::Awaiting {
                        deadline_ms,
                        reserved,
                    },
                    Effect::Confirm,
                );
            }
            Attempt::Unreserved { status, transient } => (status, transient),
        };
        let retry = &rules.retry;
        match status {
            NegotiationStatus::Succeeded => settle(SessionFate::Admitted { degraded: false }),
            NegotiationStatus::FailedWithOffer => settle(SessionFate::Admitted { degraded: true }),
            // Every refusal was load-independent (decode budget, startup
            // bound): waiting cannot help.
            NegotiationStatus::FailedTryLater if !transient => settle(SessionFate::Rejected),
            NegotiationStatus::FailedTryLater if self.attempts >= retry.max_attempts => {
                settle(SessionFate::Starved)
            }
            NegotiationStatus::FailedTryLater => {
                let backoff_ms = retry.backoff_ms(self.attempts, rules.rng).max(1);
                let at_ms = rules.at_ms + backoff_ms;
                // The deadline is exclusive (see `RetryPolicy::deadline_ms`):
                // a retry firing exactly `deadline` ms after arrival is
                // already past the give-up instant, so `>=`, not `>`.
                let waited_ms = at_ms.saturating_sub(rules.arrived_ms);
                if (retry.deadline_ms).is_some_and(|d| waited_ms >= d) {
                    return settle(SessionFate::Starved);
                }
                (Phase::Negotiating, Effect::Retry { at_ms, backoff_ms })
            }
            _ => settle(SessionFate::Rejected),
        }
    }
}

impl Lifecycle<SessionReservation> {
    /// A session's lifecycle after one negotiation, `outcome`, ended at
    /// `at_ms`: a reserved offer is held at once when `choice_period_ms` is
    /// 0, and otherwise awaits the user until `at_ms + choice_period_ms`.
    /// Takes the outcome's reservation. Nothing is retried, so no backoff
    /// is ever drawn.
    pub fn offered(outcome: &mut NegotiationOutcome, at_ms: u64, choice_period_ms: u64) -> Self {
        let mut lifecycle = Lifecycle::default();
        let rules = Rules {
            retry: RetryPolicy::NO_RETRY,
            choice_period_ms,
            at_ms,
            arrived_ms: at_ms,
            rng: &mut StreamRng::new(0),
        };
        lifecycle.step(Input::Attempt(Attempt::of(outcome), rules));
        lifecycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_cmfs::{Guarantee, ServerConfig, ServerFarm, StreamRequirement};
    use nod_mmdoc::{ClientId, ServerId, VariantId};
    use nod_netsim::{Network, Topology};

    /// A lifecycle that reserved `reservation` at `at_ms` and awaits the
    /// user for 30 s.
    fn awaiting<R: Default>(reservation: R, at_ms: u64) -> Lifecycle<R> {
        let mut lifecycle = Lifecycle::default();
        let rules = Rules {
            retry: RetryPolicy::NO_RETRY,
            choice_period_ms: 30_000,
            at_ms,
            arrived_ms: at_ms,
            rng: &mut StreamRng::new(0),
        };
        let reserved = Reserved {
            reservation,
            offer: 0,
            degraded: false,
        };
        let effect = lifecycle.step(Input::Attempt(Attempt::Reserved(reserved), rules));
        assert!(matches!(effect, Effect::Confirm));
        lifecycle
    }

    /// The fate, once settled: admitted from the hold on, or done.
    fn fate<R>(lifecycle: &Lifecycle<R>) -> Option<SessionFate> {
        match lifecycle.phase() {
            Phase::Held(held) => Some(SessionFate::Admitted {
                degraded: held.degraded,
            }),
            Phase::Done(fate) => Some(*fate),
            _ => None,
        }
    }

    fn decide<R>(accept: bool, at_ms: u64) -> Input<'static, R> {
        Input::Decide { accept, at_ms }
    }

    fn small_world() -> (ServerFarm, Network) {
        let farm = ServerFarm::uniform(1, ServerConfig::era_default());
        let network = Network::new(Topology::dumbbell(1, 1, 10_000_000, 155_000_000));
        (farm, network)
    }

    fn reserve_one(farm: &ServerFarm, network: &Network) -> SessionReservation {
        let req = StreamRequirement {
            variant: VariantId(1),
            max_bit_rate: 1_200_000,
            avg_bit_rate: 600_000,
            max_block_bytes: 6_000,
            avg_block_bytes: 3_000,
            blocks_per_second: 25,
            guarantee: Guarantee::Guaranteed,
        };
        let sid = farm.try_reserve(ServerId(0), req).expect("server admits");
        let nid = network
            .try_reserve(ClientId(0), ServerId(0), 1_200_000)
            .expect("network admits");
        SessionReservation {
            servers: vec![(ServerId(0), sid)],
            network: vec![nid],
        }
    }

    fn ledger(farm: &ServerFarm, network: &Network) -> (usize, usize, u64) {
        (
            farm.usage().streams,
            network.active_reservations(),
            network.total_reserved_bps(),
        )
    }

    /// Perform a step's effect the way a caller does: release what it
    /// lets go of.
    fn perform(effect: &Effect<SessionReservation>, farm: &ServerFarm, network: &Network) {
        if let Effect::Release(r) | Effect::TimedOut(r) = effect {
            r.release(farm, network);
        }
    }

    #[test]
    fn boundary_tick_confirm_races_expiry_exactly_once() {
        let (farm, network) = small_world();
        let mut offer = awaiting(reserve_one(&farm, &network), 0);
        let held = ledger(&farm, &network);

        // An expiry sweep lands exactly on the deadline tick: the offer is
        // still confirmable there, so nothing settles and nothing releases.
        assert_eq!(offer.step(Input::Expire { at_ms: 30_000 }), Effect::None);
        assert!(offer.reserved().is_some());
        assert_eq!(ledger(&farm, &network), held);

        // The user's OK arrives on the same tick: accepted, resources kept.
        let effect = offer.step(decide(true, 30_000));
        assert_eq!(effect, Effect::Admit);
        assert_eq!(ledger(&farm, &network), held);

        // A late expiry sweep is not an input a held session waits for: it
        // must NOT downgrade the accept to a timeout or release the
        // session's resources out from under it.
        assert_eq!(offer.step(Input::Expire { at_ms: 31_000 }), Effect::None);
        assert_eq!(ledger(&farm, &network), held);

        // The accepted reservation is released once, at departure.
        let effect = offer.step(Input::Depart);
        perform(&effect, &farm, &network);
        assert!(matches!(effect, Effect::Release(_)));
        assert_eq!(offer.step(Input::Depart), Effect::None);
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn timeout_releases_exactly_once_and_late_click_cannot_double_release() {
        let (farm, network) = small_world();
        let mut offer = awaiting(reserve_one(&farm, &network), 0);

        // The sweep one tick past the deadline times the offer out and
        // releases the reservation.
        let effect = offer.step(Input::Expire { at_ms: 30_001 });
        perform(&effect, &farm, &network);
        assert!(matches!(effect, Effect::TimedOut(_)));
        assert!(offer.reserved().is_none());
        assert_eq!(ledger(&farm, &network), (0, 0, 0));

        // Another session immediately reserves the freed capacity.
        let other = reserve_one(&farm, &network);
        let other_held = ledger(&farm, &network);

        // The user's click arrives late (same race, other ordering): the
        // settled timeout absorbs it; the second session's resources are
        // untouched.
        assert_eq!(offer.step(decide(true, 30_001)), Effect::None);
        assert_eq!(fate(&offer), Some(SessionFate::Rejected));
        assert_eq!(ledger(&farm, &network), other_held);

        other.release(&farm, &network);
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn reject_releases_exactly_once() {
        let (farm, network) = small_world();
        let mut offer = awaiting(reserve_one(&farm, &network), 0);
        let effect = offer.step(decide(false, 1_000));
        perform(&effect, &farm, &network);
        assert!(matches!(effect, Effect::Release(_)));
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
        // Later decisions (even an accept) change nothing.
        assert_eq!(offer.step(decide(true, 2_000)), Effect::None);
        assert_eq!(fate(&offer), Some(SessionFate::Rejected));
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn accept_or_reject_within_period() {
        let mut offer = awaiting(7u32, 10_000);
        assert_eq!(
            offer.phase(),
            &Phase::Awaiting {
                deadline_ms: 40_000,
                reserved: Reserved {
                    reservation: 7,
                    offer: 0,
                    degraded: false,
                },
            }
        );
        assert_eq!(offer.step(decide(true, 20_000)), Effect::Admit);
        let mut offer = awaiting(7u32, 10_000);
        assert_eq!(offer.step(decide(false, 20_000)), Effect::Release(7));
    }

    #[test]
    fn timeout_wins_over_late_action() {
        // A click arriving after the deadline is a timeout, whatever it
        // says: the resources go back.
        for input in [decide(true, 31_000), Input::Expire { at_ms: 31_000 }] {
            let mut offer = awaiting(7u32, 0);
            assert_eq!(offer.step(input), Effect::TimedOut(7));
        }
    }

    #[test]
    fn pending_when_no_action_before_deadline() {
        let mut offer = awaiting(7u32, 0);
        assert_eq!(offer.step(Input::Expire { at_ms: 10_000 }), Effect::None);
        // Boundary: exactly at the deadline the user can still confirm.
        assert_eq!(offer.step(Input::Expire { at_ms: 30_000 }), Effect::None);
        assert_eq!(offer.step(decide(true, 30_000)), Effect::Admit);
    }

    #[test]
    fn try_later_judges_transience_then_budget_then_the_exclusive_deadline() {
        let refused = |transient| Attempt::<u32>::Unreserved {
            status: NegotiationStatus::FailedTryLater,
            transient,
        };
        let retry = RetryPolicy {
            max_attempts: 2,
            base_backoff_ms: 100,
            max_backoff_ms: 100,
            jitter: 0.0,
            deadline_ms: Some(200),
        };
        let mut rng = StreamRng::new(3);
        let mut attempt = |lifecycle: &mut Lifecycle<u32>, outcome, at_ms, max_attempts| {
            let rules = Rules {
                retry: RetryPolicy {
                    max_attempts,
                    ..retry
                },
                choice_period_ms: 0,
                at_ms,
                arrived_ms: 0,
                rng: &mut rng,
            };
            lifecycle.step(Input::Attempt(outcome, rules))
        };
        // A load-independent refusal is terminal, budget or not.
        let mut lifecycle = Lifecycle::default();
        let effect = attempt(&mut lifecycle, refused(false), 0, 2);
        assert_eq!(effect, Effect::Settle(SessionFate::Rejected));
        // A transient one backs off: 100 ms, inside the 200 ms deadline.
        let mut lifecycle = Lifecycle::default();
        let effect = attempt(&mut lifecycle, refused(true), 0, 2);
        let retry_at = Effect::Retry {
            at_ms: 100,
            backoff_ms: 100,
        };
        assert_eq!(effect, retry_at);
        // The budget is spent before any backoff is drawn.
        let effect = attempt(&mut lifecycle.clone(), refused(true), 100, 2);
        assert_eq!(effect, Effect::Settle(SessionFate::Starved));
        // With budget left, a retry that would fire exactly at the deadline
        // starves instead.
        let effect = attempt(&mut lifecycle, refused(true), 100, 3);
        assert_eq!(effect, Effect::Settle(SessionFate::Starved));
        assert_eq!(lifecycle.attempts(), 2);
    }

    /// What a random input was, kept after the input itself is moved into
    /// the step.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Sent {
        Errored,
        Reserved { degraded: bool },
        Unreserved(NegotiationStatus, bool),
        Decide(bool),
        Expire,
        Switch,
        Depart,
    }

    #[test]
    fn random_inputs_release_each_reservation_once_and_settle_on_the_last_outcome() {
        use NegotiationStatus as S;
        const STATUSES: [S; 5] = [
            S::Succeeded,
            S::FailedWithOffer,
            S::FailedTryLater,
            S::FailedWithoutOffer,
            S::FailedWithLocalOffer,
        ];
        let mut rng = StreamRng::new(0x11fe);
        for case in 0..4_000u64 {
            let retry = RetryPolicy {
                max_attempts: rng.range_u64(1, 4) as u32,
                base_backoff_ms: 10,
                max_backoff_ms: 40,
                jitter: 0.5,
                deadline_ms: rng.chance(0.5).then(|| rng.range_u64(20, 120)),
            };
            let choice_period_ms = *rng.choose(&[0, 30]);
            let mut session_rng = StreamRng::new(case);
            let mut lifecycle = Lifecycle::<u32>::default();
            // Tokens handed to the machine, and whether each came back.
            let mut released: Vec<bool> = Vec::new();
            let (mut now, mut attempts) = (0u64, 0u32);
            for _ in 0..rng.range_u64(1, 14) {
                now += rng.range_u64(0, 25);
                let token = released.len() as u32;
                let reserved = |degraded| Reserved {
                    reservation: token,
                    offer: 0,
                    degraded,
                };
                let sent = match rng.below(6) {
                    0 | 1 => match rng.below(4) {
                        0 => Sent::Errored,
                        1 => Sent::Reserved {
                            degraded: rng.chance(0.5),
                        },
                        _ => Sent::Unreserved(*rng.choose(&STATUSES), rng.chance(0.7)),
                    },
                    2 => Sent::Decide(rng.chance(0.6)),
                    3 => Sent::Expire,
                    4 => Sent::Switch,
                    _ => Sent::Depart,
                };
                let outcome = match sent {
                    Sent::Reserved { degraded } => Attempt::Reserved(reserved(degraded)),
                    Sent::Unreserved(status, transient) => {
                        Attempt::Unreserved { status, transient }
                    }
                    _ => Attempt::Errored,
                };
                let input = match sent {
                    Sent::Errored | Sent::Reserved { .. } | Sent::Unreserved(..) => {
                        let rules = Rules {
                            retry,
                            choice_period_ms,
                            at_ms: now,
                            arrived_ms: 0,
                            rng: &mut session_rng,
                        };
                        Input::Attempt(outcome, rules)
                    }
                    Sent::Decide(accept) => Input::Decide { accept, at_ms: now },
                    Sent::Expire => Input::Expire { at_ms: now },
                    Sent::Switch => Input::Switch {
                        reservation: token,
                        offer: 1,
                    },
                    Sent::Depart => Input::Depart,
                };
                if matches!(sent, Sent::Reserved { .. } | Sent::Switch) {
                    released.push(false);
                }
                let before = lifecycle.clone();
                let effect = lifecycle.step(input);
                let is_attempt = matches!(
                    sent,
                    Sent::Errored | Sent::Reserved { .. } | Sent::Unreserved(..)
                );
                if is_attempt && before.phase() == &Phase::Negotiating {
                    attempts += 1;
                }
                assert_eq!(lifecycle.attempts(), attempts, "case {case}");
                if let Effect::Release(t) | Effect::TimedOut(t) = effect {
                    assert!(!released[t as usize], "case {case}: token {t} twice");
                    released[t as usize] = true;
                }
                if let Phase::Done(_) = before.phase() {
                    assert_eq!(lifecycle, before, "case {case}: done absorbs {sent:?}");
                }
                // The fate follows from the input that settled it.
                if lifecycle.phase() != before.phase() {
                    let held_degraded = before.reserved().map(|r| r.degraded);
                    let want = match sent {
                        Sent::Errored => Some(SessionFate::Errored),
                        Sent::Reserved { degraded } => {
                            (choice_period_ms == 0).then_some(SessionFate::Admitted { degraded })
                        }
                        Sent::Unreserved(S::Succeeded, _) => {
                            Some(SessionFate::Admitted { degraded: false })
                        }
                        Sent::Unreserved(S::FailedWithOffer, _) => {
                            Some(SessionFate::Admitted { degraded: true })
                        }
                        Sent::Unreserved(S::FailedTryLater, true) => {
                            fate(&lifecycle).map(|_| SessionFate::Starved)
                        }
                        Sent::Unreserved(..) => Some(SessionFate::Rejected),
                        Sent::Decide(true) if matches!(effect, Effect::Admit) => {
                            held_degraded.map(|degraded| SessionFate::Admitted { degraded })
                        }
                        Sent::Decide(_) | Sent::Expire => Some(SessionFate::Rejected),
                        Sent::Switch | Sent::Depart => {
                            held_degraded.map(|degraded| SessionFate::Admitted { degraded })
                        }
                    };
                    assert_eq!(fate(&lifecycle), want, "case {case}: after {sent:?}");
                }
            }
            // Every token came back exactly once, or is the one still held.
            let held = lifecycle.reserved().map(|r| r.reservation);
            for (t, &back) in released.iter().enumerate() {
                assert_eq!(back, held != Some(t as u32), "case {case}: token {t}");
            }
        }
    }
}
