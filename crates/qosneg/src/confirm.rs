//! User confirmation (paper §4 step 6, §8).
//!
//! "Once the resources are reserved for a system offer, a notification is
//! sent to the user … The user must confirm the user offer (rejection or
//! acceptance) within a limited amount of time since the resources are
//! reserved." The GUI arms a timer initialized to `choicePeriod`; "if a
//! time-out is reached before pressing OK, the session is simply aborted".
//!
//! [`ConfirmationTimer`] is the stateless clock arithmetic;
//! [`PendingConfirmation`] owns the reserved resources through the choice
//! period and guarantees **exactly-once** release: when a user click races
//! the expiry sweep at the boundary tick, the first resolution settles the
//! decision and any replay observes it without touching resources again.

use nod_cmfs::ServerFarm;
use nod_netsim::Network;
use nod_simcore::{SimDuration, SimTime};

use crate::negotiate::SessionReservation;

/// What became of a pending confirmation.
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

/// The `choicePeriod` timer armed when the offer window is displayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfirmationTimer {
    armed_at: SimTime,
    choice_period: SimDuration,
}

impl ConfirmationTimer {
    /// Arm the timer at `now` for `choice_period_ms`.
    pub fn arm(now: SimTime, choice_period_ms: u64) -> Self {
        ConfirmationTimer {
            armed_at: now,
            choice_period: SimDuration::from_millis(choice_period_ms),
        }
    }

    /// The instant the offer expires.
    pub fn deadline(&self) -> SimTime {
        self.armed_at + self.choice_period
    }

    /// Has the timer expired at `now`?
    pub fn expired_at(&self, now: SimTime) -> bool {
        now > self.deadline()
    }

    /// Resolve a user action arriving at `at`. `None` models the user never
    /// responding (only meaningful once the deadline passed).
    ///
    /// Returns `None` when no decision can be made yet (no user action and
    /// the deadline has not passed).
    pub fn resolve(&self, at: SimTime, action: Option<bool>) -> Option<ConfirmationDecision> {
        if self.expired_at(at) {
            return Some(ConfirmationDecision::TimedOut);
        }
        match action {
            Some(true) => Some(ConfirmationDecision::Accepted),
            Some(false) => Some(ConfirmationDecision::Rejected),
            None => None,
        }
    }
}

/// A reserved offer held through its choice period (step 6, stateful).
///
/// The raw [`ConfirmationTimer`] is pure arithmetic: every caller that
/// resolves it acts on the answer independently. When a GUI click and the
/// expiry sweep race at the boundary tick, that statelessness lets *both*
/// act — a timeout path releasing the reservation while the accept path
/// starts a session on it (or both releasing). `PendingConfirmation` makes
/// the decision a one-shot state transition over the owned reservation:
///
/// * the **first** successful [`PendingConfirmation::resolve`] settles the
///   decision; rejection and timeout release the held resources exactly
///   once, right there;
/// * every later call — any time, any action — returns the settled
///   decision and never touches resources;
/// * an accepted reservation is handed out once via
///   [`PendingConfirmation::take_reservation`].
#[derive(Debug)]
pub struct PendingConfirmation {
    timer: ConfirmationTimer,
    reservation: Option<SessionReservation>,
    decision: Option<ConfirmationDecision>,
}

impl PendingConfirmation {
    /// Arm the choice period at `now` over a committed reservation.
    pub fn arm(now: SimTime, choice_period_ms: u64, reservation: SessionReservation) -> Self {
        PendingConfirmation {
            timer: ConfirmationTimer::arm(now, choice_period_ms),
            reservation: Some(reservation),
            decision: None,
        }
    }

    /// Rebuild a confirmation from journaled state (crash recovery).
    ///
    /// A settled decision replays as settled: later [`resolve`] calls —
    /// including the very sweep or click whose journal record was being
    /// written when the process died — are pure reads and never touch
    /// the ledger again, exactly as they would have in the crashed
    /// process. A settled non-`Accepted` confirmation therefore carries
    /// no reservation (it was released, exactly once, before the
    /// decision was journaled).
    ///
    /// [`resolve`]: PendingConfirmation::resolve
    pub fn restore(
        timer: ConfirmationTimer,
        decision: Option<ConfirmationDecision>,
        reservation: Option<SessionReservation>,
    ) -> Self {
        debug_assert!(
            !(matches!(
                decision,
                Some(ConfirmationDecision::Rejected) | Some(ConfirmationDecision::TimedOut)
            ) && reservation.is_some()),
            "a settled non-accepted confirmation cannot still hold resources"
        );
        PendingConfirmation {
            timer,
            reservation,
            decision,
        }
    }

    /// The underlying timer.
    pub fn timer(&self) -> &ConfirmationTimer {
        &self.timer
    }

    /// The settled decision, if any resolution has happened yet.
    pub fn decision(&self) -> Option<ConfirmationDecision> {
        self.decision
    }

    /// Is the reservation still held (neither released nor handed out)?
    pub fn holds_resources(&self) -> bool {
        self.reservation.is_some()
    }

    /// Resolve a user action (`Some(true)` OK / `Some(false)` CANCEL /
    /// `None` expiry sweep) arriving at `at`.
    ///
    /// Returns `None` while the confirmation is still pending (no action,
    /// deadline not passed). The first `Some` return settles the decision;
    /// `Rejected` and `TimedOut` release the reservation exactly once
    /// before returning. Replays are pure reads.
    pub fn resolve(
        &mut self,
        at: SimTime,
        action: Option<bool>,
        farm: &ServerFarm,
        network: &Network,
    ) -> Option<ConfirmationDecision> {
        if let Some(settled) = self.decision {
            return Some(settled);
        }
        let decision = self.timer.resolve(at, action)?;
        self.decision = Some(decision);
        if decision != ConfirmationDecision::Accepted {
            if let Some(reservation) = self.reservation.take() {
                reservation.release(farm, network);
            }
        }
        Some(decision)
    }

    /// Hand out the reservation of an accepted confirmation (once).
    /// Returns `None` unless the settled decision is `Accepted`.
    pub fn take_reservation(&mut self) -> Option<SessionReservation> {
        match self.decision {
            Some(ConfirmationDecision::Accepted) => self.reservation.take(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_cmfs::{Guarantee, ServerConfig, StreamRequirement};
    use nod_mmdoc::{ClientId, ServerId, VariantId};
    use nod_netsim::Topology;

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

    #[test]
    fn boundary_tick_confirm_races_expiry_exactly_once() {
        let (farm, network) = small_world();
        let reservation = reserve_one(&farm, &network);
        let held = ledger(&farm, &network);
        let mut pending = PendingConfirmation::arm(SimTime::ZERO, 30_000, reservation);

        // An expiry sweep lands exactly on the deadline tick: the offer is
        // still confirmable there, so nothing settles and nothing releases.
        assert_eq!(
            pending.resolve(SimTime::from_secs(30), None, &farm, &network),
            None
        );
        assert!(pending.holds_resources());
        assert_eq!(ledger(&farm, &network), held);

        // The user's OK arrives on the same tick: accepted, resources kept.
        assert_eq!(
            pending.resolve(SimTime::from_secs(30), Some(true), &farm, &network),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(ledger(&farm, &network), held);

        // A late expiry sweep replays the settled decision — it must NOT
        // downgrade the accept to a timeout or release the session's
        // resources out from under it.
        assert_eq!(
            pending.resolve(SimTime::from_secs(31), None, &farm, &network),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(ledger(&farm, &network), held);

        // The accepted reservation is handed out exactly once.
        let res = pending.take_reservation().expect("accepted hands out");
        assert!(pending.take_reservation().is_none());
        res.release(&farm, &network);
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn timeout_releases_exactly_once_and_late_click_cannot_double_release() {
        let (farm, network) = small_world();
        let reservation = reserve_one(&farm, &network);
        let mut pending = PendingConfirmation::arm(SimTime::ZERO, 30_000, reservation);

        // The sweep one tick past the deadline times the offer out and
        // releases the reservation.
        assert_eq!(
            pending.resolve(SimTime::from_millis(30_001), None, &farm, &network),
            Some(ConfirmationDecision::TimedOut)
        );
        assert!(!pending.holds_resources());
        assert_eq!(ledger(&farm, &network), (0, 0, 0));

        // Another session immediately reserves the freed capacity.
        let other = reserve_one(&farm, &network);
        let other_held = ledger(&farm, &network);

        // The user's click arrives late (same race, other ordering): the
        // settled timeout is replayed; the second session's resources are
        // untouched and no reservation is handed out.
        assert_eq!(
            pending.resolve(SimTime::from_millis(30_001), Some(true), &farm, &network),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(ledger(&farm, &network), other_held);
        assert!(pending.take_reservation().is_none());

        other.release(&farm, &network);
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn reject_releases_exactly_once() {
        let (farm, network) = small_world();
        let reservation = reserve_one(&farm, &network);
        let mut pending = PendingConfirmation::arm(SimTime::ZERO, 30_000, reservation);
        assert_eq!(
            pending.resolve(SimTime::from_secs(1), Some(false), &farm, &network),
            Some(ConfirmationDecision::Rejected)
        );
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
        // Replays (even an accept) observe the rejection and stay pure.
        assert_eq!(
            pending.resolve(SimTime::from_secs(2), Some(true), &farm, &network),
            Some(ConfirmationDecision::Rejected)
        );
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn restored_settled_timeout_replays_without_touching_the_ledger() {
        // Journal replay path: the broker crashed after the expiry sweep
        // settled (and released) a timeout, and recovery restores the
        // confirmation from its journaled state — settled, nothing held.
        let (farm, network) = small_world();
        let reservation = reserve_one(&farm, &network);
        let mut pending = PendingConfirmation::arm(SimTime::ZERO, 30_000, reservation);
        assert_eq!(
            pending.resolve(SimTime::from_millis(30_001), None, &farm, &network),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(ledger(&farm, &network), (0, 0, 0));

        // What a journal snapshot captures of this confirmation.
        let (timer, decision) = (*pending.timer(), pending.decision());
        assert!(!pending.holds_resources());

        // Another session now holds the freed capacity — a double release
        // on replay would strand or free *its* streams.
        let other = reserve_one(&farm, &network);
        let other_held = ledger(&farm, &network);

        let mut restored = PendingConfirmation::restore(timer, decision, None);
        // Re-delivering the settling sweep — and even a late click — after
        // recovery must be a pure read: decision replayed, ledger intact.
        assert_eq!(
            restored.resolve(SimTime::from_millis(30_001), None, &farm, &network),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(
            restored.resolve(SimTime::from_millis(30_002), Some(true), &farm, &network),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(ledger(&farm, &network), other_held);
        assert!(restored.take_reservation().is_none());

        other.release(&farm, &network);
        assert_eq!(ledger(&farm, &network), (0, 0, 0));
    }

    #[test]
    fn restored_unsettled_confirmation_settles_exactly_once_after_recovery() {
        // Journal replay path: the crash hit *before* any resolution, so
        // recovery re-reserved the held streams and restores an unsettled
        // confirmation. It must behave exactly like the original: first
        // resolution settles and releases once, replays are pure.
        let (farm, network) = small_world();
        let original =
            PendingConfirmation::arm(SimTime::ZERO, 30_000, reserve_one(&farm, &network));
        let timer = *original.timer();
        assert!(original.decision().is_none());
        drop(original);
        // (`original`'s reservation is leaked by the crash model here —
        // the fresh-world recovery below starts from its own ledger.)
        let held = ledger(&farm, &network);

        let rebuilt = reserve_one(&farm, &network);
        let mut restored = PendingConfirmation::restore(timer, None, Some(rebuilt));
        assert!(restored.holds_resources());

        assert_eq!(
            restored.resolve(SimTime::from_secs(10), Some(false), &farm, &network),
            Some(ConfirmationDecision::Rejected)
        );
        assert_eq!(ledger(&farm, &network), held, "released exactly once");
        assert_eq!(
            restored.resolve(SimTime::from_secs(11), Some(true), &farm, &network),
            Some(ConfirmationDecision::Rejected)
        );
        assert_eq!(ledger(&farm, &network), held, "replay is a pure read");
    }

    #[test]
    fn accept_within_period() {
        let t = ConfirmationTimer::arm(SimTime::from_secs(10), 30_000);
        assert_eq!(t.deadline(), SimTime::from_secs(40));
        assert_eq!(
            t.resolve(SimTime::from_secs(20), Some(true)),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(
            t.resolve(SimTime::from_secs(20), Some(false)),
            Some(ConfirmationDecision::Rejected)
        );
    }

    #[test]
    fn timeout_wins_over_late_action() {
        let t = ConfirmationTimer::arm(SimTime::ZERO, 30_000);
        // A click arriving after the deadline is a timeout: the resources
        // were already released.
        assert_eq!(
            t.resolve(SimTime::from_secs(31), Some(true)),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(
            t.resolve(SimTime::from_secs(31), None),
            Some(ConfirmationDecision::TimedOut)
        );
    }

    #[test]
    fn pending_when_no_action_before_deadline() {
        let t = ConfirmationTimer::arm(SimTime::ZERO, 30_000);
        assert_eq!(t.resolve(SimTime::from_secs(10), None), None);
        // Boundary: exactly at the deadline the user can still confirm.
        assert!(!t.expired_at(SimTime::from_secs(30)));
        assert_eq!(
            t.resolve(SimTime::from_secs(30), Some(true)),
            Some(ConfirmationDecision::Accepted)
        );
    }
}
