//! The QoS manager: negotiation, confirmation, playout and adaptation in
//! one component (paper §4: "the component which implements the QoS
//! management functions, namely QoS negotiation and adaptation, is called
//! the QoS manager").

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerFarm};
use nod_mmdb::Catalog;
use nod_mmdoc::{DocumentId, MonomediaId, Variant};
use nod_netsim::Network;
use nod_obs::Recorder;
use nod_simcore::SimTime;
use nod_syncplay::{PlayoutSession, SessionState, Timeline};

use crate::adapt::{adapt, AdaptationReason};
use crate::classify::{ClassificationStrategy, ScoredOffer};
use crate::confirm::{ConfirmationDecision, ConfirmationTimer, PendingConfirmation};
use crate::cost::CostModel;
use crate::error::QosError;
use crate::negotiate::{
    negotiate_impl, NegotiationContext, NegotiationError, NegotiationOutcome, SessionReservation,
};
use crate::profile::UserProfile;
use crate::request::{NegotiationRequest, Session};

/// Tunables of the manager.
#[derive(Debug, Clone)]
pub struct ManagerConfig {
    /// Offer-ordering rule.
    pub strategy: ClassificationStrategy,
    /// Guarantee class requested from servers and network.
    pub guarantee: Guarantee,
    /// Offer-enumeration budget.
    pub enumeration_cap: usize,
    /// Client jitter-buffer size handed to playout sessions (ms of media).
    pub jitter_buffer_ms: u64,
    /// Delivery ratio a session experiences while its resources are
    /// violated (fraction of real-time; models congested components).
    pub degraded_delivery_ratio: f64,
    /// Prune dominated offers before classification (optimization knob;
    /// see `nod_qosneg::prune`). Off by default to keep the paper's exact
    /// fallback semantics.
    pub prune_dominated: bool,
    /// Observability hook shared by every negotiation, playout session and
    /// confirmation this manager drives. `None` (the default) makes all
    /// instrumentation a dead branch.
    pub recorder: Option<Recorder>,
    /// Record decision provenance ([`crate::DecisionLog`]) on every
    /// negotiation and adaptation this manager drives. Off by default —
    /// the disabled path allocates nothing.
    pub explain: bool,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        ManagerConfig {
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: Guarantee::Guaranteed,
            enumeration_cap: 250_000,
            jitter_buffer_ms: 2_000,
            prune_dominated: false,
            degraded_delivery_ratio: 0.3,
            recorder: None,
            explain: false,
        }
    }
}

/// A negotiated document being played.
#[derive(Debug)]
pub struct ActiveSession {
    /// The client machine playing the document.
    pub client: ClientMachine,
    /// The document.
    pub document: DocumentId,
    /// The playout engine.
    pub playout: PlayoutSession,
    /// Committed resources.
    pub reservation: SessionReservation,
    /// Index of the active offer in `ordered_offers`.
    pub offer_index: usize,
    /// The classified offers captured at negotiation time (the adaptation
    /// candidate set).
    pub ordered_offers: Vec<ScoredOffer>,
    /// Adaptation verdicts collected over the session's lifetime (only
    /// populated when [`ManagerConfig::explain`] is set).
    pub adaptations: Vec<crate::explain::AdaptationRecord>,
}

/// The QoS manager.
#[derive(Debug)]
pub struct QosManager {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost_model: CostModel,
    config: ManagerConfig,
}

impl QosManager {
    /// Assemble a manager over the system components.
    pub fn new(
        catalog: Catalog,
        farm: ServerFarm,
        network: Network,
        cost_model: CostModel,
        config: ManagerConfig,
    ) -> Self {
        QosManager {
            catalog,
            farm,
            network,
            cost_model,
            config,
        }
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The server farm.
    pub fn farm(&self) -> &ServerFarm {
        &self.farm
    }

    /// The network.
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The pricing model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost_model
    }

    /// The configuration.
    pub fn config(&self) -> &ManagerConfig {
        &self.config
    }

    /// The negotiation context view of this manager.
    pub fn context(&self) -> NegotiationContext<'_> {
        NegotiationContext {
            catalog: &self.catalog,
            farm: &self.farm,
            network: &self.network,
            cost_model: &self.cost_model,
            strategy: self.config.strategy,
            guarantee: self.config.guarantee,
            enumeration_cap: self.config.enumeration_cap,
            jitter_buffer_ms: self.config.jitter_buffer_ms,
            prune_dominated: self.config.prune_dominated,
            streaming: crate::negotiate::StreamingMode::Auto,
            recorder: self.config.recorder.as_ref(),
            explain: self.config.explain,
        }
    }

    /// A [`Session`] facade over this manager's context — the unified
    /// entry point for [`NegotiationRequest`]s.
    pub fn session(&self) -> Session<'_> {
        Session::new(self.context())
    }

    /// Submit a [`NegotiationRequest`] (the unified API): dispatches to
    /// the smart procedure or a baseline per the request's
    /// [`crate::Procedure`], with the request's overrides applied.
    pub fn submit(&self, request: &NegotiationRequest<'_>) -> Result<NegotiationOutcome, QosError> {
        self.session().submit(request)
    }

    /// Run the negotiation procedure (steps 1–5). Convenience for a
    /// default [`NegotiationRequest`] via [`QosManager::submit`].
    pub fn negotiate(
        &self,
        client: &ClientMachine,
        document: DocumentId,
        profile: &UserProfile,
    ) -> Result<NegotiationOutcome, NegotiationError> {
        negotiate_impl(&self.context(), client, document, profile)
    }

    /// Release a reservation (user rejected the offer or the
    /// `choicePeriod` expired).
    pub fn release(&self, reservation: &SessionReservation) {
        reservation.release(&self.farm, &self.network);
    }

    /// Step 6 accepted: turn a successful negotiation outcome into an
    /// active playout session.
    ///
    /// # Panics
    /// Panics if the outcome carries no reservation (negotiation failed) —
    /// a misuse, not a runtime condition.
    pub fn start_session(
        &self,
        client: &ClientMachine,
        outcome: NegotiationOutcome,
        document: DocumentId,
    ) -> ActiveSession {
        let reservation = outcome
            .reservation
            .expect("start_session requires a reserved offer");
        let offer_index = outcome.reserved_index.expect("reserved index present");
        let timeline = self
            .timeline_for(document, &outcome.ordered_offers[offer_index])
            .expect("negotiated offer must produce a valid timeline");
        let mut playout = PlayoutSession::new(timeline, self.config.jitter_buffer_ms);
        if let Some(rec) = &self.config.recorder {
            playout.set_recorder(rec.clone());
        }
        ActiveSession {
            client: client.clone(),
            document,
            playout,
            reservation,
            offer_index,
            ordered_offers: outcome.ordered_offers.into_vec(),
            adaptations: Vec::new(),
        }
    }

    /// Arm a step-6 confirmation over a successful outcome's reservation:
    /// the returned [`PendingConfirmation`] owns the reserved resources
    /// through the choice period. Resolve it with
    /// [`QosManager::resolve_pending`]; an unconfirmed rejection or timeout
    /// releases the reservation exactly once.
    ///
    /// # Panics
    /// Panics if the outcome carries no reservation (negotiation failed) —
    /// a misuse, not a runtime condition.
    pub fn begin_confirmation(
        &self,
        outcome: &mut NegotiationOutcome,
        now: SimTime,
        choice_period_ms: u64,
    ) -> PendingConfirmation {
        let reservation = outcome
            .reservation
            .take()
            .expect("begin_confirmation requires a reserved offer");
        PendingConfirmation::arm(now, choice_period_ms, reservation)
    }

    /// Resolve a step-6 confirmation with exactly-once resource handling
    /// ([`PendingConfirmation::resolve`]) and account for it: the first
    /// settlement increments `negotiation.confirmation{decision=…}` (plus
    /// `negotiation.choice_timeout` on expiry) and, for rejection or
    /// timeout, releases the held reservation. Replays return the settled
    /// decision without counting or releasing again.
    pub fn resolve_pending(
        &self,
        pending: &mut PendingConfirmation,
        at: SimTime,
        action: Option<bool>,
    ) -> Option<ConfirmationDecision> {
        let already_settled = pending.decision().is_some();
        let decision = pending.resolve(at, action, &self.farm, &self.network);
        if already_settled {
            return decision;
        }
        if let (Some(rec), Some(d)) = (self.config.recorder.as_ref(), decision) {
            let label = match d {
                ConfirmationDecision::Accepted => "accepted",
                ConfirmationDecision::Rejected => "rejected",
                ConfirmationDecision::TimedOut => "timed_out",
            };
            rec.counter_with("negotiation.confirmation", &[("decision", label)], 1);
            if d == ConfirmationDecision::TimedOut {
                rec.counter("negotiation.choice_timeout", 1);
            }
        }
        decision
    }

    /// Resolve a step-6 confirmation ([`ConfirmationTimer::resolve`]) and
    /// account for it: each decision increments
    /// `negotiation.confirmation{decision=…}` and a choice-period expiry
    /// additionally increments `negotiation.choice_timeout`.
    ///
    /// Stateless: the caller owns the reservation and must release it on
    /// rejection/timeout itself — and every call re-counts, so a click
    /// racing the expiry sweep yields two decisions over one reservation.
    /// Prefer [`QosManager::begin_confirmation`] +
    /// [`QosManager::resolve_pending`], which settle once and release
    /// exactly once.
    pub fn resolve_confirmation(
        &self,
        timer: &ConfirmationTimer,
        at: SimTime,
        action: Option<bool>,
    ) -> Option<ConfirmationDecision> {
        let decision = timer.resolve(at, action);
        if let (Some(rec), Some(d)) = (self.config.recorder.as_ref(), decision) {
            let label = match d {
                ConfirmationDecision::Accepted => "accepted",
                ConfirmationDecision::Rejected => "rejected",
                ConfirmationDecision::TimedOut => "timed_out",
            };
            rec.counter_with("negotiation.confirmation", &[("decision", label)], 1);
            if d == ConfirmationDecision::TimedOut {
                rec.counter("negotiation.choice_timeout", 1);
            }
        }
        decision
    }

    fn timeline_for(&self, document: DocumentId, offer: &ScoredOffer) -> Result<Timeline, String> {
        let doc = self
            .catalog
            .document(document)
            .ok_or_else(|| format!("unknown document {document}"))?;
        let selected: std::collections::HashMap<MonomediaId, &Variant> = offer
            .offer
            .variants
            .iter()
            .map(|v| (v.monomedia, v))
            .collect();
        Timeline::build(doc, &selected).map_err(|e| e.to_string())
    }

    /// Is any of this session's committed resources currently violated by
    /// server or network congestion?
    pub fn session_violated(&self, session: &ActiveSession) -> bool {
        let farm_violations = self.farm.violations();
        for (server, victims) in &farm_violations {
            for &(s, id) in &session.reservation.servers {
                if s == *server && victims.contains(&id) {
                    return true;
                }
            }
        }
        let net_violations = self.network.violated_reservations();
        session
            .reservation
            .network
            .iter()
            .any(|id| net_violations.contains(id))
    }

    /// The delivery ratio the session currently experiences.
    pub fn delivery_ratio(&self, session: &ActiveSession) -> f64 {
        if self.session_violated(session) {
            self.config.degraded_delivery_ratio
        } else {
            1.0
        }
    }

    /// Run the adaptation procedure on a degraded session
    /// (make-before-break). On success the session transitions (stop →
    /// capture position → restart on the alternate offer) and `true` is
    /// returned; if no alternate offer can be reserved the session keeps
    /// playing its current (degraded) offer and `false` is returned.
    pub fn adapt_session(&self, session: &mut ActiveSession, reason: AdaptationReason) -> bool {
        let outcome = adapt(
            &self.context(),
            &session.client,
            &session.ordered_offers,
            session.offer_index,
            &session.reservation,
            reason,
        );
        if let Some(record) = outcome.explain {
            session.adaptations.push(*record);
        }
        match (outcome.new_index, outcome.reservation) {
            (Some(idx), Some(reservation)) => {
                session.playout.interrupt_for_transition();
                session.offer_index = idx;
                session.reservation = reservation;
                let timeline = self
                    .timeline_for(session.document, &session.ordered_offers[idx])
                    .expect("alternate offer must produce a valid timeline");
                session.playout.resume_with(timeline);
                true
            }
            _ => false,
        }
    }

    /// User-driven renegotiation (paper §8: the user edits the offer and
    /// "initiates a renegotiation"; §8 conclusion: "the procedure can be
    /// used for negotiation, renegotiation, and adaptation with almost no
    /// modifications"). Runs a full negotiation under `new_profile`; when
    /// an offer commits, the session transitions to it exactly like an
    /// adaptation (position preserved) and the old resources are released.
    /// When nothing commits, the session keeps playing on its current
    /// offer and the failure status is returned.
    pub fn renegotiate_session(
        &self,
        session: &mut ActiveSession,
        new_profile: &UserProfile,
    ) -> Result<crate::negotiate::NegotiationStatus, NegotiationError> {
        let outcome = self.negotiate(&session.client, session.document, new_profile)?;
        match (outcome.reserved_index, outcome.reservation) {
            (Some(idx), Some(reservation)) => {
                session.playout.interrupt_for_transition();
                self.release(&session.reservation);
                session.reservation = reservation;
                session.ordered_offers = outcome.ordered_offers.into_vec();
                session.offer_index = idx;
                let timeline = self
                    .timeline_for(session.document, &session.ordered_offers[idx])
                    .expect("renegotiated offer must produce a valid timeline");
                session.playout.resume_with(timeline);
                Ok(outcome.status)
            }
            _ => Ok(outcome.status),
        }
    }

    /// Drive a session forward by `dt_ms` of wall time. When the session is
    /// degraded and `adaptation_enabled`, the adaptation procedure runs
    /// first. Terminal sessions release their resources and return `false`
    /// (nothing left to drive).
    pub fn drive_session(
        &self,
        session: &mut ActiveSession,
        dt_ms: u64,
        adaptation_enabled: bool,
    ) -> bool {
        match session.playout.state() {
            SessionState::Completed | SessionState::Aborted => return false,
            _ => {}
        }
        if adaptation_enabled && self.session_violated(session) {
            // Make-before-break: a failed attempt leaves the session
            // limping on its current offer; it retries on later ticks.
            self.adapt_session(session, AdaptationReason::ServerCongestion);
        }
        let ratio = self.delivery_ratio(session);
        session.playout.advance(dt_ms, ratio);
        match session.playout.state() {
            SessionState::Completed | SessionState::Aborted => {
                self.release(&session.reservation);
                false
            }
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::negotiate::NegotiationStatus;
    use crate::profile::tv_news_profile;
    use nod_cmfs::ServerConfig;
    use nod_mmdb::{CorpusBuilder, CorpusParams};
    use nod_mmdoc::{ClientId, ServerId};
    use nod_netsim::Topology;
    use nod_simcore::StreamRng;

    fn manager(seed: u64) -> QosManager {
        manager_with(seed, ManagerConfig::default())
    }

    fn manager_with(seed: u64, config: ManagerConfig) -> QosManager {
        let mut rng = StreamRng::new(seed);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 6,
            servers: (0..3).map(ServerId).collect(),
            video_variants: (3, 6),
            replicas: (1, 2),
            duration_secs: (30, 60),
            ..CorpusParams::default()
        })
        .build(&mut rng);
        QosManager::new(
            catalog,
            ServerFarm::uniform(3, ServerConfig::era_default()),
            Network::new(Topology::dumbbell(4, 3, 25_000_000, 155_000_000)),
            CostModel::era_default(),
            config,
        )
    }

    #[test]
    fn recorder_counts_confirmations_and_choice_timeouts() {
        let rec = Recorder::new();
        let m = manager_with(
            27,
            ManagerConfig {
                recorder: Some(rec.clone()),
                ..ManagerConfig::default()
            },
        );
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        let reservation = out.reservation.as_ref().unwrap().clone();

        // User confirms one offer in time, lets a second one expire.
        let timer = ConfirmationTimer::arm(SimTime::ZERO, 30_000);
        assert_eq!(
            m.resolve_confirmation(&timer, SimTime::from_secs(5), Some(true)),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(
            m.resolve_confirmation(&timer, SimTime::from_secs(31), None),
            Some(ConfirmationDecision::TimedOut)
        );
        m.release(&reservation);

        let snap = rec.snapshot();
        assert_eq!(snap.counter_sum("negotiation.outcome"), 1);
        assert_eq!(
            snap.counter("negotiation.confirmation{decision=accepted}"),
            1
        );
        assert_eq!(
            snap.counter("negotiation.confirmation{decision=timed_out}"),
            1
        );
        assert_eq!(snap.counter("negotiation.choice_timeout"), 1);
    }

    #[test]
    fn pending_confirmation_timeout_releases_once_and_counts_once() {
        let rec = Recorder::new();
        let m = manager_with(
            27,
            ManagerConfig {
                recorder: Some(rec.clone()),
                ..ManagerConfig::default()
            },
        );
        let client = ClientMachine::era_workstation(ClientId(0));
        let mut out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        assert!(out.reservation.is_some());
        let held_streams = m.farm.usage().streams;
        let held_net = m.network.active_reservations();
        assert!(held_streams > 0);

        let mut pending = m.begin_confirmation(&mut out, SimTime::ZERO, 30_000);
        assert!(out.reservation.is_none(), "pending owns the reservation");

        // Sweep exactly at the deadline: still confirmable, still held.
        assert_eq!(
            m.resolve_pending(&mut pending, SimTime::from_secs(30), None),
            None
        );
        assert_eq!(m.farm.usage().streams, held_streams);

        // One tick later the expiry settles it and releases everything.
        assert_eq!(
            m.resolve_pending(&mut pending, SimTime::from_millis(30_001), None),
            Some(ConfirmationDecision::TimedOut)
        );
        assert_eq!(m.farm.usage().streams, 0);
        assert_eq!(m.network.active_reservations(), 0);

        // The user's click lands after the race is lost: the settled
        // timeout replays, nothing is re-counted, nothing is re-released.
        assert_eq!(
            m.resolve_pending(&mut pending, SimTime::from_millis(30_001), Some(true)),
            Some(ConfirmationDecision::TimedOut)
        );
        assert!(pending.take_reservation().is_none());
        assert_eq!(m.farm.usage().streams, 0);
        assert_eq!(m.network.active_reservations(), 0);
        let _ = held_net;

        let snap = rec.snapshot();
        assert_eq!(
            snap.counter("negotiation.confirmation{decision=timed_out}"),
            1
        );
        assert_eq!(snap.counter("negotiation.choice_timeout"), 1);
    }

    #[test]
    fn pending_confirmation_accept_keeps_resources_for_start() {
        let m = manager(27);
        let client = ClientMachine::era_workstation(ClientId(0));
        let mut out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        let held_streams = m.farm.usage().streams;

        let mut pending = m.begin_confirmation(&mut out, SimTime::ZERO, 30_000);
        // Accept exactly on the boundary tick (still inside the period).
        assert_eq!(
            m.resolve_pending(&mut pending, SimTime::from_secs(30), Some(true)),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(m.farm.usage().streams, held_streams);
        // A late expiry sweep cannot claw the accepted resources back.
        assert_eq!(
            m.resolve_pending(&mut pending, SimTime::from_secs(31), None),
            Some(ConfirmationDecision::Accepted)
        );
        assert_eq!(m.farm.usage().streams, held_streams);

        out.reservation = Some(pending.take_reservation().expect("accepted"));
        let mut session = m.start_session(&client, out, DocumentId(1));
        while m.drive_session(&mut session, 5_000, false) {}
        assert_eq!(m.farm.usage().streams, 0);
        assert_eq!(m.network.active_reservations(), 0);
    }

    #[test]
    fn end_to_end_negotiate_play_complete() {
        let m = manager(21);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        assert!(matches!(
            out.status,
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
        ));
        let mut session = m.start_session(&client, out, DocumentId(1));
        let mut steps = 0;
        while m.drive_session(&mut session, 500, true) {
            steps += 1;
            assert!(steps < 1_000, "session never completed");
        }
        assert_eq!(session.playout.state(), SessionState::Completed);
        assert_eq!(session.playout.stats().transitions, 0);
        // Resources were returned at completion.
        assert_eq!(m.network().active_reservations(), 0);
    }

    #[test]
    fn congestion_triggers_adaptation_and_session_survives() {
        let m = manager(22);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        let mut session = m.start_session(&client, out, DocumentId(1));
        // Warm up.
        for _ in 0..10 {
            m.drive_session(&mut session, 500, true);
        }
        // Congest the serving server.
        let victim = session.reservation.servers[0].0;
        m.farm().server(victim).unwrap().set_health(0.0);
        let mut steps = 0;
        while m.drive_session(&mut session, 500, true) {
            steps += 1;
            if steps > 500 {
                break;
            }
        }
        assert_eq!(session.playout.state(), SessionState::Completed);
        assert!(
            session.playout.stats().transitions >= 1,
            "adaptation should have transitioned"
        );
    }

    #[test]
    fn without_adaptation_congestion_means_stalls() {
        let m = manager(23);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        let mut session = m.start_session(&client, out, DocumentId(1));
        for _ in 0..10 {
            m.drive_session(&mut session, 500, false);
        }
        let victim = session.reservation.servers[0].0;
        m.farm().server(victim).unwrap().set_health(0.0);
        let mut steps = 0;
        while m.drive_session(&mut session, 500, false) && steps < 2_000 {
            steps += 1;
        }
        let stats = session.playout.stats();
        assert_eq!(stats.transitions, 0);
        assert!(stats.stall_ms > 0.0, "no adaptation → visible stalls");
        assert!(stats.continuity() < 1.0);
    }

    #[test]
    fn renegotiation_transitions_to_the_new_profile() {
        let m = manager(25);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(1), &tv_news_profile())
            .unwrap();
        let mut session = m.start_session(&client, out, DocumentId(1));
        for _ in 0..10 {
            m.drive_session(&mut session, 500, true);
        }
        let position = session.playout.position_ms();
        // The user decides cost no longer matters: renegotiate upward.
        let mut premium = tv_news_profile();
        premium.max_cost = crate::money::Money::from_dollars(30);
        premium.importance.cost_per_dollar = 0.1;
        let status = m.renegotiate_session(&mut session, &premium).unwrap();
        assert!(matches!(
            status,
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer
        ));
        assert_eq!(session.playout.stats().transitions, 1);
        assert!(session.playout.position_ms() >= position);
        // Play to the end on the new offer.
        while m.drive_session(&mut session, 500, true) {}
        assert_eq!(session.playout.state(), SessionState::Completed);
        assert_eq!(m.network().active_reservations(), 0);
    }

    #[test]
    fn failed_renegotiation_keeps_the_session_running() {
        let m = manager(26);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(2), &tv_news_profile())
            .unwrap();
        let mut session = m.start_session(&client, out, DocumentId(2));
        for _ in 0..5 {
            m.drive_session(&mut session, 500, true);
        }
        // An impossible renegotiation: zero budget and an impossible deadline.
        let mut impossible = tv_news_profile();
        impossible.max_cost = crate::money::Money::ZERO;
        impossible.time.max_startup_ms = 0;
        let status = m.renegotiate_session(&mut session, &impossible).unwrap();
        assert_eq!(status, NegotiationStatus::FailedTryLater);
        assert_eq!(session.playout.stats().transitions, 0);
        // The original session still plays.
        assert!(m.drive_session(&mut session, 500, true));
    }

    #[test]
    fn rejected_offer_releases_resources() {
        let m = manager(24);
        let client = ClientMachine::era_workstation(ClientId(0));
        let out = m
            .negotiate(&client, DocumentId(2), &tv_news_profile())
            .unwrap();
        let res = out.reservation.as_ref().unwrap();
        assert!(m.network().active_reservations() > 0);
        m.release(res);
        assert_eq!(m.network().active_reservations(), 0);
    }
}
