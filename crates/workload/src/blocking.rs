//! The blocking-probability / user-satisfaction experiment driver (E8).
//!
//! A Poisson stream of session requests arrives at a shared news-on-demand
//! system; each is negotiated by the configured negotiator, holds its
//! resources for the document duration if accepted, and departs. The
//! experiment measures, per offered load: blocking probability, the
//! negotiation-status mix, mean accepted cost/OIF, and mean user
//! satisfaction — the quantities behind the paper's availability and
//! user-satisfaction claims (§1, §8).

use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_obs::{Recorder, RetentionPolicy, TailKeeper};
use nod_qosneg::explain::{AttemptExplain, ExplainData, LedgerRow, SessionExplain, StreamRow};
use nod_qosneg::mapping::charged_bit_rate;
use nod_qosneg::negotiate::{NegotiationContext, NegotiationStatus, StreamingMode};
use nod_qosneg::{
    ClassificationStrategy, CostModel, Money, NegotiationRequest, Procedure, Session,
};
use nod_simcore::{EventQueue, Percentiles, SimDuration, SimTime, StreamRng};

use crate::population::UserPopulation;

/// Which negotiation procedure serves the requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NegotiatorKind {
    /// The paper's smart negotiation with an offer-ordering strategy.
    Smart(ClassificationStrategy),
    /// Static first-fit capacity check (the "existing approaches" model).
    FirstFit,
    /// Independent per-monomedia negotiation.
    PerMonomedia,
}

impl nod_simcore::json::ToJson for NegotiatorKind {
    fn to_json(&self) -> nod_simcore::Json {
        use nod_simcore::json::Json;
        match self {
            NegotiatorKind::Smart(s) => Json::tagged("Smart", s.to_json()),
            NegotiatorKind::FirstFit => Json::Str("FirstFit".to_string()),
            NegotiatorKind::PerMonomedia => Json::Str("PerMonomedia".to_string()),
        }
    }
}

impl nod_simcore::json::FromJson for NegotiatorKind {
    fn from_json(j: &nod_simcore::Json) -> Result<Self, nod_simcore::json::JsonError> {
        let (tag, inner) = j.as_tagged()?;
        match tag {
            "Smart" => Ok(NegotiatorKind::Smart(ClassificationStrategy::from_json(
                inner,
            )?)),
            "FirstFit" => Ok(NegotiatorKind::FirstFit),
            "PerMonomedia" => Ok(NegotiatorKind::PerMonomedia),
            other => Err(nod_simcore::json::JsonError(format!(
                "unknown NegotiatorKind variant `{other}`"
            ))),
        }
    }
}

impl NegotiatorKind {
    /// Short label for experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif) => "smart",
            NegotiatorKind::Smart(ClassificationStrategy::OifOnly) => "oif-only",
            NegotiatorKind::Smart(ClassificationStrategy::CostOnly) => "cost-only",
            NegotiatorKind::Smart(ClassificationStrategy::QosOnly) => "qos-only",
            NegotiatorKind::FirstFit => "first-fit",
            NegotiatorKind::PerMonomedia => "per-monomedia",
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone)]
pub struct BlockingConfig {
    /// Master seed (corpus, arrivals and user mix all derive from it).
    pub seed: u64,
    /// Articles in the corpus.
    pub documents: usize,
    /// File servers.
    pub servers: usize,
    /// Client machines (arrival round-robins over them).
    pub clients: usize,
    /// Mean session arrivals per minute.
    pub arrivals_per_minute: f64,
    /// Simulated horizon, minutes.
    pub horizon_minutes: f64,
    /// The negotiator under test.
    pub negotiator: NegotiatorKind,
    /// Guarantee class requested.
    pub guarantee: Guarantee,
    /// Probability a user accepts a `FAILEDWITHOFFER` degraded offer.
    pub degraded_accept_probability: f64,
}

nod_simcore::json_struct!(BlockingConfig {
    seed,
    documents,
    servers,
    clients,
    arrivals_per_minute,
    horizon_minutes,
    negotiator,
    guarantee,
    degraded_accept_probability
});

impl Default for BlockingConfig {
    fn default() -> Self {
        BlockingConfig {
            seed: 1,
            documents: 30,
            servers: 4,
            clients: 8,
            arrivals_per_minute: 6.0,
            horizon_minutes: 120.0,
            negotiator: NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            guarantee: Guarantee::Guaranteed,
            degraded_accept_probability: 0.5,
        }
    }
}

/// Aggregated results of one load point.
#[derive(Debug, Clone, Default)]
pub struct BlockingResult {
    /// Sessions offered to the system.
    pub offered: u64,
    /// Sessions accepted and played (SUCCEEDED, or degraded offer taken).
    pub carried: u64,
    /// Status counts.
    pub succeeded: u64,
    /// Degraded offers returned.
    pub failed_with_offer: u64,
    /// Degraded offers the user actually took.
    pub degraded_accepted: u64,
    /// Resource-shortage rejections.
    pub try_later: u64,
    /// No-decoder rejections.
    pub without_offer: u64,
    /// Client-capability rejections.
    pub local_offer: u64,
    /// Mean cost of carried sessions (dollars).
    pub mean_cost_dollars: f64,
    /// Mean OIF of carried sessions.
    pub mean_oif: f64,
    /// Mean satisfaction over all offered sessions (see [`satisfaction`]).
    pub mean_satisfaction: f64,
    /// Median cost of carried sessions (dollars).
    pub p50_cost_dollars: f64,
    /// 95th-percentile cost of carried sessions (dollars).
    pub p95_cost_dollars: f64,
}

impl BlockingResult {
    /// Fraction of offered sessions that got nothing (the paper's system
    /// blocking probability).
    pub fn blocking_probability(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        let blocked = self.try_later
            + self.without_offer
            + self.local_offer
            + (self.failed_with_offer - self.degraded_accepted);
        blocked as f64 / self.offered as f64
    }
}

/// The per-session satisfaction score: 1.0 for the requested service,
/// 0.6 for an accepted degraded offer, 0.2 for a declined degraded offer
/// (the user at least got a counter-offer), 0 otherwise.
pub fn satisfaction(status: NegotiationStatus, accepted_degraded: bool) -> f64 {
    match status {
        NegotiationStatus::Succeeded => 1.0,
        NegotiationStatus::FailedWithOffer => {
            if accepted_degraded {
                0.6
            } else {
                0.2
            }
        }
        _ => 0.0,
    }
}

enum Event {
    Arrival(u64),
    Departure(Box<nod_qosneg::SessionReservation>),
}

/// Run one load point. Deterministic for a given config.
pub fn run_blocking(config: &BlockingConfig) -> BlockingResult {
    run_blocking_with(config, None)
}

/// [`run_blocking`] with an observability recorder attached to the
/// negotiation context, the server farm and the network. Counters and
/// histograms accumulate across the whole load point; stage spans are
/// wall-clock timed (the negotiation runs at a single simulated instant,
/// so the sim clock would collapse every stage latency to zero).
pub fn run_blocking_with(config: &BlockingConfig, recorder: Option<&Recorder>) -> BlockingResult {
    run_blocking_impl(config, recorder, None).0
}

/// [`run_blocking_with`] with decision provenance: every negotiation
/// records a [`DecisionLog`](nod_qosneg::DecisionLog), admitted sessions
/// land in the capacity ledger, and per-session explanations are
/// tail-retained under `policy` (100% of refusals plus a seeded head
/// sample). The arrival trace is unchanged: results match the plain run
/// exactly.
pub fn run_blocking_explained(
    config: &BlockingConfig,
    recorder: Option<&Recorder>,
    policy: RetentionPolicy,
) -> (BlockingResult, ExplainData) {
    let (result, data) = run_blocking_impl(config, recorder, Some(policy));
    (result, data.expect("explain was requested"))
}

fn run_blocking_impl(
    config: &BlockingConfig,
    recorder: Option<&Recorder>,
    explain: Option<RetentionPolicy>,
) -> (BlockingResult, Option<ExplainData>) {
    let mut keeper = explain.map(TailKeeper::new);
    let mut ledger: Vec<LedgerRow> = Vec::new();
    let mut master = StreamRng::new(config.seed);
    let mut corpus_rng = master.split();
    let mut arrival_rng = master.split();
    let mut user_rng = master.split();

    let catalog: Catalog = CorpusBuilder::new(CorpusParams {
        documents: config.documents,
        servers: (0..config.servers as u64).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut corpus_rng);
    let farm = ServerFarm::uniform(config.servers, ServerConfig::era_default());
    let network = Network::new(Topology::dumbbell(
        config.clients,
        config.servers,
        25_000_000,
        155_000_000,
    ));
    let cost_model = CostModel::era_default();
    let population = UserPopulation::era_default();
    if let Some(rec) = recorder {
        farm.set_recorder(rec);
        network.set_recorder(rec.clone());
    }

    let strategy = match config.negotiator {
        NegotiatorKind::Smart(s) => s,
        _ => ClassificationStrategy::SnsThenOif,
    };
    let ctx = NegotiationContext {
        catalog: &catalog,
        farm: &farm,
        network: &network,
        cost_model: &cost_model,
        strategy,
        guarantee: config.guarantee,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder,
        explain: false,
    };
    let session = Session::new(ctx);
    let procedure = match config.negotiator {
        NegotiatorKind::Smart(_) => Procedure::Smart,
        NegotiatorKind::FirstFit => Procedure::FirstFit,
        NegotiatorKind::PerMonomedia => Procedure::PerMonomedia,
    };

    let mut result = BlockingResult::default();
    let mut satisfaction_sum = 0.0;
    let mut cost_sum = Money::ZERO;
    let mut oif_sum = 0.0;
    let mut costs = Percentiles::new();

    let horizon = SimTime::ZERO + SimDuration::from_secs_f64(config.horizon_minutes * 60.0);
    let mut queue: EventQueue<Event> = EventQueue::new();
    let mean_gap_secs = 60.0 / config.arrivals_per_minute;
    let first = SimTime::ZERO + SimDuration::from_secs_f64(arrival_rng.exp(mean_gap_secs));
    queue.schedule(first, Event::Arrival(0));

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Arrival(n) => {
                // Schedule the next arrival while inside the horizon.
                let next = now + SimDuration::from_secs_f64(arrival_rng.exp(mean_gap_secs));
                if next < horizon {
                    queue.schedule(next, Event::Arrival(n + 1));
                }

                result.offered += 1;
                let client_id = ClientId(n % config.clients as u64);
                let (_, profile, machine) = population.sample(&mut user_rng, client_id);
                let doc = DocumentId(user_rng.zipf(config.documents, 0.9) as u64 + 1);
                let mut request =
                    NegotiationRequest::new(&machine, doc, &profile).procedure(procedure);
                if keeper.is_some() {
                    request = request.explain();
                }
                let mut outcome = session
                    .submit(&request)
                    .expect("valid profiles and documents");

                let duration_ms = catalog
                    .document(doc)
                    .unwrap()
                    .total_duration_ms()
                    .unwrap_or(60_000);
                let mut accepted_degraded = false;
                match outcome.status {
                    NegotiationStatus::Succeeded => {
                        result.succeeded += 1;
                    }
                    NegotiationStatus::FailedWithOffer => {
                        result.failed_with_offer += 1;
                        accepted_degraded = user_rng.chance(config.degraded_accept_probability);
                        if accepted_degraded {
                            result.degraded_accepted += 1;
                        }
                    }
                    NegotiationStatus::FailedTryLater => result.try_later += 1,
                    NegotiationStatus::FailedWithoutOffer => result.without_offer += 1,
                    NegotiationStatus::FailedWithLocalOffer => result.local_offer += 1,
                    // `NegotiationStatus` is non-exhaustive; the five paper
                    // statuses above are all terminal, so anything else
                    // would be a new status this tally predates.
                    _ => {}
                }
                satisfaction_sum += satisfaction(outcome.status, accepted_degraded);

                let keep = outcome.status == NegotiationStatus::Succeeded
                    || (outcome.status == NegotiationStatus::FailedWithOffer && accepted_degraded);
                if let Some(keeper) = keeper.as_mut() {
                    let now_ms = now.as_millis();
                    let fate = match outcome.status {
                        NegotiationStatus::Succeeded => "admitted",
                        NegotiationStatus::FailedWithOffer if accepted_degraded => {
                            "admitted_degraded"
                        }
                        _ => "rejected",
                    };
                    if keep {
                        if let Some(reserved) = &outcome.reserved_offer {
                            ledger.push(LedgerRow {
                                session: n,
                                admit_ms: now_ms,
                                depart_ms: now_ms + duration_ms,
                                streams: reserved
                                    .offer
                                    .variants
                                    .iter()
                                    .map(|v| StreamRow {
                                        server: v.server.0,
                                        bps: if v.blocks_per_second > 0 {
                                            charged_bit_rate(v, config.guarantee)
                                        } else {
                                            0
                                        },
                                    })
                                    .collect(),
                            });
                        }
                    }
                    let attempts = outcome
                        .decisions
                        .take()
                        .map(|d| {
                            vec![AttemptExplain {
                                at_ms: now_ms,
                                decisions: *d,
                            }]
                        })
                        .unwrap_or_default();
                    keeper.finish(
                        n,
                        fate == "rejected",
                        0,
                        SessionExplain {
                            session: n,
                            arrival_ms: now_ms,
                            fate: fate.to_string(),
                            duration_ms: 0,
                            attempts,
                            settlement: None,
                            adaptations: Vec::new(),
                        },
                    );
                }
                if let Some(reservation) = outcome.reservation {
                    if keep {
                        result.carried += 1;
                        // `reserved_offer` avoids forcing the deferred
                        // offer list to materialize on the hot path.
                        if let Some(reserved) = &outcome.reserved_offer {
                            // Accumulate in exact Money millis; convert to
                            // dollars only at the reporting edge.
                            cost_sum += reserved.offer.cost;
                            costs.push(reserved.offer.cost.dollars());
                            oif_sum += reserved.oif;
                        }
                        queue.schedule(
                            now + SimDuration::from_millis(duration_ms),
                            Event::Departure(Box::new(reservation)),
                        );
                    } else {
                        reservation.release(&farm, &network);
                    }
                }
            }
            Event::Departure(reservation) => {
                reservation.release(&farm, &network);
            }
        }
    }

    if result.carried > 0 {
        result.mean_cost_dollars = cost_sum.dollars() / result.carried as f64;
        result.mean_oif = oif_sum / result.carried as f64;
    }
    if result.offered > 0 {
        result.mean_satisfaction = satisfaction_sum / result.offered as f64;
    }
    result.p50_cost_dollars = costs.median().unwrap_or(0.0);
    result.p95_cost_dollars = costs.quantile(0.95).unwrap_or(0.0);
    let data = keeper.map(|k| {
        let (items, stats) = k.drain();
        ExplainData {
            ledger,
            sessions: items.into_iter().map(|(_, s)| s).collect(),
            stats,
        }
    });
    (result, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(negotiator: NegotiatorKind, arrivals_per_minute: f64, seed: u64) -> BlockingResult {
        run_blocking(&BlockingConfig {
            seed,
            documents: 12,
            servers: 3,
            clients: 6,
            arrivals_per_minute,
            horizon_minutes: 30.0,
            negotiator,
            ..BlockingConfig::default()
        })
    }

    #[test]
    fn light_load_has_no_resource_blocking() {
        let r = quick(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            1.0,
            7,
        );
        assert!(r.offered > 10);
        // At near-idle load nobody is turned away for lack of resources;
        // any refusals are structural (profile/corpus mismatches).
        assert_eq!(r.try_later, 0, "resource blocking at idle load");
        assert!(
            r.mean_satisfaction > 0.55,
            "satisfaction {:.3}",
            r.mean_satisfaction
        );
        assert!(r.carried > r.offered / 2);
    }

    #[test]
    fn blocking_rises_with_load() {
        let lo = quick(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            2.0,
            8,
        );
        let hi = quick(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            40.0,
            8,
        );
        assert!(
            hi.blocking_probability() > lo.blocking_probability(),
            "lo={:.3} hi={:.3}",
            lo.blocking_probability(),
            hi.blocking_probability()
        );
    }

    #[test]
    fn smart_carries_at_least_first_fit_under_pressure() {
        // The headline availability claim, at a moderately loaded point,
        // averaged over seeds.
        let mut smart_total = 0.0;
        let mut ff_total = 0.0;
        for seed in 0..4 {
            let smart = quick(
                NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
                12.0,
                100 + seed,
            );
            let ff = quick(NegotiatorKind::FirstFit, 12.0, 100 + seed);
            smart_total += smart.mean_satisfaction;
            ff_total += ff.mean_satisfaction;
        }
        assert!(
            smart_total > ff_total,
            "smart satisfaction {smart_total:.3} vs first-fit {ff_total:.3}"
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let a = quick(NegotiatorKind::PerMonomedia, 6.0, 5);
        let b = quick(NegotiatorKind::PerMonomedia, 6.0, 5);
        assert_eq!(a.offered, b.offered);
        assert_eq!(a.carried, b.carried);
        assert_eq!(a.mean_satisfaction, b.mean_satisfaction);
    }

    #[test]
    fn counts_are_consistent() {
        let r = quick(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            20.0,
            9,
        );
        assert_eq!(
            r.offered,
            r.succeeded + r.failed_with_offer + r.try_later + r.without_offer + r.local_offer
        );
        assert_eq!(r.carried, r.succeeded + r.degraded_accepted);
        assert!(r.blocking_probability() >= 0.0 && r.blocking_probability() <= 1.0);
    }

    #[test]
    fn cost_percentiles_are_ordered() {
        let r = quick(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif),
            6.0,
            11,
        );
        assert!(r.carried > 0);
        assert!(r.p50_cost_dollars > 0.0);
        assert!(r.p95_cost_dollars >= r.p50_cost_dollars);
        // The mean sits between the median and the tail for this skew.
        assert!(r.mean_cost_dollars >= r.p50_cost_dollars * 0.5);
        assert!(r.p95_cost_dollars <= r.mean_cost_dollars * 4.0);
    }

    #[test]
    fn explained_run_matches_the_plain_run_and_retains_refusals() {
        let config = BlockingConfig {
            seed: 8,
            documents: 12,
            servers: 2,
            clients: 6,
            arrivals_per_minute: 40.0,
            horizon_minutes: 20.0,
            ..BlockingConfig::default()
        };
        let plain = run_blocking(&config);
        let (explained, data) = run_blocking_explained(&config, None, RetentionPolicy::default());
        // Provenance is observation, not intervention.
        assert_eq!(plain.offered, explained.offered);
        assert_eq!(plain.carried, explained.carried);
        assert_eq!(plain.mean_satisfaction, explained.mean_satisfaction);
        assert_eq!(
            data.ledger.len() as u64,
            explained.carried,
            "one ledger row per carried session"
        );
        let rejected = data
            .sessions
            .iter()
            .filter(|s| s.fate == "rejected")
            .count() as u64;
        assert_eq!(
            rejected,
            explained.offered - explained.carried,
            "every refusal must be retained"
        );
        assert!(
            data.sessions
                .iter()
                .any(|s| s.attempts.iter().any(|a| a.decisions.offers_enumerated > 0)),
            "explanations must carry real decision logs"
        );
    }

    #[test]
    fn negotiator_labels() {
        assert_eq!(
            NegotiatorKind::Smart(ClassificationStrategy::SnsThenOif).label(),
            "smart"
        );
        assert_eq!(NegotiatorKind::FirstFit.label(), "first-fit");
        assert_eq!(NegotiatorKind::PerMonomedia.label(), "per-monomedia");
    }
}
