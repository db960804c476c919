//! The contended-broker experiment driver (B9).
//!
//! A population of users arrives (Poisson) at a deliberately undersized
//! news-on-demand system — more concurrent demand than the farm can
//! carry — and the [`Broker`] mediates: refused
//! sessions back off with jittered exponential delays and retry as
//! earlier sessions depart and release capacity. Optionally a seeded
//! [`FaultPlan`] churns servers and links underneath the run. The
//! experiment measures admission ratio, starvation, retry volume and —
//! always — that the drained system leaks zero capacity.

use std::io::{self, Write};

use nod_broker::{
    write_explains, Broker, BrokerConfig, BrokerReport, FaultPlan, FleetSpec, Journal,
    JournalError, RecoveryReport, SessionSpec,
};
use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_obs::{Recorder, RetentionPolicy, SloSpec};
use nod_qosneg::explain::ExplainMeta;
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::{ClassificationStrategy, CostModel, RetryPolicy, UserProfile};
use nod_simcore::StreamRng;

use crate::population::UserPopulation;

/// Configuration of one contended run.
#[derive(Debug, Clone)]
pub struct ContendedConfig {
    /// Master seed (corpus, users, arrivals, backoff jitter, faults).
    pub seed: u64,
    /// Articles in the corpus.
    pub documents: usize,
    /// File servers — size this *below* the session count's demand to
    /// create contention.
    pub servers: usize,
    /// Client machines (arrivals round-robin over them).
    pub clients: usize,
    /// Sessions offered to the broker.
    pub sessions: usize,
    /// Mean session arrivals per minute.
    pub arrivals_per_minute: f64,
    /// How long an admitted session holds its resources, ms.
    pub hold_ms: u64,
    /// Retry policy for FAILEDTRYLATER refusals.
    pub retry: RetryPolicy,
    /// Seeded fault windows to inject (0 = fault-free).
    pub fault_windows: usize,
    /// Guarantee class requested.
    pub guarantee: Guarantee,
    /// Upper bound of the simulated user's confirmation window, ms
    /// (0 = confirm instantly; see
    /// [`BrokerConfig::choice_period_ms`](nod_broker::BrokerConfig)).
    pub choice_period_ms: u64,
    /// Service-level objectives monitored over the run's virtual clock
    /// (empty = no monitoring; see
    /// [`nod_obs::default_fleet_slos`]). Alerts land in
    /// [`BrokerReport::slo_alerts`].
    pub slos: Vec<SloSpec>,
    /// Client access-link bandwidth of the dumbbell topology, bit/s.
    pub access_bps: u64,
    /// Shared backbone bandwidth of the dumbbell topology, bit/s. Scale
    /// this up with the farm for metro-sized fleets, or the backbone —
    /// not the servers — becomes the only bottleneck.
    pub backbone_bps: u64,
    /// Decision-provenance retention (see [`FleetSpec::explain`]).
    /// `None` (the default) records nothing and allocates nothing;
    /// `Some(policy)` makes [`BrokerReport::explains`] carry the
    /// capacity ledger and the tail-retained per-session explanations as
    /// the drive's live facts; [`write_contended_explains`] writes the
    /// artifact.
    pub explain: Option<RetentionPolicy>,
}

impl Default for ContendedConfig {
    fn default() -> Self {
        ContendedConfig {
            seed: 1,
            documents: 16,
            servers: 2,
            clients: 8,
            sessions: 64,
            arrivals_per_minute: 120.0,
            hold_ms: 20_000,
            retry: RetryPolicy::era_default(),
            fault_windows: 0,
            guarantee: Guarantee::Guaranteed,
            choice_period_ms: 0,
            slos: Vec::new(),
            access_bps: 25_000_000,
            backbone_bps: 155_000_000,
            explain: None,
        }
    }
}

/// Aggregates of one contended run (see [`BrokerReport`] for the log).
#[derive(Debug, Clone, PartialEq)]
pub struct ContendedResult {
    /// Sessions offered.
    pub offered: usize,
    /// Sessions admitted (degraded included).
    pub admitted: usize,
    /// Sessions starved out by contention.
    pub starved: usize,
    /// Sessions terminally refused or errored.
    pub rejected: usize,
    /// Retries performed.
    pub retries: u64,
    /// Total virtual backoff, ms.
    pub backoff_ms_total: u64,
    /// Fault windows that fired.
    pub faults_injected: u64,
    /// `admitted / offered`.
    pub admission_ratio: f64,
    /// Streams still held after the drain — must be 0.
    pub leaked_streams: usize,
}

/// Run one contended load point. Deterministic for a given config.
pub fn run_contended(config: &ContendedConfig) -> ContendedResult {
    run_contended_with(config, None).0
}

/// The shared system state of a contended run: everything the spec slice
/// borrows, built deterministically from the config's seed.
struct ContendedWorld {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost_model: CostModel,
    users: Vec<(ClientMachine, UserProfile, DocumentId, u64)>,
}

fn build_world(
    config: &ContendedConfig,
    recorder: Option<&Recorder>,
) -> (ContendedWorld, StreamRng) {
    let mut master = StreamRng::new(config.seed);
    let mut corpus_rng = master.split();
    let mut arrival_rng = master.split();
    let mut user_rng = master.split();
    let fault_rng = master.split();

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
        config.access_bps,
        config.backbone_bps,
    ));
    let cost_model = CostModel::era_default();
    let population = UserPopulation::era_default();
    if let Some(rec) = recorder {
        farm.set_recorder(rec);
        network.set_recorder(rec.clone());
    }

    // Arrivals and users are drawn up front so the spec slice can borrow
    // the machines and profiles.
    let mean_gap_secs = 60.0 / config.arrivals_per_minute;
    let mut users: Vec<(ClientMachine, UserProfile, DocumentId, u64)> = Vec::new();
    let mut at_secs = 0.0;
    for n in 0..config.sessions {
        at_secs += arrival_rng.exp(mean_gap_secs);
        let client_id = ClientId(n as u64 % config.clients as u64);
        let (_, profile, machine) = population.sample(&mut user_rng, client_id);
        let doc = DocumentId(user_rng.zipf(config.documents, 0.9) as u64 + 1);
        users.push((machine, profile, doc, (at_secs * 1_000.0) as u64));
    }
    (
        ContendedWorld {
            catalog,
            farm,
            network,
            cost_model,
            users,
        },
        fault_rng,
    )
}

impl ContendedWorld {
    fn specs(&self, config: &ContendedConfig) -> Vec<SessionSpec<'_>> {
        self.users
            .iter()
            .map(|(machine, profile, doc, arrival_ms)| SessionSpec {
                client: machine,
                document: *doc,
                profile,
                arrival_ms: *arrival_ms,
                hold_ms: Some(config.hold_ms),
            })
            .collect()
    }

    fn ctx<'w>(
        &'w self,
        config: &ContendedConfig,
        recorder: Option<&'w Recorder>,
    ) -> NegotiationContext<'w> {
        NegotiationContext {
            catalog: &self.catalog,
            farm: &self.farm,
            network: &self.network,
            cost_model: &self.cost_model,
            strategy: ClassificationStrategy::SnsThenOif,
            guarantee: config.guarantee,
            enumeration_cap: 500_000,
            jitter_buffer_ms: 2_000,
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder,
            explain: false,
        }
    }

    fn fault_plan(&self, config: &ContendedConfig, fault_rng: &mut StreamRng) -> FaultPlan {
        if config.fault_windows == 0 {
            return FaultPlan::none();
        }
        let horizon_ms = self.users.last().map(|u| u.3).unwrap_or(0) + config.hold_ms;
        FaultPlan::seeded(
            fault_rng,
            &self.farm.ids(),
            &self.network.topology().link_ids(),
            horizon_ms.max(1_000),
            config.fault_windows,
        )
    }

    fn fleet<'s>(
        &self,
        config: &ContendedConfig,
        specs: &'s [SessionSpec<'s>],
        faults: &'s FaultPlan,
    ) -> FleetSpec<'s> {
        let mut fleet = FleetSpec::new(specs)
            .faults(faults)
            .slos(config.slos.clone());
        if let Some(policy) = config.explain {
            fleet = fleet.explain(policy);
        }
        fleet
    }

    fn broker_config(&self, config: &ContendedConfig) -> BrokerConfig {
        BrokerConfig {
            retry: config.retry,
            seed: config.seed ^ 0xB20_4E2,
            choice_period_ms: config.choice_period_ms,
            ..BrokerConfig::era_default()
        }
    }
}

/// [`run_contended`] returning the full [`BrokerReport`] too, with an
/// optional observability recorder attached to the negotiation context
/// (and thus to the broker's counters).
pub fn run_contended_with(
    config: &ContendedConfig,
    recorder: Option<&Recorder>,
) -> (ContendedResult, BrokerReport) {
    let (world, mut fault_rng) = build_world(config, recorder);
    let specs = world.specs(config);
    let faults = world.fault_plan(config, &mut fault_rng);

    let broker = Broker::new(world.ctx(config, recorder), world.broker_config(config));
    let fleet = world.fleet(config, &specs, &faults);
    let report = broker.drive(&fleet);
    let result = summarize(config, &report);
    (result, report)
}

/// Write the `--explain-out` artifact of `report`, the report of a
/// [`run_contended_with`] or [`run_contended_journaled`] run of `config`,
/// under `meta` ([`write_explains`]). The run's world is rebuilt from
/// `config` — steps 1–4 read only its catalog and topology — and each
/// line is derived as it is written.
pub fn write_contended_explains(
    config: &ContendedConfig,
    report: &BrokerReport,
    meta: &ExplainMeta,
    out: &mut impl Write,
) -> io::Result<()> {
    let (world, _) = build_world(config, None);
    let specs = world.specs(config);
    write_explains(&world.ctx(config, None), &specs, report, meta, out)
}

/// [`run_contended_with`], journaling every session transition to
/// `journal` so the run can be resumed after a crash with
/// [`recover_contended`]. The journal must be fresh (no prior records).
pub fn run_contended_journaled(
    config: &ContendedConfig,
    recorder: Option<&Recorder>,
    journal: &Journal,
) -> (ContendedResult, BrokerReport) {
    let (world, mut fault_rng) = build_world(config, recorder);
    let specs = world.specs(config);
    let faults = world.fault_plan(config, &mut fault_rng);

    let broker = Broker::new(world.ctx(config, recorder), world.broker_config(config));
    let fleet = world.fleet(config, &specs, &faults).journal(journal);
    let report = broker.drive(&fleet);
    let result = summarize(config, &report);
    (result, report)
}

/// Resume a crashed [`run_contended_journaled`] run from its journal.
///
/// Rebuilds the world deterministically from `config` (which must be the
/// same config the crashed run used — the journal header's spec hash is
/// checked), then hands the journal to
/// [`Broker::recover`](nod_broker::Broker::recover). The returned
/// report's outcome log is the byte-identical suffix of the
/// uninterrupted run's log, starting at
/// [`RecoveryReport::suffix_starts_at_event`].
pub fn recover_contended(
    config: &ContendedConfig,
    recorder: Option<&Recorder>,
    journal: &Journal,
) -> Result<RecoveryReport, JournalError> {
    let (world, mut fault_rng) = build_world(config, recorder);
    let specs = world.specs(config);
    let faults = world.fault_plan(config, &mut fault_rng);

    let broker = Broker::new(world.ctx(config, recorder), world.broker_config(config));
    let fleet = world.fleet(config, &specs, &faults).journal(journal);
    broker.recover(&fleet)
}

fn summarize(config: &ContendedConfig, report: &BrokerReport) -> ContendedResult {
    ContendedResult {
        offered: config.sessions,
        admitted: report.admitted,
        starved: report.starved,
        rejected: report.rejected + report.errored,
        retries: report.retries,
        backoff_ms_total: report.backoff_ms_total,
        faults_injected: report.faults_injected,
        admission_ratio: report.admission_ratio,
        leaked_streams: report.leaked_streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_forces_retries_that_eventually_succeed() {
        let r = run_contended(&ContendedConfig {
            seed: 3,
            sessions: 24,
            servers: 1,
            arrivals_per_minute: 240.0,
            hold_ms: 8_000,
            ..ContendedConfig::default()
        });
        assert_eq!(r.offered, 24);
        assert_eq!(r.leaked_streams, 0);
        assert!(r.retries > 0, "no contention: {r:?}");
        assert_eq!(r.admitted + r.starved + r.rejected, r.offered);
    }

    #[test]
    fn deterministic_for_seed_even_with_faults() {
        // Same seed, fresh world: aggregates, outcome log and the
        // recorder's metric snapshot must all replay — under retry
        // pressure and fault windows at once.
        let config = ContendedConfig {
            seed: 9,
            sessions: 32,
            servers: 1,
            arrivals_per_minute: 240.0,
            hold_ms: 8_000,
            fault_windows: 4,
            ..ContendedConfig::default()
        };
        let run = || {
            let rec = Recorder::new();
            let (result, report) = run_contended_with(&config, Some(&rec));
            (result, report, rec.snapshot().to_json_pretty())
        };
        let (a, ra, sa) = run();
        let (b, rb, sb) = run();
        assert!(a.admitted >= 1);
        assert!(a.retries > 0, "the load must contend");
        assert!(a.faults_injected > 0);
        assert_eq!(a.leaked_streams, 0);
        assert_eq!(a, b);
        assert_eq!(ra.events, rb.events);
        assert_eq!(sa, sb, "metric snapshot differs between same-seed runs");
    }

    /// The artifact of `report`, a run of `config`, as JSON lines.
    fn artifact_text(config: &ContendedConfig, report: &BrokerReport) -> String {
        let policy = config.explain.expect("explain was requested");
        let meta = ExplainMeta {
            source: "test".into(),
            seed: config.seed,
            sessions: config.sessions as u64,
            top_k: policy.top_k as u64,
            sample_every: policy.sample_every,
            sample_seed: policy.seed,
        };
        let mut out = Vec::new();
        write_contended_explains(config, report, &meta, &mut out).expect("a Vec takes every write");
        String::from_utf8(out).expect("JSON text is UTF-8")
    }

    #[test]
    fn explain_artifacts_are_byte_identical_for_the_same_seed() {
        let config = ContendedConfig {
            seed: 23,
            sessions: 48,
            servers: 1,
            arrivals_per_minute: 240.0,
            hold_ms: 8_000,
            choice_period_ms: 300,
            explain: Some(RetentionPolicy::default()),
            ..ContendedConfig::default()
        };
        let artifact = || artifact_text(&config, &run_contended_with(&config, None).1);
        let a1 = artifact();
        let a2 = artifact();
        assert!(
            a1.lines().any(|l| l.starts_with("{\"session\"")),
            "artifact retains no session explanations:\n{a1}"
        );
        assert!(
            a1.lines().any(|l| l.starts_with("{\"ledger\"")),
            "artifact carries no capacity ledger:\n{a1}"
        );
        assert_eq!(a1, a2, "explain artifact differs between same-seed runs");
    }

    #[test]
    fn explain_retains_every_failure_with_refusal_shortfalls() {
        use nod_qosneg::explain::ExplainArtifact;
        let config = ContendedConfig {
            seed: 5,
            sessions: 32,
            servers: 1,
            arrivals_per_minute: 300.0,
            hold_ms: 30_000,
            retry: RetryPolicy::NO_RETRY,
            explain: Some(RetentionPolicy::default()),
            ..ContendedConfig::default()
        };
        let (result, report) = run_contended_with(&config, None);
        let art = ExplainArtifact::from_jsonl(&artifact_text(&config, &report)).expect("parses");
        let data = report.explains.expect("explain was requested");
        let failed = config.sessions - result.admitted;
        assert!(failed > 0, "run must actually refuse sessions");
        let retained_failures = data
            .sessions
            .iter()
            .filter(|s| s.fate != "admitted" && s.fate != "admitted_degraded")
            .count();
        assert_eq!(
            retained_failures, failed,
            "tail retention must keep 100% of failures"
        );
        // At least one failed session must explain itself with a concrete
        // commit refusal (kind + shortfall) from the decision log.
        assert!(
            data.sessions
                .iter()
                .any(|s| s.attempts.iter().any(|a| !a.decisions.refusals.is_empty())),
            "no session explanation carries a commit refusal"
        );
        // Ledger rows cover exactly the admitted sessions.
        assert_eq!(data.ledger.len(), result.admitted);
        assert_eq!(art.ledger.len(), result.admitted);
        assert!(art
            .ledger
            .iter()
            .all(|row| row.depart_ms > row.admit_ms && !row.streams.is_empty()));
    }

    #[test]
    fn slo_monitoring_flags_a_contended_run() {
        use nod_obs::{Objective, SloSpec};
        let tight = SloSpec {
            name: "failure-ratio-tight",
            objective: Objective::FailureRatio { max_ratio: 0.01 },
            window_ms: 10_000,
            burn_windows: 1,
        };
        let config = ContendedConfig {
            seed: 5,
            sessions: 32,
            servers: 1,
            arrivals_per_minute: 300.0,
            hold_ms: 30_000,
            retry: RetryPolicy::NO_RETRY,
            slos: vec![tight],
            ..ContendedConfig::default()
        };
        let (result, report) = run_contended_with(&config, None);
        assert!(result.admission_ratio < 0.99, "run must actually contend");
        assert!(
            !report.slo_alerts.is_empty(),
            "a 1% failure budget must burn under heavy contention"
        );
        // The same config without objectives reports none.
        let quiet = ContendedConfig {
            slos: Vec::new(),
            ..config
        };
        assert!(run_contended_with(&quiet, None).1.slo_alerts.is_empty());
    }

    #[test]
    fn lighter_load_admits_a_larger_fraction() {
        let contended = run_contended(&ContendedConfig {
            seed: 5,
            sessions: 32,
            servers: 1,
            arrivals_per_minute: 300.0,
            hold_ms: 30_000,
            retry: RetryPolicy::NO_RETRY,
            ..ContendedConfig::default()
        });
        let light = run_contended(&ContendedConfig {
            seed: 5,
            sessions: 32,
            servers: 4,
            arrivals_per_minute: 30.0,
            hold_ms: 5_000,
            retry: RetryPolicy::NO_RETRY,
            ..ContendedConfig::default()
        });
        assert_eq!(contended.leaked_streams, 0);
        assert_eq!(light.leaked_streams, 0);
        assert!(
            light.admission_ratio > contended.admission_ratio,
            "light {:.2} vs contended {:.2}",
            light.admission_ratio,
            contended.admission_ratio
        );
    }
}
