//! Contention integration tests for the negotiation broker: many sessions
//! racing for a deliberately undersized farm must all reach a terminal
//! paper status, leak zero capacity, and — when refused FAILEDTRYLATER —
//! succeed on retry once earlier departures release resources. Fault
//! injection must replay bit-for-bit under the same seed.

use news_on_demand::broker::{
    Broker, BrokerConfig, EventRetention, FleetSpec, OutcomeKind, SessionFate, SessionSpec,
};
use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{Catalog, CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::qosneg::negotiate::{NegotiationContext, StreamingMode};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{
    ClassificationStrategy, CostModel, NegotiationRequest, NegotiationStatus, RetryPolicy, Session,
};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{run_contended_with, ContendedConfig};

const CLIENTS: u64 = 8;

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

/// Two servers capped at 16 stream slots each: a farm sized for exactly
/// 32 concurrent streams, the bottleneck the 64-session burst fights over.
fn world(seed: u64) -> World {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 8,
        servers: (0..2).map(ServerId).collect(),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    World {
        catalog,
        farm: ServerFarm::uniform(
            2,
            ServerConfig {
                max_streams: 16,
                ..ServerConfig::era_default()
            },
        ),
        network: Network::new(Topology::dumbbell(
            CLIENTS as usize,
            2,
            25_000_000,
            155_000_000,
        )),
        cost: CostModel::era_default(),
    }
}

fn ctx(w: &World) -> NegotiationContext<'_> {
    NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

fn assert_drained(w: &World) {
    assert_eq!(w.network.active_reservations(), 0, "network not drained");
    assert!(w.farm.mean_disk_utilization() < 1e-12, "farm not drained");
}

/// Admit sessions back to back (without releasing) until the system
/// refuses one; returns how many concurrent streams it carried. The held
/// reservations are released before returning.
fn measure_capacity(w: &World, clients: &[ClientMachine]) -> usize {
    let session = Session::new(ctx(w));
    let profile = tv_news_profile();
    let mut held = Vec::new();
    loop {
        let client = &clients[held.len() % clients.len()];
        let doc = DocumentId(held.len() as u64 % 8 + 1);
        let out = session
            .submit(&NegotiationRequest::new(client, doc, &profile))
            .unwrap();
        match out.status {
            NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer => {
                held.push(out.reservation.expect("admitted outcome reserves"));
            }
            _ => break,
        }
        assert!(held.len() <= 64, "capacity never saturated");
    }
    let capacity = held.len();
    for r in &held {
        session.release(r);
    }
    capacity
}

fn clients() -> Vec<ClientMachine> {
    (0..CLIENTS)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect()
}

#[test]
fn sixty_four_sessions_contend_for_a_thirty_two_stream_farm() {
    let w = world(900);
    let clients = clients();
    let capacity = measure_capacity(&w, &clients);
    assert!(
        (8..=32).contains(&capacity),
        "farm should carry up to 32 concurrent streams, measured {capacity}"
    );
    assert_drained(&w);

    // 64 sessions arrive in a 16 s burst, each holding for 8 s — roughly
    // twice what the farm can carry at once.
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..64u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 250,
            hold_ms: Some(8_000),
        })
        .collect();
    let broker = Broker::new(
        ctx(&w),
        BrokerConfig {
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::era_default()
            },
            ..BrokerConfig::era_default()
        },
    );
    let report = broker.drive(&FleetSpec::new(&specs));

    // Every session reached one terminal fate; the partition is exact.
    assert_eq!(report.results.len(), 64);
    assert_eq!(
        report.admitted + report.starved + report.rejected + report.errored,
        64
    );
    assert_eq!(report.errored, 0, "well-formed requests never error");
    // Contention forced FAILEDTRYLATER refusals…
    assert!(report.retries > 0, "no contention observed: {report:?}");
    // …and the backoff + departure cycle let refused sessions through:
    // at least one admission took more than one attempt.
    let retried_in = report
        .results
        .iter()
        .filter(|r| matches!(r.fate, SessionFate::Admitted { .. }) && r.attempts > 1)
        .count();
    assert!(
        retried_in > 0,
        "no retried session was eventually admitted: {report:?}"
    );
    // The burst should overwhelm the farm, but departures recycle slots,
    // so admissions exceed the concurrent capacity.
    assert!(
        report.admitted > capacity,
        "admitted {} should exceed the concurrent capacity {capacity}",
        report.admitted
    );
    // Terminal refusals all carry a paper status.
    for e in &report.events {
        if let OutcomeKind::Rejected { status } = &e.kind {
            assert!(
                matches!(
                    status,
                    NegotiationStatus::FailedWithOffer
                        | NegotiationStatus::FailedTryLater
                        | NegotiationStatus::FailedWithoutOffer
                        | NegotiationStatus::FailedWithLocalOffer
                ),
                "unexpected terminal status {status}"
            );
        }
    }
    // Zero leaked capacity, by audit and by direct inspection.
    assert_eq!(report.leaked_streams, 0);
    assert_drained(&w);
}

#[test]
fn k_sessions_racing_for_half_capacity_converge_without_leaks() {
    for seed in [901u64, 902, 903] {
        let w = world(seed);
        let clients = clients();
        let capacity = measure_capacity(&w, &clients);
        assert!(capacity >= 4, "seed {seed}: degenerate capacity {capacity}");
        assert_drained(&w);

        // K = 2 × capacity sessions all arrive inside one second: at most
        // half of them can hold a stream at any instant.
        let k = capacity * 2;
        let profile = tv_news_profile();
        let specs: Vec<SessionSpec<'_>> = (0..k as u64)
            .map(|i| SessionSpec {
                client: &clients[(i % CLIENTS) as usize],
                document: DocumentId(i % 8 + 1),
                profile: &profile,
                arrival_ms: i * 1_000 / k as u64,
                hold_ms: Some(4_000),
            })
            .collect();
        let broker = Broker::new(
            ctx(&w),
            BrokerConfig {
                retry: RetryPolicy {
                    max_attempts: 12,
                    deadline_ms: None,
                    ..RetryPolicy::era_default()
                },
                seed,
                ..BrokerConfig::era_default()
            },
        );
        let report = broker.drive(&FleetSpec::new(&specs));
        assert_eq!(report.leaked_streams, 0, "seed {seed}");
        assert_eq!(
            report.admitted + report.starved + report.rejected + report.errored,
            k,
            "seed {seed}"
        );
        assert!(report.retries > 0, "seed {seed}: the race forces retries");
        assert!(
            report
                .results
                .iter()
                .any(|r| matches!(r.fate, SessionFate::Admitted { .. }) && r.attempts > 1),
            "seed {seed}: retries must eventually succeed"
        );
        assert_drained(&w);
    }
}

#[test]
fn fault_injection_replays_identically_for_the_same_seed() {
    // Drive the full workload harness — corpus, Poisson arrivals, seeded
    // fault plan — twice from one seed: the outcome logs must be equal.
    let config = ContendedConfig {
        seed: 77,
        sessions: 32,
        servers: 2,
        arrivals_per_minute: 180.0,
        hold_ms: 10_000,
        fault_windows: 5,
        ..ContendedConfig::default()
    };
    let (ra, reporta) = run_contended_with(&config, None);
    let (rb, reportb) = run_contended_with(&config, None);
    assert_eq!(ra, rb, "summary aggregates must replay");
    assert_eq!(reporta.events, reportb.events, "outcome log must replay");
    assert_eq!(reporta.results, reportb.results);
    assert!(ra.faults_injected > 0, "the fault plan must actually fire");
    assert_eq!(ra.leaked_streams, 0, "faults must not leak capacity");

    // A different seed takes a different path (sanity that the equality
    // above is not vacuous).
    let (rc, reportc) = run_contended_with(&ContendedConfig { seed: 78, ..config }, None);
    assert!(
        reportc.events != reporta.events || rc != ra,
        "different seeds should diverge somewhere"
    );
}

#[test]
fn burst_stress_run_terminates_and_leaks_nothing() {
    let w = world(950);
    let clients = clients();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..48u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: 0,
            hold_ms: None,
        })
        .collect();
    let broker = Broker::new(ctx(&w), BrokerConfig::era_default());
    let report = broker.drive(&FleetSpec::new(&specs).retention(EventRetention::CountsOnly));
    assert!(report.admitted >= 1, "some sessions must get through");
    assert_eq!(report.leaked_streams, 0);
    assert!(
        report.events.is_empty(),
        "CountsOnly retention keeps no raw log"
    );
    assert_drained(&w);

    // A second drive over the same world must agree with the first.
    let again = broker.drive(&FleetSpec::new(&specs).retention(EventRetention::CountsOnly));
    assert_eq!(
        (again.admitted, again.leaked_streams),
        (report.admitted, report.leaked_streams)
    );
    assert_drained(&w);
}

#[test]
fn outcome_log_is_byte_identical_across_fresh_worlds() {
    // The drive() determinism contract under everything at once: faults
    // churning the farm, a choicePeriod holding reservations open, and
    // retries — two drives from fresh worlds must tell the same story.
    let config = ContendedConfig {
        seed: 41,
        sessions: 48,
        servers: 2,
        arrivals_per_minute: 240.0,
        hold_ms: 9_000,
        fault_windows: 4,
        choice_period_ms: 500,
        ..ContendedConfig::default()
    };
    let (r1, rep1) = run_contended_with(&config, None);
    let (r2, rep2) = run_contended_with(&config, None);
    assert!(r1.faults_injected > 0, "the fault plan must fire");
    assert!(r1.retries > 0, "the load must contend");
    assert_eq!(r1, r2);
    assert_eq!(rep1.events, rep2.events, "same-seed drives diverged");
    assert_eq!(rep1.results, rep2.results);
    assert_eq!(rep1.leaked_streams, 0);
}

#[test]
fn refused_then_admitted_session_tells_its_story_in_order() {
    // Every attempt prepares afresh, so a session that is refused and
    // then admitted on a later attempt must log each refusal as a
    // scheduled retry that fires when it said it would, then the
    // admission, then the departure — and nothing else.
    let clients = clients();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..64u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 250,
            hold_ms: Some(8_000),
        })
        .collect();
    let w = world(900);
    let config = BrokerConfig {
        retry: RetryPolicy {
            max_attempts: 10,
            ..RetryPolicy::era_default()
        },
        ..BrokerConfig::era_default()
    };
    let report = Broker::new(ctx(&w), config).drive(&FleetSpec::new(&specs));
    assert_eq!(report.leaked_streams, 0);
    assert_drained(&w);
    let retried = report
        .results
        .iter()
        .find(|r| matches!(r.fate, SessionFate::Admitted { .. }) && r.attempts > 1)
        .expect("the burst must refuse a session that a retry then admits");
    let events: Vec<_> = (report.events.iter())
        .filter(|e| e.session == retried.session)
        .collect();
    let refusals = retried.attempts as usize - 1;
    assert_eq!(events.len(), refusals + 2, "{events:?}");
    for (n, pair) in events[..=refusals].windows(2).enumerate() {
        let OutcomeKind::RetryScheduled { at_ms, attempt } = pair[0].kind else {
            panic!("event {n} is not a scheduled retry: {events:?}");
        };
        assert_eq!(attempt as usize, n + 1, "{events:?}");
        assert_eq!(at_ms, pair[1].at_ms, "retry {n} fired off schedule");
    }
    assert_eq!(
        events[refusals].kind,
        OutcomeKind::Admitted {
            degraded: false,
            attempt: retried.attempts
        },
        "{events:?}"
    );
    assert_eq!(events[refusals + 1].kind, OutcomeKind::Departed);
}

#[test]
fn slab_recycling_keeps_peak_live_at_the_concurrent_overlap() {
    let w = world(960);
    let clients = clients();
    let profile = tv_news_profile();
    // Arrivals spaced 10 s apart, each holding 1 s, no retries: never
    // more than one session in flight, so the live arena must peak at
    // exactly 1 even though 32 sessions pass through.
    let specs: Vec<SessionSpec<'_>> = (0..32u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 10_000,
            hold_ms: Some(1_000),
        })
        .collect();
    let broker = Broker::new(
        ctx(&w),
        BrokerConfig {
            retry: RetryPolicy::NO_RETRY,
            ..BrokerConfig::era_default()
        },
    );
    let report = broker.drive(&FleetSpec::new(&specs));
    assert!(report.admitted >= 1, "an idle farm admits most sessions");
    assert_eq!(
        report.peak_live_sessions, 1,
        "non-overlapping sessions must recycle one slab slot"
    );
    assert_eq!(report.leaked_streams, 0);
    assert_drained(&w);

    // The same sessions arriving as one burst genuinely overlap.
    let burst: Vec<SessionSpec<'_>> = specs
        .iter()
        .map(|s| SessionSpec {
            arrival_ms: 0,
            ..*s
        })
        .collect();
    let report = broker.drive(&FleetSpec::new(&burst));
    assert!(
        report.peak_live_sessions > 1,
        "a burst must hold several sessions live at once"
    );
    assert_eq!(report.leaked_streams, 0);
    assert_drained(&w);
}

#[test]
fn windows_only_retention_folds_the_log_it_drops() {
    let config = ContendedConfig {
        seed: 21,
        sessions: 40,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 8_000,
        ..ContendedConfig::default()
    };
    let (_, full) = run_contended_with(&config, None);
    assert!(!full.events.is_empty());

    // Re-drive the same world with WindowsOnly retention: the raw log is
    // gone but the windows must equal the post-hoc fold of the full log.
    let w = world(970);
    let clients = clients();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..40u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 300,
            hold_ms: Some(6_000),
        })
        .collect();
    let broker = Broker::new(ctx(&w), BrokerConfig::era_default());
    let full = broker.drive(&FleetSpec::new(&specs).windows(1_000));
    let lean = broker.drive(
        &FleetSpec::new(&specs)
            .retention(EventRetention::WindowsOnly)
            .windows(1_000),
    );
    assert!(!full.events.is_empty());
    assert!(lean.events.is_empty(), "WindowsOnly drops the raw log");
    assert_eq!(
        lean.windows,
        news_on_demand::broker::fleet_windows(&full.events, 1_000),
        "streamed windows must equal the post-hoc fold"
    );
    assert_eq!(lean.windows, full.windows);
    assert_eq!(lean.leaked_streams, 0);
    assert_drained(&w);
}

#[test]
fn retry_deadline_is_exclusive_at_the_boundary() {
    // A retry whose backoff lands exactly `deadline_ms` after arrival is
    // *not* scheduled — the deadline is exclusive (`RetryPolicy::
    // deadline_ms`). Saturate the farm so the lone session is refused
    // FAILEDTRYLATER on arrival, with zero jitter so the first backoff
    // lands at exactly base_backoff_ms = 1000 ms.
    let drive_with_deadline = |deadline_ms: u64| {
        let w = world(910);
        let clients = clients();
        let session = Session::new(ctx(&w));
        let profile = tv_news_profile();
        let mut held = Vec::new();
        loop {
            let client = &clients[held.len() % clients.len()];
            let doc = DocumentId(held.len() as u64 % 8 + 1);
            let out = session
                .submit(&NegotiationRequest::new(client, doc, &profile))
                .unwrap();
            match out.status {
                NegotiationStatus::Succeeded | NegotiationStatus::FailedWithOffer => {
                    held.push(out.reservation.expect("admitted outcome reserves"));
                }
                _ => break,
            }
            assert!(held.len() <= 64, "capacity never saturated");
        }

        let specs = [SessionSpec {
            client: &clients[0],
            document: DocumentId(1),
            profile: &profile,
            arrival_ms: 0,
            hold_ms: Some(1_000),
        }];
        let broker = Broker::new(
            ctx(&w),
            BrokerConfig {
                retry: RetryPolicy {
                    max_attempts: 2,
                    base_backoff_ms: 1_000,
                    jitter: 0.0,
                    deadline_ms: Some(deadline_ms),
                    ..RetryPolicy::era_default()
                },
                ..BrokerConfig::era_default()
            },
        );
        let report = broker.drive(&FleetSpec::new(&specs));
        for r in &held {
            session.release(r);
        }
        assert_drained(&w);
        report
    };

    // Backoff would fire at 1000 ms. One millisecond of deadline on
    // either side must flip the decision; at the boundary itself the
    // retry must NOT fire.
    for deadline in [999, 1_000] {
        let report = drive_with_deadline(deadline);
        assert_eq!(
            report.results[0].fate,
            SessionFate::Starved,
            "deadline {deadline}: a retry at 1000 ms must not be scheduled"
        );
        assert_eq!(report.results[0].attempts, 1);
        assert!(
            !report
                .events
                .iter()
                .any(|e| matches!(e.kind, OutcomeKind::RetryScheduled { .. })),
            "deadline {deadline}: no retry may be scheduled"
        );
    }
    let report = drive_with_deadline(1_001);
    assert!(
        report
            .events
            .iter()
            .any(|e| matches!(e.kind, OutcomeKind::RetryScheduled { at_ms: 1_000, .. })),
        "deadline 1001: the 1000 ms retry fits strictly inside: {:?}",
        report.events
    );
    assert_eq!(report.results[0].attempts, 2, "the scheduled retry ran");
}

/// FNV-1a, enough to pin a log's bytes in a test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
    })
}

#[test]
fn overload_story_is_unchanged_by_how_the_walk_asks() {
    // An overloaded fleet — 96 sessions arriving four a second at one
    // server, through fault windows — is mostly refused walks and
    // retries. How step 5 walks (every offer asked afresh, or refused
    // prefixes remembered) must not show anywhere in what the run
    // records: the numbers below were recorded from the commit whose walk
    // re-asked every offer.
    use news_on_demand::obs::RetentionPolicy;
    use news_on_demand::qosneg::explain::{ExplainArtifact, ExplainMeta};
    let policy = RetentionPolicy::default();
    let config = ContendedConfig {
        seed: 1996,
        sessions: 96,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 12_000,
        fault_windows: 3,
        choice_period_ms: 300,
        explain: Some(policy),
        ..ContendedConfig::default()
    };
    let (result, report) = run_contended_with(&config, None);
    assert_eq!(result.leaked_streams, 0);
    let log = format!("{:?}", report.events);
    let artifact = ExplainArtifact::new(
        ExplainMeta {
            source: "test".into(),
            seed: config.seed,
            sessions: config.sessions as u64,
            top_k: policy.top_k as u64,
            sample_every: policy.sample_every,
            sample_seed: policy.seed,
        },
        report.explains.expect("explain was requested"),
    )
    .to_jsonl();
    // Pinned from that commit, seed 1996.
    assert_eq!(
        (result.admitted, result.starved, result.retries),
        (78, 18, 292)
    );
    assert_eq!(report.events.len(), 550);
    assert_eq!(fnv1a(log.as_bytes()), 0xf682_f642_ad9f_8969, "outcome log");
    assert_eq!(
        artifact.matches("\"shortfall\"").count(),
        3844,
        "refusal rows in the explain artifact"
    );
    assert_eq!(
        (artifact.len(), fnv1a(artifact.as_bytes())),
        (762_594, 0x9a16_015a_8040_f1df),
        "explain artifact"
    );
}
