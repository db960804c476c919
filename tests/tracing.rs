//! Trace-integrity integration tests: causal traces from contended broker
//! runs must be deterministic (same seed → byte-identical JSONL and equal
//! span-tree shapes, including under fault injection and confirmation
//! windows), complete (every event lands in exactly one session tree and
//! wait attribution covers the whole session), carry the prepare-stage
//! spans of every attempt, and the flight recorder must capture the last
//! events when the capacity audit trips.

use std::panic::{catch_unwind, AssertUnwindSafe};

use news_on_demand::broker::{Broker, BrokerConfig, EventRetention, FleetSpec, SessionSpec};
use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{Guarantee, ServerConfig, ServerFarm};
use news_on_demand::mmdb::{Catalog, CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::obs::analyze::{self, SpanNode};
use news_on_demand::obs::{Recorder, TraceEvent, Tracer};
use news_on_demand::qosneg::negotiate::{NegotiationContext, StreamingMode};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{ClassificationStrategy, CostModel};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{run_contended_with, ContendedConfig};

/// One traced contended run: returns the drained events and the JSONL.
fn traced_run(config: &ContendedConfig) -> (Vec<TraceEvent>, String) {
    let recorder = Recorder::new();
    let tracer = Tracer::new();
    recorder.set_tracer(tracer.clone());
    let _ = run_contended_with(config, Some(&recorder));
    let events = tracer.drain();
    let mut jsonl = String::new();
    for ev in &events {
        jsonl.push_str(&ev.to_json_line());
        jsonl.push('\n');
    }
    (events, jsonl)
}

/// Events represented by a span node: its start + end pair plus points.
fn node_events(n: &SpanNode) -> usize {
    2 + n.points.len() + n.children.iter().map(node_events).sum::<usize>()
}

#[test]
fn same_seed_runs_are_byte_identical_even_with_faults_and_choice_period() {
    let config = ContendedConfig {
        seed: 41,
        sessions: 32,
        servers: 1,
        arrivals_per_minute: 200.0,
        hold_ms: 6_000,
        fault_windows: 2,
        choice_period_ms: 400,
        ..ContendedConfig::default()
    };
    let (events_a, jsonl_a) = traced_run(&config);
    let (events_b, jsonl_b) = traced_run(&config);
    assert!(!events_a.is_empty(), "traced run produced no events");
    assert_eq!(jsonl_a, jsonl_b, "same-seed trace logs must be identical");

    let shapes = |events: &[TraceEvent]| -> Vec<String> {
        analyze::build_trees(events)
            .expect("trace must satisfy causal invariants")
            .iter()
            .map(|t| t.shape())
            .collect()
    };
    assert_eq!(shapes(&events_a), shapes(&events_b));
}

#[test]
fn every_event_lands_in_exactly_one_complete_session_tree() {
    let config = ContendedConfig {
        seed: 9,
        sessions: 64,
        ..ContendedConfig::default()
    };
    let (events, _) = traced_run(&config);
    let trees = analyze::build_trees(&events).expect("trace must satisfy causal invariants");

    // One tree per session, with distinct trace ids covering 0..sessions.
    assert_eq!(trees.len(), 64, "one tree per session");
    let mut ids: Vec<u64> = trees.iter().map(|t| t.trace).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..64).collect::<Vec<u64>>());

    // The trees partition the event log: every event is in exactly one.
    let covered: usize = trees
        .iter()
        .flat_map(|t| t.roots.iter())
        .map(node_events)
        .sum();
    assert_eq!(covered, events.len(), "trees must cover every event");

    // Each session reconstructs as a single rooted span whose wait
    // attribution covers the whole end-to-end duration.
    for tree in &trees {
        assert_eq!(tree.roots.len(), 1, "trace {} has one root", tree.trace);
        let root = &tree.roots[0];
        assert_eq!(root.name, "session");
        assert!(!root.dropped, "trace {} root closed cleanly", tree.trace);
        let a = analyze::attribute_wait(root);
        assert_eq!(a.total_us, root.end_us - root.start_us);
        assert_eq!(
            a.attributed_us(),
            a.total_us,
            "trace {}: attribution must sum to the session duration",
            tree.trace
        );
    }
}

const CLIENTS: u64 = 8;

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

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

fn ctx<'a>(w: &'a World, recorder: Option<&'a Recorder>) -> NegotiationContext<'a> {
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
        recorder,
        explain: false,
    }
}

#[test]
fn drive_traces_keep_prepare_spans_under_every_attempt() {
    let w = world(950);
    let clients: Vec<ClientMachine> = (0..CLIENTS)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..24u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: 0,
            hold_ms: None,
        })
        .collect();
    let recorder = Recorder::new();
    let tracer = Tracer::new();
    recorder.set_tracer(tracer.clone());
    let broker = Broker::new(ctx(&w, Some(&recorder)), BrokerConfig::era_default());
    let report = broker.drive(&FleetSpec::new(&specs).retention(EventRetention::CountsOnly));
    assert!(report.admitted >= 1);
    assert_eq!(report.leaked_streams, 0);

    // The per-session resume/suspend protocol must partition a same-tick
    // burst into well-formed trees: every span closes inside its parent,
    // no orphans, every event covered.
    let events = tracer.drain();
    assert!(!events.is_empty(), "traced run produced no events");
    let trees = analyze::build_trees(&events).expect("trace must keep causal invariants");
    let covered: usize = trees
        .iter()
        .flat_map(|t| t.roots.iter())
        .map(node_events)
        .sum();
    assert_eq!(covered, events.len());
    // Steps 1–4 run inside the attempt they belong to, so a session's
    // trace explains its ranking as well as its commit walk.
    assert_eq!(trees.len(), 24, "one tree per session");
    for tree in &trees {
        assert!(tree.trace < 24, "trace ids are session indices");
        let attempts: Vec<&SpanNode> = (tree.roots.iter())
            .flat_map(|root| root.children.iter())
            .filter(|n| n.name == "attempt")
            .collect();
        assert!(!attempts.is_empty(), "trace {} has no attempt", tree.trace);
        for attempt in attempts {
            for stage in ["enumerate", "classify"] {
                assert!(
                    attempt.find(stage).is_some(),
                    "trace {}: attempt span lacks a `{stage}` span",
                    tree.trace
                );
            }
        }
    }
}

#[test]
fn injected_leak_trips_audit_and_dumps_flight_recorder() {
    let w = world(7);
    let clients: Vec<ClientMachine> = (0..CLIENTS)
        .map(|i| ClientMachine::era_workstation(ClientId(i)))
        .collect();
    let profile = tv_news_profile();
    let specs: Vec<SessionSpec<'_>> = (0..8u64)
        .map(|i| SessionSpec {
            client: &clients[(i % CLIENTS) as usize],
            document: DocumentId(i % 8 + 1),
            profile: &profile,
            arrival_ms: i * 100,
            hold_ms: Some(1_000),
        })
        .collect();
    let recorder = Recorder::new();
    let tracer = Tracer::new();
    recorder.set_tracer(tracer.clone());
    let broker = Broker::new(
        ctx(&w, Some(&recorder)),
        BrokerConfig {
            inject_leak_at_ms: Some(500),
            ..BrokerConfig::era_default()
        },
    );
    // The audit fires a debug_assert after dumping: tolerate both debug
    // (panic caught here) and release (run returns normally) profiles.
    let _ = catch_unwind(AssertUnwindSafe(|| broker.drive(&FleetSpec::new(&specs))));

    let dump = tracer
        .take_flight_dump()
        .expect("capacity-audit failure must dump the flight recorder");
    assert_eq!(dump.reason, "leaked_reservation_audit");
    assert!(
        !dump.events.is_empty(),
        "flight dump must carry the last trace events"
    );
    // The dump holds the freshest events: the final event of the run is in
    // the window.
    let last = dump.events.last().expect("non-empty");
    assert!(last.t_us > 0);
}
