//! Cross-crate observability integration: a QoS manager wired to a
//! recorder emits the negotiation pipeline's stage spans in order, outcome
//! counters account for every request, and the snapshot that `run_scenario
//! --metrics-out` writes round-trips through JSON.

use std::rc::Rc;

use news_on_demand::client::ClientMachine;
use news_on_demand::cmfs::{ServerConfig, ServerFarm};
use news_on_demand::mmdb::{CorpusBuilder, CorpusParams};
use news_on_demand::mmdoc::{ClientId, DocumentId, ServerId};
use news_on_demand::netsim::{Network, Topology};
use news_on_demand::obs::{MemorySink, ObsEvent, Recorder, Snapshot};
use news_on_demand::qosneg::manager::{ManagerConfig, QosManager};
use news_on_demand::qosneg::profile::tv_news_profile;
use news_on_demand::qosneg::{CostModel, NegotiationRequest, NegotiationStatus};
use news_on_demand::simcore::StreamRng;
use news_on_demand::workload::{
    run_blocking_with, run_contended_with, BlockingConfig, ContendedConfig,
};

fn manager(seed: u64, recorder: Recorder) -> QosManager {
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 10,
        servers: (0..3).map(ServerId).collect(),
        video_variants: (3, 6),
        replicas: (1, 2),
        duration_secs: (60, 120),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    let m = QosManager::new(
        catalog,
        ServerFarm::uniform(3, ServerConfig::era_default()),
        Network::new(Topology::dumbbell(6, 3, 25_000_000, 155_000_000)),
        CostModel::era_default(),
        ManagerConfig {
            recorder: Some(recorder.clone()),
            ..ManagerConfig::default()
        },
    );
    m.farm().set_recorder(&recorder);
    m.network().set_recorder(recorder);
    m
}

#[test]
fn manager_negotiation_emits_stage_spans_in_order() {
    let sink = Rc::new(MemorySink::new());
    let recorder = Recorder::with_sink(sink.clone());
    let m = manager(41, recorder);
    let client = ClientMachine::era_workstation(ClientId(0));
    let out = m
        .submit(&NegotiationRequest::new(
            &client,
            DocumentId(1),
            &tv_news_profile(),
        ))
        .unwrap();
    if let Some(r) = &out.reservation {
        m.release(r);
    }

    let events: Vec<ObsEvent> = sink.events();
    let starts: Vec<&ObsEvent> = events.iter().filter(|e| e.kind == "span_start").collect();
    assert_eq!(starts[0].name, "negotiate", "root span opens first");
    let root_id = starts[0].span.unwrap();
    assert_eq!(starts[0].parent, Some(0), "negotiate is a root span");

    // Every stage span is a child of the negotiate span, in pipeline order:
    // enumerate → classify → commit… (one commit per attempt).
    let children: Vec<&str> = starts
        .iter()
        .skip(1)
        .map(|e| {
            assert_eq!(e.parent, Some(root_id), "stage {} parented to root", e.name);
            e.name.as_str()
        })
        .collect();
    assert!(
        children.len() >= 3,
        "expected 3+ stage spans, got {children:?}"
    );
    assert_eq!(&children[..2], &["enumerate", "classify"]);
    assert!(
        children[2..].iter().all(|&n| n == "commit"),
        "after classify only commit attempts remain: {children:?}"
    );

    // The root span ends last, after every child has ended.
    let ends: Vec<&ObsEvent> = events.iter().filter(|e| e.kind == "span_end").collect();
    assert_eq!(ends.last().unwrap().name, "negotiate");
    assert_eq!(
        starts.len(),
        ends.len(),
        "every opened span ends exactly once"
    );
}

#[test]
fn outcome_counters_sum_to_requests() {
    let recorder = Recorder::new();
    let m = manager(42, recorder.clone());
    let profile = tv_news_profile();
    let requests = 24u64;
    for i in 0..requests {
        let client = ClientMachine::era_workstation(ClientId(i % 6));
        let doc = DocumentId(i % 10 + 1);
        // Resources are held, so later requests saturate the system and
        // exercise the failure statuses too.
        let _ = m
            .submit(&NegotiationRequest::new(&client, doc, &profile))
            .unwrap();
    }

    let snap = recorder.snapshot();
    assert_eq!(snap.counter_sum("negotiation.outcome"), requests);
    let by_status: u64 = [
        "SUCCEEDED",
        "FAILEDWITHOFFER",
        "FAILEDTRYLATER",
        "FAILEDWITHOUTOFFER",
        "FAILEDWITHLOCALOFFER",
    ]
    .iter()
    .map(|s| snap.counter(&format!("negotiation.outcome{{status={s}}}")))
    .sum();
    assert_eq!(by_status, requests, "every outcome carries a known status");
    assert!(
        snap.counter(&format!(
            "negotiation.outcome{{status={}}}",
            NegotiationStatus::Succeeded
        )) > 0,
        "an idle system must admit the first sessions"
    );

    // The subsystems under the manager reported through the same recorder.
    assert!(
        snap.counter_sum("cmfs.admission") > 0,
        "server admissions counted"
    );
    assert!(
        snap.counter("net.reservation.attempts") > 0,
        "network reservations counted"
    );
    assert_eq!(
        snap.counter("negotiation.reservation.attempts"),
        snap.counter_sum("negotiation.commit.refused")
            + snap.counter("negotiation.outcome{status=SUCCEEDED}")
            + snap.counter("negotiation.outcome{status=FAILEDWITHOFFER}"),
        "each commit attempt either succeeds or is refused with a reason"
    );
}

#[test]
fn workload_snapshot_has_stage_histograms_and_round_trips() {
    let recorder = Recorder::new();
    let result = run_blocking_with(
        &BlockingConfig {
            seed: 13,
            documents: 8,
            servers: 3,
            clients: 4,
            arrivals_per_minute: 4.0,
            horizon_minutes: 20.0,
            ..BlockingConfig::default()
        },
        Some(&recorder),
    );
    assert!(result.offered > 0);

    let snap = recorder.snapshot();
    assert_eq!(
        snap.counter_sum("negotiation.outcome"),
        result.offered,
        "one outcome per offered session"
    );
    for stage in ["negotiate", "enumerate", "classify", "commit"] {
        let hist = snap
            .histograms
            .get(&format!("span.{stage}.ms"))
            .unwrap_or_else(|| panic!("missing span.{stage}.ms histogram"));
        assert!(hist.count > 0, "span.{stage}.ms has samples");
    }
    assert!(
        !snap.histograms.contains_key("span.prune.ms"),
        "there is no prune stage"
    );

    // The exact JSON the `--metrics-out` flag writes must round-trip.
    let json = snap.to_json_pretty();
    let back = Snapshot::from_json_str(&json).expect("snapshot JSON parses");
    assert_eq!(back.counters, snap.counters);
    assert_eq!(
        back.histograms.len(),
        snap.histograms.len(),
        "all histograms survive the round trip"
    );
}

#[test]
fn broker_counters_flow_through_the_recorder() {
    let recorder = Recorder::new();
    let (result, report) = run_contended_with(
        &ContendedConfig {
            seed: 21,
            sessions: 24,
            servers: 1,
            arrivals_per_minute: 240.0,
            hold_ms: 8_000,
            fault_windows: 3,
            ..ContendedConfig::default()
        },
        Some(&recorder),
    );
    assert_eq!(result.leaked_streams, 0);
    assert!(result.retries > 0, "the undersized farm must force retries");

    let snap = recorder.snapshot();
    assert_eq!(snap.counter("broker.retries"), report.retries);
    assert_eq!(snap.counter("broker.backoff_ms"), report.backoff_ms_total);
    assert_eq!(
        snap.counter("broker.faults.injected"),
        report.faults_injected
    );
    assert_eq!(
        snap.counter("broker.sessions.starved"),
        report.starved as u64
    );
    assert_eq!(snap.counter("broker.leaked_reservations"), 0);
    assert_eq!(
        snap.gauges.get("broker.admission_ratio").copied(),
        Some(report.admission_ratio)
    );
    // The negotiations underneath the broker report through the same
    // recorder: one outcome per attempt (arrivals + retries).
    assert_eq!(
        snap.counter_sum("negotiation.outcome"),
        result.offered as u64 + report.retries
    );
}
