//! B9 — the contended negotiation broker.
//!
//! Times a full broker run — 64 Poisson arrivals contending for an
//! undersized farm, jittered FAILEDTRYLATER retries, departures recycling
//! capacity — fault-free and under a seeded fault plan, plus the
//! per-session dispatch cost of the broker facade on an idle system.
//! Footer metrics record the admission ratio and retry volume of the
//! contended point so snapshot diffs catch policy regressions, not just
//! latency ones.

use std::hint::black_box;

use nod_bench::micro::Micro;
use nod_bench::World;
use nod_broker::{Broker, BrokerConfig, FleetSpec, SessionSpec};
use nod_client::ClientMachine;
use nod_cmfs::Guarantee;
use nod_mmdoc::{ClientId, DocumentId};
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::ClassificationStrategy;
use nod_workload::{run_contended, ContendedConfig};

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

fn contended_config(fault_windows: usize) -> ContendedConfig {
    ContendedConfig {
        seed: 9,
        sessions: 64,
        servers: 2,
        arrivals_per_minute: 180.0,
        hold_ms: 12_000,
        fault_windows,
        ..ContendedConfig::default()
    }
}

fn main() {
    let mut m = Micro::new().sample_size(10);

    // The full contended experiment: world build + 64-session broker run.
    m.bench("b9_contended_broker_64_sessions", || {
        black_box(run_contended(&contended_config(0)))
    });

    // The same point with a seeded fault plan churning servers and links.
    m.bench("b9_contended_broker_with_faults", || {
        black_box(run_contended(&contended_config(4)))
    });

    // Broker dispatch on an idle system: one arrival, admitted first try,
    // then departed — the facade's fixed cost per session.
    {
        let w = nod_bench::standard_world(9, 8, 3, 4);
        let cx = ctx(&w);
        let client = ClientMachine::era_workstation(ClientId(0));
        let profile = tv_news_profile();
        let broker = Broker::new(cx, BrokerConfig::era_default());
        let specs = [SessionSpec {
            client: &client,
            document: DocumentId(1),
            profile: &profile,
            arrival_ms: 0,
            hold_ms: Some(1),
        }];
        m.bench("b9_broker_dispatch_idle", || {
            black_box(broker.drive(&FleetSpec::new(&specs)))
        });
    }

    // Policy-shape metrics from the contended point (not timings): a
    // snapshot diff that moves these moved the broker, not the clock.
    let r = run_contended(&contended_config(0));
    m.metric("b9_admission_ratio", r.admission_ratio);
    m.metric("b9_retries", r.retries as f64);
    m.metric("b9_starved", r.starved as f64);
    m.metric("b9_leaked_streams", r.leaked_streams as f64);

    m.report();
}
