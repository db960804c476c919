//! B12 — city-scale broker sweep.
//!
//! Drives the metro fleet (see [`nod_bench::MetroFleet`]) through
//! `Broker::drive` at 1k/10k/100k/1M sessions and reports sessions/sec
//! and peak RSS per scale. One contract gates the sweep — **bounded
//! memory**: every scale must drain with zero leaked reservations, and
//! the top scale runs under windowed retention so live memory tracks
//! peak *concurrent* sessions (the slab arena), not the offered total —
//! that is what lets 1M sessions fit in a few hundred MB. (Outcome-log
//! determinism is gated by `tests/broker_contention.rs` and by the
//! `benchmark/` smoke's digest checks.)
//!
//! `NOD_BENCH_FAST=1` caps the sweep at 10k sessions for CI; the full
//! sweep is for publication numbers. Peak RSS is a process-lifetime
//! high-water mark, so scales run smallest-first and each scale's
//! reading is attributable to it.

use nod_bench::micro::Micro;
use nod_bench::{peak_rss_kb, MetroFleet};
use nod_broker::{Broker, BrokerConfig, EventRetention, FleetSpec};
use nod_cmfs::Guarantee;
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::ClassificationStrategy;

const SEED: u64 = 12;

fn ctx(fleet: &MetroFleet) -> NegotiationContext<'_> {
    NegotiationContext {
        catalog: &fleet.catalog,
        farm: &fleet.farm,
        network: &fleet.network,
        cost_model: &fleet.cost,
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

/// Drive `sessions` once and fold the throughput row into the metrics.
fn sweep_scale(m: &mut Micro, sessions: usize, retention: EventRetention) {
    let fleet = MetroFleet::build(SEED, sessions);
    let specs = fleet.specs();
    let broker = Broker::new(ctx(&fleet), BrokerConfig::era_default());
    let t0 = std::time::Instant::now();
    let report = broker.drive(&FleetSpec::new(&specs).retention(retention));
    let wall = t0.elapsed();
    assert_eq!(
        report.leaked_streams, 0,
        "B12: {sessions}-session sweep leaked streams"
    );

    let prefix = format!("b12_fleet/{sessions}");
    m.metric(
        &format!("{prefix}/sessions_per_sec"),
        sessions as f64 / wall.as_secs_f64(),
    );
    m.metric(&format!("{prefix}/wall_s"), wall.as_secs_f64());
    m.metric(&format!("{prefix}/admission_ratio"), report.admission_ratio);
    m.metric(&format!("{prefix}/retries"), report.retries as f64);
    m.metric(
        &format!("{prefix}/peak_live_sessions"),
        report.peak_live_sessions as f64,
    );
    if let Some(kb) = peak_rss_kb() {
        m.metric(&format!("{prefix}/peak_rss_mb"), kb as f64 / 1024.0);
    }
}

fn main() {
    let fast = std::env::var("NOD_BENCH_FAST").is_ok_and(|v| v == "1");
    let mut m = Micro::new();

    // Smallest scale first: peak RSS is a lifetime high-water mark, so
    // each scale's reading belongs to it (or an earlier, smaller one).
    let scales: &[(usize, EventRetention)] = if fast {
        &[
            (1_000, EventRetention::Full),
            (10_000, EventRetention::Full),
        ]
    } else {
        &[
            (1_000, EventRetention::Full),
            (10_000, EventRetention::Full),
            (100_000, EventRetention::Full),
            // The top scale keeps windowed aggregates only: the point is
            // that 1M offered sessions run in memory proportional to the
            // ~38k peak-live slab, not the offered total.
            (1_000_000, EventRetention::WindowsOnly),
        ]
    };
    for &(sessions, retention) in scales {
        sweep_scale(&mut m, sessions, retention);
    }

    m.report();
}
