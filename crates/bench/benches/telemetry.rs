//! B11 — fleet telemetry at scale.
//!
//! `Broker::drive` carries the full telemetry stack — recorder,
//! tail-based trace sampling, SLO-ready counters — and that stack must
//! hold two promises at fleet size (snapshot determinism is gated by
//! `nod-workload`'s same-seed test and the recorder's own shard-merge
//! tests):
//!
//! * **Retention**: the tail sampler keeps 100% of failed sessions and
//!   exactly the `top_k` slowest, and drops the rest at session end, so
//!   trace memory is O(retained), not O(sessions).
//! * **Overhead**: a big contended run with the whole stack live stays
//!   within ~10% of the identical run with observability disabled
//!   (`recorder = None`). The ratio is asserted outside `NOD_BENCH_FAST`
//!   (CI smoke samples are too few to bound noise) and always emitted as
//!   a metric. Samples are paired — disabled and instrumented alternate —
//!   so machine-load drift lands on both sides equally instead of
//!   biasing whichever ran second.

use std::collections::BTreeSet;

use nod_bench::micro::Micro;
use nod_obs::{Recorder, RetentionPolicy, Tracer};
use nod_workload::{run_contended_with, ContendedConfig};

/// The retention fleet: one server, long holds — heavy retry pressure,
/// so the tail sampler is exercised hard.
fn config(sessions: usize) -> ContendedConfig {
    ContendedConfig {
        seed: 9,
        sessions,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 8_000,
        ..ContendedConfig::default()
    }
}

/// The overhead fleet: moderate retry pressure (~44 trace events per
/// session), so the measured ratio reflects steady-state instrumentation
/// cost rather than a retry storm amplifying the trace volume.
fn overhead_config(sessions: usize) -> ContendedConfig {
    ContendedConfig {
        seed: 9,
        sessions,
        servers: 4,
        arrivals_per_minute: 240.0,
        hold_ms: 4_000,
        ..ContendedConfig::default()
    }
}

fn policy() -> RetentionPolicy {
    RetentionPolicy {
        top_k: 16,
        sample_every: 64,
        seed: 7,
        max_events_per_trace: 4_096,
    }
}

/// Full telemetry stack: recorder + tail-sampling tracer.
fn instrumented() -> (Recorder, Tracer) {
    let rec = Recorder::new();
    let tracer = Tracer::with_sampling(policy());
    rec.set_tracer(tracer.clone());
    (rec, tracer)
}

fn main() {
    let fast = std::env::var("NOD_BENCH_FAST").is_ok_and(|v| v == "1");
    let mut m = Micro::new();

    // Retention: run the fleet with tail sampling and audit the
    // sampler's ledger against the broker's admission count.
    let ret_cfg = config(if fast { 256 } else { 2_048 });
    let (rec, tracer) = instrumented();
    let (ret_result, _) = run_contended_with(&ret_cfg, Some(&rec));
    let admitted = ret_result.admitted;
    let stats = tracer
        .retention_stats()
        .expect("sampling tracer reports stats");
    let failed = (ret_cfg.sessions - admitted) as u64;
    assert_eq!(stats.finished, ret_cfg.sessions as u64);
    assert_eq!(
        stats.kept_failed, failed,
        "tail sampler must retain every failed session"
    );
    assert_eq!(
        stats.kept_slow,
        policy().top_k,
        "top-k slow set must be full once finished >= top_k"
    );
    assert!(stats.dropped > 0, "a fleet-sized run must drop some traces");
    let events = tracer.drain();
    let retained: BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    let bound = stats.kept_failed + stats.kept_head + stats.kept_slow as u64;
    assert!(
        (retained.len() as u64) <= bound,
        "retained traces {} exceed the sampler's ledger {bound}",
        retained.len()
    );
    m.metric("b11_retention/sessions", stats.finished as f64);
    m.metric("b11_retention/kept_failed", stats.kept_failed as f64);
    m.metric("b11_retention/kept_slow", stats.kept_slow as f64);
    m.metric("b11_retention/kept_head", stats.kept_head as f64);
    m.metric("b11_retention/dropped", stats.dropped as f64);
    m.metric("b11_retention/retained_traces", retained.len() as f64);
    m.metric("b11_retention/retained_events", events.len() as f64);

    // Overhead: the 10k-session fleet with the full stack vs. the same
    // fleet with observability disabled. The timed window is the run
    // itself; draining the (sampled) log afterwards is offline export.
    // Each pair yields one disabled/instrumented ratio — machine-load
    // drift cancels within a pair — and the asserted statistic is the
    // median of those ratios, so a single noisy pair cannot fail the run.
    let cfg = overhead_config(if fast { 512 } else { 10_000 });
    let run_disabled = || {
        let (result, _) = run_contended_with(&cfg, None);
        std::hint::black_box((result.admitted, result.leaked_streams));
    };
    run_disabled(); // warm the disabled path
    let pairs = if fast { 3 } else { 15 };
    let mut disabled_ns: Vec<f64> = Vec::with_capacity(pairs);
    let mut telemetry_ns: Vec<f64> = Vec::with_capacity(pairs);
    let mut ratios: Vec<f64> = Vec::with_capacity(pairs);
    for i in 0..pairs + 1 {
        let t0 = std::time::Instant::now();
        run_disabled();
        let disabled = t0.elapsed().as_nanos() as f64;
        let (rec, tracer) = instrumented();
        let t0 = std::time::Instant::now();
        let (result, _) = run_contended_with(&cfg, Some(&rec));
        let telemetry = t0.elapsed().as_nanos() as f64;
        std::hint::black_box((result.admitted, result.leaked_streams));
        std::hint::black_box(tracer.drain().len());
        if i > 0 {
            // pair 0 warms the instrumented path and is discarded
            disabled_ns.push(disabled);
            telemetry_ns.push(telemetry);
            ratios.push(telemetry / disabled);
        }
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        v[v.len() / 2]
    };
    let baseline = median(&mut disabled_ns);
    let telemetry = median(&mut telemetry_ns);
    let ratio = median(&mut ratios);
    m.metric("b11_telemetry/sessions", cfg.sessions as f64);
    m.metric("b11_telemetry/disabled_median_ns", baseline);
    m.metric("b11_telemetry/instrumented_median_ns", telemetry);
    m.metric("b11_telemetry/instrumented_over_disabled", ratio);
    if !fast {
        assert!(
            ratio <= 1.10,
            "telemetry overhead {:.1}% exceeds the 10% budget \
             (disabled {baseline:.0} ns, instrumented {telemetry:.0} ns)",
            (ratio - 1.0) * 100.0,
        );
    }

    m.report();
}
