//! Tail-based trace sampling under fleet load: the sampler must retain
//! every failed session and exactly the `top_k` slowest, keep trace
//! memory O(retained) rather than O(sessions), and hand the analyzer a
//! drained log that still satisfies the causal invariants — sampling
//! drops whole sessions, never events within a retained session.

use std::collections::BTreeSet;

use news_on_demand::obs::{analyze, Recorder, RetentionPolicy, Tracer};
use news_on_demand::workload::{run_contended_with, ContendedConfig};

/// A fleet small enough for tier-1 but contended enough that most
/// sessions fail: one server, long holds, fast arrivals.
fn config() -> ContendedConfig {
    ContendedConfig {
        seed: 9,
        sessions: 192,
        servers: 1,
        arrivals_per_minute: 240.0,
        hold_ms: 8_000,
        ..ContendedConfig::default()
    }
}

fn policy() -> RetentionPolicy {
    RetentionPolicy {
        top_k: 8,
        sample_every: 32,
        seed: 7,
        max_events_per_trace: 4_096,
    }
}

/// Run the contended fleet with a tail-sampling tracer attached.
fn sampled_run() -> (usize, Tracer) {
    let recorder = Recorder::new();
    let tracer = Tracer::with_sampling(policy());
    recorder.set_tracer(tracer.clone());
    let (result, _) = run_contended_with(&config(), Some(&recorder));
    assert_eq!(
        result.leaked_streams, 0,
        "contended run must release every stream"
    );
    (result.admitted, tracer)
}

#[test]
fn failed_sessions_are_always_retained_and_slow_set_is_exactly_top_k() {
    let (admitted, tracer) = sampled_run();
    let stats = tracer
        .retention_stats()
        .expect("sampling tracer reports retention stats");
    let failed = (config().sessions - admitted) as u64;
    assert_eq!(stats.finished, config().sessions as u64);
    assert_eq!(
        stats.kept_failed, failed,
        "tail sampling must keep 100% of failed sessions"
    );
    assert_eq!(
        stats.kept_slow,
        policy().top_k,
        "slow set must hold exactly top_k once finished >= top_k"
    );
    assert_eq!(stats.truncated_events, 0, "no retained trace hit the cap");
}

#[test]
fn trace_memory_is_bounded_by_the_retention_ledger() {
    let (_, tracer) = sampled_run();
    let stats = tracer.retention_stats().expect("retention stats");
    assert!(
        stats.dropped > 0,
        "a contended fleet must drop some successful traces"
    );
    let events = tracer.drain();
    let retained: BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    let ledger = stats.kept_failed + stats.kept_head + stats.kept_slow as u64;
    assert!(
        (retained.len() as u64) <= ledger,
        "{} retained traces exceed the ledger bound {ledger}",
        retained.len()
    );
    assert!(
        (retained.len() as u64) < stats.finished,
        "retention must be O(retained), not O(sessions)"
    );
}

#[test]
fn drained_sample_still_satisfies_causal_invariants_and_analyzes() {
    let (_, tracer) = sampled_run();
    let events = tracer.drain();
    assert!(!events.is_empty(), "sampled run retained no traces");
    let trees = analyze::build_trees(&events)
        .expect("retained traces must be complete, causally valid sessions");
    let retained: BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    assert_eq!(
        trees.len(),
        retained.len(),
        "every retained trace reconstructs into exactly one session tree"
    );
    let report = analyze::text_report(&trees);
    assert!(
        !report.is_empty(),
        "analysis report must render from the sampled log"
    );
}
