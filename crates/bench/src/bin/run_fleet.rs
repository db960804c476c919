//! Drive a metro-scale fleet through `Broker::drive` and report
//! throughput.
//!
//! ```text
//! cargo run --release -p nod-bench --bin run_fleet -- \
//!     --sessions 10000
//! ```
//!
//! Builds the metro world (see [`nod_bench::MetroFleet`]), drives
//! every session to a terminal fate, and prints sessions/sec, admission
//! ratio, peak live sessions and peak RSS. Any leaked stream is fatal —
//! the zero-leak audit the CI smoke gates on.

use nod_bench::{write_artifact_with, MetroFleet};
use nod_broker::{
    write_explains, Broker, BrokerConfig, EventRetention, FleetSpec, Journal, JournalConfig,
};
use nod_obs::RetentionPolicy;
use nod_qosneg::explain::ExplainMeta;

fn usage() -> ! {
    eprintln!(
        "usage: run_fleet [--sessions N] [--seed N] [--explain-out <path>] [--journal <path>]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(it: &mut impl Iterator<Item = String>, flag: &str) -> T {
    match it.next().and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("error: {flag} needs a value");
            usage()
        }
    }
}

fn main() {
    let mut sessions = 10_000usize;
    let mut seed = 12u64;
    let mut explain_out: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => sessions = parse(&mut it, "--sessions"),
            "--seed" => seed = parse(&mut it, "--seed"),
            "--explain-out" => explain_out = Some(parse(&mut it, "--explain-out")),
            "--journal" => journal_path = Some(parse(&mut it, "--journal")),
            _ => usage(),
        }
    }

    let fleet = MetroFleet::build(seed, sessions);
    let specs = fleet.specs();
    println!(
        "fleet: {} sessions over {} servers, seed {}",
        sessions,
        fleet.servers(),
        seed
    );

    let ctx = nod_bench::context(&fleet.catalog, &fleet.farm, &fleet.network, &fleet.cost);
    let broker = Broker::new(ctx, BrokerConfig::era_default());
    let policy = RetentionPolicy::default();
    let journal = journal_path.as_ref().map(|p| {
        Journal::create(p, JournalConfig::default()).unwrap_or_else(|e| {
            eprintln!("error: cannot create journal {p}: {e}");
            std::process::exit(1);
        })
    });
    let mut spec = FleetSpec::new(&specs).retention(EventRetention::WindowsOnly);
    if explain_out.is_some() {
        spec = spec.explain(policy);
    }
    if let Some(j) = &journal {
        spec = spec.journal(j);
    }
    let t0 = std::time::Instant::now();
    let report = broker.drive(&spec);
    let wall = t0.elapsed();
    if let (Some(path), Some(j)) = (&journal_path, &journal) {
        let s = j.stats();
        eprintln!(
            "journal: {} events, {} snapshots, {} compactions, {} bytes written to {path}",
            s.events_appended, s.snapshots, s.compactions, s.bytes
        );
    }

    assert_eq!(report.leaked_streams, 0, "fleet run leaked streams");
    let rate = sessions as f64 / wall.as_secs_f64();
    println!(
        "drained in {:.2?}: {:.0} sessions/sec  admitted {:.1}%  starved {}  retries {}",
        wall,
        rate,
        100.0 * report.admission_ratio,
        report.starved,
        report.retries,
    );
    println!(
        "peak live sessions {}  latency p50 {:.0} ms p99 {:.0} ms{}",
        report.peak_live_sessions,
        report.latency.p50,
        report.latency.p99,
        nod_bench::peak_rss_kb()
            .map(|kb| format!("  peak RSS {:.0} MB", kb as f64 / 1024.0))
            .unwrap_or_default(),
    );

    if let Some(path) = &explain_out {
        let meta = ExplainMeta {
            source: "run_fleet".to_string(),
            seed,
            sessions: sessions as u64,
            top_k: policy.top_k as u64,
            sample_every: policy.sample_every,
            sample_seed: policy.seed,
        };
        let t = std::time::Instant::now();
        let written = write_artifact_with(path, |out| {
            write_explains(&ctx, &specs, &report, &meta, out)
        });
        if let Err(e) = written {
            eprintln!("error: cannot write explain artifact: {e}");
            std::process::exit(1);
        }
        let data = report.explains.as_ref().expect("explain was requested");
        eprintln!(
            "explain artifact ({} ledger rows, {} retained sessions) completed and written to {path} in {:.2?}",
            data.ledger.len(),
            data.sessions.len(),
            t.elapsed()
        );
    }
}
