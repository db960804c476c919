//! Trace a contended broker run end to end.
//!
//! ```text
//! cargo run --release -p nod-bench --bin run_contended -- \
//!     --sessions 64 --servers 2 --seed 9 --faults 3 --choice-period 500 \
//!     --trace-out trace.jsonl --trace-report --chrome-out trace.json
//! ```
//!
//! Drives the B9 contended workload (Poisson arrivals against an
//! undersized farm, jittered retries, optional fault windows) with a
//! causal [`Tracer`] attached: the broker assigns one trace per session,
//! so the JSONL written by `--trace-out` reconstructs into a complete
//! span tree per session — dispatch, every retry and its backoff reason,
//! commit, confirmation. `--trace-report` prints per-session retry
//! waterfalls and wait-time attribution; `--chrome-out` writes Chrome
//! `trace_event` JSON for chrome://tracing or Perfetto. Runs are
//! deterministic: the same flags produce a byte-identical trace log.
//!
//! Fleet telemetry: `--prom-out <path>` writes the final metrics
//! snapshot in Prometheus text format; `--windows-out <dir>` (with
//! `--window-ms N`, default 5000) folds the outcome log into tumbling
//! virtual-time windows and writes one `window_NNNN.prom` file per
//! window — a scrape directory that replays fleet health at a fixed
//! cadence. `--slos` attaches the default fleet SLO set (p99 admission
//! latency, failure ratio, retry budget) and prints any burn alerts.
//! A [`FlushGuard`] arms as soon as the sinks exist: if the run panics,
//! the partial trace log and metrics snapshot are still written.

//! Crash recovery: `--journal <path>` appends a write-ahead journal of
//! every session transition to `path` as the run progresses;
//! `--kill-at-event N` crashes the process (exit code 86) right after
//! the N-th journaled event — a deterministic chaos hook. A later
//! invocation with the **same workload flags** plus `--journal <path>
//! --recover` resumes the crashed run from the journal, verifies the
//! resumed outcome log is the byte-identical suffix of an uninterrupted
//! in-process rerun, and completes the journal.

use nod_bench::{write_artifact, write_artifact_with, FlushGuard};
use nod_broker::{fleet_windows, Journal, JournalConfig};
use nod_obs::{analyze, default_fleet_slos, to_prometheus_text, Recorder, RetentionPolicy, Tracer};
use nod_qosneg::explain::ExplainMeta;
use nod_workload::{
    recover_contended, run_contended_journaled, run_contended_with, write_contended_explains,
    ContendedConfig,
};

fn usage() -> ! {
    eprintln!(
        "usage: run_contended [--sessions N] [--servers N] [--clients N] [--seed N] \
         [--faults N] [--arrivals-per-minute F] [--hold-ms N] [--choice-period MS] \
         [--trace-out <path>] [--trace-report] [--chrome-out <path>] [--metrics-out <path>] \
         [--prom-out <path>] [--windows-out <dir>] [--window-ms N] [--slos] [--explain-out <path>] \
         [--journal <path>] [--kill-at-event N] [--recover]"
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
    let mut config = ContendedConfig {
        seed: 9,
        sessions: 64,
        servers: 2,
        arrivals_per_minute: 180.0,
        hold_ms: 12_000,
        ..ContendedConfig::default()
    };
    let mut trace_out: Option<String> = None;
    let mut chrome_out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut windows_out: Option<String> = None;
    let mut explain_out: Option<String> = None;
    let mut window_ms: u64 = 5_000;
    let mut trace_report = false;
    let mut journal_path: Option<String> = None;
    let mut kill_at_event: Option<u64> = None;
    let mut recover = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sessions" => config.sessions = parse(&mut it, "--sessions"),
            "--servers" => config.servers = parse(&mut it, "--servers"),
            "--clients" => config.clients = parse(&mut it, "--clients"),
            "--seed" => config.seed = parse(&mut it, "--seed"),
            "--faults" => config.fault_windows = parse(&mut it, "--faults"),
            "--arrivals-per-minute" => {
                config.arrivals_per_minute = parse(&mut it, "--arrivals-per-minute")
            }
            "--hold-ms" => config.hold_ms = parse(&mut it, "--hold-ms"),
            "--choice-period" => config.choice_period_ms = parse(&mut it, "--choice-period"),
            "--trace-out" => trace_out = Some(parse(&mut it, "--trace-out")),
            "--chrome-out" => chrome_out = Some(parse(&mut it, "--chrome-out")),
            "--metrics-out" => metrics_out = Some(parse(&mut it, "--metrics-out")),
            "--prom-out" => prom_out = Some(parse(&mut it, "--prom-out")),
            "--windows-out" => windows_out = Some(parse(&mut it, "--windows-out")),
            "--explain-out" => explain_out = Some(parse(&mut it, "--explain-out")),
            "--window-ms" => window_ms = parse(&mut it, "--window-ms"),
            "--slos" => config.slos = default_fleet_slos(),
            "--trace-report" => trace_report = true,
            "--journal" => journal_path = Some(parse(&mut it, "--journal")),
            "--kill-at-event" => kill_at_event = Some(parse(&mut it, "--kill-at-event")),
            "--recover" => recover = true,
            _ => usage(),
        }
    }

    if recover {
        let Some(path) = &journal_path else {
            eprintln!("error: --recover needs --journal <path>");
            usage()
        };
        let journal = match Journal::open(path, JournalConfig::default()) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("error: cannot open journal {path}: {e}");
                std::process::exit(1);
            }
        };
        let rec = match recover_contended(&config, None, &journal) {
            Ok(rec) => rec,
            Err(e) => {
                eprintln!("error: recovery from {path} failed: {e}");
                std::process::exit(1);
            }
        };
        if rec.torn_bytes > 0 {
            eprintln!(
                "torn tail: {} byte(s) of a partial record truncated",
                rec.torn_bytes
            );
        }
        println!(
            "recovered from {path}: resumed at {} ms, {} journaled events replayed, \
             {} events generated after the crash point",
            rec.resumed_at_ms
                .map(|t| t.to_string())
                .unwrap_or_else(|| "start".into()),
            rec.replayed_events,
            rec.report.events.len(),
        );
        // Verify against an uninterrupted in-process rerun of the same
        // config: the resumed log must be its byte-identical suffix.
        let (_, full) = run_contended_with(&config, None);
        let at = rec.suffix_starts_at_event as usize;
        if at > full.events.len() || !rec.report.events.iter().eq(full.events.iter().skip(at)) {
            eprintln!("error: resumed outcome log diverges from the uninterrupted run");
            std::process::exit(1);
        }
        if rec.report.leaked_streams != 0 {
            eprintln!(
                "error: recovered run leaked {} streams",
                rec.report.leaked_streams
            );
            std::process::exit(1);
        }
        println!(
            "recovery verified: {} suffix events byte-identical from log position {at}, \
             0 leaked streams ({} sessions: {} admitted, {} starved, {} rejected)",
            rec.report.events.len(),
            rec.report.results.len(),
            rec.report.admitted,
            rec.report.starved,
            rec.report.rejected + rec.report.errored,
        );
        return;
    }

    if explain_out.is_some() {
        config.explain = Some(RetentionPolicy::default());
    }
    let recorder = Recorder::new();
    let tracer = Tracer::new();
    recorder.set_tracer(tracer.clone());

    // If the run panics (broker assertion, capacity-audit trip), flush
    // whatever telemetry exists: that partial record is the evidence.
    let mut guard = {
        let rec = recorder.clone();
        let t = tracer.clone();
        let trace_out = trace_out.clone();
        let metrics_out = metrics_out.clone();
        let prom_out = prom_out.clone();
        FlushGuard::new(move || {
            eprintln!("run did not complete; flushing partial telemetry");
            if let Some(path) = &trace_out {
                let _ = std::fs::write(path, t.to_jsonl());
            }
            let snap = rec.snapshot();
            if let Some(path) = &metrics_out {
                let _ = std::fs::write(path, snap.to_json_pretty());
            }
            if let Some(path) = &prom_out {
                let _ = std::fs::write(path, to_prometheus_text(&snap));
            }
        })
    };

    let journal = journal_path.as_ref().map(|p| {
        let cfg = JournalConfig {
            crash_after_events: kill_at_event,
            ..JournalConfig::default()
        };
        Journal::create(p, cfg).unwrap_or_else(|e| {
            eprintln!("error: cannot create journal {p}: {e}");
            std::process::exit(1);
        })
    });
    let (result, report) = match &journal {
        Some(j) => run_contended_journaled(&config, Some(&recorder), j),
        None => run_contended_with(&config, Some(&recorder)),
    };
    guard.disarm();

    println!(
        "contended run: seed {} — {} sessions over {} servers, {} fault windows",
        config.seed, config.sessions, config.servers, config.fault_windows
    );
    println!(
        "admitted {}/{} ({:.0}%)  starved {}  rejected {}  retries {}  backoff {} ms  leaked {}",
        result.admitted,
        result.offered,
        100.0 * result.admission_ratio,
        result.starved,
        result.rejected,
        result.retries,
        result.backoff_ms_total,
        result.leaked_streams,
    );
    println!(
        "session latency ms: p50 {:.0}  p95 {:.0}  p99 {:.0}  max {:.0}",
        report.latency.p50, report.latency.p95, report.latency.p99, report.latency.max
    );
    if let (Some(path), Some(j)) = (&journal_path, &journal) {
        let s = j.stats();
        eprintln!(
            "journal: {} events, {} snapshots, {} compactions, {} bytes written to {path}",
            s.events_appended, s.snapshots, s.compactions, s.bytes
        );
    }
    for alert in &report.slo_alerts {
        println!(
            "SLO BURN: {} — observed {:.3} vs bound {:.3} for {} windows (ending at {} ms)",
            alert.slo, alert.observed, alert.threshold, alert.burning_windows, alert.window_end_ms
        );
    }

    let events = tracer.drain();
    if let Some(path) = &trace_out {
        let mut text = String::new();
        for ev in &events {
            text.push_str(&ev.to_json_line());
            text.push('\n');
        }
        if let Err(e) = write_artifact(path, &text) {
            eprintln!("error: cannot write trace: {e}");
            std::process::exit(1);
        }
        eprintln!("trace log ({} events) written to {path}", events.len());
    }
    if trace_report || chrome_out.is_some() {
        let trees = match analyze::build_trees(&events) {
            Ok(trees) => trees,
            Err(e) => {
                eprintln!("error: trace integrity check failed: {e}");
                std::process::exit(1);
            }
        };
        if trace_report {
            print!("{}", analyze::text_report(&trees));
        }
        if let Some(path) = &chrome_out {
            if let Err(e) = write_artifact(path, &analyze::chrome_trace_json(&trees)) {
                eprintln!("error: cannot write chrome trace: {e}");
                std::process::exit(1);
            }
            eprintln!("chrome trace written to {path} (open in chrome://tracing)");
        }
    }
    let snapshot = recorder.snapshot();
    if let Some(path) = &metrics_out {
        if let Err(e) = write_artifact(path, &snapshot.to_json_pretty()) {
            eprintln!("error: cannot write metrics: {e}");
            std::process::exit(1);
        }
        eprintln!("metrics snapshot written to {path}");
    }
    if let Some(path) = &prom_out {
        if let Err(e) = write_artifact(path, &to_prometheus_text(&snapshot)) {
            eprintln!("error: cannot write exposition: {e}");
            std::process::exit(1);
        }
        eprintln!("prometheus exposition written to {path}");
    }
    if let Some(dir) = &windows_out {
        let dir = std::path::Path::new(dir);
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let windows = fleet_windows(report.events.iter(), window_ms);
        for (i, w) in windows.iter().enumerate() {
            let path = dir.join(format!("window_{i:04}.prom"));
            if let Err(e) = write_artifact(&path, &w.to_prometheus_text()) {
                eprintln!("error: cannot write window: {e}");
                std::process::exit(1);
            }
        }
        eprintln!(
            "{} fleet windows ({window_ms} ms each) written to {}",
            windows.len(),
            dir.display()
        );
    }
    if let Some(path) = &explain_out {
        let policy = config.explain.expect("set when --explain-out is given");
        let meta = ExplainMeta {
            source: "run_contended".to_string(),
            seed: config.seed,
            sessions: config.sessions as u64,
            top_k: policy.top_k as u64,
            sample_every: policy.sample_every,
            sample_seed: policy.seed,
        };
        let written = write_artifact_with(path, |out| {
            write_contended_explains(&config, &report, &meta, out)
        });
        if let Err(e) = written {
            eprintln!("error: cannot write explain artifact: {e}");
            std::process::exit(1);
        }
        let data = report.explains.as_ref().expect("explain was requested");
        eprintln!(
            "explain artifact ({} ledger rows, {} retained sessions) written to {path}",
            data.ledger.len(),
            data.sessions.len()
        );
    }
}
