//! Run a persisted experiment scenario.
//!
//! ```text
//! cargo run --release -p nod-bench --bin run_scenario -- light-load
//! cargo run --release -p nod-bench --bin run_scenario -- path/to/scenario.json
//! cargo run --release -p nod-bench --bin run_scenario -- --dump prime-time > pt.json
//! cargo run --release -p nod-bench --bin run_scenario -- --metrics-out m.json light-load
//! cargo run --release -p nod-bench --bin run_scenario -- --trace-out t.jsonl --trace-report light-load
//! ```
//!
//! Accepts a preset name (`light-load`, `prime-time`, `outage-drill`) or a
//! JSON file produced by `Scenario::save`; `--dump` prints a preset's JSON
//! so it can be edited and replayed. With `--metrics-out <path>` every run
//! in the scenario reports into one shared [`nod_obs::Recorder`] and the
//! final metrics snapshot (outcome counters, per-stage span latency
//! histograms, admission/reservation counters) is written to `<path>` as
//! pretty-printed JSON for diffing across runs; `--prom-out <path>`
//! writes the same snapshot in Prometheus text format for scraping.
//!
//! With `--trace-out <path>` the whole scenario is additionally traced
//! (one trace, id 0, rooted at a `scenario` span per phase) and the event
//! log written as JSONL; `--trace-report` prints the reconstructed
//! span-tree summary to stderr. For per-session traces use the
//! `run_contended` bin, whose broker assigns one trace per session.

use nod_bench::{f3, write_artifact, write_artifact_with, Table};
use nod_obs::{analyze, to_prometheus_text, Recorder, RetentionPolicy, Tracer};
use nod_qosneg::explain::{ExplainArtifact, ExplainData, ExplainMeta};
use nod_workload::scenario::{presets, Scenario};
use nod_workload::{
    run_adaptation_explained, run_adaptation_with, run_blocking_explained, run_blocking_with,
    AdaptationResult, BlockingResult,
};

fn resolve(name: &str) -> Result<Scenario, String> {
    match name {
        "light-load" => Ok(presets::light_load()),
        "prime-time" => Ok(presets::prime_time()),
        "outage-drill" => Ok(presets::outage_drill()),
        path => Scenario::load(std::path::Path::new(path))
            .map_err(|e| format!("{path}: not a preset and not loadable as JSON ({e})")),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: run_scenario [--dump] [--metrics-out <path>] [--prom-out <path>] [--trace-out <path>] [--trace-report] [--explain-out <path>] <preset|file.json>"
    );
    eprintln!("presets: light-load, prime-time, outage-drill");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dump = false;
    let mut metrics_out: Option<String> = None;
    let mut prom_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut explain_out: Option<String> = None;
    let mut trace_report = false;
    let mut name: Option<String> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--dump" => dump = true,
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(path),
                None => usage(),
            },
            "--prom-out" => match it.next() {
                Some(path) => prom_out = Some(path),
                None => usage(),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_out = Some(path),
                None => usage(),
            },
            "--explain-out" => match it.next() {
                Some(path) => explain_out = Some(path),
                None => usage(),
            },
            "--trace-report" => trace_report = true,
            _ if name.is_none() => name = Some(arg),
            _ => usage(),
        }
    }
    let Some(name) = name else { usage() };
    let scenario = match resolve(&name) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    if dump {
        println!("{}", scenario.to_json());
        return;
    }
    // Every run in the scenario lands in one artifact: session ids are
    // offset per run so "session N" stays unambiguous across phases.
    let explain_policy = explain_out.as_ref().map(|_| RetentionPolicy::default());
    let mut explains = ExplainData::default();
    let mut explain_offset: u64 = 0;
    let mut merge_explains = |data: ExplainData, offered: u64| {
        let base = explain_offset;
        explain_offset += offered;
        explains
            .ledger
            .extend(data.ledger.into_iter().map(|mut row| {
                row.session += base;
                row
            }));
        explains
            .sessions
            .extend(data.sessions.into_iter().map(|mut s| {
                s.session += base;
                s
            }));
        explains.stats.finished += data.stats.finished;
        explains.stats.kept_failed += data.stats.kept_failed;
        explains.stats.kept_head += data.stats.kept_head;
        explains.stats.kept_slow += data.stats.kept_slow;
        explains.stats.dropped += data.stats.dropped;
        explains.stats.truncated_events += data.stats.truncated_events;
    };
    let tracing = trace_out.is_some() || trace_report;
    let recorder = (metrics_out.is_some() || prom_out.is_some() || tracing).then(Recorder::new);
    let tracer = tracing.then(Tracer::new);
    if let (Some(rec), Some(t)) = (recorder.as_ref(), tracer.as_ref()) {
        rec.set_tracer(t.clone());
        // The scenario runs as one trace: every phase's spans land under
        // trace 0, giving a forest of per-run roots.
        t.resume(0);
    }

    println!(
        "scenario \"{}\" — {}\n",
        scenario.name, scenario.description
    );

    if !scenario.blocking.is_empty() {
        let mut t = Table::new(&[
            "arrivals/min",
            "negotiator",
            "offered",
            "carried",
            "P(block)",
            "satisfaction",
            "p50 cost",
            "p95 cost",
        ]);
        for cfg in &scenario.blocking {
            let span = recorder.as_ref().and_then(|r| r.trace_span("blocking_run"));
            let r: BlockingResult = match explain_policy {
                Some(policy) => {
                    let (r, data) = run_blocking_explained(cfg, recorder.as_ref(), policy);
                    merge_explains(data, r.offered);
                    r
                }
                None => run_blocking_with(cfg, recorder.as_ref()),
            };
            if let Some(span) = span {
                span.end();
            }
            t.row(&[
                format!("{:.0}", cfg.arrivals_per_minute),
                cfg.negotiator.label().to_string(),
                r.offered.to_string(),
                r.carried.to_string(),
                f3(r.blocking_probability()),
                f3(r.mean_satisfaction),
                format!("${:.2}", r.p50_cost_dollars),
                format!("${:.2}", r.p95_cost_dollars),
            ]);
        }
        println!("{}", t.render());
    }

    if !scenario.adaptation.is_empty() {
        let mut t = Table::new(&[
            "adaptation",
            "health",
            "started",
            "completed",
            "aborted",
            "continuity",
            "transitions",
            "underruns",
        ]);
        for cfg in &scenario.adaptation {
            let span = recorder
                .as_ref()
                .and_then(|r| r.trace_span("adaptation_run"));
            let r: AdaptationResult = match explain_policy {
                Some(policy) => {
                    let (r, data) = run_adaptation_explained(cfg, recorder.as_ref(), policy);
                    merge_explains(data, cfg.sessions as u64);
                    r
                }
                None => run_adaptation_with(cfg, recorder.as_ref()),
            };
            if let Some(span) = span {
                span.end();
            }
            t.row(&[
                if cfg.adaptation_enabled { "ON" } else { "off" }.to_string(),
                format!("{:.2}", cfg.congestion_health),
                r.started.to_string(),
                r.completed.to_string(),
                r.aborted.to_string(),
                f3(r.mean_continuity),
                r.transitions.to_string(),
                r.underruns.to_string(),
            ]);
        }
        println!("{}", t.render());
    }

    if let Some(t) = tracer.as_ref() {
        t.suspend();
        let events = t.drain();
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
        if trace_report {
            match analyze::build_trees(&events) {
                Ok(trees) => eprint!("{}", analyze::text_report(&trees)),
                Err(e) => {
                    eprintln!("error: trace integrity check failed: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if let Some(rec) = recorder {
        let snapshot = rec.snapshot();
        if let Some(path) = metrics_out {
            if let Err(e) = write_artifact(&path, &snapshot.to_json_pretty()) {
                eprintln!("error: cannot write metrics: {e}");
                std::process::exit(1);
            }
            eprintln!("metrics snapshot written to {path}");
        }
        if let Some(path) = prom_out {
            if let Err(e) = write_artifact(&path, &to_prometheus_text(&snapshot)) {
                eprintln!("error: cannot write exposition: {e}");
                std::process::exit(1);
            }
            eprintln!("prometheus exposition written to {path}");
        }
    }

    if let Some(path) = &explain_out {
        let policy = explain_policy.expect("set when --explain-out is given");
        let artifact = ExplainArtifact::new(
            ExplainMeta {
                source: "run_scenario".to_string(),
                seed: scenario
                    .blocking
                    .first()
                    .map(|c| c.seed)
                    .or_else(|| scenario.adaptation.first().map(|c| c.seed))
                    .unwrap_or(0),
                sessions: explain_offset,
                top_k: policy.top_k as u64,
                sample_every: policy.sample_every,
                sample_seed: policy.seed,
            },
            explains,
        );
        if let Err(e) = write_artifact_with(path, |out| artifact.write_jsonl(out)) {
            eprintln!("error: cannot write explain artifact: {e}");
            std::process::exit(1);
        }
        eprintln!(
            "explain artifact ({} ledger rows, {} retained sessions) written to {path}",
            artifact.ledger.len(),
            artifact.sessions.len()
        );
    }
}
