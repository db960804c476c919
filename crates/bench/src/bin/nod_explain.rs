//! Query a decision-provenance artifact.
//!
//! ```text
//! cargo run --release -p nod-bench --bin run_contended -- \
//!     --sessions 64 --servers 1 --explain-out out/explain.jsonl
//! cargo run --release -p nod-bench --bin nod_explain -- --once out/explain.jsonl
//! cargo run --release -p nod-bench --bin nod_explain -- --session 7 out/explain.jsonl
//! cargo run --release -p nod-bench --bin nod_explain -- --timeline out/explain.jsonl
//! cargo run --release -p nod-bench --bin nod_explain -- --refusals out/explain.jsonl
//! ```
//!
//! Loads the JSONL artifact written by `--explain-out` (on
//! `run_contended`, `run_scenario` or `run_fleet`) and renders
//! human-readable reports:
//!
//! - `--once` (the default): one overview — fate mix, retention stats,
//!   and the headline refusal causes.
//! - `--session N`: why session N succeeded or failed — per attempt, the
//!   score decomposition of the top-ranked offers, every commit refusal
//!   with its concrete shortfall, plus settlement and adaptation history.
//! - `--timeline`: per-server reserved-bandwidth timelines over virtual
//!   time, reconstructed from the capacity ledger.
//! - `--refusals`: refusal causes ranked by the number of sessions
//!   affected.
//!
//! Failed sessions are always explainable: retention keeps 100% of
//! failures (plus the top-k slowest and a seeded head sample).

use std::collections::BTreeMap;

use nod_bench::Table;
use nod_qosneg::explain::{ExplainArtifact, SessionExplain};

fn usage() -> ! {
    eprintln!(
        "usage: nod_explain [--once] [--session N] [--timeline] [--refusals] <artifact.jsonl>"
    );
    std::process::exit(2);
}

fn main() {
    let mut session: Option<u64> = None;
    let mut timeline = false;
    let mut refusals = false;
    let mut overview = false;
    let mut path: Option<String> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => overview = true,
            "--session" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => session = Some(n),
                None => usage(),
            },
            "--timeline" => timeline = true,
            "--refusals" => refusals = true,
            _ if path.is_none() && !arg.starts_with('-') => path = Some(arg),
            _ => usage(),
        }
    }
    let Some(path) = path else { usage() };
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let artifact = match ExplainArtifact::from_jsonl(&text) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {path} is not an explain artifact: {e}");
            std::process::exit(1);
        }
    };

    if !timeline && !refusals && session.is_none() {
        overview = true;
    }
    if overview {
        print_overview(&artifact);
    }
    if let Some(n) = session {
        print_session(&artifact, n);
    }
    if timeline {
        print_timeline(&artifact);
    }
    if refusals {
        print_refusals(&artifact);
    }
}

fn print_overview(artifact: &ExplainArtifact) {
    let m = &artifact.meta;
    println!(
        "explain artifact from {} (seed {}, {} sessions driven)",
        m.source, m.seed, m.sessions
    );
    println!(
        "retention: 100% of failures + top-{} slowest + 1/{} head sample (seed {})",
        m.top_k,
        m.sample_every.max(1),
        m.sample_seed
    );
    let s = &artifact.stats;
    println!(
        "retained {} of {} finished: {} failed, {} slow, {} sampled; {} dropped",
        artifact.sessions.len(),
        s.finished,
        s.kept_failed,
        s.kept_slow,
        s.kept_head,
        s.dropped
    );
    let mut fates: BTreeMap<&str, usize> = BTreeMap::new();
    for se in &artifact.sessions {
        *fates.entry(se.fate.as_str()).or_default() += 1;
    }
    let mix = fates
        .iter()
        .map(|(fate, n)| format!("{fate} {n}"))
        .collect::<Vec<_>>()
        .join("  ");
    println!("retained fates: {mix}");
    println!("capacity ledger: {} admissions", artifact.ledger.len());
    let causes = refusal_causes(artifact);
    match causes.first() {
        Some((kind, sessions)) => {
            println!(
                "top refusal cause: {kind} ({sessions} sessions; --refusals for the full ranking)"
            );
        }
        None => println!("no commit refusals recorded"),
    }
}

fn print_session(artifact: &ExplainArtifact, n: u64) {
    let Some(se) = artifact.sessions.iter().find(|s| s.session == n) else {
        eprintln!(
            "session {n} is not in the artifact ({} sessions retained; \
             failures are always kept, so {n} either succeeded un-sampled or never ran)",
            artifact.sessions.len()
        );
        std::process::exit(1);
    };
    println!(
        "session {}: {} (arrived {} ms, settled after {} ms, {} attempt{})",
        se.session,
        se.fate,
        se.arrival_ms,
        se.duration_ms,
        se.attempts.len(),
        if se.attempts.len() == 1 { "" } else { "s" }
    );
    for (i, attempt) in se.attempts.iter().enumerate() {
        let d = &attempt.decisions;
        println!(
            "\nattempt {} at {} ms — status {}: {} feasible variants, {} offers enumerated",
            i + 1,
            attempt.at_ms,
            d.status.map_or("?".into(), |s| s.to_string()),
            d.feasible_variants,
            d.offers_enumerated
        );
        if !d.scores.is_empty() {
            let mut t = Table::new(&[
                "rank", "streams", "sns", "qos-imp", "oif", "cost-net", "cost-ser", "total",
                "fits", "",
            ]);
            for row in &d.scores {
                let streams = row
                    .streams
                    .iter()
                    .map(|(v, s)| format!("v{v}@s{s}"))
                    .collect::<Vec<_>>()
                    .join(" ");
                t.row(&[
                    row.rank.to_string(),
                    streams,
                    row.sns.to_string(),
                    format!("{:.3}", row.qos_importance),
                    format!("{:.3}", row.oif),
                    format!("${:.2}", row.cost_net.dollars()),
                    format!("${:.2}", row.cost_ser.dollars()),
                    format!("${:.2}", row.cost_total.dollars()),
                    if row.satisfies_request { "yes" } else { "no" }.to_string(),
                    if row.chosen { "<= chosen" } else { "" }.to_string(),
                ]);
            }
            print!("{}", indent(&t.render()));
        }
        for r in &d.refusals {
            let server = r
                .server()
                .map(|s| format!(" on server {s}"))
                .unwrap_or_default();
            println!(
                "  refused offer {} ({}){}: {}",
                r.rank(),
                r.kind(),
                server,
                r.shortfall()
            );
        }
        match d.chosen_rank {
            Some(rank) => println!("  committed offer rank {rank}"),
            None => println!("  no offer committed"),
        }
    }
    if let Some(s) = &se.settlement {
        println!(
            "\nsettlement: admitted at {} ms, choice period {} ms, {}",
            s.admitted_at_ms,
            s.choice_delay_ms,
            if s.confirmed {
                "confirmed"
            } else {
                "never confirmed"
            }
        );
    }
    for a in &se.adaptations {
        let verdict = match a.new_rank {
            Some(rank) => format!(
                "switched to rank {rank} (make-before-break {})",
                if a.make_before_break {
                    "held"
                } else {
                    "VIOLATED"
                }
            ),
            None => "no alternate offer — aborted".to_string(),
        };
        println!(
            "adaptation ({}): left rank {} after {} refusal{}; {}",
            a.reason,
            a.from_rank,
            a.attempts.len(),
            if a.attempts.len() == 1 { "" } else { "s" },
            verdict
        );
    }
}

fn print_timeline(artifact: &ExplainArtifact) {
    if artifact.ledger.is_empty() {
        println!("capacity ledger is empty: nothing was admitted");
        return;
    }
    // Sweep admit/depart edges into per-server reserved-bandwidth steps.
    let mut edges: BTreeMap<u64, BTreeMap<u64, i64>> = BTreeMap::new();
    for row in &artifact.ledger {
        for stream in &row.streams {
            *edges
                .entry(row.admit_ms)
                .or_default()
                .entry(stream.server)
                .or_default() += stream.bps as i64;
            if row.depart_ms > row.admit_ms {
                *edges
                    .entry(row.depart_ms)
                    .or_default()
                    .entry(stream.server)
                    .or_default() -= stream.bps as i64;
            }
        }
    }
    let servers: Vec<u64> = {
        let mut ids: Vec<u64> = artifact
            .ledger
            .iter()
            .flat_map(|r| r.streams.iter().map(|s| s.server))
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let mut header = vec!["t (ms)".to_string()];
    header.extend(servers.iter().map(|s| format!("server {s} (Mbit/s)")));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    let mut level: BTreeMap<u64, i64> = BTreeMap::new();
    for (at_ms, deltas) in &edges {
        for (server, delta) in deltas {
            *level.entry(*server).or_default() += delta;
        }
        let mut cells = vec![at_ms.to_string()];
        cells.extend(
            servers
                .iter()
                .map(|s| format!("{:.1}", *level.get(s).unwrap_or(&0) as f64 / 1_000_000.0)),
        );
        t.row(&cells);
    }
    println!(
        "reserved bandwidth per server over virtual time ({} admissions):",
        artifact.ledger.len()
    );
    print!("{}", t.render());
}

fn print_refusals(artifact: &ExplainArtifact) {
    let causes = refusal_causes(artifact);
    if causes.is_empty() {
        println!("no commit refusals recorded");
        return;
    }
    let mut t = Table::new(&["refusal cause", "sessions affected"]);
    for (kind, sessions) in &causes {
        t.row(&[kind.clone(), sessions.to_string()]);
    }
    println!(
        "refusal causes by sessions affected (of {} retained):",
        artifact.sessions.len()
    );
    print!("{}", t.render());
}

/// Refusal kinds ranked by how many retained sessions hit each at least
/// once, descending (ties broken by name for a stable report).
fn refusal_causes(artifact: &ExplainArtifact) -> Vec<(String, usize)> {
    let mut by_kind: BTreeMap<String, usize> = BTreeMap::new();
    for se in &artifact.sessions {
        for kind in session_refusal_kinds(se) {
            *by_kind.entry(kind).or_default() += 1;
        }
    }
    let mut causes: Vec<(String, usize)> = by_kind.into_iter().collect();
    causes.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    causes
}

fn session_refusal_kinds(se: &SessionExplain) -> Vec<String> {
    let mut kinds: Vec<String> = se
        .attempts
        .iter()
        .flat_map(|a| a.decisions.refusals.iter().map(|r| r.kind().to_string()))
        .collect();
    kinds.sort();
    kinds.dedup();
    kinds
}

fn indent(text: &str) -> String {
    text.lines().map(|l| format!("  {l}\n")).collect::<String>()
}
