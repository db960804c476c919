//! Differential conformance sweep — the CI gate.
//!
//! ```text
//! run_oracle [--cases N] [--seed S] [--metrics-out PATH] [--stats] [--explain-check]
//! ```
//!
//! Runs `N` seeded scenarios (deterministic in `S`) through the reference
//! negotiator and every optimized execution path (`session`, `manager`,
//! `broker`). Any divergence is
//! shrunk to a minimal scenario and printed as a ready-to-paste `#[test]`;
//! the process then exits nonzero. The divergence count is recorded on the
//! `oracle.divergences` counter (written to `--metrics-out` when given).
//!
//! `--explain-check` additionally replays every divergence-free scenario
//! with explanations enabled and asserts the decision log cites exactly
//! the commit-refusal kinds, pruned-variant set, and winning-offer rank
//! the paper-literal reference observes — and that the explained outcome
//! equals the plain one field by field (status, reserved index and offer,
//! refusal list, attempt count): observing does not change what is
//! observed.

use std::collections::BTreeMap;

use nod_obs::Recorder;
use nod_oracle::diff::run_differential;
use nod_oracle::explain_check::run_explain_crosscheck;
use nod_oracle::reference::{reference_negotiate, RefContext};
use nod_oracle::scenario::Scenario;
use nod_oracle::shrink::shrink;

fn main() {
    let mut cases: u64 = 256;
    let mut seed: u64 = 7;
    let mut metrics_out: Option<String> = None;
    let mut stats = false;
    let mut explain_check = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => cases = expect_num(args.next(), "--cases"),
            "--seed" => seed = expect_num(args.next(), "--seed"),
            "--metrics-out" => metrics_out = args.next(),
            "--stats" => stats = true,
            "--explain-check" => explain_check = true,
            "--help" | "-h" => {
                eprintln!(
                    "usage: run_oracle [--cases N] [--seed S] [--metrics-out PATH] [--stats] [--explain-check]"
                );
                return;
            }
            other => {
                eprintln!("run_oracle: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let recorder = Recorder::new();
    let mut divergences = 0u64;
    let mut outcome_tally: BTreeMap<String, u64> = BTreeMap::new();
    for i in 0..cases {
        let scenario =
            Scenario::from_seed(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        if stats {
            tally(&scenario, &mut outcome_tally);
        }
        let check = run_differential(&scenario).and_then(|()| {
            if explain_check {
                run_explain_crosscheck(&scenario)
            } else {
                Ok(())
            }
        });
        if let Err(d) = check {
            divergences += 1;
            recorder.counter_with("oracle.divergences", &[("path", d.path)], 1);
            eprintln!("divergence: {d}");
            // Shrink while the same path still disagrees, then emit the
            // minimal scenario as a pasteable regression test.
            let path = d.path;
            let rerun = |s: &Scenario| {
                run_differential(s).and_then(|()| {
                    if explain_check {
                        run_explain_crosscheck(s)
                    } else {
                        Ok(())
                    }
                })
            };
            let minimal = shrink(&scenario, |s| matches!(rerun(s), Err(e) if e.path == path));
            let detail = rerun(&minimal).err().map(|e| e.detail).unwrap_or_default();
            eprintln!("shrunk repro ({path}: {detail}):\n");
            eprintln!("#[test]");
            eprintln!("fn oracle_divergence_seed_{}() {{", scenario.seed);
            eprintln!("    let scenario = {};", minimal.to_rust_literal());
            eprintln!("    nod_oracle::diff::run_differential(&scenario).unwrap();");
            eprintln!("}}\n");
        }
    }
    recorder.counter("oracle.cases", cases);
    recorder.counter("oracle.divergences", 0); // ensure the key exists even when clean

    if let Some(path) = metrics_out {
        if let Err(e) = std::fs::write(&path, recorder.snapshot().to_json_pretty()) {
            eprintln!("run_oracle: cannot write {path}: {e}");
        }
    }

    if stats {
        eprintln!("reference outcome distribution over {cases} scenarios:");
        for (k, n) in &outcome_tally {
            eprintln!("  {k:<28} {n}");
        }
    }

    if divergences > 0 {
        eprintln!("run_oracle: {divergences}/{cases} scenarios diverged");
        std::process::exit(1);
    }
    let mode = if explain_check {
        " + explain cross-check"
    } else {
        ""
    };
    println!("run_oracle: {cases} scenarios, 0 divergences (seed {seed}){mode}");
}

/// Bucket one scenario's reference outcome (vacuity check: a healthy
/// envelope hits every negotiation status).
fn tally(scenario: &Scenario, tally: &mut BTreeMap<String, u64>) {
    let built = scenario.build();
    let (farm, network) = built.make_world();
    let ctx = RefContext {
        catalog: &built.catalog,
        farm: &farm,
        network: &network,
        cost_model: &built.cost_model,
        strategy: scenario.strategy,
        guarantee: scenario.guarantee,
        enumeration_cap: 250_000,
        jitter_buffer_ms: scenario.jitter_buffer_ms,
    };
    let key = match reference_negotiate(&ctx, &built.client, built.document, &built.profile) {
        Err(e) => format!("error:{e:?}"),
        Ok(out) => {
            let refused = out.refusals.len();
            format!("{:?} (refusals<={})", out.status, refused.min(9))
        }
    };
    *tally.entry(key).or_default() += 1;
}

fn expect_num(v: Option<String>, flag: &str) -> u64 {
    v.and_then(|s| s.parse().ok()).unwrap_or_else(|| {
        eprintln!("run_oracle: {flag} needs a number");
        std::process::exit(2);
    })
}
