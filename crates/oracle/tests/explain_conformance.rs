//! Explanation conformance: a seeded sweep asserting that for every
//! divergence-free scenario, the decision log names the same refusal
//! kinds, the same score decomposition, and the same winning-offer rank
//! as the paper-literal reference.

use nod_oracle::diff::run_differential;
use nod_oracle::explain_check::run_explain_crosscheck;
use nod_oracle::scenario::Scenario;

/// The same seed schedule as `run_oracle --seed 7`.
fn nth_scenario(seed: u64, i: u64) -> Scenario {
    Scenario::from_seed(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[test]
fn explanations_cite_what_the_reference_observes_across_256_scenarios() {
    let mut checked = 0u32;
    for i in 0..256 {
        let scenario = nth_scenario(7, i);
        // The differential sweep gates decisions; only divergence-free
        // scenarios have an agreed ground truth to cite.
        if run_differential(&scenario).is_err() {
            continue;
        }
        if let Err(d) = run_explain_crosscheck(&scenario) {
            panic!("scenario {i}: explanation diverged from the reference: {d}");
        }
        checked += 1;
    }
    // Vacuity guard: the sweep must actually exercise the cross-check.
    assert!(
        checked >= 200,
        "only {checked}/256 scenarios were divergence-free"
    );
}
