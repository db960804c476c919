//! Differential conformance: seeded sweep + shrinker behavior.
//!
//! The CI gate runs the full 256-case sweep via `run_oracle` (see
//! `scripts/check.sh`); this suite keeps a smaller always-on sweep inside
//! `cargo test` and pins the shrinker's contract — that it reduces an
//! interesting scenario to a ≤ 2-component / ≤ 2-variant repro.

use nod_oracle::diff::run_differential;
use nod_oracle::reference::{reference_negotiate, RefContext, RefRefusal};
use nod_oracle::scenario::Scenario;
use nod_oracle::shrink::{shrink, size};

/// The same seed schedule as `run_oracle --seed 7`.
fn nth_scenario(seed: u64, i: u64) -> Scenario {
    Scenario::from_seed(seed.wrapping_add(i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

#[test]
fn seeded_sweep_agrees_on_every_path() {
    // 64 scenarios is the in-test slice of the 256-case CI gate: every
    // execution path (reference / session / manager / broker) must agree
    // bit-exactly, and every world must return to its
    // baseline ledger after release.
    for i in 0..64 {
        let scenario = nth_scenario(7, i);
        if let Err(d) = run_differential(&scenario) {
            panic!("scenario {i} diverged: {d}");
        }
    }
}

#[test]
fn sweep_exercises_every_negotiation_status() {
    // Vacuity guard: the generator's envelope must reach all five paper
    // statuses, otherwise the sweep silently stops testing classification
    // and commitment.
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..512 {
        let scenario = nth_scenario(7, i);
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
        if let Ok(out) = reference_negotiate(&ctx, &built.client, built.document, &built.profile) {
            seen.insert(format!("{:?}", out.status));
        }
    }
    for status in [
        "Succeeded",
        "FailedWithOffer",
        "FailedTryLater",
        "FailedWithoutOffer",
        "FailedWithLocalOffer",
    ] {
        assert!(seen.contains(status), "sweep never produced {status}");
    }
}

#[test]
fn shrinker_reduces_a_seeded_scenario_to_two_by_two() {
    // Find a seeded scenario that is structurally large and exhibits a
    // server/network refusal (the stand-in for a divergence — HEAD has
    // none), then shrink it under "still refuses". The greedy passes must
    // land on a repro with at most 2 components and at most 2 variants per
    // component — small enough to read as a test case.
    let interesting = |s: &Scenario| {
        let built = s.build();
        let (farm, network) = built.make_world();
        let ctx = RefContext {
            catalog: &built.catalog,
            farm: &farm,
            network: &network,
            cost_model: &built.cost_model,
            strategy: s.strategy,
            guarantee: s.guarantee,
            enumeration_cap: 250_000,
            jitter_buffer_ms: s.jitter_buffer_ms,
        };
        match reference_negotiate(&ctx, &built.client, built.document, &built.profile) {
            Ok(out) => out
                .refusals
                .iter()
                .any(|(_, r)| matches!(r, RefRefusal::Server | RefRefusal::Network)),
            Err(_) => false,
        }
    };

    let seed_input = (0..4096)
        .map(|i| nth_scenario(7, i))
        .find(|s| {
            s.components.len() >= 3
                && s.components.iter().map(|c| c.variants.len()).sum::<usize>() >= 6
                && interesting(s)
        })
        .expect("the seeded envelope contains a large refusing scenario");
    let before = size(&seed_input);

    let minimal = shrink(&seed_input, interesting);

    assert!(
        interesting(&minimal),
        "shrinking must preserve the predicate"
    );
    assert!(
        minimal.components.len() <= 2,
        "shrunk to {} components (size {} -> {}):\n{}",
        minimal.components.len(),
        before,
        size(&minimal),
        minimal.to_rust_literal()
    );
    assert!(
        minimal.components.iter().all(|c| c.variants.len() <= 2),
        "a component kept >2 variants (size {} -> {}):\n{}",
        before,
        size(&minimal),
        minimal.to_rust_literal()
    );
    assert!(size(&minimal) < before, "shrinking must make progress");
    // The minimal repro still conforms — refusals are agreed on by every
    // path, they are not divergences.
    run_differential(&minimal).expect("shrunk scenario still conforms at HEAD");
}

#[test]
fn shrinker_is_deterministic() {
    let scenario = nth_scenario(7, 3);
    // A predicate that always holds isolates the pass order: both runs
    // must walk to the identical fixpoint.
    let a = shrink(&scenario, |_| true);
    let b = shrink(&scenario, |_| true);
    assert_eq!(a, b);
    assert_eq!(a.components.len(), 1);
}
