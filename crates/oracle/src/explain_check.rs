//! Explanation cross-check: the decision log must cite exactly what the
//! paper-literal reference observed.
//!
//! [`run_differential`](crate::diff::run_differential) proves the
//! optimized paths *decide* like the reference; this module proves the
//! `explain` channel *reports* those decisions faithfully. For a scenario
//! it replays the negotiation with `explain` enabled and asserts that the
//! resulting [`DecisionLog`](nod_qosneg::explain::DecisionLog):
//!
//! * names the same commit-refusal kinds, offer by offer, in the same
//!   attempt order as the reference's step-5 refusal log;
//! * reports the reference's winning-offer rank as `chosen_rank`;
//! * decomposes scores consistently — each recorded row cites the
//!   reference offer at its rank (variants, servers, SNS, bit-exact
//!   OIF/QoS-importance, satisfaction flag) and its CostNet + CostSer
//!   (+ copyright) sum reproduces CostDoc;
//! * with dominance pruning enabled, names exactly the victim set a
//!   pairwise sweep of the reference's full classified list identifies,
//!   with every cited dominator actually dominating its victim;
//! * and that explaining changed nothing: the explained outcome equals the
//!   plain one (same walk, explain off, fresh world) on status, reserved
//!   index and offer, the `(index, CommitFailure)` list and the attempt
//!   count.
//!
//! Any violation is a [`Divergence`] on the `explain` / `explain-pruned`
//! path, shrinkable like any other.

use std::collections::BTreeSet;

use nod_mmdoc::{Language, MediaQos};
use nod_qosneg::negotiate::{NegotiationContext, NegotiationOutcome, StreamingMode};
use nod_qosneg::{NegotiationRequest, Session};

use crate::diff::Divergence;
use crate::reference::{reference_negotiate, RefContext, RefOffer, RefOutcome};
use crate::scenario::Scenario;

/// Replay `scenario` with explanations on and cross-check the decision
/// log against the paper-literal reference. `Ok(())` means every citation
/// matches.
pub fn run_explain_crosscheck(scenario: &Scenario) -> Result<(), Box<Divergence>> {
    let built = scenario.build();
    let diverge = |path: &'static str, detail: String| {
        Box::new(Divergence {
            scenario: scenario.clone(),
            path,
            detail,
        })
    };

    // Ground truth, on its own world.
    let (ref_farm, ref_network) = built.make_world();
    let ref_ctx = RefContext {
        catalog: &built.catalog,
        farm: &ref_farm,
        network: &ref_network,
        cost_model: &built.cost_model,
        strategy: scenario.strategy,
        guarantee: scenario.guarantee,
        enumeration_cap: 250_000,
        jitter_buffer_ms: scenario.jitter_buffer_ms,
    };
    let reference =
        match reference_negotiate(&ref_ctx, &built.client, built.document, &built.profile) {
            Ok(out) => out,
            // Hard request errors carry no decision log on either side.
            Err(_) => return Ok(()),
        };

    for (path, prune) in [("explain", false), ("explain-pruned", true)] {
        let (farm, network) = built.make_world();
        let ctx = NegotiationContext {
            catalog: &built.catalog,
            farm: &farm,
            network: &network,
            cost_model: &built.cost_model,
            strategy: scenario.strategy,
            guarantee: scenario.guarantee,
            enumeration_cap: 250_000,
            jitter_buffer_ms: scenario.jitter_buffer_ms,
            prune_dominated: prune,
            streaming: StreamingMode::Auto,
            recorder: None,
            explain: true,
        };
        let session = Session::new(ctx);
        let request = NegotiationRequest::new(&built.client, built.document, &built.profile);
        let outcome = match session.submit(&request) {
            Ok(out) => out,
            Err(e) => {
                return Err(diverge(
                    path,
                    format!("path errored ({e}) but reference ran"),
                ))
            }
        };
        let Some(decisions) = &outcome.decisions else {
            return Err(diverge(path, "explain enabled but no decision log".into()));
        };

        if prune {
            check_pruned_set(decisions, &reference, &built).map_err(|d| diverge(path, d))?;
            // Pruning legitimately reshapes ranks and the step-5 fallback
            // chain; the refusal/score citations are checked unpruned.
            continue;
        }

        if !decisions.pruned.is_empty() {
            return Err(diverge(
                path,
                format!(
                    "{} prune records with pruning disabled",
                    decisions.pruned.len()
                ),
            ));
        }
        check_refusals(decisions, &reference).map_err(|d| diverge(path, d))?;
        if decisions.chosen_rank != reference.reserved_index.map(|i| i as u64) {
            return Err(diverge(
                path,
                format!(
                    "chosen_rank {:?} != reference winning rank {:?}",
                    decisions.chosen_rank, reference.reserved_index
                ),
            ));
        }
        check_scores(decisions, &reference, &built).map_err(|d| diverge(path, d))?;

        // Observing must not change what is observed.
        let (plain_farm, plain_network) = built.make_world();
        let plain_ctx = NegotiationContext {
            farm: &plain_farm,
            network: &plain_network,
            explain: false,
            ..ctx
        };
        match Session::new(plain_ctx).submit(&request) {
            Ok(plain) => check_same_outcome(&outcome, &plain).map_err(|d| diverge(path, d))?,
            Err(e) => return Err(diverge(path, format!("plain path errored ({e})"))),
        }
        if let Some(res) = &outcome.reservation {
            res.release(&farm, &network);
        }
    }
    Ok(())
}

/// The explained outcome must equal the plain one, field by field
/// (compared as `Debug` text, so a NaN score equals itself).
fn check_same_outcome(
    explained: &NegotiationOutcome,
    plain: &NegotiationOutcome,
) -> Result<(), String> {
    let fields = |o: &NegotiationOutcome| {
        [
            ("status", format!("{:?}", o.status)),
            ("reserved_index", format!("{:?}", o.reserved_index)),
            ("reserved_offer", format!("{:?}", o.reserved_offer)),
            ("commit_failures", format!("{:?}", o.commit_failures)),
            (
                "reservation_attempts",
                o.trace.reservation_attempts.to_string(),
            ),
        ]
    };
    for ((name, got), (_, want)) in fields(explained).into_iter().zip(fields(plain)) {
        if got != want {
            return Err(format!("explained {name} {got} != plain {want}"));
        }
    }
    Ok(())
}

/// The log's refusal citations must be the reference's step-5 refusal
/// log, `(rank, kind)` for `(classified index, kind)`, in attempt order.
fn check_refusals(
    decisions: &nod_qosneg::explain::DecisionLog,
    reference: &RefOutcome,
) -> Result<(), String> {
    let got: Vec<(u64, &str)> = decisions
        .refusals
        .iter()
        .map(|r| (r.rank, r.kind.as_str()))
        .collect();
    let want: Vec<(u64, &str)> = reference
        .refusals
        .iter()
        .map(|(i, r)| (*i as u64, r.kind()))
        .collect();
    if got != want {
        return Err(format!("refusal citations {got:?} != reference {want:?}"));
    }
    Ok(())
}

/// Every recorded score row must cite the reference offer at its rank and
/// decompose its cost back to CostDoc.
fn check_scores(
    decisions: &nod_qosneg::explain::DecisionLog,
    reference: &RefOutcome,
    built: &crate::scenario::BuiltScenario,
) -> Result<(), String> {
    for row in &decisions.scores {
        let Some(want) = reference.ordered.get(row.rank as usize) else {
            return Err(format!(
                "score row cites rank {} but the reference classified only {} offers",
                row.rank,
                reference.ordered.len()
            ));
        };
        let want_streams: Vec<(u64, u64)> = want
            .variant_ids
            .iter()
            .zip(&want.servers)
            .map(|(v, s)| (v.0, s.0))
            .collect();
        if row.streams.as_slice() != want_streams.as_slice() {
            return Err(format!(
                "rank {} streams {:?} != reference {want_streams:?}",
                row.rank, row.streams
            ));
        }
        if row.sns != want.sns {
            return Err(format!(
                "rank {} sns {} != reference {}",
                row.rank, row.sns, want.sns
            ));
        }
        if row.oif.to_bits() != want.oif.to_bits()
            || row.qos_importance.to_bits() != want.qos_importance.to_bits()
        {
            return Err(format!(
                "rank {} score ({}, {}) != reference ({}, {}) (bit-exact)",
                row.rank, row.qos_importance, row.oif, want.qos_importance, want.oif
            ));
        }
        if row.satisfies_request != want.satisfies_request {
            return Err(format!(
                "rank {} satisfies_request {} != reference {}",
                row.rank, row.satisfies_request, want.satisfies_request
            ));
        }
        if row.cost_total != want.cost {
            return Err(format!(
                "rank {} cost_total {} != reference CostDoc {} millis",
                row.rank,
                row.cost_total.millis(),
                want.cost.millis()
            ));
        }
        let mut recomposed = built.cost_model.copyright;
        recomposed += row.cost_net;
        recomposed += row.cost_ser;
        if recomposed != row.cost_total {
            return Err(format!(
                "rank {} CostNet {} + CostSer {} + copyright {} = {} != CostDoc {} millis",
                row.rank,
                row.cost_net.millis(),
                row.cost_ser.millis(),
                built.cost_model.copyright.millis(),
                recomposed.millis(),
                row.cost_total.millis()
            ));
        }
        if row.chosen != (decisions.chosen_rank == Some(row.rank)) {
            return Err(format!(
                "rank {} chosen flag {} inconsistent with chosen_rank {:?}",
                row.rank, row.chosen, decisions.chosen_rank
            ));
        }
    }
    Ok(())
}

/// With pruning on, the victim set must be exactly the offers a pairwise
/// dominance pass over the reference's full classified list removes, and
/// every cited dominator must actually dominate its victim. Pruning only
/// fires under a monotone importance profile (its soundness
/// precondition), so a non-monotone profile expects an empty set.
fn check_pruned_set(
    decisions: &nod_qosneg::explain::DecisionLog,
    reference: &RefOutcome,
    built: &crate::scenario::BuiltScenario,
) -> Result<(), String> {
    let monotone = nod_qosneg::prune::importance_is_monotone(&built.profile.importance);
    let expected: BTreeSet<Vec<u64>> = if monotone {
        reference
            .ordered
            .iter()
            .filter(|victim| reference.ordered.iter().any(|d| ref_dominates(d, victim)))
            .map(|victim| victim.variant_ids.iter().map(|v| v.0).collect())
            .collect()
    } else {
        BTreeSet::new()
    };
    let got: BTreeSet<Vec<u64>> = decisions
        .pruned
        .iter()
        .map(|p| p.victim_variants.clone())
        .collect();
    if got != expected {
        let missing: Vec<_> = expected.difference(&got).collect();
        let extra: Vec<_> = got.difference(&expected).collect();
        return Err(format!(
            "pruned-variant set disagrees with the reference's dominated set: \
             missing {missing:?}, extra {extra:?}"
        ));
    }
    let by_variants = |ids: &[u64]| {
        reference
            .ordered
            .iter()
            .find(|o| o.variant_ids.iter().map(|v| v.0).eq(ids.iter().copied()))
    };
    for p in &decisions.pruned {
        let (Some(victim), Some(dominator)) = (
            by_variants(&p.victim_variants),
            by_variants(&p.dominator_variants),
        ) else {
            return Err(format!(
                "prune record cites offers the reference never classified: \
                 victim {:?} dominator {:?}",
                p.victim_variants, p.dominator_variants
            ));
        };
        if !ref_dominates(dominator, victim) {
            return Err(format!(
                "cited dominator {:?} does not dominate victim {:?} under the reference",
                p.dominator_variants, p.victim_variants
            ));
        }
        if p.victim_cost != victim.cost || p.dominator_cost != dominator.cost {
            return Err(format!(
                "prune record costs ({}, {}) != reference ({}, {}) millis",
                p.victim_cost.millis(),
                p.dominator_cost.millis(),
                victim.cost.millis(),
                dominator.cost.millis()
            ));
        }
    }
    Ok(())
}

/// The paper-side restatement of [`nod_qosneg::prune::dominates`] over
/// reference offers: componentwise QoS at least as good, no more
/// expensive, and strictly better somewhere. Offers of one document share
/// the component order, so monomedia alignment is implicit.
fn ref_dominates(a: &RefOffer, b: &RefOffer) -> bool {
    if a.cost > b.cost || a.qos.len() != b.qos.len() || a.variant_ids == b.variant_ids {
        return false;
    }
    if !a.qos.iter().zip(&b.qos).all(|(qa, qb)| ref_covers(qa, qb)) {
        return false;
    }
    a.cost < b.cost || a.qos.iter().zip(&b.qos).any(|(qa, qb)| !ref_covers(qb, qa))
}

/// "At least as good for every request": `meets`, except that between two
/// *offered* tracks `Language::Any` is not a two-way wildcard — only the
/// language-neutral track satisfies every language request, so it ranks
/// above a specific language and never below one.
fn ref_covers(a: &MediaQos, b: &MediaQos) -> bool {
    let language = |qos: &MediaQos| match qos {
        MediaQos::Audio(q) => Some(q.language),
        MediaQos::Text(q) => Some(q.language),
        _ => None,
    };
    let neutral_below_specific =
        language(b) == Some(Language::Any) && language(a) != Some(Language::Any);
    a.meets(b) && !neutral_below_specific
}
