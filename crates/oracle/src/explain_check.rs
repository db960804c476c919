//! Explanation cross-check: the decision log must cite exactly what the
//! paper-literal reference observed.
//!
//! [`run_differential`](crate::diff::run_differential) proves the
//! optimized paths *decide* like the reference; this module proves the
//! `explain` channel *reports* those decisions faithfully. For a scenario
//! it replays the negotiation with `explain` enabled and asserts that the
//! resulting [`DecisionLog`](nod_qosneg::explain::DecisionLog):
//!
//! * names the same commit-refusal kinds and refusing servers, offer by
//!   offer, in the same attempt order as the reference's step-5 refusal
//!   log;
//! * reports the reference's winning-offer rank as `chosen_rank`;
//! * decomposes scores consistently — each recorded row cites the
//!   reference offer at its rank (variants, servers, SNS, bit-exact
//!   OIF/QoS-importance, satisfaction flag) and its CostNet + CostSer
//!   (+ copyright) sum reproduces CostDoc;
//! * and that explaining changed nothing: the explained outcome equals the
//!   plain one (same walk, explain off, fresh world) on status, reserved
//!   index and offer, the refusal records and the attempt count.
//!
//! Any violation is a [`Divergence`] on the `explain` path, shrinkable
//! like any other.

use nod_qosneg::negotiate::{NegotiationContext, NegotiationOutcome};
use nod_qosneg::{NegotiationRequest, Session};

use crate::diff::Divergence;
use crate::reference::RefOutcome;
use crate::scenario::Scenario;

/// Replay `scenario` with explanations on and cross-check the decision
/// log against the paper-literal reference. `Ok(())` means every citation
/// matches.
pub fn run_explain_crosscheck(scenario: &Scenario) -> Result<(), Box<Divergence>> {
    let built = scenario.build();
    let diverge = |detail: String| {
        Box::new(Divergence {
            scenario: scenario.clone(),
            path: "explain",
            detail,
        })
    };

    // Ground truth, on its own world.
    let (ref_farm, ref_network) = built.make_world();
    let reference = match built.reference(&ref_farm, &ref_network) {
        Ok(out) => out,
        // Hard request errors carry no decision log on either side.
        Err(_) => return Ok(()),
    };

    let (farm, network) = built.make_world();
    let ctx = NegotiationContext {
        explain: true,
        ..built.context(&farm, &network)
    };
    let session = Session::new(ctx);
    let request = NegotiationRequest::new(&built.client, built.document, &built.profile);
    let outcome = match session.submit(&request) {
        Ok(out) => out,
        Err(e) => return Err(diverge(format!("path errored ({e}) but reference ran"))),
    };
    let Some(decisions) = &outcome.decisions else {
        return Err(diverge("explain enabled but no decision log".into()));
    };

    check_refusals(decisions, &reference).map_err(diverge)?;
    if decisions.chosen_rank != reference.reserved_index.map(|i| i as u64) {
        return Err(diverge(format!(
            "chosen_rank {:?} != reference winning rank {:?}",
            decisions.chosen_rank, reference.reserved_index
        )));
    }
    check_scores(decisions, &reference, &built).map_err(diverge)?;

    // Observing must not change what is observed.
    let (plain_farm, plain_network) = built.make_world();
    let plain_ctx = NegotiationContext {
        farm: &plain_farm,
        network: &plain_network,
        explain: false,
        ..ctx
    };
    match Session::new(plain_ctx).submit(&request) {
        Ok(plain) => check_same_outcome(&outcome, &plain).map_err(diverge)?,
        Err(e) => return Err(diverge(format!("plain path errored ({e})"))),
    }
    if let Some(res) = &outcome.reservation {
        res.release(&farm, &network);
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
            ("refusals", format!("{:?}", o.refusals)),
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
/// log, `(rank, kind, server)` for `(classified index, kind, server)`, in
/// attempt order.
fn check_refusals(
    decisions: &nod_qosneg::explain::DecisionLog,
    reference: &RefOutcome,
) -> Result<(), String> {
    let got: Vec<(u64, &str, Option<u64>)> = (decisions.refusals.iter())
        .map(|r| (r.rank(), r.kind().as_str(), r.server()))
        .collect();
    let want: Vec<(u64, &str, Option<u64>)> = (reference.refusals.iter())
        .map(|(i, r)| (*i as u64, r.kind(), r.server().map(|s| s.0)))
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
