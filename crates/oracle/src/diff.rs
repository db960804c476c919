//! The differential runner: one scenario, every execution path, bit-exact
//! agreement or a [`Divergence`].
//!
//! Each path gets its own freshly built world (farm + network with the
//! scenario's pre-existing load), because reservations are stateful and a
//! run must never observe another run's leftovers. The reference outcome
//! is the ground truth; every optimized path — `Session::submit`, the
//! owned `QosManager`, and a single-session broker schedule — must match
//! it on:
//!
//! * negotiation status and reserved-offer identity (variants, CostDoc,
//!   SNS, OIF bits, satisfaction flag) and its classified index;
//! * the ordered-offer list (full list up to [`ORDERED_PREFIX`] entries,
//!   prefix beyond), entry by entry;
//! * the step-5 refusal log (classified index + refusal kind);
//! * the `FailedWithLocalOffer` counter-offer;
//! * CostDoc re-derived from the §7 cost model against the reserved
//!   offer's stored cost; and
//! * the capacity ledger — identical while the reservation is held, and
//!   identical to the pre-negotiation baseline after release.

use nod_broker::{Broker, BrokerConfig, FleetSpec, SessionFate, SessionSpec};
use nod_cmfs::ServerFarm;
use nod_mmdoc::ServerId;
use nod_netsim::Network;
use nod_qosneg::negotiate::{NegotiationContext, StreamingMode};
use nod_qosneg::{
    ClassificationStrategy, ManagerConfig, Money, NegotiationOutcome, NegotiationRequest, QosError,
    QosManager, ScoredOffer, Session,
};

use crate::reference::{reference_negotiate, RefContext, RefError, RefOutcome, RefRefusal};
use crate::scenario::{BuiltScenario, Scenario};

/// Ordered-offer entries compared in full; longer lists compare this
/// prefix (plus total length).
pub const ORDERED_PREFIX: usize = 256;

/// One disagreement between the reference and an optimized path.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The scenario that exposed it.
    pub scenario: Scenario,
    /// Which execution path disagreed.
    pub path: &'static str,
    /// What disagreed, human-readable.
    pub detail: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] seed {}: {}",
            self.path, self.scenario.seed, self.detail
        )
    }
}

/// Everything reservation-shaped the world can hold — captured before
/// negotiation (baseline), while an offer is held, and after release.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Ledger {
    farm_streams: usize,
    farm_round_us: u64,
    farm_bps: u64,
    per_server_streams: Vec<usize>,
    net_reservations: usize,
    net_bps: u64,
}

impl Ledger {
    fn capture(farm: &ServerFarm, network: &Network, servers: u8) -> Ledger {
        let usage = farm.usage();
        Ledger {
            farm_streams: usage.streams,
            farm_round_us: usage.round_us,
            farm_bps: usage.bps,
            per_server_streams: (0..servers as u64)
                .map(|id| {
                    farm.server(ServerId(id))
                        .map(|s| s.active_streams())
                        .unwrap_or(0)
                })
                .collect(),
            net_reservations: network.active_reservations(),
            net_bps: network.total_reserved_bps(),
        }
    }
}

/// Run one scenario through the reference and every optimized path.
/// `Ok(())` means bit-exact agreement everywhere.
pub fn run_differential(scenario: &Scenario) -> Result<(), Box<Divergence>> {
    let built = scenario.build();
    let diverge = |path: &'static str, detail: String| {
        Box::new(Divergence {
            scenario: scenario.clone(),
            path,
            detail,
        })
    };

    // ---- Ground truth -------------------------------------------------
    let (ref_farm, ref_network) = built.make_world();
    let baseline = Ledger::capture(&ref_farm, &ref_network, scenario.servers);
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
    let reference = reference_negotiate(&ref_ctx, &built.client, built.document, &built.profile);

    // CostDoc self-check: the reference's own reserved cost must re-derive
    // from the §7 model (guards the oracle itself against drift).
    if let Ok(out) = &reference {
        if let Some(idx) = out.reserved_index {
            let offer = &out.ordered[idx];
            let recomputed = recompute_cost(&built, &offer.variant_ids);
            if recomputed != offer.cost {
                return Err(diverge(
                    "reference",
                    format!(
                        "CostDoc recomputation {} != stored {}",
                        recomputed.millis(),
                        offer.cost.millis()
                    ),
                ));
            }
        }
    }
    let ref_held = Ledger::capture(&ref_farm, &ref_network, scenario.servers);

    // ---- Optimized paths ----------------------------------------------
    {
        let path = "session";
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
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder: None,
            explain: false,
        };
        let session = Session::new(ctx);
        let request = NegotiationRequest::new(&built.client, built.document, &built.profile);
        let outcome = session.submit(&request);
        compare_path(
            scenario, &built, &reference, &ref_held, &baseline, &outcome, &farm, &network, path,
        )?;
        if let Ok(out) = &outcome {
            if let Some(res) = &out.reservation {
                res.release(&farm, &network);
            }
        }
        let after = Ledger::capture(&farm, &network, scenario.servers);
        if after != baseline {
            return Err(diverge(
                path,
                format!("post-release ledger {after:?} != baseline {baseline:?}"),
            ));
        }
    }

    // ---- The owned-manager entry point --------------------------------
    {
        let (farm, network) = built.make_world();
        let manager = QosManager::new(
            built.catalog.clone(),
            farm.clone(),
            network,
            built.cost_model.clone(),
            ManagerConfig {
                strategy: scenario.strategy,
                guarantee: scenario.guarantee,
                jitter_buffer_ms: scenario.jitter_buffer_ms,
                ..ManagerConfig::default()
            },
        );
        let request = NegotiationRequest::new(&built.client, built.document, &built.profile);
        let outcome = manager.submit(&request);
        let session = manager.session();
        let mgr_network = session.context().network;
        compare_path(
            scenario,
            &built,
            &reference,
            &ref_held,
            &baseline,
            &outcome,
            &farm,
            mgr_network,
            "manager",
        )?;
        if let Ok(out) = &outcome {
            if let Some(res) = &out.reservation {
                manager.release(res);
            }
        }
        let after = Ledger::capture(&farm, mgr_network, scenario.servers);
        if after != baseline {
            return Err(diverge(
                "manager",
                format!("post-release ledger {after:?} != baseline {baseline:?}"),
            ));
        }
    }

    // ---- Single-session broker schedule --------------------------------
    {
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
            prune_dominated: false,
            streaming: StreamingMode::Auto,
            recorder: None,
            explain: false,
        };
        let broker = Broker::new(
            ctx,
            BrokerConfig {
                retry: nod_qosneg::RetryPolicy::NO_RETRY,
                ..BrokerConfig::era_default()
            },
        );
        let spec = SessionSpec {
            client: &built.client,
            document: built.document,
            profile: &built.profile,
            arrival_ms: 0,
            hold_ms: Some(1_000),
        };
        let report = broker.drive(&FleetSpec::new(&[spec]));
        let expected = expected_fate(&reference);
        let got = report.results.first().map(|r| r.fate);
        if got != Some(expected) {
            return Err(diverge(
                "broker",
                format!("fate {got:?} != expected {expected:?} (from reference status)"),
            ));
        }
        if report.leaked_streams != 0 {
            return Err(diverge(
                "broker",
                format!(
                    "{} leaked streams after the schedule drained",
                    report.leaked_streams
                ),
            ));
        }
        let after = Ledger::capture(&farm, &network, scenario.servers);
        if after != baseline {
            return Err(diverge(
                "broker",
                format!("post-run ledger {after:?} != baseline {baseline:?}"),
            ));
        }
    }

    Ok(())
}

/// The broker fate the reference outcome predicts for a lone,
/// no-retry, accept-degraded session.
fn expected_fate(reference: &Result<RefOutcome, RefError>) -> SessionFate {
    use nod_qosneg::NegotiationStatus as S;
    match reference {
        Err(_) => SessionFate::Errored,
        Ok(out) => match out.status {
            S::Succeeded => SessionFate::Admitted { degraded: false },
            S::FailedWithOffer => SessionFate::Admitted { degraded: true },
            S::FailedWithoutOffer | S::FailedWithLocalOffer => SessionFate::Rejected,
            S::FailedTryLater => {
                // The broker starves only on transient refusals (or an
                // empty refusal log); a terminal refusal rejects.
                let transient = out.refusals.is_empty()
                    || out.refusals.iter().any(|(_, r)| {
                        matches!(
                            r,
                            RefRefusal::Server | RefRefusal::Network | RefRefusal::PathQos
                        )
                    });
                if transient {
                    SessionFate::Starved
                } else {
                    SessionFate::Rejected
                }
            }
            _ => SessionFate::Errored,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn compare_path(
    scenario: &Scenario,
    built: &BuiltScenario,
    reference: &Result<RefOutcome, RefError>,
    ref_held: &Ledger,
    baseline: &Ledger,
    outcome: &Result<NegotiationOutcome, QosError>,
    farm: &ServerFarm,
    network: &Network,
    path: &'static str,
) -> Result<(), Box<Divergence>> {
    let diverge = |detail: String| {
        Err(Box::new(Divergence {
            scenario: scenario.clone(),
            path,
            detail,
        }))
    };

    let reference = match (reference, outcome) {
        (Err(re), Err(qe)) => {
            // Both refused the request outright — agreement (the exact
            // error enums live in different crates by design).
            let _ = (re, qe);
            return Ok(());
        }
        (Err(re), Ok(out)) => {
            return diverge(format!(
                "reference errored ({re:?}) but path returned status {:?}",
                out.status
            ))
        }
        (Ok(r), Err(qe)) => {
            return diverge(format!(
                "reference status {:?} but path errored ({qe})",
                r.status
            ))
        }
        (Ok(r), Ok(_)) => r,
    };
    let outcome = outcome.as_ref().expect("checked above");

    if outcome.status != reference.status {
        return diverge(format!(
            "status {:?} != reference {:?}",
            outcome.status, reference.status
        ));
    }
    if outcome.reserved_index != reference.reserved_index {
        return diverge(format!(
            "reserved_index {:?} != reference {:?}",
            outcome.reserved_index, reference.reserved_index
        ));
    }
    if outcome.local_offer != reference.local_offer {
        return diverge(format!(
            "local_offer {:?} != reference {:?}",
            outcome.local_offer, reference.local_offer
        ));
    }

    // Reserved offer, field by field.
    match (&outcome.reserved_offer, reference.reserved_index) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => {
            return diverge("reserved_offer presence mismatch".into())
        }
        (Some(got), Some(idx)) => {
            let want = &reference.ordered[idx];
            if let Some(d) = scored_offer_mismatch(got, want) {
                return diverge(format!("reserved offer: {d}"));
            }
            let recomputed = recompute_cost(built, &want.variant_ids);
            if recomputed != got.offer.cost {
                return diverge(format!(
                    "CostDoc recomputation {} != path cost {}",
                    recomputed.millis(),
                    got.offer.cost.millis()
                ));
            }
        }
    }

    // Ordered-offer list (prefix beyond ORDERED_PREFIX).
    let slice = outcome.ordered_offers.as_slice();
    if slice.len() != reference.ordered.len() {
        return diverge(format!(
            "ordered_offers len {} != reference {}",
            slice.len(),
            reference.ordered.len()
        ));
    }
    for (i, (got, want)) in slice
        .iter()
        .zip(reference.ordered.iter())
        .take(ORDERED_PREFIX)
        .enumerate()
    {
        if let Some(d) = scored_offer_mismatch(got, want) {
            return diverge(format!("ordered_offers[{i}]: {d}"));
        }
    }

    // Step-5 refusal log.
    let got_failures: Vec<(usize, &'static str)> = outcome
        .commit_failures
        .iter()
        .map(|(i, f)| (*i, f.kind()))
        .collect();
    let want_failures: Vec<(usize, &'static str)> = reference
        .refusals
        .iter()
        .map(|(i, r)| (*i, r.kind()))
        .collect();
    if got_failures != want_failures {
        return diverge(format!(
            "commit failures {got_failures:?} != reference {want_failures:?}"
        ));
    }

    // Capacity ledger while the reservation is held.
    let held = Ledger::capture(farm, network, scenario.servers);
    if held != *ref_held {
        return diverge(format!(
            "held ledger {held:?} != reference {ref_held:?} (baseline {baseline:?})"
        ));
    }
    Ok(())
}

/// Field-level comparison of one classified offer; `None` means equal.
fn scored_offer_mismatch(got: &ScoredOffer, want: &crate::reference::RefOffer) -> Option<String> {
    let got_ids: Vec<_> = got.offer.variants.iter().map(|v| v.id).collect();
    if got_ids != want.variant_ids {
        return Some(format!("variants {got_ids:?} != {:?}", want.variant_ids));
    }
    if got.offer.cost != want.cost {
        return Some(format!(
            "cost {} != {} millis",
            got.offer.cost.millis(),
            want.cost.millis()
        ));
    }
    if got.sns != want.sns {
        return Some(format!("sns {:?} != {:?}", got.sns, want.sns));
    }
    if got.oif.to_bits() != want.oif.to_bits() {
        return Some(format!("oif {:?} != {:?} (bit-exact)", got.oif, want.oif));
    }
    if got.qos_importance.to_bits() != want.qos_importance.to_bits() {
        return Some(format!(
            "qos_importance {:?} != {:?} (bit-exact)",
            got.qos_importance, want.qos_importance
        ));
    }
    if got.satisfies_request != want.satisfies_request {
        return Some(format!(
            "satisfies_request {} != {}",
            got.satisfies_request, want.satisfies_request
        ));
    }
    None
}

/// Re-derive CostDoc from the §7 model for a chosen variant list.
fn recompute_cost(built: &BuiltScenario, variant_ids: &[nod_mmdoc::VariantId]) -> Money {
    let doc = built
        .catalog
        .document(built.document)
        .expect("document exists");
    let mut cost = built.cost_model.copyright;
    for (id, mono) in variant_ids.iter().zip(doc.monomedia()) {
        let v = built.catalog.variant(*id).expect("variant exists");
        let (net, ser) =
            built
                .cost_model
                .monomedia_cost(v, mono.duration_ms, built.scenario.guarantee);
        cost += net;
        cost += ser;
    }
    cost
}

/// A strategy's short name for logs.
pub fn strategy_name(s: ClassificationStrategy) -> &'static str {
    match s {
        ClassificationStrategy::SnsThenOif => "sns-then-oif",
        ClassificationStrategy::OifOnly => "oif-only",
        ClassificationStrategy::CostOnly => "cost-only",
        ClassificationStrategy::QosOnly => "qos-only",
    }
}
