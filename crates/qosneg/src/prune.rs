//! Dominated-offer pruning — an optimization ablation.
//!
//! Offer enumeration is a cartesian product; most of it is chaff. An offer
//! **A dominates B** when A's QoS meets B's componentwise *and* A costs no
//! more (a language-neutral track ranks above any specific language, see
//! `covers`). Under a *monotone* importance profile (better parameter
//! values never carry lower importance — true of the defaults and of any
//! profile a rational GUI produces), a dominated offer can never precede
//! its dominator in the classification:
//!
//! * SNS: A meets whatever B meets, and `A.cost ≤ B.cost`, so
//!   `SNS(A) ≤ SNS(B)` and `satisfies_request(A) ≥ satisfies_request(B)`;
//! * OIF: monotone importance gives `QoS_imp(A) ≥ QoS_imp(B)`, and the
//!   cost term only helps A further.
//!
//! One caveat keeps pruning an *opt-in* pre-pass rather than a default:
//! step 5 uses the classified list as a fallback chain, and a dominated
//! offer can occasionally be reservable when its dominator is not (the
//! better-and-cheaper offer may sit on a busier server). Callers who want
//! the paper's exact fallback semantics keep the full set; the ablation
//! bench (B7) measures what pruning buys when enabled.

use nod_mmdoc::{Language, MediaQos};

use crate::explain::PruneRecord;
use crate::importance::ImportanceProfile;
use crate::offer::SystemOffer;

/// Is the profile monotone — do better parameter values never carry lower
/// importance? (The precondition for dominance pruning.)
pub fn importance_is_monotone(imp: &ImportanceProfile) -> bool {
    let non_decreasing = |xs: &[f64]| xs.windows(2).all(|w| w[0] <= w[1] + 1e-12);
    let curve_monotone =
        |anchors: &[(f64, f64)]| anchors.windows(2).all(|w| w[0].1 <= w[1].1 + 1e-12);
    non_decreasing(&imp.color)
        && non_decreasing(&imp.audio_quality)
        && curve_monotone(imp.frame_rate.anchors())
        && curve_monotone(imp.resolution.anchors())
}

/// Is QoS `a` at least as good as `b` under *every* requirement `b` could
/// satisfy? [`MediaQos::meets`], except for track languages: `meets`
/// treats `Language::Any` as a wildcard on both sides, which is right for
/// a requirement but not between two *offered* tracks — a French track
/// would "meet" a language-neutral one although only the neutral track
/// satisfies an English request. Here a language-neutral track is the top
/// of the language order: `a` covers `b` when their languages are equal or
/// `a` is neutral. That makes the relation — and with it dominance —
/// transitive, which the front-only sweep below relies on.
fn covers(a: &MediaQos, b: &MediaQos) -> bool {
    let language = |a: Language, b: Language| a == b || a == Language::Any;
    match (a, b) {
        (MediaQos::Audio(a), MediaQos::Audio(b)) => {
            a.quality >= b.quality && language(a.language, b.language)
        }
        (MediaQos::Text(a), MediaQos::Text(b)) => language(a.language, b.language),
        _ => a.meets(b),
    }
}

/// Does offer `a` dominate offer `b`? Requires the offers to cover the
/// same components in the same order (true for enumeration output).
pub fn dominates(a: &SystemOffer, b: &SystemOffer) -> bool {
    if a.cost > b.cost || a.variants.len() != b.variants.len() {
        return false;
    }
    let component_wise = a
        .variants
        .iter()
        .zip(&b.variants)
        .all(|(va, vb)| va.monomedia == vb.monomedia && covers(&va.qos, &vb.qos));
    if !component_wise {
        return false;
    }
    // Strictness: cheaper, or strictly better somewhere.
    a.cost < b.cost
        || a.variants
            .iter()
            .zip(&b.variants)
            .any(|(va, vb)| !covers(&vb.qos, &va.qos))
}

/// Remove offers dominated by another offer in the set. Returns the
/// surviving offers (input order preserved) and the number pruned.
///
/// Sort-by-cost sweep: a dominator never costs more than its victim, so
/// after ordering by cost each offer only needs checking against the
/// non-dominated sweep prefix (the running Pareto front) plus its own
/// equal-cost run, instead of every other offer. Dominance is transitive,
/// so checking against the front alone removes exactly the offers the
/// pairwise O(n²) pass removed: every dominated offer has a maximal
/// dominator, and maximal offers always join the front. Worst case (all
/// offers incomparable) is still quadratic, but on enumeration output the
/// front stays small and dominated offers exit at the first hit.
pub fn prune_dominated(offers: Vec<SystemOffer>) -> (Vec<SystemOffer>, usize) {
    let keep = keep_mask(&offers, None);
    let before = offers.len();
    let survivors: Vec<SystemOffer> = offers
        .into_iter()
        .zip(keep)
        .filter_map(|(offer, k)| k.then_some(offer))
        .collect();
    let pruned = before - survivors.len();
    (survivors, pruned)
}

/// The sweep itself: `keep[i]` is false iff `offers[i]` is dominated by
/// another offer of the set. Negotiation applies the mask to the engine's
/// enumeration ranks instead of thinning a materialized list. With
/// `records`, every pruned offer is logged with the first dominating offer
/// the sweep found, in sweep (cost) order.
pub fn keep_mask(offers: &[SystemOffer], mut records: Option<&mut Vec<PruneRecord>>) -> Vec<bool> {
    let n = offers.len();
    let mut keep = vec![true; n];
    let mut by_cost: Vec<usize> = (0..n).collect();
    by_cost.sort_by_key(|&i| offers[i].cost); // stable: ties keep input order
    let mut front: Vec<usize> = Vec::new();
    let mut run_start = 0;
    while run_start < by_cost.len() {
        // An equal-cost run: members can dominate each other (equal cost,
        // strictly better QoS) regardless of sweep position, so the run is
        // judged as a block — against the cheaper front and run-internally.
        let cost = offers[by_cost[run_start]].cost;
        let mut run_end = run_start + 1;
        while run_end < by_cost.len() && offers[by_cost[run_end]].cost == cost {
            run_end += 1;
        }
        let run = &by_cost[run_start..run_end];
        for &i in run {
            // `find` short-circuits exactly where the old `any` did, so the
            // survivor set is unchanged; the index is only kept for records.
            let dominator = front
                .iter()
                .copied()
                .find(|&s| dominates(&offers[s], &offers[i]))
                .or_else(|| {
                    run.iter()
                        .copied()
                        .find(|&j| j != i && dominates(&offers[j], &offers[i]))
                });
            if let Some(d) = dominator {
                keep[i] = false;
                if let Some(recs) = records.as_deref_mut() {
                    recs.push(PruneRecord {
                        victim_variants: offers[i].variants.iter().map(|v| v.id.0).collect(),
                        victim_cost: offers[i].cost,
                        dominator_variants: offers[d].variants.iter().map(|v| v.id.0).collect(),
                        dominator_cost: offers[d].cost,
                    });
                }
            }
        }
        front.extend(run.iter().copied().filter(|&i| keep[i]));
        run_start = run_end;
    }
    keep
}

/// QoS values of an offer (helper for tests).
pub fn offer_qos(offer: &SystemOffer) -> Vec<&MediaQos> {
    offer.qos_values().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::{classify, ClassificationStrategy};
    use crate::money::Money;
    use crate::profile::{MmQosSpec, UserProfile};
    use nod_mmdoc::prelude::*;

    fn offer(id: u64, color: ColorDepth, px: u32, fps: u32, cost_millis: i64) -> SystemOffer {
        SystemOffer {
            variants: vec![Variant {
                id: VariantId(id),
                monomedia: MonomediaId(1),
                format: Format::Mpeg1,
                qos: MediaQos::Video(VideoQos {
                    color,
                    resolution: Resolution::new(px),
                    frame_rate: FrameRate::new(fps),
                }),
                blocks: BlockStats::new(10_000, 5_000),
                blocks_per_second: fps,
                file_bytes: 1_000_000,
                server: ServerId(0),
            }],
            cost: Money::from_millis(cost_millis),
        }
    }

    #[test]
    fn default_importance_is_monotone() {
        assert!(importance_is_monotone(&ImportanceProfile::default()));
        assert!(importance_is_monotone(&ImportanceProfile::paper_example(
            4.0
        )));
        // A perverse profile (prefers frozen rate) is not.
        let perverse = ImportanceProfile {
            frame_rate: crate::importance::PiecewiseLinear::new(vec![(1.0, 9.0), (60.0, 1.0)]),
            ..ImportanceProfile::default()
        };
        assert!(!importance_is_monotone(&perverse));
    }

    #[test]
    fn dominance_requires_better_and_cheaper() {
        let good_cheap = offer(1, ColorDepth::Color, 640, 25, 3_000);
        let bad_dear = offer(2, ColorDepth::Grey, 640, 15, 4_000);
        let bad_cheap = offer(3, ColorDepth::Grey, 640, 15, 2_000);
        let good_dear = offer(4, ColorDepth::SuperColor, 640, 30, 9_000);
        assert!(dominates(&good_cheap, &bad_dear));
        assert!(!dominates(&bad_dear, &good_cheap));
        assert!(!dominates(&good_cheap, &bad_cheap), "cheaper escapes");
        assert!(!dominates(&good_cheap, &good_dear), "better escapes");
        // Equal offers do not dominate each other (no strict edge).
        let twin = offer(5, ColorDepth::Color, 640, 25, 3_000);
        assert!(!dominates(&good_cheap, &twin));
    }

    #[test]
    fn pruning_keeps_the_pareto_front() {
        let offers = vec![
            offer(1, ColorDepth::Color, 640, 25, 3_000),      // front
            offer(2, ColorDepth::Grey, 640, 25, 3_500),       // dominated by 1
            offer(3, ColorDepth::Grey, 640, 25, 2_000),       // front (cheaper)
            offer(4, ColorDepth::BlackWhite, 320, 10, 3_200), // dominated by 1 and 3
            offer(5, ColorDepth::SuperColor, 960, 30, 8_000), // front (better)
        ];
        let (survivors, pruned) = prune_dominated(offers);
        assert_eq!(pruned, 2);
        let ids: Vec<u64> = survivors.iter().map(|o| o.variants[0].id.0).collect();
        assert_eq!(ids, vec![1, 3, 5]);
    }

    #[test]
    fn pruning_preserves_the_classification_winner() {
        // Under a monotone profile, the top offer after pruning equals the
        // top offer of the full set, for every strategy.
        let spec = MmQosSpec {
            video: Some(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            ..MmQosSpec::default()
        };
        let profile = UserProfile::strict("prune", spec, Money::from_dollars(4));
        assert!(importance_is_monotone(&profile.importance));
        let offers: Vec<SystemOffer> = (0..60)
            .map(|i| {
                offer(
                    i,
                    ColorDepth::ALL[(i % 4) as usize],
                    (100 + i as u32 * 29) % 1900 + 10,
                    (i % 25 + 1) as u32,
                    1_000 + (i as i64 * 173) % 6_000,
                )
            })
            .collect();
        for strategy in [
            ClassificationStrategy::SnsThenOif,
            ClassificationStrategy::OifOnly,
            ClassificationStrategy::CostOnly,
        ] {
            let full = classify(offers.clone(), &profile, strategy);
            let (pruned_set, pruned) = prune_dominated(offers.clone());
            assert!(pruned > 0, "the grid must contain dominated offers");
            let slim = classify(pruned_set, &profile, strategy);
            assert_eq!(
                full[0].offer.variants[0].qos, slim[0].offer.variants[0].qos,
                "{strategy:?}: pruning changed the winner's QoS"
            );
            assert_eq!(full[0].offer.cost, slim[0].offer.cost);
        }
    }

    #[test]
    fn pruning_is_stable_and_idempotent() {
        let offers = vec![
            offer(1, ColorDepth::Color, 640, 25, 3_000),
            offer(2, ColorDepth::Grey, 320, 10, 4_000),
        ];
        let (s1, p1) = prune_dominated(offers);
        assert_eq!(p1, 1);
        let (s2, p2) = prune_dominated(s1.clone());
        assert_eq!(p2, 0);
        assert_eq!(s1, s2);
    }

    /// The original pairwise O(n²) pass, kept as the reference the sweep
    /// must reproduce exactly.
    fn prune_dominated_reference(offers: Vec<SystemOffer>) -> (Vec<SystemOffer>, usize) {
        let n = offers.len();
        let mut keep = vec![true; n];
        for i in 0..n {
            if !keep[i] {
                continue;
            }
            for j in 0..n {
                if i == j || !keep[j] {
                    continue;
                }
                if dominates(&offers[i], &offers[j]) {
                    keep[j] = false;
                }
            }
        }
        let mut survivors = Vec::with_capacity(n);
        let mut pruned = 0;
        for (offer, k) in offers.into_iter().zip(keep) {
            if k {
                survivors.push(offer);
            } else {
                pruned += 1;
            }
        }
        (survivors, pruned)
    }

    #[test]
    fn sweep_matches_the_pairwise_reference() {
        // Pseudorandom grids with deliberate equal-cost ties (costs land on
        // a handful of buckets) so the run-block logic gets exercised.
        let mut rng = nod_simcore::StreamRng::new(0xBEEF);
        for round in 0..40u64 {
            let n = 5 + (rng.below(90)) as usize;
            let offers: Vec<SystemOffer> = (0..n)
                .map(|i| {
                    offer(
                        round * 1000 + i as u64,
                        ColorDepth::ALL[(rng.below(4)) as usize],
                        [160, 320, 640, 960][(rng.below(4)) as usize],
                        [5, 10, 15, 25, 30][(rng.below(5)) as usize],
                        1_000 * (1 + (rng.below(6)) as i64),
                    )
                })
                .collect();
            let (fast, fast_pruned) = prune_dominated(offers.clone());
            let (slow, slow_pruned) = prune_dominated_reference(offers);
            assert_eq!(fast_pruned, slow_pruned, "round {round}");
            assert_eq!(fast, slow, "round {round}: survivor sets differ");
        }
    }

    #[test]
    fn explained_pruning_matches_and_records_real_dominators() {
        let mut rng = nod_simcore::StreamRng::new(0xFACE);
        for round in 0..20u64 {
            let n = 5 + (rng.below(60)) as usize;
            let offers: Vec<SystemOffer> = (0..n)
                .map(|i| {
                    offer(
                        round * 1000 + i as u64,
                        ColorDepth::ALL[(rng.below(4)) as usize],
                        [160, 320, 640, 960][(rng.below(4)) as usize],
                        [5, 10, 15, 25, 30][(rng.below(5)) as usize],
                        1_000 * (1 + (rng.below(6)) as i64),
                    )
                })
                .collect();
            let by_id: std::collections::BTreeMap<u64, SystemOffer> = offers
                .iter()
                .map(|o| (o.variants[0].id.0, o.clone()))
                .collect();
            let mut records = Vec::new();
            let explained = keep_mask(&offers, Some(&mut records));
            assert_eq!(keep_mask(&offers, None), explained, "round {round}");
            let pruned = explained.iter().filter(|&&k| !k).count();
            assert_eq!(records.len(), pruned, "one record per victim");
            for rec in &records {
                let victim = &by_id[&rec.victim_variants[0]];
                let dominator = &by_id[&rec.dominator_variants[0]];
                assert!(
                    dominates(dominator, victim),
                    "round {round}: recorded dominator does not dominate"
                );
                assert_eq!(rec.victim_cost, victim.cost);
                assert_eq!(rec.dominator_cost, dominator.cost);
            }
        }
    }

    #[test]
    fn multimedia_offers_compare_componentwise() {
        let audio = |id: u64, q: AudioQuality, cost: i64| {
            let mut o = offer(id, ColorDepth::Color, 640, 25, cost);
            o.variants.push(Variant {
                id: VariantId(100 + id),
                monomedia: MonomediaId(2),
                format: Format::PcmLinear,
                qos: MediaQos::Audio(AudioQos {
                    quality: q,
                    language: Language::English,
                }),
                blocks: BlockStats::new(4, 4),
                blocks_per_second: 44_100,
                file_bytes: 1_000,
                server: ServerId(0),
            });
            o
        };
        let cd = audio(1, AudioQuality::Cd, 3_000);
        let tel = audio(2, AudioQuality::Telephone, 3_000);
        assert!(dominates(&cd, &tel));
        // Mixed: better audio, worse video — no dominance either way.
        let mut mixed = audio(3, AudioQuality::Cd, 3_000);
        mixed.variants[0].qos = MediaQos::Video(VideoQos {
            color: ColorDepth::Grey,
            resolution: Resolution::TV,
            frame_rate: FrameRate::TV,
        });
        assert!(!dominates(&mixed, &tel));
        assert!(!dominates(&tel, &mixed));
    }
}
