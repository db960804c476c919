//! Classification of system offers (paper §5).
//!
//! Steps 3 and 4 of the negotiation procedure: compute the static
//! negotiation status and the overall importance factor of every feasible
//! system offer, then sort **SNS primary, OIF secondary** (descending),
//! "from the best system offer (which corresponds to an optimal
//! configuration) to the worst".
//!
//! Besides the paper's rule, [`ClassificationStrategy`] exposes the
//! orderings the paper argues against (§5: "the classification of the
//! offers in terms of only QoS or only cost is neither optimal nor suitable
//! to perform 'smart' negotiation") — they serve as baselines in the
//! experiments — plus the pure-OIF ordering that the paper's own §5.2.2
//! setting (3) example implicitly uses (see EXPERIMENTS.md, E4).
//!
//! Classification of large offer sets is embarrassingly parallel in
//! principle, but the per-offer scoring kernel is ~50 ns (bench B1) —
//! far too cheap to amortize thread spawn at any realistic offer count.
//! Bench B5 measured a `std::thread::scope` fan-out 2–3× *slower* than
//! the sequential loop at 2 048 and 16 384 offers, so the parallel
//! scoring path was removed (see EXPERIMENTS.md, B5); [`classify`]
//! scores sequentially.

use nod_mmdoc::MediaQos;

use crate::offer::SystemOffer;
use crate::profile::UserProfile;
use crate::sns::{compute_sns, satisfies_request, StaticNegotiationStatus};

/// How to order the feasible offers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassificationStrategy {
    /// The paper's rule: SNS primary, OIF secondary (descending).
    SnsThenOif,
    /// Pure overall-importance ordering (the implicit rule of the §5.2.2
    /// setting (3) example).
    OifOnly,
    /// Cheapest first — the "only cost" strawman of §5.
    CostOnly,
    /// Highest QoS importance first — the "only QoS" strawman of §5.
    QosOnly,
}

nod_simcore::json_unit_enum!(ClassificationStrategy {
    SnsThenOif,
    OifOnly,
    CostOnly,
    QosOnly
});

/// A system offer with its classification parameters (step 3 output).
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredOffer {
    /// The offer.
    pub offer: SystemOffer,
    /// Static negotiation status.
    pub sns: StaticNegotiationStatus,
    /// Overall importance factor.
    pub oif: f64,
    /// QoS importance component (before cost subtraction).
    pub qos_importance: f64,
    /// Does the offer satisfy both the worst-acceptable QoS and the cost
    /// ceiling (the set step 5 tries first)?
    pub satisfies_request: bool,
}

impl ScoredOffer {
    /// Score one offer against a profile.
    pub fn score(offer: SystemOffer, profile: &UserProfile) -> ScoredOffer {
        let qos: Vec<&MediaQos> = offer.qos_values().collect();
        let sns = compute_sns(profile, qos.iter().copied(), offer.cost);
        let qos_importance = profile.importance.qos_importance(qos.iter().copied());
        let oif = qos_importance - profile.importance.cost_importance(offer.cost);
        let satisfies = satisfies_request(profile, qos.iter().copied(), offer.cost);
        ScoredOffer {
            offer,
            sns,
            oif,
            qos_importance,
            satisfies_request: satisfies,
        }
    }
}

/// The classification sort key. `f64::total_cmp` (not
/// `partial_cmp(..).unwrap_or(Equal)`): a NaN OIF — reachable through a
/// custom importance profile — made the old comparator intransitive
/// (`NaN == x` for every `x`), which violates `sort_by`'s strict-weak-order
/// contract and can panic in recent `std`. The total order sorts NaNs
/// deterministically instead. The offer engine ([`crate::engine`]) orders
/// its plain entries by the same key.
fn sort_key_cmp(
    strategy: ClassificationStrategy,
    a: &ScoredOffer,
    b: &ScoredOffer,
) -> std::cmp::Ordering {
    let by_oif = |x: &ScoredOffer, y: &ScoredOffer| y.oif.total_cmp(&x.oif);
    match strategy {
        ClassificationStrategy::SnsThenOif => a.sns.cmp(&b.sns).then_with(|| by_oif(a, b)),
        ClassificationStrategy::OifOnly => by_oif(a, b),
        ClassificationStrategy::CostOnly => a.offer.cost.cmp(&b.offer.cost),
        ClassificationStrategy::QosOnly => b.qos_importance.total_cmp(&a.qos_importance),
    }
}

/// Score and sort offers under a strategy.
///
/// Fully deterministic: equal strategy keys (duplicated variants, replica
/// offers) fall through to an **explicit tertiary key — the enumeration
/// (arena) index** of the offer, i.e. the order step 3 produced it in.
/// This is the same rank the offer engine carries per entry
/// ([`crate::engine`]), so both agree on tie order by contract, not by the
/// accident of a stable sort.
pub fn classify(
    offers: Vec<SystemOffer>,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
) -> Vec<ScoredOffer> {
    let scored = score_all(offers, profile);
    let mut indexed: Vec<(u32, ScoredOffer)> = scored
        .into_iter()
        .enumerate()
        .map(|(i, s)| (i as u32, s))
        .collect();
    // With the index in the key the order is total, so the cheaper
    // unstable sort is safe.
    indexed
        .sort_unstable_by(|(ia, a), (ib, b)| sort_key_cmp(strategy, a, b).then_with(|| ia.cmp(ib)));
    indexed.into_iter().map(|(_, s)| s).collect()
}

/// Score offers sequentially — the default and, per bench B5, the fastest
/// path for the built-in scoring kernel at every measured size.
pub fn score_all(offers: Vec<SystemOffer>, profile: &UserProfile) -> Vec<ScoredOffer> {
    offers
        .into_iter()
        .map(|o| ScoredOffer::score(o, profile))
        .collect()
}

/// Convenience for reservation (step 5): indices of offers that satisfy the
/// user's request, in classified order, followed by the rest, also in
/// classified order.
pub fn reservation_order(scored: &[ScoredOffer]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scored.len())
        .filter(|&i| scored[i].satisfies_request)
        .collect();
    order.extend((0..scored.len()).filter(|&i| !scored[i].satisfies_request));
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::ImportanceProfile;
    use crate::money::Money;
    use crate::profile::MmQosSpec;
    use nod_mmdoc::prelude::*;

    fn video_variant(id: u64, color: ColorDepth, fps: u32) -> Variant {
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(1),
            format: Format::Mpeg1,
            qos: MediaQos::Video(VideoQos {
                color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::new(fps),
            }),
            blocks: BlockStats::new(12_000, 5_000),
            blocks_per_second: fps,
            file_bytes: 1_000_000,
            server: ServerId(0),
        }
    }

    fn offer(id: u64, color: ColorDepth, fps: u32, dollars: f64) -> SystemOffer {
        SystemOffer {
            variants: vec![video_variant(id, color, fps)],
            cost: Money::from_dollars_f64(dollars),
        }
    }

    /// The §5.2.1/§5.2.2 request: desired = worst = (color, TV, 25 fps),
    /// max cost $4.
    fn paper_profile(importance: ImportanceProfile) -> UserProfile {
        let spec = MmQosSpec {
            video: Some(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            ..MmQosSpec::default()
        };
        let mut p = UserProfile::strict("paper", spec, Money::from_dollars(4));
        p.importance = importance;
        p
    }

    /// The four §5.2.1 offers, in paper numbering order.
    fn paper_offers() -> Vec<SystemOffer> {
        vec![
            offer(1, ColorDepth::BlackWhite, 25, 2.5),
            offer(2, ColorDepth::Color, 15, 4.0),
            offer(3, ColorDepth::Grey, 25, 3.0),
            offer(4, ColorDepth::Color, 25, 5.0),
        ]
    }

    fn order_ids(scored: &[ScoredOffer]) -> Vec<u64> {
        scored.iter().map(|s| s.offer.variants[0].id.0).collect()
    }

    #[test]
    fn paper_setting1_order() {
        // Setting (1): OIFs 10/7/12/7 → offer4, offer3, offer1, offer2.
        let p = paper_profile(ImportanceProfile::paper_example(4.0));
        let scored = classify(paper_offers(), &p, ClassificationStrategy::SnsThenOif);
        assert_eq!(order_ids(&scored), vec![4, 3, 1, 2]);
        let oifs: Vec<f64> = scored.iter().map(|s| s.oif).collect();
        assert_eq!(oifs, vec![7.0, 12.0, 10.0, 7.0]);
    }

    #[test]
    fn paper_setting2_order() {
        // Setting (2): cost importance 0 → offer4, offer3, offer2, offer1.
        let p = paper_profile(ImportanceProfile::paper_example(0.0));
        let scored = classify(paper_offers(), &p, ClassificationStrategy::SnsThenOif);
        assert_eq!(order_ids(&scored), vec![4, 3, 2, 1]);
    }

    #[test]
    fn paper_setting3_order_under_pure_oif() {
        // Setting (3): all-zero QoS importance, cost 4. The paper's printed
        // order (offer1, offer3, offer2, offer4) is the pure-OIF order; the
        // stated SNS-primary rule would put offer4 (ACCEPTABLE) first. We
        // reproduce the printed order with the OifOnly strategy and the
        // stated rule with SnsThenOif. See EXPERIMENTS.md E4.
        let p = paper_profile(ImportanceProfile::cost_only(4.0));
        let printed = classify(paper_offers(), &p, ClassificationStrategy::OifOnly);
        assert_eq!(order_ids(&printed), vec![1, 3, 2, 4]);
        let stated = classify(paper_offers(), &p, ClassificationStrategy::SnsThenOif);
        assert_eq!(order_ids(&stated), vec![4, 1, 3, 2]);
    }

    #[test]
    fn cost_only_strategy_is_cheapest_first() {
        let p = paper_profile(ImportanceProfile::default());
        let scored = classify(paper_offers(), &p, ClassificationStrategy::CostOnly);
        assert_eq!(order_ids(&scored), vec![1, 3, 2, 4]);
    }

    #[test]
    fn qos_only_strategy_ignores_cost() {
        let p = paper_profile(ImportanceProfile::paper_example(4.0));
        let scored = classify(paper_offers(), &p, ClassificationStrategy::QosOnly);
        // QoS importances: o1=20, o2=23, o3=24, o4=27 → 4,3,2,1.
        assert_eq!(order_ids(&scored), vec![4, 3, 2, 1]);
    }

    #[test]
    fn satisfies_request_flags() {
        let p = paper_profile(ImportanceProfile::paper_example(4.0));
        let scored = classify(paper_offers(), &p, ClassificationStrategy::SnsThenOif);
        // None of the four satisfies both QoS and cost (offer4 exceeds $4).
        assert!(scored.iter().all(|s| !s.satisfies_request));
        // Lower offer4's price to $4: it satisfies the request.
        let mut offers = paper_offers();
        offers[3].cost = Money::from_dollars(4);
        let scored = classify(offers, &p, ClassificationStrategy::SnsThenOif);
        let o4 = scored
            .iter()
            .find(|s| s.offer.variants[0].id.0 == 4)
            .unwrap();
        assert!(o4.satisfies_request);
        assert_eq!(o4.sns, StaticNegotiationStatus::Desirable);
    }

    #[test]
    fn reservation_order_puts_satisfying_first() {
        let p = paper_profile(ImportanceProfile::paper_example(4.0));
        let mut offers = paper_offers();
        offers[3].cost = Money::from_dollars(4); // offer4 now satisfies
        let scored = classify(offers, &p, ClassificationStrategy::SnsThenOif);
        let order = reservation_order(&scored);
        assert_eq!(order.len(), 4);
        assert!(scored[order[0]].satisfies_request);
        assert!(order[1..].iter().all(|&i| !scored[i].satisfies_request));
    }

    #[test]
    fn nan_importance_classifies_without_panicking() {
        // A pathological importance profile can produce NaN OIFs (curves
        // are validated, but the color/audio arrays are raw fields). The
        // comparator must stay a strict weak order: no panic, a
        // deterministic order, and finite offers still sorted correctly
        // among themselves.
        let mut p = paper_profile(ImportanceProfile::paper_example(4.0));
        p.importance.color[0] = f64::NAN; // BlackWhite → NaN importance
        let mut offers = paper_offers();
        // Plenty of NaN-scored offers interleaved with finite ones.
        for i in 0..64 {
            offers.push(offer(
                100 + i,
                if i % 2 == 0 {
                    ColorDepth::BlackWhite
                } else {
                    ColorDepth::Grey
                },
                25,
                (i % 7) as f64,
            ));
        }
        for strategy in [
            ClassificationStrategy::SnsThenOif,
            ClassificationStrategy::OifOnly,
            ClassificationStrategy::QosOnly,
        ] {
            let scored = classify(offers.clone(), &p, strategy);
            assert_eq!(scored.len(), offers.len());
            // Deterministic: the same input sorts the same way twice.
            let again = classify(offers.clone(), &p, strategy);
            assert_eq!(order_ids(&scored), order_ids(&again));
            // Finite OIFs are still descending among themselves (OifOnly).
            if strategy == ClassificationStrategy::OifOnly {
                let finite: Vec<f64> = scored
                    .iter()
                    .map(|s| s.oif)
                    .filter(|o| o.is_finite())
                    .collect();
                assert!(finite.windows(2).all(|w| w[0] >= w[1]), "{finite:?}");
            }
        }
    }

    #[test]
    fn classification_is_deterministic_and_stable() {
        let p = paper_profile(ImportanceProfile::paper_example(4.0));
        // offers 2 and 4 tie at OIF 7 with equal SNS? (2 is CONSTRAINT,
        // 4 ACCEPTABLE — craft a real tie instead.)
        let a = offer(10, ColorDepth::Grey, 25, 3.0);
        let b = offer(11, ColorDepth::Grey, 25, 3.0);
        let scored = classify(vec![a, b], &p, ClassificationStrategy::SnsThenOif);
        // Stable: enumeration order preserved for the tie.
        assert_eq!(order_ids(&scored), vec![10, 11]);
    }
}
