//! The ranked list — the engine's whole product scored from the
//! per-variant partials and sorted as plain data — must be bit-identical
//! to the paper-literal pipeline `classify(engine.offers(), …)`: same
//! offers at every position, same SNS / satisfaction flags, same cost,
//! OIF equal to the bit. And explaining a negotiation must record the
//! list it walked without changing what the walk decides.

use std::collections::HashMap;

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::prelude::*;
use nod_netsim::{Network, Topology};
use nod_qosneg::engine::{OfferEngine, RankedOffers};
use nod_qosneg::explain::EXPLAIN_TOP_K;
use nod_qosneg::negotiate::{
    commit_prepared, prepare, NegotiationContext, NegotiationOutcome, Prepared, StreamingMode,
};
use nod_qosneg::offer::enumerate_combinations;
use nod_qosneg::profile::{tv_news_profile, MmQosSpec, UserProfile};
use nod_qosneg::prune::{importance_is_monotone, keep_mask, prune_dominated};
use nod_qosneg::{classify, ClassificationStrategy, CostModel, Money, ScoredOffer, SystemOffer};
use nod_simcore::StreamRng;

const STRATEGIES: [ClassificationStrategy; 4] = [
    ClassificationStrategy::SnsThenOif,
    ClassificationStrategy::OifOnly,
    ClassificationStrategy::CostOnly,
    ClassificationStrategy::QosOnly,
];

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

/// The streaming-equivalence corpus: catalog shape varies with the seed,
/// from one variant per component to rich.
fn world(seed: u64) -> World {
    let mut shape = StreamRng::new(seed ^ 0x5EED);
    let servers = 2 + shape.below(3) as usize;
    let vmin = 1 + shape.below(3) as usize;
    let vmax = vmin + shape.below(4) as usize;
    let mut rng = StreamRng::new(seed);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 6,
        servers: (0..servers as u64).map(ServerId).collect(),
        video_variants: (vmin, vmax),
        audio_variants: (1 + shape.below(2) as usize, 2 + shape.below(3) as usize),
        replicas: (1, 1 + shape.below(2) as usize),
        image_probability: shape.f64(),
        french_probability: shape.f64(),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    World {
        catalog,
        farm: ServerFarm::uniform(servers, ServerConfig::era_default()),
        network: Network::new(Topology::dumbbell(4, servers, 25_000_000, 155_000_000)),
        cost: CostModel::era_default(),
    }
}

fn ctx(w: &World, strategy: ClassificationStrategy) -> NegotiationContext<'_> {
    NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 500_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

/// The engine `prepare` would build for `doc` (step 2 replicated).
fn catalog_engine(
    w: &World,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
) -> Option<OfferEngine> {
    let per_mono: Vec<(MonomediaId, Vec<&Variant>)> = w
        .catalog
        .variants_of_document(doc)
        .ok()?
        .into_iter()
        .map(|(mono, variants)| {
            let feasible = variants
                .into_iter()
                .filter(|v| client.feasible(v) && w.network.reachable(client.id, v.server))
                .collect();
            (mono, feasible)
        })
        .collect();
    let durations: HashMap<MonomediaId, u64> = (w.catalog.document(doc)?.monomedia().iter())
        .map(|m| (m.id, m.duration_ms))
        .collect();
    OfferEngine::build(
        &per_mono,
        &durations,
        profile,
        &w.cost,
        Guarantee::Guaranteed,
        strategy,
        500_000,
    )
    .ok()
}

fn video(id: u64, mono: u64, color: ColorDepth, fps: u32, server: u64) -> Variant {
    Variant {
        id: VariantId(id),
        monomedia: MonomediaId(mono),
        format: Format::Mpeg1,
        qos: MediaQos::Video(VideoQos {
            color,
            resolution: Resolution::new(640),
            frame_rate: FrameRate::new(fps),
        }),
        blocks: BlockStats::new(10_000, 5_000),
        blocks_per_second: fps,
        file_bytes: 1_000_000,
        server: ServerId(server),
    }
}

/// An engine over hand-built components (one `Vec<Variant>` each). Its
/// `offers()` — the reference input of every check below — must be the
/// paper-literal enumeration: the nested product of the variant lists,
/// each offer priced by formula (1).
fn built_engine(
    components: &[Vec<Variant>],
    profile: &UserProfile,
    strategy: ClassificationStrategy,
) -> OfferEngine {
    let per_mono: Vec<(MonomediaId, Vec<&Variant>)> = components
        .iter()
        .map(|c| (c[0].monomedia, c.iter().collect()))
        .collect();
    let durations: HashMap<MonomediaId, u64> =
        per_mono.iter().map(|(mono, _)| (*mono, 60_000)).collect();
    let cost_model = CostModel::era_default();
    let engine = OfferEngine::build(
        &per_mono,
        &durations,
        profile,
        &cost_model,
        Guarantee::Guaranteed,
        strategy,
        500_000,
    )
    .expect("engine builds");
    let literal: Vec<SystemOffer> = enumerate_combinations(&per_mono, usize::MAX)
        .expect("non-empty components")
        .into_iter()
        .map(|combo| SystemOffer {
            cost: cost_model.document_cost(
                combo.iter().map(|&v| (v, durations[&v.monomedia])),
                Guarantee::Guaranteed,
            ),
            variants: combo.into_iter().cloned().collect(),
        })
        .collect();
    assert_eq!(engine.offers(), literal, "enumeration order or pricing");
    engine
}

fn video_profile() -> UserProfile {
    let spec = MmQosSpec {
        video: Some(VideoQos {
            color: ColorDepth::Color,
            resolution: Resolution::TV,
            frame_rate: FrameRate::TV,
        }),
        ..MmQosSpec::default()
    };
    UserProfile::strict("ranked-tests", spec, Money::from_dollars(50))
}

/// `got` (materialized ranked entries) must equal `want` (the eager
/// classification) bit for bit.
fn assert_bit_identical(got: &[ScoredOffer], want: &[ScoredOffer], tag: &str) {
    let ids = |o: &ScoredOffer| o.offer.variants.iter().map(|v| v.id).collect::<Vec<_>>();
    assert_eq!(got.len(), want.len(), "{tag}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(ids(g), ids(w), "{tag} position {i}: variants");
        assert_eq!(g.oif.to_bits(), w.oif.to_bits(), "{tag} position {i}: OIF");
        assert_eq!(
            g.qos_importance.to_bits(),
            w.qos_importance.to_bits(),
            "{tag} position {i}: QoS importance"
        );
        assert_eq!(g.offer.cost, w.offer.cost, "{tag} position {i}: cost");
        assert_eq!(g.sns, w.sns, "{tag} position {i}: SNS");
        assert_eq!(
            g.satisfies_request, w.satisfies_request,
            "{tag} position {i}: satisfies"
        );
        assert_eq!(g.offer.variants, w.offer.variants, "{tag} position {i}");
    }
}

/// Ranked ≡ eager for `engine`, unpruned and (under a monotone profile)
/// through the dominance keep-mask; returns the offers checked.
fn check_engine(
    engine: &OfferEngine,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
    tag: &str,
) -> usize {
    let ranked = RankedOffers::new(engine.clone(), None);
    let got: Vec<ScoredOffer> = (0..ranked.len()).map(|i| ranked.materialize(i)).collect();
    let want = classify(engine.offers(), profile, strategy);
    assert_bit_identical(&got, &want, tag);
    assert_bit_identical(&engine.classify_all(), &want, tag);
    // Entries carry the same scores as the offers they materialize to.
    for (entry, offer) in ranked.entries().iter().zip(&got) {
        assert_eq!(entry.oif.to_bits(), offer.oif.to_bits(), "{tag}");
        assert_eq!(entry.cost, offer.offer.cost, "{tag}");
    }
    // Step 5's order: satisfying offers first, both halves classified.
    let order: Vec<usize> = ranked.reservation_order().collect();
    assert_eq!(
        order,
        nod_qosneg::classify::reservation_order(&want),
        "{tag}"
    );

    if importance_is_monotone(&profile.importance) {
        let keep = keep_mask(&engine.offers(), None);
        let pruned = RankedOffers::new(engine.clone(), Some(&keep));
        let got: Vec<ScoredOffer> = (0..pruned.len()).map(|i| pruned.materialize(i)).collect();
        let (survivors, dropped) = prune_dominated(engine.offers());
        assert_eq!(
            pruned.len() + dropped,
            engine.total(),
            "{tag}: pruned count"
        );
        let want = classify(survivors, profile, strategy);
        assert_bit_identical(&got, &want, &format!("{tag} pruned"));
    }
    got.len()
}

#[test]
fn ranked_list_matches_eager_classification_over_the_corpus() {
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let (mut engines, mut offers) = (0usize, 0usize);
    for seed in 0..40u64 {
        let w = world(seed);
        for doc in 1..=6u64 {
            for strategy in STRATEGIES {
                let Some(engine) = catalog_engine(&w, &client, DocumentId(doc), &profile, strategy)
                else {
                    continue;
                };
                offers += check_engine(
                    &engine,
                    &profile,
                    strategy,
                    &format!("seed {seed} doc {doc} {strategy:?}"),
                );
                engines += 1;
            }
        }
    }
    assert!(engines >= 800, "coverage too thin: {engines} engines");
    assert!(offers > 10_000, "coverage too thin: {offers} offers");
}

#[test]
fn ranked_list_handles_wide_duplicated_nan_and_single_offer_products() {
    let colors = [ColorDepth::Color, ColorDepth::Grey];
    // Ten components × two variants: past the packed stream state, so
    // only the ranked list can order it.
    let wide: Vec<Vec<Variant>> = (0..10u64)
        .map(|c| {
            (0..2u64)
                .map(|v| {
                    video(
                        c * 2 + v + 1,
                        c + 1,
                        colors[v as usize],
                        25 - 10 * v as u32,
                        v,
                    )
                })
                .collect()
        })
        .collect();
    // Exact duplicates (only the id differs): long runs of equal keys.
    let duplicated: Vec<Vec<Variant>> = vec![
        (1..=4)
            .map(|id| video(id, 1, colors[(id as usize - 1) / 2], 25, 0))
            .collect(),
        (5..=7)
            .map(|id| video(id, 2, ColorDepth::Color, 25, 1))
            .collect(),
    ];
    let single = vec![vec![video(1, 1, ColorDepth::Color, 25, 0)]];
    let mut nan = video_profile();
    nan.importance.color[ColorDepth::Grey as usize] = f64::NAN;
    let mut infinite = video_profile();
    infinite.importance.color[ColorDepth::Color as usize] = f64::INFINITY;

    for strategy in STRATEGIES {
        let profile = video_profile();
        let engine = built_engine(&wide, &profile, strategy);
        assert_eq!(engine.total(), 1024);
        assert!(!engine.streaming_supported(), "ten components are wide");
        check_engine(&engine, &profile, strategy, &format!("wide {strategy:?}"));

        let engine = built_engine(&duplicated, &profile, strategy);
        assert_eq!(engine.total(), 12);
        check_engine(&engine, &profile, strategy, &format!("dup {strategy:?}"));

        let engine = built_engine(&single, &profile, strategy);
        assert_eq!(check_engine(&engine, &profile, strategy, "single"), 1);

        for (name, profile) in [("nan", &nan), ("infinite", &infinite)] {
            let engine = built_engine(&duplicated, profile, strategy);
            assert!(!engine.streaming_supported(), "{name}: non-finite scores");
            check_engine(&engine, profile, strategy, &format!("{name} {strategy:?}"));
        }
    }
}

/// `prepare` → `commit_prepared` on a fresh world, optionally explained
/// and with server 0 choked so the walk has refusals to report.
fn split_negotiation(seed: u64, doc: u64, explain: bool, choke: bool) -> NegotiationOutcome {
    let w = world(seed);
    if choke {
        w.farm.server(ServerId(0)).unwrap().set_health(0.0);
    }
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let mut ctx = ctx(&w, ClassificationStrategy::SnsThenOif);
    ctx.explain = explain;
    match prepare(&ctx, &client, DocumentId(doc), &profile).expect("valid request") {
        Prepared::Early(outcome) => *outcome,
        Prepared::Offers(ranked, trace, decisions) => {
            assert_eq!(decisions.is_some(), explain);
            commit_prepared(&ctx, &client, &profile, ranked, trace, decisions)
        }
    }
}

#[test]
fn explain_records_the_walk_without_changing_it() {
    let (mut refused, mut reserved) = (0usize, 0usize);
    for seed in 0..12u64 {
        for doc in 1..=6u64 {
            for choke in [false, true] {
                let plain = split_negotiation(seed, doc, false, choke);
                let explained = split_negotiation(seed, doc, true, choke);
                let tag = format!("seed {seed} doc {doc} choke {choke}");
                assert_eq!(plain.status, explained.status, "{tag}: status");
                assert_eq!(plain.reserved_index, explained.reserved_index, "{tag}");
                assert_eq!(plain.reserved_offer, explained.reserved_offer, "{tag}");
                assert_eq!(plain.commit_failures, explained.commit_failures, "{tag}");
                assert_eq!(plain.trace, explained.trace, "{tag}: trace");
                assert!(plain.decisions.is_none(), "{tag}: explain off logs nothing");
                let log = explained.decisions.as_ref().expect("explain on logs");
                assert_eq!(log.status, Some(explained.status), "{tag}");
                refused += log.refusals.len();
                reserved += usize::from(explained.reserved_index.is_some());

                // The score rows are the first k entries of the list the
                // walk used (plus the chosen offer when it ranks lower).
                let ordered = explained.ordered_offers.as_slice();
                let top = ordered.len().min(EXPLAIN_TOP_K);
                for (rank, offer) in ordered[..top].iter().enumerate() {
                    let row = &log.scores[rank];
                    let streams: Vec<(u64, u64)> =
                        (offer.offer.variants.iter().map(|v| (v.id.0, v.server.0))).collect();
                    assert_eq!(row.rank, rank as u64, "{tag}");
                    assert_eq!(row.streams.as_slice(), streams.as_slice(), "{tag}");
                    assert_eq!(row.oif.to_bits(), offer.oif.to_bits(), "{tag}");
                    assert_eq!(row.cost_total, offer.offer.cost, "{tag}");
                    assert_eq!(row.sns, offer.sns, "{tag}");
                    assert_eq!(
                        row.chosen,
                        explained.reserved_index == Some(rank),
                        "{tag}: chosen flag"
                    );
                }
                let chosen_past_cut = explained.reserved_index.is_some_and(|i| i >= top);
                assert_eq!(
                    log.scores.len(),
                    top + usize::from(chosen_past_cut),
                    "{tag}"
                );
                assert_eq!(
                    log.chosen_rank,
                    explained.reserved_index.map(|i| i as u64),
                    "{tag}"
                );
            }
        }
    }
    assert!(refused > 0, "the choked walks must refuse something");
    assert!(reserved > 0, "some walks must reserve");
}
