//! The one offer order — the engine's whole product scored from the
//! per-variant partials and ordered on demand as plain data — must be
//! bit-identical to the paper-literal pipeline
//! `classify(engine.offers(), …)` however far it has been ordered: the lazy
//! walk attempts `reservation_order(…)`'s indices in its order, every
//! accessor of a list whose walk stopped early reads the same offers at
//! the same positions (same SNS / satisfaction flags, same cost, OIF equal
//! to the bit), and wide, duplicated, non-finite and explained requests
//! are ordinary inputs to that one assertion. And explaining a
//! negotiation must record the list it walked without changing what the
//! walk decides.

use std::collections::HashMap;

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::prelude::*;
use nod_netsim::{route, Network, NodeId, Topology};
use nod_obs::Recorder;
use nod_qosneg::classify::reservation_order;
use nod_qosneg::engine::{OfferEngine, RankedOffers, ScoredCombo, WalkCursor, HEAD};
use nod_qosneg::explain::{DecisionLog, EXPLAIN_TOP_K};
use nod_qosneg::importance::PiecewiseLinear;
use nod_qosneg::negotiate::{
    commit_prepared, explain_attempts, prepare, NegotiationContext, NegotiationOutcome,
    NegotiationStatus, NegotiationTrace, Prepared, StreamingMode,
};
use nod_qosneg::offer::enumerate_combinations;
use nod_qosneg::profile::{tv_news_profile, MmQosSpec, UserProfile};
use nod_qosneg::{
    classify, ClassificationStrategy, CostModel, Money, NegotiationRequest, ScoredOffer, Session,
    SystemOffer,
};
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

/// The equivalence corpus: catalog shape varies with the seed, from one
/// variant per component to rich.
fn world(seed: u64) -> World {
    world_over(seed, |servers| {
        Topology::dumbbell(4, servers, 25_000_000, 155_000_000)
    })
}

/// The equivalence corpus over the network `topology(servers)` builds.
fn world_over(seed: u64, topology: impl FnOnce(usize) -> Topology) -> World {
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
        network: Network::new(topology(servers)),
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
    let components = w.catalog.document(doc)?.monomedia();
    let mut builder = OfferEngine::builder(
        client,
        profile,
        &w.cost,
        Guarantee::Guaranteed,
        strategy,
        components.len(),
        (components.iter())
            .map(|m| w.catalog.variants_of(m.id).len())
            .sum(),
    );
    for m in components {
        let stored = w.catalog.variants_of(m.id).iter();
        let feasible =
            stored.filter(|v| client.feasible(v) && w.network.has_route(client.id, v.server));
        builder.component(m.id, m.duration_ms, feasible);
    }
    builder.finish(500_000).ok()
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
    let client = ClientMachine::era_workstation(ClientId(0));
    let mut builder = OfferEngine::builder(
        &client,
        profile,
        &cost_model,
        Guarantee::Guaranteed,
        strategy,
        per_mono.len(),
        components.iter().map(Vec::len).sum(),
    );
    for (mono, variants) in &per_mono {
        builder.component(*mono, durations[mono], variants.iter().copied());
    }
    let engine = builder.finish(500_000).expect("engine builds");
    let literal = literal_offers(&per_mono, &durations, &cost_model);
    assert_eq!(engine.offers(), literal, "enumeration order or pricing");
    engine
}

/// The paper-literal enumeration: the nested product of the variant
/// lists, each offer priced by formula (1).
fn literal_offers(
    per_mono: &[(MonomediaId, Vec<&Variant>)],
    durations: &HashMap<MonomediaId, u64>,
    cost_model: &CostModel,
) -> Vec<SystemOffer> {
    enumerate_combinations(per_mono, usize::MAX)
        .expect("non-empty components")
        .into_iter()
        .map(|combo| SystemOffer {
            cost: cost_model.document_cost(
                combo.iter().map(|&v| (v, durations[&v.monomedia])),
                Guarantee::Guaranteed,
            ),
            variants: combo.into_iter().cloned().collect(),
        })
        .collect()
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

/// The lazily ordered `fresh` list ≡ the reference classification `want`:
/// the walk attempts `reservation_order(want)`'s indices step by step (so
/// every prefix of the walk is checked), and after a walk that stopped
/// early — inside the ordered head, at its edge, past it — every accessor
/// still reads `want`, in `want`'s order.
fn check_order(fresh: &RankedOffers, want: &[ScoredOffer], tag: &str) {
    assert_eq!(fresh.len(), want.len(), "{tag}: length");
    let order = reservation_order(want);

    let mut walked = fresh.clone();
    let mut cursor = WalkCursor::default();
    for (step, &idx) in order.iter().enumerate() {
        assert_eq!(
            walked.next_attempt(&mut cursor),
            Some(idx),
            "{tag}: attempt {step}"
        );
        let got = walked.materialize(idx);
        assert_bit_identical(
            std::slice::from_ref(&got),
            std::slice::from_ref(&want[idx]),
            &format!("{tag} attempt {step}"),
        );
    }
    assert_eq!(walked.next_attempt(&mut cursor), None, "{tag}: walk ends");

    let mut stops = vec![0, 1, HEAD - 1, HEAD, HEAD + 1, want.len() / 2, want.len()];
    stops.retain(|&stop| stop <= want.len());
    stops.dedup();
    for stop in stops {
        let tag = format!("{tag}, walk stopped after {stop}");
        let mut stopped = fresh.clone();
        let mut cursor = WalkCursor::default();
        for _ in 0..stop {
            stopped.next_attempt(&mut cursor);
        }

        // By index, deepest first: an index past the ordered head orders
        // as far as it needs instead of returning whatever lies there.
        let mut by_index = stopped.clone();
        let mut got: Vec<ScoredOffer> = (0..want.len())
            .rev()
            .map(|i| by_index.materialize(i))
            .collect();
        got.reverse();
        assert_bit_identical(&got, want, &format!("{tag}: materialize"));

        // Entries carry the same scores as the offers they stand for.
        let mut entries = stopped.clone();
        for (i, (entry, offer)) in entries.entries().zip(want).enumerate() {
            assert_eq!(entry.oif.to_bits(), offer.oif.to_bits(), "{tag}: entry {i}");
            assert_eq!(entry.cost, offer.offer.cost, "{tag}: entry {i}");
            assert_eq!(entry.sns, offer.sns, "{tag}: entry {i}");
        }

        // Step 5's order from a fresh cursor: satisfying offers first,
        // both halves classified.
        let mut again = stopped;
        let got: Vec<usize> = again.reservation_order().collect();
        assert_eq!(got, order, "{tag}: reservation order");
    }
}

/// Every offer of `list`, materialized in classified order.
fn materialized(list: &mut RankedOffers) -> Vec<ScoredOffer> {
    (0..list.len()).map(|i| list.materialize(i)).collect()
}

/// Lazy order ≡ reference for `engine`; returns the offers checked.
fn check_engine(
    engine: &OfferEngine,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
    tag: &str,
) -> usize {
    let want = classify(engine.offers(), profile, strategy);
    check_order(&RankedOffers::new(engine.clone()), &want, tag);
    assert_bit_identical(&engine.classify_all(), &want, tag);
    // The borrowing name of the same walk.
    let streamed: Vec<ScoredOffer> = (engine.reservation_stream())
        .map(|combo| engine.materialize(&combo))
        .collect();
    let attempted: Vec<ScoredOffer> = (reservation_order(&want).iter())
        .map(|&idx| want[idx].clone())
        .collect();
    assert_bit_identical(&streamed, &attempted, &format!("{tag}: reservation_stream"));
    want.len()
}

#[test]
fn lazy_order_matches_the_reference_classification_over_the_corpus() {
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let (mut engines, mut offers) = (0usize, 0usize);
    for seed in 0..70u64 {
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
    assert!(engines >= 1_400, "coverage too thin: {engines} engines");
    assert!(offers > 18_000, "coverage too thin: {offers} offers");
}

#[test]
fn lazy_order_handles_wide_duplicated_nan_and_single_offer_products() {
    let colors = [ColorDepth::Color, ColorDepth::Grey];
    // Ten components × two variants: 1 024 offers, far past the head.
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
        check_engine(&engine, &profile, strategy, &format!("wide {strategy:?}"));

        let engine = built_engine(&duplicated, &profile, strategy);
        assert_eq!(engine.total(), 12);
        check_engine(&engine, &profile, strategy, &format!("dup {strategy:?}"));

        let engine = built_engine(&single, &profile, strategy);
        assert_eq!(check_engine(&engine, &profile, strategy, "single"), 1);

        // NaN and ∞ importances: the order is total, so they sort where
        // the reference puts them — in the head and past it.
        for (name, profile) in [("nan", &nan), ("infinite", &infinite)] {
            let engine = built_engine(&wide, profile, strategy);
            check_engine(
                &engine,
                profile,
                strategy,
                &format!("{name} wide {strategy:?}"),
            );
            let engine = built_engine(&duplicated, profile, strategy);
            check_engine(&engine, profile, strategy, &format!("{name} {strategy:?}"));
        }
    }
}

/// The integer classification order against `classify()`'s float order,
/// on keys chosen to break a careless integer image: −0.0 beside +0.0,
/// NaN with the sign bit set and clear, subnormals, ±∞, and long runs of
/// equal keys at different ranks. The colour importance is the whole of a
/// variant's importance (flat −0.0 curves add nothing) and a dollar costs
/// nothing, so the palette reaches OIF and QoS importance unchanged for
/// one component and as sums for two. A palette holding NaNs of both signs
/// is ranked over one component only: which NaN the sum of two opposite
/// NaNs yields is unspecified, so two computations of it need not agree.
#[test]
fn the_integer_order_matches_classify_on_adversarial_floats() {
    assert!(size_of::<ScoredCombo>() <= 40);
    let (nan, tiny, inf) = (f64::NAN, f64::MIN_POSITIVE / 4.0, f64::INFINITY);
    assert!(tiny.is_subnormal());
    let palettes = [
        [-0.0, 0.0, tiny, -tiny],
        [nan, -nan, inf, -inf],
        [-0.0, -nan, inf, -tiny],
        [0.0, nan, -inf, -0.0],
    ];
    let depths = [
        ColorDepth::BlackWhite,
        ColorDepth::Grey,
        ColorDepth::Color,
        ColorDepth::SuperColor,
    ];
    // Every depth twice, on two servers: equal keys at adjacent ranks.
    let component = |c: u64| -> Vec<Variant> {
        (depths.iter().enumerate())
            .flat_map(|(k, &color)| {
                (0..2u64).map(move |r| video(c * 8 + 2 * k as u64 + r + 1, c + 1, color, 25, r))
            })
            .collect()
    };
    let products = [vec![component(0)], vec![component(0), component(1)]];
    let mut seen: Vec<u64> = Vec::new();
    for strategy in STRATEGIES {
        for palette in palettes {
            let mut profile = video_profile();
            profile.importance.color = palette;
            profile.importance.frame_rate = PiecewiseLinear::new(vec![(1.0, -0.0)]);
            profile.importance.resolution = PiecewiseLinear::new(vec![(1.0, -0.0)]);
            profile.importance.cost_per_dollar = 0.0;
            let both_nans = palette.iter().any(|x| x.is_nan() && x.is_sign_negative())
                && palette.iter().any(|x| x.is_nan() && x.is_sign_positive());
            for product in &products[..if both_nans { 1 } else { 2 }] {
                let engine = built_engine(product, &profile, strategy);
                let tag = format!("{palette:?} × {} {strategy:?}", product.len());
                check_engine(&engine, &profile, strategy, &tag);
                let mut ranked = RankedOffers::new(engine);
                (ranked.entries())
                    .for_each(|e| seen.extend([e.oif.to_bits(), e.qos_importance.to_bits()]));
            }
        }
    }
    let sign = 1u64 << 63;
    let cases = [
        ("-0.0", (-0.0f64).to_bits()),
        ("+0.0", 0.0f64.to_bits()),
        ("+inf", inf.to_bits()),
        ("-inf", (-inf).to_bits()),
        ("subnormal", tiny.to_bits()),
        ("-subnormal", (-tiny).to_bits()),
    ];
    for (name, bits) in cases {
        assert!(seen.contains(&bits), "no {name} key was ordered");
    }
    let is_nan = |b: &u64| f64::from_bits(*b).is_nan();
    assert!(
        seen.iter().any(|b| is_nan(b) && b & sign == 0),
        "no +NaN key"
    );
    assert!(
        seen.iter().any(|b| is_nan(b) && b & sign != 0),
        "no −NaN key"
    );
}

/// Two islands and no link between them: clients 0–2 and the even servers
/// on one, client 3 and the odd servers on the other.
fn two_islands(servers: usize) -> Topology {
    let mut t = Topology::new();
    for (island, base) in [(0u64, 0u64), (1, 1_000)] {
        let (access, core) = (NodeId(base), NodeId(base + 1));
        t.add_link(access, core, 155_000_000, 2_000);
        let clients: &[u64] = if island == 0 { &[0, 1, 2] } else { &[3] };
        for &c in clients {
            let node = NodeId(base + 10 + c);
            t.add_link(node, access, 25_000_000, 500);
            t.attach_client(ClientId(c), node);
        }
        for s in (island..servers as u64).step_by(2) {
            let node = NodeId(base + 100 + s);
            t.add_link(node, core, 155_000_000, 500);
            t.attach_server(ServerId(s), node);
        }
    }
    t
}

/// Step 2 over a partitioned network: `prepare` keeps exactly the
/// decodable variants whose server the client can reach — counting one
/// `net.path.rejections` per decodable variant it cannot — reports their
/// number and the product's size in its trace, ends `FAILEDWITHOUTOFFER`
/// when the cut leaves a component with nothing, and otherwise ranks and
/// scores every offer exactly as `classify` does on the product filtered
/// eagerly. The derived explanation reads the same step 2 and counts
/// nothing.
#[test]
fn prepare_over_two_islands_keeps_exactly_the_reachable_variants() {
    let profile = tv_news_profile();
    let rejections = |rec: &Recorder| rec.snapshot().counter("net.path.rejections");
    let (mut cut_off, mut thinned, mut offers) = (0usize, 0usize, 0usize);
    for seed in 0..40u64 {
        let w = world_over(seed, two_islands);
        let rec = Recorder::new();
        w.network.set_recorder(rec.clone());
        for client in [0, 3].map(|c| ClientMachine::era_workstation(ClientId(c))) {
            for doc in (1..=6u64).map(DocumentId) {
                // Step 2 by hand, against Dijkstra itself: decodable,
                // then routable.
                let topo = w.network.topology();
                let routable = |v: &&Variant| {
                    let c = topo.client_node(client.id).expect("attached client");
                    let s = topo.server_node(v.server).expect("attached server");
                    route(topo, c, s).is_ok()
                };
                let (mut decodable, mut cut) = (0usize, false);
                let per_mono: Vec<(MonomediaId, Vec<&Variant>)> = (w.catalog)
                    .variants_of_document(doc)
                    .expect("corpus document")
                    .into_iter()
                    .map(|(mono, stored)| {
                        let ok: Vec<&Variant> =
                            stored.into_iter().filter(|v| client.feasible(v)).collect();
                        let kept: Vec<&Variant> = ok.iter().copied().filter(routable).collect();
                        decodable += ok.len();
                        cut |= !ok.is_empty() && kept.is_empty();
                        (mono, kept)
                    })
                    .collect();
                let feasible_variants: usize = per_mono.iter().map(|(_, vs)| vs.len()).sum();
                let unreachable = (decodable - feasible_variants) as u64;
                let document = w.catalog.document(doc).expect("corpus document");
                let durations: HashMap<MonomediaId, u64> = (document.monomedia().iter())
                    .map(|m| (m.id, m.duration_ms))
                    .collect();
                thinned += usize::from(unreachable > 0 && !cut);
                cut_off += usize::from(cut);
                for strategy in STRATEGIES {
                    let tag = format!("seed {seed} client {} {doc} {strategy:?}", client.id);
                    let ctx = ctx(&w, strategy);
                    let before = rejections(&rec);
                    let prepared = prepare(&ctx, &client, doc, &profile).expect("valid request");
                    assert_eq!(
                        rejections(&rec) - before,
                        unreachable,
                        "{tag}: one rejection per unreachable decodable variant"
                    );
                    let mut log = DecisionLog::default();
                    explain_attempts(&ctx, &client, doc, &profile, [&mut log]);
                    assert_eq!(
                        rejections(&rec) - before,
                        unreachable,
                        "{tag}: explain counts"
                    );
                    match prepared {
                        Prepared::Early(outcome) => {
                            assert!(
                                per_mono.iter().any(|(_, vs)| vs.is_empty()),
                                "{tag}: early only when a component has nothing"
                            );
                            assert_eq!(outcome.status, NegotiationStatus::FailedWithoutOffer);
                            assert_eq!(outcome.local_offer, None, "{tag}");
                            let trace = NegotiationTrace {
                                feasible_variants,
                                ..NegotiationTrace::default()
                            };
                            assert_eq!(outcome.trace, trace, "{tag}: trace");
                        }
                        Prepared::Offers(ranked, trace, _) => {
                            let literal = literal_offers(&per_mono, &durations, &w.cost);
                            let want = classify(literal, &profile, strategy);
                            assert_eq!(trace.feasible_variants, feasible_variants, "{tag}");
                            assert_eq!(trace.offers_enumerated, want.len(), "{tag}");
                            assert_eq!(trace.reservation_attempts, 0, "{tag}");
                            assert_eq!(log.feasible_variants, feasible_variants as u64, "{tag}");
                            assert_eq!(log.offers_enumerated, want.len() as u64, "{tag}");
                            check_order(&ranked, &want, &tag);
                            offers += want.len();
                        }
                    }
                }
            }
        }
    }
    assert!(cut_off >= 20, "too few documents cut off: {cut_off}");
    assert!(thinned >= 20, "too few documents thinned: {thinned}");
    assert!(offers > 5_000, "coverage too thin: {offers} offers");
}

/// One negotiation on a fresh world — through `Session::submit` or
/// through the `prepare` → `commit_prepared` pair — optionally explained
/// and with server 0 choked so the walk has refusals to report.
fn negotiation(
    seed: u64,
    doc: u64,
    via_submit: bool,
    explain: bool,
    choke: bool,
) -> NegotiationOutcome {
    let w = world(seed);
    if choke {
        w.farm.server(ServerId(0)).unwrap().set_health(0.0);
    }
    let client = ClientMachine::era_workstation(ClientId(0));
    let profile = tv_news_profile();
    let mut ctx = ctx(&w, ClassificationStrategy::SnsThenOif);
    ctx.explain = explain;
    if via_submit {
        return Session::new(ctx)
            .submit(&NegotiationRequest::new(&client, DocumentId(doc), &profile))
            .expect("valid request");
    }
    match prepare(&ctx, &client, DocumentId(doc), &profile).expect("valid request") {
        Prepared::Early(mut outcome) => {
            if explain {
                let mut log = DecisionLog {
                    status: Some(outcome.status),
                    ..DecisionLog::default()
                };
                explain_attempts(&ctx, &client, DocumentId(doc), &profile, [&mut log]);
                outcome.decisions = Some(Box::new(log));
            }
            *outcome
        }
        Prepared::Offers(ranked, trace, decisions) => {
            // Steps 1–4 record nothing; the walk derives the log at once.
            assert!(decisions.is_none());
            commit_prepared(&ctx, &client, &profile, ranked, trace, decisions)
        }
    }
}

#[test]
fn explain_records_the_walk_without_changing_it() {
    let (mut refused, mut reserved) = (0usize, 0usize);
    for seed in 0..12u64 {
        for doc in 1..=6u64 {
            for (choke, via_submit) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let mut plain = negotiation(seed, doc, via_submit, false, choke);
                let mut explained = negotiation(seed, doc, via_submit, true, choke);
                let tag = format!("seed {seed} doc {doc} choke {choke} submit {via_submit}");
                assert_eq!(plain.status, explained.status, "{tag}: status");
                assert_eq!(plain.reserved_index, explained.reserved_index, "{tag}");
                assert_eq!(plain.reserved_offer, explained.reserved_offer, "{tag}");
                assert_eq!(plain.refusals, explained.refusals, "{tag}");
                assert_eq!(plain.trace, explained.trace, "{tag}: trace");
                let ordered = materialized(&mut explained.ordered_offers);
                assert_eq!(
                    materialized(&mut plain.ordered_offers),
                    ordered,
                    "{tag}: ordered offers"
                );
                assert!(plain.decisions.is_none(), "{tag}: explain off logs nothing");
                let log = explained.decisions.as_ref().expect("explain on logs");
                assert_eq!(log.status, Some(explained.status), "{tag}");
                assert_eq!(log.refusals, explained.refusals, "{tag}: one list, logged");
                refused += log.refusals.len();
                reserved += usize::from(explained.reserved_index.is_some());

                // The score rows are the first k entries of the list the
                // walk used (plus the chosen offer when it ranks lower).
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
