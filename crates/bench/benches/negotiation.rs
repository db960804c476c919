//! B4 — end-to-end negotiation latency and its scaling with catalog
//! richness (variants per monomedia drive the offer-enumeration size),
//! plus the observability overhead check: the same negotiation with the
//! recorder disabled, enabled, and enabled with a sink attached.
//!
//! B8 — the lazily ordered offer walk on a rich catalog: end-to-end
//! `negotiate()` latency when the first offer commits (the walk orders a
//! head and materializes one offer) and when every commit is refused (the
//! walk orders and attempts the whole product), and heap-allocation
//! counts measured by a counting global allocator — the first-offer walk
//! must allocate a small fraction of what materializing the classified
//! list does.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nod_bench::micro::Micro;
use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_obs::{MemorySink, Recorder};
use nod_qosneg::classify::reservation_order;
use nod_qosneg::engine::OfferEngine;
use nod_qosneg::negotiate::{NegotiationContext, NegotiationOutcome, StreamingMode};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{
    ClassificationStrategy, CostModel, NegotiationRequest, Procedure, QosError, Session,
    UserProfile,
};
use nod_simcore::StreamRng;

/// End-to-end negotiation through the unified request API — the public
/// entry point callers use, so its dispatch cost is part of what B4
/// measures.
fn negotiate_via(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
    procedure: Procedure,
) -> Result<NegotiationOutcome, QosError> {
    Session::new(*ctx).submit(&NegotiationRequest::new(client, doc, profile).procedure(procedure))
}

fn negotiate(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, QosError> {
    negotiate_via(ctx, client, doc, profile, Procedure::Smart)
}

/// Counts heap allocations so the b8 metrics can show how many the
/// lazy walk avoids. Counting is a single relaxed atomic add per
/// allocation; the timing benches share the overhead equally.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; only bookkeeping is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

fn world(video_variants: (usize, usize)) -> World {
    let mut rng = StreamRng::new(17);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 4,
        servers: (0..4).map(ServerId).collect(),
        video_variants,
        audio_variants: (2, 4),
        replicas: (1, 2),
        ..CorpusParams::default()
    })
    .build(&mut rng);
    World {
        catalog,
        farm: ServerFarm::uniform(4, ServerConfig::era_default()),
        network: Network::new(Topology::dumbbell(4, 4, 25_000_000, 155_000_000)),
        cost: CostModel::era_default(),
    }
}

fn ctx(w: &World) -> NegotiationContext<'_> {
    NegotiationContext {
        catalog: &w.catalog,
        farm: &w.farm,
        network: &w.network,
        cost_model: &w.cost,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: Guarantee::Guaranteed,
        enumeration_cap: 2_000_000,
        jitter_buffer_ms: 2_000,
        prune_dominated: false,
        streaming: StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

/// Allocations per `negotiate()` call, averaged over `rounds` runs.
fn allocs_per_negotiation(
    c: &NegotiationContext<'_>,
    w: &World,
    client: &ClientMachine,
    rounds: u64,
) -> f64 {
    let before = alloc_count();
    for _ in 0..rounds {
        let out = negotiate(c, client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    }
    (alloc_count() - before) as f64 / rounds as f64
}

fn main() {
    let mut m = Micro::new().sample_size(20);

    // B4: negotiation latency vs. catalog richness.
    for variants in [2usize, 4, 8] {
        let w = world((variants, variants));
        let client = ClientMachine::era_workstation(ClientId(0));
        let c = ctx(&w);
        m.bench(
            &format!("b4_negotiate_by_catalog_richness/{variants}"),
            || {
                let out = negotiate(
                    &c,
                    black_box(&client),
                    DocumentId(1),
                    black_box(&tv_news_profile()),
                )
                .unwrap();
                if let Some(r) = &out.reservation {
                    r.release(&w.farm, &w.network);
                }
                out.trace.offers_enumerated
            },
        );
    }

    // B4: smart negotiation vs. first-fit baseline.
    let w = world((4, 6));
    let client = ClientMachine::era_workstation(ClientId(0));
    let c = ctx(&w);
    m.bench("b4_smart_vs_first_fit/smart", || {
        let out = negotiate(&c, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    });
    m.bench("b4_smart_vs_first_fit/first_fit", || {
        let out = negotiate_via(
            &c,
            &client,
            DocumentId(1),
            &tv_news_profile(),
            Procedure::FirstFit,
        )
        .unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    });

    // B4-obs: recorder overhead on the same negotiation — off (the None
    // fast path), on without a sink (counters/histograms only), and on
    // with an in-memory event sink.
    let recorder = Recorder::new();
    let ctx_on = NegotiationContext {
        recorder: Some(&recorder),
        ..ctx(&w)
    };
    let sinked = Recorder::with_sink(Arc::new(MemorySink::new()));
    let ctx_sink = NegotiationContext {
        recorder: Some(&sinked),
        ..ctx(&w)
    };
    m.bench("b4_obs_overhead/recorder_off", || {
        let out = negotiate(&c, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    });
    m.bench("b4_obs_overhead/recorder_on", || {
        let out = negotiate(&ctx_on, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    });
    m.bench("b4_obs_overhead/recorder_on_memory_sink", || {
        let out = negotiate(&ctx_sink, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
    });

    // B8: the lazy offer walk on a rich catalog (every document carries
    // video, narration, French narration, and a still image — four
    // components — with an 8-rung video ladder).
    let rich = || {
        let mut rng = StreamRng::new(29);
        let catalog = CorpusBuilder::new(CorpusParams {
            documents: 4,
            servers: (0..4).map(ServerId).collect(),
            video_variants: (8, 8),
            audio_variants: (6, 6),
            replicas: (3, 3),
            image_probability: 1.0,
            french_probability: 1.0,
            ..CorpusParams::default()
        })
        .build(&mut rng);
        World {
            catalog,
            farm: ServerFarm::uniform(4, ServerConfig::era_default()),
            network: Network::new(Topology::dumbbell(4, 4, 25_000_000, 155_000_000)),
            cost: CostModel::era_default(),
        }
    };

    let w8 = rich();
    let client = ClientMachine::era_highend(ClientId(0));
    let c8 = ctx(&w8);

    // First-commit path: a healthy farm accepts the best offer on the
    // first try, so the walk scores the product, orders a head and
    // materializes one offer.
    m.bench("b8_lazy_order/first_commit", || {
        let out = negotiate(&c8, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w8.farm, &w8.network);
        }
        out.trace.reservation_attempts
    });

    // Allocation counts on the ordering path alone: identical prebuilt
    // engines, then (a) the walk's first offer vs. (b) the full
    // materialized classified list. The end-to-end count below includes
    // the shared negotiation machinery (profile, feasibility, commit).
    let engine = {
        let document = w8.catalog.document(DocumentId(1)).unwrap();
        let profile = tv_news_profile();
        let mut builder = OfferEngine::builder(
            &profile,
            &w8.cost,
            Guarantee::Guaranteed,
            ClassificationStrategy::SnsThenOif,
            document.monomedia().len(),
        );
        for mm in document.monomedia() {
            let stored = w8.catalog.variants_of(mm.id);
            let feasible =
                stored.filter(|v| client.feasible(v) && w8.network.has_route(client.id, v.server));
            builder.component(mm.id, mm.duration_ms, feasible);
        }
        builder.finish(2_000_000).unwrap()
    };
    const ROUNDS: u64 = 32;
    let before = alloc_count();
    for _ in 0..ROUNDS {
        black_box(engine.reservation_stream().next());
    }
    let first_offer_allocs = (alloc_count() - before) as f64 / ROUNDS as f64;
    let before = alloc_count();
    for _ in 0..ROUNDS {
        let ordered = engine.classify_all();
        black_box(reservation_order(&ordered));
    }
    let full_list_allocs = (alloc_count() - before) as f64 / ROUNDS as f64;
    assert!(
        first_offer_allocs * 10.0 < full_list_allocs,
        "the first-offer walk ({first_offer_allocs} allocations) must not materialize the list \
         ({full_list_allocs})"
    );
    m.metric("b8_allocs_enumeration_path/first_offer", first_offer_allocs);
    m.metric(
        "b8_allocs_enumeration_path/full_materialized_list",
        full_list_allocs,
    );

    // Allocation count of the same first-commit negotiation.
    m.metric(
        "b8_allocs_per_negotiation/first_commit",
        allocs_per_negotiation(&c8, &w8, &client, 32),
    );

    // All-refused path: every server is dead, so every commit is refused
    // and the walk orders and attempts the whole product.
    let w_dead = rich();
    for s in w_dead.farm.ids() {
        w_dead.farm.server(s).unwrap().set_health(0.0);
    }
    let c_dead = ctx(&w_dead);
    m.bench("b8_lazy_order/all_refused", || {
        let out = negotiate(&c_dead, &client, DocumentId(1), &tv_news_profile()).unwrap();
        debug_assert!(out.reservation.is_none());
        out.trace.reservation_attempts
    });

    m.report();
}
