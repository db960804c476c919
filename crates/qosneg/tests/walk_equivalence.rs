//! The step-5 walk — offers attempted by reference, refused prefixes
//! remembered for the rest of the walk — must decide exactly what the
//! naive walk decides: materialize every offer of the reservation order
//! and ask `try_commit_refusal` about each, every server and link
//! included. Same reserved offer, same `(index, CommitFailure)` list, same
//! explain `RefusalRecord`s down to the shortfall numbers, same capacity
//! held afterwards — through `Session::submit`, plain and explained, and
//! through `prepare → commit_prepared`, on walks that stop inside the
//! ordered head and walks that outlast it (the ordering step in the middle
//! of a walk must not cost it its memo).
//!
//! Adaptation is the same walk again: after the reserved offer's first
//! server dies, `adapt` over the outcome's list must decide what the naive
//! adaptation decides — the whole list materialized, every alternate but
//! the current one asked about in reservation order, no startup bound —
//! down to each refusal record and the capacity held afterwards.
//!
//! The counting tests then pin what the memo is for: a refused walk asks
//! the farm once per distinct refused prefix, not once per offer, and a
//! first-offer commit costs no more calls or allocations than before; an
//! adaptation likewise, and it never materializes the list it walks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nod_client::ClientMachine;
use nod_cmfs::{FarmUsage, Guarantee, ServerConfig, ServerFarm, StreamRequirement};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::prelude::*;
use nod_netsim::{Network, Topology};
use nod_obs::Recorder;
use nod_qosneg::adapt::{adapt, AdaptationReason};
use nod_qosneg::classify::reservation_order;
use nod_qosneg::engine::HEAD;
use nod_qosneg::explain::{RefusalRecord, Shortfall};
use nod_qosneg::negotiate::{
    commit_prepared, prepare, try_commit_refusal, CommitFailure, NegotiationContext,
    NegotiationOutcome, NegotiationStatus, Prepared, SessionReservation, StreamingMode,
};
use nod_qosneg::profile::{tv_news_profile, MmQosSpec, UserProfile};
use nod_qosneg::{
    ClassificationStrategy, CostModel, Money, NegotiationRequest, ScoredOffer, Session,
};
use nod_simcore::StreamRng;

/// Counts this thread's heap allocations (tests run on parallel threads,
/// so a process-wide count would include the neighbours').
struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: an allocation during thread teardown must not panic.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method delegates verbatim to `System` with the caller's
// arguments; the only addition is a thread-local counter that itself
// never allocates (const-initialized `Cell`, no destructor).
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(|n| n.get())
}

const STRATEGIES: [ClassificationStrategy; 4] = [
    ClassificationStrategy::SnsThenOif,
    ClassificationStrategy::OifOnly,
    ClassificationStrategy::CostOnly,
    ClassificationStrategy::QosOnly,
];

const ACCESS_BPS: u64 = 25_000_000;

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

impl World {
    fn new(catalog: Catalog, servers: usize, config: ServerConfig) -> World {
        World::with_access(catalog, servers, config, ACCESS_BPS)
    }

    fn with_access(
        catalog: Catalog,
        servers: usize,
        config: ServerConfig,
        access_bps: u64,
    ) -> World {
        World {
            catalog,
            farm: ServerFarm::uniform(servers, config),
            network: Network::new(Topology::dumbbell(4, servers, access_bps, 155_000_000)),
            cost: CostModel::era_default(),
        }
    }

    /// Everything a leaked or missing reservation would move.
    fn capacity(&self) -> (FarmUsage, usize, u64) {
        (
            self.farm.usage(),
            self.network.active_reservations(),
            self.network.total_reserved_bps(),
        )
    }

    /// Fill `server` to its stream limit with audio-sized streams.
    fn fill(&self, server: u64, streams: usize) {
        for _ in 0..streams {
            self.farm
                .try_reserve(ServerId(server), filler())
                .expect("the filler fits an empty server");
        }
    }

    /// Reserve `bps` of client 0's access link.
    fn hog_access_link(&self, bps: u64) {
        self.network
            .try_reserve(ClientId(0), ServerId(0), bps)
            .expect("the hog fits an idle link");
    }
}

fn filler() -> StreamRequirement {
    StreamRequirement {
        variant: VariantId(0),
        max_bit_rate: 64_000,
        avg_bit_rate: 64_000,
        max_block_bytes: 8_000,
        avg_block_bytes: 8_000,
        blocks_per_second: 1,
        guarantee: Guarantee::Guaranteed,
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

/// What the paper-literal step 5 decides: every offer materialized, every
/// question asked.
struct Naive {
    reserved: Option<(usize, ScoredOffer)>,
    failures: Vec<(usize, CommitFailure)>,
    refusals: Vec<RefusalRecord>,
}

impl Naive {
    fn status(&self) -> NegotiationStatus {
        match &self.reserved {
            Some((_, scored)) if scored.satisfies_request => NegotiationStatus::Succeeded,
            Some(_) => NegotiationStatus::FailedWithOffer,
            None => NegotiationStatus::FailedTryLater,
        }
    }
}

/// The naive walk over `prepare`'s list; `None` when negotiation ends
/// before step 5. A committed reservation stays held, as the real walk's
/// does.
fn naive_walk(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
) -> Option<Naive> {
    let Prepared::Offers(mut ranked, ..) =
        prepare(ctx, client, doc, profile).expect("valid request")
    else {
        return None;
    };
    let mut naive = Naive {
        reserved: None,
        failures: Vec::new(),
        refusals: Vec::new(),
    };
    let order: Vec<usize> = ranked.reservation_order().collect();
    for idx in order {
        let scored = ranked.materialize(idx);
        match try_commit_refusal(ctx, client, &scored.offer, profile.time.max_startup_ms) {
            Err(refusal) => {
                naive.refusals.push(refusal.record(idx));
                naive.failures.push((idx, refusal.failure));
            }
            Ok(_) => {
                naive.reserved = Some((idx, scored));
                break;
            }
        }
    }
    Some(naive)
}

/// What the checks below saw, so a corpus that stopped contending fails
/// loudly instead of passing vacuously.
#[derive(Default)]
struct Coverage {
    walks: usize,
    refused_offers: usize,
    /// Walks that committed an offer after refusing others.
    late_commits: usize,
    /// Offers refused by a link short of bandwidth (`Shortfall::Link`).
    link_refusals: usize,
    memo_hits: u64,
    /// `Session::submit` walks that outlasted the ordered head.
    deep_walks: usize,
    /// Adaptations run after a committed walk's first server died.
    adaptations: usize,
    /// Of those, the ones that switched to an alternate.
    switches: usize,
    /// Alternates the adaptations refused.
    adapt_refusals: usize,
}

fn assert_outcome(out: &NegotiationOutcome, naive: &Naive, tag: &str) {
    assert_eq!(out.status, naive.status(), "{tag}: status");
    assert_eq!(
        out.reserved_index,
        naive.reserved.as_ref().map(|(idx, _)| *idx),
        "{tag}: reserved index"
    );
    assert_eq!(
        out.reserved_offer.as_ref(),
        naive.reserved.as_ref().map(|(_, scored)| scored),
        "{tag}: reserved offer"
    );
    assert_eq!(out.commit_failures, naive.failures, "{tag}: failures");
    assert_eq!(
        out.trace.reservation_attempts,
        naive.failures.len() + usize::from(naive.reserved.is_some()),
        "{tag}: attempts"
    );
    if let Some(log) = &out.decisions {
        assert_eq!(log.refusals, naive.refusals, "{tag}: refusal records");
    }
}

/// The memoised walk ≡ the naive walk on identically built worlds, through
/// every entry that runs step 5.
fn assert_walks_agree(
    make: &dyn Fn() -> World,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
    tag: &str,
    coverage: &mut Coverage,
) {
    let w = make();
    let Some(naive) = naive_walk(&ctx(&w, strategy), client, doc, profile) else {
        return;
    };
    let held = w.capacity();
    coverage.walks += 1;
    coverage.refused_offers += naive.failures.len();
    coverage.link_refusals += (naive.refusals.iter())
        .filter(|r| matches!(r.shortfall, Shortfall::Link { .. }))
        .count();
    coverage.late_commits += usize::from(naive.reserved.is_some() && !naive.failures.is_empty());

    // Session::submit as a viewer calls it. The recorder only reads.
    let w = make();
    let rec = Recorder::new();
    let out = Session::new(ctx(&w, strategy))
        .submit(&NegotiationRequest::new(client, doc, profile).recorder(&rec))
        .expect("valid request");
    assert_outcome(&out, &naive, &format!("{tag} submit"));
    assert_eq!(w.capacity(), held, "{tag} submit: capacity");
    let snap = rec.snapshot();
    assert_eq!(
        snap.counter("negotiation.reservation.attempts"),
        out.trace.reservation_attempts as u64,
        "{tag}: the attempts counter counts offers"
    );
    assert_eq!(
        snap.counter_sum("negotiation.commit.refused"),
        naive.failures.len() as u64,
        "{tag}: the refusal census counts offers"
    );
    coverage.memo_hits += snap.counter("negotiation.commit.memo_hits");
    coverage.deep_walks += usize::from(out.trace.reservation_attempts > HEAD);

    // The explained walk: the same walk, with a decision log.
    let w = make();
    let out = Session::new(ctx(&w, strategy))
        .submit(&NegotiationRequest::new(client, doc, profile).explain())
        .expect("valid request");
    assert!(out.decisions.is_some(), "{tag}: explain was requested");
    assert_outcome(&out, &naive, &format!("{tag} submit+explain"));
    assert_eq!(w.capacity(), held, "{tag} submit+explain: capacity");

    // The broker's pair.
    let w = make();
    let mut c = ctx(&w, strategy);
    c.explain = true;
    let Prepared::Offers(ranked, trace, log) =
        prepare(&c, client, doc, profile).expect("valid request")
    else {
        panic!("{tag}: prepare ended early where the naive walk did not");
    };
    let out = commit_prepared(&c, client, profile, ranked, trace, log);
    assert_outcome(&out, &naive, &format!("{tag} commit_prepared"));
    assert_eq!(w.capacity(), held, "{tag} commit_prepared: capacity");

    assert_adaptations_agree(make, client, doc, profile, strategy, tag, coverage);
}

/// What the paper-literal adaptation decides over `offers`, the whole list
/// materialized: every alternate but `current` asked about in reservation
/// order with no startup bound, the first that commits kept and `held`
/// released — make-before-break.
struct NaiveAdaptation {
    new_index: Option<usize>,
    attempts: usize,
    refusals: Vec<RefusalRecord>,
}

fn naive_adapt(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    offers: &[ScoredOffer],
    current: usize,
    held: &SessionReservation,
) -> NaiveAdaptation {
    let mut naive = NaiveAdaptation {
        new_index: None,
        attempts: 0,
        refusals: Vec::new(),
    };
    for idx in reservation_order(offers) {
        if idx == current {
            continue;
        }
        naive.attempts += 1;
        match try_commit_refusal(ctx, client, &offers[idx].offer, u64::MAX) {
            Err(refusal) => naive.refusals.push(refusal.record(idx)),
            Ok(_) => {
                held.release(ctx.farm, ctx.network);
                naive.new_index = Some(idx);
                break;
            }
        }
    }
    naive
}

/// Negotiate through `Session::submit`, then kill the first server of the
/// committed offer; `None` when nothing committed.
fn negotiate_then_kill(
    w: &World,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
) -> Option<NegotiationOutcome> {
    let out = Session::new(ctx(w, strategy))
        .submit(&NegotiationRequest::new(client, doc, profile))
        .expect("valid request");
    let victim = out.reservation.as_ref()?.servers[0].0;
    w.farm.server(victim).expect("in the farm").set_health(0.0);
    Some(out)
}

/// `adapt` over the outcome's own list ≡ the naive adaptation over
/// `classify_all()`, on identically built worlds.
fn assert_adaptations_agree(
    make: &dyn Fn() -> World,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
    strategy: ClassificationStrategy,
    tag: &str,
    coverage: &mut Coverage,
) {
    let w = make();
    let Some(mut out) = negotiate_then_kill(&w, client, doc, profile, strategy) else {
        return;
    };
    let current = out.reserved_index.expect("a reservation has an index");
    let held = out.reservation.clone().expect("checked above");
    let mut c = ctx(&w, strategy);
    c.explain = true;
    let reason = AdaptationReason::ServerCongestion;
    let adapted = adapt(&c, client, &mut out.ordered_offers, current, &held, reason);

    let naive_world = make();
    let naive_out = negotiate_then_kill(&naive_world, client, doc, profile, strategy)
        .expect("identical worlds commit identically");
    let offers = naive_out.ordered_offers.engine().classify_all();
    let naive_held = naive_out.reservation.as_ref().expect("checked above");
    let naive_ctx = ctx(&naive_world, strategy);
    let naive = naive_adapt(&naive_ctx, client, &offers, current, naive_held);

    let tag = format!("{tag} adapt");
    assert_eq!(adapted.new_index, naive.new_index, "{tag}: new index");
    assert_eq!(adapted.attempts, naive.attempts, "{tag}: attempts");
    let record = adapted.explain.expect("explain was on");
    assert_eq!(record.attempts, naive.refusals, "{tag}: refusal records");
    assert_eq!(
        record.new_rank,
        naive.new_index.map(|i| i as u64),
        "{tag}: new rank"
    );
    assert_eq!(w.capacity(), naive_world.capacity(), "{tag}: capacity");
    coverage.adaptations += 1;
    coverage.switches += usize::from(adapted.new_index.is_some());
    coverage.adapt_refusals += naive.refusals.len();
}

/// The streaming-equivalence corpus (catalog shape varies with the seed),
/// put under a seed-chosen mix of pressure: a dead server, a server filled
/// exactly to its stream limit, a nearly full access link, an impossible
/// startup bound.
fn corpus_world(seed: u64) -> World {
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
    let slots = 6;
    let w = World::new(
        catalog,
        servers,
        ServerConfig {
            max_streams: slots,
            ..ServerConfig::era_default()
        },
    );
    let pressure = shape.below(16);
    if pressure & 1 != 0 {
        // One slot short of full, or exactly full.
        w.fill(shape.below(servers as u64), slots - shape.below(2) as usize);
    }
    if pressure & 2 != 0 {
        let dead = ServerId(shape.below(servers as u64));
        w.farm.server(dead).expect("in the farm").set_health(0.0);
    }
    if pressure & 4 != 0 {
        w.hog_access_link(ACCESS_BPS - 6_000_000 - shape.below(6) * 2_000_000);
    }
    w
}

#[test]
fn memoised_walk_equals_naive_walk_over_the_contended_corpus() {
    let client = ClientMachine::era_workstation(ClientId(0));
    let mut coverage = Coverage::default();
    for seed in 0..48u64 {
        let mut profile = tv_news_profile();
        if seed % 8 == 7 {
            // No round-based server starts a stream in 1 ms.
            profile.time.max_startup_ms = 1;
        }
        for doc in 1..=6u64 {
            let strategy = STRATEGIES[((seed + doc) % 4) as usize];
            assert_walks_agree(
                &|| corpus_world(seed),
                &client,
                DocumentId(doc),
                &profile,
                strategy,
                &format!("seed {seed} doc {doc} {strategy:?}"),
                &mut coverage,
            );
        }
    }
    assert!(
        coverage.late_commits >= 25,
        "no walk committed after refusing: {} did",
        coverage.late_commits
    );
    assert!(coverage.walks >= 250, "thin: {} walks", coverage.walks);
    assert!(
        coverage.refused_offers >= 2_000,
        "the corpus stopped contending: {} refused offers",
        coverage.refused_offers
    );
    assert!(
        coverage.memo_hits >= 500,
        "the memo was barely exercised: {} hits",
        coverage.memo_hits
    );
    assert!(
        coverage.deep_walks >= 10,
        "no walk outlasted the ordered head: {} did",
        coverage.deep_walks
    );
    assert!(
        coverage.adaptations >= 120,
        "thin: {} adaptations",
        coverage.adaptations
    );
    assert!(
        coverage.switches >= 50,
        "adaptation rarely found an alternate: {} times",
        coverage.switches
    );
    assert!(
        coverage.adapt_refusals >= 3_000,
        "adaptation stopped contending: {} refused alternates",
        coverage.adapt_refusals
    );
}

/// One hand-built variant: `(server, colour, frames per second)`.
type Stream = (u64, ColorDepth, u32);

/// A catalog holding one all-video article, `components[c]` listing the
/// variants of component `c`. 25 fps streams charge 2 Mb/s, 15 fps
/// 1.2 Mb/s.
fn article(components: &[Vec<Stream>]) -> Catalog {
    let monomedia: Vec<Monomedia> = (0..components.len() as u64)
        .map(|c| {
            Monomedia::new(MonomediaId(c + 1), MediaKind::Video, format!("clip {c}"))
                .with_duration_secs(60)
        })
        .collect();
    let mut catalog = Catalog::new();
    catalog
        .add_document(Document::multimedia(
            DocumentId(1),
            "article",
            monomedia,
            vec![],
            vec![],
        ))
        .expect("fresh catalog");
    let mut id = 0;
    for (c, variants) in components.iter().enumerate() {
        for &(server, color, fps) in variants {
            id += 1;
            catalog
                .add_variant(Variant {
                    id: VariantId(id),
                    monomedia: MonomediaId(c as u64 + 1),
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
                })
                .expect("fresh variant of a known component");
        }
    }
    catalog
}

/// Accepts every hand-built variant (worst = grey 10 fps) and prefers
/// colour TV, so the products below span the SNS classes.
fn video_profile() -> UserProfile {
    let video = |color, fps| MmQosSpec {
        video: Some(VideoQos {
            color,
            resolution: Resolution::new(320),
            frame_rate: FrameRate::new(fps),
        }),
        ..MmQosSpec::default()
    };
    let mut profile = UserProfile::strict(
        "walk-tests",
        video(ColorDepth::Color, 25),
        Money::from_dollars(50),
    );
    profile.worst = video(ColorDepth::Grey, 10);
    profile
}

/// A workstation that can decode any number of the hand-built streams.
fn roomy_client() -> ClientMachine {
    let mut client = ClientMachine::era_workstation(ClientId(0));
    client.decode_budget = 1e9;
    client
}

const TV: Stream = (0, ColorDepth::Color, 25);
const GREY: Stream = (0, ColorDepth::Grey, 15);

fn on(server: u64, (_, color, fps): Stream) -> Stream {
    (server, color, fps)
}

/// 4 × 3 × 3 = 36 offers: component 0 on servers 0 and 1, components 1
/// and 2 sharing servers 2 and 3.
fn three_by_servers() -> Vec<Vec<Stream>> {
    vec![
        vec![on(0, TV), on(0, GREY), on(1, TV), on(1, GREY)],
        vec![on(2, TV), on(2, GREY), on(3, GREY)],
        vec![on(3, TV), on(2, GREY), on(3, GREY)],
    ]
}

fn small_farm(slots: usize) -> ServerConfig {
    ServerConfig {
        max_streams: slots,
        ..ServerConfig::era_default()
    }
}

fn check_scenario(
    make: &dyn Fn() -> World,
    client: &ClientMachine,
    profile: &UserProfile,
    tag: &str,
) -> Coverage {
    let mut coverage = Coverage::default();
    for strategy in STRATEGIES {
        assert_walks_agree(
            make,
            client,
            DocumentId(1),
            profile,
            strategy,
            &format!("{tag} {strategy:?}"),
            &mut coverage,
        );
    }
    assert_eq!(coverage.walks, STRATEGIES.len(), "{tag}: reached step 5");
    coverage
}

#[test]
fn exactly_full_farms_refuse_the_same_offers_for_the_same_numbers() {
    // 4 × 3 × 3 offers. First-component servers exactly full: every
    // refusal is at component 0.
    let components = three_by_servers();
    let head_full = || {
        let w = World::new(article(&components), 4, small_farm(3));
        w.fill(0, 3);
        w.fill(1, 3);
        w
    };
    let c = check_scenario(&head_full, &roomy_client(), &video_profile(), "head full");
    assert_eq!(c.refused_offers, 4 * 36, "every offer refused");
    assert_eq!(c.memo_hits, 4 * (36 - 4), "one real question per variant");
    assert_eq!(c.deep_walks, 4, "36 offers outlast the ordered head");

    // Servers 2 and 3 exactly full: component 0 reserves, component 1 is
    // refused, the offer rolls back — once per (c0, c1) pair.
    let middle_full = || {
        let w = World::new(article(&components), 4, small_farm(40));
        w.fill(2, 40);
        w.fill(3, 40);
        w
    };
    let c = check_scenario(
        &middle_full,
        &roomy_client(),
        &video_profile(),
        "middle full",
    );
    assert_eq!(c.refused_offers, 4 * 36);
    assert_eq!(c.memo_hits, 4 * (36 - 12), "one question per (c0, c1) pair");

    // Only the last component's server full: every offer reserves two
    // streams, is refused at the third and rolls back. That prefix is the
    // whole offer, so nothing is remembered.
    let tail = vec![
        vec![on(0, TV), on(0, GREY), on(1, TV)],
        vec![on(1, TV), on(2, GREY)],
        vec![on(3, TV), on(3, GREY)],
    ];
    let tail_full = || {
        let w = World::new(article(&tail), 4, small_farm(3));
        w.fill(3, 3);
        w
    };
    let c = check_scenario(&tail_full, &roomy_client(), &video_profile(), "tail full");
    assert_eq!(c.refused_offers, 4 * 12);
    assert_eq!(c.memo_hits, 0);

    // Server 0 full, server 1 open: the walk passes the refused half of
    // the product and commits an offer from the other.
    let half_open = || {
        let w = World::new(article(&components), 4, small_farm(40));
        w.fill(0, 40);
        w
    };
    let c = check_scenario(&half_open, &roomy_client(), &video_profile(), "half open");
    assert!(c.refused_offers > 0, "offers on the full server are walked");
    assert_eq!(c.late_commits, 4, "and an offer on the open one commits");
    // Then the open server dies: every alternate is refused at its first
    // component, full or dead.
    assert_eq!(c.adaptations, 4, "every committed walk adapts");
    assert_eq!(c.switches, 0);
    assert_eq!(c.adapt_refusals, 4 * 35);
}

#[test]
fn two_components_on_one_server_are_judged_with_the_prefix_reserved() {
    // Server 0 has one slot left. Component 0 takes it, so component 1 —
    // on the same server — is refused *because of the prefix's own
    // reservation*; the stream-limit shortfall and the rollback must match
    // the naive walk's. Component 2 makes the depth-1 prefix shareable.
    let components = vec![
        vec![on(0, TV), on(0, GREY)],
        vec![on(0, TV), on(0, GREY), on(0, (0, ColorDepth::Grey, 10))],
        vec![on(1, TV), on(1, GREY), on(1, (0, ColorDepth::Color, 15))],
    ];
    let make = || {
        let w = World::new(article(&components), 2, small_farm(5));
        w.fill(0, 4);
        w
    };
    let c = check_scenario(&make, &roomy_client(), &video_profile(), "shared server");
    assert_eq!(c.refused_offers, 4 * 18);
    assert_eq!(c.memo_hits, 4 * (18 - 6), "one question per (c0, c1) pair");

    // Disk rounds instead of slots: a degraded server whose round fits
    // one of these streams and not two.
    let make = || {
        let w = World::new(article(&components), 2, ServerConfig::era_default());
        w.farm
            .server(ServerId(0))
            .expect("in the farm")
            .set_health(0.02);
        w
    };
    check_scenario(&make, &roomy_client(), &video_profile(), "shared disk");
}

#[test]
fn a_saturated_access_link_refuses_by_what_the_prefix_already_holds() {
    // A 5 Mb/s access link and streams of 2 Mb/s (TV) and 1.2 Mb/s (grey).
    // Past 69 % utilization the path's jitter fails the §6 video bound, so
    // as the prefix's own reservations fill the link a later stream is
    // refused either by the path check or — a TV stream asked for while
    // less than 2 Mb/s is left — by the link itself. The refusing depth,
    // the refusal kind and the link's `available_bps` all depend on the
    // whole prefix, not just on the stream that failed.
    let components = vec![
        vec![on(0, TV), on(1, GREY), on(0, GREY)],
        vec![on(1, TV), on(2, GREY), on(1, GREY)],
        vec![on(2, TV), on(0, GREY), on(2, GREY)],
        vec![on(0, TV), on(1, GREY)],
    ];
    let mut link_refusals = 0;
    for hog_bps in [0, 400_000, 800_000, 1_200_000, 2_000_000, 3_600_000] {
        let make = || {
            let w = World::with_access(
                article(&components),
                3,
                ServerConfig::era_default(),
                5_000_000,
            );
            if hog_bps > 0 {
                w.hog_access_link(hog_bps);
            }
            w
        };
        let c = check_scenario(
            &make,
            &roomy_client(),
            &video_profile(),
            &format!("{hog_bps} b/s of the link taken"),
        );
        assert_eq!(c.refused_offers, 4 * 54, "no four streams fit");
        assert!(c.memo_hits > 0, "prefixes repeat");
        link_refusals += c.link_refusals;
    }
    assert!(
        link_refusals >= 40,
        "the link itself rarely refused: {link_refusals} times"
    );
}

#[test]
fn decode_budget_refusals_interleave_with_remembered_ones() {
    // The budget fits one TV stream plus grey ones, not two TV streams:
    // some offers are refused by the whole-offer decode check (never
    // memoised, checked first), the rest reach the full servers.
    let components = vec![
        vec![on(0, TV), on(0, GREY), on(1, GREY)],
        vec![on(1, TV), on(1, GREY), on(0, GREY)],
        vec![on(2, TV), on(2, GREY)],
    ];
    let make = || {
        let w = World::new(article(&components), 3, small_farm(2));
        w.fill(0, 2);
        w.fill(1, 2);
        w
    };
    let mut client = ClientMachine::era_workstation(ClientId(0));
    let tv = client.decode_cost(
        article(&components)
            .variant(VariantId(1))
            .expect("the first TV variant"),
    );
    client.decode_budget = tv * 1.9;
    let c = check_scenario(&make, &client, &video_profile(), "decode budget");
    assert_eq!(c.refused_offers, 4 * 18);
    assert!(c.memo_hits > 0);

    // The same article with room everywhere: the decode-refused offers are
    // walked past and a lighter one commits.
    let roomy = || World::new(article(&components), 3, ServerConfig::era_default());
    let c = check_scenario(&roomy, &client, &video_profile(), "decode budget, roomy");
    assert!(
        c.refused_offers > 0,
        "the best offers are too heavy to decode"
    );
}

#[test]
fn a_ten_component_article_is_walked_like_the_naive_walk() {
    // 2¹⁰ offers over ten components — the same walk as any other article.
    // Server 1 is full and the last component lives only
    // there, so all 1024 offers are refused — at the first component that
    // picked its server-1 variant.
    let mut components: Vec<Vec<Stream>> = (0..9)
        .map(|_| vec![on(0, (0, ColorDepth::Grey, 10)), on(1, GREY)])
        .collect();
    components.push(vec![on(1, (0, ColorDepth::Grey, 10)), on(1, GREY)]);
    let make = || {
        let w = World::new(article(&components), 2, small_farm(12));
        w.fill(1, 12);
        w
    };
    let c = check_scenario(&make, &roomy_client(), &video_profile(), "wide");
    assert_eq!(c.refused_offers, 4 * 1024);
    assert_eq!(c.deep_walks, 4);
    // Real questions: for each depth d < 9, the one prefix that stayed on
    // server 0 until d and then left it (10 of them, the last being the
    // all-server-0 prefix at depth 9 asked 2 times, once per last
    // variant) — 11 real refusals, everything else from the memo.
    assert_eq!(c.memo_hits, 4 * (1024 - 11));
}

/// `cmfs.admission` calls recorded by `rec`.
fn admissions(rec: &Recorder) -> u64 {
    rec.snapshot().counter_sum("cmfs.admission")
}

#[test]
fn a_refused_walk_asks_the_farm_once_per_distinct_first_variant() {
    // 4 × 3 × 3 = 36 offers whose first-component servers are exactly
    // full: 36 refused offers, 4 questions.
    let components = three_by_servers();
    let make = || {
        let w = World::new(article(&components), 4, small_farm(3));
        w.fill(0, 3);
        w.fill(1, 3);
        w
    };
    let client = roomy_client();
    let profile = video_profile();
    let strategy = ClassificationStrategy::SnsThenOif;

    // Session::submit: the walk orders a head, outlasts it and orders the
    // rest — and must still know what it learned on the way.
    let w = make();
    let rec = Recorder::new();
    w.farm.set_recorder(&rec);
    let out = Session::new(ctx(&w, strategy))
        .submit(&NegotiationRequest::new(&client, DocumentId(1), &profile).recorder(&rec))
        .expect("valid request");
    assert_eq!(out.status, NegotiationStatus::FailedTryLater);
    assert_eq!(out.commit_failures.len(), 36);
    assert_eq!(admissions(&rec), 4, "one admission call per first variant");
    let snap = rec.snapshot();
    assert_eq!(snap.counter("negotiation.reservation.attempts"), 36);
    assert_eq!(snap.counter_sum("negotiation.commit.refused"), 36);
    assert_eq!(snap.counter("negotiation.commit.memo_hits"), 32);

    // prepare → commit_prepared: the same four questions.
    let w = make();
    let rec = Recorder::new();
    w.farm.set_recorder(&rec);
    let c = ctx(&w, strategy);
    let Prepared::Offers(ranked, trace, log) =
        prepare(&c, &client, DocumentId(1), &profile).expect("valid request")
    else {
        panic!("prepare ended early");
    };
    let out = commit_prepared(&c, &client, &profile, ranked, trace, log);
    assert_eq!(out.status, NegotiationStatus::FailedTryLater);
    assert_eq!(out.trace.reservation_attempts, 36);
    assert_eq!(admissions(&rec), 4);
}

#[test]
fn a_first_offer_commit_costs_no_more_than_before() {
    let components = three_by_servers();
    let client = roomy_client();
    let profile = video_profile();
    let strategy = ClassificationStrategy::SnsThenOif;

    // Calls: one admission and one link reservation per stream.
    let w = World::new(article(&components), 4, ServerConfig::era_default());
    let rec = Recorder::new();
    w.farm.set_recorder(&rec);
    w.network.set_recorder(rec.clone());
    let mut c = ctx(&w, strategy);
    c.recorder = Some(&rec);
    let Prepared::Offers(ranked, trace, log) =
        prepare(&c, &client, DocumentId(1), &profile).expect("valid request")
    else {
        panic!("prepare ended early");
    };
    let out = commit_prepared(&c, &client, &profile, ranked, trace, log);
    assert_eq!(out.reserved_index, Some(0), "the best offer commits");
    assert_eq!(admissions(&rec), 3);
    let snap = rec.snapshot();
    assert_eq!(snap.counter("net.reservation.attempts"), 3);
    assert_eq!(
        snap.counter("negotiation.commit.memo_hits"),
        0,
        "a walk that never refuses never consults the memo"
    );

    // Allocations of the commit walk alone, nothing observing. `prepare`
    // answers reachability from component labels and routes nothing, so
    // the routes are warmed first, as any earlier session on the same
    // network would have left them.
    let w = World::new(article(&components), 4, ServerConfig::era_default());
    for server in w.farm.ids() {
        w.network
            .path(client.id, server)
            .expect("one connected network");
    }
    let c = ctx(&w, strategy);
    let Prepared::Offers(ranked, trace, log) =
        prepare(&c, &client, DocumentId(1), &profile).expect("valid request")
    else {
        panic!("prepare ended early");
    };
    let before = allocations();
    let out = commit_prepared(&c, &client, &profile, ranked, trace, log);
    let spent = allocations() - before;
    assert_eq!(out.reserved_index, Some(0));
    assert!(
        spent <= PARENT_FIRST_OFFER_ALLOCATIONS,
        "a first-offer commit allocated {spent} times"
    );
}

/// What `commit_prepared` allocated for the first-offer commit above
/// before the walk learned to remember, measured with this file's
/// allocator: the materialized offer, the rollback lists, a route copy per
/// path lookup and per link reservation, the reservation tables' nodes,
/// the user offer. (The shared routes took it to 8.)
const PARENT_FIRST_OFFER_ALLOCATIONS: u64 = 14;

#[test]
fn adapting_asks_the_farm_once_per_refused_prefix_and_counts_nothing() {
    // Server 0 exactly full, so the walk commits an offer whose first
    // stream is on server 1 — which then dies. Its 35 alternates all start
    // on server 0 or 1: four first variants, four questions.
    let components = three_by_servers();
    let w = World::new(article(&components), 4, small_farm(40));
    w.fill(0, 40);
    let (client, profile) = (roomy_client(), video_profile());
    let rec = Recorder::new();
    let mut c = ctx(&w, ClassificationStrategy::SnsThenOif);
    c.recorder = Some(&rec);
    w.farm.set_recorder(&rec);
    let mut out = Session::new(c)
        .submit(&NegotiationRequest::new(&client, DocumentId(1), &profile))
        .expect("valid request");
    let current = out.reserved_index.expect("an offer on server 1 commits");
    let held = out.reservation.clone().expect("reserved");
    assert_eq!(held.servers[0].0, ServerId(1));
    w.farm
        .server(ServerId(1))
        .expect("in the farm")
        .set_health(0.0);

    let before = rec.snapshot();
    let reason = AdaptationReason::ServerCongestion;
    let adapted = adapt(&c, &client, &mut out.ordered_offers, current, &held, reason);
    let after = rec.snapshot();
    assert!(!adapted.switched());
    assert_eq!(adapted.attempts, 35);
    let asked = after.counter_sum("cmfs.admission") - before.counter_sum("cmfs.admission");
    assert!(
        asked < adapted.attempts as u64,
        "{asked} admissions for {} alternates",
        adapted.attempts
    );
    assert_eq!(asked, 4, "one admission call per first variant");
    // Adaptation emits none of the walk's negotiation counters.
    for name in [
        "negotiation.reservation.attempts",
        "negotiation.commit.refused",
        "negotiation.commit.memo_hits",
        "negotiation.outcome",
    ] {
        assert_eq!(after.counter_sum(name), before.counter_sum(name), "{name}");
    }
    held.release(&w.farm, &w.network);
}

#[test]
fn adapting_a_wide_article_allocates_a_tenth_of_classifying_it() {
    // The ten-component article above, 1 024 offers, on an idle farm: the
    // best offer commits, then its first server dies and adaptation walks
    // the list — without materializing it, which is what `classify_all`
    // (the list the adaptation used to take) costs.
    let mut components: Vec<Vec<Stream>> = (0..9)
        .map(|_| vec![on(0, (0, ColorDepth::Grey, 10)), on(1, GREY)])
        .collect();
    components.push(vec![on(1, (0, ColorDepth::Grey, 10)), on(1, GREY)]);
    let w = World::new(article(&components), 2, ServerConfig::era_default());
    let (client, profile) = (roomy_client(), video_profile());
    let c = ctx(&w, ClassificationStrategy::SnsThenOif);
    let mut out = negotiate_then_kill(&w, &client, DocumentId(1), &profile, c.strategy)
        .expect("an idle farm admits the best offer");
    let current = out.reserved_index.expect("reserved");
    let held = out.reservation.clone().expect("reserved");

    let before = allocations();
    let reason = AdaptationReason::ServerCongestion;
    let adapted = adapt(&c, &client, &mut out.ordered_offers, current, &held, reason);
    let adapting = allocations() - before;

    let before = allocations();
    let classified = out.ordered_offers.engine().classify_all();
    let classifying = allocations() - before;
    assert_eq!(classified.len(), 1024);
    assert!(
        adapted.attempts > 100,
        "{} alternates tried",
        adapted.attempts
    );
    assert!(
        adapting * 10 < classifying,
        "adapting allocated {adapting} times, classify_all {classifying}"
    );
    adapted
        .reservation
        .as_ref()
        .unwrap_or(&held)
        .release(&w.farm, &w.network);
}
