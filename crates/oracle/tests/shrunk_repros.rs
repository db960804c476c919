//! Shrunk minimal repros — the committed regression suite.
//!
//! Each scenario below is in the shape the oracle's shrinker emits
//! (≤ 2 components, ≤ 2 variants, one knob doing the work) and pins an
//! edge the bug bash walked: boundary cost ceilings, empty variant sets,
//! NaN importances, infeasible clients, and the adaptation procedure's
//! make-before-break ordering under exactly-full capacity.

use nod_mmdoc::MediaKind;
use nod_oracle::diff::run_differential;
use nod_oracle::scenario::{
    ClientKind, ComponentSpec, CostCeiling, ImportanceAnomaly, Scenario, VariantSpec,
};
use nod_qosneg::adapt::{adapt, AdaptationReason};
use nod_qosneg::negotiate::{try_commit_refusal, NegotiationContext, StreamingMode};
use nod_qosneg::{ClassificationStrategy, NegotiationRequest, NegotiationStatus, Session};

fn video_variant(server: u8) -> VariantSpec {
    VariantSpec {
        color: 1,
        res: 320,
        fps: 25,
        lang: 0,
        max_block: 5_000,
        avg_block: 2_500,
        file_kb: 400,
        server,
    }
}

/// One video component, two exact-duplicate 1 Mb/s variants, one server,
/// a 1.5 Mb/s access link: capacity for exactly one stream.
fn exactly_full_scenario() -> Scenario {
    Scenario {
        seed: 424_242,
        servers: 1,
        access_bps: 1_500_000,
        backbone_bps: 155_000_000,
        components: vec![ComponentSpec {
            kind: MediaKind::Video,
            duration_ms: 60_000,
            variants: vec![video_variant(0), video_variant(0)],
        }],
        client: ClientKind::Workstation,
        strategy: ClassificationStrategy::SnsThenOif,
        guarantee: nod_cmfs::Guarantee::Guaranteed,
        video_req: None,
        audio_req: None,
        image_req: None,
        max_cost: CostCeiling::Millis(50_000),
        cost_per_dollar_idx: 1,
        anomaly: ImportanceAnomaly::None,
        max_startup_ms: 10_000,
        jitter_buffer_ms: 2_000,
        choice_period_ms: 30_000,
        hog_access_pct: 0,
        server0_admission_pct: 100,
    }
}

#[test]
fn adapt_is_make_before_break_under_exactly_full_capacity() {
    // The ordering discriminator. With Guaranteed service each variant
    // charges max_block·8·fps = 1 Mb/s on a 1.5 Mb/s access link, so the
    // alternate offer can never fit *alongside* the current one — but fits
    // fine *instead of* it. Make-before-break must therefore refuse the
    // switch and keep the session's reservation; a break-before-make
    // implementation would release first, commit the alternate, and
    // "succeed" — stranding the session if the commit ever failed.
    let scenario = exactly_full_scenario();
    run_differential(&scenario).expect("scenario conforms at HEAD");

    let built = scenario.build();
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
    let mut out = session
        .submit(&NegotiationRequest::new(
            &built.client,
            built.document,
            &built.profile,
        ))
        .expect("valid request");
    assert_eq!(out.status, NegotiationStatus::Succeeded);
    let idx = out.reserved_index.expect("an offer was reserved");
    let reservation = out.reservation.as_ref().expect("reservation held");
    assert_eq!(
        out.ordered_offers.len(),
        2,
        "duplicate variants give two offers"
    );
    let held_net = network.active_reservations();
    let held_bps = network.total_reserved_bps();

    let adapted = adapt(
        &ctx,
        &built.client,
        &mut out.ordered_offers,
        idx,
        reservation,
        AdaptationReason::ServerCongestion,
    );
    assert!(
        !adapted.switched(),
        "the alternate cannot fit alongside the current offer"
    );
    assert_eq!(adapted.attempts, 1);
    // The failed adaptation left the session's resources untouched.
    assert_eq!(network.active_reservations(), held_net);
    assert_eq!(network.total_reserved_bps(), held_bps);

    // Proof the held reservation was the only blocker: once the current
    // offer is gone, the very same alternate commits. A break-before-make
    // adapt would have taken this path implicitly — and reported a switch.
    reservation.release(&farm, &network);
    let alternate = out.ordered_offers.materialize(1 - idx);
    let re = try_commit_refusal(&ctx, &built.client, &alternate.offer, u64::MAX)
        .expect("alternate fits once the current reservation is released");
    re.release(&farm, &network);
    assert_eq!(network.active_reservations(), 0);
    assert_eq!(farm.usage().streams, 0);
}

#[test]
fn repro_cost_ceiling_exactly_at_an_offer() {
    // Boundary: the ceiling sits exactly on the cheapest enumerated
    // offer's CostDoc. "Within cost" is `<=`, so every path must agree the
    // offer satisfies the request at delta 0 — and stops at delta -1.
    for delta in [-1i64, 0, 1] {
        let mut scenario = exactly_full_scenario();
        scenario.max_cost = CostCeiling::AtEnumeratedOffer(0, delta);
        run_differential(&scenario)
            .unwrap_or_else(|d| panic!("ceiling delta {delta} diverged: {d}"));
    }
}

#[test]
fn repro_zero_variant_component_fails_without_offer() {
    // A monomedia with no variants at all: step 2 finds nothing, every
    // path must report FailedWithoutOffer and touch no resources.
    let mut scenario = exactly_full_scenario();
    scenario.components.push(ComponentSpec {
        kind: MediaKind::Audio,
        duration_ms: 60_000,
        variants: vec![],
    });
    run_differential(&scenario).expect("zero-variant component conforms");
}

#[test]
fn repro_nan_importance_orders_deterministically() {
    // A NaN importance weight poisons every OIF. `total_cmp` still gives
    // one deterministic order, and the lazily ordered walk must reproduce
    // the reference sort bit-for-bit.
    let mut scenario = exactly_full_scenario();
    scenario.anomaly = ImportanceAnomaly::NanColor;
    run_differential(&scenario).expect("NaN importance conforms");
    let mut inf = exactly_full_scenario();
    inf.anomaly = ImportanceAnomaly::InfiniteColor;
    run_differential(&inf).expect("infinite importance conforms");
}

#[test]
fn repro_budget_pc_cannot_decode_mpeg1() {
    // A budget PC has no MPEG-1 decoder: the local check clamps and fails
    // with a local offer before any enumeration.
    let mut scenario = exactly_full_scenario();
    scenario.client = ClientKind::BudgetPc;
    run_differential(&scenario).expect("infeasible client conforms");
}

#[test]
fn repro_language_neutral_track_beside_specific_languages() {
    // Shrunk from oracle seed 3107860856177698331. Three audio tracks:
    // English and expensive; French, better quality, cheap;
    // language-neutral and cheap. `MediaQos::meets` treats `Any` as a
    // wildcard on either side, which once misled code that compared
    // offered tracks with each other. All three stay offers: every path
    // must classify and walk them exactly as the reference does, and the
    // decision log must cite what the reference saw.
    let audio = |lang: u8, color: u8, max_block: u64| VariantSpec {
        color,
        res: 320,
        fps: 15,
        lang,
        max_block,
        avg_block: max_block,
        file_kb: 40,
        server: 0,
    };
    let scenario = Scenario {
        seed: 3_107_860_856_177_698_331,
        components: vec![ComponentSpec {
            kind: MediaKind::Audio,
            duration_ms: 1_000,
            variants: vec![audio(0, 0, 60_000), audio(1, 2, 2_000), audio(2, 0, 2_000)],
        }],
        client: ClientKind::Highend,
        strategy: ClassificationStrategy::CostOnly,
        access_bps: 10_000_000,
        max_cost: CostCeiling::Millis(6_000),
        max_startup_ms: 1,
        jitter_buffer_ms: 0,
        ..exactly_full_scenario()
    };
    run_differential(&scenario).expect("scenario conforms");
    nod_oracle::run_explain_crosscheck(&scenario).expect("decision log matches the reference");
}
