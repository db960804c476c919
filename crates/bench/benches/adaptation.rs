//! B6 — adaptation switch latency: the cost of releasing a degraded offer,
//! re-running step 5 over the remaining ordered offers, and committing an
//! alternate.

use std::hint::black_box;

use nod_bench::micro::Micro;
use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm};
use nod_mmdb::{Catalog, CorpusBuilder, CorpusParams};
use nod_mmdoc::{ClientId, DocumentId, ServerId};
use nod_netsim::{Network, Topology};
use nod_qosneg::adapt::{adapt, AdaptationReason};
use nod_qosneg::negotiate::{try_commit_refusal, NegotiationContext, NegotiationOutcome};
use nod_qosneg::profile::tv_news_profile;
use nod_qosneg::{
    ClassificationStrategy, CostModel, NegotiationRequest, QosError, Session, UserProfile,
};
use nod_simcore::StreamRng;

/// One live negotiation through the unified request API.
fn negotiate(
    ctx: &NegotiationContext<'_>,
    client: &ClientMachine,
    doc: DocumentId,
    profile: &UserProfile,
) -> Result<NegotiationOutcome, QosError> {
    Session::new(*ctx).submit(&NegotiationRequest::new(client, doc, profile))
}

struct World {
    catalog: Catalog,
    farm: ServerFarm,
    network: Network,
    cost: CostModel,
}

fn world() -> World {
    let mut rng = StreamRng::new(29);
    let catalog = CorpusBuilder::new(CorpusParams {
        documents: 4,
        servers: (0..4).map(ServerId).collect(),
        video_variants: (4, 6),
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
        streaming: nod_qosneg::negotiate::StreamingMode::Auto,
        recorder: None,
        explain: false,
    }
}

fn main() {
    let mut m = Micro::new().sample_size(15);

    // Make-before-break adaptation switch.
    {
        let w = world();
        let client = ClientMachine::era_workstation(ClientId(0));
        let cx = ctx(&w);
        let out = negotiate(&cx, &client, DocumentId(1), &tv_news_profile()).unwrap();
        let idx = out.reserved_index.expect("negotiation reserves");
        let mut current = out.reservation.clone().unwrap();
        m.bench("b6_adaptation_switch", || {
            // Make-before-break: adapt() commits an alternate, then
            // releases `current`.
            let adapted = adapt(
                &cx,
                &client,
                black_box(&out.ordered_offers),
                idx,
                &current,
                AdaptationReason::UserRequest,
            );
            let alternate = adapted
                .reservation
                .expect("an idle system always yields an alternate");
            // Switch back so every iteration starts from the same state:
            // recommit the original offer, then drop the alternate.
            let back = try_commit_refusal(&cx, &client, &out.ordered_offers[idx].offer, u64::MAX)
                .expect("original offer recommits on an idle system");
            alternate.release(&w.farm, &w.network);
            current = back;
        });
        current.release(&w.farm, &w.network);
    }

    // The cost of walking the ordered offers when every attempt fails —
    // step 5's worst case (FAILEDTRYLATER).
    {
        let w = world();
        let client = ClientMachine::era_workstation(ClientId(0));
        let cx = ctx(&w);
        let out = negotiate(&cx, &client, DocumentId(1), &tv_news_profile()).unwrap();
        if let Some(r) = &out.reservation {
            r.release(&w.farm, &w.network);
        }
        for s in w.farm.ids() {
            w.farm.server(s).unwrap().set_health(0.0);
        }
        m.bench("b6_failed_walk_full_offer_list", || {
            let again = negotiate(&cx, &client, DocumentId(1), &tv_news_profile()).unwrap();
            black_box(again.trace.reservation_attempts)
        });
    }

    m.report();
}
