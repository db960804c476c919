//! B1/B2 — classification kernels and scaling.
//!
//! * B1: the SNS + OIF scoring kernel for a single offer;
//! * B2: full classification (score + stable sort) over growing offer sets,
//!   plus the four ordering strategies head-to-head.
//!
//! B7 (dominated-offer pruning as a pre-pass) is retired with pruning
//! itself: it lost here and on the fleet (see EXPERIMENTS.md, B7).
//!
//! B5 (sequential vs. thread-fan-out scoring) is retired: the fan-out was
//! 2–3× slower than the sequential loop at every size measured, so the
//! parallel path was deleted from `nod-qosneg` (see EXPERIMENTS.md, B5).

use std::hint::black_box;

use nod_bench::micro::Micro;
use nod_mmdoc::prelude::*;
use nod_qosneg::classify::{classify, ClassificationStrategy, ScoredOffer};
use nod_qosneg::offer::SystemOffer;
use nod_qosneg::profile::{tv_news_profile, UserProfile};
use nod_qosneg::Money;

fn offers(n: usize) -> Vec<SystemOffer> {
    (0..n)
        .map(|i| {
            let fps = (i % 25 + 1) as u32;
            SystemOffer {
                variants: vec![Variant {
                    id: VariantId(i as u64),
                    monomedia: MonomediaId(1),
                    format: Format::Mpeg1,
                    qos: MediaQos::Video(VideoQos {
                        color: ColorDepth::ALL[i % 4],
                        resolution: Resolution::new(10 + (i as u32 * 37) % 1900),
                        frame_rate: FrameRate::new(fps),
                    }),
                    blocks: BlockStats::new(12_000, 5_000),
                    blocks_per_second: fps,
                    file_bytes: 1_000_000,
                    server: ServerId((i % 4) as u64),
                }],
                cost: Money::from_millis(500 + (i as i64 * 137) % 8_000),
            }
        })
        .collect()
}

fn profile() -> UserProfile {
    tv_news_profile()
}

fn main() {
    let p = profile();
    let mut m = Micro::new().sample_size(20);

    // B1: the per-offer scoring kernel.
    let offer = offers(1).pop().unwrap();
    m.bench("b1_score_single_offer", || {
        ScoredOffer::score(black_box(offer.clone()), black_box(&p))
    });

    // B2: classification scaling with offer-set size.
    for n in [16usize, 128, 1_024, 8_192] {
        let set = offers(n);
        m.bench(&format!("b2_classify_scaling/{n}"), || {
            classify(
                black_box(set.clone()),
                black_box(&p),
                ClassificationStrategy::SnsThenOif,
            )
        });
    }

    // B2: the four ordering strategies at a fixed size.
    let set = offers(1_024);
    for (label, strategy) in [
        ("sns_then_oif", ClassificationStrategy::SnsThenOif),
        ("oif_only", ClassificationStrategy::OifOnly),
        ("cost_only", ClassificationStrategy::CostOnly),
        ("qos_only", ClassificationStrategy::QosOnly),
    ] {
        m.bench(&format!("b2_strategy/{label}"), || {
            classify(black_box(set.clone()), black_box(&p), strategy)
        });
    }

    m.report();
}
