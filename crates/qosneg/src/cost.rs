//! Cost computation (paper §7).
//!
//! "To compute the network cost, we assume the existence of a cost table
//! which stores the cost (per time unit) for each value of throughput.
//! Since it is not possible to consider all possible values of throughput
//! (infinite list), only a range of **throughput classes** are considered.
//! Similar tables are used to compute the cost to use the server
//! resources." The document cost is formula (1):
//!
//! ```text
//! CostDoc = CostCop + Σᵢ (CostNetᵢ + CostSerᵢ)
//! CostNetᵢ = CostNet(classᵢ) × Dᵢ ;  CostSerᵢ = CostSer(classᵢ) × Dᵢ
//! ```
//!
//! where `Dᵢ` is the length of monomedia `Mᵢ` and `classᵢ` the throughput
//! class of its stream. Pricing classes are keyed on the *sustained*
//! (average) throughput — what the user consumes — while admission control
//! separately charges the peak; the guarantee type enters as a best-effort
//! discount on the class price.

use nod_mmdoc::Variant;

use crate::money::Money;
use nod_cmfs::Guarantee;

/// A throughput-class cost table: per-second price by rate class.
#[derive(Debug, Clone, PartialEq)]
pub struct CostTable {
    /// `(class upper bound in bits/s, price per second)` ascending.
    classes: Vec<(u64, Money)>,
    /// Price per second above the last class.
    overflow: Money,
}

impl CostTable {
    /// A validated table.
    ///
    /// # Panics
    /// Panics if bounds are not strictly ascending or the table is empty.
    pub fn new(classes: Vec<(u64, Money)>, overflow: Money) -> Self {
        assert!(!classes.is_empty(), "cost table needs at least one class");
        assert!(
            classes.windows(2).all(|w| w[0].0 < w[1].0),
            "throughput class bounds must ascend"
        );
        CostTable { classes, overflow }
    }

    /// Per-second price for a stream of `bps`.
    pub fn rate_per_second(&self, bps: u64) -> Money {
        for &(upper, price) in &self.classes {
            if bps <= upper {
                return price;
            }
        }
        self.overflow
    }

    /// The class index a rate falls in (`classes.len()` = overflow).
    pub fn class_of(&self, bps: u64) -> usize {
        self.classes
            .iter()
            .position(|&(upper, _)| bps <= upper)
            .unwrap_or(self.classes.len())
    }

    /// The class boundaries.
    pub fn bounds(&self) -> Vec<u64> {
        self.classes.iter().map(|&(b, _)| b).collect()
    }
}

/// The full pricing model.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Network cost table (per stream-second).
    pub network: CostTable,
    /// Server cost table (per stream-second).
    pub server: CostTable,
    /// Per-document copyright charge (`CostCop`).
    pub copyright: Money,
    /// Percentage of the class price charged for best-effort service.
    pub best_effort_percent: u32,
    /// Network price per megabyte for discrete (one-shot) media.
    pub discrete_net_per_mb: Money,
    /// Server price per megabyte for discrete media.
    pub discrete_server_per_mb: Money,
}

impl CostModel {
    /// Period-plausible defaults, calibrated so a few-minute TV-quality
    /// MPEG-1 news clip plus narration lands in the paper's $2.50–$6 band.
    pub fn era_default() -> Self {
        let d = Money::from_dollars_f64;
        CostModel {
            network: CostTable::new(
                vec![
                    (64_000, d(0.001)),
                    (256_000, d(0.003)),
                    (1_000_000, d(0.006)),
                    (2_000_000, d(0.010)),
                    (4_000_000, d(0.016)),
                    (8_000_000, d(0.025)),
                    (20_000_000, d(0.040)),
                    (50_000_000, d(0.075)),
                ],
                d(0.125),
            ),
            server: CostTable::new(
                vec![
                    (64_000, d(0.001)),
                    (256_000, d(0.002)),
                    (1_000_000, d(0.004)),
                    (2_000_000, d(0.006)),
                    (4_000_000, d(0.010)),
                    (8_000_000, d(0.015)),
                    (20_000_000, d(0.025)),
                    (50_000_000, d(0.045)),
                ],
                d(0.075),
            ),
            copyright: Money::from_cents(25),
            best_effort_percent: 70,
            discrete_net_per_mb: Money::from_cents(2),
            discrete_server_per_mb: Money::from_cents(1),
        }
    }

    fn scale_guarantee(&self, price: Money, guarantee: Guarantee) -> Money {
        match guarantee {
            Guarantee::Guaranteed => price,
            Guarantee::BestEffort => {
                Money::from_millis(price.millis() * self.best_effort_percent as i64 / 100)
            }
        }
    }

    /// `(CostNetᵢ, CostSerᵢ)` for streaming one variant for `duration_ms`.
    pub fn monomedia_cost(
        &self,
        variant: &Variant,
        duration_ms: u64,
        guarantee: Guarantee,
    ) -> (Money, Money) {
        if variant.blocks_per_second == 0 {
            // Discrete media: one-shot transfer priced by size.
            let mb = variant.file_bytes.div_ceil(1_000_000) as i64;
            return (
                self.discrete_net_per_mb * mb,
                self.discrete_server_per_mb * mb,
            );
        }
        // Pricing keys on the sustained throughput the user consumes.
        let bps = variant.avg_bit_rate();
        let secs = duration_ms as i64; // priced per ms below
        let net = self.scale_guarantee(self.network.rate_per_second(bps), guarantee);
        let ser = self.scale_guarantee(self.server.rate_per_second(bps), guarantee);
        (
            Money::from_millis(net.millis() * secs / 1_000),
            Money::from_millis(ser.millis() * secs / 1_000),
        )
    }

    /// Formula (1): the document cost for a set of `(variant, duration_ms)`
    /// selections.
    pub fn document_cost<'a>(
        &self,
        selections: impl IntoIterator<Item = (&'a Variant, u64)>,
        guarantee: Guarantee,
    ) -> Money {
        let mut total = self.copyright;
        for (variant, duration_ms) in selections {
            let (net, ser) = self.monomedia_cost(variant, duration_ms, guarantee);
            total += net + ser;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nod_mmdoc::prelude::*;

    fn mpeg1_tv(id: u64, secs: u64) -> Variant {
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(id),
            format: Format::Mpeg1,
            qos: MediaQos::Video(VideoQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
                frame_rate: FrameRate::TV,
            }),
            blocks: BlockStats::new(15_000, 6_000),
            blocks_per_second: 25,
            file_bytes: 6_000 * 25 * secs,
            server: ServerId(0),
        }
    }

    #[test]
    fn class_lookup() {
        let t = CostModel::era_default().network;
        assert_eq!(t.class_of(50_000), 0);
        assert_eq!(t.class_of(64_000), 0); // inclusive upper bound
        assert_eq!(t.class_of(64_001), 1);
        assert_eq!(t.class_of(1_200_000), 3);
        assert_eq!(t.class_of(99_000_000), t.bounds().len()); // overflow
        assert_eq!(
            t.rate_per_second(99_000_000),
            Money::from_dollars_f64(0.125)
        );
    }

    #[test]
    #[should_panic(expected = "ascend")]
    fn unsorted_classes_rejected() {
        CostTable::new(vec![(100, Money::ZERO), (100, Money::ZERO)], Money::ZERO);
    }

    #[test]
    fn formula_one_decomposition() {
        // CostDoc = CostCop + Σ (CostNet_i + CostSer_i), computed by hand.
        let m = CostModel::era_default();
        let v = mpeg1_tv(1, 120);
        // Priced on the sustained rate = 6000*8*25 = 1.2 Mb/s → class ≤2M:
        // net $0.010/s, server $0.006/s, 120 s each.
        let (net, ser) = m.monomedia_cost(&v, 120_000, Guarantee::Guaranteed);
        assert_eq!(net, Money::from_dollars_f64(0.010 * 120.0));
        assert_eq!(ser, Money::from_dollars_f64(0.006 * 120.0));
        let doc = m.document_cost([(&v, 120_000u64)], Guarantee::Guaranteed);
        assert_eq!(doc, m.copyright + net + ser);
        // And it lands in the paper's few-dollar band.
        assert!(doc > Money::from_dollars(2) && doc < Money::from_dollars(6));
    }

    #[test]
    fn best_effort_is_cheaper() {
        let m = CostModel::era_default();
        let v = mpeg1_tv(1, 120);
        let g = m.document_cost([(&v, 120_000u64)], Guarantee::Guaranteed);
        let b = m.document_cost([(&v, 120_000u64)], Guarantee::BestEffort);
        assert!(b < g, "best effort {b} should undercut guaranteed {g}");
    }

    #[test]
    fn higher_quality_costs_more() {
        let m = CostModel::era_default();
        let hi = mpeg1_tv(1, 120);
        let mut lo = mpeg1_tv(2, 120);
        lo.blocks = BlockStats::new(4_000, 1_500); // low-rate variant
        let c_hi = m.document_cost([(&hi, 120_000u64)], Guarantee::Guaranteed);
        let c_lo = m.document_cost([(&lo, 120_000u64)], Guarantee::Guaranteed);
        assert!(c_hi > c_lo);
    }

    #[test]
    fn longer_documents_cost_proportionally_more() {
        let m = CostModel::era_default();
        let v = mpeg1_tv(1, 120);
        let c1 = m.document_cost([(&v, 60_000u64)], Guarantee::Guaranteed);
        let c2 = m.document_cost([(&v, 120_000u64)], Guarantee::Guaranteed);
        // Subtract the fixed copyright, the streaming part must double.
        let s1 = c1 - m.copyright;
        let s2 = c2 - m.copyright;
        assert_eq!(s2, s1 * 2);
    }

    #[test]
    fn discrete_media_priced_by_size() {
        let m = CostModel::era_default();
        let img = Variant {
            id: VariantId(9),
            monomedia: MonomediaId(9),
            format: Format::Jpeg,
            qos: MediaQos::Image(ImageQos {
                color: ColorDepth::Color,
                resolution: Resolution::TV,
            }),
            blocks: BlockStats::new(2_000_000, 2_000_000),
            blocks_per_second: 0,
            file_bytes: 2_000_000,
            server: ServerId(0),
        };
        let (net, ser) = m.monomedia_cost(&img, 10_000, Guarantee::Guaranteed);
        assert_eq!(net, Money::from_cents(4)); // 2 MB × $0.02
        assert_eq!(ser, Money::from_cents(2));
    }

    #[test]
    fn multimedia_document_sums_components() {
        let m = CostModel::era_default();
        let v1 = mpeg1_tv(1, 60);
        let v2 = mpeg1_tv(2, 60);
        let single = m.document_cost([(&v1, 60_000u64)], Guarantee::Guaranteed);
        let double = m.document_cost([(&v1, 60_000u64), (&v2, 60_000u64)], Guarantee::Guaranteed);
        assert_eq!(double - m.copyright, (single - m.copyright) * 2);
    }

    #[test]
    fn formula_one_exact_in_millis_for_random_documents() {
        // Property: CostDoc is the exact i64 milli-dollar sum
        // Σ(CostNetᵢ + CostSerᵢ) + CostCop for any selection, any size, any
        // guarantee — no float ever enters the fold.
        let m = CostModel::era_default();
        let mut rng = nod_simcore::StreamRng::new(4242);
        for round in 0..256u64 {
            let guarantee = if round % 2 == 0 {
                Guarantee::Guaranteed
            } else {
                Guarantee::BestEffort
            };
            let n = 1 + (round as usize % 8);
            let variants: Vec<(Variant, u64)> = (0..n)
                .map(|i| {
                    let mut v = mpeg1_tv(i as u64 + 1, 60);
                    let max = *rng.choose(&[1_500u64, 4_000, 6_000, 15_000, 60_000]);
                    v.blocks = BlockStats::new(max, max.div_ceil(2));
                    if i % 4 == 3 {
                        v.blocks_per_second = 0; // discrete component
                        v.file_bytes = *rng.choose(&[1u64, 900_000, 2_000_001]);
                    }
                    let duration = *rng.choose(&[1u64, 999, 1_000, 90_000, 3_600_000]);
                    (v, duration)
                })
                .collect();
            let doc = m.document_cost(variants.iter().map(|(v, d)| (v, *d)), guarantee);
            let mut exact_millis = m.copyright.millis();
            for (v, d) in &variants {
                let (net, ser) = m.monomedia_cost(v, *d, guarantee);
                exact_millis += net.millis() + ser.millis();
            }
            assert_eq!(doc.millis(), exact_millis, "round {round}");
        }
    }

    #[test]
    fn millis_accumulation_beats_f64_dollar_accumulation() {
        // The half-millidollar case the f64 path gets wrong: a component
        // priced at $0.0015 is exactly 2 milli-dollars after banker-free
        // rounding (1.5 → 2), so three of them are exactly 6 millis. The
        // same three parts accumulated as f64 dollars and converted once at
        // the end land on 0.0045 → 4.5 → 5 millis: off by a milli-dollar —
        // which is why the workload/bench reporters fold in `Money` and
        // convert only at the display edge.
        let part = Money::from_dollars_f64(0.001_5);
        assert_eq!(part.millis(), 2);
        let exact: Money = [part, part, part].into_iter().sum();
        assert_eq!(exact.millis(), 6);
        let drifted = Money::from_dollars_f64(0.001_5 + 0.001_5 + 0.001_5);
        assert_eq!(drifted.millis(), 5);
        assert_ne!(exact, drifted);
    }
}
