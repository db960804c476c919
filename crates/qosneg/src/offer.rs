//! System offers and user offers (paper §4, Definitions 1 and 2).
//!
//! *Definition 1*: a **system offer** consists of a set of variants (one per
//! monomedia component of the document) and the cost the user should pay.
//!
//! *Definition 2*: a **user offer** represents the QoS the system is able to
//! provide and the cost, specified as an MM profile — derived from a system
//! offer by the profile-shaped mapping below.

use nod_mmdoc::prelude::*;

use crate::money::Money;
use crate::profile::MmQosSpec;

/// A system offer: one variant per monomedia, plus its cost.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemOffer {
    /// The chosen variants, in the document's component order.
    pub variants: Vec<Variant>,
    /// The cost the user would be charged (paper §7 formula (1)).
    pub cost: Money,
}

impl SystemOffer {
    /// The QoS values the offer delivers, one per component.
    pub fn qos_values(&self) -> impl Iterator<Item = &MediaQos> {
        self.variants.iter().map(|v| &v.qos)
    }

    /// The variant chosen for a given monomedia, if part of this offer.
    pub fn variant_for(&self, mono: MonomediaId) -> Option<&Variant> {
        self.variants.iter().find(|v| v.monomedia == mono)
    }

    /// Derive the user offer (Definition 2). When a document carries
    /// several components of the same medium, the user offer reports the
    /// first in component order — the GUI's per-medium profile window shows
    /// one value per medium.
    pub fn to_user_offer(&self) -> UserOffer {
        let mut spec = MmQosSpec::default();
        for v in &self.variants {
            match &v.qos {
                MediaQos::Video(q) if spec.video.is_none() => spec.video = Some(*q),
                MediaQos::Audio(q) if spec.audio.is_none() => spec.audio = Some(*q),
                MediaQos::Text(q) if spec.text.is_none() => spec.text = Some(*q),
                MediaQos::Image(q) if spec.image.is_none() => spec.image = Some(*q),
                MediaQos::Graphic(q) if spec.graphic.is_none() => spec.graphic = Some(*q),
                _ => {}
            }
        }
        UserOffer {
            qos: spec,
            cost: self.cost,
        }
    }
}

/// A user offer: the MM-profile-shaped QoS plus cost shown to the user.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserOffer {
    /// Per-medium QoS the system will deliver.
    pub qos: MmQosSpec,
    /// The cost to be charged.
    pub cost: Money,
}

impl std::fmt::Display for UserOffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut parts = Vec::new();
        if let Some(v) = self.qos.video {
            parts.push(format!("video {v}"));
        }
        if let Some(a) = self.qos.audio {
            parts.push(format!("audio {a}"));
        }
        if let Some(t) = self.qos.text {
            parts.push(format!("text ({})", t.language));
        }
        if let Some(i) = self.qos.image {
            parts.push(format!("image ({}, {})", i.color, i.resolution));
        }
        if let Some(g) = self.qos.graphic {
            parts.push(format!("graphic ({}, {})", g.color, g.resolution));
        }
        write!(f, "{} at {}", parts.join(" + "), self.cost)
    }
}

/// Which profile components a user offer falls short of — the GUI's "red
/// constraint buttons" (paper §8: "the constraint buttons of the profiles,
/// which cannot be satisfied by the system, are activated with red
/// color"). Compares the offer against the *desired* values plus the cost
/// ceiling.
pub fn violated_components(
    profile: &crate::profile::UserProfile,
    offer: &UserOffer,
) -> Vec<&'static str> {
    let mut out = Vec::new();
    if let (Some(req), Some(got)) = (profile.desired.video, offer.qos.video) {
        if !got.meets(&req) {
            out.push("video");
        }
    }
    if let (Some(req), Some(got)) = (profile.desired.audio, offer.qos.audio) {
        if !got.meets(&req) {
            out.push("audio");
        }
    }
    if let (Some(req), Some(got)) = (profile.desired.text, offer.qos.text) {
        if !got.meets(&req) {
            out.push("text");
        }
    }
    if let (Some(req), Some(got)) = (profile.desired.image, offer.qos.image) {
        if !got.meets(&req) {
            out.push("image");
        }
    }
    if offer.cost > profile.max_cost {
        out.push("cost");
    }
    out
}

/// Offer-enumeration failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnumerationError {
    /// A component has no feasible variant (paper: FAILEDWITHOUTOFFER).
    NoFeasibleVariant(MonomediaId),
    /// The cartesian product exceeds the enumeration budget.
    TooManyOffers {
        /// The configured cap.
        cap: usize,
    },
}

impl std::fmt::Display for EnumerationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EnumerationError::NoFeasibleVariant(id) => {
                write!(f, "no feasible variant for {id}")
            }
            EnumerationError::TooManyOffers { cap } => {
                write!(f, "offer enumeration exceeds the cap of {cap}")
            }
        }
    }
}

impl std::error::Error for EnumerationError {}

/// The full cartesian product of per-component variant choices, stored as a
/// flat index arena: one `Vec<u32>` of `len() × stride()` entries in
/// row-major (lexicographic) order. Combination `i` occupies
/// `indices[i*k .. (i+1)*k]`; entry `c` of a combination is an index into
/// component `c`'s feasible-variant list. The flat layout replaces the old
/// `Vec<Vec<&Variant>>` nested product: a single allocation instead of one
/// per combination, and no lifetime coupling to the variant refs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OfferSet {
    dims: Vec<u32>,
    indices: Vec<u32>,
    total: usize,
}

impl OfferSet {
    /// Enumerate the product of `dims` choices per component, in
    /// lexicographic order (component 0 most significant, the last
    /// component varying fastest — the same order the nested enumeration
    /// produced). Fails with [`EnumerationError::TooManyOffers`] when the
    /// product exceeds `cap` (or overflows).
    pub fn enumerate(dims: &[usize], cap: usize) -> Result<OfferSet, EnumerationError> {
        let total: usize = dims
            .iter()
            .try_fold(1usize, |acc, &n| acc.checked_mul(n))
            .ok_or(EnumerationError::TooManyOffers { cap })?;
        if total > cap {
            return Err(EnumerationError::TooManyOffers { cap });
        }
        let k = dims.len();
        let mut indices: Vec<u32> = Vec::with_capacity(total.saturating_mul(k));
        let mut odo = vec![0u32; k];
        for row in 0..total {
            if row > 0 {
                // Advance the odometer: last component varies fastest.
                for c in (0..k).rev() {
                    odo[c] += 1;
                    if (odo[c] as usize) < dims[c] {
                        break;
                    }
                    odo[c] = 0;
                }
            }
            indices.extend_from_slice(&odo);
        }
        Ok(OfferSet {
            dims: dims.iter().map(|&d| d as u32).collect(),
            indices,
            total,
        })
    }

    /// Number of combinations.
    pub fn len(&self) -> usize {
        self.total
    }

    /// Is the product empty (some component had zero choices)?
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Entries per combination (the component count).
    pub fn stride(&self) -> usize {
        self.dims.len()
    }

    /// The per-component choice counts.
    pub fn dims(&self) -> &[u32] {
        &self.dims
    }

    /// Combination `i`: one variant index per component.
    pub fn combo(&self, i: usize) -> &[u32] {
        let k = self.dims.len();
        &self.indices[i * k..(i + 1) * k]
    }

    /// Iterate the combinations in enumeration (lexicographic) order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.total).map(move |i| self.combo(i))
    }
}

/// Enumerate every combination of one variant per component — the feasible
/// system offers *before* costing and classification.
///
/// `per_mono` is the per-component feasible variant list in document order
/// (the output of step 2). The cartesian product is capped at `cap`
/// combinations; the cap exists to surface pathological catalogs rather
/// than silently truncating (the caller can raise it).
///
/// This is the paper-literal ref-vector view, kept as a reference for
/// tests; the negotiation pipeline itself scores combinations from
/// [`crate::engine::OfferEngine`]'s per-variant partials and never builds
/// the nested vectors.
pub fn enumerate_combinations<'a>(
    per_mono: &[(MonomediaId, Vec<&'a Variant>)],
    cap: usize,
) -> Result<Vec<Vec<&'a Variant>>, EnumerationError> {
    for (mono, variants) in per_mono {
        if variants.is_empty() {
            return Err(EnumerationError::NoFeasibleVariant(*mono));
        }
    }
    let dims: Vec<usize> = per_mono.iter().map(|(_, v)| v.len()).collect();
    let set = OfferSet::enumerate(&dims, cap)?;
    Ok(set
        .iter()
        .map(|combo| {
            combo
                .iter()
                .zip(per_mono)
                .map(|(&idx, (_, variants))| variants[idx as usize])
                .collect()
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn variant(id: u64, mono: u64, qos: MediaQos, fmt: Format) -> Variant {
        let continuous = qos.kind().is_continuous();
        Variant {
            id: VariantId(id),
            monomedia: MonomediaId(mono),
            format: fmt,
            qos,
            blocks: BlockStats::new(10_000, 5_000),
            blocks_per_second: if continuous { 25 } else { 0 },
            file_bytes: 1_000_000,
            server: ServerId(0),
        }
    }

    fn video_qos(color: ColorDepth) -> MediaQos {
        MediaQos::Video(VideoQos {
            color,
            resolution: Resolution::TV,
            frame_rate: FrameRate::TV,
        })
    }

    fn audio_qos() -> MediaQos {
        MediaQos::Audio(AudioQos {
            quality: AudioQuality::Cd,
            language: Language::English,
        })
    }

    #[test]
    fn user_offer_projection() {
        let offer = SystemOffer {
            variants: vec![
                variant(1, 1, video_qos(ColorDepth::Color), Format::Mpeg1),
                variant(2, 2, audio_qos(), Format::PcmLinear),
            ],
            cost: Money::from_dollars(5),
        };
        let user = offer.to_user_offer();
        assert_eq!(user.cost, Money::from_dollars(5));
        assert!(user.qos.video.is_some());
        assert!(user.qos.audio.is_some());
        assert!(user.qos.text.is_none());
        assert!(user.to_string().contains("$5.00"));
        assert_eq!(offer.variant_for(MonomediaId(2)).unwrap().id, VariantId(2));
        assert!(offer.variant_for(MonomediaId(9)).is_none());
    }

    #[test]
    fn violated_components_marks_shortfalls() {
        use crate::profile::tv_news_profile;
        let profile = tv_news_profile();
        // Offer below desired video and over budget.
        let offer = UserOffer {
            qos: crate::profile::MmQosSpec {
                video: Some(VideoQos {
                    color: ColorDepth::Grey,
                    resolution: Resolution::new(320),
                    frame_rate: FrameRate::new(15),
                }),
                audio: profile.desired.audio,
                text: profile.desired.text,
                ..Default::default()
            },
            cost: Money::from_dollars(9),
        };
        assert_eq!(violated_components(&profile, &offer), vec!["video", "cost"]);
        // A fully satisfying offer marks nothing.
        let perfect = UserOffer {
            qos: profile.desired,
            cost: Money::from_dollars(3),
        };
        assert!(violated_components(&profile, &perfect).is_empty());
    }

    #[test]
    fn enumeration_is_full_cartesian_product() {
        let v1 = variant(1, 1, video_qos(ColorDepth::Color), Format::Mpeg1);
        let v2 = variant(2, 1, video_qos(ColorDepth::Grey), Format::Mpeg1);
        let a1 = variant(3, 2, audio_qos(), Format::PcmLinear);
        let a2 = variant(4, 2, audio_qos(), Format::MpegAudio);
        let a3 = variant(5, 2, audio_qos(), Format::Adpcm);
        let per_mono = vec![
            (MonomediaId(1), vec![&v1, &v2]),
            (MonomediaId(2), vec![&a1, &a2, &a3]),
        ];
        let combos = enumerate_combinations(&per_mono, 100).unwrap();
        assert_eq!(combos.len(), 6);
        // Every combo has one variant per component, in order.
        for c in &combos {
            assert_eq!(c.len(), 2);
            assert_eq!(c[0].monomedia, MonomediaId(1));
            assert_eq!(c[1].monomedia, MonomediaId(2));
        }
        // All combos distinct.
        let mut keys: Vec<Vec<u64>> = combos
            .iter()
            .map(|c| c.iter().map(|v| v.id.0).collect())
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 6);
    }

    #[test]
    fn offer_set_is_flat_and_lexicographic() {
        let set = OfferSet::enumerate(&[2, 3], 100).unwrap();
        assert_eq!(set.len(), 6);
        assert_eq!(set.stride(), 2);
        assert_eq!(set.dims(), &[2, 3]);
        let combos: Vec<Vec<u32>> = set.iter().map(|c| c.to_vec()).collect();
        assert_eq!(
            combos,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![1, 2],
            ]
        );
        // Degenerate products.
        let unit = OfferSet::enumerate(&[], 10).unwrap();
        assert_eq!(unit.len(), 1);
        assert_eq!(unit.combo(0), &[] as &[u32]);
        assert_eq!(
            OfferSet::enumerate(&[50, 50], 100).unwrap_err(),
            EnumerationError::TooManyOffers { cap: 100 }
        );
    }

    #[test]
    fn empty_component_fails() {
        let v1 = variant(1, 1, video_qos(ColorDepth::Color), Format::Mpeg1);
        let per_mono = vec![
            (MonomediaId(1), vec![&v1]),
            (MonomediaId(2), Vec::<&Variant>::new()),
        ];
        assert_eq!(
            enumerate_combinations(&per_mono, 100).unwrap_err(),
            EnumerationError::NoFeasibleVariant(MonomediaId(2))
        );
    }

    #[test]
    fn cap_enforced() {
        let vs: Vec<Variant> = (0..20)
            .map(|i| variant(i, 1, video_qos(ColorDepth::Color), Format::Mpeg1))
            .collect();
        let refs: Vec<&Variant> = vs.iter().collect();
        let per_mono = vec![
            (MonomediaId(1), refs.clone()),
            (MonomediaId(1), refs.clone()),
            (MonomediaId(1), refs),
        ];
        assert_eq!(
            enumerate_combinations(&per_mono, 100).unwrap_err(),
            EnumerationError::TooManyOffers { cap: 100 }
        );
        assert!(enumerate_combinations(&per_mono, 8_000).is_ok());
    }
}
