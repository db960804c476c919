//! Seeded negotiation scenarios spanning the edge-case envelope.
//!
//! A [`Scenario`] is a plain-field description of one complete negotiation
//! world — document, variant catalog, user profile, client machine, farm
//! and network topology, plus pre-existing load. Plain fields matter: the
//! shrinker mutates them structurally, and [`Scenario::to_rust_literal`]
//! prints any scenario back as pasteable Rust so a shrunk divergence
//! becomes a regression test verbatim.
//!
//! The generator ([`Scenario::from_seed`]) is deterministic in its seed and
//! deliberately biased toward the envelope ISSUE 5 names: zero-variant
//! components, duplicated variants (equal-OIF ties), NaN-adjacent
//! importance values, cost ceilings pinned exactly on an enumerated offer's
//! cost, and capacity loaded to exactly-full.

use nod_client::ClientMachine;
use nod_cmfs::{Guarantee, ServerConfig, ServerFarm, StreamRequirement};
use nod_mmdb::Catalog;
use nod_mmdoc::ClientId;
use nod_mmdoc::{
    AudioQos, AudioQuality, BlockStats, ColorDepth, Document, DocumentId, Format, FrameRate,
    ImageQos, Language, MediaKind, MediaQos, Monomedia, MonomediaId, Resolution, ServerId, Variant,
    VariantId, VideoQos,
};
use nod_netsim::{Network, Topology};
use nod_qosneg::cost::CostModel;
use nod_qosneg::profile::{MmQosSpec, TimeProfile, UserProfile};
use nod_qosneg::ClassificationStrategy;
use nod_qosneg::ImportanceProfile;
use nod_qosneg::Money;
use nod_simcore::StreamRng;

/// Which era client machine runs the negotiation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientKind {
    /// `ClientMachine::era_workstation` (TV-class display, CD audio).
    Workstation,
    /// `ClientMachine::era_highend` (HDTV display, MPEG-2).
    Highend,
    /// `ClientMachine::era_budget_pc` (grey VGA, telephone audio).
    BudgetPc,
}

/// How the cost ceiling is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostCeiling {
    /// A literal ceiling in millidollars.
    Millis(i64),
    /// Pinned relative to the exact CostDoc of enumerated offer `k mod N`
    /// (naive enumeration order): ceiling = that cost + `delta` millis.
    /// `delta = 0` is the boundary case the paper's `cost <= max_cost`
    /// comparisons must all land on the same side of.
    AtEnumeratedOffer(u16, i64),
}

/// Importance-profile anomalies (the "NaN-adjacent" envelope).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImportanceAnomaly {
    /// Paper-default finite importances.
    None,
    /// Super-color importance is `+inf` — any super-color offer has
    /// `OIF = +inf` (or NaN once an infinite cost term joins in).
    InfiniteColor,
    /// Super-color importance is `f64::MAX` — finite but overflow-adjacent.
    HugeColor,
    /// Super-color importance is NaN — classification must stay total and
    /// deterministic via `total_cmp`.
    NanColor,
}

/// One stored variant, flattened to plain scalars. Interpretation depends
/// on the owning component's kind: `color`/`res`/`fps` drive video,
/// `color`/`lang` audio (color doubles as the 0..=2 quality level),
/// `color`/`res` images.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VariantSpec {
    /// Color depth level 0..=3 (video/image) or audio quality 0..=2.
    pub color: u8,
    /// Pixels per line, 10..=1920 (video/image).
    pub res: u32,
    /// Frames per second, 1..=60 (video).
    pub fps: u32,
    /// Language: 0 english, 1 french, 2 any (audio).
    pub lang: u8,
    /// Largest block, bytes.
    pub max_block: u64,
    /// Average block, bytes (0 < avg <= max).
    pub avg_block: u64,
    /// Stored size, kilobytes (drives discrete-media cost).
    pub file_kb: u32,
    /// Index of the holding server, `0..servers`.
    pub server: u8,
}

/// One monomedia component of the document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSpec {
    /// Media kind — the generator uses Video/Audio/Image.
    pub kind: MediaKind,
    /// Presentation duration, ms.
    pub duration_ms: u64,
    /// Stored variants. Empty = the zero-variant envelope case
    /// (negotiation must fail without an offer).
    pub variants: Vec<VariantSpec>,
}

/// Per-medium profile requirement: ladder indices for (worst, desired),
/// or `None` for "no requirement".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReqSpec {
    /// Worst-acceptable ladder index.
    pub worst: u8,
    /// Desired ladder index (clamped to >= worst at build time).
    pub desired: u8,
}

/// A complete, self-describing negotiation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The generator seed that produced this scenario (0 for hand-written).
    pub seed: u64,
    /// Server count, 1..=3.
    pub servers: u8,
    /// Client/server access link capacity, bits/s.
    pub access_bps: u64,
    /// Backbone capacity, bits/s.
    pub backbone_bps: u64,
    /// Document components, in presentation order.
    pub components: Vec<ComponentSpec>,
    /// The client machine model.
    pub client: ClientKind,
    /// Offer-ordering strategy.
    pub strategy: ClassificationStrategy,
    /// Guarantee class.
    pub guarantee: Guarantee,
    /// Video requirement (ladders: [`Scenario::RES_LADDER`],
    /// [`Scenario::FPS_LADDER`]).
    pub video_req: Option<ReqSpec>,
    /// Audio requirement (quality level 0..=2 + language via desired&3).
    pub audio_req: Option<ReqSpec>,
    /// Image requirement.
    pub image_req: Option<ReqSpec>,
    /// The cost ceiling.
    pub max_cost: CostCeiling,
    /// Index into [`Scenario::COST_PER_DOLLAR`].
    pub cost_per_dollar_idx: u8,
    /// Importance anomaly injection.
    pub anomaly: ImportanceAnomaly,
    /// Startup bound, ms.
    pub max_startup_ms: u64,
    /// Client jitter buffer, ms of media.
    pub jitter_buffer_ms: u64,
    /// Choice period (step 6), ms.
    pub choice_period_ms: u64,
    /// Percent (0..=100) of the client's access link pre-reserved by
    /// other traffic before negotiation starts.
    pub hog_access_pct: u8,
    /// Admission factor applied to server 0 (percent, 0..=100; 100 = no
    /// derating). Low values exhaust server capacity.
    pub server0_admission_pct: u8,
}

impl Scenario {
    /// Cost-importance values the generator draws from (index by
    /// `cost_per_dollar_idx`).
    pub const COST_PER_DOLLAR: [f64; 5] = [0.0, 0.25, 4.0, 1e-9, 1e9];

    /// Resolution ladder for requirements and variants.
    pub const RES_LADDER: [u32; 4] = [320, 640, 1024, 1920];

    /// Frame-rate ladder. 60 fps exceeds every era decoder's limit, so a
    /// 60-fps variant is feasibility-filtered out (or, as a requirement,
    /// fails the local check).
    pub const FPS_LADDER: [u32; 4] = [1, 15, 25, 60];

    /// Generate a random scenario. Deterministic in `seed`.
    pub fn from_seed(seed: u64) -> Scenario {
        let mut rng = StreamRng::new(seed ^ 0x6f72_6163_6c65);
        let servers = 1 + rng.below(3) as u8;
        let n_components = 1 + rng.below(4) as usize;

        let mut components = Vec::with_capacity(n_components);
        for c in 0..n_components {
            let kind = match if c == 0 { rng.below(3) } else { rng.below(4) } {
                0 => MediaKind::Video,
                1 => MediaKind::Audio,
                _ => MediaKind::Image,
            };
            let duration_ms = *rng.choose(&[1u64, 1_000, 60_000, 180_000]);
            // ~6% of components have zero variants (the FailedWithoutOffer
            // envelope); otherwise 1..=4.
            let n_variants = if rng.chance(0.06) {
                0
            } else {
                1 + rng.below(4) as usize
            };
            let mut variants = Vec::with_capacity(n_variants);
            for _ in 0..n_variants {
                // Bias toward values the era machines can actually decode
                // and render — feasible worlds reach classification and
                // commitment; the hostile tail (SuperColor, HDTV, 60 fps)
                // keeps the step-1/step-2 failure envelope alive.
                let v = VariantSpec {
                    color: if rng.chance(0.12) {
                        3
                    } else {
                        rng.below(3) as u8
                    },
                    res: *rng.choose(&[320u32, 320, 640, 640, 1024, 1920]),
                    fps: *rng.choose(&[1u32, 15, 15, 25, 25, 60]),
                    lang: rng.below(3) as u8,
                    max_block: *rng.choose(&[2_000u64, 8_000, 20_000, 60_000]),
                    avg_block: 0, // fixed up below
                    file_kb: *rng.choose(&[40u32, 400, 2_000, 20_000]),
                    server: rng.below(servers as u64) as u8,
                };
                let avg = match rng.below(3) {
                    0 => v.max_block,
                    1 => v.max_block / 2,
                    _ => v.max_block / 4,
                };
                variants.push(VariantSpec {
                    avg_block: avg.max(1),
                    ..v
                });
                // Sometimes push an exact duplicate — the equal-OIF tie
                // envelope (two enumeration slots, identical scores).
                if rng.chance(0.18) && variants.len() < 4 {
                    let dup = *variants.last().unwrap();
                    variants.push(dup);
                }
            }
            components.push(ComponentSpec {
                kind,
                duration_ms,
                variants,
            });
        }

        // Worst-acceptable bounds stay low most of the time (a high worst
        // bound fails the step-1 local check on every era machine and
        // short-circuits the whole pipeline); desired values roam freely.
        let req = |rng: &mut StreamRng, max_level: u8| -> Option<ReqSpec> {
            if rng.chance(0.25) {
                None
            } else {
                let worst = if rng.chance(0.15) {
                    rng.below(max_level as u64 + 1) as u8
                } else {
                    rng.below(2) as u8
                };
                let desired = rng.below(max_level as u64 + 1) as u8;
                Some(ReqSpec { worst, desired })
            }
        };

        let max_cost = if rng.chance(0.35) {
            CostCeiling::AtEnumeratedOffer(rng.below(64) as u16, *rng.choose(&[-1i64, 0, 1]))
        } else {
            CostCeiling::Millis(*rng.choose(&[0i64, 250, 2_000, 6_000, 50_000]))
        };

        let anomaly = match rng.below(12) {
            0 => ImportanceAnomaly::InfiniteColor,
            1 => ImportanceAnomaly::HugeColor,
            2 => ImportanceAnomaly::NanColor,
            _ => ImportanceAnomaly::None,
        };

        Scenario {
            seed,
            servers,
            access_bps: *rng.choose(&[1_000_000u64, 10_000_000, 25_000_000]),
            backbone_bps: *rng.choose(&[2_000_000u64, 155_000_000]),
            components,
            client: *rng.choose(&[
                ClientKind::Workstation,
                ClientKind::Workstation,
                ClientKind::Workstation,
                ClientKind::Highend,
                ClientKind::Highend,
                ClientKind::BudgetPc,
            ]),
            strategy: *rng.choose(&[
                ClassificationStrategy::SnsThenOif,
                ClassificationStrategy::SnsThenOif,
                ClassificationStrategy::OifOnly,
                ClassificationStrategy::CostOnly,
                ClassificationStrategy::QosOnly,
            ]),
            guarantee: if rng.chance(0.5) {
                Guarantee::Guaranteed
            } else {
                Guarantee::BestEffort
            },
            video_req: req(&mut rng, 3),
            audio_req: req(&mut rng, 2),
            image_req: req(&mut rng, 3),
            max_cost,
            cost_per_dollar_idx: rng.below(Self::COST_PER_DOLLAR.len() as u64) as u8,
            anomaly,
            max_startup_ms: *rng.choose(&[1u64, 400, 10_000]),
            jitter_buffer_ms: *rng.choose(&[0u64, 2_000]),
            choice_period_ms: *rng.choose(&[0u64, 30_000]),
            hog_access_pct: *rng.choose(&[0u8, 0, 0, 50, 90, 100]),
            server0_admission_pct: *rng.choose(&[100u8, 100, 100, 40, 5]),
        }
    }

    /// Instantiate the scenario: catalog, document, client, profile.
    /// The stateful world (farm + network) is built per execution path by
    /// [`BuiltScenario::make_world`].
    pub fn build(&self) -> BuiltScenario {
        let document = DocumentId(1);
        let mut catalog = Catalog::new();
        let mut monos = Vec::new();
        for (c, comp) in self.components.iter().enumerate() {
            monos.push(
                Monomedia::new(MonomediaId(c as u64 + 1), comp.kind, format!("m{c}"))
                    .with_duration_ms(comp.duration_ms),
            );
        }
        catalog
            .add_document(Document::multimedia(
                document,
                "oracle scenario",
                monos,
                Vec::new(),
                Vec::new(),
            ))
            .expect("scenario document is well-formed");

        let mut next_variant = 1u64;
        for (c, comp) in self.components.iter().enumerate() {
            for vs in &comp.variants {
                let server = ServerId(vs.server.min(self.servers - 1) as u64);
                let (format, qos, bps) = variant_media(comp.kind, vs);
                let blocks = BlockStats::new(
                    vs.max_block.max(1),
                    vs.avg_block.clamp(1, vs.max_block.max(1)),
                );
                catalog
                    .add_variant(Variant {
                        id: VariantId(next_variant),
                        monomedia: MonomediaId(c as u64 + 1),
                        format,
                        qos,
                        blocks,
                        blocks_per_second: bps,
                        file_bytes: vs.file_kb as u64 * 1_000,
                        server,
                    })
                    .expect("scenario variant is well-formed");
                next_variant += 1;
            }
        }

        let client = match self.client {
            ClientKind::Workstation => ClientMachine::era_workstation(ClientId(0)),
            ClientKind::Highend => ClientMachine::era_highend(ClientId(0)),
            ClientKind::BudgetPc => ClientMachine::era_budget_pc(ClientId(0)),
        };

        let mut importance = ImportanceProfile {
            cost_per_dollar: Self::COST_PER_DOLLAR[self.cost_per_dollar_idx as usize % 5],
            ..ImportanceProfile::default()
        };
        match self.anomaly {
            ImportanceAnomaly::None => {}
            ImportanceAnomaly::InfiniteColor => importance.color[3] = f64::INFINITY,
            ImportanceAnomaly::HugeColor => importance.color[3] = f64::MAX,
            ImportanceAnomaly::NanColor => importance.color[3] = f64::NAN,
        }

        let desired = self.spec(|r| r.desired.max(r.worst));
        let worst = self.spec(|r| r.worst);
        let cost_model = CostModel::era_default();

        // Resolve the cost ceiling: `AtEnumeratedOffer` pins it to the
        // exact CostDoc of one naively enumerated offer.
        let max_cost = match self.max_cost {
            CostCeiling::Millis(m) => Money::from_millis(m),
            CostCeiling::AtEnumeratedOffer(k, delta) => {
                let costs = enumerated_costs(&catalog, document, &cost_model, self.guarantee);
                match costs.is_empty() {
                    true => Money::from_millis(2_000 + delta),
                    false => costs[k as usize % costs.len()] + Money::from_millis(delta),
                }
            }
        };

        let profile = UserProfile {
            name: format!("oracle-{}", self.seed),
            desired,
            worst,
            importance,
            max_cost,
            time: TimeProfile {
                max_startup_ms: self.max_startup_ms,
                choice_period_ms: self.choice_period_ms,
            },
        };

        BuiltScenario {
            scenario: self.clone(),
            catalog,
            document,
            client,
            profile,
            cost_model,
        }
    }

    fn spec(&self, pick: impl Fn(&ReqSpec) -> u8) -> MmQosSpec {
        let mut out = MmQosSpec::default();
        if let Some(r) = &self.video_req {
            let l = pick(r) as usize;
            out.video = Some(VideoQos {
                color: ColorDepth::ALL[l.min(3)],
                resolution: Resolution::new(Self::RES_LADDER[l.min(3)]),
                frame_rate: FrameRate::new(Self::FPS_LADDER[l.min(3)].clamp(1, 60)),
            });
        }
        if let Some(r) = &self.audio_req {
            let l = pick(r) as usize;
            out.audio = Some(AudioQos {
                quality: AudioQuality::ALL[l.min(2)],
                language: match r.desired % 3 {
                    0 => Language::English,
                    1 => Language::French,
                    _ => Language::Any,
                },
            });
        }
        if let Some(r) = &self.image_req {
            let l = pick(r) as usize;
            out.image = Some(ImageQos {
                color: ColorDepth::ALL[l.min(3)],
                resolution: Resolution::new(Self::RES_LADDER[l.min(3)]),
            });
        }
        out
    }

    /// Print this scenario back as a Rust struct literal (the shrinker's
    /// repro emitter).
    pub fn to_rust_literal(&self) -> String {
        let mut s = String::new();
        s.push_str("Scenario {\n");
        s.push_str(&format!("    seed: {},\n", self.seed));
        s.push_str(&format!("    servers: {},\n", self.servers));
        s.push_str(&format!("    access_bps: {},\n", self.access_bps));
        s.push_str(&format!("    backbone_bps: {},\n", self.backbone_bps));
        s.push_str("    components: vec![\n");
        for c in &self.components {
            s.push_str(&format!(
                "        ComponentSpec {{ kind: MediaKind::{:?}, duration_ms: {}, variants: vec![\n",
                c.kind, c.duration_ms
            ));
            for v in &c.variants {
                s.push_str(&format!(
                    "            VariantSpec {{ color: {}, res: {}, fps: {}, lang: {}, max_block: {}, avg_block: {}, file_kb: {}, server: {} }},\n",
                    v.color, v.res, v.fps, v.lang, v.max_block, v.avg_block, v.file_kb, v.server
                ));
            }
            s.push_str("        ] },\n");
        }
        s.push_str("    ],\n");
        s.push_str(&format!("    client: ClientKind::{:?},\n", self.client));
        s.push_str(&format!(
            "    strategy: ClassificationStrategy::{:?},\n",
            self.strategy
        ));
        s.push_str(&format!(
            "    guarantee: Guarantee::{:?},\n",
            self.guarantee
        ));
        let req = |r: &Option<ReqSpec>| match r {
            None => "None".to_string(),
            Some(r) => format!(
                "Some(ReqSpec {{ worst: {}, desired: {} }})",
                r.worst, r.desired
            ),
        };
        s.push_str(&format!("    video_req: {},\n", req(&self.video_req)));
        s.push_str(&format!("    audio_req: {},\n", req(&self.audio_req)));
        s.push_str(&format!("    image_req: {},\n", req(&self.image_req)));
        let ceiling = match self.max_cost {
            CostCeiling::Millis(m) => format!("CostCeiling::Millis({m})"),
            CostCeiling::AtEnumeratedOffer(k, d) => {
                format!("CostCeiling::AtEnumeratedOffer({k}, {d})")
            }
        };
        s.push_str(&format!("    max_cost: {ceiling},\n"));
        s.push_str(&format!(
            "    cost_per_dollar_idx: {},\n",
            self.cost_per_dollar_idx
        ));
        s.push_str(&format!(
            "    anomaly: ImportanceAnomaly::{:?},\n",
            self.anomaly
        ));
        s.push_str(&format!("    max_startup_ms: {},\n", self.max_startup_ms));
        s.push_str(&format!(
            "    jitter_buffer_ms: {},\n",
            self.jitter_buffer_ms
        ));
        s.push_str(&format!(
            "    choice_period_ms: {},\n",
            self.choice_period_ms
        ));
        s.push_str(&format!("    hog_access_pct: {},\n", self.hog_access_pct));
        s.push_str(&format!(
            "    server0_admission_pct: {},\n",
            self.server0_admission_pct
        ));
        s.push('}');
        s
    }
}

/// The instantiated (stateless) half of a scenario.
pub struct BuiltScenario {
    /// The originating scenario.
    pub scenario: Scenario,
    /// The MM database.
    pub catalog: Catalog,
    /// The generated document.
    pub document: DocumentId,
    /// The client machine.
    pub client: ClientMachine,
    /// The user profile (cost ceiling already resolved).
    pub profile: UserProfile,
    /// The pricing model.
    pub cost_model: CostModel,
}

impl BuiltScenario {
    /// Build a fresh stateful world (farm + network) with the scenario's
    /// pre-existing load applied. Each execution path gets its own world so
    /// reservations made by one run never leak into the next.
    pub fn make_world(&self) -> (ServerFarm, Network) {
        let s = &self.scenario;
        let farm = ServerFarm::uniform(s.servers as usize, ServerConfig::era_default());
        if s.server0_admission_pct < 100 {
            if let Some(server) = farm.server(ServerId(0)) {
                server.set_admission_factor(s.server0_admission_pct as f64 / 100.0);
            }
        }
        let network = Network::new(Topology::dumbbell(
            1,
            s.servers as usize,
            s.access_bps,
            s.backbone_bps,
        ));
        if s.hog_access_pct > 0 {
            let bps = s.access_bps / 100 * s.hog_access_pct as u64;
            // Best-effort background traffic: reserve toward server 0 so the
            // client's access link is (up to exactly) full.
            let _ = network.try_reserve(ClientId(0), ServerId(0), bps);
        }
        (farm, network)
    }

    /// Pre-reserve `streams` concurrent streams of `req` on every server
    /// (test helper for capacity-exhaustion repros).
    pub fn preload_streams(&self, farm: &ServerFarm, req: &StreamRequirement, streams: usize) {
        for id in 0..self.scenario.servers {
            for _ in 0..streams {
                let _ = farm.try_reserve(ServerId(id as u64), *req);
            }
        }
    }
}

/// Map one flattened variant spec to its concrete media identity.
fn variant_media(kind: MediaKind, vs: &VariantSpec) -> (Format, MediaQos, u32) {
    match kind {
        MediaKind::Video => (
            Format::Mpeg1,
            MediaQos::Video(VideoQos {
                color: ColorDepth::ALL[(vs.color as usize).min(3)],
                resolution: Resolution::new(vs.res.clamp(10, 1920)),
                frame_rate: FrameRate::new(vs.fps.clamp(1, 60)),
            }),
            vs.fps.clamp(1, 60),
        ),
        MediaKind::Audio => (
            Format::PcmLinear,
            MediaQos::Audio(AudioQos {
                quality: AudioQuality::ALL[(vs.color as usize).min(2)],
                language: match vs.lang % 3 {
                    0 => Language::English,
                    1 => Language::French,
                    _ => Language::Any,
                },
            }),
            50,
        ),
        _ => (
            Format::Jpeg,
            MediaQos::Image(ImageQos {
                color: ColorDepth::ALL[(vs.color as usize).min(3)],
                resolution: Resolution::new(vs.res.clamp(10, 1920)),
            }),
            0,
        ),
    }
}

/// CostDoc of every naively enumerated offer, in enumeration order — used
/// to resolve [`CostCeiling::AtEnumeratedOffer`]. Components with zero
/// variants yield no offers.
fn enumerated_costs(
    catalog: &Catalog,
    document: DocumentId,
    cost_model: &CostModel,
    guarantee: Guarantee,
) -> Vec<Money> {
    let per_mono = match catalog.variants_of_document(document) {
        Ok(p) => p,
        Err(_) => return Vec::new(),
    };
    let doc = catalog.document(document).expect("document exists");
    let durations: Vec<u64> = doc.monomedia().iter().map(|m| m.duration_ms).collect();
    let mut costs = Vec::new();
    fn recurse(
        per_mono: &[(MonomediaId, Vec<&Variant>)],
        durations: &[u64],
        cost_model: &CostModel,
        guarantee: Guarantee,
        depth: usize,
        acc: Money,
        costs: &mut Vec<Money>,
    ) {
        if costs.len() >= 4096 {
            return; // ceiling resolution never needs the deep tail
        }
        if depth == per_mono.len() {
            costs.push(acc);
            return;
        }
        for v in &per_mono[depth].1 {
            let (net, ser) = cost_model.monomedia_cost(v, durations[depth], guarantee);
            recurse(
                per_mono,
                durations,
                cost_model,
                guarantee,
                depth + 1,
                acc + net + ser,
                costs,
            );
        }
    }
    recurse(
        &per_mono,
        &durations,
        cost_model,
        guarantee,
        0,
        cost_model.copyright,
        &mut costs,
    );
    costs
}
